//! Framework-side support for sharded cluster runs: per-machine record
//! capture and fleet-wide metrics aggregation.
//!
//! The engine itself lives in [`enoki_sim::cluster`]; this module is the
//! framework glue around it. A cluster capture gives every machine in
//! the fleet its **own** record stream — one [`Recorder`] and one
//! lock-id counter per machine — because replay operates on a single
//! module's coherent call history. A log that interleaved several
//! machines' records would diverge immediately: lock creation order is
//! the replay identity, and each machine's module numbers its locks
//! from 1.
//!
//! Worker threads bind to a machine's stream with
//! [`crate::record::set_record_stream`] *before constructing or running
//! it* and emit an epoch frame ([`crate::record::mark_epoch`]) at every
//! barrier, so each per-machine log is a self-contained, replayable
//! history with enough framing to align it against the rest of the
//! fleet offline.

use crate::metrics::MetricsSnapshot;
use crate::record::{self, Recorder};
use enoki_sim::cluster::ClusterSpec;
use enoki_sim::Ns;

/// Default bound on the records one machine's recorder buffers.
pub const DEFAULT_CLUSTER_RECORD_SLOTS: usize = 1 << 14;

/// Fluent configuration for a cluster run's framework side: how many
/// machines (record streams), how they shard, and the epoch cadence.
///
/// Produces the [`enoki_sim::cluster::ClusterSpec`] handed to the engine
/// plus, when recording, a [`ClusterCapture`] that owns the fleet's
/// per-machine record streams:
///
/// ```ignore
/// let builder = ClusterBuilder::new(100).shards(8);
/// let capture = builder.record();
/// let report = enoki_sim::cluster::run_parallel(builder.spec(), threads, factory)?;
/// let logs = capture.finish();   // one replayable log per machine
/// ```
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    machines: usize,
    shards: usize,
    quantum: Ns,
    latency: Ns,
    mailbox_capacity: usize,
    record_slots: usize,
}

impl ClusterBuilder {
    /// Starts a builder for a fleet of `machines` machines, initially
    /// one shard per machine.
    pub fn new(machines: usize) -> ClusterBuilder {
        assert!(machines > 0, "a cluster needs at least one machine");
        let defaults = ClusterSpec::new(1);
        ClusterBuilder {
            machines,
            shards: machines,
            quantum: defaults.quantum,
            latency: defaults.latency,
            mailbox_capacity: defaults.mailbox_capacity,
            record_slots: DEFAULT_CLUSTER_RECORD_SLOTS,
        }
    }

    /// Sets the logical shard count — the determinism unit. Machines are
    /// distributed over shards contiguously; the shard count (not the
    /// host thread count) defines the result. Clamped to the machine
    /// count.
    pub fn shards(mut self, shards: usize) -> ClusterBuilder {
        assert!(shards > 0, "a cluster needs at least one shard");
        self.shards = shards.min(self.machines);
        self
    }

    /// Sets the epoch quantum (virtual time between barriers).
    pub fn quantum(mut self, quantum: Ns) -> ClusterBuilder {
        self.quantum = quantum;
        self
    }

    /// Sets the cross-shard delivery latency applied after the barrier.
    pub fn latency(mut self, latency: Ns) -> ClusterBuilder {
        self.latency = latency;
        self
    }

    /// Sets the per-peer mailbox capacity (power of two, validated by
    /// the engine at ring construction).
    pub fn mailbox_capacity(mut self, capacity: usize) -> ClusterBuilder {
        self.mailbox_capacity = capacity;
        self
    }

    /// Sets the bound on records buffered per machine; a capture has no
    /// writer thread, so this is the most one machine's log can hold.
    pub fn record_slots(mut self, slots: usize) -> ClusterBuilder {
        self.record_slots = slots;
        self
    }

    /// Number of machines (record streams) in the fleet.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The engine spec for this configuration.
    pub fn spec(&self) -> ClusterSpec {
        let mut spec = ClusterSpec::new(self.shards);
        spec.quantum = self.quantum;
        spec.latency = self.latency;
        spec.mailbox_capacity = self.mailbox_capacity;
        spec
    }

    /// The contiguous machine range owned by shard `shard` (mirrors the
    /// engine's shard-to-thread chunking, so machine `m` always lives on
    /// shard `m * shards / machines`).
    pub fn machine_range(&self, shard: usize) -> std::ops::Range<usize> {
        let lo = self.machines * shard / self.shards;
        let hi = self.machines * (shard + 1) / self.shards;
        lo..hi
    }

    /// Arms process-global **sharded** record mode with one stream per
    /// machine and returns the capture handle. Worker threads must bind
    /// with [`record::set_record_stream`] before constructing or running
    /// a machine. Arming is process-global (like plain record mode):
    /// serialize runs that capture, and call [`ClusterCapture::finish`]
    /// when done.
    pub fn record(&self) -> ClusterCapture {
        let recorders: Vec<Recorder> = (0..self.machines)
            .map(|_| Recorder::new(self.record_slots))
            .collect();
        record::enable_record_sharded(recorders.clone());
        ClusterCapture { recorders }
    }
}

/// Owns the per-machine record streams of an armed cluster capture.
pub struct ClusterCapture {
    recorders: Vec<Recorder>,
}

impl ClusterCapture {
    /// Number of record streams (machines) in the capture.
    pub fn streams(&self) -> usize {
        self.recorders.len()
    }

    /// Records dropped so far across all streams (bound overruns).
    pub fn dropped(&self) -> u64 {
        self.recorders.iter().map(Recorder::dropped).sum()
    }

    /// Disarms record mode and takes every stream's bytes as its own
    /// log. Each log is a complete, self-contained record history of one
    /// machine — parseable with [`record::parse_log`] and replayable
    /// exactly like a solo-recorded run.
    pub fn finish(self) -> ClusterLogs {
        record::disable();
        let dropped = self.dropped();
        let logs = self.recorders.iter().map(Recorder::take_bytes).collect();
        ClusterLogs { logs, dropped }
    }
}

/// The encoded per-machine record logs of a finished cluster capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterLogs {
    /// One encoded record log per machine, in machine order. Byte-equal
    /// across runs of the same seeded fleet at any host thread count.
    pub logs: Vec<Vec<u8>>,
    /// Total records lost to bound overruns (0 in a sound capture).
    pub dropped: u64,
}

/// Aggregates per-shard metrics snapshots into one fleet-wide snapshot
/// (order-independent; see [`MetricsSnapshot::absorb`]).
pub fn aggregate_metrics<'a, I>(shards: I) -> MetricsSnapshot
where
    I: IntoIterator<Item = &'a MetricsSnapshot>,
{
    let mut total = MetricsSnapshot::default();
    for s in shards {
        total.absorb(s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Rec;

    #[test]
    fn builder_clamps_and_partitions_machines() {
        let b = ClusterBuilder::new(10).shards(4);
        assert_eq!(b.spec().shards, 4);
        let mut seen = Vec::new();
        for s in 0..4 {
            seen.extend(b.machine_range(s));
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        // More shards than machines clamps.
        assert_eq!(ClusterBuilder::new(3).shards(8).spec().shards, 3);
    }

    #[test]
    fn capture_produces_one_log_per_machine() {
        // Process-global record state: self-contained, disarms via
        // finish() (same discipline as the record.rs sharded test).
        let b = ClusterBuilder::new(3).shards(2).record_slots(64);
        let capture = b.record();
        assert_eq!(capture.streams(), 3);
        for m in 0..3u32 {
            record::set_record_stream(m);
            record::mark_epoch(m, 0, 1_000);
        }
        record::clear_record_stream();
        let logs = capture.finish();
        assert_eq!(logs.dropped, 0);
        assert_eq!(logs.logs.len(), 3);
        for (m, bytes) in logs.logs.iter().enumerate() {
            let parsed = record::parse_log(&bytes[..]).unwrap();
            assert_eq!(parsed.records.len(), 1);
            assert_eq!(
                parsed.records[0],
                Rec::EpochMark {
                    tid: 0,
                    stream: m as u32,
                    epoch: 0,
                    at: 1_000
                }
            );
        }
    }
}
