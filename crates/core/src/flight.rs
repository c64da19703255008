//! The always-on flight recorder: a fixed-budget, lock-free,
//! overwrite-oldest mirror of the record stream, plus automatic
//! black-box dumps.
//!
//! Full recording ([`crate::record`]) answers every question about a run
//! — but only if it was armed *before* the anomaly, and its cost (a
//! writer thread and a file that grows with the run) rules it out as an
//! always-on default for fleets of cells. The flight recorder closes
//! that gap the way an aircraft black box does: the last
//! [`FlightSpec::capacity`] records are always in memory, overwriting
//! the oldest, and when something goes wrong — a critical
//! [`crate::health::HealthEvent`], a quarantine, an SLO burn, or an
//! explicit [`SnapshotBlackbox::snapshot_blackbox`] — the ring is
//! snapshotted to `results/blackbox_<reason>_<vt>.bin` next to a JSON
//! manifest (reason, virtual time, seed, builder config, recent
//! incidents, pick-latency exemplars, tail task).
//!
//! Dumps reuse the [`Rec`] encoding byte for byte, so a black box is an
//! ordinary record log: `forensics`, `tracing`, and every `enoki-log`
//! subcommand consume it unchanged, and `enoki-log blackbox <dump>`
//! chains summary → critical path → why on the tail task the manifest
//! names. Because the mirrored stream is a pure function of the
//! virtual-time run, the same seed and fault plan reproduce a
//! byte-identical dump — `bench_gate` pins the FNV of exactly that.
//!
//! Arming is process-global and goes through the [`crate::record`] mode
//! switch: [`arm`] installs the ring (usually via
//! [`crate::MachineBuilder::flight`]) next to the armed record/replay
//! mode and sets the flight bit of the record hook word, [`disarm`]
//! clears it and removes the ring. While armed and not replaying,
//! [`crate::record::recording`] reports true, and the
//! [`crate::record::emit`] funnel pushes each record into the ring held
//! by its thread-local snapshot of the armed sinks, so every existing
//! emission site feeds the ring with no new hooks.

use crate::health::Incident;
use crate::json;
use crate::metrics::{EventKind, SchedulerMetrics};
use crate::record::{self, Rec};
use crate::tracing::SpanGraph;
use enoki_sim::{Machine, Ns};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration of the flight recorder ring and its dump triggers.
#[derive(Clone, Debug)]
pub struct FlightSpec {
    /// Ring capacity in records (rounded up to a power of two). The
    /// budget is fixed: memory is `capacity * size_of::<Rec>()` forever,
    /// regardless of run length.
    pub capacity: usize,
    /// Directory black-box dumps land in.
    pub dir: PathBuf,
    /// Minimum virtual time between two *automatic* dumps. A cascade of
    /// critical incidents (one quarantine fans out into several events)
    /// produces one dump, not one per incident. Explicit snapshots
    /// ignore this.
    pub min_gap: Ns,
    /// Cap on automatic dumps per arming; explicit snapshots ignore it.
    pub max_dumps: u64,
    /// The scenario seed recorded in every manifest, when the run has
    /// one (e.g. the [`crate::FaultPlan::seeded`] seed) — the manifest
    /// is what makes the dump reproducible later.
    pub seed: Option<u64>,
}

impl Default for FlightSpec {
    fn default() -> FlightSpec {
        FlightSpec {
            capacity: 1 << 14,
            dir: PathBuf::from("results"),
            min_gap: Ns::from_ms(1),
            max_dumps: 8,
            seed: None,
        }
    }
}

// ---------------------------------------------------------------------
// The overwrite-oldest ring
// ---------------------------------------------------------------------

/// One ring slot: a seqlock word plus the record payload.
///
/// The sequence encodes both the writing generation and a parity bit:
/// writer `i` stores `2i + 1` (odd: write in progress), writes the
/// payload, then stores `2i + 2` (even: slot holds the record of global
/// index `i`). A reader accepts a slot only when it observes the same
/// even sequence before and after copying the payload.
struct Slot {
    seq: AtomicU64,
    rec: UnsafeCell<MaybeUninit<Rec>>,
}

/// A lock-free overwrite-oldest ring of [`Rec`]s.
///
/// Unlike [`crate::queue::RingBuffer`], which drops *new* records when
/// full (correct for a log that must stay a prefix), the flight ring
/// drops the *oldest* — the whole point is that the recent past always
/// survives. Writers claim global indices with one `fetch_add`; a
/// snapshot walks the last `capacity` indices and keeps every slot whose
/// seqlock was stable. In the deterministic simulator everything runs on
/// one thread, so snapshots are exact and reproducible; under real
/// concurrency a slot being overwritten mid-read is skipped, never torn.
pub(crate) struct FlightRing {
    slots: Box<[Slot]>,
    mask: u64,
    cursor: AtomicU64,
}

// Payload access is guarded by the per-slot seqlock protocol above.
unsafe impl Sync for FlightRing {}
unsafe impl Send for FlightRing {}

impl FlightRing {
    fn new(capacity: usize) -> FlightRing {
        let cap = capacity.max(2).next_power_of_two();
        FlightRing {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(u64::MAX),
                    rec: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: cap as u64 - 1,
            cursor: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn push(&self, rec: Rec) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i & self.mask) as usize];
        slot.seq.store(2 * i + 1, Ordering::Release);
        unsafe { (*slot.rec.get()).write(rec) };
        slot.seq.store(2 * i + 2, Ordering::Release);
    }

    /// Copies out the surviving window, oldest first.
    fn snapshot(&self) -> Vec<Rec> {
        let end = self.cursor.load(Ordering::Acquire);
        let start = end.saturating_sub(self.mask + 1);
        let mut out = Vec::with_capacity((end - start) as usize);
        for i in start..end {
            let slot = &self.slots[(i & self.mask) as usize];
            let want = 2 * i + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // overwritten (or mid-write) by a newer lap
            }
            let rec = unsafe { (*slot.rec.get()).assume_init() };
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            out.push(rec);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Global arming (through the record-mode switch)
// ---------------------------------------------------------------------

/// An armed ring and its dump settings, held by the record module's armed
/// sinks; [`crate::record::emit`] pushes into `ring`.
pub(crate) struct FlightState {
    pub(crate) ring: FlightRing,
    spec: FlightSpec,
    /// Builder-provided context embedded in every manifest.
    config: String,
    /// The class metrics handle, for pick-latency exemplars in the
    /// manifest (absent for hand-armed rings).
    metrics: Option<Arc<SchedulerMetrics>>,
    /// Virtual time of the last automatic dump (`u64::MAX` = never).
    last_auto_at: AtomicU64,
    auto_dumps: AtomicU64,
}

/// The most recent dump written since arming (any trigger).
static LAST_DUMP: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Arms the flight recorder process-wide with a fresh ring.
///
/// `config` is a JSON fragment describing the run (the builder passes
/// its own configuration; hand-armed harnesses may pass `"{}"`), and
/// `metrics` — when given — lets dumps attach pick-latency exemplars.
/// Re-arming replaces the ring. [`crate::MachineBuilder::flight`] is the
/// usual entry point.
pub fn arm(spec: FlightSpec, config: String, metrics: Option<Arc<SchedulerMetrics>>) {
    let st = Arc::new(FlightState {
        ring: FlightRing::new(spec.capacity),
        spec,
        config: if config.is_empty() { "{}".into() } else { config },
        metrics,
        last_auto_at: AtomicU64::new(u64::MAX),
        auto_dumps: AtomicU64::new(0),
    });
    *LAST_DUMP.lock().unwrap_or_else(PoisonError::into_inner) = None;
    record::set_flight(Some(st));
}

/// Disarms the flight recorder and drops the ring.
pub fn disarm() {
    record::set_flight(None);
}

/// The most recent black-box dump written since arming, if any.
pub fn last_dump() -> Option<PathBuf> {
    LAST_DUMP
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

// ---------------------------------------------------------------------
// Black-box dumps
// ---------------------------------------------------------------------

/// FNV-1a over a byte slice — the same deterministic hash the trace
/// layer pins graphs with, here pinning dump bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = enoki_sim::Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// Automatic trigger: dump if armed, rate-limited by
/// [`FlightSpec::min_gap`] and capped at [`FlightSpec::max_dumps`].
/// Called by the health watchdog for every critical incident (which
/// covers starvation, token loss, scheduler faults, quarantines, and
/// SLO burns — their severities are all critical). Failures to write
/// are swallowed: a black box must never take down the run it exists
/// to explain.
pub fn auto_dump(reason: &str, at: Ns, incidents: &[Incident]) {
    let Some(st) = record::flight() else { return };
    if st.auto_dumps.load(Ordering::Relaxed) >= st.spec.max_dumps {
        return;
    }
    let last = st.last_auto_at.load(Ordering::Relaxed);
    if last != u64::MAX && at.as_nanos().saturating_sub(last) < st.spec.min_gap.as_nanos() {
        return;
    }
    st.last_auto_at.store(at.as_nanos(), Ordering::Relaxed);
    st.auto_dumps.fetch_add(1, Ordering::Relaxed);
    let _ = write_dump(&st, reason, at, incidents);
}

/// Explicit trigger: dump now, ignoring the automatic rate limits.
/// Errors if the flight recorder is not armed or the dump cannot be
/// written.
pub fn dump(reason: &str, at: Ns, incidents: &[Incident]) -> std::io::Result<PathBuf> {
    let Some(st) = record::flight() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "flight recorder not armed (MachineBuilder::flight / flight::arm)",
        ));
    };
    write_dump(&st, reason, at, incidents)
}

/// Sanitizes a reason into a filename fragment.
fn slug(reason: &str) -> String {
    let s: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    if s.is_empty() { "manual".into() } else { s }
}

fn write_dump(
    st: &FlightState,
    reason: &str,
    at: Ns,
    incidents: &[Incident],
) -> std::io::Result<PathBuf> {
    let recs = st.ring.snapshot();
    let mut bytes = Vec::with_capacity(recs.len() * 32);
    for rec in &recs {
        rec.encode(&mut bytes);
    }
    let hash = fnv1a(&bytes);
    // The tail task is resolved at dump time. A starvation incident
    // names its victim directly — and the span graph's p99 tail can't,
    // because a still-starving task has no *completed* wait to rank.
    // Fall back to the graph tail for dumps with no task-specific
    // trigger (SLO burns, token loss, manual snapshots).
    let tail_pid = incidents
        .iter()
        .rev()
        .find_map(|inc| match inc.event {
            crate::health::HealthEvent::Starvation { pid, .. } => Some(pid as i64),
            _ => None,
        })
        .or_else(|| SpanGraph::build(&recs).tail_pid());

    std::fs::create_dir_all(&st.spec.dir)?;
    let stem = format!("blackbox_{}_{}", slug(reason), at.as_nanos());
    let bin = st.spec.dir.join(format!("{stem}.bin"));
    std::fs::write(&bin, &bytes)?;
    std::fs::write(
        st.spec.dir.join(format!("{stem}.json")),
        manifest(st, reason, at, recs.len(), hash, tail_pid, incidents),
    )?;
    *LAST_DUMP.lock().unwrap_or_else(PoisonError::into_inner) = Some(bin.clone());
    Ok(bin)
}

fn manifest(
    st: &FlightState,
    reason: &str,
    at: Ns,
    records: usize,
    hash: u64,
    tail_pid: Option<i64>,
    incidents: &[Incident],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\"reason\":");
    json::escape_into(&mut out, reason);
    let _ = write!(out, ",\"vt_ns\":{}", at.as_nanos());
    match st.spec.seed {
        Some(s) => {
            let _ = write!(out, ",\"seed\":{s}");
        }
        None => out.push_str(",\"seed\":null"),
    }
    let _ = write!(out, ",\"records\":{records},\"fnv\":\"{hash:016x}\"");
    match tail_pid {
        Some(p) => {
            let _ = write!(out, ",\"tail_pid\":{p}");
        }
        None => out.push_str(",\"tail_pid\":null"),
    }
    let _ = write!(out, ",\"config\":{}", st.config);
    out.push_str(",\"incidents\":[");
    for (i, inc) in incidents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        inc.write_json(&mut out);
    }
    out.push(']');
    // Pick-latency exemplars link the worst buckets straight to a task
    // and a virtual time — the entry points into the span graph.
    out.push_str(",\"pick_exemplars\":[");
    if let Some(m) = &st.metrics {
        let mut ex = m.exemplars(EventKind::PickLatency);
        ex.sort_by_key(|e| std::cmp::Reverse(e.value));
        for (i, e) in ex.iter().take(4).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"latency_ns\":{},\"pid\":{},\"at_ns\":{}}}",
                e.value.0,
                e.pid,
                e.at.as_nanos()
            );
        }
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------
// Explicit snapshots from a machine
// ---------------------------------------------------------------------

/// Explicit black-box snapshots: `machine.snapshot_blackbox("reason")`
/// dumps the armed flight ring at the machine's current virtual time.
pub trait SnapshotBlackbox {
    /// Dumps the flight ring now, named for `reason`; returns the dump
    /// path. Errors if the recorder is not armed.
    fn snapshot_blackbox(&self, reason: &str) -> std::io::Result<PathBuf>;
}

impl SnapshotBlackbox for Machine {
    fn snapshot_blackbox(&self, reason: &str) -> std::io::Result<PathBuf> {
        dump(reason, self.now(), &[])
    }
}

/// Reads the `"tail_pid"` field out of a dump's JSON manifest, given the
/// dump path (`<stem>.bin` → `<stem>.json`). Used by `enoki-log
/// blackbox` to start the causal analysis on the task the dump was
/// taken about; `None` when the manifest is missing or carries no tail.
pub fn manifest_tail_pid(dump: &Path) -> Option<i64> {
    let text = std::fs::read_to_string(dump.with_extension("json")).ok()?;
    json::parse(&text).ok()?.get("tail_pid")?.as_i64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CallArgs, FuncId};

    fn ret(i: u32) -> Rec {
        Rec::Ret { tid: i, func: FuncId::Balance, val: i as i64 }
    }

    #[test]
    fn ring_overwrites_oldest_and_snapshots_in_order() {
        let r = FlightRing::new(8);
        for i in 0..20u32 {
            r.push(ret(i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 8);
        // The last 8 pushes survive, oldest first.
        for (k, rec) in snap.iter().enumerate() {
            assert_eq!(*rec, ret(12 + k as u32));
        }
    }

    #[test]
    fn ring_snapshot_below_capacity_is_exact() {
        let r = FlightRing::new(16);
        for i in 0..5u32 {
            r.push(ret(i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap[0], ret(0));
        assert_eq!(snap[4], ret(4));
    }

    #[test]
    fn snapshots_are_identical_for_identical_pushes() {
        let mk = || {
            let r = FlightRing::new(8);
            for i in 0..100u32 {
                r.push(Rec::Call {
                    tid: i % 4,
                    func: FuncId::PickNextTask,
                    args: CallArgs { now: i as u64 * 10, ..CallArgs::default() },
                });
            }
            let mut bytes = Vec::new();
            for rec in r.snapshot() {
                rec.encode(&mut bytes);
            }
            fnv1a(&bytes)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn slug_sanitizes_reasons() {
        assert_eq!(slug("slo_burn"), "slo_burn");
        assert_eq!(slug("Weird Reason!"), "weird_reason_");
        assert_eq!(slug(""), "manual");
    }
}
