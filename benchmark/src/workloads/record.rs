//! `pipe_record`: the `pipe_wfq` machine under record mode (paper §5.8).
//!
//! The same dispatch path used differently: every call also encodes a
//! record, pushes it through the ring and has the writer thread put it
//! on disk. It is the "writes beside reads" pair of `pipe_wfq`: a
//! dispatch change that helps `pipe_wfq` by costing the emit funnel shows
//! here. Only the record session is timed (run + `stop_recording`);
//! replay, forensics and the span graph run once per run, outside it.
//! The pipe scripts take no seed.
//!
//! Sizing trap: above ~100,000 round trips per session the 4 Mi-record
//! ring overflows on a 2-core host and records are dropped silently (the
//! run still exits 0), so a session stays at 100,000 and every dropped
//! record is a failed operation.

use crate::harness::{Cfg, Metrics, Rep, Workload};
use crate::micro;
use crate::span::{Kind, Sink};
use crate::workloads::pipe::{
    ladder, sim_layer_metrics, timed_pipe, wfq_bed, LADDER, LADDER_ROUND_TRIPS,
};
use enoki_core::forensics::attribute_latency;
use enoki_core::record::{self, Rec};
use enoki_core::tracing::SpanGraph;
use enoki_replay::{load_log, replay_file, start_recording, stop_recording};
use enoki_sched::Wfq;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Round trips per record session (one session per repetition).
const ROUND_TRIPS: u64 = 100_000;
/// Record ring capacity, in records.
const RING: usize = 1 << 22;

/// The `pipe_record` workload.
pub struct PipeRecord {
    round_trips: u64,
    ladder_round_trips: u64,
    out: PathBuf,
    log: PathBuf,
    /// `[records written, log bytes, flush seconds, records dropped]` of each session.
    sessions: Vec<[f64; 4]>,
    /// `[seconds, calls, divergences, sequencing timeouts]` of the run's one replay.
    replay: [f64; 4],
}

impl PipeRecord {
    /// Sized by `cfg`.
    pub fn new(cfg: &Cfg) -> PipeRecord {
        PipeRecord {
            round_trips: cfg.size(ROUND_TRIPS),
            ladder_round_trips: cfg.size(LADDER_ROUND_TRIPS),
            out: cfg.out.clone(),
            log: cfg
                .out
                .join(format!("pipe_record_{}.log", std::process::id())),
            sessions: Vec::new(),
            replay: [0.0; 4],
        }
    }
}

impl Drop for PipeRecord {
    fn drop(&mut self) {
        std::fs::remove_file(&self.log).ok();
    }
}

impl Workload for PipeRecord {
    fn prepare<'a>(&'a mut self, sink: Option<&Arc<Sink>>) -> Box<dyn FnOnce() -> Rep + 'a> {
        // Lock ids restart before the scheduler is built, as replay expects.
        record::reset_lock_ids();
        let mut bed = wfq_bed(sink);
        let session = start_recording(&self.log, RING).expect("record log is writable");
        let sink = sink.cloned();
        Box::new(move || {
            let t0 = Instant::now();
            let mut rep = timed_pipe(&mut bed, self.round_trips, sink.as_ref());
            let dropped = session.dropped();
            let flush = Instant::now();
            let open = sink.as_ref().map(|s| s.enter(Kind::Flush));
            let written = stop_recording(session);
            if let (Some(s), Some(o)) = (&sink, open) {
                s.exit(o);
            }
            rep.wall_s = t0.elapsed().as_secs_f64();
            rep.check(dropped, "records dropped by the ring");
            rep.check(written.is_err() as u64, "record log did not flush");
            let bytes = std::fs::metadata(&self.log).map_or(0, |m| m.len());
            self.sessions.push([
                written.unwrap_or(0) as f64,
                bytes as f64,
                flush.elapsed().as_secs_f64(),
                dropped as f64,
            ]);
            rep
        })
    }

    fn setup_is_droppable(&self) -> bool {
        false // a dropped set-up would leave record mode armed
    }

    fn verify(&mut self, rep: &mut Rep) {
        // The last session's log must replay against a fresh WFQ with no
        // divergence and no sequencing timeout.
        let t0 = Instant::now();
        match replay_file(&self.log, 8, || Wfq::new(8)) {
            Ok(r) => {
                self.replay = [
                    t0.elapsed().as_secs_f64(),
                    r.calls as f64,
                    r.divergences.len() as f64,
                    r.sequencing_timeouts as f64,
                ];
                rep.check(
                    r.divergences.len() as u64 + r.sequencing_timeouts,
                    "replay divergences + sequencing timeouts",
                );
            }
            Err(_) => rep.check(1, "record log did not load"),
        }
    }

    fn layers(
        &mut self,
        sink: &Arc<Sink>,
        traced: &[Rep],
        _untraced: &[Rep],
        out: &mut Metrics,
        checks: &mut Rep,
    ) {
        sim_layer_metrics(sink, traced, out);
        let n = self.sessions.len().max(1) as f64;
        let events = traced.first().map_or(1, |r| r.events).max(1) as f64;
        let sum = |i: usize| self.sessions.iter().map(|s| s[i]).sum::<f64>();
        out.extend([
            ("core.record.records_per_event", sum(0) / n / events),
            ("core.record.bytes_per_event", sum(1) / n / events),
            ("core.record.flush_s", sum(2) / n),
            ("core.record.dropped", sum(3)),
        ]);

        let log = sink
            .time(Kind::LoadLog, || load_log(&self.log))
            .expect("log loads");
        let latency = sink.time(Kind::Attribute, || attribute_latency(&log));
        let graph = sink.time(Kind::Graph, || SpanGraph::build(&log));
        std::hint::black_box((&latency, &graph));
        let secs = |k| sink.ns(k) as f64 / 1e9;
        out.extend([
            ("core.replay.replay_s", self.replay[0]),
            ("core.replay.calls", self.replay[1]),
            ("core.replay.divergences", self.replay[2]),
            ("core.replay.sequencing_timeouts", self.replay[3]),
            ("core.forensics.load_s", secs(Kind::LoadLog)),
            ("core.forensics.attribute_s", secs(Kind::Attribute)),
            ("core.tracing.graph_s", secs(Kind::Graph)),
        ]);
        let sample: Vec<Rec> = log.iter().take(1 << 16).copied().collect();
        drop(log);
        let (enc, dec) = micro::codec_ns(&sample);
        out.extend([
            ("core.record.encode_ns", enc),
            ("core.record.decode_ns", dec),
        ]);
        let (single, batch) = micro::ring_ns();
        out.extend([
            ("core.queue.push_pop_ns", single),
            ("core.queue.batch_ns_per_msg", batch),
        ]);
        ladder(
            &LADDER[6..],
            self.ladder_round_trips,
            &self.out,
            out,
            checks,
        );
    }
}
