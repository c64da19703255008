//! `schbench_cfs80`: schbench with 2 message threads x 40 workers under
//! native CFS on the 80-cpu, two-socket Xeon (paper Table 4, and the CFS
//! baseline of every harness).
//!
//! 80 cpus of ticks, 82 tasks and periodic balancing: policy callbacks
//! and a deep timer-wheel pending set carry the time (about 3x the host
//! time per event of WFQ on the pipe bed); dispatch is the small share.
//! schbench draws its jitter from a fixed internal stream, so it takes no
//! seed.

use crate::harness::{Cfg, Metrics, Rep, Workload};
use crate::micro;
use crate::span::{Kind, Sink};
use crate::workloads::pipe::{proxied_bed, sim_layer_metrics};
use enoki_core::EnokiClass;
use enoki_sched::Cfs;
use enoki_sim::{CostModel, Ns, Topology};
use enoki_workloads::schbench::{run_schbench, SchbenchConfig};
use enoki_workloads::testbed::{build, BedOptions, SchedKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Simulated warm-up, excluded from schbench's percentiles.
const WARMUP_MS: u64 = 50;
/// Simulated measurement window per repetition.
const WINDOW_MS: u64 = 50;

/// The `schbench_cfs80` workload.
pub struct SchbenchCfs80 {
    cfg: SchbenchConfig,
}

impl SchbenchCfs80 {
    /// Sized by `cfg`.
    pub fn new(cfg: &Cfg) -> SchbenchCfs80 {
        let mut c = SchbenchConfig::table4(2, 40);
        // Quick mode keeps a 5 ms warm-up so the window still sees rounds.
        c.warmup = Ns::from_ms(if cfg.quick { 5 } else { WARMUP_MS });
        c.duration = Ns::from_us(cfg.size(WINDOW_MS * 1000).max(2000));
        SchbenchCfs80 { cfg: c }
    }
}

impl Workload for SchbenchCfs80 {
    fn prepare<'a>(&'a mut self, sink: Option<&Arc<Sink>>) -> Box<dyn FnOnce() -> Rep + 'a> {
        let topo = Topology::xeon_6138_2s();
        let mut bed = match sink {
            None => build(
                topo,
                CostModel::calibrated(),
                SchedKind::Cfs,
                BedOptions::default(),
            ),
            Some(s) => {
                let mut bed = proxied_bed(topo, s, Cfs::new(80), |nr, p| {
                    EnokiClass::load_native("cfs", nr, p).with_periodic_balance()
                });
                bed.cfs_idx = Some(bed.class_idx);
                bed
            }
        };
        let (cfg, sink) = (self.cfg, sink.cloned());
        Box::new(move || {
            let mut rep = Rep::default();
            let open = sink.as_ref().map(|s| s.enter(Kind::Run));
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| run_schbench(&mut bed, cfg)));
            rep.wall_s = t0.elapsed().as_secs_f64();
            if let (Some(s), Some(o)) = (&sink, open) {
                s.exit(o);
            }
            rep.events = bed.machine.events_processed();
            rep.wakeups = bed.machine.stats().wakeup_latency.count();
            rep.sim.events = rep.events;
            match result {
                Ok(r) => {
                    rep.attempted = r.rounds;
                    rep.sim.schbench_rounds = r.rounds;
                    rep.sim.schbench_p99_ns = r.p99.as_nanos();
                    rep.check((r.rounds == 0) as u64, "no schbench round completed");
                }
                Err(_) => rep.check(1, "run_schbench panicked (SimError)"),
            }
            rep.check_dispatch(bed.enoki.as_ref().expect("CFS is an Enoki class"));
            rep
        })
    }

    fn layers(
        &mut self,
        sink: &Arc<Sink>,
        traced: &[Rep],
        _untraced: &[Rep],
        out: &mut Metrics,
        _checks: &mut Rep,
    ) {
        sim_layer_metrics(sink, traced, out);
        out.push(("sim.event.push_pop_ns", micro::event_queue_push_pop_ns()));
    }
}
