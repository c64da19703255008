//! `pipe_wfq`: `perf bench sched pipe` under the Enoki WFQ scheduler
//! (paper Table 3), and the layer ladder measured on the same machine.
//!
//! Two tasks, run-queue depth at most one, a handful of pending events:
//! almost all host time is the `Machine` step, the `SchedClass` adapter
//! and `EnokiClass::dispatch_*`; the policy and the timer wheel's depth
//! do little. The pipe scripts take no seed.

use crate::harness::{Cfg, Metrics, Rep, Workload};
use crate::micro;
use crate::proxy::{TimedClass, TimedPolicy};
use crate::span::{Kind, Layer, Sink};
use enoki_core::health::HealthConfig;
use enoki_core::{record, EnokiClass, EnokiScheduler, FlightSpec, MachineBuilder};
use enoki_sched::{Fifo, Wfq};
use enoki_sim::fifo_ref::RefFifo;
use enoki_sim::task::TaskState;
use enoki_sim::{CostModel, HintVal, Machine, Topology};
use enoki_workloads::pipe::{run_pipe_on, PipeConfig};
use enoki_workloads::testbed::{build, BedOptions, SchedKind, TestBed};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Round trips per repetition (6 simulated events each).
const ROUND_TRIPS: u64 = 300_000;
/// Round trips per ladder rung.
pub const LADDER_ROUND_TRIPS: u64 = 200_000;

/// A testbed whose class and policy sit behind the timing proxies.
pub fn proxied_bed<S>(
    topo: Topology,
    sink: &Arc<Sink>,
    policy: S,
    load: fn(usize, Box<TimedPolicy<S>>) -> EnokiClass<HintVal, HintVal>,
) -> TestBed
where
    S: EnokiScheduler<UserMsg = HintVal, RevMsg = HintVal> + 'static,
{
    let nr = topo.nr_cpus();
    let mut machine = Machine::new(topo, CostModel::calibrated());
    let class = Rc::new(load(
        nr,
        Box::new(TimedPolicy::new(policy, Arc::clone(sink))),
    ));
    let class_idx = machine.add_class(Rc::new(TimedClass::new(
        Rc::clone(&class),
        Arc::clone(sink),
    )));
    bed(machine, class_idx, Some(class))
}

/// A single-class testbed around an already built machine.
fn bed(
    machine: Machine,
    class_idx: usize,
    enoki: Option<Rc<EnokiClass<HintVal, HintVal>>>,
) -> TestBed {
    TestBed {
        machine,
        class_idx,
        cfs_idx: None,
        enoki,
        ghost: None,
        watchdog: None,
    }
}

/// The paper's i7-9700 bed under WFQ, proxied when `sink` is given.
pub fn wfq_bed(sink: Option<&Arc<Sink>>) -> TestBed {
    let topo = Topology::i7_9700();
    match sink {
        None => build(
            topo,
            CostModel::calibrated(),
            SchedKind::Wfq,
            BedOptions::default(),
        ),
        Some(s) => proxied_bed(topo, s, Wfq::new(8), |nr, p| EnokiClass::load("wfq", nr, p)),
    }
}

/// Runs the two-core pipe benchmark on `bed` as one timed region and
/// checks that both tasks ran their scripts to the end.
pub fn timed_pipe(bed: &mut TestBed, round_trips: u64, sink: Option<&Arc<Sink>>) -> Rep {
    let mut rep = Rep {
        attempted: round_trips,
        ..Rep::default()
    };
    let open = sink.map(|s| s.enter(Kind::Run));
    let t0 = Instant::now();
    let cfg = PipeConfig {
        round_trips,
        one_core: false,
    };
    let result = catch_unwind(AssertUnwindSafe(|| run_pipe_on(bed, cfg)));
    rep.wall_s = t0.elapsed().as_secs_f64();
    if let (Some(s), Some(o)) = (sink, open) {
        s.exit(o);
    }
    let m = &bed.machine;
    rep.events = m.events_processed();
    rep.wakeups = m.stats().wakeup_latency.count();
    rep.sim.events = rep.events;
    match result {
        Ok(r) => rep.sim.pipe_us_per_msg = r.us_per_msg,
        Err(_) => rep.check(round_trips, "run_pipe_on panicked (SimError or incomplete)"),
    }
    let alive = (0..m.nr_tasks())
        .filter(|&p| m.task(p).state != TaskState::Dead)
        .count();
    rep.check(alive as u64, "tasks not Dead");
    if let Some(class) = &bed.enoki {
        rep.check_dispatch(class);
    }
    rep
}

/// The `pipe_wfq` workload.
pub struct PipeWfq {
    round_trips: u64,
    ladder_round_trips: u64,
    out: std::path::PathBuf,
}

impl PipeWfq {
    /// Sized by `cfg`.
    pub fn new(cfg: &Cfg) -> PipeWfq {
        PipeWfq {
            round_trips: cfg.size(ROUND_TRIPS),
            ladder_round_trips: cfg.size(LADDER_ROUND_TRIPS),
            out: cfg.out.clone(),
        }
    }
}

impl Workload for PipeWfq {
    fn prepare<'a>(&'a mut self, sink: Option<&Arc<Sink>>) -> Box<dyn FnOnce() -> Rep + 'a> {
        let mut bed = wfq_bed(sink);
        let (n, sink) = (self.round_trips, sink.cloned());
        Box::new(move || timed_pipe(&mut bed, n, sink.as_ref()))
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
        out.push((
            "core.dispatch.seam_ns_per_call",
            micro::dispatch_seam_ns_per_call(),
        ));
        ladder(
            &LADDER[..7],
            self.ladder_round_trips,
            &self.out,
            out,
            checks,
        );
    }
}

/// Self time of the three sim-side layers from the proxies' spans, per
/// event or call and as shares of the traced wall:
/// machine = run − Σ class spans, dispatch = Σ class − Σ policy spans.
pub fn sim_layer_metrics(sink: &Sink, traced: &[Rep], out: &mut Metrics) {
    let events = traced.iter().map(|r| r.events).sum::<u64>().max(1) as f64;
    let run_ns = sink.ns(Kind::Run) as f64;
    let (d_calls, d_ns) = sink.layer(Layer::Dispatch);
    let (p_calls, p_ns) = sink.layer(Layer::Policy);
    let per_call = |kind| sink.ns(kind) as f64 / sink.count(kind).max(1) as f64;
    out.extend([
        (
            "trace.machine_share",
            (run_ns - d_ns as f64) / run_ns.max(1.0),
        ),
        (
            "trace.dispatch_share",
            (d_ns as f64 - p_ns as f64) / run_ns.max(1.0),
        ),
        ("trace.policy_share", p_ns as f64 / run_ns.max(1.0)),
        ("trace.wall_ns_per_event", run_ns / events),
        (
            "sim.machine.self_ns_per_event",
            (run_ns - d_ns as f64) / events,
        ),
        (
            "core.dispatch.self_ns_per_call",
            (d_ns as f64 - p_ns as f64) / d_calls.max(1) as f64,
        ),
        ("core.dispatch.calls_per_event", d_calls as f64 / events),
        (
            "sched.policy.self_ns_per_call",
            p_ns as f64 / p_calls.max(1) as f64,
        ),
        ("sched.policy.calls_per_event", p_calls as f64 / events),
        ("sched.policy.pick_ns_per_call", per_call(Kind::PPick)),
        (
            "sched.policy.select_rq_ns_per_call",
            per_call(Kind::PSelectRq),
        ),
        ("sched.policy.balance_ns_per_call", per_call(Kind::PBalance)),
    ]);
}

/// One rung of the ladder: the pipe machine with one more layer armed.
pub struct Rung {
    /// Metric name.
    pub name: &'static str,
    run: fn(u64, &std::path::Path) -> (f64, u64),
}

/// `(host ns per simulated event, failed checks)` of the pipe run on `bed`.
fn time_bed(mut bed: TestBed, n: u64) -> (f64, u64) {
    let rep = timed_pipe(&mut bed, n, None);
    let incidents = bed.watchdog.as_ref().map_or(0, |w| w.incident_count());
    (
        rep.wall_s * 1e9 / rep.events.max(1) as f64,
        rep.failed + incidents,
    )
}

fn builder() -> MachineBuilder {
    // Decisions are their own (last) rung; every earlier one runs with them off.
    MachineBuilder::new(Topology::i7_9700(), CostModel::calibrated())
        .scheduler("wfq", Box::new(Wfq::new(8)))
        .decision_trace(false)
}

fn time_built(b: MachineBuilder, n: u64) -> (f64, u64) {
    let built = b.build();
    time_bed(
        TestBed {
            watchdog: built.watchdog,
            ..bed(built.machine, built.class_idx, Some(built.class))
        },
        n,
    )
}

fn flight_spec(out: &std::path::Path) -> FlightSpec {
    FlightSpec {
        capacity: 1 << 16,
        dir: out.to_path_buf(),
        ..FlightSpec::default()
    }
}

fn armed(b: MachineBuilder) -> MachineBuilder {
    b.token_ledger().health(HealthConfig::default()).failsafe()
}

fn time_recorded(decisions: bool, n: u64, out: &std::path::Path) -> (f64, u64) {
    record::reset_lock_ids();
    let path = out.join(format!("ladder_{}.log", std::process::id()));
    let built = armed(builder())
        .flight(flight_spec(out))
        .decision_trace(decisions);
    let session = enoki_replay::start_recording(&path, 1 << 22).expect("record log is writable");
    let (ns, mut failed) = time_built(built, n);
    failed += session.dropped();
    enoki_replay::stop_recording(session).expect("record log flushes");
    enoki_core::flight::disarm();
    std::fs::remove_file(&path).ok();
    (ns, failed)
}

/// The ladder, bottom rung first. Each rung adds one layer to the one
/// before it, except `metrics_off`, which takes the metrics layer away
/// from `wfq` (so `ledger` is compared with `wfq`).
pub const LADDER: [Rung; 10] = [
    Rung {
        name: "ladder.ref_fifo_ns_per_event",
        run: |n, _| {
            let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
            let idx = m.add_class(Rc::new(RefFifo::new(8)));
            time_bed(bed(m, idx, None), n)
        },
    },
    Rung {
        name: "ladder.enoki_fifo_ns_per_event",
        run: |n, _| {
            let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
            let idx = m.add_class(Rc::new(EnokiClass::load("fifo", 8, Box::new(Fifo::new(8)))));
            time_bed(bed(m, idx, None), n)
        },
    },
    Rung {
        name: "ladder.wfq_ns_per_event",
        run: |n, _| time_built(builder(), n),
    },
    Rung {
        name: "ladder.metrics_off_ns_per_event",
        run: |n, _| {
            enoki_core::metrics::set_enabled(false);
            let r = time_built(builder(), n);
            enoki_core::metrics::set_enabled(true);
            r
        },
    },
    Rung {
        name: "ladder.ledger_ns_per_event",
        run: |n, _| time_built(builder().token_ledger(), n),
    },
    Rung {
        name: "ladder.health_ns_per_event",
        run: |n, _| time_built(builder().token_ledger().health(HealthConfig::default()), n),
    },
    Rung {
        name: "ladder.failsafe_ns_per_event",
        run: |n, _| time_built(armed(builder()), n),
    },
    Rung {
        name: "ladder.flight_ns_per_event",
        run: |n, out| {
            let r = time_built(armed(builder()).flight(flight_spec(out)), n);
            enoki_core::flight::disarm();
            r
        },
    },
    Rung {
        name: "ladder.record_ns_per_event",
        run: |n, out| time_recorded(false, n, out),
    },
    Rung {
        name: "ladder.record_decisions_ns_per_event",
        run: |n, out| time_recorded(true, n, out),
    },
];

/// Runs `rungs` twice, interleaved, and reports each rung's faster time
/// (noise only adds time). Failed checks of a rung count in `checks`.
pub fn ladder(
    rungs: &[Rung],
    round_trips: u64,
    out_dir: &std::path::Path,
    out: &mut Metrics,
    checks: &mut Rep,
) {
    let mut best = vec![f64::INFINITY; rungs.len()];
    for _ in 0..2 {
        for (i, rung) in rungs.iter().enumerate() {
            let (ns, failed) = (rung.run)(round_trips, out_dir);
            // The builder sets the process-wide decision switch; put the default back.
            enoki_core::tracing::set_decision_trace(true);
            checks.check(failed, rung.name);
            best[i] = best[i].min(ns);
        }
    }
    out.extend(rungs.iter().zip(best).map(|(r, ns)| (r.name, ns)));
}
