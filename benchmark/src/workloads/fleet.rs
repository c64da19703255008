//! `fleet_2t`: 100 two-core machines on the sharded cluster engine,
//! 8 shards on 2 worker threads (ROADMAP item 1(e)).
//!
//! 2,000 chains of short-lived step tasks hop between machines. It is the
//! only workload where the epoch-barrier engine, the SPSC mailboxes and
//! the spawn/exit path (one task per step, against two immortal tasks in
//! `pipe_wfq`) carry the time; 2 worker threads = `nproc` of the
//! reference host. `--seed` is `FleetSpec::seed`.

use crate::harness::{median, Cfg, Metrics, Rep, SimStats, Workload};
use crate::micro;
use crate::proxy::{ShardBusy, TimedShard};
use crate::span::{Kind, Sink};
use enoki_sim::cluster::{run_parallel, run_sequential, ClusterReport, ClusterSpec};
use enoki_sim::Ns;
use enoki_workloads::fleet::{factory, fleet_digest, FleetOutput, FleetSpec};
use std::sync::Arc;
use std::time::Instant;

/// Shards: the determinism unit, fixed.
const SHARDS: usize = 8;
/// Worker threads of the measured run.
const THREADS: usize = 2;
/// Steps per chain at full size (one task each).
const STEPS_PER_CHAIN: u64 = 250;

/// The `fleet_2t` workload.
pub struct Fleet2t {
    spec: FleetSpec,
    busy: Option<Arc<ShardBusy>>,
    /// Statistics of the latest 2-thread run, for the oracle check.
    latest: SimStats,
}

impl Fleet2t {
    /// Sized and seeded by `cfg`.
    pub fn new(cfg: &Cfg) -> Fleet2t {
        let spec = FleetSpec {
            machines: 100,
            cores_per_machine: 2,
            chains: 2000,
            steps_per_chain: cfg.size(STEPS_PER_CHAIN).max(2),
            step_work: Ns::from_us(40),
            migrate_every: 10,
            candidates: 3,
            seed: cfg.seed,
            trace_capacity: 1024,
        };
        Fleet2t {
            spec,
            busy: None,
            latest: SimStats::default(),
        }
    }

    /// Folds a cluster run into a repetition and checks its outputs.
    fn account(
        &self,
        result: Result<ClusterReport<FleetOutput>, enoki_sim::ClusterError>,
        wall_s: f64,
    ) -> Rep {
        let mut rep = Rep {
            wall_s,
            attempted: self.spec.chains as u64,
            ..Rep::default()
        };
        match result {
            Ok(r) => {
                let sum = |f: fn(&FleetOutput) -> u64| r.outputs.iter().map(f).sum::<u64>();
                rep.events = r.events;
                rep.wakeups = r
                    .outputs
                    .iter()
                    .map(|o| o.stats.wakeup_latency.count())
                    .sum();
                rep.sim.events = r.events;
                rep.sim.fleet_digest = fleet_digest(&r.outputs);
                rep.check(
                    self.spec.chains as u64 - sum(|o| o.completed).min(self.spec.chains as u64),
                    "chains not completed",
                );
                rep.check(
                    self.spec.total_tasks().abs_diff(sum(|o| o.spawned)),
                    "step tasks spawned vs planned",
                );
                rep.check(sum(|o| o.stats.nr_pick_rejects), "pick rejects");
            }
            Err(e) => rep.check(self.spec.chains as u64, &format!("ClusterError: {e}")),
        }
        rep
    }
}

impl Workload for Fleet2t {
    fn prepare<'a>(&'a mut self, sink: Option<&Arc<Sink>>) -> Box<dyn FnOnce() -> Rep + 'a> {
        // The engine builds its shards itself, on its worker threads and so
        // inside the timed region. To have a set-up time that shows work
        // moved into shard construction, the same shards are built once
        // here and dropped.
        let make = factory(self.spec, SHARDS);
        for id in 0..SHARDS {
            drop(std::hint::black_box(make(id)));
        }
        let sink = sink.cloned();
        Box::new(move || {
            let t0 = Instant::now();
            let result = match &sink {
                None => run_parallel(ClusterSpec::new(SHARDS), THREADS, make),
                Some(s) => {
                    let busy = Arc::clone(
                        self.busy
                            .get_or_insert_with(|| Arc::new(ShardBusy::new(SHARDS))),
                    );
                    let open = s.enter_root(Kind::Run, 0);
                    let r = run_parallel(ClusterSpec::new(SHARDS), THREADS, |id| {
                        TimedShard::build(id, &make, s, &busy)
                    });
                    s.exit(open);
                    r
                }
            };
            let rep = self.account(result, t0.elapsed().as_secs_f64());
            self.latest = rep.sim.clone();
            rep
        })
    }

    fn verify(&mut self, rep: &mut Rep) {
        // The sequential interpreter of the same epoch model is the oracle.
        let seq = self.account(
            run_sequential(ClusterSpec::new(SHARDS), factory(self.spec, SHARDS)),
            0.0,
        );
        rep.check(
            (self.latest != seq.sim) as u64,
            "2-thread digest/events differ from run_sequential",
        );
        rep.failed += seq.failed;
    }

    fn layers(
        &mut self,
        sink: &Arc<Sink>,
        traced: &[Rep],
        untraced: &[Rep],
        out: &mut Metrics,
        _checks: &mut Rep,
    ) {
        let busy_ns = self.busy.as_ref().map_or(vec![0; SHARDS], |b| b.ns());
        let run_ns = sink.ns(Kind::Run).max(1) as f64;
        let busy: f64 = busy_ns.iter().sum::<u64>() as f64;
        let reps = traced.len().max(1) as f64;
        let lanes = THREADS as f64 * run_ns;
        out.extend([
            ("sim.cluster.shard_busy_frac", busy / lanes),
            ("sim.cluster.engine_self_frac", 1.0 - busy / lanes),
            (
                "sim.cluster.max_shard_busy_s",
                *busy_ns.iter().max().unwrap_or(&0) as f64 / 1e9 / reps,
            ),
            (
                "workloads.fleet.shard_setup_s",
                sink.ns(Kind::SFactory) as f64 / 1e9 / reps,
            ),
        ]);
        let timed = |f: &dyn Fn()
            -> Result<ClusterReport<FleetOutput>, enoki_sim::ClusterError>| {
            let t0 = Instant::now();
            let r = f().expect("cluster run");
            (r, t0.elapsed().as_secs_f64())
        };
        let (one, one_s) =
            timed(&|| run_parallel(ClusterSpec::new(SHARDS), 1, factory(self.spec, SHARDS)));
        let (seq, seq_s) =
            timed(&|| run_sequential(ClusterSpec::new(SHARDS), factory(self.spec, SHARDS)));
        let two_s = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        out.extend([
            ("sim.cluster.speedup_2v1", one_s / two_s),
            ("sim.cluster.seq_events_per_sec", seq.events as f64 / seq_s),
            ("sim.cluster.epochs", one.epochs as f64),
            ("sim.cluster.messages", one.messages as f64),
        ]);
        let (single, batch) = micro::ring_ns();
        out.extend([
            ("core.queue.push_pop_ns", single),
            ("core.queue.batch_ns_per_msg", batch),
        ]);
    }
}
