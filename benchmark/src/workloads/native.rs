//! `native_pingpong`: two real OS threads alternating `FutexWake` /
//! `FutexWait` under WFQ on the native backend, one cpu lane.
//!
//! The same policy and dispatch code as `pipe_wfq`, on real threads: the
//! time lives in `enoki_core::native` (mpsc events, condvar grants, the
//! timer thread) and none of it in `enoki-sim`. A sim-only speed-up must
//! not move it; a native one must not move the others. The scripts take
//! no seed.
//!
//! Sizing trap: where the host kernel puts the coordinator and the
//! workers decides the result. Sharing a host cpu, a wakeup costs ~3 µs;
//! apart, every grant pays a cross-cpu wake from idle and a wakeup costs
//! ~42 µs (two lanes on two cores: 23 vs 42 µs), and the mode flips
//! between runs of the same binary. So the workload uses one lane and
//! pins the process to one host cpu before any thread starts: what is
//! left is the cost of `core::native` itself.

use crate::harness::{Cfg, Metrics, Rep, Workload};
use crate::proxy::TimedPolicy;
use crate::span::{Kind, Layer, Sink};
use enoki_core::builder::{Backend, BuiltNative};
use enoki_core::{EnokiScheduler, MachineBuilder, NativeOp, NativeTaskSpec};
use enoki_sched::Wfq;
use enoki_sim::{CostModel, HintVal, Topology};
use std::sync::Arc;
use std::time::Duration;

/// Round trips per repetition (two futex wakeups each).
const ROUND_TRIPS: u64 = 50_000;
const PING: u64 = 0xA;
const PONG: u64 = 0xB;

/// The `native_pingpong` workload.
pub struct NativePingpong {
    round_trips: u64,
    /// `[dispatch calls, ticks, preemptions, wall seconds]` of each traced run.
    traced: Vec<[f64; 4]>,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process (and every thread it starts from now on) to the
/// lowest host cpu it is allowed to run on. Returns whether it worked.
fn pin_to_one_cpu() -> bool {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return false;
    };
    let bit = mask[word] & mask[word].wrapping_neg();
    mask = [0; 16];
    mask[word] = bit;
    // SAFETY: `mask` is a live buffer of exactly the size passed; the call
    // only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

impl NativePingpong {
    /// Sized by `cfg`; pins the process to one host cpu.
    pub fn new(cfg: &Cfg) -> NativePingpong {
        if !pin_to_one_cpu() {
            eprintln!("native_pingpong: could not pin to one cpu; expect a bimodal result");
        }
        NativePingpong {
            round_trips: cfg.size(ROUND_TRIPS),
            traced: Vec::new(),
        }
    }

    /// A wakes B and waits; B waits, then wakes A. The trailing wakes keep
    /// either side from ending parked.
    fn scripts(&self) -> [Vec<NativeOp>; 2] {
        let n = self.round_trips as usize;
        let mut a = Vec::with_capacity(2 * n + 1);
        let mut b = Vec::with_capacity(2 * n + 1);
        for _ in 0..n {
            a.extend([NativeOp::FutexWake(PONG, 1), NativeOp::FutexWait(PING)]);
            b.extend([NativeOp::FutexWait(PONG), NativeOp::FutexWake(PING, 1)]);
        }
        a.push(NativeOp::FutexWake(PONG, 1));
        b.push(NativeOp::FutexWake(PING, 1));
        [a, b]
    }
}

impl Workload for NativePingpong {
    fn prepare<'a>(&'a mut self, sink: Option<&Arc<Sink>>) -> Box<dyn FnOnce() -> Rep + 'a> {
        let policy: Box<dyn EnokiScheduler<UserMsg = HintVal, RevMsg = HintVal>> = match sink {
            None => Box::new(Wfq::new(1)),
            Some(s) => Box::new(TimedPolicy::new(Wfq::new(1), Arc::clone(s))),
        };
        let BuiltNative {
            mut machine, class, ..
        } = MachineBuilder::new(Topology::new(1, 1), CostModel::calibrated())
            .scheduler("wfq", policy)
            .backend(Backend::Native)
            .token_ledger()
            .build_native();
        let [a, b] = self.scripts();
        let ops = (a.len() + b.len()) as u64;
        machine.spawn(NativeTaskSpec::new("ping", a));
        machine.spawn(NativeTaskSpec::new("pong", b));
        let traced = sink.is_some();
        Box::new(move || {
            let mut rep = Rep {
                attempted: self.round_trips,
                ..Rep::default()
            };
            match machine.run_to_completion(Duration::from_secs(120)) {
                Ok(r) => {
                    rep.wall_s = r.wall.as_secs_f64();
                    rep.events = ops;
                    rep.wakeups = 2 * self.round_trips;
                    rep.check(2 - (r.completed as u64).min(2), "tasks not completed");
                    rep.check(r.bad_picks, "bad_picks");
                    if traced {
                        self.traced.push([
                            class.stats().calls as f64,
                            r.ticks as f64,
                            r.preemptions as f64,
                            rep.wall_s,
                        ]);
                    }
                }
                Err(e) => rep.check(self.round_trips, &format!("native run failed: {e}")),
            }
            rep.check_dispatch(&class);
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
        let wakeups = traced.iter().map(|r| r.wakeups).sum::<u64>().max(1) as f64;
        let sum = |i: usize| self.traced.iter().map(|t| t[i]).sum::<f64>();
        let (p_calls, p_ns) = sink.layer(Layer::Policy);
        let reps = self.traced.len().max(1) as f64;
        out.extend([
            ("core.native.us_per_wakeup", sum(3) * 1e6 / wakeups),
            (
                "core.native.policy_ns_per_call",
                p_ns as f64 / p_calls.max(1) as f64,
            ),
            ("core.native.dispatch_calls_per_wakeup", sum(0) / wakeups),
            ("core.native.ticks", sum(1) / reps),
            ("core.native.preemptions", sum(2) / reps),
            (
                "sched.policy.pick_ns_per_call",
                sink.ns(Kind::PPick) as f64 / sink.count(Kind::PPick).max(1) as f64,
            ),
        ]);
    }
}
