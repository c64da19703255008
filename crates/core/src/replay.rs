//! Replay: re-runs recorded scheduler traces in userspace (paper §3.4).
//!
//! The replay system consumes the record log, reconstructs the per-lock
//! acquisition orders, then drives the *exact same scheduler code* that ran
//! in the kernel: one real thread per recorded kernel thread, each
//! replaying its message stream in order, with the shim locks blocking
//! each thread until it is its turn to acquire. Responses are validated
//! against the recorded ones and any divergence is reported.
//!
//! Like the paper's replayer, threads that arrive at a lock out of turn
//! block and retry; this sequencing (not the scheduler logic) dominates
//! replay time, which is why replay is much slower than live execution
//! (paper §5.8).

use crate::api::{EnokiScheduler, SchedCtx, TaskInfo};
use crate::forensics::{Divergence, DIVERGENCE_CONTEXT};
use crate::record::{self, CallArgs, FaultTag, FuncId, LockSequencer, Rec};
use crate::schedulable::{SchedError, Schedulable};
use enoki_sim::sched_class::KernelCtx;
use enoki_sim::{CpuSet, Ns, Topology, WakeFlags};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Sentinel `actual` value for a divergence caused by a replay-side panic
/// (there is no return value to compare; see [`Divergence::error`]).
pub const PANIC_SENTINEL: i64 = i64::MIN;

/// Tuning knobs for a replay run. The defaults match live kernel logs;
/// tests replaying deliberately lossy logs shrink both so the coordinator
/// reaches give-up mode quickly.
#[derive(Debug, Clone, Copy)]
pub struct ReplayOptions {
    /// After this many sequencing timeouts the coordinator gives up on
    /// ordering and only provides mutual exclusion (see
    /// [`ReplayCoordinator`]).
    pub give_up_after: u64,
    /// How long a thread waits for its recorded predecessor before
    /// declaring a sequencing timeout.
    pub wait_timeout: Duration,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            give_up_after: 50,
            wait_timeout: Duration::from_millis(100),
        }
    }
}

/// Result of a replay run.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Scheduler calls replayed.
    pub calls: u64,
    /// Hints replayed.
    pub hints: u64,
    /// Lock acquisitions sequenced.
    pub lock_acquires: u64,
    /// Kernel threads replayed (each becomes one real thread).
    pub threads: usize,
    /// Responses that differed from the recording, each typed with the
    /// call index, recorded vs. actual value, and a window of surrounding
    /// records (see [`Divergence`]).
    pub divergences: Vec<Divergence>,
    /// Times a thread timed out waiting for its recorded lock turn
    /// (indicates a truncated or drop-lossy log) and proceeded anyway.
    pub sequencing_timeouts: u64,
}

impl ReplayReport {
    /// True when the replayed scheduler matched the recording everywhere.
    pub fn faithful(&self) -> bool {
        self.divergences.is_empty() && self.sequencing_timeouts == 0
    }
}

struct CoordState {
    /// Remaining recorded acquisition order per lock.
    order: HashMap<u64, VecDeque<u32>>,
    /// Locks currently held by a replay thread.
    held: HashSet<u64>,
}

/// Enforces the recorded lock-acquisition order across replay threads.
pub struct ReplayCoordinator {
    state: Mutex<CoordState>,
    cv: Condvar,
    timeouts: AtomicU64,
    /// After this many sequencing timeouts the coordinator gives up on
    /// ordering (the log has clearly diverged) and only provides mutual
    /// exclusion, so a diverged replay still terminates quickly.
    give_up_after: u64,
    /// Per-wait timeout before declaring a missing predecessor.
    wait_timeout: Duration,
}

impl ReplayCoordinator {
    /// Builds the coordinator from a record log with default options.
    pub fn from_log(log: &[Rec]) -> Arc<ReplayCoordinator> {
        ReplayCoordinator::from_log_with(log, ReplayOptions::default())
    }

    /// Builds the coordinator from a record log with explicit options.
    pub fn from_log_with(log: &[Rec], opts: ReplayOptions) -> Arc<ReplayCoordinator> {
        let mut order: HashMap<u64, VecDeque<u32>> = HashMap::new();
        for rec in log {
            if let Rec::LockAcquire { tid, lock, .. } = rec {
                order.entry(*lock).or_default().push_back(*tid);
            }
        }
        Arc::new(ReplayCoordinator {
            state: Mutex::new(CoordState {
                order,
                held: HashSet::new(),
            }),
            cv: Condvar::new(),
            timeouts: AtomicU64::new(0),
            give_up_after: opts.give_up_after,
            wait_timeout: opts.wait_timeout,
        })
    }

    /// Number of out-of-order timeouts that occurred.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// True once the coordinator has stopped enforcing the recorded order
    /// and only provides mutual exclusion.
    pub fn gave_up(&self) -> bool {
        self.timeouts.load(Ordering::Relaxed) >= self.give_up_after
    }
}

impl LockSequencer for ReplayCoordinator {
    fn wait_turn(&self, lock: u64, tid: u32) {
        let gave_up = self.gave_up();
        let mut st = self.state.lock().expect("coordinator poisoned");
        loop {
            let my_turn = if gave_up {
                !st.held.contains(&lock)
            } else {
                match st.order.get(&lock) {
                    // Locks with no recorded history (fresh in replay) only
                    // need mutual exclusion.
                    None => !st.held.contains(&lock),
                    Some(q) => match q.front() {
                        None => !st.held.contains(&lock),
                        Some(&next) => next == tid && !st.held.contains(&lock),
                    },
                }
            };
            if my_turn {
                if let Some(q) = st.order.get_mut(&lock) {
                    q.pop_front();
                }
                st.held.insert(lock);
                return;
            }
            let (next_st, timeout) = self
                .cv
                .wait_timeout(st, self.wait_timeout)
                .expect("coordinator poisoned");
            st = next_st;
            if timeout.timed_out() {
                // The recorded predecessor never showed up (dropped
                // events); proceed to avoid deadlocking the replay.
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                if let Some(q) = st.order.get_mut(&lock) {
                    q.pop_front();
                }
            }
        }
    }

    fn released(&self, lock: u64, _tid: u32) {
        let mut st = self.state.lock().expect("coordinator poisoned");
        st.held.remove(&lock);
        drop(st);
        self.cv.notify_all();
    }
}

fn view_from_args(a: &CallArgs) -> TaskInfo {
    let mask = (a.aff_lo as u128) | ((a.aff_hi as u128) << 64);
    TaskInfo {
        pid: a.pid.max(0) as usize,
        runtime: Ns(a.runtime),
        delta_runtime: Ns(a.delta),
        cpu: a.cpu.max(0) as usize,
        weight: a.weight,
        nice: a.nice,
        affinity: CpuSet::from_mask(mask),
    }
}

fn flags_from(a: &CallArgs) -> WakeFlags {
    let waker = if a.flags >= 256 {
        Some((a.flags >> 8) as usize - 1)
    } else {
        None
    };
    WakeFlags {
        sync: a.flags & 1 != 0,
        fork: a.flags & 2 != 0,
        waker,
    }
}

/// Events routed to a single replay thread.
enum ThreadEvent {
    Call {
        /// Index of the `Call` record in the full log (for divergence
        /// context windows).
        idx: usize,
        func: FuncId,
        args: CallArgs,
        ret: Option<i64>,
        /// Set when a fault record marks this call as never having reached
        /// the module (injected panic, forged/dropped token): replay skips
        /// it instead of re-detonating.
        skip: bool,
    },
    Hint {
        pid: i64,
        hint: enoki_sim::HintVal,
    },
}

/// A divergence observed by a replay thread, before the context window is
/// attached (windows are cut from the shared log after the threads join).
struct DivergenceSeed {
    call_index: usize,
    tid: u32,
    func: FuncId,
    now: u64,
    recorded: i64,
    actual: i64,
    error: Option<SchedError>,
}

/// The suffix of `log` belonging to the newest scheduler epoch.
///
/// A [`FaultTag::Recovered`] record marks the moment a replacement module
/// re-registered after a quarantine: every call before it went to the old
/// (quarantined) instance, and the records immediately after it are the
/// framework re-feeding the preserved task set into the replacement via
/// `task_new`. Replaying from the last such marker drives a fresh module
/// instance through exactly what the replacement saw.
///
/// A [`Rec::Switch`] marker is the same boundary for a telemetry-driven
/// policy switch: the meta-scheduler constructed the incoming policy,
/// emitted the marker, and live-upgraded to it, so the records after the
/// marker (starting with the refeed `task_new` calls) are the new policy's
/// complete history.
///
/// Also returns the lock-id seed for the epoch: the replacement was
/// constructed mid-run, so its shim locks carry ids from an already
/// advanced counter. Those creations are the contiguous [`Rec::LockCreate`]
/// run just before the marker; seeding replay's counter at the first of
/// them makes the fresh instance allocate the recorded ids, which is what
/// keys the lock sequencer. Falls back to 1 (a plain reset) when the log
/// has no epoch marker or no recorded creations.
fn newest_epoch(log: &[Rec]) -> (&[Rec], u64) {
    let Some(marker) = log.iter().rposition(|r| {
        matches!(
            r,
            Rec::Fault { kind: FaultTag::Recovered, .. } | Rec::Switch { .. }
        )
    }) else {
        return (log, 1);
    };
    let mut seed = 1;
    for rec in log[..marker].iter().rev() {
        match rec {
            Rec::LockCreate { lock, .. } => seed = *lock,
            _ => break,
        }
    }
    (&log[marker + 1..], seed)
}

/// [`replay_on`] a one-node machine of `nr_cpus` cpus, with default
/// [`ReplayOptions`].
pub fn replay<S, F>(log: &[Rec], nr_cpus: usize, make: F) -> ReplayReport
where
    S: EnokiScheduler + 'static,
    S::UserMsg: From<enoki_sim::HintVal>,
    F: FnOnce() -> S,
{
    replay_on(
        log,
        &Topology::new(nr_cpus.max(1), 1),
        ReplayOptions::default(),
        make,
    )
}

/// [`replay_on`] a one-node machine of `nr_cpus` cpus.
pub fn replay_with<S, F>(log: &[Rec], nr_cpus: usize, opts: ReplayOptions, make: F) -> ReplayReport
where
    S: EnokiScheduler + 'static,
    S::UserMsg: From<enoki_sim::HintVal>,
    F: FnOnce() -> S,
{
    replay_on(log, &Topology::new(nr_cpus.max(1), 1), opts, make)
}

/// Replays a record log against a fresh instance of the same scheduler.
///
/// `make` is called (after lock-id reset) to build the scheduler exactly as
/// the recorded kernel module was built, and `topo` must be the recorded
/// machine's topology: a NUMA-aware policy reads `node_of` in its
/// decisions, so replaying a two-node log on one node diverges. One real
/// thread is spawned per recorded kernel thread; shim locks enforce the
/// recorded acquisition order across them.
pub fn replay_on<S, F>(log: &[Rec], topo: &Topology, opts: ReplayOptions, make: F) -> ReplayReport
where
    S: EnokiScheduler + 'static,
    S::UserMsg: From<enoki_sim::HintVal>,
    F: FnOnce() -> S,
{
    // Faulted runs may contain several scheduler epochs (quarantine, then
    // a replacement re-registered); replay the newest one against a fresh
    // module instance.
    let (log, lock_seed) = newest_epoch(log);
    // Phase 1 (paper: "the first 30 seconds are spent reading the file and
    // parsing lock operations"): split the log into per-thread message
    // streams and per-lock acquisition orders.
    let mut per_tid: HashMap<u32, Vec<ThreadEvent>> = HashMap::new();
    let mut pending_ret: HashMap<u32, usize> = HashMap::new(); // tid -> index of call awaiting ret
    let mut lock_acquires = 0u64;
    for (idx, rec) in log.iter().enumerate() {
        match *rec {
            Rec::Call { tid, func, args } => {
                let stream = per_tid.entry(tid).or_default();
                if returns_value(func) {
                    pending_ret.insert(tid, stream.len());
                }
                stream.push(ThreadEvent::Call {
                    idx,
                    func,
                    args,
                    ret: None,
                    skip: false,
                });
            }
            Rec::Ret { tid, func, val } => {
                if let Some(idx) = pending_ret.remove(&tid) {
                    if let Some(ThreadEvent::Call { func: f, ret, .. }) =
                        per_tid.get_mut(&tid).and_then(|s| s.get_mut(idx))
                    {
                        if *f == func {
                            *ret = Some(val);
                        }
                    }
                }
            }
            Rec::Hint {
                tid,
                pid,
                kind,
                a,
                b,
                c,
            } => {
                per_tid.entry(tid).or_default().push(ThreadEvent::Hint {
                    pid,
                    hint: enoki_sim::HintVal { kind, a, b, c },
                });
            }
            Rec::LockAcquire { .. } => lock_acquires += 1,
            Rec::LockCreate { .. } | Rec::LockRelease { .. } => {}
            Rec::Fault { tid, kind, .. } => match kind {
                // These mark the preceding call on `tid` as one the module
                // never (successfully) executed — an injected or caught
                // panic, or a token the framework forged/dropped in its
                // place. Replay must not re-run it.
                FaultTag::InjectedPanic
                | FaultTag::InjectedPanicInLock
                | FaultTag::CaughtPanic
                | FaultTag::ForgedToken
                | FaultTag::DroppedToken => {
                    pending_ret.remove(&tid);
                    if let Some(ThreadEvent::Call { skip, .. }) = per_tid
                        .get_mut(&tid)
                        .and_then(|s| s.iter_mut().rev().find(|e| matches!(e, ThreadEvent::Call { .. })))
                    {
                        *skip = true;
                    }
                }
                // A suppressed hint delivery: the module never saw the
                // hint, so drop the matching event from the stream.
                FaultTag::HintStall => {
                    if let Some(stream) = per_tid.get_mut(&tid) {
                        if let Some(pos) =
                            stream.iter().rposition(|e| matches!(e, ThreadEvent::Hint { .. }))
                        {
                            stream.remove(pos);
                        }
                    }
                }
                // Markers for the quarantine state machine itself; the
                // epoch slicing above already accounts for them.
                FaultTag::Quarantined | FaultTag::Recovered => {}
            },
            // Policy-switch epoch markers: `newest_epoch` cuts the log at
            // the last one, so any still in range belong to older epochs
            // reached via an explicit full-log replay; they carry no call.
            Rec::Switch { .. } => {}
            // Pick-decision annotations are pure observability: the pick
            // itself replays from its Call/Ret pair, and decision emission
            // is disabled during replay, so these carry no call.
            Rec::Decision { .. } => {}
            // Cluster epoch frames are pure framing for offline log
            // alignment; they carry no call and are NOT epoch cuts in the
            // `newest_epoch` sense (the machine's module ran continuously
            // across cluster barriers).
            Rec::EpochMark { .. } => {}
        }
    }

    // Phase 2: rebuild the scheduler with matching lock identities (seeded
    // so a mid-run replacement's ids line up), arm the sequencer, and
    // replay each kernel thread's stream on its own thread.
    record::seed_lock_ids(lock_seed);
    let scheduler = make();
    let coord = ReplayCoordinator::from_log_with(log, opts);
    record::enable_replay(coord.clone());

    let scheduler = Arc::new(scheduler);
    let seeds = Arc::new(Mutex::new(Vec::new()));
    let mut calls = 0u64;
    let mut hints = 0u64;
    let threads = per_tid.len();

    std::thread::scope(|scope| {
        for (tid, stream) in per_tid {
            calls += stream
                .iter()
                .filter(|e| matches!(e, ThreadEvent::Call { .. }))
                .count() as u64;
            hints += stream
                .iter()
                .filter(|e| matches!(e, ThreadEvent::Hint { .. }))
                .count() as u64;
            let sched = scheduler.clone();
            let div = seeds.clone();
            scope.spawn(move || {
                record::set_tid(tid);
                let topo = std::rc::Rc::new(topo.clone());
                for ev in stream {
                    match ev {
                        ThreadEvent::Call { skip: true, .. } => {}
                        ThreadEvent::Call {
                            idx,
                            func,
                            args,
                            ret,
                            skip: false,
                        } => {
                            replay_call(&*sched, &topo, idx, tid, func, &args, ret, &div);
                        }
                        ThreadEvent::Hint { pid, hint } => {
                            let k = KernelCtx::new(Ns::ZERO, topo.clone());
                            let ctx = SchedCtx::new(&k);
                            sched.parse_hint(&ctx, pid.max(0) as usize, hint.into());
                        }
                    }
                }
            });
        }
    });

    record::disable();
    let mut seeds = Arc::try_unwrap(seeds)
        .map(|m| m.into_inner().expect("not poisoned"))
        .unwrap_or_default();
    // Threads finish in nondeterministic order; report in log order.
    seeds.sort_by_key(|s: &DivergenceSeed| s.call_index);
    let divergences = seeds
        .into_iter()
        .map(|s| {
            let start = s.call_index.saturating_sub(DIVERGENCE_CONTEXT);
            let end = (s.call_index + DIVERGENCE_CONTEXT + 1).min(log.len());
            Divergence {
                call_index: s.call_index,
                tid: s.tid,
                func: s.func,
                now: s.now,
                recorded: s.recorded,
                actual: s.actual,
                error: s.error,
                window_start: start,
                window: log[start..end].to_vec(),
            }
        })
        .collect();
    ReplayReport {
        calls,
        hints,
        lock_acquires,
        threads,
        divergences,
        sequencing_timeouts: coord.timeouts(),
    }
}

fn returns_value(func: FuncId) -> bool {
    matches!(
        func,
        FuncId::SelectTaskRq | FuncId::Balance | FuncId::PickNextTask | FuncId::MigrateTaskRq
    )
}

#[allow(clippy::too_many_arguments)]
fn replay_call<S: EnokiScheduler>(
    sched: &S,
    topo: &std::rc::Rc<Topology>,
    idx: usize,
    tid: u32,
    func: FuncId,
    args: &CallArgs,
    expected: Option<i64>,
    divergences: &Mutex<Vec<DivergenceSeed>>,
) {
    let k = KernelCtx::new(Ns(args.now), topo.clone());
    let ctx = SchedCtx::new(&k);
    let t = view_from_args(args);
    // Replay is panic-safe like live dispatch: a module that panics on a
    // replayed call yields a typed divergence instead of tearing down the
    // replay thread (and with it the sequencing of every other thread).
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut got: Option<i64> = None;
        match func {
            FuncId::SelectTaskRq => {
                let cpu =
                    sched.select_task_rq(&ctx, &t, args.prev_cpu.max(0) as usize, flags_from(args));
                got = Some(cpu as i64);
            }
            FuncId::TaskNew => sched.task_new(&ctx, &t, Schedulable::mint(t.pid, t.cpu)),
            FuncId::TaskWakeup => {
                sched.task_wakeup(&ctx, &t, flags_from(args), Schedulable::mint(t.pid, t.cpu))
            }
            FuncId::TaskBlocked => sched.task_blocked(&ctx, &t),
            FuncId::TaskYield => sched.task_yield(&ctx, &t, Schedulable::mint(t.pid, t.cpu)),
            FuncId::TaskPreempt => sched.task_preempt(&ctx, &t, Schedulable::mint(t.pid, t.cpu)),
            FuncId::TaskDead => sched.task_dead(&ctx, args.pid.max(0) as usize),
            FuncId::TaskDeparted => {
                let _ = sched.task_departed(&ctx, &t);
            }
            FuncId::TaskTick => sched.task_tick(&ctx, args.cpu.max(0) as usize, &t),
            FuncId::Balance => {
                let res = sched.balance(&ctx, args.cpu.max(0) as usize);
                got = Some(res.map_or(-1, |p| p as i64));
            }
            FuncId::PickNextTask => {
                let cpu = args.cpu.max(0) as usize;
                let res = sched.pick_next_task(&ctx, cpu, None);
                got = Some(res.as_ref().map_or(-1, |s| s.pid() as i64));
                // Mirror the dispatch layer's token validation so scheduler
                // state stays consistent through recorded pnt_err paths.
                if let Some(tok) = res {
                    if tok.cpu() != cpu {
                        let err = SchedError::WrongCpu {
                            wanted: cpu,
                            got: tok.cpu(),
                        };
                        sched.pnt_err(&ctx, cpu, err, Some(tok));
                    }
                }
            }
            FuncId::MigrateTaskRq => {
                let old = sched.migrate_task_rq(&ctx, &t, Schedulable::mint(t.pid, t.cpu));
                got = Some(old.as_ref().map_or(-1, |s| s.pid() as i64));
            }
            FuncId::TaskPrioChanged => sched.task_prio_changed(&ctx, &t),
            FuncId::TaskAffinityChanged => sched.task_affinity_changed(&ctx, &t),
            // pnt_err / balance_err calls are regenerated by the validation
            // mirror above, not replayed directly.
            FuncId::PntErr | FuncId::BalanceErr => {}
        }
        got
    }));
    let seed = match outcome {
        Ok(got) => match (expected, got) {
            (Some(exp), Some(got)) if exp != got => Some(DivergenceSeed {
                call_index: idx,
                tid,
                func,
                now: args.now,
                recorded: exp,
                actual: got,
                error: None,
            }),
            _ => None,
        },
        Err(_payload) => Some(DivergenceSeed {
            call_index: idx,
            tid,
            func,
            now: args.now,
            recorded: expected.unwrap_or(-1),
            actual: PANIC_SENTINEL,
            error: Some(SchedError::Panic { func }),
        }),
    };
    if let Some(seed) = seed {
        divergences.lock().expect("not poisoned").push(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LockOp;

    #[test]
    fn coordinator_orders_two_threads() {
        let log = vec![
            Rec::LockAcquire {
                tid: 1,
                lock: 10,
                op: LockOp::Mutex,
            },
            Rec::LockAcquire {
                tid: 2,
                lock: 10,
                op: LockOp::Mutex,
            },
            Rec::LockAcquire {
                tid: 1,
                lock: 10,
                op: LockOp::Mutex,
            },
        ];
        let coord = ReplayCoordinator::from_log(&log);
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            // Thread 2 tries first but must wait for thread 1's turn.
            let c2 = coord.clone();
            let o2 = order.clone();
            let h2 = s.spawn(move || {
                c2.wait_turn(10, 2);
                o2.lock().unwrap().push(2);
                c2.released(10, 2);
            });
            std::thread::sleep(Duration::from_millis(50));
            let c1 = coord.clone();
            let o1 = order.clone();
            let h1 = s.spawn(move || {
                c1.wait_turn(10, 1);
                o1.lock().unwrap().push(1);
                c1.released(10, 1);
                c1.wait_turn(10, 1);
                o1.lock().unwrap().push(1);
                c1.released(10, 1);
            });
            h1.join().unwrap();
            h2.join().unwrap();
        });
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 1]);
        assert_eq!(coord.timeouts(), 0);
    }

    #[test]
    fn coordinator_times_out_on_missing_predecessor() {
        // Recorded order says tid 9 goes first, but tid 9 never arrives.
        let log = vec![
            Rec::LockAcquire {
                tid: 9,
                lock: 5,
                op: LockOp::Mutex,
            },
            Rec::LockAcquire {
                tid: 1,
                lock: 5,
                op: LockOp::Mutex,
            },
        ];
        let coord = ReplayCoordinator::from_log(&log);
        coord.wait_turn(5, 1);
        coord.released(5, 1);
        assert!(coord.timeouts() >= 1);
    }

    #[test]
    fn coordinator_gives_up_after_repeated_timeouts() {
        // Every lock's recorded predecessor (tid 9) never arrives; after
        // `give_up_after` timeouts the coordinator stops enforcing order.
        let log = vec![
            Rec::LockAcquire {
                tid: 9,
                lock: 1,
                op: LockOp::Mutex,
            },
            Rec::LockAcquire {
                tid: 1,
                lock: 1,
                op: LockOp::Mutex,
            },
            Rec::LockAcquire {
                tid: 9,
                lock: 2,
                op: LockOp::Mutex,
            },
            Rec::LockAcquire {
                tid: 1,
                lock: 2,
                op: LockOp::Mutex,
            },
            Rec::LockAcquire {
                tid: 9,
                lock: 3,
                op: LockOp::Mutex,
            },
        ];
        let opts = ReplayOptions {
            give_up_after: 2,
            wait_timeout: Duration::from_millis(5),
        };
        let coord = ReplayCoordinator::from_log_with(&log, opts);
        assert!(!coord.gave_up());
        coord.wait_turn(1, 1);
        coord.released(1, 1);
        coord.wait_turn(2, 1);
        coord.released(2, 1);
        assert!(coord.gave_up());
        // In give-up mode an out-of-order acquisition no longer waits out
        // the timeout: only mutual exclusion is provided.
        coord.wait_turn(3, 1);
        coord.released(3, 1);
        assert_eq!(coord.timeouts(), 2);
    }

    #[test]
    fn unknown_locks_need_only_mutual_exclusion() {
        let coord = ReplayCoordinator::from_log(&[]);
        coord.wait_turn(42, 1);
        coord.released(42, 1);
        coord.wait_turn(42, 2);
        coord.released(42, 2);
        assert_eq!(coord.timeouts(), 0);
    }

    #[test]
    fn view_reconstruction_round_trips() {
        let args = CallArgs {
            now: 5,
            pid: 12,
            runtime: 100,
            delta: 10,
            cpu: 3,
            prev_cpu: 1,
            weight: 1024,
            nice: -5,
            flags: 1,
            aff_lo: 0xFF,
            aff_hi: 0,
        };
        let v = view_from_args(&args);
        assert_eq!(v.pid, 12);
        assert_eq!(v.cpu, 3);
        assert_eq!(v.weight, 1024);
        assert!(v.affinity.contains(7));
        assert!(!v.affinity.contains(8));
        assert!(flags_from(&args).sync);
        assert!(!flags_from(&args).fork);
    }
}
