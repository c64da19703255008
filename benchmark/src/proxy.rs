//! Timing proxies around the repo's public traits.
//!
//! Each proxy forwards **every** method of its trait, the defaulted ones
//! too, so a proxied run simulates exactly what an unproxied one does;
//! the message-path callbacks are wrapped in a span.

use crate::span::{Kind, Sink};
use enoki_core::metrics::SchedulerMetrics;
use enoki_core::schedulable::{SchedError, Schedulable};
use enoki_core::{EnokiScheduler, RingBuffer, SchedCtx, TaskInfo, TransferIn, TransferOut};
use enoki_sim::cluster::{Shard, WireMsg};
use enoki_sim::{CpuId, HintVal, KernelCtx, Ns, Pid, SchedClass, SimError, TaskView, WakeFlags};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// A [`SchedClass`] that times every callback the machine makes into
/// `inner` (for an `EnokiClass`: the adapter plus `dispatch_*`).
pub struct TimedClass<C: SchedClass> {
    inner: Rc<C>,
    sink: Arc<Sink>,
}

impl<C: SchedClass> TimedClass<C> {
    /// Wraps `inner`.
    pub fn new(inner: Rc<C>, sink: Arc<Sink>) -> TimedClass<C> {
        TimedClass { inner, sink }
    }
}

impl<C: SchedClass> SchedClass for TimedClass<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn call_overhead(&self) -> Ns {
        self.inner.call_overhead()
    }
    fn wants_periodic_balance(&self) -> bool {
        self.inner.wants_periodic_balance()
    }
    fn select_task_rq(&self, k: &KernelCtx, t: &TaskView, prev: CpuId, flags: WakeFlags) -> CpuId {
        self.sink.time(Kind::CSelectRq, || {
            self.inner.select_task_rq(k, t, prev, flags)
        })
    }
    fn task_new(&self, k: &KernelCtx, t: &TaskView) {
        self.sink.time(Kind::CNew, || self.inner.task_new(k, t))
    }
    fn task_wakeup(&self, k: &KernelCtx, t: &TaskView, flags: WakeFlags) {
        self.sink
            .time(Kind::CWakeup, || self.inner.task_wakeup(k, t, flags))
    }
    fn task_blocked(&self, k: &KernelCtx, t: &TaskView) {
        self.sink
            .time(Kind::CBlocked, || self.inner.task_blocked(k, t))
    }
    fn task_yield(&self, k: &KernelCtx, t: &TaskView) {
        self.sink.time(Kind::CYield, || self.inner.task_yield(k, t))
    }
    fn task_preempt(&self, k: &KernelCtx, t: &TaskView) {
        self.sink
            .time(Kind::CPreempt, || self.inner.task_preempt(k, t))
    }
    fn task_dead(&self, k: &KernelCtx, pid: Pid) {
        self.sink.time(Kind::CDead, || self.inner.task_dead(k, pid))
    }
    fn task_departed(&self, k: &KernelCtx, t: &TaskView) {
        self.sink
            .time(Kind::CDeparted, || self.inner.task_departed(k, t))
    }
    fn task_affinity_changed(&self, k: &KernelCtx, t: &TaskView) {
        self.sink
            .time(Kind::CAffinity, || self.inner.task_affinity_changed(k, t))
    }
    fn task_prio_changed(&self, k: &KernelCtx, t: &TaskView) {
        self.sink
            .time(Kind::CPrio, || self.inner.task_prio_changed(k, t))
    }
    fn task_tick(&self, k: &KernelCtx, cpu: CpuId, t: &TaskView) {
        self.sink
            .time(Kind::CTick, || self.inner.task_tick(k, cpu, t))
    }
    fn pick_next_task(&self, k: &KernelCtx, cpu: CpuId, curr: Option<&TaskView>) -> Option<Pid> {
        self.sink
            .time(Kind::CPick, || self.inner.pick_next_task(k, cpu, curr))
    }
    fn pick_rejected(&self, k: &KernelCtx, cpu: CpuId, pid: Pid) {
        self.sink.time(Kind::CPickRejected, || {
            self.inner.pick_rejected(k, cpu, pid)
        })
    }
    fn balance(&self, k: &KernelCtx, cpu: CpuId) -> Option<Pid> {
        self.sink
            .time(Kind::CBalance, || self.inner.balance(k, cpu))
    }
    fn balance_err(&self, k: &KernelCtx, cpu: CpuId, pid: Pid) {
        self.sink
            .time(Kind::CBalanceErr, || self.inner.balance_err(k, cpu, pid))
    }
    fn migrate_task_rq(&self, k: &KernelCtx, t: &TaskView, from: CpuId, to: CpuId) {
        self.sink.time(Kind::CMigrate, || {
            self.inner.migrate_task_rq(k, t, from, to)
        })
    }
    fn deliver_hint(&self, k: &KernelCtx, pid: Pid, hint: HintVal) {
        self.sink
            .time(Kind::CHint, || self.inner.deliver_hint(k, pid, hint))
    }
}

/// An [`EnokiScheduler`] that times every message the dispatch layer
/// sends to the policy `inner`. Registration, upgrade and identity calls
/// are forwarded untimed: they are not on the message path.
pub struct TimedPolicy<S: EnokiScheduler> {
    inner: S,
    sink: Arc<Sink>,
}

impl<S: EnokiScheduler> TimedPolicy<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, sink: Arc<Sink>) -> TimedPolicy<S> {
        TimedPolicy { inner, sink }
    }
}

impl<S: EnokiScheduler> EnokiScheduler for TimedPolicy<S> {
    type UserMsg = S::UserMsg;
    type RevMsg = S::RevMsg;

    fn get_policy(&self) -> i32 {
        self.inner.get_policy()
    }
    fn task_new(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
        self.sink
            .time(Kind::PNew, || self.inner.task_new(ctx, t, sched))
    }
    fn task_wakeup(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, flags: WakeFlags, sched: Schedulable) {
        self.sink.time(Kind::PWakeup, || {
            self.inner.task_wakeup(ctx, t, flags, sched)
        })
    }
    fn task_blocked(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) {
        self.sink
            .time(Kind::PBlocked, || self.inner.task_blocked(ctx, t))
    }
    fn task_preempt(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
        self.sink
            .time(Kind::PPreempt, || self.inner.task_preempt(ctx, t, sched))
    }
    fn task_yield(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
        self.sink
            .time(Kind::PYield, || self.inner.task_yield(ctx, t, sched))
    }
    fn task_dead(&self, ctx: &SchedCtx<'_>, pid: Pid) {
        self.sink
            .time(Kind::PDead, || self.inner.task_dead(ctx, pid))
    }
    fn task_departed(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) -> Option<Schedulable> {
        self.sink
            .time(Kind::PDeparted, || self.inner.task_departed(ctx, t))
    }
    fn task_affinity_changed(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) {
        self.sink
            .time(Kind::PAffinity, || self.inner.task_affinity_changed(ctx, t))
    }
    fn task_prio_changed(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) {
        self.sink
            .time(Kind::PPrio, || self.inner.task_prio_changed(ctx, t))
    }
    fn task_tick(&self, ctx: &SchedCtx<'_>, cpu: CpuId, t: &TaskInfo) {
        self.sink
            .time(Kind::PTick, || self.inner.task_tick(ctx, cpu, t))
    }
    fn select_task_rq(
        &self,
        ctx: &SchedCtx<'_>,
        t: &TaskInfo,
        prev: CpuId,
        flags: WakeFlags,
    ) -> CpuId {
        self.sink.time(Kind::PSelectRq, || {
            self.inner.select_task_rq(ctx, t, prev, flags)
        })
    }
    fn migrate_task_rq(
        &self,
        ctx: &SchedCtx<'_>,
        t: &TaskInfo,
        new: Schedulable,
    ) -> Option<Schedulable> {
        self.sink
            .time(Kind::PMigrate, || self.inner.migrate_task_rq(ctx, t, new))
    }
    fn balance(&self, ctx: &SchedCtx<'_>, cpu: CpuId) -> Option<u64> {
        self.sink
            .time(Kind::PBalance, || self.inner.balance(ctx, cpu))
    }
    fn balance_err(&self, ctx: &SchedCtx<'_>, cpu: CpuId, pid: Pid, sched: Option<Schedulable>) {
        self.sink.time(Kind::PBalanceErr, || {
            self.inner.balance_err(ctx, cpu, pid, sched)
        })
    }
    fn pick_next_task(
        &self,
        ctx: &SchedCtx<'_>,
        cpu: CpuId,
        curr: Option<Schedulable>,
    ) -> Option<Schedulable> {
        self.sink
            .time(Kind::PPick, || self.inner.pick_next_task(ctx, cpu, curr))
    }
    fn pnt_err(&self, ctx: &SchedCtx<'_>, cpu: CpuId, err: SchedError, sched: Option<Schedulable>) {
        self.sink
            .time(Kind::PPntErr, || self.inner.pnt_err(ctx, cpu, err, sched))
    }
    fn reregister_prepare(&mut self) -> Option<TransferOut> {
        self.inner.reregister_prepare()
    }
    fn reregister_init(&mut self, state: Option<TransferIn>) {
        self.inner.reregister_init(state)
    }
    fn register_queue(&self, q: RingBuffer<Self::UserMsg>) -> i32 {
        self.inner.register_queue(q)
    }
    fn register_reverse_queue(&self, q: RingBuffer<Self::RevMsg>) -> i32 {
        self.inner.register_reverse_queue(q)
    }
    fn enter_queue(&self, ctx: &SchedCtx<'_>, id: i32) {
        self.sink
            .time(Kind::PEnterQueue, || self.inner.enter_queue(ctx, id))
    }
    fn unregister_queue(&self, id: i32) -> Option<RingBuffer<Self::UserMsg>> {
        self.inner.unregister_queue(id)
    }
    fn unregister_rev_queue(&self, id: i32) -> Option<RingBuffer<Self::RevMsg>> {
        self.inner.unregister_rev_queue(id)
    }
    fn parse_hint(&self, ctx: &SchedCtx<'_>, from: Pid, hint: Self::UserMsg) {
        self.sink
            .time(Kind::PParseHint, || self.inner.parse_hint(ctx, from, hint))
    }
    fn attach_metrics(&self, metrics: &Arc<SchedulerMetrics>) {
        self.inner.attach_metrics(metrics)
    }
}

/// Nanoseconds each shard of a cluster run spent inside its own methods,
/// indexed by shard id.
pub struct ShardBusy(Vec<AtomicU64>);

impl ShardBusy {
    /// Counters for `shards` shards.
    pub fn new(shards: usize) -> ShardBusy {
        ShardBusy((0..shards).map(|_| AtomicU64::new(0)).collect())
    }

    /// Busy nanoseconds per shard.
    pub fn ns(&self) -> Vec<u64> {
        self.0.iter().map(|a| a.load(Relaxed)).collect()
    }
}

/// A [`Shard`] that times every call the cluster engine makes into
/// `inner`; what is left of `threads x wall` is the engine's own time
/// (barriers, mailboxes, idle workers).
pub struct TimedShard<S: Shard> {
    inner: S,
    lane: u32,
    sink: Arc<Sink>,
    busy: Arc<ShardBusy>,
}

impl<S: Shard> TimedShard<S> {
    /// Builds shard `id` with `factory` inside a span and wraps it.
    pub fn build(
        id: usize,
        factory: impl FnOnce(usize) -> Result<S, SimError>,
        sink: &Arc<Sink>,
        busy: &Arc<ShardBusy>,
    ) -> Result<TimedShard<S>, SimError> {
        let lane = id as u32 + 1;
        let o = sink.enter_root(Kind::SFactory, lane);
        let inner = factory(id);
        busy.0[id].fetch_add(sink.exit(o), Relaxed);
        Ok(TimedShard {
            inner: inner?,
            lane,
            sink: Arc::clone(sink),
            busy: Arc::clone(busy),
        })
    }

    fn time<T>(&mut self, kind: Kind, f: impl FnOnce(&mut S) -> T) -> T {
        let o = self.sink.enter_root(kind, self.lane);
        let r = f(&mut self.inner);
        self.busy.0[self.lane as usize - 1].fetch_add(self.sink.exit(o), Relaxed);
        r
    }
}

impl<S: Shard> Shard for TimedShard<S> {
    type Output = S::Output;

    fn run_until(&mut self, until: Ns) -> Result<(), SimError> {
        self.time(Kind::SRunUntil, |s| s.run_until(until))
    }
    fn collect(&mut self, now: Ns, out: &mut Vec<(usize, WireMsg)>) {
        self.time(Kind::SCollect, |s| s.collect(now, out))
    }
    fn deliver(&mut self, from: usize, msg: WireMsg, at: Ns) -> Result<(), SimError> {
        self.time(Kind::SDeliver, |s| s.deliver(from, msg, at))
    }
    fn pending(&self) -> bool {
        self.inner.pending()
    }
    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }
    fn finish(self) -> S::Output {
        let o = self.sink.enter_root(Kind::SFinish, self.lane);
        let out = self.inner.finish();
        self.busy.0[self.lane as usize - 1].fetch_add(self.sink.exit(o), Relaxed);
        out
    }
}
