//! The scheduling-class interface between the simulated kernel and
//! scheduler implementations.
//!
//! [`SchedClass`] is the simulator-side equivalent of Linux's
//! `struct sched_class`: the set of callbacks the core scheduling code
//! invokes. The Enoki framework (`enoki-core`) implements `SchedClass` once
//! in its dispatch layer and translates these calls into the safe
//! message-passing `EnokiScheduler` API; native baselines implement it with
//! zero framework overhead.
//!
//! Classes are stacked in priority order on the machine: on every
//! reschedule the kernel asks each class in turn for a task, so e.g. an
//! Enoki Shinjuku class stacked above CFS seamlessly cedes cycles to CFS
//! when it has no runnable tasks (paper §5.4).

use crate::behavior::HintVal;
use crate::task::{Pid, TaskView, WakeFlags};
use crate::time::Ns;
use crate::topology::{CpuId, Topology};
use std::cell::RefCell;
use std::rc::Rc;

/// Side effects a scheduler may request during a callback.
///
/// Scheduler callbacks take `&self` and may not re-enter the kernel, so all
/// actions are queued as commands the machine applies after the callback
/// returns — mirroring how real schedulers set `need_resched` flags and arm
/// timers rather than scheduling inline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Ask cpu to reschedule (locally at the end of the current path,
    /// remotely via an IPI).
    Resched(CpuId),
    /// Arm a high-resolution preemption timer on a cpu. When it fires the
    /// kernel reschedules that cpu. Re-arming replaces the previous timer.
    StartPreemptTimer(CpuId, Ns),
    /// Wake up to `n` tasks blocked on a futex word (used by agent-based
    /// schedulers and the core arbiter to unblock cooperating tasks).
    FutexWake(u64, u32),
    /// Wake a specific blocked task.
    WakeTask(Pid),
}

/// Context handle passed into every scheduler callback.
///
/// Provides the current time, topology, and the command queue.
pub struct KernelCtx {
    now: Ns,
    topo: Rc<Topology>,
    cmds: RefCell<Vec<Command>>,
}

impl KernelCtx {
    /// Creates a context for a callback at time `now`.
    pub fn new(now: Ns, topo: Rc<Topology>) -> KernelCtx {
        KernelCtx {
            now,
            topo,
            cmds: RefCell::new(Vec::new()),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Machine topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of cpus.
    pub fn nr_cpus(&self) -> usize {
        self.topo.nr_cpus()
    }

    /// Requests a reschedule of `cpu`.
    pub fn resched(&self, cpu: CpuId) {
        self.cmds.borrow_mut().push(Command::Resched(cpu));
    }

    /// Arms (or re-arms) the preemption timer on `cpu` to fire after
    /// `delay` — backed by an hrtimer in a real kernel. Re-arming
    /// replaces the previous timer.
    pub fn start_preempt_timer(&self, cpu: CpuId, delay: Ns) {
        self.cmds
            .borrow_mut()
            .push(Command::StartPreemptTimer(cpu, delay));
    }

    /// Wakes up to `n` waiters on futex `key`.
    pub fn futex_wake(&self, key: u64, n: u32) {
        self.cmds.borrow_mut().push(Command::FutexWake(key, n));
    }

    /// Wakes a specific blocked task.
    pub fn wake_task(&self, pid: Pid) {
        self.cmds.borrow_mut().push(Command::WakeTask(pid));
    }

    /// Drains the queued commands (machine-internal).
    pub fn take_commands(&self) -> Vec<Command> {
        std::mem::take(&mut *self.cmds.borrow_mut())
    }
}

/// A scheduling class: the callbacks the simulated kernel invokes.
///
/// All methods take `&self`; implementations synchronize internal state
/// themselves (the Enoki dispatch layer wraps modules in the framework's
/// read-write lock, exactly as the paper describes).
pub trait SchedClass {
    /// Human-readable class name for traces.
    fn name(&self) -> &str;

    /// Chooses the cpu for a waking or newly created task.
    ///
    /// The returned cpu is clamped to the task's affinity by the kernel.
    fn select_task_rq(
        &self,
        k: &KernelCtx,
        t: &TaskView,
        prev_cpu: CpuId,
        flags: WakeFlags,
    ) -> CpuId;

    /// A new task joined this class and was enqueued on `t.cpu`.
    fn task_new(&self, k: &KernelCtx, t: &TaskView);

    /// A blocked task woke up and was enqueued on `t.cpu`.
    fn task_wakeup(&self, k: &KernelCtx, t: &TaskView, flags: WakeFlags);

    /// The running task blocked (left the run queue).
    fn task_blocked(&self, k: &KernelCtx, t: &TaskView);

    /// The running task voluntarily yielded (stays runnable).
    fn task_yield(&self, k: &KernelCtx, t: &TaskView);

    /// The running task was involuntarily preempted (stays runnable).
    fn task_preempt(&self, k: &KernelCtx, t: &TaskView);

    /// A task exited.
    fn task_dead(&self, k: &KernelCtx, pid: Pid);

    /// A runnable task left this class (policy switch). The class must
    /// forget it.
    fn task_departed(&self, k: &KernelCtx, t: &TaskView);

    /// A task's allowed-cpu mask changed.
    fn task_affinity_changed(&self, k: &KernelCtx, t: &TaskView);

    /// A task's priority (nice) changed.
    fn task_prio_changed(&self, k: &KernelCtx, t: &TaskView);

    /// Periodic tick while `t` runs on `cpu`. Request preemption via
    /// [`KernelCtx::resched`].
    fn task_tick(&self, k: &KernelCtx, cpu: CpuId, t: &TaskView);

    /// Picks the next task to run on `cpu`, or `None` to let lower classes
    /// (and ultimately the idle task) run.
    ///
    /// `curr` is the task currently running on the cpu if it is still
    /// runnable; the kernel has already issued `task_preempt` for it.
    fn pick_next_task(&self, k: &KernelCtx, cpu: CpuId, curr: Option<&TaskView>) -> Option<Pid>;

    /// Called when the task returned by `pick_next_task` was rejected by
    /// the kernel (not runnable on that cpu). The Enoki dispatch layer
    /// intercepts this before the kernel ever sees it (paper §3.1); native
    /// classes reaching this point indicate a kernel crash in real life.
    fn pick_rejected(&self, _k: &KernelCtx, _cpu: CpuId, _pid: Pid) {}

    /// Offers the class a chance to migrate one task to `cpu` before
    /// picking. Returning `Some(pid)` asks the kernel to move that task
    /// here; the kernel follows up with [`SchedClass::migrate_task_rq`] on
    /// success or [`SchedClass::balance_err`] on failure.
    fn balance(&self, _k: &KernelCtx, _cpu: CpuId) -> Option<Pid> {
        None
    }

    /// The kernel could not complete the migration requested by `balance`.
    fn balance_err(&self, _k: &KernelCtx, _cpu: CpuId, _pid: Pid) {}

    /// A task is moving from `from` to `to` (balance pull or wakeup
    /// placement of an on-rq task).
    fn migrate_task_rq(&self, k: &KernelCtx, t: &TaskView, from: CpuId, to: CpuId);

    /// A userspace hint arrived for this class from task `pid`.
    fn deliver_hint(&self, _k: &KernelCtx, _pid: Pid, _hint: HintVal) {}

    /// Per-invocation framework overhead charged by the kernel for every
    /// call into this class (zero for native classes; ~100-150 ns for
    /// Enoki per paper §5.2).
    fn call_overhead(&self) -> Ns {
        Ns::ZERO
    }

    /// Whether the kernel should run this class's `balance` periodically
    /// (CFS-style periodic load balancing) in addition to before every
    /// pick.
    fn wants_periodic_balance(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queues_commands_in_order() {
        let k = KernelCtx::new(Ns(5), Rc::new(Topology::i7_9700()));
        k.resched(1);
        k.start_preempt_timer(2, Ns::from_us(10));
        k.futex_wake(7, 3);
        k.wake_task(9);
        assert_eq!(
            k.take_commands(),
            vec![
                Command::Resched(1),
                Command::StartPreemptTimer(2, Ns::from_us(10)),
                Command::FutexWake(7, 3),
                Command::WakeTask(9),
            ]
        );
        // Draining empties the queue.
        assert!(k.take_commands().is_empty());
    }

    #[test]
    fn ctx_exposes_time_and_topology() {
        let k = KernelCtx::new(Ns::from_ms(1), Rc::new(Topology::xeon_6138_2s()));
        assert_eq!(k.now(), Ns::from_ms(1));
        assert_eq!(k.nr_cpus(), 80);
        assert!(k.topology().same_node(0, 1));
    }
}
