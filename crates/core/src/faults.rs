//! Deterministic fault injection for the dispatch boundary.
//!
//! A scheduler module written against the safe API cannot corrupt kernel
//! memory, but it can still *misbehave*: panic inside a callback, forge or
//! destroy a [`crate::Schedulable`] token, spray `pnt_err`s, or stall its
//! hint queue. A [`FaultPlan`] injects exactly those misbehaviours into a
//! run at chosen points in *virtual time*, so a fault scenario is as
//! reproducible as any other simulated workload: same plan + same workload
//! = same incident log, same record log, same replay.
//!
//! Faults fire at the dispatch layer ([`crate::EnokiClass`]), not inside
//! the module: an injected panic detonates inside the same `catch_unwind`
//! scope that guards real module panics (so injected and organic failures
//! share one recovery path), while token faults skip the module entirely
//! and present dispatch with the forged/destroyed token a buggy module
//! would have produced. Every detonation is written to the record log as a
//! [`crate::record::Rec::Fault`], which is how replay knows a recorded
//! call never reached the module.
//!
//! Arming a plan (via [`crate::MachineBuilder::faults`]) also arms the
//! failsafe policy, so a detonation degrades the run instead of aborting
//! the process — see the quarantine state machine in [`crate::dispatch`].

use crate::record::FuncId;
use enoki_sim::Ns;

/// One scheduler misbehaviour a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Panic inside the given `EnokiScheduler` callback. The panic is
    /// raised inside dispatch's `catch_unwind` scope *before* the module
    /// is invoked, so module state stays consistent and replay can skip
    /// the call exactly.
    Panic {
        /// Callback to detonate in.
        func: FuncId,
    },
    /// Like [`FaultKind::Panic`], but the panic is raised while holding a
    /// recorded shim lock ([`crate::sync::Mutex`]) — exercises the
    /// unwind-releases-the-lock path in the lock-order log.
    PanicInLock {
        /// Callback to detonate in.
        func: FuncId,
    },
    /// At the next `pick_next_task`, present dispatch with a token forged
    /// for the wrong cpu instead of the module's answer (token-audit
    /// violation → quarantine).
    ForgedToken,
    /// At the next `task_wakeup`, destroy the freshly minted token before
    /// the module ever sees it. The task becomes unpickable by the module;
    /// the watchdog's conservation audit detects the shortfall.
    DropToken,
    /// At the next `migrate_task_rq`, discard the module's token exchange:
    /// dispatch sees a migrate that returned no token (token-audit
    /// violation → quarantine).
    WrongToken,
    /// Starting at the next `pick_next_task`, burn the following `count`
    /// picks as wrong-cpu errors (a `pnt_err` storm for the watchdog's
    /// storm monitor).
    PntErrStorm {
        /// Picks to burn.
        count: u32,
    },
    /// Starting at the next hint delivery, queue hints without notifying
    /// the module for `window` of virtual time (occupancy pins while the
    /// producer advances — the watchdog's stall monitor fires).
    HintStall {
        /// How long deliveries are suppressed.
        window: Ns,
    },
}

impl FaultKind {
    /// The dispatch point this fault fires at.
    pub(crate) fn target(&self) -> FaultTarget {
        match *self {
            FaultKind::Panic { func } | FaultKind::PanicInLock { func } => FaultTarget::Func(func),
            FaultKind::ForgedToken | FaultKind::PntErrStorm { .. } => {
                FaultTarget::Func(FuncId::PickNextTask)
            }
            FaultKind::DropToken => FaultTarget::Func(FuncId::TaskWakeup),
            FaultKind::WrongToken => FaultTarget::Func(FuncId::MigrateTaskRq),
            FaultKind::HintStall { .. } => FaultTarget::Hint,
        }
    }
}

/// Where in dispatch a fault detonates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultTarget {
    /// A scheduler trait callback.
    Func(FuncId),
    /// Hint delivery (`deliver_hint`), which has no `FuncId`.
    Hint,
}

/// One scheduled fault: a kind armed at a virtual-time instant.
///
/// The fault detonates at the *first matching dispatch point at or after*
/// `at` — virtual time only advances when events fire, so "at" is a lower
/// bound, which is also what makes plans deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Virtual time the fault arms at.
    pub at: Ns,
    /// What to inject.
    pub kind: FaultKind,
}

/// A deterministic, virtual-time-scheduled fault schedule.
///
/// Build one explicitly with [`FaultPlan::inject`], or generate a
/// reproducible random plan with [`FaultPlan::seeded`]. Arm it through
/// [`crate::MachineBuilder::faults`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `kind` to detonate at the first matching dispatch point
    /// at or after virtual time `at`.
    pub fn inject(mut self, at: Ns, kind: FaultKind) -> FaultPlan {
        self.specs.push(FaultSpec { at, kind });
        self.specs.sort_by_key(|s| s.at);
        self
    }

    /// Generates a reproducible random plan: `n` faults drawn from the
    /// full misbehaviour menu, spread over `[0, horizon)`. Same seed, same
    /// plan — there is no wall-clock or global randomness involved.
    pub fn seeded(seed: u64, n: usize, horizon: Ns) -> FaultPlan {
        // Callbacks that any busy workload actually reaches; panics armed
        // on these detonate promptly instead of waiting forever.
        const PANIC_FUNCS: [FuncId; 6] = [
            FuncId::SelectTaskRq,
            FuncId::TaskNew,
            FuncId::TaskWakeup,
            FuncId::TaskTick,
            FuncId::PickNextTask,
            FuncId::TaskPreempt,
        ];
        let mut state = seed;
        let mut next = move || splitmix64(&mut state);
        let mut plan = FaultPlan::new();
        for i in 0..n {
            // Stratified times keep faults spread out so each detonation's
            // aftermath (quarantine, recovery) is observable in isolation.
            let slot = horizon.as_nanos() / (n as u64).max(1);
            let at = Ns(slot * i as u64 + next() % slot.max(1));
            let kind = match next() % 6 {
                0 => FaultKind::Panic {
                    func: PANIC_FUNCS[(next() % PANIC_FUNCS.len() as u64) as usize],
                },
                1 => FaultKind::PanicInLock {
                    func: PANIC_FUNCS[(next() % PANIC_FUNCS.len() as u64) as usize],
                },
                2 => FaultKind::ForgedToken,
                3 => FaultKind::DropToken,
                4 => FaultKind::PntErrStorm {
                    count: 4 + (next() % 16) as u32,
                },
                _ => FaultKind::HintStall {
                    window: Ns::from_us(50 + next() % 200),
                },
            };
            plan = plan.inject(at, kind);
        }
        plan
    }

    /// The scheduled faults, sorted by arm time.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Arm times of every fault — used by
    /// [`enoki_sim::Machine::schedule_probe`] wiring to guarantee a
    /// dispatch point fires promptly after each fault arms.
    pub fn fire_times(&self) -> Vec<Ns> {
        self.specs.iter().map(|s| s.at).collect()
    }
}

/// SplitMix64 — the standard 64-bit mixer; tiny, seedable, and good
/// enough for spreading faults (zero-dependency policy: no `rand`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runtime state of an armed plan, owned by the dispatch layer.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Unfired faults, sorted by arm time.
    pending: Vec<FaultSpec>,
    /// Wrong-cpu picks still to burn from an armed storm.
    pub(crate) storm_remaining: u32,
    /// Hint deliveries are suppressed until this instant.
    pub(crate) hint_stall_until: Ns,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            pending: plan.specs,
            storm_remaining: 0,
            hint_stall_until: Ns::ZERO,
        }
    }

    /// Removes and returns the first armed fault (arm time ≤ `now`) whose
    /// target matches the dispatch point being executed.
    pub(crate) fn take_due(&mut self, now: Ns, target: FaultTarget) -> Option<FaultKind> {
        let idx = self
            .pending
            .iter()
            .take_while(|s| s.at <= now)
            .position(|s| s.kind.target() == target)?;
        Some(self.pending.remove(idx).kind)
    }

    /// Faults not yet fired (plans can outlive short runs).
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_arm_time() {
        let plan = FaultPlan::new()
            .inject(Ns(500), FaultKind::ForgedToken)
            .inject(Ns(100), FaultKind::DropToken);
        assert_eq!(plan.specs()[0].at, Ns(100));
        assert_eq!(plan.specs()[1].at, Ns(500));
        assert_eq!(plan.fire_times(), vec![Ns(100), Ns(500)]);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_ordered() {
        let a = FaultPlan::seeded(42, 8, Ns::from_ms(10));
        let b = FaultPlan::seeded(42, 8, Ns::from_ms(10));
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.specs().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.specs().iter().all(|s| s.at < Ns::from_ms(10)));
        let c = FaultPlan::seeded(43, 8, Ns::from_ms(10));
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn take_due_respects_time_and_target() {
        let plan = FaultPlan::new()
            .inject(Ns(100), FaultKind::ForgedToken)
            .inject(Ns(200), FaultKind::DropToken);
        let mut state = FaultState::new(plan);
        // Not armed yet.
        assert_eq!(
            state.take_due(Ns(50), FaultTarget::Func(FuncId::PickNextTask)),
            None
        );
        // Armed but wrong dispatch point.
        assert_eq!(
            state.take_due(Ns(150), FaultTarget::Func(FuncId::TaskWakeup)),
            None
        );
        // Armed and matching; consumed exactly once.
        assert_eq!(
            state.take_due(Ns(150), FaultTarget::Func(FuncId::PickNextTask)),
            Some(FaultKind::ForgedToken)
        );
        assert_eq!(
            state.take_due(Ns(150), FaultTarget::Func(FuncId::PickNextTask)),
            None
        );
        // The later fault fires once its time comes.
        assert_eq!(
            state.take_due(Ns(250), FaultTarget::Func(FuncId::TaskWakeup)),
            Some(FaultKind::DropToken)
        );
        assert_eq!(state.pending(), 0);
    }

    #[test]
    fn targets_route_to_the_right_callbacks() {
        assert_eq!(
            FaultKind::ForgedToken.target(),
            FaultTarget::Func(FuncId::PickNextTask)
        );
        assert_eq!(
            FaultKind::DropToken.target(),
            FaultTarget::Func(FuncId::TaskWakeup)
        );
        assert_eq!(
            FaultKind::WrongToken.target(),
            FaultTarget::Func(FuncId::MigrateTaskRq)
        );
        assert_eq!(
            FaultKind::HintStall { window: Ns(1) }.target(),
            FaultTarget::Hint
        );
        assert_eq!(
            FaultKind::Panic {
                func: FuncId::TaskBlocked
            }
            .target(),
            FaultTarget::Func(FuncId::TaskBlocked)
        );
    }
}
