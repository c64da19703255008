//! The policy arsenal: a ready-made [`MetaSpec`] wiring the library's
//! schedulers into the framework's telemetry-driven meta-scheduler.
//!
//! [`arsenal`] assembles the standard candidate set — [`Wfq`] for
//! saturated throughput phases, [`Shinjuku`] for latency-critical bursts
//! of short tasks, [`Locality`] when userspace is streaming placement
//! hints — together with [`default_chooser`], a deterministic classifier
//! over the health time series. Hand the spec to
//! `MachineBuilder::meta(...)` and the framework live-switches between
//! the policies mid-run through the blackout-bounded upgrade path.
//!
//! The chooser reads **only** virtual-time-derived sample fields (`util`,
//! `runq`, `picks`, `dispatch_calls`, `hints`, `hint_occupancy`) — never
//! the wall-clock pick latencies — so two identical runs classify every
//! sample identically and record/replay reproduces each switch
//! bit-exactly.
//!
//! [`PolicyRegistry`] is the name→factory side door for tools (CLIs,
//! benches) that select policies from strings.

use crate::locality::Locality;
use crate::shinjuku::Shinjuku;
use crate::wfq::Wfq;
use enoki_core::{Chooser, EnokiScheduler, HealthSample, MetaSpec, PolicyFactory};
use enoki_sim::HintVal;

/// Index of [`Wfq`] in the [`arsenal`] candidate list.
pub const ARSENAL_WFQ: usize = 0;
/// Index of [`Shinjuku`] in the [`arsenal`] candidate list.
pub const ARSENAL_SHINJUKU: usize = 1;
/// Index of [`Locality`] in the [`arsenal`] candidate list.
pub const ARSENAL_LOCALITY: usize = 2;

/// Classifies one health sample into the arsenal policy best suited to
/// the load it describes. Pure and deterministic: a function of the
/// sample and the currently active index only.
///
/// Decision order (first match wins):
///
/// 1. Userspace is streaming placement hints → [`Locality`]; nothing
///    else can honour them.
/// 2. Runqueues deeper than one waiter per core → [`Wfq`]; fairness
///    matters most under real queueing pressure.
/// 3. Pick churn whose mean on-cpu burst is short (busy time divided by
///    pick count, assuming the watchdog's ~ms sampling cadence) →
///    [`Shinjuku`]; µs-scale preemption keeps the wakeup tail down for
///    short-burst tasks.
/// 4. Near-saturated utilisation without deep queues → [`Wfq`].
/// 5. Otherwise stay put — the hysteresis layer above rewards inertia.
pub fn classify(s: &HealthSample, active: usize) -> usize {
    let nr = s.runq.len().max(1);
    if s.hints > 0 || s.hint_occupancy > 0 {
        return ARSENAL_LOCALITY;
    }
    let queued: usize = s.runq.iter().sum();
    if queued > nr {
        return ARSENAL_WFQ;
    }
    let util_sum: f64 = s.util.iter().sum();
    // Mean burst per pick: `util_sum / picks` is (busy time) / (picks ×
    // window); at the default 1 ms cadence a ratio of 0.25 is a 250 µs
    // mean burst. The floor on picks keeps idle windows from matching.
    if s.picks >= 2 * nr as u64 && util_sum / s.picks as f64 <= 0.25 {
        return ARSENAL_SHINJUKU;
    }
    if util_sum >= 0.95 * nr as f64 {
        return ARSENAL_WFQ;
    }
    active
}

/// The [`classify`] heuristic boxed as a [`Chooser`].
pub fn default_chooser() -> Chooser {
    Box::new(classify)
}

/// Builds the standard three-policy [`MetaSpec`]: WFQ (initial),
/// Shinjuku, and locality, arbitrated by [`default_chooser`].
pub fn arsenal(nr_cpus: usize) -> MetaSpec<HintVal, HintVal> {
    MetaSpec::new(default_chooser())
        .candidate("wfq", Box::new(move || boxed(Wfq::new(nr_cpus))))
        .candidate("shinjuku", Box::new(move || boxed(Shinjuku::new(nr_cpus))))
        .candidate("locality", Box::new(move || boxed(Locality::new(nr_cpus))))
        .initial(ARSENAL_WFQ)
}

fn boxed<S>(s: S) -> Box<dyn EnokiScheduler<UserMsg = HintVal, RevMsg = HintVal>>
where
    S: EnokiScheduler<UserMsg = HintVal, RevMsg = HintVal> + 'static,
{
    Box::new(s)
}

/// A name → factory table for building schedulers from strings.
///
/// `enoki-core` already has a [`enoki_core::Registry`] keyed by policy
/// *number* for dispatch-side lookups; this one is keyed by *name* for
/// human-facing tools.
pub struct PolicyRegistry {
    entries: Vec<(&'static str, PolicyFactory<HintVal, HintVal>)>,
}

impl PolicyRegistry {
    /// The registry of library schedulers, each factory closing over
    /// `nr_cpus`.
    pub fn standard(nr_cpus: usize) -> PolicyRegistry {
        PolicyRegistry {
            entries: vec![
                ("wfq", Box::new(move || boxed(Wfq::new(nr_cpus)))),
                ("shinjuku", Box::new(move || boxed(Shinjuku::new(nr_cpus)))),
                ("locality", Box::new(move || boxed(Locality::new(nr_cpus)))),
            ],
        }
    }

    /// Registered policy names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }

    /// Builds a fresh instance of the named policy, or `None` for an
    /// unknown name.
    pub fn build(
        &mut self,
        name: &str,
    ) -> Option<Box<dyn EnokiScheduler<UserMsg = HintVal, RevMsg = HintVal>>> {
        self.entries
            .iter_mut()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| f())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enoki_sim::Ns;

    fn sample(runq: Vec<usize>, util: Vec<f64>, picks: u64, calls: u64, hints: u64) -> HealthSample {
        HealthSample {
            epoch: 0,
            at: Ns::from_ms(1),
            util,
            runq,
            pick_p50: None,
            pick_p99: None,
            picks,
            dispatch_calls: calls,
            hint_occupancy: 0,
            hints,
            incidents: 0,
        }
    }

    #[test]
    fn hints_win_over_everything() {
        let s = sample(vec![5, 5], vec![1.0, 1.0], 100, 100, 3);
        assert_eq!(classify(&s, ARSENAL_WFQ), ARSENAL_LOCALITY);
    }

    #[test]
    fn deep_queues_pick_wfq() {
        let s = sample(vec![4, 3], vec![0.9, 0.9], 10, 100, 0);
        assert_eq!(classify(&s, ARSENAL_SHINJUKU), ARSENAL_WFQ);
    }

    #[test]
    fn deep_queues_win_over_churn() {
        // Even with furious pick churn (a preemption-happy policy is
        // active), real queueing pressure demands fairness.
        let s = sample(vec![4, 3], vec![1.0, 1.0], 400, 900, 0);
        assert_eq!(classify(&s, ARSENAL_SHINJUKU), ARSENAL_WFQ);
    }

    #[test]
    fn short_burst_churn_picks_shinjuku() {
        // 40 picks over a window with ~0.5 cpu busy: ~12 µs mean bursts.
        let s = sample(vec![0, 1], vec![0.3, 0.2], 40, 120, 0);
        assert_eq!(classify(&s, ARSENAL_WFQ), ARSENAL_SHINJUKU);
    }

    #[test]
    fn long_burst_saturation_picks_wfq() {
        // Few picks, both cpus pegged: long cpu-bound bursts.
        let s = sample(vec![1, 0], vec![1.0, 1.0], 4, 20, 0);
        assert_eq!(classify(&s, ARSENAL_SHINJUKU), ARSENAL_WFQ);
    }

    #[test]
    fn quiet_sample_keeps_active_policy() {
        let s = sample(vec![0, 0], vec![0.1, 0.1], 1, 100, 0);
        assert_eq!(classify(&s, ARSENAL_LOCALITY), ARSENAL_LOCALITY);
        assert_eq!(classify(&s, ARSENAL_WFQ), ARSENAL_WFQ);
    }

    #[test]
    fn arsenal_has_three_candidates_in_documented_order() {
        let spec = arsenal(4);
        let names: Vec<&str> = spec.candidates.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["wfq", "shinjuku", "locality"]);
        assert_eq!(spec.initial, ARSENAL_WFQ);
    }

    #[test]
    fn registry_builds_by_name() {
        let mut reg = PolicyRegistry::standard(4);
        assert_eq!(reg.names(), vec!["wfq", "shinjuku", "locality"]);
        let s = reg.build("shinjuku").expect("known name");
        assert_eq!(s.get_policy(), Shinjuku::POLICY);
        assert!(reg.build("nope").is_none());
    }
}
