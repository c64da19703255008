//! Live health telemetry: watchdog monitors + time-series sampling.
//!
//! The metrics layer (PR 1) answers "what happened?" after a run and the
//! forensics layer (PR 2) answers it offline from a record log. Neither
//! watches a run *while it happens*: a scheduler that strands a runnable
//! task, silently drops a [`crate::Schedulable`], or stops draining its
//! hint queue is invisible until the run ends — or never ends. This module
//! is the runtime half of the observability story (DESIGN.md §3e):
//!
//! - A [`Watchdog`] evaluates **invariant monitors** on a periodic
//!   virtual-time cadence (driven by the simulator's sampler hook,
//!   `Machine::set_sampler`): starvation detection, `Schedulable`
//!   conservation auditing against a [`crate::TokenLedger`], hint-queue
//!   stall detection, runqueue-imbalance tracking, an upgrade-blackout SLO
//!   check, and a pnt_err-storm detector. Violations become typed
//!   [`HealthEvent`]s in a bounded incident log, handled per the
//!   configured [`HealthPolicy`] (count / log / fail-fast for tests).
//! - The same poll captures a **time series** of [`HealthSample`]s —
//!   per-cpu utilization and runqueue depth, pick-latency quantiles, hint
//!   occupancy, incident counts — into a bounded ring, rendered as a
//!   plain-text `enoki-top` panel ([`Watchdog::render_top`]) or exported
//!   as JSON ([`Watchdog::to_json`]).
//!
//! Because polls fire from the simulator *between* events, every monitor
//! sees an internally consistent machine: task states, run-queue depths,
//! and the token ledger all agree at the instant of observation, so the
//! conservation audit can compare exact counts instead of racing windows.

use crate::dispatch::EnokiClass;
use crate::metrics::{observe_machine, EventKind, HistogramDelta};
use enoki_sim::behavior::HintVal;
use enoki_sim::stats::Histogram;
use enoki_sim::task::TaskState;
use enoki_sim::{CpuId, Machine, Ns, Pid};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// How bad an incident is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth noting, not necessarily wrong.
    Info,
    /// Suspicious: the scheduler is probably misbehaving.
    Warning,
    /// An invariant is violated; the run's results are not trustworthy.
    Critical,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        })
    }
}

/// A typed invariant violation detected by a watchdog monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthEvent {
    /// A task has been continuously runnable past the starvation threshold
    /// without ever being picked.
    Starvation {
        /// The starving task.
        pid: Pid,
        /// The cpu whose run queue it is waiting on.
        cpu: CpuId,
        /// How long it has been waiting at detection time.
        runnable_for: Ns,
    },
    /// Fewer live `Schedulable` tokens than runnable-plus-running tasks:
    /// a scheduler destroyed a token it should be holding, so some task
    /// can never be picked again.
    TokenLost {
        /// Tokens the class population requires.
        expected: u64,
        /// Tokens actually live per the ledger.
        live: u64,
    },
    /// More live `Schedulable` tokens than runnable-plus-running tasks:
    /// tokens are outliving their tasks (e.g. the wrong token was returned
    /// from `migrate_task_rq` and the real one squirreled away).
    TokenLeak {
        /// Tokens the class population requires.
        expected: u64,
        /// Tokens actually live per the ledger.
        live: u64,
    },
    /// The user→kernel hint queue's producer is advancing while consumer
    /// occupancy stays pinned: the scheduler stopped draining.
    HintStall {
        /// Queue occupancy at detection time.
        occupancy: usize,
        /// Hints produced (delivered + dropped) across the stalled window.
        produced_in_window: u64,
        /// Consecutive samples the stall persisted.
        samples: u32,
    },
    /// Runqueue depths have stayed lopsided for several samples.
    RunqImbalance {
        /// The most loaded cpu.
        max_cpu: CpuId,
        /// Its runqueue depth.
        max_depth: usize,
        /// The least loaded cpu.
        min_cpu: CpuId,
        /// Its runqueue depth.
        min_depth: usize,
    },
    /// A live upgrade's service blackout exceeded the configured SLO.
    UpgradeBlackoutSlo {
        /// Worst blackout observed in the window.
        worst: Ns,
        /// The configured budget.
        slo: Ns,
    },
    /// Wrong-cpu picks are arriving faster than the storm threshold:
    /// the scheduler is systematically confused about token/core pairing.
    PntErrStorm {
        /// pnt_err count inside one sampling window.
        count_in_window: u64,
    },
    /// Dispatch caught a scheduler fault (a panic unwound out of a trait
    /// callback, or a token-audit violation) at the message boundary.
    SchedFault {
        /// The typed misbehaviour.
        error: crate::SchedError,
    },
    /// The framework quarantined the scheduler: the module no longer
    /// receives callbacks and the built-in failsafe policy is serving
    /// picks until a replacement re-registers via live upgrade.
    Quarantined {
        /// The fault that triggered the quarantine.
        error: crate::SchedError,
    },
    /// A replacement scheduler re-registered through the live-upgrade
    /// path and took back scheduling from the failsafe policy.
    SchedulerRecovered,
    /// The pick-latency SLO is burning error budget faster than both the
    /// fast- and slow-window thresholds allow (see [`SloSpec`]). Burn
    /// rates are carried as hundredths (×100) so the event stays `Eq`
    /// and byte-stable in logs.
    SloBurn {
        /// Fast-window burn rate, ×100.
        fast_x100: u64,
        /// Slow-window burn rate, ×100.
        slow_x100: u64,
        /// The latency objective being burned against.
        objective: Ns,
    },
    /// Telemetry is silently losing data: the record ring or the metrics
    /// trace sink dropped records since the last poll. The run still
    /// works, but its logs under-report — worth knowing before trusting
    /// a replay or a trace.
    RecordLoss {
        /// Cumulative records dropped by the file recorder's ring.
        record_drops: u64,
        /// Cumulative trace events dropped by the metrics trace sink.
        trace_drops: u64,
    },
}

impl HealthEvent {
    /// Stable machine-readable kind tag (also the JSON discriminator).
    pub fn kind(&self) -> &'static str {
        match self {
            HealthEvent::Starvation { .. } => "starvation",
            HealthEvent::TokenLost { .. } => "token_lost",
            HealthEvent::TokenLeak { .. } => "token_leak",
            HealthEvent::HintStall { .. } => "hint_stall",
            HealthEvent::RunqImbalance { .. } => "runq_imbalance",
            HealthEvent::UpgradeBlackoutSlo { .. } => "upgrade_blackout_slo",
            HealthEvent::PntErrStorm { .. } => "pnt_err_storm",
            HealthEvent::SchedFault { .. } => "sched_fault",
            HealthEvent::Quarantined { .. } => "quarantined",
            HealthEvent::SchedulerRecovered => "scheduler_recovered",
            HealthEvent::SloBurn { .. } => "slo_burn",
            HealthEvent::RecordLoss { .. } => "record_loss",
        }
    }

    /// Default severity of this event kind.
    pub fn severity(&self) -> Severity {
        match self {
            HealthEvent::Starvation { .. }
            | HealthEvent::TokenLost { .. }
            | HealthEvent::TokenLeak { .. }
            | HealthEvent::SchedFault { .. }
            | HealthEvent::Quarantined { .. }
            | HealthEvent::SloBurn { .. } => Severity::Critical,
            HealthEvent::HintStall { .. }
            | HealthEvent::UpgradeBlackoutSlo { .. }
            | HealthEvent::PntErrStorm { .. }
            | HealthEvent::RecordLoss { .. } => Severity::Warning,
            HealthEvent::RunqImbalance { .. } => Severity::Warning,
            HealthEvent::SchedulerRecovered => Severity::Info,
        }
    }
}

impl std::fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthEvent::Starvation { pid, cpu, runnable_for } => write!(
                f,
                "task {pid} starving on cpu {cpu}: runnable for {runnable_for} without a pick"
            ),
            HealthEvent::TokenLost { expected, live } => write!(
                f,
                "schedulable lost: {expected} runnable/running tasks but only {live} live tokens"
            ),
            HealthEvent::TokenLeak { expected, live } => write!(
                f,
                "schedulable leak: {live} live tokens for {expected} runnable/running tasks"
            ),
            HealthEvent::HintStall { occupancy, produced_in_window, samples } => write!(
                f,
                "hint queue stalled: occupancy pinned at {occupancy} for {samples} samples \
                 while {produced_in_window} hints arrived"
            ),
            HealthEvent::RunqImbalance { max_cpu, max_depth, min_cpu, min_depth } => write!(
                f,
                "runqueue imbalance: cpu {max_cpu} depth {max_depth} vs cpu {min_cpu} depth {min_depth}"
            ),
            HealthEvent::UpgradeBlackoutSlo { worst, slo } => {
                write!(f, "upgrade blackout {worst} exceeded SLO {slo}")
            }
            HealthEvent::PntErrStorm { count_in_window } => {
                write!(f, "pnt_err storm: {count_in_window} wrong-cpu picks in one window")
            }
            HealthEvent::SchedFault { error } => {
                write!(f, "scheduler fault caught at dispatch: {error}")
            }
            HealthEvent::Quarantined { error } => {
                write!(f, "scheduler quarantined (failsafe policy engaged): {error}")
            }
            HealthEvent::SchedulerRecovered => {
                write!(f, "replacement scheduler re-registered; failsafe disengaged")
            }
            HealthEvent::SloBurn { fast_x100, slow_x100, objective } => write!(
                f,
                "SLO burn: pick latency over {objective} burning budget at {}.{:02}x (fast) / {}.{:02}x (slow)",
                fast_x100 / 100,
                fast_x100 % 100,
                slow_x100 / 100,
                slow_x100 % 100
            ),
            HealthEvent::RecordLoss { record_drops, trace_drops } => write!(
                f,
                "telemetry loss: {record_drops} record(s) and {trace_drops} trace event(s) dropped"
            ),
        }
    }
}

/// One entry in the incident log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Incident {
    /// Virtual time of detection.
    pub at: Ns,
    /// Severity assigned at record time.
    pub severity: Severity,
    /// What happened.
    pub event: HealthEvent,
}

impl Incident {
    /// Appends the incident as a JSON object — the one shape the health
    /// export and the flight manifests both carry.
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"at_ns\":{},\"severity\":\"{}\",\"kind\":\"{}\",\"detail\":",
            self.at.as_nanos(),
            self.severity,
            self.event.kind()
        );
        crate::json::escape_into(out, &self.event.to_string());
        out.push('}');
    }
}

/// What the watchdog does when a monitor fires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HealthPolicy {
    /// Record into the incident log only (the default).
    #[default]
    Count,
    /// Record and print one line per incident to stderr.
    Log,
    /// Record and panic immediately — for tests that want a broken
    /// scheduler to fail the run at the moment of violation.
    FailFast,
}

/// Watchdog thresholds and sampling parameters.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Virtual-time cadence of the sampler/monitors.
    pub sample_interval: Ns,
    /// A task continuously runnable longer than this is starving.
    pub starvation_threshold: Ns,
    /// Consecutive samples of pinned occupancy + producer progress that
    /// count as a hint-queue stall.
    pub stall_samples: u32,
    /// Max-minus-min runqueue depth that counts as imbalanced.
    pub imbalance_threshold: usize,
    /// Consecutive imbalanced samples before an incident fires.
    pub imbalance_samples: u32,
    /// Upgrade blackout budget (wall clock, per §3.2 measurements).
    pub blackout_slo: Ns,
    /// pnt_errs within one sampling window that count as a storm.
    pub pnt_err_storm: u64,
    /// Incident log capacity; the earliest incidents are kept.
    pub incident_capacity: usize,
    /// Time-series ring capacity; the most recent samples are kept.
    pub history_capacity: usize,
    /// What to do when a monitor fires.
    pub policy: HealthPolicy,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            sample_interval: Ns::from_ms(1),
            starvation_threshold: Ns::from_ms(10),
            stall_samples: 5,
            imbalance_threshold: 4,
            imbalance_samples: 3,
            blackout_slo: Ns::from_ms(1),
            pnt_err_storm: 10,
            incident_capacity: 256,
            history_capacity: 240,
            policy: HealthPolicy::Count,
        }
    }
}

impl HealthConfig {
    /// A fail-fast variant for tests: any incident panics the run.
    pub fn fail_fast() -> HealthConfig {
        HealthConfig {
            policy: HealthPolicy::FailFast,
            ..HealthConfig::default()
        }
    }
}

/// A pick-latency service-level objective with multi-window burn-rate
/// alerting (the SRE two-window pattern: a fast window for detection
/// speed, a slow window to reject blips).
///
/// Every timed pick is classified good (latency ≤ `objective`) or bad;
/// the burn rate of a window is `(bad / total) / (1 - target)` — how many
/// times faster than "exactly on budget" the error budget is being
/// spent. An alert fires only when *both* windows exceed their
/// thresholds, and clears with hysteresis once both fall below
/// `clear_factor` of them.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// Picks slower than this consume error budget.
    pub objective: Ns,
    /// Promised fraction of good picks (e.g. `0.999`).
    pub target: f64,
    /// Short window: catches fast burns quickly.
    pub fast_window: Ns,
    /// Long window: confirms the burn is sustained, not a blip.
    pub slow_window: Ns,
    /// Fast-window burn-rate threshold.
    pub fast_burn: f64,
    /// Slow-window burn-rate threshold.
    pub slow_burn: f64,
    /// Hysteresis: a latched alert clears only when both burn rates drop
    /// below `threshold * clear_factor`.
    pub clear_factor: f64,
}

impl Default for SloSpec {
    fn default() -> SloSpec {
        SloSpec {
            objective: Ns::from_us(10),
            target: 0.999,
            fast_window: Ns::from_ms(5),
            slow_window: Ns::from_ms(60),
            fast_burn: 14.4,
            slow_burn: 6.0,
            clear_factor: 0.5,
        }
    }
}

/// An edge-triggered SLO state change from [`SloState::evaluate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SloSignal {
    /// Both windows crossed their burn thresholds; carried ×100 so the
    /// resulting [`HealthEvent::SloBurn`] stays `Eq`.
    Burn {
        /// Fast-window burn rate, ×100.
        fast_x100: u64,
        /// Slow-window burn rate, ×100.
        slow_x100: u64,
    },
    /// A latched burn dropped back below the hysteresis floor.
    Clear,
}

/// Windowed burn-rate evaluator for one [`SloSpec`].
///
/// Fed one `(good, bad)` bucket per watchdog poll (virtual time), it
/// keeps only the buckets inside the slow window — memory is bounded by
/// `slow_window / sample_interval`, not run length. Pure and
/// deterministic: the same bucket sequence yields the same signals, which
/// is what makes SLO-triggered black-box dumps reproducible.
#[derive(Debug)]
pub struct SloState {
    spec: SloSpec,
    /// `(at, good, bad)` per observed poll, pruned to the slow window.
    buckets: VecDeque<(Ns, u64, u64)>,
    /// Cumulative totals at the previous feed, for delta extraction by
    /// the watchdog (unused when buckets are fed directly in tests).
    prev_total: u64,
    prev_bad: u64,
    burning: bool,
}

impl SloState {
    /// Creates an evaluator for `spec`.
    pub fn new(spec: SloSpec) -> SloState {
        SloState {
            spec,
            buckets: VecDeque::new(),
            prev_total: 0,
            prev_bad: 0,
            burning: false,
        }
    }

    /// The spec this evaluator runs with.
    pub fn spec(&self) -> SloSpec {
        self.spec
    }

    /// True while a burn alert is latched.
    pub fn burning(&self) -> bool {
        self.burning
    }

    /// Feeds one window's worth of classified picks and prunes buckets
    /// that fell out of the slow window.
    pub fn observe(&mut self, at: Ns, good: u64, bad: u64) {
        self.buckets.push_back((at, good, bad));
        let horizon = at.saturating_sub(self.spec.slow_window);
        while self.buckets.front().is_some_and(|&(t, _, _)| t < horizon) {
            self.buckets.pop_front();
        }
    }

    /// Burn rate over the window ending at `now`; `None` when the window
    /// saw no traffic (zero-traffic windows must not alert — and must
    /// not divide).
    fn window_burn(&self, now: Ns, window: Ns) -> Option<f64> {
        let horizon = now.saturating_sub(window);
        let (mut good, mut bad) = (0u64, 0u64);
        for &(t, g, b) in &self.buckets {
            if t >= horizon {
                good += g;
                bad += b;
            }
        }
        let total = good + bad;
        if total == 0 {
            return None;
        }
        let budget = (1.0 - self.spec.target).max(1e-9);
        Some((bad as f64 / total as f64) / budget)
    }

    /// Evaluates both windows at `now`; returns an edge-triggered signal
    /// on state change, `None` otherwise (including all zero-traffic
    /// windows).
    pub fn evaluate(&mut self, now: Ns) -> Option<SloSignal> {
        let fast = self.window_burn(now, self.spec.fast_window)?;
        let slow = self.window_burn(now, self.spec.slow_window)?;
        if !self.burning {
            if fast >= self.spec.fast_burn && slow >= self.spec.slow_burn {
                self.burning = true;
                return Some(SloSignal::Burn {
                    fast_x100: (fast * 100.0).min(u64::MAX as f64) as u64,
                    slow_x100: (slow * 100.0).min(u64::MAX as f64) as u64,
                });
            }
        } else if fast < self.spec.fast_burn * self.spec.clear_factor
            && slow < self.spec.slow_burn * self.spec.clear_factor
        {
            self.burning = false;
            return Some(SloSignal::Clear);
        }
        None
    }

    /// Watchdog-side feed: ingests *cumulative* totals (all-time timed
    /// picks and all-time bad picks), converts them to this poll's bucket
    /// via the saved previous totals, then observes it.
    pub fn feed_cumulative(&mut self, at: Ns, total: u64, bad: u64) {
        let w_total = total.saturating_sub(self.prev_total);
        let w_bad = bad.saturating_sub(self.prev_bad);
        self.prev_total = total;
        self.prev_bad = bad;
        self.observe(at, w_total.saturating_sub(w_bad), w_bad);
    }
}

/// One interval's worth of telemetry.
#[derive(Clone, Debug)]
pub struct HealthSample {
    /// Monotonic sample number (0-based, never reset, survives ring
    /// eviction). Consumers that key decisions to samples — notably the
    /// meta-scheduler's policy switcher — use this as the deterministic
    /// virtual-time epoch of the observation.
    pub epoch: u64,
    /// Virtual time of the sample.
    pub at: Ns,
    /// Per-cpu busy fraction (0.0–1.0) over the window ending at `at`.
    pub util: Vec<f64>,
    /// Per-cpu runqueue depth at `at`.
    pub runq: Vec<usize>,
    /// Median pick latency in the window (sampled; `None` if no picks
    /// were timed).
    pub pick_p50: Option<Ns>,
    /// 99th-percentile pick latency in the window.
    pub pick_p99: Option<Ns>,
    /// Picks in the window (all cpus).
    pub picks: u64,
    /// Dispatch calls in the window (all cpus).
    pub dispatch_calls: u64,
    /// Hint-queue occupancy at `at` (0 when no queue is registered).
    pub hint_occupancy: usize,
    /// Hints delivered + dropped in the window.
    pub hints: u64,
    /// Cumulative incidents recorded up to `at`.
    pub incidents: u64,
}

/// Mutable monitor state, updated once per poll.
#[derive(Default)]
struct MonitorState {
    scheduler: String,
    prev: PrevTotals,
    /// Pids currently in a reported starvation episode (re-fires only
    /// after the task stops starving and starves again).
    starved: BTreeSet<Pid>,
    /// Token-audit watermarks: deficits/surpluses already reported, plus
    /// the baseline deficit from untracked tokens minted before arming.
    reported_deficit: u64,
    reported_surplus: u64,
    baseline_deficit: Option<u64>,
    stall_streak: u32,
    stalled_window_hints: u64,
    last_hint_occupancy: usize,
    imbalance_streak: u32,
    prev_idle: Vec<Ns>,
    prev_at: Ns,
    /// Armed SLO evaluator, if any ([`Watchdog::arm_slo`]).
    slo: Option<SloState>,
    /// Next sample epoch to assign (total samples ever taken).
    epochs: u64,
    incidents: VecDeque<Incident>,
    samples: VecDeque<HealthSample>,
}

/// Cumulative totals as of the previous poll, for windowed deltas.
///
/// The poll runs on the sampling cadence, so it reads the handful of
/// counters and histograms it needs directly from the atomics
/// ([`counter_sum`](crate::metrics::SchedulerMetrics::counter_sum) /
/// [`histogram_sum`](crate::metrics::SchedulerMetrics::histogram_sum))
/// and windows against these saved totals — a full registry snapshot +
/// diff per sample would dominate the watchdog's cost.
struct PrevTotals {
    hints: u64,
    pnt_errs: u64,
    picks: u64,
    dispatch_calls: u64,
    record_drops: u64,
    trace_drops: u64,
    pick_latency: Histogram,
    blackout: Histogram,
}

impl Default for PrevTotals {
    fn default() -> PrevTotals {
        PrevTotals {
            hints: 0,
            pnt_errs: 0,
            picks: 0,
            dispatch_calls: 0,
            record_drops: 0,
            trace_drops: 0,
            pick_latency: Histogram::new(),
            blackout: Histogram::new(),
        }
    }
}

/// The live watchdog: invariant monitors + a time-series sampler.
///
/// Create one with [`Watchdog::new`], arm the class's token ledger, and
/// install [`Watchdog::poll`] as the machine's sampler:
///
/// ```ignore
/// let wd = Watchdog::new(HealthConfig::default());
/// class.arm_token_ledger(); // before spawning work
/// let (w, c) = (Arc::clone(&wd), Rc::clone(&class));
/// machine.set_sampler(wd.config().sample_interval,
///     Box::new(move |m| w.poll(m, class_idx, &c)));
/// ```
///
/// [`crate::MachineBuilder::health`] wraps this dance as one builder call.
pub struct Watchdog {
    config: HealthConfig,
    state: Mutex<MonitorState>,
    /// Cumulative incident count (cheap to read without the lock).
    incident_count: AtomicU64,
    /// Incidents discarded because the log was full.
    dropped: AtomicU64,
}

impl Watchdog {
    /// Creates a watchdog with the given configuration.
    pub fn new(config: HealthConfig) -> Arc<Watchdog> {
        Arc::new(Watchdog {
            config,
            state: Mutex::new(MonitorState::default()),
            incident_count: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// The configuration this watchdog runs with.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Arms a pick-latency SLO: every poll classifies the window's timed
    /// picks against [`SloSpec::objective`] and evaluates both burn-rate
    /// windows; a burn records a critical [`HealthEvent::SloBurn`]
    /// (which, with the flight recorder armed, also snapshots a black
    /// box). [`crate::MachineBuilder::slo`] is the usual entry point.
    pub fn arm_slo(&self, spec: SloSpec) {
        self.lock().slo = Some(SloState::new(spec));
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MonitorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total incidents recorded (including any dropped from the log).
    pub fn incident_count(&self) -> u64 {
        self.incident_count.load(Ordering::Relaxed)
    }

    /// Incidents discarded because the bounded log was full.
    pub fn dropped_incidents(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the incident log (earliest incidents are retained).
    pub fn incidents(&self) -> Vec<Incident> {
        self.lock().incidents.iter().copied().collect()
    }

    /// A copy of the time-series ring (most recent samples are retained).
    pub fn samples(&self) -> Vec<HealthSample> {
        self.lock().samples.iter().cloned().collect()
    }

    /// Pull-based sample subscription: every sample whose
    /// [`HealthSample::epoch`] is at least `cursor`, plus the cursor to
    /// pass next time (one past the newest epoch taken so far).
    ///
    /// Consumers start at cursor 0 and feed the returned cursor back in,
    /// seeing each sample exactly once with no shared callback state —
    /// the subscription pattern the meta-scheduler's controller uses from
    /// the machine's sampler hook. Samples that fell off the bounded ring
    /// before being pulled are lost (size the ring to the poll cadence).
    pub fn samples_since(&self, cursor: u64) -> (Vec<HealthSample>, u64) {
        let st = self.lock();
        let fresh = st
            .samples
            .iter()
            .filter(|s| s.epoch >= cursor)
            .cloned()
            .collect();
        (fresh, st.epochs)
    }

    /// Records an incident, applying the configured policy.
    ///
    /// Public so harnesses can inject their own domain-specific events
    /// into the same log the monitors use.
    pub fn record(&self, at: Ns, severity: Severity, event: HealthEvent) {
        self.incident_count.fetch_add(1, Ordering::Relaxed);
        let incident = Incident { at, severity, event };
        let recent = {
            let mut st = self.lock();
            if st.incidents.len() < self.config.incident_capacity {
                st.incidents.push_back(incident);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            // Snapshot the recent incident tail while we hold the lock;
            // the flight dump below runs outside it.
            if severity == Severity::Critical {
                let mut r: Vec<Incident> =
                    st.incidents.iter().rev().take(16).copied().collect();
                r.reverse();
                if r.last() != Some(&incident) {
                    r.push(incident);
                }
                Some(r)
            } else {
                None
            }
        };
        // Every critical incident is a black-box trigger (no-op unless
        // the flight recorder is armed; rate-limited by its spec). This
        // single hook covers starvation, token loss, scheduler faults,
        // quarantines, and SLO burns — they all funnel through here.
        // Before the policy match so FailFast runs still leave a dump.
        if let Some(recent) = recent {
            crate::flight::auto_dump(event.kind(), at, &recent);
        }
        match self.config.policy {
            HealthPolicy::Count => {}
            HealthPolicy::Log => {
                eprintln!("[health] {at} {severity}: {event}");
            }
            HealthPolicy::FailFast => {
                panic!("[health] {at} {severity}: {event}");
            }
        }
    }

    /// Runs every monitor once and appends a time-series sample.
    ///
    /// Designed to be called from the machine's sampler hook, i.e. between
    /// simulation events, where task states, runqueue depths, metrics, and
    /// the token ledger are mutually consistent. `class_idx` is the
    /// sched-class index tasks of this scheduler carry (`Task::class`).
    pub fn poll<U, R>(&self, m: &Machine, class_idx: usize, class: &EnokiClass<U, R>)
    where
        U: Copy + Send + From<HintVal> + 'static,
        R: Copy + Send + 'static,
    {
        let now = m.now();
        // Fold machine-side gauges (runq depth, idle, switches) into the
        // scheduler's metrics and flush staged counters, then read the
        // few totals the monitors need straight from the atomics.
        let metrics = class.metrics();
        observe_machine(m, metrics);
        let hints_total = metrics.counter_sum(EventKind::HintsDelivered)
            + metrics.counter_sum(EventKind::HintsDropped);
        let pnt_total = metrics.counter_sum(EventKind::PntErrs);
        let picks_total = metrics.counter_sum(EventKind::Picks);
        let dispatch_total = metrics.counter_sum(EventKind::DispatchCalls);

        let mut st = self.lock();
        if st.scheduler.is_empty() {
            st.scheduler = metrics.name().to_string();
        }
        // Zero-length window guard: when two polls land on the same
        // virtual tick (a burst of same-time events re-enters the sampler
        // hook), the second observes a window of zero wall time. Rather
        // than computing rates over nothing — which would double-report
        // streak monitors and hand storm detectors a spurious "window" —
        // coalesce into the next real poll: leave every `prev` watermark
        // untouched so the deferred counts land in the following window.
        if now == st.prev_at && !st.samples.is_empty() {
            return;
        }
        // Window = cumulative - previous poll's cumulative. On the first
        // poll the previous totals are zero/empty, so the window covers
        // everything since the run began. Histograms are guarded by a
        // count read: bucket merging and the window summary only run in
        // windows where new samples actually landed.
        let w_hints = hints_total.saturating_sub(st.prev.hints);
        let w_pnt = pnt_total.saturating_sub(st.prev.pnt_errs);
        let w_picks = picks_total.saturating_sub(st.prev.picks);
        let w_dispatch = dispatch_total.saturating_sub(st.prev.dispatch_calls);
        st.prev.hints = hints_total;
        st.prev.pnt_errs = pnt_total;
        st.prev.picks = picks_total;
        st.prev.dispatch_calls = dispatch_total;
        let w_picklat = if metrics.histogram_count(EventKind::PickLatency)
            == st.prev.pick_latency.count()
        {
            HistogramDelta::empty()
        } else {
            let cur = metrics.histogram_sum(EventKind::PickLatency);
            let d = cur.delta_stats(&st.prev.pick_latency);
            st.prev.pick_latency = cur;
            d
        };
        let w_blackout = if metrics.histogram_count(EventKind::UpgradeBlackout)
            == st.prev.blackout.count()
        {
            HistogramDelta::empty()
        } else {
            let cur = metrics.histogram_sum(EventKind::UpgradeBlackout);
            let d = cur.delta_stats(&st.prev.blackout);
            st.prev.blackout = cur;
            d
        };

        let mut fire = Vec::new();

        // --- SLO burn rate ----------------------------------------------
        // `st.prev.pick_latency` is the cumulative snapshot as of this
        // poll (refreshed above whenever new picks landed), so the SLO
        // engine classifies against it without a second histogram walk.
        {
            let stm = &mut *st;
            if let Some(slo) = stm.slo.as_mut() {
                let objective = slo.spec().objective;
                let total = stm.prev.pick_latency.count();
                let bad = stm.prev.pick_latency.count_over(objective);
                slo.feed_cumulative(now, total, bad);
                if let Some(SloSignal::Burn { fast_x100, slow_x100 }) = slo.evaluate(now) {
                    fire.push((
                        Severity::Critical,
                        HealthEvent::SloBurn { fast_x100, slow_x100, objective },
                    ));
                }
            }
        }

        // --- silent telemetry loss --------------------------------------
        // Record-ring and trace-sink drops were queryable but nothing
        // watched them; surface them as gauges and warn when they grow.
        let record_drops = crate::record::recorder_dropped().unwrap_or(st.prev.record_drops);
        let trace_drops = metrics.trace_dropped();
        metrics.gauge_set(EventKind::RecordDrops, 0, record_drops as i64);
        metrics.gauge_set(EventKind::TraceSinkDrops, 0, trace_drops as i64);
        if record_drops > st.prev.record_drops || trace_drops > st.prev.trace_drops {
            fire.push((
                Severity::Warning,
                HealthEvent::RecordLoss { record_drops, trace_drops },
            ));
        }
        st.prev.record_drops = record_drops;
        st.prev.trace_drops = trace_drops;

        // --- starvation ------------------------------------------------
        // Graceful degradation: with the failsafe armed, a conservation
        // violation quarantines the module rather than letting a stranded
        // task starve forever. Deferred past the state guard because
        // `quarantine_now` reports back through this watchdog's own
        // incident log.
        let mut quarantine: Option<crate::SchedError> = None;
        let mut still_starving = BTreeSet::new();
        for pid in 0..m.nr_tasks() {
            let t = m.task(pid);
            if t.class != class_idx || t.state != TaskState::Runnable {
                continue;
            }
            let Some(since) = t.runnable_since else { continue };
            let waited = now.saturating_sub(since);
            if waited < self.config.starvation_threshold {
                continue;
            }
            still_starving.insert(pid);
            if !st.starved.contains(&pid) {
                fire.push((
                    Severity::Critical,
                    HealthEvent::Starvation { pid, cpu: t.cpu, runnable_for: waited },
                ));
            }
        }
        st.starved = still_starving;

        // --- schedulable conservation audit ----------------------------
        // Skipped while the class is quarantined: the failsafe mints its
        // own tokens while the quarantined module still holds stale ones,
        // so the ledger is legitimately out of conservation until a
        // replacement re-registers.
        if let Some(ledger) = class.token_ledger().filter(|_| !class.is_quarantined()) {
            let expected = (0..m.nr_tasks())
                .filter(|&pid| {
                    let t = m.task(pid);
                    t.class == class_idx
                        && matches!(t.state, TaskState::Runnable | TaskState::Running)
                })
                .count() as u64;
            let live = ledger.live();
            // Tokens minted before the ledger was armed are invisible to
            // it, which shows up as a deficit that can only shrink over
            // time (each block/wake cycle replaces an untracked token
            // with a tracked one). Track that floor as a baseline and
            // only report deficits that grow beyond it.
            let deficit = expected.saturating_sub(live);
            let baseline = st.baseline_deficit.get_or_insert(deficit);
            if deficit < *baseline {
                *baseline = deficit;
            }
            if deficit > (*baseline).max(st.reported_deficit) {
                st.reported_deficit = deficit;
                fire.push((Severity::Critical, HealthEvent::TokenLost { expected, live }));
                quarantine = Some(crate::SchedError::TokenConservation { expected, live });
            }
            let surplus = live.saturating_sub(expected);
            if surplus > st.reported_surplus {
                st.reported_surplus = surplus;
                fire.push((Severity::Critical, HealthEvent::TokenLeak { expected, live }));
                quarantine = Some(crate::SchedError::TokenConservation { expected, live });
            }
        }

        // --- hint-queue stall -------------------------------------------
        let occupancy = class.user_queue_stats().map_or(0, |(len, _, _)| len);
        let produced = w_hints;
        if occupancy > 0 && occupancy >= st.last_hint_occupancy && produced > 0 {
            st.stall_streak += 1;
            st.stalled_window_hints += produced;
            if st.stall_streak >= self.config.stall_samples {
                fire.push((
                    Severity::Warning,
                    HealthEvent::HintStall {
                        occupancy,
                        produced_in_window: st.stalled_window_hints,
                        samples: st.stall_streak,
                    },
                ));
                st.stall_streak = 0;
                st.stalled_window_hints = 0;
            }
        } else {
            st.stall_streak = 0;
            st.stalled_window_hints = 0;
        }
        st.last_hint_occupancy = occupancy;

        // --- runqueue imbalance -----------------------------------------
        let nr_cpus = m.topology().nr_cpus();
        let depths: Vec<usize> = (0..nr_cpus).map(|c| m.runqueue_depth(c)).collect();
        if let (Some(&max_d), Some(&min_d)) = (depths.iter().max(), depths.iter().min()) {
            if max_d - min_d >= self.config.imbalance_threshold {
                st.imbalance_streak += 1;
                if st.imbalance_streak >= self.config.imbalance_samples {
                    let max_cpu = depths.iter().position(|&d| d == max_d).unwrap_or(0);
                    let min_cpu = depths.iter().position(|&d| d == min_d).unwrap_or(0);
                    fire.push((
                        Severity::Warning,
                        HealthEvent::RunqImbalance {
                            max_cpu,
                            max_depth: max_d,
                            min_cpu,
                            min_depth: min_d,
                        },
                    ));
                    st.imbalance_streak = 0;
                }
            } else {
                st.imbalance_streak = 0;
            }
        }

        // --- upgrade blackout SLO ---------------------------------------
        if w_blackout.count > 0 && w_blackout.max > self.config.blackout_slo {
            fire.push((
                Severity::Warning,
                HealthEvent::UpgradeBlackoutSlo {
                    worst: w_blackout.max,
                    slo: self.config.blackout_slo,
                },
            ));
        }

        // --- pnt_err storm ----------------------------------------------
        if w_pnt >= self.config.pnt_err_storm {
            fire.push((Severity::Warning, HealthEvent::PntErrStorm { count_in_window: w_pnt }));
        }

        // --- time-series sample -----------------------------------------
        let wall = now.saturating_sub(st.prev_at);
        let mut util = Vec::with_capacity(nr_cpus);
        if st.prev_idle.len() != nr_cpus {
            st.prev_idle = vec![Ns::ZERO; nr_cpus];
        }
        for (cpu, prev) in st.prev_idle.iter_mut().enumerate() {
            let idle = m.idle_time(cpu);
            let idle_delta = idle.saturating_sub(*prev);
            *prev = idle;
            let busy = if wall.is_zero() {
                0.0
            } else {
                (1.0 - idle_delta.as_nanos() as f64 / wall.as_nanos() as f64).clamp(0.0, 1.0)
            };
            util.push(busy);
        }
        st.prev_at = now;

        let epoch = st.epochs;
        st.epochs += 1;
        let sample = HealthSample {
            epoch,
            at: now,
            util,
            runq: depths,
            pick_p50: w_picklat.p50,
            pick_p99: w_picklat.p99,
            picks: w_picks,
            dispatch_calls: w_dispatch,
            hint_occupancy: occupancy,
            hints: produced,
            incidents: self.incident_count() + fire.len() as u64,
        };
        if st.samples.len() >= self.config.history_capacity {
            st.samples.pop_front();
        }
        st.samples.push_back(sample);
        drop(st);

        for (severity, event) in fire {
            self.record(now, severity, event);
        }
        if let Some(error) = quarantine {
            class.quarantine_now(now, error);
        }
    }

    /// Renders an `enoki-top`-style plain-text panel: the latest sample's
    /// per-cpu table, headline rates, and up to `max_incidents` incidents.
    pub fn render_top(&self, max_incidents: usize) -> String {
        use std::fmt::Write as _;
        let st = self.lock();
        let mut out = String::new();
        let name = if st.scheduler.is_empty() { "?" } else { &st.scheduler };
        let _ = writeln!(
            out,
            "enoki-top — scheduler '{name}'  interval {}  samples {}  incidents {}",
            self.config.sample_interval,
            st.samples.len(),
            self.incident_count()
        );
        if let Some(s) = st.samples.back() {
            let _ = writeln!(out, "  t = {}", s.at);
            let _ = writeln!(out, "  cpu   util%   runq");
            for (cpu, (u, d)) in s.util.iter().zip(&s.runq).enumerate() {
                let _ = writeln!(out, "  {cpu:>3}   {:>5.1}   {d:>4}", u * 100.0);
            }
            let fmt_lat = |l: Option<Ns>| l.map_or("-".to_string(), |n| n.to_string());
            let _ = writeln!(
                out,
                "  pick p50/p99 {}/{}  picks {}  dispatch {}  hints {} (occ {})",
                fmt_lat(s.pick_p50),
                fmt_lat(s.pick_p99),
                s.picks,
                s.dispatch_calls,
                s.hints,
                s.hint_occupancy
            );
        } else {
            let _ = writeln!(out, "  (no samples yet)");
        }
        if st.incidents.is_empty() {
            let _ = writeln!(out, "  incidents: none");
        } else {
            for i in st.incidents.iter().take(max_incidents) {
                let _ = writeln!(out, "  [{}] {} {}: {}", i.at, i.severity, i.event.kind(), i.event);
            }
            let shown = st.incidents.len().min(max_incidents);
            let hidden = self.incident_count() as usize - shown;
            if hidden > 0 {
                let _ = writeln!(out, "  ... and {hidden} more incidents");
            }
        }
        out
    }

    /// Exports the time series and incident log as a JSON object
    /// (hand-rolled, zero-dep policy).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let st = self.lock();
        let mut out = String::new();
        out.push_str("{\"scheduler\":");
        crate::json::escape_into(&mut out, &st.scheduler);
        let _ = write!(
            out,
            ",\"sample_interval_ns\":{},\"incident_count\":{},\"dropped_incidents\":{}",
            self.config.sample_interval.as_nanos(),
            self.incident_count(),
            self.dropped_incidents()
        );
        out.push_str(",\"samples\":[");
        for (i, s) in st.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"epoch\":{},\"at_ns\":{},\"util\":[", s.epoch, s.at.as_nanos());
            for (j, u) in s.util.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{:.4}", u);
            }
            out.push_str("],\"runq\":[");
            for (j, d) in s.runq.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{d}");
            }
            out.push(']');
            if let Some(p) = s.pick_p50 {
                let _ = write!(out, ",\"pick_p50_ns\":{}", p.as_nanos());
            }
            if let Some(p) = s.pick_p99 {
                let _ = write!(out, ",\"pick_p99_ns\":{}", p.as_nanos());
            }
            let _ = write!(
                out,
                ",\"picks\":{},\"dispatch_calls\":{},\"hint_occupancy\":{},\"hints\":{},\"incidents\":{}}}",
                s.picks, s.dispatch_calls, s.hint_occupancy, s.hints, s.incidents
            );
        }
        out.push_str("],\"incidents\":[");
        for (i, inc) in st.incidents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            inc.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = HealthConfig::default();
        assert!(c.sample_interval > Ns::ZERO);
        assert!(c.starvation_threshold > c.sample_interval);
        assert_eq!(c.policy, HealthPolicy::Count);
        assert_eq!(HealthConfig::fail_fast().policy, HealthPolicy::FailFast);
    }

    #[test]
    fn incident_log_is_bounded_and_keeps_earliest() {
        let wd = Watchdog::new(HealthConfig {
            incident_capacity: 2,
            ..HealthConfig::default()
        });
        for i in 0..5 {
            wd.record(
                Ns::from_us(i),
                Severity::Info,
                HealthEvent::PntErrStorm { count_in_window: i },
            );
        }
        assert_eq!(wd.incident_count(), 5);
        assert_eq!(wd.dropped_incidents(), 3);
        let log = wd.incidents();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].at, Ns::ZERO);
        assert_eq!(log[1].at, Ns::from_us(1));
    }

    #[test]
    #[should_panic(expected = "starving")]
    fn fail_fast_panics_on_record() {
        let wd = Watchdog::new(HealthConfig::fail_fast());
        wd.record(
            Ns::ZERO,
            Severity::Critical,
            HealthEvent::Starvation { pid: 3, cpu: 1, runnable_for: Ns::from_ms(20) },
        );
    }

    #[test]
    fn event_kind_and_display() {
        let e = HealthEvent::Starvation { pid: 7, cpu: 2, runnable_for: Ns::from_ms(15) };
        assert_eq!(e.kind(), "starvation");
        assert_eq!(e.severity(), Severity::Critical);
        let text = e.to_string();
        assert!(text.contains("task 7"), "{text}");
        assert!(text.contains("cpu 2"), "{text}");
    }

    // --- SLO burn-rate math ------------------------------------------

    /// Single-bucket windows: buckets spaced wider than the windows, so
    /// every evaluation sees exactly the newest bucket in both windows
    /// and the table reads as plain burn arithmetic.
    fn tight_slo() -> SloState {
        SloState::new(SloSpec {
            objective: Ns::from_us(10),
            target: 0.9, // budget 0.1 → burn = 10 × bad-fraction
            fast_window: Ns::from_ms(10),
            slow_window: Ns::from_ms(10),
            fast_burn: 5.0,
            slow_burn: 5.0,
            clear_factor: 0.5, // clear floor at burn 2.5
        })
    }

    #[test]
    fn slo_burn_edges_and_hysteresis_table() {
        // (at_ms, good, bad, expected signal)
        let table: &[(u64, u64, u64, Option<SloSignal>)] = &[
            // burn 5.0 == threshold: fires (≥), edge-triggered
            (20, 5, 5, Some(SloSignal::Burn { fast_x100: 500, slow_x100: 500 })),
            // burn 3.0: below threshold but above the 2.5 clear floor —
            // hysteresis holds the latch
            (40, 7, 3, None),
            // burn 2.5 == clear floor exactly: clear requires strictly
            // below, latch still held
            (60, 15, 5, None),
            // burn 2.0 < 2.5: clears
            (80, 8, 2, Some(SloSignal::Clear)),
            // healthy traffic while not burning: nothing
            (100, 10, 0, None),
            // full burn re-fires after a clear
            (120, 0, 10, Some(SloSignal::Burn { fast_x100: 1000, slow_x100: 1000 })),
            // staying terrible does not re-fire (still latched)
            (140, 0, 10, None),
        ];
        let mut slo = tight_slo();
        for &(ms, good, bad, want) in table {
            slo.observe(Ns::from_ms(ms), good, bad);
            let got = slo.evaluate(Ns::from_ms(ms));
            assert_eq!(got, want, "at {ms}ms good={good} bad={bad}");
        }
    }

    #[test]
    fn slo_fast_window_spike_needs_slow_window_confirmation() {
        // Distinct windows: fast 10ms, slow 50ms.
        let mut slo = SloState::new(SloSpec {
            fast_window: Ns::from_ms(10),
            slow_window: Ns::from_ms(50),
            fast_burn: 5.0,
            slow_burn: 2.0,
            target: 0.9,
            ..SloSpec::default()
        });
        // A calm, busy run...
        for ms in [5u64, 15, 25, 35] {
            slo.observe(Ns::from_ms(ms), 100, 0);
            assert_eq!(slo.evaluate(Ns::from_ms(ms)), None);
        }
        // ...then a fast-window spike: fast burn 10.0 (all bad), but the
        // slow window still holds 400 good picks → no alert. This is the
        // whole point of the second window: blips don't page.
        slo.observe(Ns::from_ms(46), 0, 50);
        assert_eq!(slo.evaluate(Ns::from_ms(46)), None);
        assert!(!slo.burning());
        // Sustained badness pushes the slow window over 2.0 too → burn.
        slo.observe(Ns::from_ms(48), 0, 100);
        slo.observe(Ns::from_ms(50), 0, 100);
        match slo.evaluate(Ns::from_ms(50)) {
            Some(SloSignal::Burn { fast_x100, slow_x100 }) => {
                assert_eq!(fast_x100, 1000, "fast window is all-bad");
                assert!(slow_x100 >= 200, "slow window crossed: {slow_x100}");
            }
            other => panic!("expected burn, got {other:?}"),
        }
        assert!(slo.burning());
    }

    #[test]
    fn slo_zero_traffic_windows_never_divide_or_alert() {
        let mut slo = tight_slo();
        // No buckets at all.
        assert_eq!(slo.evaluate(Ns::from_ms(5)), None);
        // Buckets exist but carry no traffic (idle machine): the
        // PR 6-style zero-window guard — no division, no state change.
        for ms in [10u64, 30, 50] {
            slo.observe(Ns::from_ms(ms), 0, 0);
            assert_eq!(slo.evaluate(Ns::from_ms(ms)), None);
        }
        assert!(!slo.burning());
        // A latched burn is *held* across zero-traffic windows, not
        // cleared by silence.
        slo.observe(Ns::from_ms(70), 0, 10);
        assert!(matches!(
            slo.evaluate(Ns::from_ms(70)),
            Some(SloSignal::Burn { .. })
        ));
        slo.observe(Ns::from_ms(90), 0, 0);
        assert_eq!(slo.evaluate(Ns::from_ms(90)), None);
        assert!(slo.burning());
    }

    #[test]
    fn slo_feed_cumulative_converts_totals_to_window_buckets() {
        let mut slo = tight_slo();
        // 10 picks so far, all bad → burn 10 ≥ 5: fires.
        slo.feed_cumulative(Ns::from_ms(20), 10, 10);
        assert!(matches!(
            slo.evaluate(Ns::from_ms(20)),
            Some(SloSignal::Burn { .. })
        ));
        // 990 more picks, zero new bad → this window is all good and the
        // old bucket has aged out of the 10ms windows → clears.
        slo.feed_cumulative(Ns::from_ms(40), 1000, 10);
        assert_eq!(slo.evaluate(Ns::from_ms(40)), Some(SloSignal::Clear));
    }

    #[test]
    fn slo_burn_event_kind_severity_display() {
        let e = HealthEvent::SloBurn {
            fast_x100: 1440,
            slow_x100: 615,
            objective: Ns::from_us(10),
        };
        assert_eq!(e.kind(), "slo_burn");
        assert_eq!(e.severity(), Severity::Critical);
        let text = e.to_string();
        assert!(text.contains("14.40x"), "{text}");
        assert!(text.contains("6.15x"), "{text}");
        let loss = HealthEvent::RecordLoss { record_drops: 3, trace_drops: 0 };
        assert_eq!(loss.kind(), "record_loss");
        assert_eq!(loss.severity(), Severity::Warning);
    }

    #[test]
    fn empty_watchdog_renders_and_exports() {
        let wd = Watchdog::new(HealthConfig::default());
        let top = wd.render_top(10);
        assert!(top.contains("no samples yet"));
        assert!(top.contains("incidents: none"));
        let json = wd.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"samples\":[]"));
        assert!(json.contains("\"incidents\":[]"));
    }
}
