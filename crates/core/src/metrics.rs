//! The unified observability layer: a lock-free metrics registry and a
//! structured trace-event sink.
//!
//! Every layer of the stack reports here — the dispatch layer
//! ([`crate::dispatch`]) times picks and hint delivery, the lock shims
//! ([`crate::sync`]) count acquisitions and hold times, schedulers hook in
//! through [`crate::api::EnokiScheduler::attach_metrics`], and simulation
//! runs are folded in with [`observe_machine`]. The hot path is pure
//! atomics: counters and gauges are single `fetch_add`/`store` operations
//! and latency samples land in log-linear atomic histograms. The only lock
//! in the layer guards cold-path registration.
//!
//! Reading happens through [`MetricsSnapshot`]: a point-in-time copy keyed
//! by `(scheduler, cpu, kind)` that supports [`MetricsSnapshot::diff`] for
//! windowed measurement ("context switches during the benchmark interval")
//! and renders to a plain-text summary. Structured trace events flow
//! through a [`RingBuffer`]-backed sink ([`TraceRecord`]) and export to
//! Chrome `trace_event` JSON via [`export`].

pub mod export;

use crate::queue::RingBuffer;
use enoki_sim::stats::Histogram;
use enoki_sim::{Machine, Ns};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

pub use enoki_sim::stats::HistogramDelta;

/// A point-in-time copy of one latency histogram: the sim's
/// [`Histogram`], whose bucket layout the atomic histograms share.
pub type HistogramSnapshot = Histogram;

/// Number of scheduler-defined custom counter slots per cpu.
pub const NR_CUSTOM_COUNTERS: u8 = 4;

const NR_COUNTER_KINDS: usize = 12 + NR_CUSTOM_COUNTERS as usize;
const NR_GAUGE_KINDS: usize = 5;
const NR_HISTO_KINDS: usize = 4;

/// What a metric sample means. Kinds are partitioned into counters
/// (monotonic events), gauges (point-in-time levels), and histograms
/// (latency distributions); each [`SchedulerMetrics`] keeps one slot per
/// `(kind, cpu)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    // --- counters ---
    /// Calls forwarded through the dispatch layer.
    DispatchCalls,
    /// `pick_next_task` invocations.
    Picks,
    /// Picks that returned no task (the cpu went idle).
    IdlePicks,
    /// Picks rejected because the token named the wrong core.
    PntErrs,
    /// Wrong tokens returned from `migrate_task_rq`.
    TokenMismatches,
    /// Hints delivered to the scheduler.
    HintsDelivered,
    /// Hints dropped because the hint queue was full.
    HintsDropped,
    /// Live upgrades performed.
    Upgrades,
    /// Lock acquisitions through the [`crate::sync`] shims.
    LockAcquires,
    /// Context switches (from [`observe_machine`]).
    ContextSwitches,
    /// Task migrations into the cpu (from [`observe_machine`]).
    Migrations,
    /// Tasks enqueued by the scheduler module.
    Enqueues,
    /// A scheduler-defined counter (slot `0..NR_CUSTOM_COUNTERS`).
    Custom(u8),
    // --- gauges ---
    /// Current run-queue depth.
    RunqDepth,
    /// Messages dropped by a registered hint queue (ring full).
    QueueDrops,
    /// Cumulative idle time in nanoseconds.
    IdleTime,
    /// Records dropped by the file recorder's ring (silent record loss,
    /// published by the health watchdog's poll).
    RecordDrops,
    /// Trace events dropped by this handle's trace sink (ring full).
    TraceSinkDrops,
    // --- histograms ---
    /// Latency of `pick_next_task` module calls (wall-clock ns).
    PickLatency,
    /// Latency of hint delivery (wall-clock ns).
    DeliveryLatency,
    /// Live-upgrade service blackout (wall-clock ns).
    UpgradeBlackout,
    /// Lock hold time in the [`crate::sync`] shims (wall-clock ns).
    LockHold,
}

impl EventKind {
    /// Stable display name (used by snapshots and exporters).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::DispatchCalls => "dispatch_calls",
            EventKind::Picks => "picks",
            EventKind::IdlePicks => "idle_picks",
            EventKind::PntErrs => "pnt_errs",
            EventKind::TokenMismatches => "token_mismatches",
            EventKind::HintsDelivered => "hints_delivered",
            EventKind::HintsDropped => "hints_dropped",
            EventKind::Upgrades => "upgrades",
            EventKind::LockAcquires => "lock_acquires",
            EventKind::ContextSwitches => "context_switches",
            EventKind::Migrations => "migrations",
            EventKind::Enqueues => "enqueues",
            EventKind::Custom(0) => "custom0",
            EventKind::Custom(1) => "custom1",
            EventKind::Custom(2) => "custom2",
            EventKind::Custom(_) => "custom3",
            EventKind::RunqDepth => "runq_depth",
            EventKind::QueueDrops => "queue_drops",
            EventKind::IdleTime => "idle_ns",
            EventKind::RecordDrops => "record_drops",
            EventKind::TraceSinkDrops => "trace_sink_drops",
            EventKind::PickLatency => "pick_latency",
            EventKind::DeliveryLatency => "delivery_latency",
            EventKind::UpgradeBlackout => "upgrade_blackout",
            EventKind::LockHold => "lock_hold",
        }
    }

    fn counter_index(self) -> Option<usize> {
        Some(match self {
            EventKind::DispatchCalls => 0,
            EventKind::Picks => 1,
            EventKind::IdlePicks => 2,
            EventKind::PntErrs => 3,
            EventKind::TokenMismatches => 4,
            EventKind::HintsDelivered => 5,
            EventKind::HintsDropped => 6,
            EventKind::Upgrades => 7,
            EventKind::LockAcquires => 8,
            EventKind::ContextSwitches => 9,
            EventKind::Migrations => 10,
            EventKind::Enqueues => 11,
            EventKind::Custom(i) if i < NR_CUSTOM_COUNTERS => 12 + i as usize,
            _ => return None,
        })
    }

    fn counter_kind(idx: usize) -> EventKind {
        match idx {
            0 => EventKind::DispatchCalls,
            1 => EventKind::Picks,
            2 => EventKind::IdlePicks,
            3 => EventKind::PntErrs,
            4 => EventKind::TokenMismatches,
            5 => EventKind::HintsDelivered,
            6 => EventKind::HintsDropped,
            7 => EventKind::Upgrades,
            8 => EventKind::LockAcquires,
            9 => EventKind::ContextSwitches,
            10 => EventKind::Migrations,
            11 => EventKind::Enqueues,
            i => EventKind::Custom((i - 12) as u8),
        }
    }

    fn gauge_index(self) -> Option<usize> {
        Some(match self {
            EventKind::RunqDepth => 0,
            EventKind::QueueDrops => 1,
            EventKind::IdleTime => 2,
            EventKind::RecordDrops => 3,
            EventKind::TraceSinkDrops => 4,
            _ => return None,
        })
    }

    fn gauge_kind(idx: usize) -> EventKind {
        match idx {
            0 => EventKind::RunqDepth,
            1 => EventKind::QueueDrops,
            2 => EventKind::IdleTime,
            3 => EventKind::RecordDrops,
            _ => EventKind::TraceSinkDrops,
        }
    }

    fn histo_index(self) -> Option<usize> {
        Some(match self {
            EventKind::PickLatency => 0,
            EventKind::DeliveryLatency => 1,
            EventKind::UpgradeBlackout => 2,
            EventKind::LockHold => 3,
            _ => return None,
        })
    }

    fn histo_kind(idx: usize) -> EventKind {
        match idx {
            0 => EventKind::PickLatency,
            1 => EventKind::DeliveryLatency,
            2 => EventKind::UpgradeBlackout,
            _ => EventKind::LockHold,
        }
    }
}

// ----------------------------------------------------------------------
// Global enable flag
// ----------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether metric recording is enabled (process-global; defaults to on).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide. Used by benches to
/// measure the instrumentation's own overhead; recording sites become
/// a single relaxed load when disabled.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ----------------------------------------------------------------------
// Atomic histogram
// ----------------------------------------------------------------------

/// A lock-free latency histogram: atomic buckets in [`Histogram`]'s
/// layout.
struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: (0..Histogram::NR_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[Histogram::index_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds this histogram's samples to `out`.
    fn merge_into(&self, out: &mut Histogram) {
        out.merge_raw(
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)),
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed) as u128,
            Ns(self.min.load(Ordering::Relaxed)),
            Ns(self.max.load(Ordering::Relaxed)),
        );
    }

    fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        self.merge_into(&mut h);
        h
    }
}

// ----------------------------------------------------------------------
// Exemplars
// ----------------------------------------------------------------------

/// The worst sample seen in one power-of-two latency tier, with the task
/// and virtual time that produced it — the link from a histogram spike
/// straight into the span graph (`enoki-log why <pid>` at `at`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded latency.
    pub value: Ns,
    /// The task involved (`-1` for an idle pick).
    pub pid: i64,
    /// Virtual time of the sample.
    pub at: Ns,
}

/// Power-of-two exemplar tiers per histogram kind (2^47 ns is ~39 hours).
const EXEMPLAR_TIERS: usize = 48;

/// Sentinel pid marking an exemplar slot as never written.
const EXEMPLAR_EMPTY: i64 = i64::MIN;

/// One atomic exemplar slot per power-of-two tier. Updates are
/// last-writer-wins per field under concurrency — an exemplar is a
/// debugging breadcrumb, not an invariant — and exact in the
/// single-threaded simulator.
struct ExemplarSlot {
    value: AtomicU64,
    pid: AtomicI64,
    at: AtomicU64,
}

impl ExemplarSlot {
    fn new() -> ExemplarSlot {
        ExemplarSlot {
            value: AtomicU64::new(0),
            pid: AtomicI64::new(EXEMPLAR_EMPTY),
            at: AtomicU64::new(0),
        }
    }
}

/// The power-of-two tier a value falls in (`0..EXEMPLAR_TIERS`).
fn exemplar_tier(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    ((63 - v.leading_zeros()) as usize).min(EXEMPLAR_TIERS - 1)
}

// ----------------------------------------------------------------------
// Trace sink
// ----------------------------------------------------------------------

/// One structured trace event, emitted lock-free through a
/// [`RingBuffer`] SPSC sink armed with [`SchedulerMetrics::arm_trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Event timestamp in nanoseconds (virtual time for sim-side events).
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// The cpu the event is attributed to.
    pub cpu: u32,
    /// The task involved, or `-1`.
    pub pid: i64,
    /// Kind-specific payload (e.g. a latency in ns).
    pub arg: u64,
}

// ----------------------------------------------------------------------
// Per-scheduler metrics
// ----------------------------------------------------------------------

/// The per-scheduler metrics handle: atomic counters, gauges, and latency
/// histograms, one slot per `(kind, cpu)`, plus an optional trace sink.
///
/// All recording methods are `&self`, lock-free, and safe to call from any
/// thread; they are no-ops while [`enabled`] is off. Cloneable via `Arc`.
pub struct SchedulerMetrics {
    name: String,
    nr_cpus: usize,
    counters: Box<[AtomicU64]>,
    gauges: Box<[AtomicI64]>,
    histos: Box<[AtomicHistogram]>,
    /// One slot per `(histogram kind, power-of-two tier)`, shared across
    /// cpus — the per-tier worst sample with its task and virtual time.
    exemplars: Box<[ExemplarSlot]>,
    trace: OnceLock<RingBuffer<TraceRecord>>,
}

impl SchedulerMetrics {
    /// Creates a standalone handle (not attached to any registry).
    pub fn standalone(name: impl Into<String>, nr_cpus: usize) -> Arc<SchedulerMetrics> {
        let nr_cpus = nr_cpus.max(1);
        Arc::new(SchedulerMetrics {
            name: name.into(),
            nr_cpus,
            counters: (0..NR_COUNTER_KINDS * nr_cpus).map(|_| AtomicU64::new(0)).collect(),
            gauges: (0..NR_GAUGE_KINDS * nr_cpus).map(|_| AtomicI64::new(0)).collect(),
            histos: (0..NR_HISTO_KINDS * nr_cpus).map(|_| AtomicHistogram::new()).collect(),
            exemplars: (0..NR_HISTO_KINDS * EXEMPLAR_TIERS).map(|_| ExemplarSlot::new()).collect(),
            trace: OnceLock::new(),
        })
    }

    /// The scheduler name this handle reports under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of per-cpu slots.
    pub fn nr_cpus(&self) -> usize {
        self.nr_cpus
    }

    fn slot(&self, cpu: usize) -> usize {
        cpu.min(self.nr_cpus - 1)
    }

    /// Increments counter `kind` on `cpu` by one.
    #[inline]
    pub fn count(&self, kind: EventKind, cpu: usize) {
        self.count_n(kind, cpu, 1);
    }

    /// Increments counter `kind` on `cpu` by `n`.
    #[inline]
    pub fn count_n(&self, kind: EventKind, cpu: usize, n: u64) {
        if !enabled() {
            return;
        }
        if let Some(k) = kind.counter_index() {
            self.counters[k * self.nr_cpus + self.slot(cpu)].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Stores an absolute counter value (used when folding in counts that
    /// are maintained elsewhere, e.g. by [`observe_machine`]).
    pub fn counter_store(&self, kind: EventKind, cpu: usize, v: u64) {
        if !enabled() {
            return;
        }
        if let Some(k) = kind.counter_index() {
            self.counters[k * self.nr_cpus + self.slot(cpu)].store(v, Ordering::Relaxed);
        }
    }

    /// Sets gauge `kind` on `cpu`.
    pub fn gauge_set(&self, kind: EventKind, cpu: usize, v: i64) {
        if !enabled() {
            return;
        }
        if let Some(k) = kind.gauge_index() {
            self.gauges[k * self.nr_cpus + self.slot(cpu)].store(v, Ordering::Relaxed);
        }
    }

    /// Records a latency sample into histogram `kind` on `cpu`.
    #[inline]
    pub fn observe(&self, kind: EventKind, cpu: usize, v: Ns) {
        if !enabled() {
            return;
        }
        if let Some(k) = kind.histo_index() {
            self.histos[k * self.nr_cpus + self.slot(cpu)].record(v.0);
        }
    }

    /// Records a wall-clock duration into histogram `kind` on `cpu`.
    #[inline]
    pub fn observe_duration(&self, kind: EventKind, cpu: usize, d: Duration) {
        self.observe(kind, cpu, Ns(d.as_nanos().min(u64::MAX as u128) as u64));
    }

    /// Like [`observe`](Self::observe), but also updates the exemplar
    /// slot of the sample's power-of-two tier when this sample is the
    /// worst that tier has seen — recording which task, at which virtual
    /// time, produced the bucket maximum.
    #[inline]
    pub fn observe_tagged(&self, kind: EventKind, cpu: usize, v: Ns, pid: i64, at: Ns) {
        if !enabled() {
            return;
        }
        let Some(k) = kind.histo_index() else { return };
        self.histos[k * self.nr_cpus + self.slot(cpu)].record(v.0);
        let slot = &self.exemplars[k * EXEMPLAR_TIERS + exemplar_tier(v.0)];
        if v.0 >= slot.value.load(Ordering::Relaxed) {
            slot.value.store(v.0, Ordering::Relaxed);
            slot.pid.store(pid, Ordering::Relaxed);
            slot.at.store(at.as_nanos(), Ordering::Relaxed);
        }
    }

    /// [`observe_duration`](Self::observe_duration) with an exemplar tag.
    #[inline]
    pub fn observe_duration_tagged(
        &self,
        kind: EventKind,
        cpu: usize,
        d: Duration,
        pid: i64,
        at: Ns,
    ) {
        self.observe_tagged(kind, cpu, Ns(d.as_nanos().min(u64::MAX as u128) as u64), pid, at);
    }

    /// The populated exemplar slots of histogram `kind`, lowest tier
    /// first. Each entry is the worst sample its power-of-two tier has
    /// seen, tagged with the responsible task and virtual time.
    pub fn exemplars(&self, kind: EventKind) -> Vec<Exemplar> {
        let Some(k) = kind.histo_index() else {
            return Vec::new();
        };
        self.exemplars[k * EXEMPLAR_TIERS..(k + 1) * EXEMPLAR_TIERS]
            .iter()
            .filter_map(|s| {
                let pid = s.pid.load(Ordering::Relaxed);
                (pid != EXEMPLAR_EMPTY).then(|| Exemplar {
                    value: Ns(s.value.load(Ordering::Relaxed)),
                    pid,
                    at: Ns(s.at.load(Ordering::Relaxed)),
                })
            })
            .collect()
    }

    /// Trace events dropped because the armed sink's ring was full
    /// (zero when no sink is armed). Surfaced as the
    /// [`EventKind::TraceSinkDrops`] gauge by the health watchdog.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.get().map_or(0, |q| q.dropped())
    }

    /// Arms the structured trace sink with a ring of `capacity` records and
    /// returns the consumer handle. The sink is SPSC: the dispatch thread
    /// produces, the returned handle drains. Arming twice keeps the first
    /// ring and returns a clone of it.
    pub fn arm_trace(&self, capacity: usize) -> RingBuffer<TraceRecord> {
        self.trace
            .get_or_init(|| RingBuffer::with_capacity(capacity))
            .clone()
    }

    /// Emits a structured trace record (dropped silently if no sink is
    /// armed; counted by the ring when the sink is full).
    #[inline]
    pub fn emit(&self, rec: TraceRecord) {
        if !enabled() {
            return;
        }
        if let Some(q) = self.trace.get() {
            let _ = q.push(rec);
        }
    }

    /// Takes a point-in-time snapshot of this scheduler's metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    fn snapshot_into(&self, snap: &mut MetricsSnapshot) {
        for k in 0..NR_COUNTER_KINDS {
            for cpu in 0..self.nr_cpus {
                let v = self.counters[k * self.nr_cpus + cpu].load(Ordering::Relaxed);
                if v != 0 {
                    snap.counters.insert(self.key(EventKind::counter_kind(k), cpu), v);
                }
            }
        }
        for k in 0..NR_GAUGE_KINDS {
            for cpu in 0..self.nr_cpus {
                let v = self.gauges[k * self.nr_cpus + cpu].load(Ordering::Relaxed);
                if v != 0 {
                    snap.gauges.insert(self.key(EventKind::gauge_kind(k), cpu), v);
                }
            }
        }
        for k in 0..NR_HISTO_KINDS {
            for cpu in 0..self.nr_cpus {
                let h = self.histos[k * self.nr_cpus + cpu].snapshot();
                if h.count() > 0 {
                    snap.histograms.insert(self.key(EventKind::histo_kind(k), cpu), h);
                }
            }
        }
    }

    /// Counter `kind` summed across every cpu slot — a handful of relaxed
    /// loads, no allocation. The cheap read path for periodic pollers
    /// (the health watchdog) that would otherwise pay for a full
    /// [`snapshot`](Self::snapshot) per sample.
    pub fn counter_sum(&self, kind: EventKind) -> u64 {
        let Some(k) = kind.counter_index() else {
            return 0;
        };
        (0..self.nr_cpus)
            .map(|cpu| self.counters[k * self.nr_cpus + cpu].load(Ordering::Relaxed))
            .sum()
    }

    /// Total sample count of histogram `kind` across every cpu slot —
    /// `nr_cpus` relaxed loads. The guard that lets a poller skip bucket
    /// work entirely when nothing new has landed since its last read.
    pub fn histogram_count(&self, kind: EventKind) -> u64 {
        let Some(k) = kind.histo_index() else {
            return 0;
        };
        (0..self.nr_cpus)
            .map(|cpu| self.histos[k * self.nr_cpus + cpu].count.load(Ordering::Relaxed))
            .sum()
    }

    /// Histogram `kind` merged across every cpu slot, accumulated
    /// straight from the atomics into one snapshot (a single allocation).
    /// Cpus with no samples cost one atomic load each.
    pub fn histogram_sum(&self, kind: EventKind) -> Histogram {
        let mut out = Histogram::new();
        if let Some(k) = kind.histo_index() {
            for cpu in 0..self.nr_cpus {
                let h = &self.histos[k * self.nr_cpus + cpu];
                if h.count.load(Ordering::Relaxed) != 0 {
                    h.merge_into(&mut out);
                }
            }
        }
        out
    }

    fn key(&self, kind: EventKind, cpu: usize) -> MetricKey {
        MetricKey {
            scheduler: self.name.clone(),
            cpu: cpu as u32,
            kind,
        }
    }
}

// ----------------------------------------------------------------------
// Staged counters
// ----------------------------------------------------------------------

/// A single-threaded staging area in front of a [`SchedulerMetrics`]
/// handle's counters.
///
/// Atomic increments on every dispatch call are measurable against a hot
/// path that runs in nanoseconds, so owners that are single-threaded by
/// construction (the dispatch layer lives behind `Rc`/`RefCell`) stage
/// counts in plain [`Cell`]s — an increment costs a load and a store —
/// and publish the totals with [`flush`](StagedCounters::flush) at read
/// points. Totals are exact; only their visibility is deferred.
pub struct StagedCounters {
    cells: Box<[Cell<u64>]>,
    nr_cpus: usize,
}

impl StagedCounters {
    /// Creates a staging area shaped like a handle with `nr_cpus` slots.
    pub fn new(nr_cpus: usize) -> StagedCounters {
        let nr_cpus = nr_cpus.max(1);
        StagedCounters {
            cells: (0..NR_COUNTER_KINDS * nr_cpus).map(|_| Cell::new(0)).collect(),
            nr_cpus,
        }
    }

    /// Stages one `kind` event on `cpu` and returns how many were already
    /// staged in that slot since the last flush — callers use the sequence
    /// to sample expensive extras (latency timers) every Nth event.
    /// Returns `None` when recording is disabled or `kind` is not a
    /// counter, recording nothing.
    #[inline]
    pub fn add(&self, kind: EventKind, cpu: usize) -> Option<u64> {
        if !enabled() {
            return None;
        }
        let k = kind.counter_index()?;
        let cell = &self.cells[k * self.nr_cpus + cpu.min(self.nr_cpus - 1)];
        let prior = cell.get();
        cell.set(prior + 1);
        Some(prior)
    }

    /// Publishes all staged counts into `target` and clears the stage.
    pub fn flush(&self, target: &SchedulerMetrics) {
        for k in 0..NR_COUNTER_KINDS {
            for cpu in 0..self.nr_cpus {
                let v = self.cells[k * self.nr_cpus + cpu].take();
                if v != 0 {
                    target.count_n(EventKind::counter_kind(k), cpu, v);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

/// A collection of [`SchedulerMetrics`] handles that can be snapshotted
/// together. Registration takes the only lock in the layer; recording
/// through the returned handles never does.
#[derive(Default)]
pub struct MetricsRegistry {
    scheds: Mutex<Vec<Arc<SchedulerMetrics>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Creates and registers a handle for scheduler `name`.
    pub fn register(&self, name: impl Into<String>, nr_cpus: usize) -> Arc<SchedulerMetrics> {
        let m = SchedulerMetrics::standalone(name, nr_cpus);
        self.attach(m.clone());
        m
    }

    /// Registers an existing handle (e.g. one owned by an
    /// [`crate::dispatch::EnokiClass`]).
    pub fn attach(&self, m: Arc<SchedulerMetrics>) {
        self.scheds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(m);
    }

    /// The registered handles.
    pub fn schedulers(&self) -> Vec<Arc<SchedulerMetrics>> {
        self.scheds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Snapshots every registered scheduler into one keyed view.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for m in self.schedulers() {
            m.snapshot_into(&mut snap);
        }
        snap
    }
}

/// The process-global registry. The lock shims report here (under the
/// `locks` scheduler name); anything else must be attached explicitly.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// The global handle the [`crate::sync`] lock shims record into
/// (scheduler name `locks`, one aggregate cpu slot).
pub fn lock_metrics() -> &'static Arc<SchedulerMetrics> {
    static LOCKS: OnceLock<Arc<SchedulerMetrics>> = OnceLock::new();
    LOCKS.get_or_init(|| global().register("locks", 1))
}

// ----------------------------------------------------------------------
// Snapshots
// ----------------------------------------------------------------------

/// Identifies one metric slot: which scheduler, which cpu, which kind.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// The reporting scheduler's name.
    pub scheduler: String,
    /// The cpu slot.
    pub cpu: u32,
    /// The metric kind.
    pub kind: EventKind,
}

/// A point-in-time copy of a registry (or single scheduler): counters,
/// gauges, and histograms keyed by `(scheduler, cpu, kind)`. Zero-valued
/// slots are omitted, so accessors default to zero / empty.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Monotonic event counts.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Point-in-time levels.
    pub gauges: BTreeMap<MetricKey, i64>,
    /// Latency distributions.
    pub histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsSnapshot {
    /// The counter value for `(scheduler, cpu, kind)`, zero if absent.
    pub fn counter(&self, scheduler: &str, cpu: usize, kind: EventKind) -> u64 {
        self.counters
            .get(&MetricKey {
                scheduler: scheduler.to_string(),
                cpu: cpu as u32,
                kind,
            })
            .copied()
            .unwrap_or(0)
    }

    /// The counter summed across every cpu of `scheduler`.
    pub fn counter_total(&self, scheduler: &str, kind: EventKind) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.scheduler == scheduler && k.kind == kind)
            .map(|(_, v)| v)
            .sum()
    }

    /// The gauge value for `(scheduler, cpu, kind)`, zero if absent.
    pub fn gauge(&self, scheduler: &str, cpu: usize, kind: EventKind) -> i64 {
        self.gauges
            .get(&MetricKey {
                scheduler: scheduler.to_string(),
                cpu: cpu as u32,
                kind,
            })
            .copied()
            .unwrap_or(0)
    }

    /// The histogram for `(scheduler, cpu, kind)`, if any samples landed.
    pub fn histogram(&self, scheduler: &str, cpu: usize, kind: EventKind) -> Option<&Histogram> {
        self.histograms.get(&MetricKey {
            scheduler: scheduler.to_string(),
            cpu: cpu as u32,
            kind,
        })
    }

    /// The histogram for `(scheduler, kind)` merged across every cpu, or
    /// `None` if no cpu recorded a sample.
    pub fn histogram_merged(&self, scheduler: &str, kind: EventKind) -> Option<Histogram> {
        let mut acc: Option<Histogram> = None;
        for (k, h) in &self.histograms {
            if k.scheduler == scheduler && k.kind == kind {
                acc.get_or_insert_with(Histogram::new).merge(h);
            }
        }
        acc
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another snapshot into this one: counters and gauges add,
    /// histograms merge. This is the cross-shard aggregation step for
    /// cluster runs — each shard snapshots its own machines' classes,
    /// and the shards' snapshots absorb into one fleet-wide view.
    /// Deterministic regardless of absorb order (all operations
    /// commute).
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .or_default()
                .merge(h);
        }
    }

    /// The change from `earlier` to `self`: counters and histograms
    /// subtract (saturating — a slot reset between snapshots reads as
    /// zero, not underflow); gauges keep `self`'s point-in-time values.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot {
            gauges: self.gauges.clone(),
            ..MetricsSnapshot::default()
        };
        for (k, v) in &self.counters {
            let d = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
            if d != 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, h) in &self.histograms {
            let d = match earlier.histograms.get(k) {
                Some(e) => h.saturating_sub(e),
                None => h.clone(),
            };
            if d.count() > 0 {
                out.histograms.insert(k.clone(), d);
            }
        }
        out
    }

    /// Renders the snapshot as a plain-text summary: per-scheduler counter
    /// totals, gauges, and merged-histogram quantiles.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut scheds: Vec<&str> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.scheduler.as_str())
            .collect();
        scheds.sort_unstable();
        scheds.dedup();
        for sched in scheds {
            let _ = writeln!(out, "[{sched}]");
            let mut kinds: Vec<EventKind> = self
                .counters
                .keys()
                .filter(|k| k.scheduler == sched)
                .map(|k| k.kind)
                .collect();
            kinds.sort_unstable();
            kinds.dedup();
            for kind in kinds {
                let _ = writeln!(
                    out,
                    "  {:<20} {}",
                    kind.name(),
                    self.counter_total(sched, kind)
                );
            }
            for (k, v) in self.gauges.iter().filter(|(k, _)| k.scheduler == sched) {
                let _ = writeln!(out, "  {:<20} cpu{:<3} {v}", k.kind.name(), k.cpu);
            }
            let mut hkinds: Vec<EventKind> = self
                .histograms
                .keys()
                .filter(|k| k.scheduler == sched)
                .map(|k| k.kind)
                .collect();
            hkinds.sort_unstable();
            hkinds.dedup();
            for kind in hkinds {
                if let Some(h) = self.histogram_merged(sched, kind) {
                    let _ = writeln!(
                        out,
                        "  {:<20} n={} p50={}ns p99={}ns max={}ns",
                        kind.name(),
                        h.count(),
                        h.quantile(0.5).map_or(0, |v| v.0),
                        h.quantile(0.99).map_or(0, |v| v.0),
                        h.max().0,
                    );
                }
            }
        }
        out
    }
}

// ----------------------------------------------------------------------
// Sim bridge
// ----------------------------------------------------------------------

/// Folds a simulated machine's per-cpu scheduling state into `metrics`:
/// context-switch and migration counts (stored absolute), current
/// run-queue depth, and cumulative idle time. Call it whenever a snapshot
/// should reflect the sim (e.g. right before [`SchedulerMetrics::snapshot`]).
pub fn observe_machine(m: &Machine, metrics: &SchedulerMetrics) {
    let nr = m.topology().nr_cpus().min(metrics.nr_cpus());
    let stats = m.stats();
    for cpu in 0..nr {
        metrics.counter_store(
            EventKind::ContextSwitches,
            cpu,
            stats.cpu_context_switches[cpu],
        );
        metrics.counter_store(EventKind::Migrations, cpu, stats.cpu_migrations[cpu]);
        metrics.gauge_set(EventKind::RunqDepth, cpu, m.runqueue_depth(cpu) as i64);
        metrics.gauge_set(EventKind::IdleTime, cpu, m.idle_time(cpu).0 as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_per_cpu_and_total() {
        let m = SchedulerMetrics::standalone("t", 4);
        m.count(EventKind::Picks, 0);
        m.count_n(EventKind::Picks, 3, 5);
        let s = m.snapshot();
        assert_eq!(s.counter("t", 0, EventKind::Picks), 1);
        assert_eq!(s.counter("t", 3, EventKind::Picks), 5);
        assert_eq!(s.counter("t", 1, EventKind::Picks), 0);
        assert_eq!(s.counter_total("t", EventKind::Picks), 6);
    }

    #[test]
    fn gauges_hold_point_in_time_values() {
        let m = SchedulerMetrics::standalone("g", 2);
        m.gauge_set(EventKind::RunqDepth, 1, 7);
        m.gauge_set(EventKind::RunqDepth, 1, 3);
        assert_eq!(m.snapshot().gauge("g", 1, EventKind::RunqDepth), 3);
    }

    #[test]
    fn out_of_range_cpu_clamps_to_last_slot() {
        let m = SchedulerMetrics::standalone("c", 2);
        m.count(EventKind::Picks, 99);
        assert_eq!(m.snapshot().counter("c", 1, EventKind::Picks), 1);
    }

    #[test]
    fn mismatched_kind_class_is_ignored() {
        let m = SchedulerMetrics::standalone("x", 1);
        m.count(EventKind::PickLatency, 0); // histogram kind as counter
        m.gauge_set(EventKind::Picks, 0, 9); // counter kind as gauge
        m.observe(EventKind::Picks, 0, Ns(5)); // counter kind as histogram
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_histograms() {
        let m = SchedulerMetrics::standalone("d", 2);
        m.count_n(EventKind::Picks, 0, 10);
        m.observe(EventKind::PickLatency, 0, Ns(100));
        let before = m.snapshot();
        m.count_n(EventKind::Picks, 0, 7);
        m.observe(EventKind::PickLatency, 0, Ns(2000));
        m.gauge_set(EventKind::RunqDepth, 1, 4);
        let after = m.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counter("d", 0, EventKind::Picks), 7);
        let h = d.histogram("d", 0, EventKind::PickLatency).unwrap();
        assert_eq!(h.count(), 1);
        // Only the window's sample survives the subtraction.
        assert!(h.quantile(0.5).unwrap().0 >= 1800, "{h:?}");
        assert_eq!(d.gauge("d", 1, EventKind::RunqDepth), 4);
    }

    #[test]
    fn absorb_aggregates_across_shards_commutatively() {
        let a = SchedulerMetrics::standalone("wfq", 2);
        a.count_n(EventKind::Picks, 0, 10);
        a.observe(EventKind::PickLatency, 0, Ns(100));
        a.gauge_set(EventKind::RunqDepth, 1, 3);
        let b = SchedulerMetrics::standalone("wfq", 2);
        b.count_n(EventKind::Picks, 0, 5);
        b.observe(EventKind::PickLatency, 0, Ns(900));
        b.gauge_set(EventKind::RunqDepth, 1, 2);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.absorb(&sb);
        let mut ba = sb.clone();
        ba.absorb(&sa);
        assert_eq!(ab.counter("wfq", 0, EventKind::Picks), 15);
        assert_eq!(ab.gauge("wfq", 1, EventKind::RunqDepth), 5);
        let h = ab.histogram("wfq", 0, EventKind::PickLatency).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.gauges, ba.gauges);
        assert_eq!(
            ab.histograms.keys().collect::<Vec<_>>(),
            ba.histograms.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn diff_of_identical_snapshots_is_empty() {
        let m = SchedulerMetrics::standalone("e", 1);
        m.count(EventKind::Picks, 0);
        m.observe(EventKind::LockHold, 0, Ns(50));
        let a = m.snapshot();
        let b = m.snapshot();
        let d = b.diff(&a);
        assert!(d.counters.is_empty());
        assert!(d.histograms.is_empty());
    }

    #[test]
    fn bucket_classification_is_consistent_at_power_of_two_edges() {
        // A sample exactly at a bucket boundary belongs to the bucket it
        // indexes into, and that bucket's bounds must bracket it:
        // lower_bound_of(index_of(v)) <= v < lower_bound_of(index_of(v)+1).
        for k in 1..40u32 {
            let edge = 1u64 << k;
            for v in [edge - 1, edge, edge + 1] {
                let idx = Histogram::index_of(v);
                let lo = Histogram::lower_bound_of(idx);
                let hi = Histogram::lower_bound_of(idx + 1);
                if idx < Histogram::NR_BUCKETS - 1 {
                    assert!(lo <= v && v < hi, "v={v} idx={idx} lo={lo} hi={hi}");
                } else {
                    assert!(lo <= v, "v={v} idx={idx} lo={lo}");
                }
            }
        }
    }

    #[test]
    fn window_max_is_inclusive_at_power_of_two_values() {
        // Regression: a window whose largest sample is one below a
        // power-of-two boundary (e.g. 31) used to report the *exclusive*
        // bucket bound (32) — a power-of-two value that was never
        // recorded and that classifies into the next bucket — as its max.
        let m = SchedulerMetrics::standalone("w", 1);
        let before = m.snapshot();
        m.observe(EventKind::PickLatency, 0, Ns(31));
        let after = m.snapshot();

        let hb = before.histogram("w", 0, EventKind::PickLatency);
        let ha = after.histogram("w", 0, EventKind::PickLatency).unwrap();
        let empty = Histogram::new();
        let window = ha.saturating_sub(hb.unwrap_or(&empty));
        assert_eq!(window.count(), 1);
        let max = window.max().0;
        assert!(max <= 31, "window max {max} overstates the sample 31");
        let idx_of_max = Histogram::index_of(max);
        assert_eq!(
            idx_of_max,
            Histogram::index_of(31),
            "window max {max} classifies into a bucket no sample landed in"
        );

        let delta = ha.delta_stats(hb.unwrap_or(&empty));
        assert_eq!(delta.count, 1);
        assert!(delta.max.0 <= 31, "delta max {} overstates the sample", delta.max.0);
        assert_eq!(Histogram::index_of(delta.max.0), Histogram::index_of(31));
    }

    #[test]
    fn histogram_merge_across_cpus() {
        let m = SchedulerMetrics::standalone("h", 4);
        for cpu in 0..4 {
            for i in 1..=100u64 {
                m.observe(EventKind::PickLatency, cpu, Ns(i * 1000));
            }
        }
        let s = m.snapshot();
        let merged = s.histogram_merged("h", EventKind::PickLatency).unwrap();
        assert_eq!(merged.count(), 400);
        let per_cpu = s.histogram("h", 2, EventKind::PickLatency).unwrap();
        assert_eq!(per_cpu.count(), 100);
        // The merged distribution matches each cpu's (same samples), so
        // quantiles agree.
        assert_eq!(merged.quantile(0.5), per_cpu.quantile(0.5));
        assert_eq!(merged.max(), per_cpu.max());
        assert_eq!(merged.mean(), per_cpu.mean());
    }

    #[test]
    fn multithreaded_updates_are_exact() {
        let m = SchedulerMetrics::standalone("mt", 4);
        let threads = 8;
        let per_thread = 50_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let m = &m;
                s.spawn(move || {
                    for i in 0..per_thread {
                        m.count(EventKind::Enqueues, t % 4);
                        m.observe(EventKind::LockHold, t % 4, Ns(i % 1000));
                    }
                });
            }
        });
        let snap = m.snapshot();
        // No lost updates: every increment from every thread is visible.
        assert_eq!(
            snap.counter_total("mt", EventKind::Enqueues),
            threads as u64 * per_thread
        );
        let h = snap.histogram_merged("mt", EventKind::LockHold).unwrap();
        assert_eq!(h.count(), threads as u64 * per_thread);
    }

    #[test]
    fn trace_sink_carries_records_and_counts_drops() {
        let m = SchedulerMetrics::standalone("tr", 1);
        let drain = m.arm_trace(4);
        for i in 0..6u64 {
            m.emit(TraceRecord {
                ts: i,
                kind: EventKind::Picks,
                cpu: 0,
                pid: i as i64,
                arg: 0,
            });
        }
        // Ring holds 4; two pushes hit a full ring and were dropped.
        assert_eq!(drain.len(), 4);
        assert_eq!(drain.dropped(), 2);
        assert_eq!(drain.pop().unwrap().ts, 0);
        // Re-arming returns the same ring.
        let again = m.arm_trace(64);
        assert_eq!(again.capacity(), 4);
    }

    #[test]
    fn registry_snapshot_spans_schedulers() {
        let r = MetricsRegistry::new();
        let a = r.register("alpha", 1);
        let b = r.register("beta", 1);
        a.count(EventKind::Picks, 0);
        b.count_n(EventKind::Picks, 0, 2);
        let s = r.snapshot();
        assert_eq!(s.counter("alpha", 0, EventKind::Picks), 1);
        assert_eq!(s.counter("beta", 0, EventKind::Picks), 2);
        let text = s.to_text();
        assert!(text.contains("[alpha]") && text.contains("[beta]"), "{text}");
        assert!(text.contains("picks"), "{text}");
    }

    #[test]
    fn kind_names_are_stable_and_distinct() {
        let kinds = [
            EventKind::DispatchCalls,
            EventKind::Picks,
            EventKind::IdlePicks,
            EventKind::PntErrs,
            EventKind::TokenMismatches,
            EventKind::HintsDelivered,
            EventKind::HintsDropped,
            EventKind::Upgrades,
            EventKind::LockAcquires,
            EventKind::ContextSwitches,
            EventKind::Migrations,
            EventKind::Enqueues,
            EventKind::Custom(0),
            EventKind::RunqDepth,
            EventKind::QueueDrops,
            EventKind::IdleTime,
            EventKind::RecordDrops,
            EventKind::TraceSinkDrops,
            EventKind::PickLatency,
            EventKind::DeliveryLatency,
            EventKind::UpgradeBlackout,
            EventKind::LockHold,
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn index_round_trips() {
        for i in 0..NR_COUNTER_KINDS {
            assert_eq!(EventKind::counter_kind(i).counter_index(), Some(i));
        }
        for i in 0..NR_GAUGE_KINDS {
            assert_eq!(EventKind::gauge_kind(i).gauge_index(), Some(i));
        }
        for i in 0..NR_HISTO_KINDS {
            assert_eq!(EventKind::histo_kind(i).histo_index(), Some(i));
        }
    }

    #[test]
    fn count_over_classifies_against_thresholds() {
        let m = SchedulerMetrics::standalone("s", 2);
        for v in [1u64, 2, 100, 5_000, 20_000, 80_000] {
            m.observe(EventKind::PickLatency, 0, Ns(v));
        }
        let snap = m.histogram_sum(EventKind::PickLatency);
        // Threshold 0: every nonzero sample is bad (buckets 0..16 are
        // exact single-value buckets).
        assert_eq!(snap.count_over(Ns::ZERO), 6);
        // Small thresholds are exact too.
        assert_eq!(snap.count_over(Ns(2)), 4);
        // Above the tracked max: nothing is bad, regardless of buckets.
        assert_eq!(snap.count_over(Ns(80_000)), 0);
        assert_eq!(snap.count_over(Ns(1_000_000)), 0);
        // Empty snapshot: no division, no samples.
        assert_eq!(Histogram::new().count_over(Ns::ZERO), 0);
    }

    #[test]
    fn exemplars_track_per_tier_maxima_with_pid_and_vt() {
        let m = SchedulerMetrics::standalone("s", 2);
        assert!(m.exemplars(EventKind::PickLatency).is_empty());
        // Two samples in the same power-of-two tier: the worse one wins.
        m.observe_tagged(EventKind::PickLatency, 0, Ns(1_100), 7, Ns(10));
        m.observe_tagged(EventKind::PickLatency, 1, Ns(1_900), 9, Ns(20));
        // A different tier keeps its own exemplar.
        m.observe_tagged(EventKind::PickLatency, 0, Ns(70_000), 3, Ns(30));
        let ex = m.exemplars(EventKind::PickLatency);
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0], Exemplar { value: Ns(1_900), pid: 9, at: Ns(20) });
        assert_eq!(ex[1], Exemplar { value: Ns(70_000), pid: 3, at: Ns(30) });
        // Tagged observes land in the histogram like plain observes.
        assert_eq!(m.histogram_count(EventKind::PickLatency), 3);
        // Non-histogram kinds have no exemplars.
        assert!(m.exemplars(EventKind::Picks).is_empty());
    }
}
