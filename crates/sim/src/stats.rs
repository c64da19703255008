//! Measurement utilities: latency histograms and run summaries.

use crate::time::Ns;

const SUB_BUCKET_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 16 linear sub-buckets per power of two
const MAX_EXP: usize = 48; // covers up to ~78 hours in ns

/// A log-linear latency histogram (HdrHistogram-style).
///
/// Values are bucketed by power of two with 16 linear sub-buckets per
/// decade-of-two, giving ~6% relative error — plenty for p50/p99/p999
/// scheduling-latency reporting. This is the workspace's one bucket
/// layout: `enoki_core::metrics` keeps atomic buckets in the same layout
/// (through [`index_of`](Self::index_of) and [`merge_raw`](Self::merge_raw))
/// and snapshots into this type.
///
/// # Examples
///
/// ```
/// use enoki_sim::stats::Histogram;
/// use enoki_sim::time::Ns;
/// let mut h = Histogram::new();
/// for us in 1..=100u64 {
///     h.record(Ns::from_us(us));
/// }
/// let p50 = h.quantile(0.50).unwrap().as_us_f64();
/// assert!((45.0..=56.0).contains(&p50));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: Ns,
    min: Ns,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Number of buckets in the layout.
    pub const NR_BUCKETS: usize = MAX_EXP * SUB_BUCKETS;

    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; Self::NR_BUCKETS],
            count: 0,
            sum: 0,
            max: Ns::ZERO,
            min: Ns::MAX,
        }
    }

    /// The bucket that holds value `v`.
    #[inline]
    pub fn index_of(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BUCKET_BITS;
        let sub = ((v >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
        let bucket = (exp - SUB_BUCKET_BITS + 1) as usize;
        let idx = bucket * SUB_BUCKETS + sub;
        idx.min(Self::NR_BUCKETS - 1)
    }

    /// The smallest value bucket `idx` holds; bucket `idx + 1`'s lower
    /// bound is this bucket's exclusive upper bound.
    #[inline]
    pub fn lower_bound_of(idx: usize) -> u64 {
        let bucket = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if bucket == 0 {
            return sub;
        }
        let shift = (bucket - 1) as u32;
        ((SUB_BUCKETS as u64) + sub) << shift
    }

    /// Records one sample.
    pub fn record(&mut self, v: Ns) {
        self.buckets[Self::index_of(v.0)] += 1;
        self.count += 1;
        self.sum += v.0 as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples strictly above `threshold` — the "bad pick" classifier the
    /// SLO burn-rate engine runs against cumulative snapshots. Counted
    /// from the first bucket whose *lower bound* exceeds the threshold,
    /// so boundary samples within a bucket's ~6% width classify as good;
    /// the tracked exact `max` reclaims the top end (a threshold at or
    /// above `max` is never exceeded).
    pub fn count_over(&self, threshold: Ns) -> u64 {
        if self.count == 0 || self.max <= threshold {
            return 0;
        }
        let first_bad = Self::index_of(threshold.0) + 1;
        self.buckets[first_bad..].iter().sum()
    }

    /// The value at quantile `q` in `[0, 1]`, or `None` if empty.
    ///
    /// The extremes are exact: `q = 0.0` returns the tracked minimum and
    /// `q = 1.0` the tracked maximum (interior quantiles carry the ~6%
    /// bucketing error). In particular a single-sample histogram returns
    /// that sample for every `q`.
    pub fn quantile(&self, q: f64) -> Option<Ns> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        // The top quantile used to come back as the highest occupied
        // bucket's *lower bound* — up to one bucket width below the true
        // maximum. The max is tracked exactly; return it.
        if target >= self.count {
            return Some(self.max);
        }
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let v = Self::lower_bound_of(idx);
                return Some(Ns(v.min(self.max.0)).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Arithmetic mean of the samples, or `None` if empty.
    pub fn mean(&self) -> Option<Ns> {
        if self.count == 0 {
            None
        } else {
            Some(Ns((self.sum / self.count as u128) as u64))
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Ns {
        self.max
    }

    /// Smallest recorded sample (`Ns::MAX` when empty).
    pub fn min(&self) -> Ns {
        self.min
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.merge_raw(other.buckets.iter().copied(), other.count, other.sum, other.min, other.max);
    }

    /// Merges samples held elsewhere in this layout: `buckets` in index
    /// order (at most [`NR_BUCKETS`](Self::NR_BUCKETS) of them) plus their
    /// count, sum and extremes. This is how a lock-free mirror, such as
    /// `enoki_core::metrics`' atomic histogram, folds into a plain one.
    pub fn merge_raw(
        &mut self,
        buckets: impl IntoIterator<Item = u64>,
        count: u64,
        sum: u128,
        min: Ns,
        max: Ns,
    ) {
        for (a, b) in self.buckets.iter_mut().zip(buckets) {
            *a += b;
        }
        self.count += count;
        self.sum += sum;
        self.max = self.max.max(max);
        self.min = self.min.min(min);
    }

    /// Bucket-wise difference `self - earlier` for windowed measurement.
    ///
    /// Counts and sums subtract exactly; `min`/`max` cannot be recovered
    /// per-window from cumulative extremes, so they are re-derived from the
    /// surviving buckets' bounds (same ~6% bucketing error as quantiles).
    pub fn saturating_sub(&self, earlier: &Histogram) -> Histogram {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let first = buckets.iter().position(|&c| c > 0);
        let last = buckets.iter().rposition(|&c| c > 0);
        Histogram {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: first.map_or(Ns::MAX, |i| Ns(Self::lower_bound_of(i))),
            // The next bucket's lower bound is an *exclusive* bound: a
            // sample exactly at a power-of-two boundary is classified
            // into that next bucket, so the largest value bucket `i` can
            // hold is one below it.
            max: last.map_or(Ns::ZERO, |i| Ns(Self::lower_bound_of(i + 1) - 1)),
            buckets,
        }
    }

    /// Summarizes the window `self - earlier` (both cumulative) without
    /// materializing it: count, bucket-bound max, and p50/p99 in one pass
    /// over the buckets, no allocation. This is the read path for
    /// periodic monitors; quantiles and max carry the same ~6% bucketing
    /// error as [`saturating_sub`](Self::saturating_sub).
    pub fn delta_stats(&self, earlier: &Histogram) -> HistogramDelta {
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 {
            return HistogramDelta::empty();
        }
        let t50 = ((0.5 * count as f64).ceil() as u64).max(1);
        let t99 = ((0.99 * count as f64).ceil() as u64).max(1);
        let (mut p50, mut p99) = (None, None);
        let mut max = Ns(0);
        let mut seen = 0u64;
        for (idx, (a, b)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            let wc = a.saturating_sub(*b);
            if wc == 0 {
                continue;
            }
            seen += wc;
            if p50.is_none() && seen >= t50 {
                p50 = Some(Ns(Self::lower_bound_of(idx)));
            }
            if p99.is_none() && seen >= t99 {
                p99 = Some(Ns(Self::lower_bound_of(idx)));
            }
            // Inclusive bucket maximum — see `saturating_sub` on why the
            // next lower bound alone would overstate boundary samples.
            max = Ns(Self::lower_bound_of(idx + 1) - 1);
        }
        HistogramDelta { count, max, p50, p99 }
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.max = Ns::ZERO;
        self.min = Ns::MAX;
    }
}

impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

/// One-pass summary of a histogram window — see
/// [`Histogram::delta_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramDelta {
    /// Samples that landed in the window.
    pub count: u64,
    /// Inclusive upper bucket bound of the largest windowed sample (zero
    /// when the window is empty).
    pub max: Ns,
    /// Median of the windowed samples, if any landed.
    pub p50: Option<Ns>,
    /// 99th percentile of the windowed samples, if any landed.
    pub p99: Option<Ns>,
}

impl HistogramDelta {
    /// The summary of an empty window.
    pub fn empty() -> HistogramDelta {
        HistogramDelta { count: 0, max: Ns(0), p50: None, p99: None }
    }
}

/// An exponentially weighted moving average over `u64` samples.
///
/// Integer-only fixed-point arithmetic (8 fractional bits, smoothing
/// factor `1/2^shift`), so updates are bit-exact across runs — safe to
/// use inside schedulers that must replay deterministically.
///
/// # Examples
///
/// ```
/// use enoki_sim::stats::Ewma;
/// let mut e = Ewma::new(2); // alpha = 1/4
/// e.observe(1000);
/// assert_eq!(e.get(), Some(1000));
/// e.observe(2000);
/// assert_eq!(e.get(), Some(1250));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    scaled: u64,
    shift: u32,
    primed: bool,
}

const EWMA_FRAC_BITS: u32 = 8;

impl Ewma {
    /// Creates an average with smoothing factor `1/2^shift`.
    ///
    /// `shift = 0` tracks the last sample verbatim; larger shifts weight
    /// history more heavily (`shift = 3` is the classic 1/8 of rto_srtt
    /// fame).
    pub fn new(shift: u32) -> Ewma {
        Ewma {
            scaled: 0,
            shift: shift.min(32),
            primed: false,
        }
    }

    /// Folds one sample in. The first sample seeds the average exactly.
    pub fn observe(&mut self, v: u64) {
        let s = v << EWMA_FRAC_BITS;
        if !self.primed {
            self.scaled = s;
            self.primed = true;
        } else {
            // new = old + (sample - old) / 2^shift, in fixed point.
            self.scaled = self.scaled - (self.scaled >> self.shift) + (s >> self.shift);
        }
    }

    /// Current estimate, or `None` before the first sample.
    pub fn get(&self) -> Option<u64> {
        self.primed.then_some(self.scaled >> EWMA_FRAC_BITS)
    }

    /// Current estimate, or `default` before the first sample.
    pub fn value_or(&self, default: u64) -> u64 {
        self.get().unwrap_or(default)
    }

    /// Whether at least one sample has been observed.
    pub fn primed(&self) -> bool {
        self.primed
    }
}

/// Aggregate counters for a completed simulation run.
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// Total context switches performed.
    pub nr_context_switches: u64,
    /// Total task migrations between cpus.
    pub nr_migrations: u64,
    /// Total scheduler-class invocations (per-call overhead accounting).
    pub nr_class_calls: u64,
    /// Total reschedule IPIs sent.
    pub nr_ipis: u64,
    /// Total timer ticks handled.
    pub nr_ticks: u64,
    /// Picks that found no task (idle entries).
    pub nr_idle_picks: u64,
    /// Picks rejected because the chosen task was not runnable on the cpu.
    pub nr_pick_rejects: u64,
    /// External (cross-machine) events delivered via
    /// [`crate::machine::Machine::inject_external`] — remote IPC kicks in
    /// a cluster run.
    pub nr_externals: u64,
    /// Per-cpu busy time (task execution only).
    pub cpu_busy: Vec<Ns>,
    /// Per-cpu context-switch counts (sums to `nr_context_switches`).
    pub cpu_context_switches: Vec<u64>,
    /// Per-cpu migration counts, attributed to the destination cpu (sums
    /// to `nr_migrations`).
    pub cpu_migrations: Vec<u64>,
    /// Per-cpu accumulated idle time (completed idle periods only; see
    /// [`crate::machine::Machine::idle_time`] for the live value).
    pub cpu_idle: Vec<Ns>,
    /// Per-cpu time spent in kernel scheduling paths.
    pub cpu_sched_overhead: Vec<Ns>,
    /// Per-class cpu time (indexed by class registration order).
    pub class_busy: Vec<Ns>,
    /// Wakeup-to-run latency across all tasks.
    pub wakeup_latency: Histogram,
    /// Wakeup-to-run latency grouped by task tag.
    pub wakeup_by_tag: std::collections::HashMap<u32, Histogram>,
}

impl MachineStats {
    /// Creates stats sized for `nr_cpus` cpus.
    pub fn new(nr_cpus: usize) -> MachineStats {
        MachineStats {
            cpu_busy: vec![Ns::ZERO; nr_cpus],
            cpu_context_switches: vec![0; nr_cpus],
            cpu_migrations: vec![0; nr_cpus],
            cpu_idle: vec![Ns::ZERO; nr_cpus],
            cpu_sched_overhead: vec![Ns::ZERO; nr_cpus],
            wakeup_latency: Histogram::new(),
            ..MachineStats::default()
        }
    }

    /// Folds another machine's statistics into this one: counters add,
    /// histograms merge, per-cpu vectors add element-wise (machines in a
    /// fleet share a shape, so cpu `k` aggregates across machines).
    /// Vectors of unequal length are summed over the shared prefix and
    /// extended with the longer machine's tail, so heterogeneous fleets
    /// still aggregate without losing samples.
    ///
    /// This is the cross-shard metrics aggregation step of a cluster run:
    /// each shard merges its machines locally, and the coordinator merges
    /// the per-shard results in shard order — addition is commutative, so
    /// the merged totals are identical for any host thread count.
    pub fn merge(&mut self, other: &MachineStats) {
        fn merge_vec<T: Copy + std::ops::AddAssign>(a: &mut Vec<T>, b: &[T]) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += *y;
            }
            if b.len() > a.len() {
                a.extend_from_slice(&b[a.len()..]);
            }
        }
        self.nr_context_switches += other.nr_context_switches;
        self.nr_migrations += other.nr_migrations;
        self.nr_class_calls += other.nr_class_calls;
        self.nr_ipis += other.nr_ipis;
        self.nr_ticks += other.nr_ticks;
        self.nr_idle_picks += other.nr_idle_picks;
        self.nr_pick_rejects += other.nr_pick_rejects;
        self.nr_externals += other.nr_externals;
        merge_vec(&mut self.cpu_busy, &other.cpu_busy);
        merge_vec(&mut self.cpu_context_switches, &other.cpu_context_switches);
        merge_vec(&mut self.cpu_migrations, &other.cpu_migrations);
        merge_vec(&mut self.cpu_idle, &other.cpu_idle);
        merge_vec(&mut self.cpu_sched_overhead, &other.cpu_sched_overhead);
        merge_vec(&mut self.class_busy, &other.class_busy);
        self.wakeup_latency.merge(&other.wakeup_latency);
        for (tag, h) in &other.wakeup_by_tag {
            self.wakeup_by_tag
                .entry(*tag)
                .or_default()
                .merge(h);
        }
    }

    /// Overall cpu utilization in `[0, 1]` over `elapsed` virtual time.
    pub fn utilization(&self, elapsed: Ns) -> f64 {
        if elapsed.is_zero() || self.cpu_busy.is_empty() {
            return 0.0;
        }
        let busy: Ns = self.cpu_busy.iter().copied().sum();
        busy.0 as f64 / (elapsed.0 as f64 * self.cpu_busy.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cross-shard aggregation: counters add, per-cpu vectors sum
    /// element-wise (extending over length mismatches), histograms merge,
    /// and the result is independent of merge order.
    #[test]
    fn machine_stats_merge_is_commutative_aggregation() {
        let mk = |cs: u64, lat: u64, tag_lat: u64| {
            let mut s = MachineStats::new(2);
            s.nr_context_switches = cs;
            s.nr_externals = cs / 2;
            s.cpu_busy[0] = Ns(10 * cs);
            s.cpu_context_switches[1] = cs;
            s.class_busy.push(Ns(cs));
            s.wakeup_latency.record(Ns(lat));
            s.wakeup_by_tag
                .entry(7)
                .or_default()
                .record(Ns(tag_lat));
            s
        };
        let (a, b) = (mk(4, 1000, 500), mk(6, 2000, 700));
        let mut ab = MachineStats::new(2);
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = MachineStats::new(2);
        ba.merge(&b);
        ba.merge(&a);
        for m in [&ab, &ba] {
            assert_eq!(m.nr_context_switches, 10);
            assert_eq!(m.nr_externals, 5);
            assert_eq!(m.cpu_busy[0], Ns(100));
            assert_eq!(m.cpu_context_switches[1], 10);
            assert_eq!(m.class_busy, vec![Ns(10)]);
            assert_eq!(m.wakeup_latency.count(), 2);
            assert_eq!(m.wakeup_latency.max(), Ns(2000));
            assert_eq!(m.wakeup_by_tag[&7].count(), 2);
        }
        // Unequal per-cpu shapes: shared prefix sums, tail carried over.
        let mut wide = MachineStats::new(4);
        wide.cpu_busy[3] = Ns(5);
        let mut narrow = MachineStats::new(2);
        narrow.cpu_busy[0] = Ns(1);
        narrow.merge(&wide);
        assert_eq!(narrow.cpu_busy, vec![Ns(1), Ns::ZERO, Ns::ZERO, Ns(5)]);
    }

    #[test]
    fn records_and_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Ns(i * 1000));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).unwrap().0 as f64;
        let p99 = h.quantile(0.99).unwrap().0 as f64;
        assert!((450_000.0..=560_000.0).contains(&p50), "p50={p50}");
        assert!((930_000.0..=1_000_000.0).contains(&p99), "p99={p99}");
        assert_eq!(h.max(), Ns(1_000_000));
        assert_eq!(h.min(), Ns(1000));
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        h.record(Ns(3));
        h.record(Ns(3));
        h.record(Ns(7));
        assert_eq!(h.quantile(0.5), Some(Ns(3)));
        assert_eq!(h.quantile(1.0), Some(Ns(7)));
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Ns(10));
        b.record(Ns(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Ns(1_000_000));
        assert_eq!(a.min(), Ns(10));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(Ns(100));
        h.record(Ns(300));
        assert_eq!(h.mean(), Some(Ns(200)));
    }

    #[test]
    fn relative_error_bounded() {
        // Bucketing error must stay under ~7% for large values.
        let mut h = Histogram::new();
        let v = 123_456_789u64;
        h.record(Ns(v));
        let q = h.quantile(1.0).unwrap().0 as f64;
        let err = (q - v as f64).abs() / v as f64;
        assert!(err < 0.07, "err={err}");
    }

    #[test]
    fn bucket_bounds_bracket_power_of_two_values() {
        // The log-bucket layout must classify v into a bucket whose
        // half-open range [lower_bound_of(i), lower_bound_of(i + 1))
        // contains it — including exactly at powers of two, where the
        // exponent and sub-bucket both change.
        for k in 1..40u32 {
            let p = 1u64 << k;
            for v in [p - 1, p, p + 1] {
                let idx = Histogram::index_of(v);
                assert!(
                    Histogram::lower_bound_of(idx) <= v,
                    "v={v} below its bucket {idx}"
                );
                if idx + 1 < Histogram::NR_BUCKETS {
                    assert!(
                        v < Histogram::lower_bound_of(idx + 1),
                        "v={v} at or above the next bucket after {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantile_zero_returns_exact_min() {
        // q=0.0 on a populated histogram must return the smallest sample,
        // never None or a neighbouring bucket bound.
        let mut h = Histogram::new();
        h.record(Ns(123_456));
        h.record(Ns(777_777));
        h.record(Ns(9_999_999));
        assert_eq!(h.quantile(0.0), Some(Ns(123_456)));
    }

    #[test]
    fn single_sample_every_quantile_is_the_sample() {
        let mut h = Histogram::new();
        h.record(Ns(123_456_789));
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(Ns(123_456_789)), "q={q}");
        }
    }

    #[test]
    fn quantile_one_is_exact_max_across_buckets() {
        // Regression: q=1.0 used to return the top bucket's lower bound,
        // up to ~6% below the true maximum, once samples spanned buckets.
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Ns(i * 1003));
        }
        assert_eq!(h.quantile(1.0), Some(Ns(1_003_000)));
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let mut e = Ewma::new(3);
        assert_eq!(e.get(), None);
        assert!(!e.primed());
        e.observe(800);
        assert_eq!(e.get(), Some(800));
        e.observe(1600);
        // 800 + (1600 - 800)/8 = 900
        assert_eq!(e.get(), Some(900));
        assert_eq!(e.value_or(0), 900);
    }

    #[test]
    fn ewma_converges_to_steady_state() {
        let mut e = Ewma::new(2);
        e.observe(0);
        for _ in 0..64 {
            e.observe(10_000);
        }
        let v = e.get().unwrap();
        assert!((9_990..=10_000).contains(&v), "v={v}");
    }

    #[test]
    fn utilization_math() {
        let mut s = MachineStats::new(2);
        s.cpu_busy[0] = Ns::from_ms(5);
        s.cpu_busy[1] = Ns::from_ms(15);
        let u = s.utilization(Ns::from_ms(10));
        assert!((u - 1.0).abs() < 1e-9);
    }
}
