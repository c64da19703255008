//! What a workload is, what one repetition reports, and the pass that
//! repeats it for `--seconds` and reduces the repetitions to metrics.

use crate::span::{Kind, Sink};
use enoki_core::{DispatchStats, EnokiClass};
use enoki_sim::HintVal;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Run-wide settings.
pub struct Cfg {
    /// Feeds every generator that takes a seed.
    pub seed: u64,
    /// ~1 % sizes, all checks on.
    pub quick: bool,
    /// Directory for traces and scratch logs (inside the checkout).
    pub out: PathBuf,
}

impl Cfg {
    /// `full` at full size, about a hundredth of it with `--quick`.
    pub fn size(&self, full: u64) -> u64 {
        if self.quick {
            (full / 100).max(1)
        } else {
            full
        }
    }
}

/// Simulated statistics. They are a function of the inputs alone, so
/// they must repeat exactly between repetitions and between commits that
/// only change host time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Simulated events processed.
    pub events: u64,
    /// Simulated µs per pipe message (pipe workloads).
    pub pipe_us_per_msg: f64,
    /// schbench rounds in the measurement window.
    pub schbench_rounds: u64,
    /// schbench p99 wakeup latency, simulated ns.
    pub schbench_p99_ns: u64,
    /// Fleet digest over every machine's trace and counters.
    pub fleet_digest: u64,
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SimStats {
            events,
            pipe_us_per_msg,
            schbench_rounds,
            schbench_p99_ns,
            fleet_digest,
        } = self;
        write!(f, "events={events} pipe_us_per_msg={pipe_us_per_msg} schbench_rounds={schbench_rounds} schbench_p99_ns={schbench_p99_ns} fleet_digest={fleet_digest:016x}")
    }
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Construction before the timed region.
    pub setup_s: f64,
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// Numerator of `events_per_sec`.
    pub events: u64,
    /// Numerator of `wakeups_per_sec`.
    pub wakeups: u64,
    /// Operations attempted (round trips, rounds, chains, checks).
    pub attempted: u64,
    /// Operations that failed or did not complete.
    pub failed: u64,
    /// Why, one line per failure class.
    pub notes: Vec<String>,
    /// Statistics that must repeat exactly.
    pub sim: SimStats,
}

impl Rep {
    /// Counts one attempted check and, when `bad` is non-zero, that many failures.
    pub fn check(&mut self, bad: u64, what: &str) {
        self.attempted += 1;
        if bad > 0 {
            self.failed += bad;
            self.notes.push(format!("{what}: {bad}"));
        }
    }

    /// The dispatch-layer counters that must stay zero on a clean run,
    /// and the token ledger when one is armed.
    pub fn check_dispatch(&mut self, class: &EnokiClass<HintVal, HintVal>) {
        let DispatchStats {
            pnt_errs,
            token_mismatches,
            panics_caught,
            quarantines,
            ..
        } = class.stats();
        self.check(pnt_errs, "pnt_errs");
        self.check(token_mismatches, "token_mismatches");
        self.check(panics_caught, "panics_caught");
        self.check(quarantines, "quarantines");
        if let Some(ledger) = class.token_ledger() {
            self.check(ledger.live(), "live tokens after the run");
        }
    }
}

/// A named metric value produced by a layer measurement.
pub type Metrics = Vec<(&'static str, f64)>;

/// One benchmark workload.
pub trait Workload {
    /// Builds the inputs and the system (set-up, timed by the caller) and
    /// returns the timed region as a closure. With a sink the system is
    /// built behind the timing proxies.
    fn prepare<'a>(&'a mut self, sink: Option<&Arc<Sink>>) -> Box<dyn FnOnce() -> Rep + 'a>;

    /// Whether `prepare` may be called and dropped without running, to
    /// take more set-up samples.
    fn setup_is_droppable(&self) -> bool {
        true
    }

    /// Output checks made once per run, outside the timed region
    /// (oracles, replay). Adds to `rep.attempted` / `rep.failed`.
    fn verify(&mut self, _rep: &mut Rep) {}

    /// The traced pass's extra measurements of this workload's layers;
    /// checks made on the way count in `checks`.
    fn layers(
        &mut self,
        _sink: &Arc<Sink>,
        _traced: &[Rep],
        _untraced: &[Rep],
        _out: &mut Metrics,
        _checks: &mut Rep,
    ) {
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The upper quartile of `v`, as Python's `statistics.quantiles(v, n=4)[2]`
/// gives it. Throughput is reported as the upper quartile of the
/// repetitions' rates: on a shared host noise only adds time, so the
/// fast quarter is steadier than the median and, unlike the maximum, does
/// not rest on one lucky repetition.
pub fn upper_quartile(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = 0.75 * (s.len() + 1) as f64;
    let lo = (pos.floor() as usize).clamp(1, s.len().max(1));
    let hi = (lo + 1).min(s.len());
    match s.len() {
        0 => f64::NAN,
        _ => s[lo - 1] + (s[hi - 1] - s[lo - 1]) * (pos - lo as f64).clamp(0.0, 1.0),
    }
}

/// The repetitions of one pass.
pub struct Pass {
    /// Untraced timed repetitions (warm-up excluded).
    pub untraced: Vec<Rep>,
    /// Traced timed repetitions (traced pass only).
    pub traced: Vec<Rep>,
    /// Set-up samples, all taken the same way: dedicated set-ups when the
    /// workload's set-up is droppable, the repetitions' own otherwise.
    pub setups: Vec<f64>,
    /// Attempted / failed over every repetition, warm-up and `verify` included.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Failure notes, deduplicated.
    pub notes: Vec<String>,
    /// `VmHWM` of this process when the warm-up repetition had ended, MiB.
    pub peak_rss_mb: f64,
}

/// `VmHWM` of this process, in MiB.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(f64::NAN) / 1024.0
}

fn one_rep(w: &mut dyn Workload, sink: Option<&Arc<Sink>>) -> Rep {
    let t0 = Instant::now();
    let run = w.prepare(sink);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut rep = run();
    rep.setup_s = setup_s;
    rep
}

/// Fewest timed repetitions of a pass, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Runs one discarded warm-up, then timed repetitions until `seconds`
/// have passed (at least [`MIN_REPS`]). With a sink, traced and untraced
/// repetitions alternate so their ratio is taken under the same host
/// conditions.
pub fn run_pass(w: &mut dyn Workload, seconds: f64, sink: Option<&Arc<Sink>>) -> Pass {
    let mut pass = Pass {
        untraced: vec![],
        traced: vec![],
        setups: vec![],
        attempted: 0,
        failed: 0,
        notes: vec![],
        peak_rss_mb: 0.0,
    };
    let warm = one_rep(w, None);
    // One repetition in a fresh process: what the workload needs. Read at
    // exit it would also hold what the allocator kept back between
    // repetitions, which on the 2-thread fleet varies by 15 % run to run.
    pass.peak_rss_mb = vm_hwm_mb();
    let mut all_sim = vec![warm.sim.clone()];
    let tally = |pass: &mut Pass, rep: &Rep| {
        pass.attempted += rep.attempted;
        pass.failed += rep.failed;
        for n in &rep.notes {
            if !pass.notes.contains(n) {
                pass.notes.push(n.clone());
            }
        }
    };
    tally(&mut pass, &warm);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || pass.untraced.len() < MIN_REPS {
        if let Some(s) = sink {
            let rep = one_rep(w, Some(s));
            all_sim.push(rep.sim.clone());
            tally(&mut pass, &rep);
            pass.traced.push(rep);
        }
        let rep = one_rep(w, None);
        all_sim.push(rep.sim.clone());
        tally(&mut pass, &rep);
        pass.setups.push(rep.setup_s);
        pass.untraced.push(rep);
    }
    if w.setup_is_droppable() {
        // Cheap set-ups are microseconds to milliseconds: sample them on
        // their own, back to back, for a steady median.
        pass.setups.clear();
        let t = Instant::now();
        while pass.setups.len() < 31 && (t.elapsed().as_secs_f64() < 0.5 || pass.setups.len() < 3) {
            let t0 = Instant::now();
            let prepared = w.prepare(None);
            pass.setups.push(t0.elapsed().as_secs_f64());
            drop(prepared);
        }
    }
    let mut last = Rep::default();
    last.check(
        all_sim.iter().filter(|s| **s != all_sim[0]).count() as u64,
        "repetitions whose sim.* statistics differ",
    );
    w.verify(&mut last);
    tally(&mut pass, &last);
    pass
}

/// Nanoseconds one empty proxied call costs (two clock reads and two
/// counter adds) once the raw-span store is full, as it is for all but
/// the first 100,000 spans of a run. Reported beside the per-layer
/// numbers, not subtracted.
pub fn calibrate_proxy() -> f64 {
    const N: u32 = 200_000;
    let sink = Sink::new();
    for _ in 0..crate::span::RAW_CAP {
        sink.time(Kind::Calibrate, || ());
    }
    let t0 = Instant::now();
    for _ in 0..N {
        sink.time(Kind::Calibrate, || std::hint::black_box(()));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}
