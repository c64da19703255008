//! bench_gate: the CI regression gate over the hot-path microbenchmarks.
//!
//! Reads the `BENCH_framework.json` a `cargo bench -p enoki-bench --bench
//! framework` run just wrote, validates its schema, and compares every
//! throughput row against the committed baseline in
//! `crates/bench/baselines/BENCH_framework.json`. The tolerance is
//! deliberately generous — a row fails only when its throughput drops to
//! less than half of the baseline (a >2x regression) — because the gate
//! runs in `ENOKI_BENCH_FAST` mode on shared CI machines where 10–30%
//! swings are weather, but a halved throughput is a lost optimization.
//!
//! Two structural floors ride along, machine-independent by construction
//! because both sides are measured in the same run: the timer wheel must
//! stay ahead of the retained heap oracle, and the batched ring path must
//! stay well ahead of the seed ring. If either inversion appears, the
//! overhaul has regressed no matter what the absolute numbers say.
//!
//! When the same bench run also wrote `BENCH_framework_overhead.json`
//! (the dispatch-path overhead A/B deltas: metrics-on, watchdog-armed,
//! failsafe-armed), each overhead row is gated against a 15% ceiling —
//! again same-run relative numbers, so runner speed cancels out. The
//! design target is <5% (the bench prints it); the gate's ceiling sits
//! above the fast-mode noise floor (single-run deltas swing several
//! percent either way) so CI only fails on real regressions.
//!
//! When the same CI run also wrote `BENCH_meta.json` (the `meta_switch`
//! harness: the closed control loop under the shifting mix), the gate
//! pins the **deterministic switch history** — epoch, virtual time, and
//! policy number of every switch, plus the final policy — exactly
//! against the committed `crates/bench/baselines/BENCH_meta.json`:
//! those are virtual-time facts, so any drift is a behaviour change,
//! not noise. The wall-clock costs ride under generous absolute
//! ceilings (per-switch blackout, per-sample decision latency) that
//! only a real regression can cross.
//!
//! When the same CI run also wrote `BENCH_trace.json` (the `trace_bench`
//! harness: the causal span graph over a recorded WFQ run), every
//! metric — span/edge/decision counts, the reason census, the graph
//! hash, the breakdown invariant — is pinned exactly against
//! `crates/bench/baselines/BENCH_trace.json`: all are deterministic
//! virtual-time facts, so any drift is a recorder, codec, or
//! graph-builder behaviour change.
//!
//! When the same CI run also wrote `BENCH_blackbox.json` (the
//! `blackbox_bench` harness: a flight-recorder dump auto-triggered by a
//! starvation incident on an unrecorded run), the dump's record count,
//! its FNV byte hash, and the manifest's tail pid are pinned exactly
//! against `crates/bench/baselines/BENCH_blackbox.json` — the dump is a
//! deterministic function of the virtual-time scene, so a drifted hash
//! means black-box reproducibility broke.
//!
//! When the same CI run also wrote `BENCH_cluster.json` (the
//! `cluster_bench` harness: the sharded parallel simulation engine
//! running the fleet workload at 1/2/4/8 worker threads), the gate pins
//! the engine's **thread-count invariance** — every parallel run's fleet
//! digest must equal the sequential oracle's from the same run — pins
//! the digest itself against `crates/bench/baselines/BENCH_cluster.json`
//! when the fleet config matches, and enforces the 4-vs-1-thread
//! events/sec speedup floor when the recorded host had ≥ 4 cores (a
//! small runner can prove determinism but not parallelism).
//!
//! Usage: `bench_gate [current.json] [baseline.json]`
//! (defaults: `crates/bench/results/BENCH_framework.json`, falling back to
//! `results/BENCH_framework.json`, vs `crates/bench/baselines/BENCH_framework.json`)

use enoki_core::json::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Throughput drops below `baseline / REGRESSION_FACTOR` fail the gate.
const REGRESSION_FACTOR: f64 = 2.0;
/// The timer wheel must beat the heap oracle by at least this much.
const WHEEL_FLOOR: f64 = 1.2;
/// The batched ring path must beat the seed ring by at least this much.
const BATCHED_RING_FLOOR: f64 = 1.5;
/// Dispatch-path overhead rows (metrics-on, watchdog-armed,
/// failsafe-armed — each vs its own baseline, measured in the same run
/// as interleaved minima) must stay under this ceiling. The design
/// target is <5%; the gate ceiling adds headroom for fast-mode
/// measurement noise so CI only trips on real regressions.
const OVERHEAD_CEILING_PCT: f64 = 15.0;
/// Per-switch live-upgrade blackout ceiling for the meta control loop
/// (wall clock; the paper's figure is ~10 µs, the ceiling leaves room
/// for slow shared runners).
const META_BLACKOUT_CEILING_NS: f64 = 5_000_000.0;
/// Per-sample chooser classification ceiling (wall clock; measured at
/// single-digit nanoseconds, ceiling far above any plausible noise).
const META_DECISION_CEILING_NS: f64 = 20_000.0;
/// The sharded cluster engine must reach this events/sec speedup at 4
/// worker threads over 1 on the fleet workload — enforced only when the
/// recorded host had at least [`CLUSTER_MIN_HOST_CORES`] cores to scale
/// onto (a 1-core runner measures scheduling overhead, not parallelism;
/// its determinism pins still apply unconditionally).
const CLUSTER_SPEEDUP_FLOOR: f64 = 2.5;
/// Minimum recorded `host_cores` for the speedup floor to be meaningful.
const CLUSTER_MIN_HOST_CORES: f64 = 4.0;

// ----------------------------------------------------------------------
// Schema + gate
// ----------------------------------------------------------------------

/// One throughput row, keyed by (bench, impl, batch).
#[derive(Debug)]
struct Row {
    ops_per_sec: f64,
    speedup_vs_ref: Option<f64>,
}

type RowKey = (String, String, u64);

fn key_label(k: &RowKey) -> String {
    if k.2 <= 1 {
        format!("{}/{}", k.0, k.1)
    } else {
        format!("{}/{} (batch {})", k.0, k.1, k.2)
    }
}

/// Reads and parses one `BENCH_*.json`, checking it came from `harness`.
fn load_doc(path: &str, harness: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("harness").and_then(Value::as_str) {
        Some(h) if h == harness => Ok(doc),
        Some(h) => Err(format!("{path}: harness is {h:?}, not {harness:?}")),
        None => Err(format!("{path}: missing \"harness\"")),
    }
}

/// The report's `rows` array.
fn rows_of<'a>(doc: &'a Value, path: &str) -> Result<&'a [Value], String> {
    doc.get("rows")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing \"rows\" array"))
}

/// Parses and schema-checks one results file: the harness must be
/// `framework`, and every throughput row must carry a string `bench`, a
/// string `impl`, and a finite positive `ops_per_sec`.
fn load(path: &str) -> Result<BTreeMap<RowKey, Row>, String> {
    let doc = load_doc(path, "framework")?;
    doc.get("params")
        .ok_or_else(|| format!("{path}: missing \"params\""))?;
    let rows = rows_of(&doc, path)?;
    let mut out = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let bench = row
            .get("bench")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: row {i} has no \"bench\""))?;
        let impl_name = row
            .get("impl")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: row {i} has no \"impl\""))?;
        let ops = row
            .get("ops_per_sec")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("{path}: row {i} has no numeric \"ops_per_sec\""))?;
        if !ops.is_finite() || ops <= 0.0 {
            return Err(format!("{path}: row {i} ops_per_sec {ops} is not a positive number"));
        }
        let batch = row.get("batch").and_then(Value::as_num).unwrap_or(1.0) as u64;
        let speedup = row.get("speedup_vs_ref").and_then(Value::as_num);
        if let Some(s) = speedup {
            if !s.is_finite() || s <= 0.0 {
                return Err(format!("{path}: row {i} speedup_vs_ref {s} is not a positive number"));
            }
        }
        let key = (bench.to_string(), impl_name.to_string(), batch);
        if out
            .insert(
                key.clone(),
                Row {
                    ops_per_sec: ops,
                    speedup_vs_ref: speedup,
                },
            )
            .is_some()
        {
            return Err(format!("{path}: duplicate row {}", key_label(&key)));
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no throughput rows"));
    }
    Ok(out)
}

/// One dispatch-overhead row: `impl` measured against `baseline`, as a
/// same-run relative delta in percent.
struct OverheadRow {
    impl_name: String,
    baseline: String,
    overhead_pct: f64,
}

/// Parses and schema-checks the overhead report: every row must carry a
/// string `impl`, a string `baseline`, and a finite `overhead_pct`.
fn load_overheads(path: &str) -> Result<Vec<OverheadRow>, String> {
    let doc = load_doc(path, "framework_overhead")?;
    let rows = rows_of(&doc, path)?;
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let impl_name = row
            .get("impl")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: row {i} has no \"impl\""))?;
        let baseline = row
            .get("baseline")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: row {i} has no \"baseline\""))?;
        let pct = row
            .get("overhead_pct")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("{path}: row {i} has no numeric \"overhead_pct\""))?;
        if !pct.is_finite() {
            return Err(format!("{path}: row {i} overhead_pct is not finite"));
        }
        out.push(OverheadRow {
            impl_name: impl_name.to_string(),
            baseline: baseline.to_string(),
            overhead_pct: pct,
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no overhead rows"));
    }
    Ok(out)
}

/// One executed policy switch from the `meta_switch` harness. Everything
/// but the blackout is a deterministic function of the mix.
#[derive(Debug, PartialEq)]
struct MetaSwitch {
    epoch: i64,
    at_ns: i64,
    from: i64,
    to: i64,
}

/// The meta control-loop report: the deterministic switch history plus
/// the wall-clock costs.
struct MetaReport {
    final_policy: String,
    decision_mean_ns: f64,
    switches: Vec<MetaSwitch>,
    blackouts_ns: Vec<f64>,
}

/// Parses and schema-checks one `BENCH_meta.json`: the harness must be
/// `meta`, params must carry `final_policy` and a finite positive
/// `decision_mean_ns`, and every row must carry integer `epoch`,
/// `at_ns`, `from`, `to` and a finite non-negative `blackout_ns`.
fn load_meta(path: &str) -> Result<MetaReport, String> {
    let doc = load_doc(path, "meta")?;
    let params = doc
        .get("params")
        .ok_or_else(|| format!("{path}: missing \"params\""))?;
    let final_policy = params
        .get("final_policy")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: params missing \"final_policy\""))?
        .to_string();
    let decision_mean_ns = params
        .get("decision_mean_ns")
        .and_then(Value::as_num)
        .ok_or_else(|| format!("{path}: params missing numeric \"decision_mean_ns\""))?;
    if !decision_mean_ns.is_finite() || decision_mean_ns <= 0.0 {
        return Err(format!(
            "{path}: decision_mean_ns {decision_mean_ns} is not a positive number"
        ));
    }
    let rows = rows_of(&doc, path)?;
    let mut switches = Vec::new();
    let mut blackouts_ns = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let int = |key: &str| -> Result<i64, String> {
            row.get(key)
                .and_then(Value::as_num)
                .map(|n| n as i64)
                .ok_or_else(|| format!("{path}: row {i} has no numeric \"{key}\""))
        };
        let blackout = row
            .get("blackout_ns")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("{path}: row {i} has no numeric \"blackout_ns\""))?;
        if !blackout.is_finite() || blackout < 0.0 {
            return Err(format!("{path}: row {i} blackout_ns {blackout} is invalid"));
        }
        switches.push(MetaSwitch {
            epoch: int("epoch")?,
            at_ns: int("at_ns")?,
            from: int("from")?,
            to: int("to")?,
        });
        blackouts_ns.push(blackout);
    }
    if switches.is_empty() {
        return Err(format!("{path}: no switch rows"));
    }
    Ok(MetaReport {
        final_policy,
        decision_mean_ns,
        switches,
        blackouts_ns,
    })
}

/// Gates the meta control-loop report: exact switch history vs the
/// baseline, absolute ceilings on the wall-clock costs. Returns the
/// number of rows gated.
/// One deterministic span-graph fact from the `trace_bench` harness:
/// either a numeric `value` or a `hex` string (the graph hash).
#[derive(Debug, PartialEq)]
enum TraceVal {
    Num(i64),
    Hex(String),
}

/// Parses and schema-checks one metric/value report (the `trace` and
/// `blackbox` harnesses share the shape): the harness name must match
/// `expect`, and every row must carry a string `metric` plus either a
/// numeric `value` or a string `hex`.
fn load_kv(path: &str, expect: &str) -> Result<BTreeMap<String, TraceVal>, String> {
    let doc = load_doc(path, expect)?;
    let rows = rows_of(&doc, path)?;
    let mut out = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let metric = row
            .get("metric")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: row {i} has no \"metric\""))?;
        let val = if let Some(n) = row.get("value").and_then(Value::as_num) {
            TraceVal::Num(n as i64)
        } else if let Some(h) = row.get("hex").and_then(Value::as_str) {
            TraceVal::Hex(h.to_string())
        } else {
            return Err(format!("{path}: row {i} has neither \"value\" nor \"hex\""));
        };
        if out.insert(metric.to_string(), val).is_some() {
            return Err(format!("{path}: duplicate metric {metric:?}"));
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no trace rows"));
    }
    Ok(out)
}

/// Gates the span-graph report: every metric is a deterministic
/// virtual-time fact, so each one is pinned exactly against the
/// committed baseline. Returns the number of rows gated.
fn gate_trace(current_path: &str, failures: &mut Vec<String>) -> Result<usize, String> {
    gate_kv(current_path, "trace", "crates/bench/baselines/BENCH_trace.json", failures)
}

/// Gates the flight-recorder report: the dump is cut from the in-memory
/// ring of a virtual-time run, so its record count, FNV hash, and the
/// manifest's tail pid are all deterministic facts — pinned exactly. A
/// drifted `dump_fnv` means byte-for-byte reproducibility broke (the
/// ring, the codec, or the emit funnel changed behaviour).
fn gate_blackbox(current_path: &str, failures: &mut Vec<String>) -> Result<usize, String> {
    gate_kv(current_path, "blackbox", "crates/bench/baselines/BENCH_blackbox.json", failures)
}

/// Exact bidirectional pin of a metric/value report against its
/// committed baseline. Returns the number of rows gated.
fn gate_kv(
    current_path: &str,
    harness: &str,
    baseline_path: &str,
    failures: &mut Vec<String>,
) -> Result<usize, String> {
    let cur = load_kv(current_path, harness)?;
    let base = load_kv(baseline_path, harness)?;
    println!("{harness} gate: {current_path} vs baseline {baseline_path}");
    for (metric, val) in &cur {
        match val {
            TraceVal::Num(n) => println!("  {metric:<46} {n:>12}"),
            TraceVal::Hex(h) => println!("  {metric:<46} {h:>16}"),
        }
        match base.get(metric) {
            Some(b) if b == val => {}
            Some(b) => failures.push(format!(
                "{harness} metric {metric}: current {val:?} != baseline {b:?} \
                 (deterministic — this is a recorder/codec/graph behaviour change)"
            )),
            None => failures.push(format!("{harness} metric {metric}: not in the baseline")),
        }
    }
    for metric in base.keys() {
        if !cur.contains_key(metric) {
            failures.push(format!(
                "{harness} metric {metric}: present in baseline but missing from this run"
            ));
        }
    }
    Ok(cur.len())
}

/// Gates the cluster scaling report (`cluster_bench`): every thread
/// count's fleet digest must equal the sequential oracle's digest from
/// the same run (the parallel engine's core determinism claim — pinned
/// unconditionally), the digest is pinned against the committed baseline
/// whenever the fleet configuration matches it, and the 4-vs-1-thread
/// events/sec speedup must clear [`CLUSTER_SPEEDUP_FLOOR`] when the
/// recorded host had enough cores for the floor to mean anything.
fn gate_cluster(current_path: &str, failures: &mut Vec<String>) -> Result<usize, String> {
    let baseline_path = "crates/bench/baselines/BENCH_cluster.json";
    // The fleet digest is a function of these; the baseline digest pin
    // only applies when all of them match the committed run.
    const CONFIG_KEYS: [&str; 7] = [
        "machines",
        "cores_per_machine",
        "shards",
        "chains",
        "steps_per_chain",
        "seed",
        "fast",
    ];

    let cur = load_doc(current_path, "cluster")?;
    let params = cur
        .get("params")
        .ok_or_else(|| format!("{current_path}: missing \"params\""))?;
    let seq_digest = params
        .get("seq_digest")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{current_path}: params missing \"seq_digest\""))?;
    let host_cores = params
        .get("host_cores")
        .and_then(Value::as_num)
        .ok_or_else(|| format!("{current_path}: params missing numeric \"host_cores\""))?;
    let speedup = params
        .get("speedup_4v1")
        .and_then(Value::as_num)
        .ok_or_else(|| format!("{current_path}: params missing numeric \"speedup_4v1\""))?;
    let rows = rows_of(&cur, current_path)?;
    if rows.is_empty() {
        return Err(format!("{current_path}: no thread-count rows"));
    }

    println!("cluster gate: {current_path} vs baseline {baseline_path}");
    for (i, row) in rows.iter().enumerate() {
        let threads = row
            .get("threads")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("{current_path}: row {i} has no numeric \"threads\""))?;
        let eps = row
            .get("events_per_sec")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("{current_path}: row {i} has no numeric \"events_per_sec\""))?;
        if !eps.is_finite() || eps <= 0.0 {
            return Err(format!(
                "{current_path}: row {i} events_per_sec {eps} is not a positive number"
            ));
        }
        let digest = row
            .get("digest")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{current_path}: row {i} has no \"digest\""))?;
        println!("  cluster {threads:>2.0} thread(s) {eps:>23.0} events/s  {digest}");
        if digest != seq_digest {
            failures.push(format!(
                "cluster run at {threads:.0} threads produced digest {digest}, \
                 sequential oracle produced {seq_digest} — the parallel engine \
                 is no longer thread-count-invariant"
            ));
        }
    }

    // Digest pin vs the committed baseline, valid only for the same
    // fleet configuration (fast vs full mode differ by design).
    match load_doc(baseline_path, "cluster") {
        Ok(base) => {
            let bparams = base
                .get("params")
                .ok_or_else(|| format!("{baseline_path}: missing \"params\""))?;
            let config_matches = CONFIG_KEYS
                .iter()
                .all(|k| params.get(k) == bparams.get(k));
            if config_matches {
                match bparams.get("seq_digest").and_then(Value::as_str) {
                    Some(b) if b == seq_digest => {
                        println!("  cluster digest matches the committed baseline");
                    }
                    Some(b) => failures.push(format!(
                        "cluster digest {seq_digest} != committed baseline {b} for the same \
                         fleet config (deterministic — engine, workload, or RNG behaviour changed)"
                    )),
                    None => failures.push(format!(
                        "{baseline_path}: baseline has no seq_digest to pin against"
                    )),
                }
            } else {
                println!("  (fleet config differs from the baseline — digest not pinned)");
            }
        }
        Err(e) => failures.push(format!("cluster baseline unreadable: {e}")),
    }

    if host_cores >= CLUSTER_MIN_HOST_CORES {
        println!(
            "  cluster 4v1 speedup {speedup:>26.2}x  (floor {CLUSTER_SPEEDUP_FLOOR}x, host_cores {host_cores:.0})"
        );
        if speedup < CLUSTER_SPEEDUP_FLOOR {
            failures.push(format!(
                "cluster 4-thread speedup {speedup:.2}x is under the {CLUSTER_SPEEDUP_FLOOR}x \
                 floor on a {host_cores:.0}-core host"
            ));
        }
    } else {
        println!(
            "  (host_cores {host_cores:.0} < {CLUSTER_MIN_HOST_CORES:.0} — speedup floor not \
             enforced; determinism pins above still apply)"
        );
    }
    Ok(rows.len())
}

fn gate_meta(current_path: &str, failures: &mut Vec<String>) -> Result<usize, String> {
    let baseline_path = "crates/bench/baselines/BENCH_meta.json";
    let cur = load_meta(current_path)?;
    let base = load_meta(baseline_path)?;
    println!("meta gate: {current_path} vs baseline {baseline_path}");
    println!(
        "  decision latency {:>31.1} ns/sample  (ceiling {META_DECISION_CEILING_NS} ns)",
        cur.decision_mean_ns
    );
    if cur.decision_mean_ns > META_DECISION_CEILING_NS {
        failures.push(format!(
            "meta decision latency {:.1} ns exceeds the {META_DECISION_CEILING_NS} ns ceiling",
            cur.decision_mean_ns
        ));
    }
    for (s, blackout) in cur.switches.iter().zip(&cur.blackouts_ns) {
        println!(
            "  switch epoch {:<6} policy {:>3} -> {:<3} {:>12.2} µs blackout",
            s.epoch,
            s.from,
            s.to,
            blackout / 1e3
        );
        if *blackout > META_BLACKOUT_CEILING_NS {
            failures.push(format!(
                "meta switch at epoch {} blacked out for {:.0} ns (ceiling {META_BLACKOUT_CEILING_NS} ns)",
                s.epoch, blackout
            ));
        }
    }
    // The switch history is a deterministic function of the mix: pin it.
    if cur.switches != base.switches {
        failures.push(format!(
            "meta switch history drifted from the baseline:\n  current  {:?}\n  baseline {:?}",
            cur.switches, base.switches
        ));
    }
    if cur.final_policy != base.final_policy {
        failures.push(format!(
            "meta run ended on {:?}, baseline ended on {:?}",
            cur.final_policy, base.final_policy
        ));
    }
    Ok(cur.switches.len())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let current_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| {
            // `cargo bench` writes relative to the bench crate; the gate
            // usually runs from the workspace root.
            let nested = "crates/bench/results/BENCH_framework.json";
            if std::path::Path::new(nested).exists() {
                nested.to_string()
            } else {
                "results/BENCH_framework.json".to_string()
            }
        });
    let baseline_path = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "crates/bench/baselines/BENCH_framework.json".to_string());

    let current = load(&current_path)?;
    let baseline = load(&baseline_path)?;
    println!("bench gate: {current_path} vs baseline {baseline_path}");

    let mut failures = Vec::new();
    for (k, cur) in &current {
        let label = key_label(k);
        match cur.speedup_vs_ref {
            Some(s) => println!("  {label:<46} {:>12.0} ops/s  ({s:.2}x vs ref)", cur.ops_per_sec),
            None => println!("  {label:<46} {:>12.0} ops/s", cur.ops_per_sec),
        }
        if let Some(base) = baseline.get(k) {
            let ratio = cur.ops_per_sec / base.ops_per_sec;
            if ratio * REGRESSION_FACTOR < 1.0 {
                failures.push(format!(
                    "{label}: {:.0} ops/s is a {:.2}x regression from the baseline {:.0} ops/s (tolerance {REGRESSION_FACTOR}x)",
                    cur.ops_per_sec,
                    1.0 / ratio,
                    base.ops_per_sec,
                ));
            }
        } else {
            println!("    (no baseline row — new benchmark, not gated)");
        }
    }
    for k in baseline.keys() {
        if !current.contains_key(k) {
            failures.push(format!("{}: present in baseline but missing from this run", key_label(k)));
        }
    }

    // Same-run structural floors: these compare two implementations
    // measured seconds apart on the same machine, so they hold (or fail)
    // regardless of how slow the CI runner is.
    let wheel = current.get(&("event_queue_push_pop".into(), "timer_wheel".into(), 1));
    match wheel.and_then(|r| r.speedup_vs_ref) {
        Some(s) if s >= WHEEL_FLOOR => {}
        Some(s) => failures.push(format!(
            "timer wheel is only {s:.2}x the heap oracle (floor {WHEEL_FLOOR}x)"
        )),
        None => failures.push("missing timer_wheel row with speedup_vs_ref".to_string()),
    }
    let batched = current
        .iter()
        .filter(|((b, i, batch), _)| b == "spsc_ring_burst" && i == "padded_cached" && *batch > 1)
        .map(|(_, r)| r)
        .next();
    match batched.and_then(|r| r.speedup_vs_ref) {
        Some(s) if s >= BATCHED_RING_FLOOR => {}
        Some(s) => failures.push(format!(
            "batched ring path is only {s:.2}x the seed ring (floor {BATCHED_RING_FLOOR}x)"
        )),
        None => failures.push("missing batched spsc_ring_burst row with speedup_vs_ref".to_string()),
    }

    // Dispatch-path overhead ceiling: gated whenever the bench run wrote
    // the overhead report next to the throughput report (CI always does;
    // a standalone gate run against an older results file skips it).
    let overhead_path = std::path::Path::new(&current_path)
        .with_file_name("BENCH_framework_overhead.json");
    let mut gated = current.len();
    if overhead_path.exists() {
        let rows = load_overheads(&overhead_path.to_string_lossy())?;
        gated += rows.len();
        for r in rows {
            println!(
                "  dispatch_overhead/{:<28} {:>+11.2}% vs {} (ceiling {OVERHEAD_CEILING_PCT}%)",
                r.impl_name, r.overhead_pct, r.baseline
            );
            if r.overhead_pct > OVERHEAD_CEILING_PCT {
                failures.push(format!(
                    "dispatch overhead {} is {:+.2}% vs {} (ceiling {OVERHEAD_CEILING_PCT}%)",
                    r.impl_name, r.overhead_pct, r.baseline
                ));
            }
        }
    } else {
        println!(
            "  (no {} — overhead ceiling not gated)",
            overhead_path.display()
        );
    }

    // Meta control-loop gate: runs whenever a `meta_switch` report is
    // present (CI writes it right before this gate; a standalone
    // framework-only gate run skips it).
    let meta_path = ["results/BENCH_meta.json", "crates/bench/results/BENCH_meta.json"]
        .into_iter()
        .find(|p| std::path::Path::new(p).exists());
    match meta_path {
        Some(p) => gated += gate_meta(p, &mut failures)?,
        None => println!("  (no BENCH_meta.json — meta control loop not gated)"),
    }

    // Span-graph gate: runs whenever a `trace_bench` report is present
    // (CI writes it right before this gate).
    let trace_path = ["results/BENCH_trace.json", "crates/bench/results/BENCH_trace.json"]
        .into_iter()
        .find(|p| std::path::Path::new(p).exists());
    match trace_path {
        Some(p) => gated += gate_trace(p, &mut failures)?,
        None => println!("  (no BENCH_trace.json — span graph not gated)"),
    }

    // Flight-recorder gate: runs whenever a `blackbox_bench` report is
    // present (CI writes it right before this gate). Pins the dump's
    // byte determinism (FNV), its record count, and the tail pid the
    // manifest blames.
    let blackbox_path = [
        "results/BENCH_blackbox.json",
        "crates/bench/results/BENCH_blackbox.json",
    ]
    .into_iter()
    .find(|p| std::path::Path::new(p).exists());
    match blackbox_path {
        Some(p) => gated += gate_blackbox(p, &mut failures)?,
        None => println!("  (no BENCH_blackbox.json — flight recorder not gated)"),
    }

    // Cluster scaling gate: runs whenever a `cluster_bench` report is
    // present (CI writes it right before this gate). Pins the engine's
    // thread-count invariance — every parallel digest == the sequential
    // oracle's — plus the baseline digest for matching configs, and the
    // parallel-speedup floor on hosts with cores to scale onto.
    let cluster_path = [
        "results/BENCH_cluster.json",
        "crates/bench/results/BENCH_cluster.json",
    ]
    .into_iter()
    .find(|p| std::path::Path::new(p).exists());
    match cluster_path {
        Some(p) => gated += gate_cluster(p, &mut failures)?,
        None => println!("  (no BENCH_cluster.json — cluster engine not gated)"),
    }

    if failures.is_empty() {
        println!("bench gate: OK ({gated} rows gated)");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench gate: FAIL\n{e}");
            ExitCode::FAILURE
        }
    }
}
