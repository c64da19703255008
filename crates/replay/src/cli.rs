//! Subcommand implementations for the `enoki-log` forensics CLI.
//!
//! Each subcommand is a plain function from a parsed log to a rendered
//! string, so the test suite can exercise the whole CLI surface without
//! spawning binaries; the `enoki-log` binary is a thin argv wrapper around
//! this module. The analysis itself lives in [`enoki_core::forensics`].

use enoki_core::forensics::{
    analyze_locks, attribute_latency, chrome_trace_from_log, describe_rec, summarize,
};
use enoki_core::json;
use enoki_core::record::{ParsedLog, Rec};
use enoki_core::replay::{replay_with, ReplayOptions, ReplayReport};
use enoki_core::tracing::{profile, SpanGraph};
use enoki_sched::{Cfs, Fifo, Locality, Shinjuku, Wfq};
use std::fmt::Write as _;

/// Scheduler names `diff` (and `enoki-replay`) can instantiate.
pub const SCHEDULER_NAMES: &[&str] = &["wfq", "cfs", "fifo", "shinjuku", "locality"];

/// Replays `log` against a fresh instance of the named scheduler.
/// Returns `None` for an unknown scheduler name.
pub fn replay_named(
    log: &[Rec],
    scheduler: &str,
    nr_cpus: usize,
    opts: ReplayOptions,
) -> Option<ReplayReport> {
    Some(match scheduler {
        "wfq" => replay_with(log, nr_cpus, opts, || Wfq::new(nr_cpus)),
        "cfs" => replay_with(log, nr_cpus, opts, || Cfs::new(nr_cpus)),
        "fifo" => replay_with(log, nr_cpus, opts, || Fifo::new(nr_cpus)),
        "shinjuku" => replay_with(log, nr_cpus, opts, || Shinjuku::new(nr_cpus)),
        "locality" => replay_with(log, nr_cpus, opts, || Locality::new(nr_cpus)),
        _ => return None,
    })
}

/// A truncation warning when the log tail was cut off mid-record, or `""`.
pub fn truncation_note(log: &ParsedLog) -> String {
    if log.truncated {
        "warning: log tail truncated mid-record (writer killed during a flush?); \
         analyzing the parsed prefix\n"
            .to_string()
    } else {
        String::new()
    }
}

/// `enoki-log stat`: log composition.
pub fn stat(log: &ParsedLog) -> String {
    format!("{}{}", truncation_note(log), summarize(log).render())
}

/// `enoki-log lat`: per-task and per-cpu scheduling-latency attribution.
pub fn lat(log: &[Rec]) -> String {
    attribute_latency(log).render()
}

/// `enoki-log locks`: per-lock contention/hold stats and lock-order
/// cycles. The second element is the number of cycles (deadlock risks)
/// found, so callers can fail on it.
pub fn locks(log: &[Rec]) -> (String, usize) {
    let report = analyze_locks(log);
    let cycles = report.cycles.len();
    (report.render(), cycles)
}

/// `enoki-log dump`: pretty-prints records `start..end` (the whole log by
/// default), one indexed line each.
pub fn dump(log: &[Rec], start: usize, end: Option<usize>) -> String {
    let end = end.unwrap_or(log.len()).min(log.len());
    let start = start.min(end);
    let mut out = String::new();
    for (i, rec) in log[start..end].iter().enumerate() {
        let _ = writeln!(out, "#{:<6} {}", start + i, describe_rec(rec));
    }
    out
}

/// `enoki-log diff`: replays the log against the named scheduler and
/// renders every divergence with its context window. The second element
/// is true when the replay was faithful. Returns `Err` for an unknown
/// scheduler name.
pub fn diff(log: &[Rec], scheduler: &str, nr_cpus: usize) -> Result<(String, bool), String> {
    let report = replay_named(log, scheduler, nr_cpus, ReplayOptions::default())
        .ok_or_else(|| format!("unknown scheduler '{scheduler}' (try {SCHEDULER_NAMES:?})"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {} calls, {} hints, {} lock acquisitions on {} threads",
        report.calls, report.hints, report.lock_acquires, report.threads
    );
    if report.faithful() {
        let _ = writeln!(
            out,
            "replay faithful: '{scheduler}' matched the recording everywhere"
        );
        return Ok((out, true));
    }
    let _ = writeln!(
        out,
        "{} divergences, {} sequencing timeouts",
        report.divergences.len(),
        report.sequencing_timeouts
    );
    for d in report.divergences.iter().take(10) {
        let _ = write!(out, "{}", d.explain());
    }
    if report.divergences.len() > 10 {
        let _ = writeln!(
            out,
            "... {} further divergences elided",
            report.divergences.len() - 10
        );
    }
    Ok((out, false))
}

/// `enoki-log export`: Chrome `trace_event` JSON (load the output in
/// `chrome://tracing` or Perfetto).
pub fn export(log: &[Rec]) -> String {
    chrome_trace_from_log(log)
}

/// `enoki-log spans`: the causal span graph — per-task span chains,
/// cross-task causal edges, and pick decisions.
pub fn spans(log: &[Rec]) -> String {
    SpanGraph::build(log).render_spans()
}

/// `enoki-log critpath [pid]`: walks the critical path ending at `pid`
/// (or the p99 wakeup-wait tail task when no pid is given) backwards
/// across waker edges. The `Err` case is an empty graph.
pub fn critpath(log: &[Rec], pid: Option<i64>) -> Result<String, String> {
    let g = SpanGraph::build(log);
    let pid = match pid.or_else(|| g.tail_pid()) {
        Some(p) => p,
        None => return Err("no task spans in this log".to_string()),
    };
    Ok(g.render_critpath(pid))
}

/// `enoki-log why <pid>`: the "why is my task slow?" report — latency
/// breakdown summing to wall latency, waker provenance, and the
/// decisions that picked someone else while the task waited.
pub fn why(log: &[Rec], pid: i64) -> String {
    SpanGraph::build(log).render_why(pid)
}

/// `enoki-log profile [stride]`: the virtual-time sampling profiler —
/// simulated time attributed to scheduler callbacks, per policy.
pub fn profile_cmd(log: &[Rec], stride: usize) -> String {
    profile(log, stride).render()
}

/// A head-skip note when the log began mid-record (flight dumps), or `""`.
pub fn head_note(log: &ParsedLog) -> String {
    if log.head_skipped > 0 {
        format!(
            "note: skipped {} byte(s) of a partial head record (dump starts mid-stream)\n",
            log.head_skipped
        )
    } else {
        String::new()
    }
}

/// `enoki-log blackbox <dump>`: the one-command triage for a black-box
/// dump. Chains summary → critical path → `why` on the tail task the
/// manifest names (falling back to the graph's own p99 tail), and leads
/// with the manifest's reason / virtual time / incident list when
/// `manifest` (the `<stem>.json` written beside the dump) is given.
pub fn blackbox(log: &ParsedLog, manifest: Option<&str>) -> String {
    let mut out = String::new();
    let mut manifest_pid = None;
    if let Some(text) = manifest {
        let _ = writeln!(out, "=== black box ===");
        // A manifest that does not parse still leaves the dump itself
        // to triage: say so and fall through to the graph's own tail.
        let m = json::parse(text).unwrap_or_else(|e| {
            let _ = writeln!(out, "manifest unreadable: {e}");
            json::Value::Null
        });
        if let Some(reason) = m.get("reason").and_then(json::Value::as_str) {
            let _ = writeln!(out, "reason:   {reason}");
        }
        if let Some(vt) = m.get("vt_ns").and_then(json::Value::as_i64) {
            let _ = writeln!(out, "dumped:   t = {}ns", vt);
        }
        if let Some(seed) = m.get("seed").and_then(json::Value::as_i64) {
            let _ = writeln!(out, "seed:     {seed}");
        }
        if let Some(fnv) = m.get("fnv").and_then(json::Value::as_str) {
            let _ = writeln!(out, "fnv:      {fnv}");
        }
        manifest_pid = m.get("tail_pid").and_then(json::Value::as_i64);
        if let Some(pid) = manifest_pid {
            let _ = writeln!(out, "tail pid: {pid}");
        }
        // The manifest's incident tail: what health saw leading up to
        // the dump, without needing the health JSON export.
        let incidents: Vec<&str> = m
            .get("incidents")
            .and_then(json::Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|inc| inc.get("detail")?.as_str())
            .collect();
        if !incidents.is_empty() {
            let _ = writeln!(out, "recent incidents:");
            for d in &incidents {
                let _ = writeln!(out, "  - {d}");
            }
        }
        out.push('\n');
    }
    let _ = write!(out, "{}{}", head_note(log), truncation_note(log));
    let _ = writeln!(out, "=== summary ===");
    let _ = write!(out, "{}", summarize(log).render());
    let g = SpanGraph::build(log);
    let Some(pid) = manifest_pid.or_else(|| g.tail_pid()) else {
        let _ = writeln!(out, "\n(no task spans in this dump; nothing to chase)");
        return out;
    };
    let _ = writeln!(out, "\n=== critical path ===");
    let _ = write!(out, "{}", g.render_critpath(pid));
    let _ = writeln!(out, "\n=== why pid {pid} ===");
    let _ = write!(out, "{}", g.render_why(pid));
    out
}
