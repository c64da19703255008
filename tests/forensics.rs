//! End-to-end forensics smoke tests: record a short run, then exercise
//! every `enoki-log` subcommand on the log (the CLI's logic lives in
//! `enoki_replay::cli`, so no binaries are spawned). Record/replay mode is
//! process-global, so the tests serialize on one mutex.

use enoki::core::flight::fnv1a;
use enoki::core::json;
use enoki::core::metrics::export::validate_json;
use enoki::core::record;
use enoki::core::tracing::{SpanGraph, SpanKind};
use enoki::core::EnokiClass;
use enoki::replay::{cli, load_log, start_recording, stop_recording, ReplayOptions};
use enoki::sched::Wfq;
use enoki::sim::behavior::{Op, ProgramBehavior};
use enoki::sim::{CostModel, Machine, Ns, TaskSpec, Topology};
use std::path::PathBuf;
use std::rc::Rc;

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enoki-it-forensics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// Records the workload from `examples/record_replay.rs` in miniature:
/// a pipe ping/pong pair plus compute/sleep background tasks under WFQ.
fn record_short_wfq_run(path: &std::path::Path) {
    record::reset_lock_ids();
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    m.add_class(Rc::new(EnokiClass::load("wfq", 8, Box::new(Wfq::new(8)))));
    let session = start_recording(path, 1 << 20).expect("recorder");
    let ab = m.create_pipe();
    let ba = m.create_pipe();
    m.spawn(TaskSpec::new(
        "ping",
        0,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeWrite(ab), Op::PipeRead(ba)],
            200,
        )),
    ));
    m.spawn(TaskSpec::new(
        "pong",
        0,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeRead(ab), Op::PipeWrite(ba)],
            200,
        )),
    ));
    for i in 0..4 {
        m.spawn(TaskSpec::new(
            format!("bg{i}"),
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(200)), Op::Sleep(Ns::from_us(100))],
                50,
            )),
        ));
    }
    m.run_to_completion(Ns::from_secs(10)).expect("completes");
    stop_recording(session).expect("flushed");
}

#[test]
fn enoki_log_subcommands_smoke() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("smoke.log");
    record_short_wfq_run(&path);
    let log = load_log(&path).expect("parses");
    assert!(!log.truncated);

    // stat: composition with per-function call counts.
    let stat = cli::stat(&log);
    assert!(stat.contains("records total"), "{stat}");
    assert!(stat.contains("pick_next_task"), "{stat}");

    // lat: per-task wakeup-latency and runqueue-delay quantiles (the
    // acceptance criterion for `enoki-log lat` on the example's workload).
    let lat = cli::lat(&log);
    assert!(lat.contains("wakeup-lat p50/p99/max"), "{lat}");
    assert!(lat.contains("runq-delay p50/p99/max"), "{lat}");
    let report = enoki::core::forensics::attribute_latency(&log);
    assert!(!report.tasks.is_empty());
    // Golden pin, computed at the commit before `lat` became a view over
    // the span graph: the run is deterministic virtual time, so the
    // rendered report must not move by a byte.
    assert_eq!(fnv1a(lat.as_bytes()), 0xaa45_5787_db30_aa15, "{lat}");
    assert!(
        report
            .tasks
            .values()
            .any(|t| t.wakeup_latency.count() > 0 && t.runqueue_delay.count() > 0),
        "pipe ping/pong must produce wakeup and runqueue samples"
    );

    // locks: the recorded run uses consistently ordered shim locks, so the
    // acquisition graph must be cycle-free.
    let (locks, cycles) = cli::locks(&log);
    assert_eq!(cycles, 0, "{locks}");
    assert!(locks.contains("acquisition graph is acyclic"), "{locks}");

    // dump: indexed, human-readable records.
    let dump = cli::dump(&log, 0, Some(25));
    assert!(dump.lines().count() == 25.min(log.len()), "{dump}");
    assert!(dump.contains("#0"), "{dump}");

    // diff against the same scheduler: faithful.
    let (diff, faithful) = cli::diff(&log, "wfq", 8).expect("known scheduler");
    assert!(faithful, "{diff}");
    assert!(diff.contains("replay faithful"), "{diff}");
    assert!(cli::diff(&log, "nosuch", 8).is_err());

    // export: valid Chrome trace_event JSON with spans and counter tracks.
    let doc = cli::export(&log);
    validate_json(&doc).unwrap_or_else(|e| panic!("{e}"));
    assert!(doc.contains(r#""ph":"X""#), "spans missing");
    assert!(doc.contains(r#""ph":"C""#), "counter tracks missing");
    assert!(doc.contains(r#""name":"runnable""#), "runnable counter missing");
    // The export's slices are the span graph's: on every lane the "X"
    // durations (µs, printed to the nanosecond) add up to the graph's
    // on-cpu time for that cpu.
    let parsed = json::parse(&doc).expect("validated above");
    let mut lanes = std::collections::BTreeMap::<i64, u64>::new();
    for e in parsed.get("traceEvents").and_then(|e| e.as_arr()).expect("events") {
        if e.get("ph").and_then(|p| p.as_str()) == Some("X") {
            let lane = e.get("tid").and_then(|t| t.as_i64()).expect("lane");
            let us = e.get("dur").and_then(|d| d.as_num()).expect("dur");
            *lanes.entry(lane).or_default() += (us * 1000.0).round() as u64;
        }
    }
    let mut cpus = std::collections::BTreeMap::<i64, u64>::new();
    for s in SpanGraph::build(&log).spans.iter().filter(|s| s.kind == SpanKind::Running) {
        *cpus.entry(s.cpu as i64).or_default() += s.dur();
    }
    assert!(lanes.len() > 1, "{lanes:?}");
    assert_eq!(lanes, cpus, "lane totals must be the graph's per-cpu on-cpu time");

    std::fs::remove_file(&path).ok();
}

#[test]
fn perturbed_replay_yields_typed_divergences_with_context() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("perturbed.log");
    record_short_wfq_run(&path);
    let log = load_log(&path).expect("parses");

    // Replaying a WFQ recording against FIFO perturbs pick/select
    // responses: the report must carry typed divergences, each anchored to
    // its call index with a non-empty window of surrounding records.
    let report = cli::replay_named(&log, "fifo", 8, ReplayOptions::default()).expect("known");
    assert!(!report.divergences.is_empty(), "policies should disagree");
    for d in &report.divergences {
        assert!(!d.window.is_empty());
        assert!(d.window_start <= d.call_index);
        assert!(d.call_index < d.window_start + d.window.len());
        assert!(
            matches!(log[d.call_index], enoki::core::record::Rec::Call { func, .. } if func == d.func),
            "call_index must point at the diverging call"
        );
        let text = d.explain();
        assert!(text.contains(">>>"), "{text}");
        assert!(text.contains("recording says"), "{text}");
    }

    // The CLI diff renders the same explanation.
    let (diff, faithful) = cli::diff(&log, "fifo", 8).expect("known scheduler");
    assert!(!faithful);
    assert!(diff.contains("divergences"), "{diff}");
    assert!(diff.contains(">>>"), "{diff}");

    std::fs::remove_file(&path).ok();
}
