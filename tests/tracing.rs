//! Integration tests for the causal span tracing layer: a recorded
//! two-policy meta run must (a) replay divergence-free with decision
//! records interleaved in the log, (b) build a span graph whose hash is
//! bit-identical across identical reruns, and (c) answer `why <pid>`
//! with waker provenance, chosen-over evidence, and a latency breakdown
//! that sums exactly to wall latency — the acceptance bullet for the
//! tracing tentpole.
//!
//! Record/replay mode is process-global, so every test serializes on
//! one mutex (same discipline as `tests/record_replay.rs`).

use enoki::core::flight::fnv1a;
use enoki::core::forensics::attribute_latency;
use enoki::core::record::{self, Rec};
use enoki::core::tracing::{profile, set_decision_trace, SpanGraph};
use enoki::core::{BuiltMachine, EnokiScheduler, MachineBuilder, Switchable};
use enoki::replay::{load_log, replay_file, start_recording, stop_recording};
use enoki::sched::locality::HINT_LOCALITY;
use enoki::sched::{arsenal, Locality, Shinjuku, Wfq};
use enoki::sim::behavior::{HintVal, Op, ProgramBehavior};
use enoki::sim::{CostModel, Ns, TaskSpec, Topology};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enoki-it-tracing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// The arsenal meta-machine with a mix that exercises every causal
/// ingredient: sixteen short-burst churners flip the chooser off the
/// initial WFQ, a pipe pair produces task-to-task wakeups (waker
/// provenance for `why`), and a late hinter streams locality hints.
/// Spawn order is fixed, so two calls produce identical machines.
fn build_traced_mix() -> BuiltMachine {
    let mut built: BuiltMachine =
        MachineBuilder::new(Topology::i7_9700(), CostModel::calibrated())
            .meta("meta", arsenal(8))
            .build();
    let class = built.class_idx;
    for i in 0..16 {
        built.machine.spawn(TaskSpec::new(
            format!("churn{i}"),
            class,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(50)), Op::Sleep(Ns::from_us(150))],
                100,
            )),
        ));
    }
    let ab = built.machine.create_pipe();
    let ba = built.machine.create_pipe();
    built.machine.spawn(TaskSpec::new(
        "ping",
        class,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeWrite(ab), Op::PipeRead(ba)],
            120,
        )),
    ));
    built.machine.spawn(TaskSpec::new(
        "pong",
        class,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeRead(ab), Op::PipeWrite(ba)],
            120,
        )),
    ));
    built.machine.spawn(
        TaskSpec::new(
            "hinter",
            class,
            Box::new(ProgramBehavior::repeat(
                vec![
                    Op::Hint(HintVal {
                        kind: HINT_LOCALITY,
                        a: 1,
                        b: 9,
                        c: 0,
                    }),
                    Op::Compute(Ns::from_us(30)),
                    Op::Sleep(Ns::from_us(170)),
                ],
                150,
            )),
        )
        .at(Ns::from_ms(30)),
    );
    built
}

fn record_mix(path: &Path) -> Vec<Rec> {
    record::reset_lock_ids();
    let mut built = build_traced_mix();
    let session = start_recording(path, 1 << 24).expect("recorder");
    built
        .machine
        .run_until(Ns::from_ms(70))
        .expect("no kernel panic");
    stop_recording(session).expect("flushed");
    load_log(path).expect("log parses").to_vec()
}

/// The tentpole acceptance test: record a meta run that live-switches
/// policies, then (1) the decision stream names more than one policy,
/// (2) the log replays against the final policy without a single
/// divergence — decision records ride along without perturbing the call
/// stream and replay never re-emits them — and (3) `why` resolves the
/// causal chain for a pipe wakee: waker pid, chosen-over picks with
/// reason codes, and a breakdown summing exactly to wall latency.
#[test]
fn traced_meta_run_replays_and_explains_the_tail() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("traced-meta.log");
    let log = record_mix(&path);
    let g = SpanGraph::build(&log);

    // Two-policy criterion: the chooser switched at least once, and
    // picks were recorded under at least two distinct policies.
    let mut policies: Vec<i32> = g.decisions.iter().map(|d| d.policy).collect();
    policies.sort_unstable();
    policies.dedup();
    assert!(
        policies.len() >= 2,
        "decision stream must span two policies, got {policies:?}"
    );
    let markers: Vec<(i32, i32)> = log
        .iter()
        .filter_map(|r| match r {
            Rec::Switch { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert!(!markers.is_empty(), "meta run must record switch markers");

    // Replay the newest epoch against a fresh instance of the final
    // policy, exactly as the live machine ran it.
    let final_policy = markers.last().unwrap().1;
    let report = replay_file(&path, 8, move || {
        let inner: Box<dyn EnokiScheduler<UserMsg = HintVal, RevMsg = HintVal>> =
            if final_policy == Shinjuku::POLICY {
                Box::new(Shinjuku::new(8))
            } else if final_policy == Locality::POLICY {
                Box::new(Locality::new(8))
            } else {
                Box::new(Wfq::new(8))
            };
        Switchable::new(inner)
    })
    .expect("replay");
    assert!(
        report.divergences.is_empty(),
        "{:?}",
        &report.divergences[..5.min(report.divergences.len())]
    );
    assert!(report.calls > 0, "newest epoch must contain real calls");

    // Breakdown invariant: every observed nanosecond of every task lands
    // in exactly one bucket.
    assert!(!g.tasks.is_empty());
    for &pid in g.tasks.keys() {
        let b = g.breakdown(pid).expect("breakdown");
        assert_eq!(b.sum(), b.wall(), "pid {pid}: {b:?}");
    }

    // Causal chain: the pipe pair guarantees task-to-task wakeups, so
    // some wakee has recorded waker provenance; `why` must surface it
    // together with the breakdown.
    let wakee = g
        .edges
        .iter()
        .find(|e| e.kind == enoki::core::tracing::EdgeKind::Wakeup)
        .map(|e| e.to)
        .expect("pipe mix must produce wakeup edges");
    let why = g.render_why(wakee);
    assert!(why.contains("woken by pid"), "{why}");
    assert!(why.contains(&format!("latency breakdown for pid {wakee}")), "{why}");
    // Chosen-over evidence exists somewhere in a 19-task / 8-cpu mix,
    // and the render spells out the reason code and candidate count.
    let passed_over = g
        .tasks
        .keys()
        .find(|&&p| !g.chosen_over(p).is_empty())
        .copied()
        .expect("some task must have been passed over");
    let why_over = g.render_why(passed_over);
    assert!(why_over.contains("passed over"), "{why_over}");
    assert!(why_over.contains("candidates"), "{why_over}");

    // The profiler attributes virtual time under both policies.
    let prof = profile(&log, 1);
    assert!(prof.samples > 0);
    assert!(
        prof.policies.keys().filter(|&&p| p >= 0).count() >= 2,
        "profile must attribute time to two policies, got {:?}",
        prof.policies.keys().collect::<Vec<_>>()
    );
}

/// Determinism half: two identical recorded runs must yield the same
/// span graph bit-for-bit — same FNV fingerprint, same span / edge /
/// decision counts. This is what lets `bench_gate` pin the trace
/// baseline exactly.
#[test]
fn span_graph_hash_is_identical_across_reruns() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let run = |name: &str| {
        let path = tmp(name);
        let log = record_mix(&path);
        let g = SpanGraph::build(&log);
        let lat = attribute_latency(&log).render();
        (g.graph_hash(), g.spans.len(), g.edges.len(), g.decisions.len(), fnv1a(lat.as_bytes()))
    };
    let a = run("rerun-a.log");
    let b = run("rerun-b.log");
    assert!(a.3 > 0, "decision stream must be non-empty");
    assert_eq!(a, b, "span graphs diverged across identical runs");
    // Golden pin for the latency view over this graph (a 70 ms cut of a
    // policy-switching run, so slices are open at the end), computed at
    // the commit before `attribute_latency` became a view.
    assert_eq!(a.4, 0x1215_ce17_4273_a4d3, "latency report moved");
}

/// The `MachineBuilder::decision_trace(false)` escape hatch (and the
/// global toggle behind it) strips decision records from a recording
/// without touching the call stream: spans and edges still build, the
/// decision stream is empty, and a fresh default build re-arms it.
#[test]
fn decision_trace_off_strips_decisions_but_keeps_spans() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("no-decisions.log");
    record::reset_lock_ids();
    let mut built = build_traced_mix();
    set_decision_trace(false);
    let session = start_recording(&path, 1 << 24).expect("recorder");
    built
        .machine
        .run_until(Ns::from_ms(70))
        .expect("no kernel panic");
    stop_recording(session).expect("flushed");
    set_decision_trace(true);

    let log = load_log(&path).expect("log parses");
    let g = SpanGraph::build(&log);
    assert!(g.decisions.is_empty(), "decision trace was off");
    assert!(!g.spans.is_empty(), "call-stream spans must still build");
    assert!(!g.tasks.is_empty());
    for &pid in g.tasks.keys() {
        let b = g.breakdown(pid).expect("breakdown");
        assert_eq!(b.sum(), b.wall(), "pid {pid}: {b:?}");
    }
    // A default build re-arms the trace (builder knob defaults to on).
    let _rearm = build_traced_mix();
    assert!(enoki::core::tracing::decision_trace_enabled());
}
