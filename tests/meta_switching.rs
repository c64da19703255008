//! Integration tests closing the control loop (paper §3.4 + §4): a
//! recorded run in which the meta-scheduler live-switches policies must
//! replay faithfully, two identical switching runs must produce
//! bit-identical traces and switch histories, and the health sampler
//! must coalesce same-tick double polls (zero-length-window regression).
//!
//! Record/replay mode is process-global, so every test here serializes
//! on one mutex (same discipline as `tests/record_replay.rs`).

use enoki::core::flight::fnv1a;
use enoki::core::health::{HealthConfig, Watchdog};
use enoki::core::metrics::export;
use enoki::core::record::{self, Rec};
use enoki::core::{BuiltMachine, MachineBuilder, Switchable};
use enoki::replay::{load_log, replay_file, start_recording, stop_recording};
use enoki::sched::locality::HINT_LOCALITY;
use enoki::sched::{arsenal, Locality, Shinjuku, Wfq};
use enoki::sim::behavior::{HintVal, Op, ProgramBehavior};
use enoki::sim::{CostModel, Ns, TaskSpec, Topology};
use std::path::PathBuf;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enoki-it-meta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// Builds the arsenal meta-machine and spawns a two-act mix that drives
/// exactly two policy switches:
///
/// - Act 1 (t = 0..20 ms): sixteen short-burst churn tasks (50 µs on,
///   150 µs off) — high pick rate at low mean burst flips the chooser
///   from the initial WFQ to Shinjuku.
/// - Act 2 (t = 30 ms..60 ms): a hinter streaming locality hints every
///   cycle — hints dominate the classification, flipping to Locality.
///
/// Task spawn order is fixed, so two calls produce identical machines.
fn build_mini_mix() -> BuiltMachine {
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

/// The tentpole acceptance bullet for record/replay: record a run with
/// two live policy switches, then replay it against a fresh instance of
/// the *final* policy (wrapped in [`Switchable`], exactly as the live
/// machine ran it). `newest_epoch` slices the log at the last switch
/// marker, so the replay sees the final policy's complete call history
/// — including the synthetic refeed calls the wrapper emitted during
/// the switch — and must reproduce it without a single divergence.
#[test]
fn recorded_switching_run_replays_without_divergence() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("switching.log");
    record::reset_lock_ids();
    let mut built = build_mini_mix();
    let session = start_recording(&path, 1 << 24).expect("recorder");
    built
        .machine
        .run_until(Ns::from_ms(70))
        .expect("no kernel panic");
    stop_recording(session).expect("flushed");

    let ctl = built.meta.as_ref().expect("meta controller").borrow();
    let switches = ctl.switches();
    assert!(
        switches.len() >= 2,
        "mix must drive at least two switches, got {switches:?}"
    );
    assert_eq!(ctl.active_name(), "locality");

    // The log carries one typed marker per controller switch, and the
    // last one hands over to the policy the run ended on.
    let log = load_log(&path).expect("log parses");
    let markers: Vec<(i32, i32)> = log
        .iter()
        .filter_map(|r| match r {
            Rec::Switch { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert_eq!(markers.len(), switches.len(), "one marker per switch");
    assert_eq!(markers[0].0, Wfq::POLICY, "run started on wfq");
    assert_eq!(
        markers.last().unwrap().1,
        Locality::POLICY,
        "run ended on locality"
    );
    drop(ctl);

    let report = replay_file(&path, 8, || {
        Switchable::new(Box::new(Locality::new(8)))
    })
    .expect("replay");
    assert!(
        report.divergences.is_empty(),
        "{:?}",
        &report.divergences[..5.min(report.divergences.len())]
    );
    assert_eq!(report.sequencing_timeouts, 0);
    assert!(report.calls > 0, "newest epoch must contain real calls");
}

/// Two identical switching runs — same topology, same mix, same seeds —
/// must produce bit-identical schedviz traces and identical switch
/// histories. This is the determinism half of the tentpole: the
/// chooser keys off virtual-time sample epochs only, so nothing about
/// a live-upgrade mid-run may perturb event ordering between runs.
#[test]
fn switching_runs_are_bit_identical() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let run = || {
        record::reset_lock_ids();
        let mut built = build_mini_mix();
        built.machine.enable_trace(1 << 16);
        built
            .machine
            .run_until(Ns::from_ms(70))
            .expect("no kernel panic");
        let tracer = built.machine.tracer().expect("tracing armed");
        let json = export::chrome_trace_from_sim(tracer, 8, built.machine.now());
        export::validate_json(&json).expect("trace JSON is valid");
        let events = tracer.len();
        let ctl = built.meta.as_ref().expect("meta controller").borrow();
        let switches: Vec<(u64, i32, i32, Ns)> = ctl
            .switches()
            .iter()
            .map(|s| (s.epoch, s.from, s.to, s.at))
            .collect();
        (fnv1a(json.as_bytes()), events, switches)
    };
    let a = run();
    let b = run();
    assert!(a.1 > 0, "empty trace proves nothing");
    assert!(
        a.2.len() >= 2,
        "mix must drive at least two switches, got {:?}",
        a.2
    );
    assert_eq!(a.2, b.2, "switch histories diverged");
    assert_eq!(a.0, b.0, "trace hashes diverged across identical runs");
    assert_eq!(a.1, b.1, "traced event counts diverged");
}

/// Regression test for the health sampler's zero-length-window guard:
/// two polls at the same virtual tick must coalesce into one sample —
/// the second poll sees `now == prev_at` and returns instead of
/// computing rates over a zero-length window (divide-by-zero spikes
/// that monitors would misread as incidents).
#[test]
fn same_tick_double_poll_records_one_sample() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let built: BuiltMachine = MachineBuilder::new(Topology::i7_9700(), CostModel::calibrated())
        .scheduler("wfq", Box::new(Wfq::new(8)))
        .token_ledger()
        .build();
    let BuiltMachine { mut machine, class, class_idx, .. } = built;
    let wd = Watchdog::new(HealthConfig::default());
    for i in 0..4 {
        machine.spawn(TaskSpec::new(
            format!("w{i}"),
            class_idx,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(300)), Op::Sleep(Ns::from_us(100))],
                20,
            )),
        ));
    }
    machine.run_until(Ns::from_ms(5)).expect("no kernel panic");

    wd.poll(&machine, class_idx, &class);
    assert_eq!(wd.samples().len(), 1, "first poll records a sample");
    wd.poll(&machine, class_idx, &class);
    assert_eq!(
        wd.samples().len(),
        1,
        "same-tick double poll must coalesce, not emit a zero-window sample"
    );
    assert_eq!(wd.incident_count(), 0, "{:?}", wd.incidents());

    // The guard keys on the clock, not on a one-shot: once virtual time
    // advances, polling records again.
    machine.run_until(Ns::from_ms(6)).expect("no kernel panic");
    wd.poll(&machine, class_idx, &class);
    assert_eq!(wd.samples().len(), 2, "next tick samples normally");
    assert_eq!(wd.incident_count(), 0, "{:?}", wd.incidents());
}

/// Shinjuku is in the arsenal this mix flows through; pin its policy
/// number so a renumbering can't silently invalidate the marker
/// assertions above.
#[test]
fn arsenal_policy_numbers_are_stable() {
    assert_eq!(Wfq::POLICY, 10);
    assert_eq!(Shinjuku::POLICY, 30);
    assert_eq!(Locality::POLICY, 40);
}
