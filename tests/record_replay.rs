//! Integration tests for record & replay (paper §3.4) across schedulers
//! and workloads. Record/replay mode is process-global, so every test
//! here serializes on one mutex.

use enoki::core::record;
use enoki::core::EnokiClass;
use enoki::replay::{replay_file, replay_on, start_recording, stop_recording, ReplayOptions};
use enoki::sched::cfs::native_cfs_class;
use enoki::sched::locality::HINT_LOCALITY;
use enoki::sched::{Cfs, Fifo, Locality, Shinjuku};
use enoki::sim::behavior::{HintVal, Op, ProgramBehavior};
use enoki::sim::{CostModel, Machine, Ns, TaskSpec, Topology};
use std::path::PathBuf;
use std::rc::Rc;

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enoki-it-rr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn cfs_record_replay_is_faithful() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("cfs.log");
    record::reset_lock_ids();
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    m.add_class(Rc::new(EnokiClass::load_native(
        "cfs",
        8,
        Box::new(Cfs::new(8)),
    )));
    let session = start_recording(&path, 1 << 20).expect("recorder");
    for i in 0..10 {
        m.spawn(TaskSpec::new(
            format!("t{i}"),
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(300)), Op::Sleep(Ns::from_us(100))],
                50,
            )),
        ));
    }
    m.run_to_completion(Ns::from_secs(10))
        .expect("no kernel panic");
    let written = stop_recording(session).expect("flushed");
    assert!(written > 500);

    let report = replay_file(&path, 8, || Cfs::new(8)).expect("replay");
    assert!(
        report.divergences.is_empty(),
        "{:?}",
        &report.divergences[..5.min(report.divergences.len())]
    );
    assert_eq!(report.sequencing_timeouts, 0);
    assert!(report.calls > 200);
}

/// A CFS log from the two-node machine replays faithfully only on that
/// machine's topology: `select_task_rq` and `balance` read `node_of`.
#[test]
fn two_node_cfs_replays_on_its_own_topology() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("cfs_xeon.log");
    record::reset_lock_ids();
    let mut m = Machine::new(Topology::xeon_6138_2s(), CostModel::calibrated());
    m.add_class(Rc::new(native_cfs_class(80)));
    let session = start_recording(&path, 1 << 20).expect("recorder");
    let (ab, ba) = (m.create_pipe(), m.create_pipe());
    m.spawn(TaskSpec::new(
        "ping",
        0,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeWrite(ab), Op::PipeRead(ba)],
            30,
        )),
    ));
    m.spawn(TaskSpec::new(
        "pong",
        0,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeRead(ab), Op::PipeWrite(ba)],
            30,
        )),
    ));
    for i in 0..100 {
        m.spawn(TaskSpec::new(
            format!("t{i}"),
            0,
            Box::new(ProgramBehavior::repeat(
                vec![
                    Op::Compute(Ns::from_us(200 + 10 * i)),
                    Op::Sleep(Ns::from_us(100)),
                ],
                3,
            )),
        ));
    }
    m.run_to_completion(Ns::from_secs(10))
        .expect("no kernel panic");
    stop_recording(session).expect("flushed");

    let log = enoki::replay::load_log(&path).expect("log parses");
    let report = replay_on(
        &log,
        &Topology::xeon_6138_2s(),
        ReplayOptions::default(),
        || Cfs::new(80),
    );
    assert!(
        report.faithful(),
        "{} timeouts, {:?}",
        report.sequencing_timeouts,
        &report.divergences[..5.min(report.divergences.len())]
    );
    assert!(report.calls > 500, "replayed {} calls", report.calls);
    // One shim lock per CFS callback: the whole policy state sits under
    // one recorded lock.
    assert_eq!(report.lock_acquires, report.calls);
    // The same log on a one-node machine of the same size diverges.
    let one_node = enoki::replay::replay(&log, 80, || Cfs::new(80));
    assert!(!one_node.faithful(), "topology is invisible to this scene");
}

#[test]
fn shinjuku_record_replay_is_faithful() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("shinjuku.log");
    record::reset_lock_ids();
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    m.add_class(Rc::new(EnokiClass::load(
        "shinjuku",
        8,
        Box::new(Shinjuku::new(8)),
    )));
    let session = start_recording(&path, 1 << 20).expect("recorder");
    for i in 0..12 {
        m.spawn(TaskSpec::new(
            format!("t{i}"),
            0,
            Box::new(ProgramBehavior::once(vec![Op::Compute(Ns::from_us(200))])),
        ));
    }
    m.run_to_completion(Ns::from_secs(10))
        .expect("no kernel panic");
    stop_recording(session).expect("flushed");

    let report = replay_file(&path, 8, || Shinjuku::new(8)).expect("replay");
    assert!(
        report.divergences.is_empty(),
        "{:?}",
        &report.divergences[..5.min(report.divergences.len())]
    );
}

#[test]
fn hints_are_recorded_and_replayed() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("locality.log");
    record::reset_lock_ids();
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    let class = Rc::new(EnokiClass::load("locality", 8, Box::new(Locality::new(8))));
    m.add_class(class.clone());
    // No user queue registered: hints go through parse_hint, which is how
    // the replayer re-delivers them.
    let session = start_recording(&path, 1 << 20).expect("recorder");
    m.spawn(TaskSpec::new(
        "hinter",
        0,
        Box::new(ProgramBehavior::with_prelude(
            vec![
                Op::Hint(HintVal {
                    kind: HINT_LOCALITY,
                    a: 1,
                    b: 9,
                    c: 0,
                }),
                Op::Hint(HintVal {
                    kind: HINT_LOCALITY,
                    a: 2,
                    b: 9,
                    c: 0,
                }),
            ],
            vec![Op::Compute(Ns::from_us(50)), Op::Sleep(Ns::from_us(100))],
            Some(30),
        )),
    ));
    for i in 1..3 {
        m.spawn(TaskSpec::new(
            format!("w{i}"),
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(30)), Op::Sleep(Ns::from_us(150))],
                30,
            )),
        ));
    }
    m.run_to_completion(Ns::from_secs(10))
        .expect("no kernel panic");
    stop_recording(session).expect("flushed");

    let log = enoki::replay::load_log(&path).expect("log parses");
    let hint_events = log
        .iter()
        .filter(|r| matches!(r, enoki::core::record::Rec::Hint { .. }))
        .count();
    assert_eq!(hint_events, 2, "both hints recorded");

    let report = replay_file(&path, 8, || Locality::new(8)).expect("replay");
    assert_eq!(report.hints, 2);
    assert!(
        report.divergences.is_empty(),
        "{:?}",
        &report.divergences[..5.min(report.divergences.len())]
    );
}

#[test]
fn replay_report_flags_truncated_logs() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("truncated.log");
    record::reset_lock_ids();
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    m.add_class(Rc::new(EnokiClass::load("cfs", 8, Box::new(Cfs::new(8)))));
    let session = start_recording(&path, 1 << 20).expect("recorder");
    for i in 0..6 {
        m.spawn(TaskSpec::new(
            format!("t{i}"),
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(100)), Op::Sleep(Ns::from_us(50))],
                40,
            )),
        ));
    }
    m.run_to_completion(Ns::from_secs(10))
        .expect("no kernel panic");
    stop_recording(session).expect("flushed");

    // Chop the tail off the log: replay must still terminate (the
    // coordinator times out on missing predecessors rather than hanging)
    // and report that the run was not faithful.
    let mut log = enoki::replay::load_log(&path).expect("parses");
    let keep = log.len() * 2 / 3;
    log.records.truncate(keep);
    let report = enoki::replay::replay(&log, 8, || Cfs::new(8));
    // A truncated log loses Ret records and lock predecessors; the replay
    // may diverge or time out, but must not deadlock.
    let _ = report.faithful();
}

#[test]
fn lossy_log_reaches_give_up_mode_and_terminates() {
    let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = tmp("lossy.log");
    record::reset_lock_ids();
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    // FIFO: once the coordinator gives up on ordering, cross-thread call
    // interleavings the live run never saw are possible; FIFO's plain
    // per-cpu queues tolerate them (CFS debug-asserts on double enqueue).
    m.add_class(Rc::new(EnokiClass::load("fifo", 8, Box::new(Fifo::new(8)))));
    let session = start_recording(&path, 1 << 20).expect("recorder");
    for i in 0..10 {
        m.spawn(TaskSpec::new(
            format!("t{i}"),
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(300)), Op::Sleep(Ns::from_us(100))],
                40,
            )),
        ));
    }
    m.run_to_completion(Ns::from_secs(10))
        .expect("no kernel panic");
    stop_recording(session).expect("flushed");

    // Simulate ring-overrun drops: delete every LockAcquire issued by the
    // busiest thread. The replay threads still perform those acquisitions,
    // so other threads wait for recorded predecessors that never arrive —
    // exactly the sequencing_timeouts path — until the coordinator gives
    // up on ordering and finishes under mutual exclusion only.
    let mut log = enoki::replay::load_log(&path).expect("parses");
    let mut per_tid = std::collections::HashMap::new();
    for r in log.iter() {
        if let enoki::core::record::Rec::LockAcquire { tid, .. } = r {
            *per_tid.entry(*tid).or_insert(0u64) += 1;
        }
    }
    assert!(per_tid.len() >= 2, "need multi-thread contention: {per_tid:?}");
    let busiest = *per_tid.iter().max_by_key(|(_, n)| **n).unwrap().0;
    log.records.retain(
        |r| !matches!(r, enoki::core::record::Rec::LockAcquire { tid, .. } if *tid == busiest),
    );

    let opts = enoki::replay::ReplayOptions {
        give_up_after: 3,
        wait_timeout: std::time::Duration::from_millis(5),
    };
    let report = enoki::replay::replay_with(&log, 8, opts, || Fifo::new(8));
    assert!(
        report.sequencing_timeouts >= opts.give_up_after,
        "expected the coordinator to time out into give-up mode, got {}",
        report.sequencing_timeouts
    );
    assert!(!report.faithful(), "a drop-lossy replay must not claim fidelity");
}
