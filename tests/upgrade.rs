//! Integration tests for live upgrade (paper §3.2): state transfer across
//! versions, queue survival, upgrades under load, and blackout bounds.

use enoki::core::EnokiClass;
use enoki::sched::cfs::native_cfs_class;
use enoki::sched::locality::HINT_LOCALITY;
use enoki::sched::{Cfs, Locality, Shinjuku, Wfq};
use enoki::sim::behavior::{HintVal, Op, ProgramBehavior};
use enoki::sim::{CostModel, Machine, Ns, TaskSpec, Topology};
use std::rc::Rc;

fn pipe_pair(m: &mut Machine, rounds: u64) -> (usize, usize) {
    let ab = m.create_pipe();
    let ba = m.create_pipe();
    let a = m.spawn(TaskSpec::new(
        "ping",
        0,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeWrite(ab), Op::PipeRead(ba)],
            rounds,
        )),
    ));
    let b = m.spawn(TaskSpec::new(
        "pong",
        0,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeRead(ab), Op::PipeWrite(ba)],
            rounds,
        )),
    ));
    (a, b)
}

#[test]
fn repeated_upgrades_under_load_lose_nothing() {
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    let class = Rc::new(EnokiClass::load("wfq", 8, Box::new(Wfq::new(8))));
    m.add_class(class.clone());
    let (a, b) = pipe_pair(&mut m, 20_000);
    for _ in 0..20 {
        let next = m.now() + Ns::from_ms(5);
        m.run_until(next).expect("no kernel panic");
        let report = class.upgrade(Box::new(Wfq::new(8)));
        assert!(report.transferred);
    }
    assert!(m
        .run_to_completion(Ns::from_secs(60))
        .expect("no kernel panic"));
    assert!(m.task(a).exited_at.is_some());
    assert!(m.task(b).exited_at.is_some());
    assert_eq!(class.stats().upgrades, 20);
    assert_eq!(class.stats().pnt_errs, 0);
}

#[test]
fn shinjuku_upgrade_preserves_fcfs_order() {
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    let class = Rc::new(EnokiClass::load("shinjuku", 8, Box::new(Shinjuku::new(8))));
    m.add_class(class.clone());
    let mut pids = Vec::new();
    for i in 0..20 {
        pids.push(m.spawn(TaskSpec::new(
            format!("t{i}"),
            0,
            Box::new(ProgramBehavior::once(vec![Op::Compute(Ns::from_ms(1))])),
        )));
    }
    m.run_until(Ns::from_us(500)).expect("no kernel panic");
    let report = class.upgrade(Box::new(Shinjuku::new(8)));
    assert!(report.transferred);
    assert!(m
        .run_to_completion(Ns::from_secs(10))
        .expect("no kernel panic"));
    for &p in &pids {
        assert!(m.task(p).exited_at.is_some(), "task {p} lost in upgrade");
    }
}

#[test]
fn hint_queues_survive_upgrade() {
    // Paper §3.3: "Queues can be shared across a live upgrade as long as
    // both versions of the scheduler use the same hint data structures."
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    let class = Rc::new(EnokiClass::load("locality", 8, Box::new(Locality::new(8))));
    m.add_class(class.clone());
    class.register_user_queue(256);

    // Hint two tasks into group 5 before the upgrade.
    m.spawn(TaskSpec::new(
        "hinter",
        0,
        Box::new(ProgramBehavior::with_prelude(
            vec![
                Op::Hint(HintVal {
                    kind: HINT_LOCALITY,
                    a: 1,
                    b: 5,
                    c: 0,
                }),
                Op::Hint(HintVal {
                    kind: HINT_LOCALITY,
                    a: 2,
                    b: 5,
                    c: 0,
                }),
            ],
            vec![Op::Sleep(Ns::from_ms(1))],
            Some(50),
        )),
    ));
    for i in 1..3 {
        m.spawn(TaskSpec::new(
            format!("w{i}"),
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(20)), Op::Sleep(Ns::from_us(200))],
                200,
            )),
        ));
    }
    m.run_until(Ns::from_ms(5)).expect("no kernel panic");

    // Upgrade: the locality transfer includes group assignments AND the
    // registered hint queue.
    let report = class.upgrade(Box::new(Locality::new(8)));
    assert!(report.transferred);

    // Hints sent after the upgrade must still flow through the same queue.
    m.run_until(Ns::from_ms(30)).expect("no kernel panic");
    assert!(class.stats().hints_delivered >= 2);
    // Group co-location survives the upgrade.
    assert_eq!(m.task(1).cpu, m.task(2).cpu, "group split by the upgrade");
}

#[test]
fn blackout_is_microseconds_even_on_big_machine() {
    let mut m = Machine::new(Topology::xeon_6138_2s(), CostModel::calibrated());
    let class = Rc::new(EnokiClass::load("wfq", 80, Box::new(Wfq::new(80))));
    m.add_class(class.clone());
    for i in 0..100 {
        m.spawn(TaskSpec::new(
            format!("t{i}"),
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(500)), Op::Sleep(Ns::from_us(100))],
                100,
            )),
        ));
    }
    m.run_until(Ns::from_ms(10)).expect("no kernel panic");
    // Warm up the allocator, then measure several upgrades.
    let mut worst = std::time::Duration::ZERO;
    for _ in 0..10 {
        let next = m.now() + Ns::from_ms(2);
        m.run_until(next).expect("no kernel panic");
        let report = class.upgrade(Box::new(Wfq::new(80)));
        worst = worst.max(report.blackout);
    }
    // The paper measures ~10 µs on this machine; allow generous headroom
    // for CI noise but stay far below "reboot" territory.
    assert!(worst.as_micros() < 5_000, "blackout {worst:?}");
}

/// Per-task `(exited_at, preemptions, voluntary switches)` and the
/// machine's context-switch total for 120 compute/sleep tasks under native
/// CFS on the two-node machine, live-upgrading CFS to a fresh instance
/// `upgrades` times, 1 ms apart.
fn cfs_run_with_upgrades(upgrades: usize) -> (Vec<(Option<Ns>, u64, u64)>, u64) {
    let mut m = Machine::new(Topology::xeon_6138_2s(), CostModel::calibrated());
    let class = Rc::new(native_cfs_class(80));
    m.add_class(class.clone());
    let pids: Vec<usize> = (0..120)
        .map(|i| {
            m.spawn(TaskSpec::new(
                format!("t{i}"),
                0,
                Box::new(ProgramBehavior::repeat(
                    vec![
                        Op::Compute(Ns::from_us(300 + 7 * i)),
                        Op::Sleep(Ns::from_us(150)),
                    ],
                    8,
                )),
            ))
        })
        .collect();
    for _ in 0..upgrades {
        let next = m.now() + Ns::from_ms(1);
        m.run_until(next).expect("no kernel panic");
        let report = class.upgrade(Box::new(Cfs::new(80)));
        assert!(report.transferred, "CFS must hand its queues over");
    }
    assert!(m
        .run_to_completion(Ns::from_secs(10))
        .expect("no kernel panic"));
    assert_eq!(class.stats().upgrades, upgrades as u64);
    let tasks = pids
        .iter()
        .map(|&p| {
            let t = m.task(p);
            (t.exited_at, t.nr_preemptions, t.nr_voluntary)
        })
        .collect();
    (tasks, m.stats().nr_context_switches)
}

#[test]
fn cfs_upgrades_keep_the_schedule() {
    let (plain, switches) = cfs_run_with_upgrades(0);
    assert!(plain.iter().all(|t| t.0.is_some()), "every task exits");
    let (upgraded, upgraded_switches) = cfs_run_with_upgrades(5);
    assert_eq!(upgraded_switches, switches, "context switches moved");
    for (pid, (a, b)) in plain.iter().zip(&upgraded).enumerate() {
        assert_eq!(
            a, b,
            "task {pid}: (exited_at, preemptions, voluntary) moved"
        );
    }
}
