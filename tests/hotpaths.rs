//! Hot-path overhaul guarantees, proven at machine level: swapping the
//! event queue's timer wheel for the retained heap oracle must not move a
//! single traced event. The unit-level differential test in
//! `enoki_sim::event` already proves identical pop order on raw event
//! streams; these tests close the loop through the whole simulator —
//! dispatch, ticks, sleeps, IPC, migrations — by hashing the schedviz
//! trace of complete runs. The same scenes pin that arming telemetry
//! does not move the schedule, and the pipe benchmark pins how many
//! framework calls one message costs.

use enoki::core::flight::{self, fnv1a};
use enoki::core::health::HealthConfig;
use enoki::core::metrics::export;
use enoki::core::FlightSpec;
use enoki::replay::{start_recording, stop_recording};
use enoki::sim::behavior::{Op, ProgramBehavior};
use enoki::sim::rng::SmallRng;
use enoki::sim::{CostModel, Ns, TaskSpec, Topology};
use enoki::workloads::pipe::{run_pipe_on, PipeConfig};
use enoki::workloads::testbed::{build, BedOptions, SchedKind, TestBed};

/// A seed-derived scene mixing every event source the machine has:
/// compute bursts, sleeps (timer events), pipe IPC, staggered arrivals,
/// and pinned tasks (migration pressure stays deterministic).
fn spawn_random_scene(bed: &mut TestBed, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nr_cpus = bed.machine.topology().nr_cpus();
    let (ab, ba) = (bed.machine.create_pipe(), bed.machine.create_pipe());
    bed.machine.spawn(TaskSpec::new(
        "ping",
        bed.class_idx,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeWrite(ab), Op::PipeRead(ba)],
            40,
        )),
    ));
    bed.machine.spawn(TaskSpec::new(
        "pong",
        bed.class_idx,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeRead(ab), Op::PipeWrite(ba)],
            40,
        )),
    ));
    for i in 0..24 {
        let mut ops = Vec::new();
        for _ in 0..(1 + rng.next_u64() % 4) {
            match rng.next_u64() % 3 {
                0 => ops.push(Op::Compute(Ns::from_us(20 + rng.next_u64() % 3_000))),
                1 => ops.push(Op::Sleep(Ns::from_us(50 + rng.next_u64() % 20_000))),
                _ => ops.push(Op::Compute(Ns(200 + rng.next_u64() % 5_000))),
            }
        }
        let reps = 1 + rng.next_u64() % 6;
        let mut spec = TaskSpec::new(
            format!("t{i}"),
            bed.class_idx,
            Box::new(ProgramBehavior::repeat(ops, reps)),
        )
        .at(Ns::from_us(rng.next_u64() % 5_000));
        if rng.next_u64().is_multiple_of(3) {
            spec = spec.on_cpu((rng.next_u64() % nr_cpus as u64) as usize);
        }
        bed.machine.spawn(spec);
    }
}

/// How much telemetry a scene runs under. Each level arms everything the
/// levels before it arm, plus one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Arm {
    Bare,
    Ledger,
    Health,
    Failsafe,
    Flight,
    Record,
}

const ARMS: [Arm; 6] = [
    Arm::Bare,
    Arm::Ledger,
    Arm::Health,
    Arm::Failsafe,
    Arm::Flight,
    Arm::Record,
];

/// Runs the scene to completion under `arm` and returns (trace hash,
/// traced-event count, context switches, events): the trace hash covers
/// per-cpu spans and migrations with timestamps, so any divergence in
/// event ordering between queue implementations lands in it.
///
/// Flight and record arming are process-global; only
/// [`arming_telemetry_does_not_move_the_schedule`] arms them, and it
/// disarms both before it returns.
fn run_scene(
    topo: Topology,
    kind: SchedKind,
    seed: u64,
    reference_queue: bool,
    arm: Arm,
) -> (u64, usize, u64, u64) {
    let nr_cpus = topo.nr_cpus();
    let opts = BedOptions {
        health: (arm >= Arm::Health).then(HealthConfig::default),
        ..BedOptions::default()
    };
    let mut bed = build(topo, CostModel::calibrated(), kind, opts);
    if reference_queue {
        bed.machine.use_reference_event_queue();
    }
    if let Some(class) = bed.enoki.as_ref().filter(|_| arm >= Arm::Ledger) {
        class.arm_token_ledger();
        if arm >= Arm::Failsafe {
            class.arm_failsafe();
        }
    }
    let dir = std::env::temp_dir().join(format!("enoki-hotpaths-{}", std::process::id()));
    if arm >= Arm::Flight {
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let spec = FlightSpec {
            capacity: 1 << 12,
            dir: dir.clone(),
            ..FlightSpec::default()
        };
        flight::arm(spec, String::new(), None);
    }
    let session = (arm >= Arm::Record)
        .then(|| start_recording(&dir.join("scene.log"), 1 << 20).expect("record log is writable"));
    bed.machine.enable_trace(1 << 18);
    spawn_random_scene(&mut bed, seed);
    let finished = bed.machine.run_to_completion(Ns::from_secs(2));
    if let Some(session) = session {
        let written = stop_recording(session).expect("record log flushes");
        assert!(written > 0, "{kind:?}: the record level wrote no records");
    }
    if arm >= Arm::Flight {
        flight::disarm();
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(finished.expect("no kernel panic"));
    let tracer = bed.machine.tracer().expect("tracing armed");
    let json = export::chrome_trace_from_sim(tracer, nr_cpus, bed.machine.now());
    export::validate_json(&json).expect("trace JSON is valid");
    (
        fnv1a(json.as_bytes()),
        tracer.len(),
        bed.machine.stats().nr_context_switches,
        bed.machine.events_processed(),
    )
}

const SEEDS: [u64; 3] = [7, 0xDEAD_BEEF, 31_337];

#[test]
fn timer_wheel_and_heap_produce_identical_schedviz_traces() {
    let cases = [
        (Topology::i7_9700(), SchedKind::Wfq),
        (Topology::i7_9700(), SchedKind::Cfs),
        (Topology::xeon_6138_2s(), SchedKind::Cfs),
    ];
    for (topo, kind) in cases {
        let cpus = topo.nr_cpus();
        for seed in SEEDS {
            let wheel = run_scene(topo.clone(), kind, seed, false, Arm::Bare);
            let heap = run_scene(topo.clone(), kind, seed, true, Arm::Bare);
            assert_eq!(
                wheel, heap,
                "{kind:?}/{cpus} cpus seed {seed}: (trace hash, events, ctx switches) diverged between wheel and heap"
            );
            assert!(
                wheel.1 > 0,
                "{kind:?}/{cpus} cpus seed {seed}: empty trace proves nothing"
            );
        }
    }
}

/// Golden CFS schedules, one per seed in [`SEEDS`] order: (trace hash,
/// traced events, context switches). On the two-node machine the NUMA
/// branches of `select_task_rq` and `balance` run, so a change to how CFS
/// reads its queues that moves any placement or steal decision moves a
/// pin.
const CFS_I7_9700: [(u64, usize, u64); 3] = [
    (0xe6fb_be31_2017_b820, 447, 151),
    (0x301a_094a_7c7a_c8b4, 629, 214),
    (0x873e_af83_cbd1_5401, 477, 160),
];
const CFS_XEON_6138_2S: [(u64, usize, u64); 3] = [
    (0x63ea_b7d7_fbf3_825a, 448, 149),
    (0xf019_13b0_dd46_8de8, 628, 209),
    (0x8315_9622_187d_5198, 477, 159),
];

#[test]
fn cfs_schedules_match_golden_pins() {
    for (topo, pins) in [
        (Topology::i7_9700(), CFS_I7_9700),
        (Topology::xeon_6138_2s(), CFS_XEON_6138_2S),
    ] {
        let cpus = topo.nr_cpus();
        let got = SEEDS.map(|seed| {
            let (hash, traced, switches, _) =
                run_scene(topo.clone(), SchedKind::Cfs, seed, false, Arm::Bare);
            (hash, traced, switches)
        });
        assert_eq!(
            got, pins,
            "CFS/{cpus} cpus, seeds {SEEDS:?}: got {:x?}",
            got
        );
    }
}

/// The trace hash is not vacuously stable: different seeds must produce
/// different traces, or the differential assertion above is comparing
/// constants.
#[test]
fn trace_hash_is_seed_sensitive() {
    let a = run_scene(Topology::i7_9700(), SchedKind::Wfq, 1, false, Arm::Bare);
    let b = run_scene(Topology::i7_9700(), SchedKind::Wfq, 2, false, Arm::Bare);
    assert_ne!(a.0, b.0, "seeds 1 and 2 hashed identically");
}

/// The observer effect is zero: arming the token ledger, health
/// telemetry, the failsafe, the flight recorder and the record log, one
/// at a time, leaves (trace hash, traced events, context switches,
/// events) exactly where the bare run put them.
#[test]
fn arming_telemetry_does_not_move_the_schedule() {
    for kind in [
        SchedKind::Fifo,
        SchedKind::Wfq,
        SchedKind::Cfs,
        SchedKind::Shinjuku,
    ] {
        for seed in [7, 31_337] {
            let bare = run_scene(Topology::i7_9700(), kind, seed, false, Arm::Bare);
            assert!(
                bare.1 > 0,
                "{kind:?} seed {seed}: empty trace proves nothing"
            );
            for arm in &ARMS[1..] {
                let armed = run_scene(Topology::i7_9700(), kind, seed, false, *arm);
                assert_eq!(
                    armed, bare,
                    "{kind:?} seed {seed}: arming up to {arm:?} moved (trace hash, traced events, ctx switches, events)"
                );
            }
        }
    }
}

/// Framework calls per pipe message, counted from `EnokiClass::stats()`
/// over the difference of two run lengths so start-up and exit calls
/// cancel: (policy, calls per message pinned to one core, calls per
/// message on two cores). Both runs end before the first timer tick, so
/// every counted call is driven by a message. The slope of Table 3's
/// virtual time against the per-call overhead is 4, the calls on the
/// message's critical path; these are every call the framework makes.
const CALLS_PER_MSG: [(SchedKind, u64, u64); 4] = [
    (SchedKind::Wfq, 5, 7),
    (SchedKind::Fifo, 5, 7),
    (SchedKind::Cfs, 5, 7),
    (SchedKind::Shinjuku, 4, 7),
];

#[test]
fn pipe_messages_cost_a_pinned_number_of_framework_calls() {
    let calls = |kind, one_core, round_trips| {
        let mut bed = build(
            Topology::i7_9700(),
            CostModel::calibrated(),
            kind,
            BedOptions::default(),
        );
        let r = run_pipe_on(
            &mut bed,
            PipeConfig {
                round_trips,
                one_core,
            },
        );
        assert_eq!(
            bed.machine.stats().nr_ticks,
            0,
            "{kind:?}: a tick landed in the run"
        );
        (bed.enoki.expect("an Enoki class").stats().calls, r.messages)
    };
    for (kind, one_core_calls, two_core_calls) in CALLS_PER_MSG {
        for (one_core, want) in [(true, one_core_calls), (false, two_core_calls)] {
            let (short, short_msgs) = calls(kind, one_core, 100);
            let (long, long_msgs) = calls(kind, one_core, 200);
            let msgs = long_msgs - short_msgs;
            assert_eq!(
                long - short,
                want * msgs,
                "{kind:?} one_core={one_core}: {} calls over {msgs} messages, pinned {want} per message",
                long - short
            );
        }
    }
}
