//! Hot-path overhaul guarantees, proven at machine level: swapping the
//! event queue's timer wheel for the retained heap oracle must not move a
//! single traced event. The unit-level differential test in
//! `enoki_sim::event` already proves identical pop order on raw event
//! streams; these tests close the loop through the whole simulator —
//! dispatch, ticks, sleeps, IPC, migrations — by hashing the schedviz
//! trace of complete runs.

use enoki::core::flight::fnv1a;
use enoki::core::metrics::export;
use enoki::sim::behavior::{Op, ProgramBehavior};
use enoki::sim::rng::SmallRng;
use enoki::sim::{CostModel, Ns, TaskSpec, Topology};
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

/// Runs the scene to completion and returns (trace hash, traced-event
/// count, context switches): the trace hash covers per-cpu spans and
/// migrations with timestamps, so any divergence in event ordering
/// between queue implementations lands in it.
fn run_scene(
    topo: Topology,
    kind: SchedKind,
    seed: u64,
    reference_queue: bool,
) -> (u64, usize, u64) {
    let nr_cpus = topo.nr_cpus();
    let mut bed = build(topo, CostModel::calibrated(), kind, BedOptions::default());
    if reference_queue {
        bed.machine.use_reference_event_queue();
    }
    bed.machine.enable_trace(1 << 18);
    spawn_random_scene(&mut bed, seed);
    assert!(bed
        .machine
        .run_to_completion(Ns::from_secs(2))
        .expect("no kernel panic"));
    let tracer = bed.machine.tracer().expect("tracing armed");
    let json = export::chrome_trace_from_sim(tracer, nr_cpus, bed.machine.now());
    export::validate_json(&json).expect("trace JSON is valid");
    (
        fnv1a(json.as_bytes()),
        tracer.len(),
        bed.machine.stats().nr_context_switches,
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
            let wheel = run_scene(topo.clone(), kind, seed, false);
            let heap = run_scene(topo.clone(), kind, seed, true);
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
        let got = SEEDS.map(|seed| run_scene(topo.clone(), SchedKind::Cfs, seed, false));
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
    let a = run_scene(Topology::i7_9700(), SchedKind::Wfq, 1, false);
    let b = run_scene(Topology::i7_9700(), SchedKind::Wfq, 2, false);
    assert_ne!(a.0, b.0, "seeds 1 and 2 hashed identically");
}
