//! Ablation: how the framework's per-call overhead shapes the pipe
//! benchmark. The two-core pipe it runs makes 7 framework calls per
//! message (`tests/hotpaths.rs` pins the count); the slope of 4 it prints
//! counts only the calls on a message's critical path. 125 ns is the
//! paper's per-invocation figure (§5.2), used here as an input, so the
//! sweep shows what a faster or slower FFI layer would buy.

use enoki_bench::header;
use enoki_bench::report::Report;
use enoki_core::EnokiClass;
use enoki_sched::Wfq;
use enoki_sim::behavior::{Op, ProgramBehavior};
use enoki_sim::{CostModel, Machine, Ns, TaskSpec, Topology};
use std::rc::Rc;

fn pipe_with_overhead(overhead: Ns, rounds: u64) -> f64 {
    let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
    m.add_class(Rc::new(EnokiClass::with_overhead(
        "wfq",
        8,
        Box::new(Wfq::new(8)),
        overhead,
    )));
    let ab = m.create_pipe();
    let ba = m.create_pipe();
    m.spawn(TaskSpec::new(
        "ping",
        0,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeWrite(ab), Op::PipeRead(ba)],
            rounds,
        )),
    ));
    m.spawn(TaskSpec::new(
        "pong",
        0,
        Box::new(ProgramBehavior::repeat(
            vec![Op::PipeRead(ab), Op::PipeWrite(ba)],
            rounds,
        )),
    ));
    m.run_to_completion(Ns::from_secs(120)).expect("completes");
    let end = (0..2)
        .filter_map(|p| m.task(p).exited_at)
        .max()
        .expect("done");
    end.as_nanos() as f64 / (rounds * 2) as f64 / 1000.0
}

fn main() {
    let rounds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    println!("Ablation: per-call framework overhead vs pipe latency ({rounds} round trips)\n");
    header(&["per-call ns", "µs/msg", "delta vs native"], &[12, 9, 16]);
    let native = pipe_with_overhead(Ns::ZERO, rounds);
    let mut report = Report::new("ablation_overhead");
    report
        .param("round_trips", rounds)
        .param("native_us_per_msg", native);
    for oh in [0u64, 50, 100, 125, 150, 250, 500, 1000] {
        let us = pipe_with_overhead(Ns(oh), rounds);
        report.row(&[
            ("per_call_ns", oh.into()),
            ("us_per_msg", us.into()),
            ("delta_vs_native_us", (us - native).into()),
        ]);
        println!("{:>12} {:>9.2} {:>15.2}µs", oh, us, us - native);
    }
    report.emit();
    println!();
    println!("paper: ~125 ns/call × 4-5 calls per schedule op = 0.4-0.6 µs per message,");
    println!("the 12-20% WFQ-over-CFS overhead in Table 3.");
}
