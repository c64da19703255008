//! Every metric the benchmark prints, under the names `BENCHMARK.json`
//! declares (a unit test holds the two together).

#[cfg(test)]
use crate::{json::J, workloads::WORKLOADS};

/// Seconds one driver run measures; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// End-to-end metrics: `(name, unit, better, bound)`. Measured with
/// tracing off, on every workload.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("events_per_sec", "1/s", "higher", 0.25),
    ("wakeups_per_sec", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics: `(name, unit, better)`. Measured by the traced
/// pass; a workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str, &str); 58] = [
    ("sim.machine.self_ns_per_event", "ns", "lower"),
    ("core.dispatch.self_ns_per_call", "ns", "lower"),
    ("core.dispatch.calls_per_event", "count", "lower"),
    ("sched.policy.self_ns_per_call", "ns", "lower"),
    ("sched.policy.calls_per_event", "count", "lower"),
    ("sched.policy.pick_ns_per_call", "ns", "lower"),
    ("sched.policy.select_rq_ns_per_call", "ns", "lower"),
    ("sched.policy.balance_ns_per_call", "ns", "lower"),
    ("sim.event.push_pop_ns", "ns", "lower"),
    ("core.dispatch.seam_ns_per_call", "ns", "lower"),
    ("core.queue.push_pop_ns", "ns", "lower"),
    ("core.queue.batch_ns_per_msg", "ns", "lower"),
    ("core.record.encode_ns", "ns", "lower"),
    ("core.record.decode_ns", "ns", "lower"),
    ("ladder.ref_fifo_ns_per_event", "ns", "lower"),
    ("ladder.enoki_fifo_ns_per_event", "ns", "lower"),
    ("ladder.wfq_ns_per_event", "ns", "lower"),
    ("ladder.metrics_off_ns_per_event", "ns", "lower"),
    ("ladder.ledger_ns_per_event", "ns", "lower"),
    ("ladder.health_ns_per_event", "ns", "lower"),
    ("ladder.failsafe_ns_per_event", "ns", "lower"),
    ("ladder.flight_ns_per_event", "ns", "lower"),
    ("ladder.record_ns_per_event", "ns", "lower"),
    ("ladder.record_decisions_ns_per_event", "ns", "lower"),
    ("core.record.records_per_event", "count", "lower"),
    ("core.record.bytes_per_event", "B", "lower"),
    ("core.record.dropped", "count", "lower"),
    ("core.record.flush_s", "s", "lower"),
    ("core.replay.replay_s", "s", "lower"),
    ("core.replay.calls", "count", "higher"),
    ("core.replay.divergences", "count", "lower"),
    ("core.replay.sequencing_timeouts", "count", "lower"),
    ("core.forensics.load_s", "s", "lower"),
    ("core.forensics.attribute_s", "s", "lower"),
    ("core.tracing.graph_s", "s", "lower"),
    ("sim.cluster.shard_busy_frac", "frac", "higher"),
    ("sim.cluster.engine_self_frac", "frac", "lower"),
    ("sim.cluster.max_shard_busy_s", "s", "lower"),
    ("sim.cluster.speedup_2v1", "x", "higher"),
    ("sim.cluster.seq_events_per_sec", "1/s", "higher"),
    ("sim.cluster.epochs", "count", "lower"),
    ("sim.cluster.messages", "count", "lower"),
    ("workloads.fleet.shard_setup_s", "s", "lower"),
    ("core.native.us_per_wakeup", "us", "lower"),
    ("core.native.policy_ns_per_call", "ns", "lower"),
    ("core.native.dispatch_calls_per_wakeup", "count", "lower"),
    ("core.native.ticks", "count", "lower"),
    ("core.native.preemptions", "count", "lower"),
    ("sim.events", "count", "higher"),
    ("sim.pipe_us_per_msg", "us", "lower"),
    ("sim.schbench_rounds", "count", "higher"),
    ("sim.schbench_p99_ns", "ns", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.wall_ns_per_event", "ns", "lower"),
    ("trace.proxy_ns_per_span", "ns", "lower"),
    ("trace.machine_share", "frac", "lower"),
    ("trace.dispatch_share", "frac", "lower"),
    ("trace.policy_share", "frac", "lower"),
];

/// `BENCHMARK.json` as these tables define it, one entry per line.
#[cfg(test)]
pub fn benchmark_json() -> String {
    let metric = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", J::Str(name.into())),
            ("unit", J::Str(unit.into())),
            ("better", J::Str(better.into())),
        ]
    };
    let list = |key: &str, items: Vec<J>| {
        format!(
            "  \"{key}\": [\n{}\n  ]",
            items
                .iter()
                .map(|j| format!("    {j}"))
                .collect::<Vec<_>>()
                .join(",\n")
        )
    };
    let workloads = WORKLOADS.iter().map(|(name, why)| {
        J::obj(vec![
            ("name", J::Str(name.to_string())),
            ("why", J::Str(why.to_string())),
        ])
    });
    let e2e = END_TO_END.iter().map(|(n, u, b, bound)| {
        let mut m = metric(n, u, b);
        m.push(("bound", J::Num(*bound)));
        J::obj(m)
    });
    let layers = PER_LAYER.iter().map(|(n, u, b)| J::obj(metric(n, u, b)));
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n{},\n{},\n{}\n}}\n",
        list("workloads", workloads.collect()),
        list("end_to_end", e2e.collect()),
        list("per_layer", layers.collect()),
    )
}
