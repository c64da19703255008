//! The benchmark's own checks: the proxies change nothing the simulator
//! computes, and `BENCHMARK.json` is what `names.rs` says it is.

use crate::harness::{upper_quartile, Cfg, Rep, SimStats};
use crate::names::benchmark_json;
use crate::span::{Kind, Layer, Sink};
use crate::workloads::by_name;
use std::sync::Arc;

fn one_rep(name: &str, cfg: &Cfg, sink: Option<&Arc<Sink>>) -> Rep {
    let mut w = by_name(name, cfg).expect("known workload");
    let run = w.prepare(sink);
    run()
}

/// Every simulated statistic (events, pipe µs/msg, schbench rounds and
/// p99, fleet digest) is identical with and without the timing proxies,
/// and the proxies saw the calls. One test, because record mode is
/// process-global and tests run on parallel threads.
#[test]
fn proxies_do_not_change_simulated_statistics() {
    let out = std::env::temp_dir().join(format!("enoki-benchmark-test-{}", std::process::id()));
    std::fs::create_dir_all(&out).unwrap();
    let cfg = Cfg {
        seed: 7,
        quick: true,
        out: out.clone(),
    };
    for name in ["pipe_wfq", "schbench_cfs80", "pipe_record", "fleet_2t"] {
        let plain = one_rep(name, &cfg, None);
        let sink = Arc::new(Sink::new());
        let proxied = one_rep(name, &cfg, Some(&sink));
        assert_ne!(
            plain.sim,
            SimStats::default(),
            "{name}: nothing was simulated"
        );
        assert_eq!(
            plain.sim, proxied.sim,
            "{name}: the proxies changed the simulation"
        );
        assert_eq!(
            (plain.failed, proxied.failed),
            (0, 0),
            "{name}: {:?} {:?}",
            plain.notes,
            proxied.notes
        );
        assert_eq!(sink.count(Kind::Run), 1, "{name}: the run span is missing");
        let layer = if name == "fleet_2t" {
            Layer::Shard
        } else {
            Layer::Policy
        };
        assert!(
            sink.layer(layer).0 > 0,
            "{name}: no {layer:?} span was recorded"
        );
        if name == "pipe_wfq" {
            // Spans nest: the policy's time is inside dispatch's, dispatch's inside the run.
            let (run, dispatch, policy) = (
                sink.ns(Kind::Run),
                sink.layer(Layer::Dispatch),
                sink.layer(Layer::Policy),
            );
            assert_eq!(
                dispatch.0, policy.0,
                "WFQ gets one message per class callback on this workload"
            );
            assert!(
                policy.1 < dispatch.1 && dispatch.1 < run,
                "policy {} < dispatch {} < run {run}",
                policy.1,
                dispatch.1
            );
            let trace = sink.chrome_trace(name);
            assert!(trace.starts_with("{\"traceEvents\": [{") && trace.ends_with("]}"));
        }
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let committed = include_str!("../../BENCHMARK.json");
    assert!(
        committed == benchmark_json(),
        "BENCHMARK.json is stale; it should read:\n{}",
        benchmark_json()
    );
}

/// Same values as Python's `statistics.quantiles(v, n=4)[2]`.
#[test]
fn upper_quartile_matches_pythons_exclusive_method() {
    assert_eq!(upper_quartile(&[3.0, 1.0, 2.0]), 3.0);
    assert_eq!(upper_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), 6.0);
    assert_eq!(
        upper_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
        8.25
    );
    assert_eq!(upper_quartile(&[5.0]), 5.0);
}
