//! The repo's benchmark. `benchmark/run.sh` builds and runs this binary;
//! `benchmark/README.md` says what it measures and why.
//!
//! With `--workload` it runs one pass of one workload in this process and
//! prints its metrics, ending with the one-line JSON result the driver
//! reads. Without, it runs every workload, each pass in a fresh child
//! process (the repo's `metrics` / `record` / `flight` state is
//! process-global and must not leak between them), prints the tables and
//! writes `out/result.json`.

mod harness;
mod json;
mod micro;
mod names;
mod proxy;
mod report;
mod span;
#[cfg(test)]
mod tests;
mod workloads;

use harness::{calibrate_proxy, median, run_pass, upper_quartile, Cfg, Metrics};
use json::J;
use names::{PER_LAYER, RUN_SECONDS};
use span::Sink;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Command-line options.
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--quick" => a.quick = true,
            "--check-repeat" => a.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Where traces, scratch logs and `result.json` go: `run.sh` names the
/// checkout's `benchmark/out`.
fn out_dir() -> PathBuf {
    std::env::var_os("ENOKI_BENCHMARK_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// One metric as printed: value, unit, and the spread it was reduced from.
struct Row {
    name: &'static str,
    unit: &'static str,
    value: f64,
    min: f64,
    max: f64,
    n: usize,
}

fn reduced(
    name: &'static str,
    unit: &'static str,
    samples: &[f64],
    reduce: fn(&[f64]) -> f64,
) -> Row {
    let fold = |f: fn(f64, f64) -> f64, init| samples.iter().copied().fold(init, f);
    Row {
        name,
        unit,
        value: reduce(samples),
        min: fold(f64::min, f64::INFINITY),
        max: fold(f64::max, f64::NEG_INFINITY),
        n: samples.len(),
    }
}

/// One pass of one workload in this process.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let cfg = Cfg {
        seed: args.seed,
        quick: args.quick,
        out: out_dir(),
    };
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let mut w = workloads::by_name(name, &cfg).ok_or(format!("unknown workload {name}"))?;
    // Quick mode runs the minimum number of repetitions and stops.
    let seconds = if args.quick { 0.0 } else { args.seconds };
    let sink = args.trace.then(|| Arc::new(Sink::new()));
    let mut pass = run_pass(w.as_mut(), seconds, sink.as_ref());
    let sim = pass.untraced[0].sim.clone();

    let mut rows = Vec::new();
    let per = |f: fn(&harness::Rep) -> f64, reps: &[harness::Rep]| {
        reps.iter().map(f).collect::<Vec<f64>>()
    };
    if let Some(sink) = &sink {
        let mut m: Metrics = Vec::new();
        let mut checks = harness::Rep::default();
        w.layers(sink, &pass.traced, &pass.untraced, &mut m, &mut checks);
        pass.attempted += checks.attempted;
        pass.failed += checks.failed;
        pass.notes.extend(checks.notes);
        let wall = |reps| median(&per(|r| r.wall_s, reps));
        m.push((
            "trace.overhead_frac",
            wall(&pass.traced) / wall(&pass.untraced) - 1.0,
        ));
        m.push(("trace.proxy_ns_per_span", calibrate_proxy()));
        m.extend([
            ("sim.events", sim.events as f64),
            ("sim.pipe_us_per_msg", sim.pipe_us_per_msg),
            ("sim.schbench_rounds", sim.schbench_rounds as f64),
            ("sim.schbench_p99_ns", sim.schbench_p99_ns as f64),
        ]);
        for (name, unit, _) in PER_LAYER {
            let v = m.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
            rows.push(Row {
                name,
                unit,
                value: v,
                min: v,
                max: v,
                n: 1,
            });
        }
        let trace = cfg.out.join(format!("trace_{name}.json"));
        std::fs::write(&trace, sink.chrome_trace(name))
            .map_err(|e| format!("{}: {e}", trace.display()))?;
        println!("# spans by (layer, callback): count, total ms");
        for (layer, cb, count, ns) in sink.rows() {
            println!("#   {layer:?}.{cb}\t{count}\t{:.3}", ns as f64 / 1e6);
        }
    } else {
        rows.push(reduced(
            "events_per_sec",
            "1/s",
            &per(|r| r.events as f64 / r.wall_s, &pass.untraced),
            upper_quartile,
        ));
        rows.push(reduced(
            "wakeups_per_sec",
            "1/s",
            &per(|r| r.wakeups as f64 / r.wall_s, &pass.untraced),
            upper_quartile,
        ));
        let rss = pass.peak_rss_mb;
        rows.push(Row {
            name: "peak_rss_mb",
            unit: "MiB",
            value: rss,
            min: rss,
            max: rss,
            n: 1,
        });
        rows.push(reduced("setup_s", "s", &pass.setups, median));
    }

    let correct = pass.failed == 0;
    println!(
        "# timed repetitions, wall s: {:?}",
        per(|r| r.wall_s, &pass.untraced)
    );
    println!(
        "# {name} seed={} seconds={seconds} trace={} quick={}",
        args.seed, args.trace as u8, args.quick
    );
    println!("# metric\tvalue\tunit\tmin\tmax\tn");
    for r in &rows {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            r.name, r.value, r.unit, r.min, r.max, r.n
        );
    }
    println!("sim\t{sim}");
    println!("ops\t{}\t{}", pass.attempted, pass.failed);
    for n in &pass.notes {
        println!("note\t{n}");
    }
    let metrics = rows
        .iter()
        .map(|r| {
            (
                r.name,
                J::obj(vec![
                    ("value", J::Num(r.value)),
                    ("unit", J::Str(r.unit.into())),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        J::obj(vec![
            ("correct", J::Bool(correct)),
            ("attempted", J::Int(pass.attempted.max(1))),
            ("failed", J::Int(pass.failed)),
            ("metrics", J::obj(metrics)),
        ])
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("enoki-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => run_workload(name, &args),
        None => report::run_all(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("enoki-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
