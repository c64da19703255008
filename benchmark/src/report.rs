//! The full run: every workload, each pass in a fresh child process, the
//! printed tables, `--check-repeat`, and `out/result.json`.

use crate::json::J;
use crate::names::END_TO_END;
use crate::workloads::WORKLOADS;
use crate::{out_dir, Args};
use std::process::Command;

/// A metric row read back from a child: `(name, value, unit, min, max, n)`.
type Row = (String, f64, String, f64, f64, u64);

/// What one child (one pass of one workload) printed.
#[derive(Default)]
struct Child {
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// The simulated statistics, as printed: must repeat exactly.
    sim: String,
}

impl Child {
    fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }
}

/// Runs one pass of `workload` in a child process and reads its
/// tab-separated rows (plain `split`, no parser).
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            trace as u8,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut child = Child::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |s: &str| s.parse::<f64>().unwrap_or(f64::NAN);
        match f.as_slice() {
            [first, ..] if first.starts_with('#') => {}
            [name, value, unit, min, max, n] => child.rows.push((
                name.to_string(),
                num(value),
                unit.to_string(),
                num(min),
                num(max),
                num(n) as u64,
            )),
            ["ops", attempted, failed] => {
                (child.attempted, child.failed) = (num(attempted) as u64, num(failed) as u64)
            }
            ["note", text] => child.notes.push(text.to_string()),
            ["sim", stats] => child.sim = stats.to_string(),
            _ => {}
        }
    }
    Ok(child)
}

fn host() -> Vec<(&'static str, J)> {
    // cores, CPU model, compiler and profile: a number means little without them.
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or("unknown")
        .trim()
        .to_string();
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    vec![
        (
            "cores",
            J::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu_model", J::Str(model)),
        ("rustc", J::Str(rustc)),
        (
            "profile",
            J::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ]
}

/// Four decimals, or three significant digits for small values.
fn num(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn spread(r: &Row) -> f64 {
    (r.4 - r.3) / r.1
}

/// Prints the ladder rungs of one child with each rung's delta to the
/// rung it is compared with (`ledger` with `wfq`, every other rung with
/// the one before it).
fn print_ladder(child: &Child) {
    let rungs: Vec<&Row> = child
        .rows
        .iter()
        .filter(|r| r.0.starts_with("ladder.") && r.1 > 0.0)
        .collect();
    for (i, r) in rungs.iter().enumerate() {
        let base = match r.0.as_str() {
            "ladder.ledger_ns_per_event" => child.value("ladder.wfq_ns_per_event"),
            _ => i.checked_sub(1).map(|p| rungs[p].1),
        };
        let delta = base.map_or(String::new(), |b| format!("  ({:+.1} ns)", r.1 - b));
        println!("    {:<40} {:>14.3} ns{delta}", r.0, r.1);
    }
}

/// Runs everything and reports. `Ok(false)` when an operation failed or a
/// repeat check missed its bound.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let host = J::obj(host());
    println!("host: {host}");
    println!(
        "seed {}  seconds/pass {}  quick {}\n",
        args.seed, args.seconds, args.quick
    );

    let untraced_pass = || {
        WORKLOADS
            .iter()
            .map(|w| run_child(w.0, args, false))
            .collect::<Result<Vec<_>, _>>()
    };
    let first = untraced_pass()?;
    let second = if args.check_repeat {
        Some(untraced_pass()?)
    } else {
        None
    };
    let traced = WORKLOADS
        .iter()
        .map(|w| run_child(w.0, args, true))
        .collect::<Result<Vec<_>, _>>()?;

    let mut ok = true;
    let mut workloads_json = Vec::new();
    for (i, (name, _)) in WORKLOADS.iter().enumerate() {
        let (e2e, layers) = (&first[i], &traced[i]);
        let failed = e2e.failed + layers.failed;
        ok &= failed == 0;
        println!(
            "{name}: ops attempted {} failed {failed}",
            e2e.attempted + layers.attempted
        );
        for note in e2e.notes.iter().chain(&layers.notes) {
            println!("    FAILED {note}");
        }
        for r in &e2e.rows {
            println!(
                "    {:<40} {:>14} {:<5} min {} max {} n {} spread_frac {:.3}",
                r.0,
                num(r.1),
                r.2,
                num(r.3),
                num(r.4),
                r.5,
                spread(r)
            );
        }
        for r in layers
            .rows
            .iter()
            .filter(|r| r.1 != 0.0 && !r.0.starts_with("ladder."))
        {
            println!("    {:<40} {:>14} {}", r.0, num(r.1), r.2);
        }
        print_ladder(layers);
        println!();
        let e2e_json = e2e.rows.iter().map(|r| {
            let cell = vec![
                ("value", J::Num(r.1)),
                ("unit", J::Str(r.2.clone())),
                ("min", J::Num(r.3)),
                ("max", J::Num(r.4)),
                ("n", J::Int(r.5)),
                ("spread_frac", J::Num(spread(r))),
            ];
            (r.0.clone(), J::obj(cell))
        });
        let layers_json = layers.rows.iter().map(|r| {
            (
                r.0.clone(),
                J::obj(vec![("value", J::Num(r.1)), ("unit", J::Str(r.2.clone()))]),
            )
        });
        workloads_json.push((
            name.to_string(),
            J::obj(vec![
                ("quick", J::Bool(args.quick)),
                ("correct", J::Bool(failed == 0)),
                ("ops_attempted", J::Int(e2e.attempted + layers.attempted)),
                ("ops_failed", J::Int(failed)),
                (
                    "notes",
                    J::Arr(
                        e2e.notes
                            .iter()
                            .chain(&layers.notes)
                            .map(|n| J::Str(n.clone()))
                            .collect(),
                    ),
                ),
                ("sim", J::Str(e2e.sim.clone())),
                ("end_to_end", J::Obj(e2e_json.collect())),
                ("per_layer", J::Obj(layers_json.collect())),
            ]),
        ));
    }

    let mut repeat_json = Vec::new();
    if let Some(second) = &second {
        println!(
            "check-repeat: the untraced pass twice, both values and how much worse the second is"
        );
        for (i, (name, _)) in WORKLOADS.iter().enumerate() {
            let same_sim = first[i].sim == second[i].sim && first[i].sim == traced[i].sim;
            ok &= second[i].failed == 0 && same_sim;
            println!(
                "    {name:<16} sim.* statistics {}: {}",
                if same_sim {
                    "repeat exactly"
                } else {
                    "DIFFER between passes"
                },
                first[i].sim
            );
            for (metric, _, better, bound) in END_TO_END {
                let (Some(a), Some(b)) = (first[i].value(metric), second[i].value(metric)) else {
                    continue;
                };
                let worse = if better == "higher" {
                    (a - b) / a
                } else {
                    (b - a) / a
                };
                let within = worse <= bound;
                ok &= within;
                println!(
                    "    {name:<16} {metric:<16} {:>14} {:>14} {:>+7.2}%  bound {:.0}%  {}",
                    num(a),
                    num(b),
                    worse * 100.0,
                    bound * 100.0,
                    if within { "ok" } else { "EXCEEDED" }
                );
                repeat_json.push(J::obj(vec![
                    ("workload", J::Str(name.to_string())),
                    ("metric", J::Str(metric.to_string())),
                    ("first", J::Num(a)),
                    ("second", J::Num(b)),
                    ("worse_by_frac", J::Num(worse)),
                    ("bound", J::Num(bound)),
                    ("ok", J::Bool(within)),
                ]));
            }
        }
        println!();
    }

    let result = J::obj(vec![
        ("host", host),
        ("seed", J::Int(args.seed)),
        ("seconds_per_pass", J::Num(args.seconds)),
        ("quick", J::Bool(args.quick)),
        ("workloads", J::Obj(workloads_json)),
        ("check_repeat", J::Arr(repeat_json)),
    ]);
    let path = out.join("result.json");
    std::fs::write(&path, format!("{result}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {}{}",
        path.display(),
        if ok { "" } else { "  (FAILED: see above)" }
    );
    Ok(ok)
}
