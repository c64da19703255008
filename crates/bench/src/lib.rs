#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # enoki-bench — harnesses that regenerate every table and figure
//!
//! One binary per paper result:
//!
//! | Binary | Paper result |
//! |---|---|
//! | `table3_pipe` | Table 3: `perf bench sched pipe` latency |
//! | `table4_schbench` | Table 4: schbench scalability percentiles |
//! | `table5_apps` | Table 5: NAS + Phoronix, CFS vs WFQ |
//! | `figure2_rocksdb` | Figure 2a/2b/2c: RocksDB tail latency + batch share |
//! | `table6_locality` | Table 6: locality hints on modified schbench |
//! | `figure3_memcached` | Figure 3: memcached under Arachne |
//! | `upgrade_blackout` | §5.7: live-upgrade service blackout |
//! | `record_replay` | §5.8: record and replay overhead |
//! | `appendix_fairness` | Appendix A.1: WFQ functional equivalence |
//!
//! Run all of them with `cargo run --release -p enoki-bench --bin <name>`.
//! Wall-clock microbenchmarks of the framework itself live in `benches/`
//! and run on the in-repo [`harness`] (a criterion-shaped shim, since the
//! build is offline).
//!
//! Alongside its table, every harness writes a machine-readable
//! `results/BENCH_<name>.json` via [`report::Report`].

pub mod harness;
pub mod report;

use enoki_sim::Ns;

/// Formats a duration as microseconds with one decimal.
pub fn us(v: Ns) -> String {
    format!("{:.1}", v.as_us_f64())
}

/// Prints a table header row followed by a rule.
pub fn header(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$} ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// A fraction as a signed percentage string (paper Table 5 style:
/// positive = slower than baseline).
pub fn pct(ratio: f64) -> String {
    format!("{:+.2}%", (ratio - 1.0) * 100.0)
}

/// Geometric mean of a slice.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.abs().max(1e-12).ln()).sum::<f64>() / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(1.05), "+5.00%");
        assert_eq!(pct(0.95), "-5.00%");
    }

    #[test]
    fn geomean_basics() {
        let g = geomean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn us_formats() {
        assert_eq!(us(Ns::from_us(3)), "3.0");
    }
}
