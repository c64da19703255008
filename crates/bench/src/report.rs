//! Machine-readable experiment results.
//!
//! Every bench harness prints a human-readable table *and* writes a
//! `results/BENCH_<harness>.json` file describing the same numbers, so the
//! perf trajectory can be tracked by scripts instead of eyeballs. The JSON
//! is hand-rolled (the workspace has a zero-external-dependency policy)
//! and deliberately flat:
//!
//! ```json
//! {
//!   "harness": "table3_pipe",
//!   "params": {"rounds": 100000, "nr_cpus": 8},
//!   "rows": [
//!     {"scheduler": "WFQ", "latency_us": 2.41},
//!     ...
//!   ]
//! }
//! ```
//!
//! Timestamps are intentionally absent: the files are deterministic
//! functions of the run, so reruns diff cleanly.

use std::io::Write as _;
use std::path::PathBuf;

/// A JSON scalar value.
#[derive(Clone, Debug)]
pub enum Val {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float (non-finite values serialize as `null`).
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for Val {
    fn from(v: &str) -> Val {
        Val::Str(v.to_string())
    }
}
impl From<String> for Val {
    fn from(v: String) -> Val {
        Val::Str(v)
    }
}
impl From<i64> for Val {
    fn from(v: i64) -> Val {
        Val::Int(v)
    }
}
impl From<u64> for Val {
    fn from(v: u64) -> Val {
        Val::Int(v.min(i64::MAX as u64) as i64)
    }
}
impl From<u32> for Val {
    fn from(v: u32) -> Val {
        Val::Int(v as i64)
    }
}
impl From<usize> for Val {
    fn from(v: usize) -> Val {
        Val::Int(v.min(i64::MAX as usize) as i64)
    }
}
impl From<f64> for Val {
    fn from(v: f64) -> Val {
        Val::Num(v)
    }
}
impl From<bool> for Val {
    fn from(v: bool) -> Val {
        Val::Bool(v)
    }
}

fn push_val(out: &mut String, v: &Val) {
    use std::fmt::Write as _;
    match v {
        Val::Str(s) => enoki_core::json::escape_into(out, s),
        Val::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Val::Num(f) if f.is_finite() => {
            let _ = write!(out, "{f}");
        }
        Val::Num(_) => out.push_str("null"),
        Val::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn push_obj(out: &mut String, fields: &[(String, Val)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        enoki_core::json::escape_into(out, k);
        out.push(':');
        push_val(out, v);
    }
    out.push('}');
}

/// A machine-readable result for one harness run.
pub struct Report {
    harness: String,
    params: Vec<(String, Val)>,
    rows: Vec<Vec<(String, Val)>>,
}

impl Report {
    /// Starts a report for the named harness (also the file stem).
    pub fn new(harness: impl Into<String>) -> Report {
        Report {
            harness: harness.into(),
            params: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Records a run parameter (topology, load, rounds, ...).
    pub fn param(&mut self, key: impl Into<String>, val: impl Into<Val>) -> &mut Report {
        self.params.push((key.into(), val.into()));
        self
    }

    /// Appends one result row (typically one scheduler × one data point).
    pub fn row(&mut self, fields: &[(&str, Val)]) -> &mut Report {
        self.rows
            .push(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect());
        self
    }

    /// Serializes the report to a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"harness\":");
        enoki_core::json::escape_into(&mut out, &self.harness);
        out.push_str(",\"params\":");
        push_obj(&mut out, &self.params);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_obj(&mut out, row);
        }
        out.push_str("]}\n");
        out
    }

    /// Writes `results/BENCH_<harness>.json`, creating the directory if
    /// needed, and returns the path written.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.harness));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Writes the report and prints where it went (or why it didn't);
    /// harness binaries call this last so a read-only filesystem degrades
    /// to a warning instead of a crash.
    pub fn emit(&self) {
        match self.write() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\nresults not written: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_flat_json() {
        let mut r = Report::new("unit_test");
        r.param("nr_cpus", 8usize).param("label", "a\"b");
        r.row(&[("scheduler", "WFQ".into()), ("p99_us", Val::Num(12.5))]);
        r.row(&[("scheduler", "CFS".into()), ("p99_us", Val::Num(f64::NAN))]);
        let json = r.to_json();
        assert!(json.contains("\"harness\":\"unit_test\""));
        assert!(json.contains("\"nr_cpus\":8"));
        assert!(json.contains("\"label\":\"a\\\"b\""));
        assert!(json.contains("\"p99_us\":12.5"));
        assert!(json.contains("\"p99_us\":null"), "NaN must become null");
        // Rough structural sanity: balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn write_creates_results_file() {
        let dir = std::env::temp_dir().join(format!("enoki-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        // Serialize cwd-sensitive section against other tests in this bin.
        std::env::set_current_dir(&dir).unwrap();
        let mut r = Report::new("write_test");
        r.param("x", 1i64);
        let path = r.write().unwrap();
        std::env::set_current_dir(old).unwrap();
        let text = std::fs::read_to_string(dir.join(&path)).unwrap();
        assert!(text.contains("\"harness\":\"write_test\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
