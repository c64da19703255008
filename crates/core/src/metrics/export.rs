//! Exporters for the observability layer: Chrome `trace_event` JSON (the
//! format `chrome://tracing` / Perfetto / SchedViz-style viewers load) and
//! the JSON well-formedness check tests hold the exporters to (the
//! grammar itself lives in [`crate::json`]).
//!
//! Two sources export here:
//! - a sim-side [`Tracer`] (per-cpu scheduling timeline as complete "X"
//!   spans, wakeups and migrations as instant events), and
//! - drained [`TraceRecord`]s from a [`super::SchedulerMetrics`] sink
//!   (instant events carrying kind/cpu/pid/arg).

use super::TraceRecord;
use crate::json;
use enoki_sim::trace::{TraceEvent, Tracer};
use enoki_sim::Ns;
use std::fmt::Write as _;

/// Incrementally builds a Chrome `trace_event` JSON document.
///
/// Timestamps (`ts`) and durations (`dur`) are microseconds, per the
/// format; nanosecond inputs are converted with fractional precision.
#[derive(Default)]
pub struct ChromeTraceBuilder {
    events: Vec<String>,
}

impl ChromeTraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> ChromeTraceBuilder {
        ChromeTraceBuilder::default()
    }

    fn us(ns: u64) -> f64 {
        ns as f64 / 1000.0
    }

    /// Pushes one event: `{"name":<name>[,"cat":<cat>]<rest>`; `rest`
    /// closes the object.
    fn event(&mut self, name: &str, cat: Option<&str>, rest: std::fmt::Arguments<'_>) {
        let mut e = String::from("{\"name\":");
        json::escape_into(&mut e, name);
        if let Some(cat) = cat {
            e.push_str(",\"cat\":");
            json::escape_into(&mut e, cat);
        }
        let _ = e.write_fmt(rest);
        self.events.push(e);
    }

    /// Adds a complete ("X") span on row `tid` from `start` for `dur`.
    pub fn span(&mut self, name: &str, cat: &str, tid: usize, start: Ns, dur: Ns) {
        let (ts, dur) = (Self::us(start.0), Self::us(dur.0));
        let rest = format_args!(r#","ph":"X","ts":{ts:.3},"dur":{dur:.3},"pid":0,"tid":{tid}}}"#);
        self.event(name, Some(cat), rest);
    }

    /// Adds an instant ("i") event on row `tid` at `at`, with optional
    /// pre-rendered JSON `args` (e.g. `r#"{"pid":3}"#`).
    pub fn instant(&mut self, name: &str, cat: &str, tid: usize, at: Ns, args: Option<&str>) {
        let args = args
            .map(|a| format!(r#","args":{a}"#))
            .unwrap_or_default();
        let ts = Self::us(at.0);
        let rest = format_args!(r#","ph":"i","s":"t","ts":{ts:.3},"pid":0,"tid":{tid}{args}}}"#);
        self.event(name, Some(cat), rest);
    }

    /// Starts a flow arrow ("s") with the given `id` on row `tid` at
    /// `at`. Pair with [`flow_end`](Self::flow_end) using the same `id`
    /// and `cat`; Perfetto draws an arrow between the two points.
    pub fn flow_start(&mut self, name: &str, cat: &str, id: u64, tid: usize, at: Ns) {
        let ts = Self::us(at.0);
        let rest = format_args!(r#","ph":"s","id":{id},"ts":{ts:.3},"pid":0,"tid":{tid}}}"#);
        self.event(name, Some(cat), rest);
    }

    /// Ends a flow arrow ("f") started by [`flow_start`](Self::flow_start)
    /// with the same `id` and `cat`. `bp:"e"` binds the arrowhead to the
    /// enclosing slice rather than the next one, which is what a
    /// wakeup→dispatch arrow should point at.
    pub fn flow_end(&mut self, name: &str, cat: &str, id: u64, tid: usize, at: Ns) {
        let ts = Self::us(at.0);
        let rest = format_args!(r#","ph":"f","bp":"e","id":{id},"ts":{ts:.3},"pid":0,"tid":{tid}}}"#);
        self.event(name, Some(cat), rest);
    }

    /// Adds a counter ("C") sample named `name` at `at`.
    pub fn counter(&mut self, name: &str, at: Ns, series: &str, value: f64) {
        let mut key = String::new();
        json::escape_into(&mut key, series);
        let ts = Self::us(at.0);
        let rest = format_args!(r#","ph":"C","ts":{ts:.3},"pid":0,"args":{{{key}:{value}}}}}"#);
        self.event(name, None, rest);
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finishes the document: a `traceEvents` array wrapped in the
    /// standard object form.
    pub fn finish(self) -> String {
        format!(
            r#"{{"traceEvents":[{}],"displayTimeUnit":"ms"}}"#,
            self.events.join(",")
        )
    }
}

/// Converts a sim [`Tracer`] into Chrome trace JSON: one row per cpu,
/// running tasks as complete spans (closed at `end`, or at the next
/// switch/idle on the same cpu), wakeups and migrations as instants.
pub fn chrome_trace_from_sim(tracer: &Tracer, nr_cpus: usize, end: Ns) -> String {
    let mut b = ChromeTraceBuilder::new();
    // (pid, span start) of the task currently occupying each cpu row.
    let mut open: Vec<Option<(u64, Ns)>> = vec![None; nr_cpus];
    // pid -> (flow id, wakeup cpu) of a wakeup whose dispatch arrow has
    // not landed yet. Flow ids are just the wakeup's ordinal.
    let mut pending_wake: std::collections::HashMap<i64, (u64, usize)> =
        std::collections::HashMap::new();
    let mut next_flow = 0u64;
    let close = |b: &mut ChromeTraceBuilder, slot: &mut Option<(u64, Ns)>, cpu: usize, at: Ns| {
        if let Some((pid, start)) = slot.take() {
            b.span(
                &format!("pid {pid}"),
                "sched",
                cpu,
                start,
                at.saturating_sub(start),
            );
        }
    };
    for ev in tracer.events() {
        match *ev {
            TraceEvent::SwitchIn { at, cpu, pid } if cpu < nr_cpus => {
                close(&mut b, &mut open[cpu], cpu, at);
                open[cpu] = Some((pid as u64, at));
                if let Some((id, _)) = pending_wake.remove(&(pid as i64)) {
                    b.flow_end(&format!("wake pid {pid}"), "wakeflow", id, cpu, at);
                }
            }
            TraceEvent::Idle { at, cpu } if cpu < nr_cpus => {
                close(&mut b, &mut open[cpu], cpu, at);
            }
            TraceEvent::Wakeup { at, pid, cpu } if cpu < nr_cpus => {
                b.instant(
                    &format!("wakeup pid {pid}"),
                    "wakeup",
                    cpu,
                    at,
                    Some(&format!(r#"{{"pid":{pid}}}"#)),
                );
                let id = next_flow;
                next_flow += 1;
                pending_wake.insert(pid as i64, (id, cpu));
                b.flow_start(&format!("wake pid {pid}"), "wakeflow", id, cpu, at);
            }
            TraceEvent::Migrate { at, pid, from, to } if to < nr_cpus => {
                b.instant(
                    &format!("migrate pid {pid}"),
                    "migrate",
                    to,
                    at,
                    Some(&format!(r#"{{"pid":{pid},"from":{from},"to":{to}}}"#)),
                );
            }
            _ => {}
        }
    }
    for (cpu, slot) in open.iter_mut().enumerate().take(nr_cpus) {
        close(&mut b, slot, cpu, end);
    }
    b.finish()
}

/// Converts drained sink records into Chrome trace JSON (instant events
/// keyed by kind, one row per cpu).
pub fn chrome_trace_from_records(records: &[TraceRecord]) -> String {
    let mut b = ChromeTraceBuilder::new();
    for r in records {
        b.instant(
            r.kind.name(),
            "enoki",
            r.cpu as usize,
            Ns(r.ts),
            Some(&format!(r#"{{"pid":{},"arg":{}}}"#, r.pid, r.arg)),
        );
    }
    b.finish()
}

/// Checks that `s` is one well-formed JSON value: [`json::parse`] with
/// the value dropped (tests use it to keep the exporters honest).
pub fn validate_json(s: &str) -> Result<(), String> {
    json::parse(s).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EventKind;

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json(r#"{"a":[1,2.5,-3e4,"x\n",true,null],"b":{}}"#).is_ok());
        assert!(validate_json("[]").is_ok());
        assert!(validate_json(r#"{"a":}"#).is_err());
        assert!(validate_json(r#"{"a":1,}"#).is_err());
        assert!(validate_json(r#"{"a":1} extra"#).is_err());
        assert!(validate_json(r#""unterminated"#).is_err());
    }

    #[test]
    fn escaping_round_trips_through_validation() {
        let mut b = ChromeTraceBuilder::new();
        b.span("weird \"name\"\n\\", "cat\t", 0, Ns(1000), Ns(500));
        b.instant("i", "c", 1, Ns(2000), None);
        b.counter("runq", Ns(3000), "cpu0", 4.0);
        assert!(!b.is_empty());
        assert_eq!(b.len(), 3);
        let doc = b.finish();
        validate_json(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert!(doc.starts_with(r#"{"traceEvents":["#));
    }

    #[test]
    fn empty_builder_is_valid_json() {
        let doc = ChromeTraceBuilder::new().finish();
        validate_json(&doc).unwrap();
    }

    #[test]
    fn sim_trace_exports_spans_and_instants() {
        let mut t = Tracer::new(64);
        t.record(TraceEvent::Wakeup {
            at: Ns(500),
            pid: 7,
            cpu: 0,
        });
        t.record(TraceEvent::SwitchIn {
            at: Ns(1000),
            cpu: 0,
            pid: 7,
        });
        t.record(TraceEvent::Migrate {
            at: Ns(1500),
            pid: 9,
            from: 1,
            to: 0,
        });
        t.record(TraceEvent::Idle {
            at: Ns(3000),
            cpu: 0,
        });
        t.record(TraceEvent::SwitchIn {
            at: Ns(4000),
            cpu: 1,
            pid: 8,
        });
        let doc = chrome_trace_from_sim(&t, 2, Ns(5000));
        validate_json(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        // pid 7 ran 1µs..3µs on cpu 0; pid 8's open span closes at end.
        assert!(doc.contains(r#""name":"pid 7""#), "{doc}");
        assert!(doc.contains(r#""dur":2.000"#), "{doc}");
        assert!(doc.contains(r#""name":"pid 8""#), "{doc}");
        assert!(doc.contains(r#""name":"migrate pid 9""#), "{doc}");
        assert!(doc.contains(r#""name":"wakeup pid 7""#), "{doc}");
    }

    #[test]
    fn sink_records_export_as_instants() {
        let recs = [
            TraceRecord {
                ts: 100,
                kind: EventKind::PickLatency,
                cpu: 2,
                pid: 5,
                arg: 321,
            },
            TraceRecord {
                ts: 900,
                kind: EventKind::Upgrades,
                cpu: 0,
                pid: -1,
                arg: 0,
            },
        ];
        let doc = chrome_trace_from_records(&recs);
        validate_json(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert!(doc.contains(r#""name":"pick_latency""#), "{doc}");
        assert!(doc.contains(r#""arg":321"#), "{doc}");
    }
}
