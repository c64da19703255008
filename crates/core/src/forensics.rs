//! Offline forensics over record logs (paper §3.4, §5.8).
//!
//! Record & replay makes scheduler bugs *reproducible*; this module makes
//! them *explainable*. It consumes the parsed `Call`/`Ret`/`Hint`/lock
//! stream a [`crate::record::Recorder`] produced and reports what the
//! scheduler actually did, offline. Task lifecycles are reconstructed in
//! one place, [`SpanGraph::build`]; the two analyses here that need them
//! are views over that graph and keep no lifecycle state of their own.
//!
//! - [`summarize`] — log composition (events per kind, calls per function,
//!   threads, locks, covered virtual-time span);
//! - [`attribute_latency`] — scheduling latency per task and per cpu, read
//!   off the span graph: wakeup latency, runqueue delay, on-cpu slices,
//!   preemption/migration counts, as log-bucket [`Histogram`]s;
//! - [`analyze_locks`] — per-lock contention and hold-time statistics plus
//!   a cross-thread lock-order cycle detector (a static deadlock-risk
//!   analysis over the recorded acquisition graph);
//! - [`chrome_trace_from_log`] — Chrome `trace_event` export with one lane
//!   per recorded kernel thread (slices and wake→dispatch arrows from the
//!   span graph) and counter tracks for runnable tasks and held locks;
//! - [`Divergence`] — the typed replay-divergence report (call index, tid,
//!   function, recorded vs. actual response, and a window of surrounding
//!   records), produced by [`crate::replay::replay`] and rendered by
//!   `enoki-log diff`.
//!
//! Lock records carry no timestamp of their own (the emit path cannot
//! afford one); lock hold times are therefore measured on the log's
//! *interpolated* virtual clock — the `now` of the nearest preceding
//! `Call` record — which is exact up to one scheduler-call interval.

use crate::metrics::export::ChromeTraceBuilder;
use crate::record::{FuncId, LockOp, Rec};
use crate::tracing::{RunnableFrom, Span, SpanGraph, SpanKind};
use enoki_sim::stats::Histogram;
use enoki_sim::Ns;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Log composition
// ---------------------------------------------------------------------

/// Composition of a record log.
#[derive(Debug, Default, Clone)]
pub struct LogSummary {
    /// Total records.
    pub records: usize,
    /// Scheduler calls.
    pub calls: u64,
    /// Scheduler returns.
    pub rets: u64,
    /// Userspace hints.
    pub hints: u64,
    /// Lock creations.
    pub lock_creates: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
    /// Lock releases.
    pub lock_releases: u64,
    /// Fault-injection / quarantine markers.
    pub faults: u64,
    /// Meta-scheduler policy-switch markers.
    pub switches: u64,
    /// Pick-decision annotations.
    pub decisions: u64,
    /// Cluster epoch-barrier frames.
    pub epoch_marks: u64,
    /// Fault counts per fault kind.
    pub faults_by_kind: BTreeMap<&'static str, u64>,
    /// Kernel threads seen.
    pub threads: BTreeSet<u32>,
    /// Lock ids seen.
    pub locks: BTreeSet<u64>,
    /// Call counts per scheduler function.
    pub calls_by_func: BTreeMap<&'static str, u64>,
    /// Virtual time of the first `Call` record.
    pub first_now: Option<u64>,
    /// Virtual time of the last `Call` record.
    pub last_now: Option<u64>,
}

impl LogSummary {
    /// Virtual-time span covered by the log.
    pub fn span(&self) -> Ns {
        match (self.first_now, self.last_now) {
            (Some(a), Some(b)) => Ns(b.saturating_sub(a)),
            _ => Ns::ZERO,
        }
    }

    /// Renders the summary as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} records total", self.records);
        let _ = writeln!(
            out,
            "  {} calls, {} returns, {} hints, {} lock acquisitions ({} creates, {} releases)",
            self.calls,
            self.rets,
            self.hints,
            self.lock_acquires,
            self.lock_creates,
            self.lock_releases
        );
        let _ = writeln!(
            out,
            "  {} kernel threads, {} locks, {} of virtual time",
            self.threads.len(),
            self.locks.len(),
            fmt_ns(self.span())
        );
        let _ = writeln!(out, "calls by function:");
        for (func, count) in &self.calls_by_func {
            let _ = writeln!(out, "  {func:<22} {count}");
        }
        if self.faults > 0 {
            let _ = writeln!(out, "faults ({} records):", self.faults);
            for (kind, count) in &self.faults_by_kind {
                let _ = writeln!(out, "  {kind:<22} {count}");
            }
        }
        if self.switches > 0 {
            let _ = writeln!(out, "policy switches: {}", self.switches);
        }
        if self.decisions > 0 {
            let _ = writeln!(out, "pick decisions: {}", self.decisions);
        }
        if self.epoch_marks > 0 {
            let _ = writeln!(out, "cluster epoch marks: {}", self.epoch_marks);
        }
        out
    }
}

/// Computes the composition of a record log.
pub fn summarize(log: &[Rec]) -> LogSummary {
    let mut s = LogSummary {
        records: log.len(),
        ..LogSummary::default()
    };
    for rec in log {
        match rec {
            Rec::Call { tid, func, args } => {
                s.calls += 1;
                s.threads.insert(*tid);
                *s.calls_by_func.entry(func.name()).or_default() += 1;
                if s.first_now.is_none() {
                    s.first_now = Some(args.now);
                }
                s.last_now = Some(args.now);
            }
            Rec::Ret { .. } => s.rets += 1,
            Rec::Hint { tid, .. } => {
                s.hints += 1;
                s.threads.insert(*tid);
            }
            Rec::LockCreate { lock, .. } => {
                s.lock_creates += 1;
                s.locks.insert(*lock);
            }
            Rec::LockAcquire { tid, lock, .. } => {
                s.lock_acquires += 1;
                s.threads.insert(*tid);
                s.locks.insert(*lock);
            }
            Rec::LockRelease { lock, .. } => {
                s.lock_releases += 1;
                s.locks.insert(*lock);
            }
            Rec::Fault { tid, kind, .. } => {
                s.faults += 1;
                s.threads.insert(*tid);
                *s.faults_by_kind.entry(kind.name()).or_default() += 1;
            }
            Rec::Switch { tid, .. } => {
                s.switches += 1;
                s.threads.insert(*tid);
            }
            Rec::Decision { tid, .. } => {
                s.decisions += 1;
                s.threads.insert(*tid);
            }
            Rec::EpochMark { tid, .. } => {
                s.epoch_marks += 1;
                s.threads.insert(*tid);
            }
        }
    }
    s
}

// ---------------------------------------------------------------------
// Latency attribution
// ---------------------------------------------------------------------

/// Latency attribution for one recorded task.
#[derive(Debug, Clone)]
pub struct TaskLatency {
    /// Task pid.
    pub pid: i64,
    /// Wakeups observed.
    pub wakeups: u64,
    /// Times the task was picked to run.
    pub picks: u64,
    /// Preemptions (`task_preempt` calls).
    pub preemptions: u64,
    /// Voluntary yields.
    pub yields: u64,
    /// Blocks (`task_blocked` calls).
    pub blocks: u64,
    /// Cross-cpu migrations (`migrate_task_rq` calls).
    pub migrations: u64,
    /// Last accumulated runtime the kernel reported for the task.
    pub last_runtime: Ns,
    /// Wakeup → first subsequent pick.
    pub wakeup_latency: Histogram,
    /// Any runnable transition (wakeup, fork, preempt, yield) → pick.
    pub runqueue_delay: Histogram,
    /// Pick → next block/yield/preempt/switch-out (on-cpu slice length).
    pub on_cpu: Histogram,
}

/// Latency attribution for one recorded cpu (kernel thread).
#[derive(Debug, Default, Clone)]
pub struct CpuLatency {
    /// Cpu id.
    pub cpu: usize,
    /// Scheduler calls issued from this cpu.
    pub calls: u64,
    /// `pick_next_task` invocations.
    pub picks: u64,
    /// Picks that found no task (the cpu went idle).
    pub idle_picks: u64,
    /// Runqueue delay of tasks picked on this cpu.
    pub runqueue_delay: Histogram,
}

/// Per-task and per-cpu scheduling-latency attribution for a record log.
#[derive(Debug, Default, Clone)]
pub struct LatencyReport {
    /// Per-task attribution, keyed by pid.
    pub tasks: BTreeMap<i64, TaskLatency>,
    /// Per-cpu attribution, keyed by cpu id.
    pub cpus: BTreeMap<usize, CpuLatency>,
}

impl Default for TaskLatency {
    fn default() -> TaskLatency {
        TaskLatency {
            pid: -1,
            wakeups: 0,
            picks: 0,
            preemptions: 0,
            yields: 0,
            blocks: 0,
            migrations: 0,
            last_runtime: Ns::ZERO,
            wakeup_latency: Histogram::new(),
            runqueue_delay: Histogram::new(),
            on_cpu: Histogram::new(),
        }
    }
}

impl LatencyReport {
    /// Renders per-task and per-cpu tables as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>6} {:>6} {:>5} {:>5}  {:>24}  {:>24}  {:>10}",
            "pid",
            "picks",
            "wakeup",
            "preempt",
            "yield",
            "migr",
            "wakeup-lat p50/p99/max",
            "runq-delay p50/p99/max",
            "on-cpu avg"
        );
        for t in self.tasks.values() {
            let _ = writeln!(
                out,
                "{:>6} {:>6} {:>6} {:>6} {:>5} {:>5}  {:>24}  {:>24}  {:>10}",
                t.pid,
                t.picks,
                t.wakeups,
                t.preemptions,
                t.yields,
                t.migrations,
                fmt_quantiles(&t.wakeup_latency),
                fmt_quantiles(&t.runqueue_delay),
                t.on_cpu
                    .mean()
                    .map(fmt_ns)
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>8}  {:>24}",
            "cpu", "calls", "picks", "idle", "runq-delay p50/p99/max"
        );
        for c in self.cpus.values() {
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>8} {:>8}  {:>24}",
                c.cpu,
                c.calls,
                c.picks,
                c.idle_picks,
                fmt_quantiles(&c.runqueue_delay),
            );
        }
        out
    }
}

/// Formats `p50/p99/max` of a histogram, or `-` when empty.
pub fn fmt_quantiles(h: &Histogram) -> String {
    if h.count() == 0 {
        return "-".to_string();
    }
    format!(
        "{}/{}/{}",
        fmt_ns(h.quantile(0.50).unwrap_or(Ns::ZERO)),
        fmt_ns(h.quantile(0.99).unwrap_or(Ns::ZERO)),
        fmt_ns(h.max()),
    )
}

/// Formats a nanosecond quantity with a human-scale unit.
pub fn fmt_ns(v: Ns) -> String {
    let ns = v.0;
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Attributes scheduling latency per task and per cpu: a view over the
/// log's [`SpanGraph`], which owns the lifecycle reconstruction. Counters
/// are the graph's roll-ups; every `Running` span that a record closed is
/// an on-cpu slice (one the log merely stopped during is not), and the
/// `Runnable` span right before a `Running` one is the runqueue delay of
/// that pick — a wakeup latency too when a fresh wakeup opened it.
pub fn attribute_latency(log: &[Rec]) -> LatencyReport {
    let g = SpanGraph::build(log);
    let mut report = LatencyReport::default();
    for (&cpu, c) in &g.cpus {
        let lat = CpuLatency {
            cpu,
            calls: c.calls,
            picks: c.picks,
            idle_picks: c.idle_picks,
            runqueue_delay: Histogram::new(),
        };
        report.cpus.insert(cpu, lat);
    }
    for (&pid, t) in &g.tasks {
        let mut lat = TaskLatency {
            pid,
            wakeups: t.wakeups,
            picks: t.picks,
            preemptions: t.preemptions,
            yields: t.yields,
            blocks: t.blocks,
            migrations: t.migrations,
            last_runtime: Ns(t.last_runtime),
            ..TaskLatency::default()
        };
        let mut prev: Option<&Span> = None;
        for &i in &t.spans {
            let span = &g.spans[i];
            if span.kind == SpanKind::Running {
                if i < g.open_from {
                    lat.on_cpu.record(Ns(span.dur()));
                }
                if let Some(&Span { kind: SpanKind::Runnable(from), start, end, .. }) = prev {
                    let delay = Ns(end.saturating_sub(start));
                    lat.runqueue_delay.record(delay);
                    if from == RunnableFrom::Wakeup {
                        lat.wakeup_latency.record(delay);
                    }
                    let cpu = span.cpu.max(0) as usize;
                    report
                        .cpus
                        .entry(cpu)
                        .or_insert_with(|| CpuLatency { cpu, ..CpuLatency::default() })
                        .runqueue_delay
                        .record(delay);
                }
            }
            prev = Some(span);
        }
        report.tasks.insert(pid, lat);
    }
    report
}

// ---------------------------------------------------------------------
// Lock forensics
// ---------------------------------------------------------------------

/// Contention and hold-time statistics for one recorded lock.
#[derive(Debug, Clone)]
pub struct LockStats {
    /// Lock id (creation order).
    pub lock: u64,
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions in mutex mode.
    pub mutex: u64,
    /// Acquisitions in shared (read) mode.
    pub reads: u64,
    /// Acquisitions in exclusive (write) mode.
    pub writes: u64,
    /// Kernel threads that acquired the lock.
    pub owners: BTreeSet<u32>,
    /// Consecutive acquisitions by *different* threads — the offline
    /// contention proxy (the emit path records no wait times).
    pub handoffs: u64,
    /// Hold times on the interpolated virtual clock.
    pub hold: Histogram,
}

impl LockStats {
    fn new(lock: u64) -> LockStats {
        LockStats {
            lock,
            acquisitions: 0,
            mutex: 0,
            reads: 0,
            writes: 0,
            owners: BTreeSet::new(),
            handoffs: 0,
            hold: Histogram::new(),
        }
    }
}

/// One edge of the recorded lock-acquisition graph: some thread acquired
/// `to` while holding `from`.
#[derive(Debug, Clone)]
pub struct LockOrderEdge {
    /// Held lock.
    pub from: u64,
    /// Acquired lock.
    pub to: u64,
    /// Times the ordering was observed.
    pub count: u64,
    /// Threads that performed the nested acquisition.
    pub tids: BTreeSet<u32>,
    /// Log index of the first observation (for `enoki-log dump` cross
    /// reference).
    pub first_index: usize,
}

/// A cycle in the lock-order graph: a static deadlock risk. The recorded
/// run survived (the log exists), but two threads interleaving these
/// acquisitions can deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockCycle {
    /// The locks on the cycle, smallest id first; the cycle closes back to
    /// `locks[0]`.
    pub locks: Vec<u64>,
}

/// Lock forensics over a record log.
#[derive(Debug, Default, Clone)]
pub struct LockReport {
    /// Per-lock statistics, keyed by lock id.
    pub locks: BTreeMap<u64, LockStats>,
    /// Observed lock-order edges.
    pub edges: Vec<LockOrderEdge>,
    /// Lock-order cycles (deadlock risks); empty when the acquisition
    /// graph is acyclic.
    pub cycles: Vec<LockCycle>,
}

impl LockReport {
    /// Renders lock tables, the order graph, and any cycles as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>6} {:>6} {:>6} {:>7} {:>9}  {:>24}",
            "lock", "acq", "mutex", "read", "write", "owners", "handoffs", "hold p50/p99/max"
        );
        for l in self.locks.values() {
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>6} {:>6} {:>6} {:>7} {:>9}  {:>24}",
                l.lock,
                l.acquisitions,
                l.mutex,
                l.reads,
                l.writes,
                l.owners.len(),
                l.handoffs,
                fmt_quantiles(&l.hold),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "lock-order edges (held -> acquired):");
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  {} -> {}  ({}x, tids {:?}, first at record #{})",
                e.from, e.to, e.count, e.tids, e.first_index
            );
        }
        if self.cycles.is_empty() {
            let _ = writeln!(out, "no lock-order cycles: acquisition graph is acyclic");
        } else {
            let _ = writeln!(
                out,
                "DEADLOCK RISK: {} lock-order cycle(s) detected:",
                self.cycles.len()
            );
            for c in &self.cycles {
                let mut path = c
                    .locks
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(" -> ");
                let _ = write!(path, " -> {}", c.locks[0]);
                let _ = writeln!(out, "  {path}");
            }
        }
        out
    }
}

/// Computes per-lock contention/hold statistics and runs the lock-order
/// cycle detector over a record log.
pub fn analyze_locks(log: &[Rec]) -> LockReport {
    let mut report = LockReport::default();
    // Locks currently held per thread (a stack: release pops the most
    // recent matching acquisition), with the acquisition's virtual time.
    let mut held: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let mut last_owner: HashMap<u64, u32> = HashMap::new();
    let mut edges: BTreeMap<(u64, u64), LockOrderEdge> = BTreeMap::new();
    let mut clock = 0u64;

    for (idx, rec) in log.iter().enumerate() {
        match *rec {
            Rec::Call { args, .. } => clock = args.now,
            Rec::LockCreate { lock, .. } => {
                report.locks.entry(lock).or_insert_with(|| LockStats::new(lock));
            }
            Rec::LockAcquire { tid, lock, op } => {
                let stats = report.locks.entry(lock).or_insert_with(|| LockStats::new(lock));
                stats.acquisitions += 1;
                match op {
                    LockOp::Mutex => stats.mutex += 1,
                    LockOp::Read => stats.reads += 1,
                    LockOp::Write => stats.writes += 1,
                }
                stats.owners.insert(tid);
                if let Some(prev) = last_owner.insert(lock, tid) {
                    if prev != tid {
                        stats.handoffs += 1;
                    }
                }
                let stack = held.entry(tid).or_default();
                for &(outer, _) in stack.iter() {
                    if outer == lock {
                        continue;
                    }
                    let e = edges.entry((outer, lock)).or_insert(LockOrderEdge {
                        from: outer,
                        to: lock,
                        count: 0,
                        tids: BTreeSet::new(),
                        first_index: idx,
                    });
                    e.count += 1;
                    e.tids.insert(tid);
                }
                stack.push((lock, clock));
            }
            Rec::LockRelease { tid, lock } => {
                if let Some(stack) = held.get_mut(&tid) {
                    if let Some(pos) = stack.iter().rposition(|&(l, _)| l == lock) {
                        let (_, at) = stack.remove(pos);
                        report
                            .locks
                            .entry(lock)
                            .or_insert_with(|| LockStats::new(lock))
                            .hold
                            .record(Ns(clock.saturating_sub(at)));
                    }
                }
            }
            _ => {}
        }
    }
    report.edges = edges.into_values().collect();
    report.cycles = find_cycles(&report.edges);
    report
}

/// Finds elementary cycles in the lock-order graph via DFS; each cycle is
/// normalized (smallest lock first) and deduplicated.
fn find_cycles(edges: &[LockOrderEdge]) -> Vec<LockCycle> {
    let mut adj: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from).or_default().push(e.to);
        adj.entry(e.to).or_default();
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<u64, Color> = adj.keys().map(|&n| (n, Color::White)).collect();
    let mut found: BTreeSet<Vec<u64>> = BTreeSet::new();

    fn dfs(
        node: u64,
        adj: &BTreeMap<u64, Vec<u64>>,
        color: &mut BTreeMap<u64, Color>,
        stack: &mut Vec<u64>,
        found: &mut BTreeSet<Vec<u64>>,
    ) {
        color.insert(node, Color::Gray);
        stack.push(node);
        for &next in adj.get(&node).map(Vec::as_slice).unwrap_or_default() {
            match color.get(&next).copied().unwrap_or(Color::White) {
                Color::Gray => {
                    // Back edge: the cycle is the stack suffix from `next`.
                    if let Some(pos) = stack.iter().position(|&n| n == next) {
                        let mut cycle = stack[pos..].to_vec();
                        // Normalize: rotate the smallest lock to the front.
                        let min_pos = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &l)| l)
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        cycle.rotate_left(min_pos);
                        found.insert(cycle);
                    }
                }
                Color::White => dfs(next, adj, color, stack, found),
                Color::Black => {}
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
    }

    let nodes: Vec<u64> = adj.keys().copied().collect();
    let mut stack = Vec::new();
    for n in nodes {
        if color.get(&n) == Some(&Color::White) {
            dfs(n, &adj, &mut color, &mut stack, &mut found);
        }
    }
    found.into_iter().map(|locks| LockCycle { locks }).collect()
}

// ---------------------------------------------------------------------
// Typed replay divergences
// ---------------------------------------------------------------------

/// How many records of context a [`Divergence`] captures on each side of
/// the diverging call.
pub const DIVERGENCE_CONTEXT: usize = 5;

/// One replayed response that differed from the recording, with enough
/// context to explain it.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the diverging `Call` record in the parsed log.
    pub call_index: usize,
    /// Kernel thread that issued the call.
    pub tid: u32,
    /// Which scheduler function diverged.
    pub func: FuncId,
    /// Virtual time of the call.
    pub now: u64,
    /// The response the recording holds.
    pub recorded: i64,
    /// The response the replayed scheduler produced
    /// ([`crate::replay::PANIC_SENTINEL`] when the call panicked instead
    /// of returning).
    pub actual: i64,
    /// Typed error behind the divergence, when one exists (currently
    /// [`crate::SchedError::Panic`] for a replay-side panic); `None` for a
    /// plain recorded-vs-actual mismatch.
    pub error: Option<crate::SchedError>,
    /// Log index of `window[0]`.
    pub window_start: usize,
    /// Surrounding records (±[`DIVERGENCE_CONTEXT`] around the call).
    pub window: Vec<Rec>,
}

/// Decodes a recorded return value into its domain meaning.
fn ret_meaning(func: FuncId, val: i64) -> String {
    match func {
        FuncId::SelectTaskRq => format!("cpu {val}"),
        FuncId::PickNextTask | FuncId::Balance | FuncId::MigrateTaskRq => {
            if val < 0 {
                "none (idle)".to_string()
            } else {
                format!("pid {val}")
            }
        }
        _ => val.to_string(),
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(error) = &self.error {
            return write!(
                f,
                "call #{}: tid {} {} at now={}ns diverged with error: {error}",
                self.call_index,
                self.tid,
                self.func.name(),
                self.now,
            );
        }
        write!(
            f,
            "call #{}: tid {} {} at now={}ns returned {}, recording says {}",
            self.call_index,
            self.tid,
            self.func.name(),
            self.now,
            ret_meaning(self.func, self.actual),
            ret_meaning(self.func, self.recorded),
        )
    }
}

impl Divergence {
    /// Renders the divergence with its context window, marking the
    /// diverging call.
    pub fn explain(&self) -> String {
        let mut out = format!("{self}\n");
        for (i, rec) in self.window.iter().enumerate() {
            let idx = self.window_start + i;
            let marker = if idx == self.call_index { ">>>" } else { "   " };
            let _ = writeln!(out, "  {marker} #{idx:<6} {}", describe_rec(rec));
        }
        out
    }
}

/// Pretty-prints one record for dumps and divergence context windows.
pub fn describe_rec(rec: &Rec) -> String {
    match *rec {
        Rec::Call { tid, func, args } => format!(
            "call {:<22} tid={tid} pid={} cpu={} prev={} now={} runtime={} flags={:#x}",
            func.name(),
            args.pid,
            args.cpu,
            args.prev_cpu,
            args.now,
            args.runtime,
            args.flags
        ),
        Rec::Ret { tid, func, val } => format!(
            "ret  {:<22} tid={tid} -> {}",
            func.name(),
            ret_meaning(func, val)
        ),
        Rec::Hint {
            tid,
            pid,
            kind,
            a,
            b,
            c,
        } => format!("hint kind={kind} tid={tid} pid={pid} a={a} b={b} c={c}"),
        Rec::LockCreate { tid, lock } => format!("lock-create  lock={lock} tid={tid}"),
        Rec::LockAcquire { tid, lock, op } => {
            let mode = match op {
                LockOp::Mutex => "mutex",
                LockOp::Read => "read",
                LockOp::Write => "write",
            };
            format!("lock-acquire lock={lock} tid={tid} mode={mode}")
        }
        Rec::LockRelease { tid, lock } => format!("lock-release lock={lock} tid={tid}"),
        Rec::Fault { tid, at, kind, func, arg } => {
            let func = crate::record::FuncId::from_u8(func)
                .map_or("-", |f| f.name());
            format!(
                "fault {:<21} tid={tid} at={at} func={func} arg={arg}",
                kind.name()
            )
        }
        Rec::Switch { tid, at, epoch, from, to } => {
            format!("switch policy {from} -> {to} tid={tid} at={at} epoch={epoch}")
        }
        Rec::Decision {
            tid,
            at,
            cpu,
            policy,
            chosen,
            candidates,
            reason,
            predicted,
        } => format!(
            "decision pick pid {chosen} tid={tid} at={at} cpu={cpu} policy={policy} \
             candidates={candidates} reason={} predicted={predicted}",
            reason.name()
        ),
        Rec::EpochMark {
            tid,
            stream,
            epoch,
            at,
        } => format!("epoch-mark stream={stream} epoch={epoch} tid={tid} at={at}"),
    }
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

/// Converts a record log into Chrome `trace_event` JSON: one lane per
/// recorded kernel thread (cpu). The on-cpu slices and the dispatch end of
/// every wake→dispatch flow arrow are read off the log's [`SpanGraph`];
/// the record pass adds only what the graph does not model — wakeup /
/// migration / hint / decision instants on the *issuing* thread's lane
/// (with the flow starts that ride on the wakeup instants), and the
/// counter tracks for the runnable task count and the held shim locks.
pub fn chrome_trace_from_log(log: &[Rec]) -> String {
    let g = SpanGraph::build(log);
    let mut b = ChromeTraceBuilder::new();
    for s in g.spans.iter().filter(|s| s.kind == SpanKind::Running) {
        b.span(
            &format!("pid {}", s.pid),
            "sched",
            s.cpu.max(0) as usize,
            Ns(s.start),
            Ns(s.dur()),
        );
    }
    // (pid, wakeup time) -> (cpu, time) of the pick that answered it: the
    // start of the `Running` span that follows a `Runnable(Wakeup)` span.
    let mut dispatched: HashMap<(i64, u64), (i32, u64)> = HashMap::new();
    for t in g.tasks.values() {
        for pair in t.spans.windows(2) {
            let (wait, run) = (&g.spans[pair[0]], &g.spans[pair[1]]);
            if wait.kind == SpanKind::Runnable(RunnableFrom::Wakeup)
                && run.kind == SpanKind::Running
            {
                dispatched.insert((wait.pid, wait.start), (run.cpu, run.start));
            }
        }
    }
    // Runnable-set tracking for the counter track.
    let mut runnable: BTreeSet<i64> = BTreeSet::new();
    let mut next_flow = 0u64;
    let mut held_locks = 0i64;
    let mut clock = 0u64;

    for rec in log {
        match *rec {
            Rec::Call { tid, func, args } => {
                clock = args.now;
                match func {
                    FuncId::TaskWakeup | FuncId::TaskNew => {
                        if func == FuncId::TaskWakeup {
                            b.instant(
                                &format!("wakeup pid {}", args.pid),
                                "wakeup",
                                tid as usize,
                                Ns(args.now),
                                Some(&format!(r#"{{"pid":{}}}"#, args.pid)),
                            );
                            // The causal arrow (waker lane → picked lane);
                            // it has an end only if the graph saw this
                            // wakeup dispatched.
                            let name = format!("wake pid {}", args.pid);
                            let id = next_flow;
                            next_flow += 1;
                            b.flow_start(&name, "wakeflow", id, tid as usize, Ns(args.now));
                            if let Some((cpu, at)) = dispatched.remove(&(args.pid, args.now)) {
                                b.flow_end(&name, "wakeflow", id, cpu.max(0) as usize, Ns(at));
                            }
                        }
                        if runnable.insert(args.pid) {
                            b.counter("runnable", Ns(args.now), "tasks", runnable.len() as f64);
                        }
                    }
                    FuncId::TaskBlocked | FuncId::TaskDead | FuncId::TaskDeparted
                        if runnable.remove(&args.pid) =>
                    {
                        b.counter("runnable", Ns(args.now), "tasks", runnable.len() as f64);
                    }
                    FuncId::MigrateTaskRq => {
                        b.instant(
                            &format!("migrate pid {}", args.pid),
                            "migrate",
                            tid as usize,
                            Ns(args.now),
                            Some(&format!(
                                r#"{{"pid":{},"from":{},"to":{}}}"#,
                                args.pid, args.prev_cpu, args.cpu
                            )),
                        );
                    }
                    _ => {}
                }
            }
            Rec::Decision {
                at,
                cpu,
                policy,
                chosen,
                candidates,
                reason,
                predicted,
                ..
            } => {
                b.instant(
                    &format!("pick pid {chosen}"),
                    "decision",
                    cpu.max(0) as usize,
                    Ns(at),
                    Some(&format!(
                        r#"{{"policy":{policy},"chosen":{chosen},"candidates":{candidates},"reason":"{}","predicted":{predicted}}}"#,
                        reason.name()
                    )),
                );
            }
            Rec::Hint { tid, pid, kind, .. } => {
                b.instant(
                    &format!("hint kind {kind}"),
                    "hint",
                    tid as usize,
                    Ns(clock),
                    Some(&format!(r#"{{"pid":{pid}}}"#)),
                );
            }
            Rec::LockAcquire { .. } => {
                held_locks += 1;
                b.counter("shim locks", Ns(clock), "held", held_locks as f64);
            }
            Rec::LockRelease { .. } => {
                held_locks = (held_locks - 1).max(0);
                b.counter("shim locks", Ns(clock), "held", held_locks as f64);
            }
            _ => {}
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::export::validate_json;
    use crate::record::CallArgs;

    fn call(tid: u32, func: FuncId, pid: i64, cpu: i32, now: u64) -> Rec {
        Rec::Call {
            tid,
            func,
            args: CallArgs {
                now,
                pid,
                cpu,
                ..CallArgs::default()
            },
        }
    }

    fn ret(tid: u32, func: FuncId, val: i64) -> Rec {
        Rec::Ret { tid, func, val }
    }

    /// A tiny hand-built log: task 7 wakes at t=1000, cpu 0 picks it at
    /// t=3000 (wakeup latency 2000ns), it is preempted at t=5000 (on-cpu
    /// 2000ns) and re-picked at t=5500 (runqueue delay 500ns, not a
    /// wakeup), then blocks at t=6000.
    fn lifecycle_log() -> Vec<Rec> {
        vec![
            call(0, FuncId::TaskWakeup, 7, 0, 1000),
            call(0, FuncId::PickNextTask, -1, 0, 3000),
            ret(0, FuncId::PickNextTask, 7),
            call(0, FuncId::TaskPreempt, 7, 0, 5000),
            call(0, FuncId::PickNextTask, -1, 0, 5500),
            ret(0, FuncId::PickNextTask, 7),
            call(0, FuncId::TaskBlocked, 7, 0, 6000),
            call(0, FuncId::PickNextTask, -1, 0, 6100),
            ret(0, FuncId::PickNextTask, -1),
        ]
    }

    #[test]
    fn latency_attribution_reconstructs_the_lifecycle() {
        let report = attribute_latency(&lifecycle_log());
        let t = &report.tasks[&7];
        assert_eq!(t.wakeups, 1);
        assert_eq!(t.picks, 2);
        assert_eq!(t.preemptions, 1);
        assert_eq!(t.blocks, 1);
        assert_eq!(t.wakeup_latency.count(), 1);
        assert_eq!(t.wakeup_latency.max(), Ns(2000));
        assert_eq!(t.runqueue_delay.count(), 2);
        assert_eq!(t.runqueue_delay.min(), Ns(500));
        assert_eq!(t.on_cpu.count(), 2);
        assert_eq!(t.on_cpu.min(), Ns(500));
        assert_eq!(t.on_cpu.max(), Ns(2000));
        let c = &report.cpus[&0];
        assert_eq!(c.picks, 3);
        assert_eq!(c.idle_picks, 1);
        assert_eq!(c.runqueue_delay.count(), 2);
        let text = report.render();
        assert!(text.contains("wakeup-lat"), "{text}");
        assert!(text.contains("2.0µs"), "{text}");
    }

    #[test]
    fn summary_counts_every_kind() {
        let log = lifecycle_log();
        let s = summarize(&log);
        assert_eq!(s.records, log.len());
        assert_eq!(s.calls, 6);
        assert_eq!(s.rets, 3);
        assert_eq!(s.calls_by_func["pick_next_task"], 3);
        assert_eq!(s.first_now, Some(1000));
        assert_eq!(s.last_now, Some(6100));
        assert_eq!(s.span(), Ns(5100));
        assert!(s.render().contains("pick_next_task"));
    }

    #[test]
    fn lock_stats_measure_holds_and_handoffs() {
        let log = vec![
            call(0, FuncId::TaskTick, 1, 0, 1000),
            Rec::LockCreate { tid: 0, lock: 1 },
            Rec::LockAcquire {
                tid: 0,
                lock: 1,
                op: LockOp::Mutex,
            },
            call(0, FuncId::TaskTick, 1, 0, 4000),
            Rec::LockRelease { tid: 0, lock: 1 },
            Rec::LockAcquire {
                tid: 1,
                lock: 1,
                op: LockOp::Mutex,
            },
            Rec::LockRelease { tid: 1, lock: 1 },
        ];
        let report = analyze_locks(&log);
        let l = &report.locks[&1];
        assert_eq!(l.acquisitions, 2);
        assert_eq!(l.owners.len(), 2);
        assert_eq!(l.handoffs, 1);
        assert_eq!(l.hold.count(), 2);
        // First hold spans the t=1000 -> t=4000 clock advance.
        assert_eq!(l.hold.max(), Ns(3000));
        assert!(report.cycles.is_empty());
        assert!(report.render().contains("acquisition graph is acyclic"));
    }

    #[test]
    fn lock_order_inversion_is_flagged() {
        // Thread 1: A then B (holding A). Thread 2: B then A (holding B).
        // The classic AB/BA inversion must surface as a cycle.
        let (a, b) = (10u64, 20u64);
        let acq = |tid, lock| Rec::LockAcquire {
            tid,
            lock,
            op: LockOp::Mutex,
        };
        let rel = |tid, lock| Rec::LockRelease { tid, lock };
        let log = vec![
            acq(1, a),
            acq(1, b),
            rel(1, b),
            rel(1, a),
            acq(2, b),
            acq(2, a),
            rel(2, a),
            rel(2, b),
        ];
        let report = analyze_locks(&log);
        assert_eq!(report.edges.len(), 2);
        assert_eq!(report.cycles, vec![LockCycle { locks: vec![a, b] }]);
        let text = report.render();
        assert!(text.contains("DEADLOCK RISK"), "{text}");
        assert!(text.contains("10 -> 20 -> 10"), "{text}");
    }

    #[test]
    fn consistent_ordering_has_no_cycle() {
        let acq = |tid, lock| Rec::LockAcquire {
            tid,
            lock,
            op: LockOp::Mutex,
        };
        let rel = |tid, lock| Rec::LockRelease { tid, lock };
        let log = vec![
            acq(1, 1),
            acq(1, 2),
            rel(1, 2),
            rel(1, 1),
            acq(2, 1),
            acq(2, 2),
            rel(2, 2),
            rel(2, 1),
        ];
        let report = analyze_locks(&log);
        assert_eq!(report.edges.len(), 1);
        assert!(report.cycles.is_empty());
    }

    #[test]
    fn three_lock_cycle_is_found() {
        let acq = |tid, lock| Rec::LockAcquire {
            tid,
            lock,
            op: LockOp::Mutex,
        };
        let rel = |tid, lock| Rec::LockRelease { tid, lock };
        // 1: A->B, 2: B->C, 3: C->A.
        let log = vec![
            acq(1, 1),
            acq(1, 2),
            rel(1, 2),
            rel(1, 1),
            acq(2, 2),
            acq(2, 3),
            rel(2, 3),
            rel(2, 2),
            acq(3, 3),
            acq(3, 1),
            rel(3, 1),
            rel(3, 3),
        ];
        let report = analyze_locks(&log);
        assert_eq!(report.cycles.len(), 1);
        assert_eq!(report.cycles[0].locks, vec![1, 2, 3]);
    }

    #[test]
    fn chrome_export_is_valid_json_with_lanes_and_counters() {
        let mut log = lifecycle_log();
        log.push(Rec::LockAcquire {
            tid: 0,
            lock: 1,
            op: LockOp::Mutex,
        });
        log.push(Rec::LockRelease { tid: 0, lock: 1 });
        let doc = chrome_trace_from_log(&log);
        validate_json(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert!(doc.contains(r#""name":"pid 7""#), "{doc}");
        assert!(doc.contains(r#""name":"wakeup pid 7""#), "{doc}");
        assert!(doc.contains(r#""name":"runnable""#), "{doc}");
        assert!(doc.contains(r#""name":"shim locks""#), "{doc}");
        assert!(doc.contains(r#""ph":"C""#), "{doc}");
    }

    /// `dispatch_task_dead` has no cpu to record and writes `cpu: 0`; a
    /// death on cpu 3 must not cut the slice running on lane 0 short.
    #[test]
    fn a_death_elsewhere_does_not_close_lane_zero() {
        let log = vec![
            call(0, FuncId::PickNextTask, -1, 0, 1000),
            ret(0, FuncId::PickNextTask, 7),
            call(3, FuncId::PickNextTask, -1, 3, 1200),
            ret(3, FuncId::PickNextTask, 9),
            call(3, FuncId::TaskDead, 9, 0, 2000),
            call(0, FuncId::TaskBlocked, 7, 0, 5000),
        ];
        let doc = chrome_trace_from_log(&log);
        let slice = |pid: i64, ts: &str, dur: &str, lane: usize| {
            format!(r#""name":"pid {pid}","cat":"sched","ph":"X","ts":{ts},"dur":{dur},"pid":0,"tid":{lane}"#)
        };
        assert!(doc.contains(&slice(7, "1.000", "4.000", 0)), "{doc}");
        assert!(doc.contains(&slice(9, "1.200", "0.800", 3)), "{doc}");
    }

    /// A log cut while pid 7 is on cpu: the slice the log stopped during
    /// is no on-cpu sample (nothing ended it), but it is run time in the
    /// task's breakdown, which still sums to wall.
    #[test]
    fn a_slice_open_at_the_end_of_the_log_is_not_an_on_cpu_sample() {
        let mut log = lifecycle_log();
        log.truncate(6); // ... re-picked at t=5500
        log.push(call(0, FuncId::TaskTick, 7, 0, 5900));
        let report = attribute_latency(&log);
        let t = &report.tasks[&7];
        assert_eq!(t.picks, 2);
        assert_eq!(t.runqueue_delay.count(), 2);
        assert_eq!(t.on_cpu.count(), 1, "only the preempted slice ended");
        assert_eq!(t.on_cpu.max(), Ns(2000));

        let g = SpanGraph::build(&log);
        assert_eq!(g.open_from, g.spans.len() - 1);
        let open = g.spans[g.open_from];
        assert_eq!((open.kind, open.start, open.end), (SpanKind::Running, 5500, 5900));
        let b = g.breakdown(7).expect("pid 7 has spans");
        assert_eq!(b.run, 2000 + 400);
        assert_eq!(b.sum(), b.wall());
    }

    #[test]
    fn divergence_explains_itself_with_context() {
        let log = lifecycle_log();
        let d = Divergence {
            call_index: 4,
            tid: 0,
            func: FuncId::PickNextTask,
            now: 5500,
            recorded: 7,
            actual: -1,
            error: None,
            window_start: 2,
            window: log[2..7].to_vec(),
        };
        let line = d.to_string();
        assert!(line.contains("pick_next_task"), "{line}");
        assert!(line.contains("returned none (idle)"), "{line}");
        assert!(line.contains("recording says pid 7"), "{line}");
        let full = d.explain();
        assert!(full.contains(">>> #4"), "{full}");
        assert!(full.contains("task_preempt"), "{full}");
        let p = Divergence {
            error: Some(crate::SchedError::Panic { func: FuncId::PickNextTask }),
            actual: crate::replay::PANIC_SENTINEL,
            ..d
        };
        let line = p.to_string();
        assert!(line.contains("diverged with error"), "{line}");
        assert!(line.contains("panicked in pick_next_task"), "{line}");
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_ns(Ns(500)), "500ns");
        assert_eq!(fmt_ns(Ns(1500)), "1.5µs");
        assert_eq!(fmt_ns(Ns(2_500_000)), "2.50ms");
        assert_eq!(fmt_ns(Ns(3_000_000_000)), "3.00s");
        assert_eq!(fmt_quantiles(&Histogram::new()), "-");
    }
}
