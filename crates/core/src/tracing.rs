//! Causal span tracing over record logs: the "why was this slow" layer,
//! and the one reading of a record log every lifecycle analysis shares.
//!
//! [`SpanGraph::build`] is the only code that reconstructs task
//! lifecycles from a log — pairing each `pick_next_task` call with its
//! return, switching out whoever a pick displaces, ignoring a wakeup for
//! a task already on cpu, closing a task's life at its death. It lifts
//! the log into a **causal span graph**: every task's life becomes a
//! chain of typed spans (runnable → running → blocked → runnable …) with
//! cross-task causal edges (who woke whom, which hint re-pinned a task,
//! which thread handed a shim lock to which), and it attaches the
//! [`Rec::Decision`] annotations the schedulers emit on every pick, so a
//! single question like "why did pid 7 wait 2 ms?" resolves to "it woke at
//! t, policy 10 picked pid 3 over it twice (min_vruntime, 4 candidates),
//! it ran at t+2ms". [`crate::forensics`]' latency attribution and Chrome
//! export are views over this graph, not second reconstructions.
//!
//! On top of the graph:
//!
//! - [`SpanGraph::breakdown`] — a per-task latency breakdown (wakeup wait,
//!   preemption loss, queue wait, run, blocked) whose components sum
//!   exactly to the task's observed wall latency;
//! - [`SpanGraph::critical_path`] — the causal chain ending at a target
//!   pid's last activity, following wakeup edges back through waker tasks;
//!   [`SpanGraph::tail_pid`] selects the p99 wakeup-wait victim for
//!   tail-latency hunts;
//! - [`profile`] — a virtual-time sampling profiler attributing simulated
//!   time to scheduler callbacks, split per policy epoch (switch markers
//!   and decision records carry the policy id);
//! - [`SpanGraph::graph_hash`] — an FNV-1a fingerprint of the whole graph,
//!   used by the determinism tests and the trace bench baseline.
//!
//! Recording stays cheap: [`emit_decision`] is a no-op unless a record
//! session is armed *and* the decision trace is enabled (the default; see
//! [`set_decision_trace`] / `MachineBuilder::decision_trace`). Replay
//! never re-emits decisions — emission is gated on recording mode — so
//! traced runs replay divergence-free.

use crate::record::{DecisionReason, FuncId, Rec};
use enoki_sim::{Fnv1a, Ns};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::forensics::fmt_ns;
use crate::record;

// ---------------------------------------------------------------------
// Decision emission (record-time hot path)
// ---------------------------------------------------------------------

/// Whether armed recordings also capture pick decisions. Default on.
static DECISIONS: AtomicBool = AtomicBool::new(true);

/// Enables or disables [`Rec::Decision`] emission for armed recordings.
pub fn set_decision_trace(on: bool) {
    DECISIONS.store(on, Ordering::Release);
}

/// Whether pick decisions are being captured.
pub fn decision_trace_enabled() -> bool {
    DECISIONS.load(Ordering::Acquire)
}

/// Emits one pick-decision record. No-op unless a recording is armed and
/// the decision trace is enabled; schedulers call this from
/// `pick_next_task` with whatever their pick loop already knows.
pub fn emit_decision(
    now: Ns,
    cpu: usize,
    policy: i32,
    chosen: i64,
    candidates: usize,
    reason: DecisionReason,
    predicted: u64,
) {
    if !record::recording() || !DECISIONS.load(Ordering::Acquire) {
        return;
    }
    record::emit(Rec::Decision {
        tid: record::current_tid(),
        at: now.as_nanos(),
        cpu: cpu as i32,
        policy,
        chosen,
        candidates: candidates.min(u32::MAX as usize) as u32,
        reason,
        predicted,
    });
}

// ---------------------------------------------------------------------
// Span graph model
// ---------------------------------------------------------------------

/// What put a task back on a runqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunnableFrom {
    /// A fresh wakeup (`task_wakeup` after a block).
    Wakeup,
    /// The preemption timer fired (`task_preempt`).
    Preempt,
    /// The task yielded voluntarily.
    Yield,
    /// Another pick switched the task out while it was still runnable.
    Switched,
    /// The task was just created (`task_new` / fork).
    Created,
}

/// One interval in a task's reconstructed life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Waiting on a runqueue; the payload says why it went runnable.
    Runnable(RunnableFrom),
    /// Executing on [`Span::cpu`].
    Running,
    /// Blocked (sleeping / waiting on I/O or a futex).
    Blocked,
}

impl SpanKind {
    /// Short span-kind label for renders and hashes.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Runnable(RunnableFrom::Wakeup) => "runnable/wakeup",
            SpanKind::Runnable(RunnableFrom::Preempt) => "runnable/preempt",
            SpanKind::Runnable(RunnableFrom::Yield) => "runnable/yield",
            SpanKind::Runnable(RunnableFrom::Switched) => "runnable/switched",
            SpanKind::Runnable(RunnableFrom::Created) => "runnable/new",
            SpanKind::Running => "running",
            SpanKind::Blocked => "blocked",
        }
    }

    fn hash_code(&self) -> u64 {
        match self {
            SpanKind::Runnable(RunnableFrom::Wakeup) => 1,
            SpanKind::Runnable(RunnableFrom::Preempt) => 2,
            SpanKind::Runnable(RunnableFrom::Yield) => 3,
            SpanKind::Runnable(RunnableFrom::Switched) => 4,
            SpanKind::Runnable(RunnableFrom::Created) => 5,
            SpanKind::Running => 6,
            SpanKind::Blocked => 7,
        }
    }
}

/// One span of a task's life, `[start, end)` in virtual nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The task.
    pub pid: i64,
    /// What the task was doing.
    pub kind: SpanKind,
    /// Span start (virtual ns).
    pub start: u64,
    /// Span end (virtual ns); open spans are closed at the log's end.
    pub end: u64,
    /// The cpu involved: running cpu, or the runqueue the task waited on.
    pub cpu: i32,
}

impl Span {
    /// Span duration.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The kind of a cross-task (or cross-thread) causal edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `from` (pid) woke `to` (pid); `detail` is the wakee's runqueue cpu.
    Wakeup,
    /// `from` (pid) sent a hint naming `to` (pid); `detail` is the kind.
    Hint,
    /// Kernel thread `from` (tid) released a shim lock that kernel thread
    /// `to` (tid) acquired next; `detail` is the lock id.
    LockHandoff,
}

impl EdgeKind {
    /// Short edge-kind label.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeKind::Wakeup => "wakeup",
            EdgeKind::Hint => "hint",
            EdgeKind::LockHandoff => "lock-handoff",
        }
    }
}

/// One causal edge. For [`EdgeKind::LockHandoff`] the endpoints are
/// kernel-thread ids (cpus), for the others they are pids.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Edge kind (fixes the meaning of the endpoints).
    pub kind: EdgeKind,
    /// Source endpoint (waker pid / hint sender pid / releasing tid).
    pub from: i64,
    /// Destination endpoint (wakee pid / hinted pid / acquiring tid).
    pub to: i64,
    /// Virtual time (interpolated from the nearest preceding call for
    /// lock and hint records, which carry no clock of their own).
    pub at: u64,
    /// Kind-specific payload (cpu, hint kind, lock id).
    pub detail: u64,
}

/// One [`Rec::Decision`] in analysis-friendly form.
#[derive(Debug, Clone, Copy)]
pub struct DecisionView {
    /// Virtual time of the pick.
    pub at: u64,
    /// The cpu the pick answered.
    pub cpu: i32,
    /// Deciding policy number.
    pub policy: i32,
    /// Chosen pid (`-1` = idle).
    pub chosen: i64,
    /// Runnable candidates considered.
    pub candidates: u32,
    /// Why the chosen task won.
    pub reason: DecisionReason,
    /// Predicted service burst; 0 from every library policy.
    pub predicted: u64,
}

/// Per-task roll-up over the span graph.
#[derive(Debug, Clone, Default)]
pub struct TaskTrace {
    /// Indices into [`SpanGraph::spans`], in chronological order.
    pub spans: Vec<usize>,
    /// Wakeups observed.
    pub wakeups: u64,
    /// Preemptions observed.
    pub preemptions: u64,
    /// Cross-cpu migrations observed.
    pub migrations: u64,
    /// Times the task was picked to run.
    pub picks: u64,
    /// Voluntary yields.
    pub yields: u64,
    /// Blocks (`task_blocked` calls).
    pub blocks: u64,
    /// Largest accumulated runtime (ns) any call reported for the task.
    pub last_runtime: u64,
}

/// Per-cpu call census over the log.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuCensus {
    /// Scheduler calls issued by this kernel thread (keyed by `tid`).
    pub calls: u64,
    /// `pick_next_task` calls answered for this cpu.
    pub picks: u64,
    /// Picks that found no task (the cpu went idle).
    pub idle_picks: u64,
}

/// The causal span graph for one record log.
#[derive(Debug, Default)]
pub struct SpanGraph {
    /// All spans, in the order they closed — a span is pushed when the
    /// record that ends it is read, so this is not start-time order. The
    /// spans the end-of-log sweep closed come last, in pid order; see
    /// [`SpanGraph::open_from`].
    pub spans: Vec<Span>,
    /// Index of the first span closed by the end-of-log sweep rather
    /// than by a record: spans at or past it were still open when the
    /// log stopped, so their `end` is the last observed instant, not a
    /// lifecycle event.
    pub open_from: usize,
    /// Cross-task / cross-thread causal edges, in log order.
    pub edges: Vec<Edge>,
    /// Pick decisions, in log order.
    pub decisions: Vec<DecisionView>,
    /// Per-task roll-ups, keyed by pid.
    pub tasks: BTreeMap<i64, TaskTrace>,
    /// Per-cpu call census, keyed by cpu id.
    pub cpus: BTreeMap<usize, CpuCensus>,
    /// Virtual time of the first call in the log.
    pub first_now: u64,
    /// Virtual time of the last call in the log.
    pub last_now: u64,
}

/// Where a task's wall latency went. All fields are virtual ns;
/// [`LatencyBreakdown::sum`] equals [`LatencyBreakdown::wall`] exactly —
/// every observed nanosecond lands in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// The task.
    pub pid: i64,
    /// First observation (start of the task's first span).
    pub first: u64,
    /// Last observation (end of the task's last span).
    pub last: u64,
    /// Wakeup → pick: time spent waiting after a fresh wakeup.
    pub wakeup_wait: u64,
    /// Preempt/switch-out → re-pick: runnable time lost to preemption.
    pub preemption_loss: u64,
    /// Other runqueue waits (after a yield or fork).
    pub queue_wait: u64,
    /// On-cpu time.
    pub run: u64,
    /// Blocked (sleeping) time.
    pub blocked: u64,
    /// Gaps the log could not attribute (should be 0 for complete logs).
    pub untracked: u64,
}

impl LatencyBreakdown {
    /// Observed wall latency: first observation → last observation.
    pub fn wall(&self) -> u64 {
        self.last.saturating_sub(self.first)
    }

    /// Sum of all components; equals [`LatencyBreakdown::wall`].
    pub fn sum(&self) -> u64 {
        self.wakeup_wait
            + self.preemption_loss
            + self.queue_wait
            + self.run
            + self.blocked
            + self.untracked
    }

    /// Renders the breakdown as aligned text lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let wall = self.wall().max(1);
        let pct = |v: u64| (v as f64) * 100.0 / (wall as f64);
        let _ = writeln!(
            out,
            "latency breakdown for pid {} (wall {}):",
            self.pid,
            fmt_ns(Ns(self.wall()))
        );
        let mut row = |label: &str, v: u64| {
            if v > 0 {
                let _ = writeln!(out, "  {label:<16} {:>10}  {:>5.1}%", fmt_ns(Ns(v)), pct(v));
            }
        };
        row("wakeup wait", self.wakeup_wait);
        row("preemption loss", self.preemption_loss);
        row("queue wait", self.queue_wait);
        row("run", self.run);
        row("blocked", self.blocked);
        row("untracked", self.untracked);
        out
    }
}

/// One step of a causal critical path, chronological.
#[derive(Debug, Clone, Copy)]
pub struct CritStep {
    /// The span this step covers.
    pub span: Span,
    /// Set when the path jumped here from another task via a wakeup edge:
    /// the pid this task went on to wake.
    pub wakes: Option<i64>,
}

// ---------------------------------------------------------------------
// Graph construction
// ---------------------------------------------------------------------

/// The lifecycle state [`SpanGraph::build`] carries through the log.
#[derive(Default)]
struct OpenSpans {
    /// Each live task's open span; `end` is set when it closes.
    life: HashMap<i64, Span>,
    /// Which task occupies each cpu (to close its slice on a switch).
    on_cpu: HashMap<i32, i64>,
}

impl SpanGraph {
    /// Builds the span graph from a record log.
    pub fn build(log: &[Rec]) -> SpanGraph {
        let mut g = SpanGraph::default();
        let mut open = OpenSpans::default();
        // Pick calls whose Ret has not arrived yet: tid -> (now, cpu).
        let mut pending_pick: HashMap<u32, (u64, i32)> = HashMap::new();
        // Last releaser of each shim lock: lock -> tid.
        let mut last_release: HashMap<u64, u32> = HashMap::new();
        let mut clock = 0u64;
        let mut first = None;

        for rec in log {
            match *rec {
                Rec::Call { tid, func, args } => {
                    clock = args.now;
                    if first.is_none() {
                        first = Some(args.now);
                    }
                    g.cpus.entry(tid as usize).or_default().calls += 1;
                    let pid = args.pid;
                    if pid >= 0 {
                        let t = g.task(pid);
                        t.last_runtime = t.last_runtime.max(args.runtime);
                    }
                    match func {
                        FuncId::TaskNew => {
                            let kind = SpanKind::Runnable(RunnableFrom::Created);
                            g.enter(&mut open, pid, args.now, kind, args.cpu);
                        }
                        FuncId::TaskWakeup => {
                            g.task(pid).wakeups += 1;
                            if args.flags >= 256 {
                                g.edges.push(Edge {
                                    kind: EdgeKind::Wakeup,
                                    from: ((args.flags >> 8) - 1) as i64,
                                    to: pid,
                                    at: args.now,
                                    detail: args.cpu.max(0) as u64,
                                });
                            }
                            // A wakeup for a task already on cpu carries no
                            // queueing information; ignore it.
                            if open.life.get(&pid).is_none_or(|s| s.kind != SpanKind::Running) {
                                let kind = SpanKind::Runnable(RunnableFrom::Wakeup);
                                g.enter(&mut open, pid, args.now, kind, args.cpu);
                            }
                        }
                        FuncId::TaskBlocked => {
                            g.task(pid).blocks += 1;
                            g.enter(&mut open, pid, args.now, SpanKind::Blocked, -1);
                        }
                        FuncId::TaskYield | FuncId::TaskPreempt => {
                            let from = if func == FuncId::TaskPreempt {
                                g.task(pid).preemptions += 1;
                                RunnableFrom::Preempt
                            } else {
                                g.task(pid).yields += 1;
                                RunnableFrom::Yield
                            };
                            let kind = SpanKind::Runnable(from);
                            g.enter(&mut open, pid, args.now, kind, args.cpu);
                        }
                        FuncId::MigrateTaskRq => {
                            g.task(pid).migrations += 1;
                            if let Some(s) = open.life.get_mut(&pid) {
                                if matches!(s.kind, SpanKind::Runnable(_)) {
                                    s.cpu = args.cpu;
                                }
                            }
                        }
                        FuncId::TaskDead | FuncId::TaskDeparted => {
                            g.close(&mut open, pid, args.now);
                        }
                        FuncId::PickNextTask => {
                            pending_pick.insert(tid, (args.now, args.cpu));
                        }
                        _ => {}
                    }
                }
                Rec::Ret { tid, func: FuncId::PickNextTask, val } => {
                    let Some((now, cpu)) = pending_pick.remove(&tid) else {
                        continue;
                    };
                    let census = g.cpus.entry(cpu.max(0) as usize).or_default();
                    census.picks += 1;
                    if val < 0 {
                        census.idle_picks += 1;
                        continue;
                    }
                    let pid = val;
                    g.task(pid).picks += 1;
                    // A pick implicitly switches out whoever held the cpu.
                    if let Some(prev) = open.on_cpu.get(&cpu).copied().filter(|&p| p != pid) {
                        let kind = SpanKind::Runnable(RunnableFrom::Switched);
                        g.enter(&mut open, prev, now, kind, cpu);
                    }
                    g.enter(&mut open, pid, now, SpanKind::Running, cpu);
                    open.on_cpu.insert(cpu, pid);
                }
                Rec::Hint { pid, kind, a, .. } if a >= 0 && a != pid => {
                    g.edges.push(Edge {
                        kind: EdgeKind::Hint,
                        from: pid,
                        to: a,
                        at: clock,
                        detail: kind as u64,
                    });
                }
                Rec::LockRelease { tid, lock } => {
                    last_release.insert(lock, tid);
                }
                Rec::LockAcquire { tid, lock, .. } => {
                    if let Some(&rel) = last_release.get(&lock) {
                        if rel != tid {
                            g.edges.push(Edge {
                                kind: EdgeKind::LockHandoff,
                                from: rel as i64,
                                to: tid as i64,
                                at: clock,
                                detail: lock,
                            });
                        }
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
                    g.decisions.push(DecisionView {
                        at,
                        cpu,
                        policy,
                        chosen,
                        candidates,
                        reason,
                        predicted,
                    });
                }
                _ => {}
            }
        }
        // Close everything still open at the last observed instant, in
        // pid order — iteration must not depend on HashMap layout or the
        // graph hash would vary between identical runs.
        g.open_from = g.spans.len();
        let mut pids: Vec<i64> = open.life.keys().copied().collect();
        pids.sort_unstable();
        for pid in pids {
            g.close(&mut open, pid, clock);
        }
        g.first_now = first.unwrap_or(0);
        g.last_now = clock;
        g
    }

    fn task(&mut self, pid: i64) -> &mut TaskTrace {
        self.tasks.entry(pid).or_default()
    }

    /// Closes `pid`'s open span (if any) at `now` and opens the next one.
    fn enter(&mut self, open: &mut OpenSpans, pid: i64, now: u64, kind: SpanKind, cpu: i32) {
        self.close(open, pid, now);
        open.life.insert(pid, Span { pid, kind, start: now, end: now, cpu });
    }

    /// Closes `pid`'s open span (if any) into the graph at `now`.
    fn close(&mut self, open: &mut OpenSpans, pid: i64, now: u64) {
        let Some(span) = open.life.remove(&pid) else { return };
        if span.kind == SpanKind::Running && open.on_cpu.get(&span.cpu) == Some(&pid) {
            open.on_cpu.remove(&span.cpu);
        }
        let idx = self.spans.len();
        self.spans.push(Span { end: now, ..span });
        self.task(pid).spans.push(idx);
    }

    // -----------------------------------------------------------------
    // Analyses
    // -----------------------------------------------------------------

    /// The per-task latency breakdown; `None` for an unknown pid.
    pub fn breakdown(&self, pid: i64) -> Option<LatencyBreakdown> {
        let t = self.tasks.get(&pid)?;
        let spans: Vec<&Span> = t.spans.iter().map(|&i| &self.spans[i]).collect();
        let first = spans.iter().map(|s| s.start).min()?;
        let last = spans.iter().map(|s| s.end).max()?;
        let mut b = LatencyBreakdown { pid, first, last, ..LatencyBreakdown::default() };
        for s in &spans {
            let d = s.dur();
            match s.kind {
                SpanKind::Runnable(RunnableFrom::Wakeup) => b.wakeup_wait += d,
                SpanKind::Runnable(RunnableFrom::Preempt | RunnableFrom::Switched) => {
                    b.preemption_loss += d
                }
                SpanKind::Runnable(RunnableFrom::Yield | RunnableFrom::Created) => {
                    b.queue_wait += d
                }
                SpanKind::Running => b.run += d,
                SpanKind::Blocked => b.blocked += d,
            }
        }
        // Spans are contiguous by construction; anything the state machine
        // still missed (e.g. a task re-created after task_dead) lands in
        // `untracked` so the sum-to-wall invariant holds unconditionally.
        b.untracked = b.wall().saturating_sub(
            b.wakeup_wait + b.preemption_loss + b.queue_wait + b.run + b.blocked,
        );
        Some(b)
    }

    /// The causal chain ending at `pid`'s last activity: the task's spans
    /// walked backwards, jumping to the waker task at each fresh-wakeup
    /// boundary. Returned in chronological order.
    pub fn critical_path(&self, pid: i64) -> Vec<CritStep> {
        let mut steps: Vec<CritStep> = Vec::new();
        let mut cur_pid = pid;
        let mut wakes: Option<i64> = None;
        // Start from the task's last span and walk back.
        let Some(t) = self.tasks.get(&cur_pid) else { return steps };
        let mut idx = t.spans.len();
        const MAX_STEPS: usize = 24;
        while steps.len() < MAX_STEPS {
            let Some(t) = self.tasks.get(&cur_pid) else { break };
            if idx == 0 {
                break;
            }
            idx -= 1;
            let span = self.spans[t.spans[idx]];
            steps.push(CritStep { span, wakes: wakes.take() });
            if let SpanKind::Runnable(RunnableFrom::Wakeup) = span.kind {
                // Jump to whoever caused this wakeup, if the edge is known.
                if let Some(e) = self
                    .edges
                    .iter()
                    .rev()
                    .find(|e| {
                        e.kind == EdgeKind::Wakeup && e.to == cur_pid && e.at == span.start
                    })
                    .filter(|e| e.from >= 0 && e.from != cur_pid)
                {
                    let waker = e.from;
                    if let Some(wt) = self.tasks.get(&waker) {
                        // Resume from the waker's span covering the wakeup.
                        if let Some(pos) = wt
                            .spans
                            .iter()
                            .rposition(|&i| self.spans[i].start <= e.at)
                        {
                            wakes = Some(cur_pid);
                            cur_pid = waker;
                            idx = pos + 1;
                            continue;
                        }
                    }
                }
                break;
            }
        }
        steps.reverse();
        steps
    }

    /// The pid owning the p99 (by duration) fresh-wakeup wait span — the
    /// default critical-path target when no pid is given.
    pub fn tail_pid(&self) -> Option<i64> {
        let mut waits: Vec<(u64, i64, u64)> = self
            .spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Runnable(RunnableFrom::Wakeup)))
            .map(|s| (s.dur(), s.pid, s.start))
            .collect();
        if waits.is_empty() {
            return None;
        }
        waits.sort_unstable();
        let idx = ((waits.len() - 1) as f64 * 0.99).round() as usize;
        Some(waits[idx].1)
    }

    /// FNV-1a fingerprint of the whole graph: spans, edges, decisions.
    /// Identical runs hash identically; the determinism tests and the
    /// trace bench baseline pin this value.
    pub fn graph_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        for s in &self.spans {
            h.u64(s.pid as u64);
            h.u64(s.kind.hash_code());
            h.u64(s.start);
            h.u64(s.end);
            h.u64(s.cpu as u64);
        }
        for e in &self.edges {
            h.u64(match e.kind {
                EdgeKind::Wakeup => 1,
                EdgeKind::Hint => 2,
                EdgeKind::LockHandoff => 3,
            });
            h.u64(e.from as u64);
            h.u64(e.to as u64);
            h.u64(e.at);
            h.u64(e.detail);
        }
        for d in &self.decisions {
            h.u64(d.at);
            h.u64(d.cpu as u64);
            h.u64(d.policy as u64);
            h.u64(d.chosen as u64);
            h.u64(d.candidates as u64);
            h.u64(d.reason as u64);
            h.u64(d.predicted);
        }
        h.finish()
    }

    /// Decisions that picked some other task while `pid` sat runnable on
    /// the decided cpu — the "chosen over" evidence for `why`.
    pub fn chosen_over(&self, pid: i64) -> Vec<DecisionView> {
        let Some(t) = self.tasks.get(&pid) else { return Vec::new() };
        let mut out = Vec::new();
        for &i in &t.spans {
            let s = &self.spans[i];
            if !matches!(s.kind, SpanKind::Runnable(_)) {
                continue;
            }
            for d in &self.decisions {
                if d.cpu == s.cpu
                    && d.chosen != pid
                    && d.chosen >= 0
                    && d.at >= s.start
                    && d.at < s.end
                {
                    out.push(*d);
                }
            }
        }
        out.sort_by_key(|d| d.at);
        out
    }

    // -----------------------------------------------------------------
    // Renders
    // -----------------------------------------------------------------

    /// Renders the per-task span table plus graph totals.
    pub fn render_spans(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>7} {:>7} {:>5}  {:>10} {:>10} {:>10} {:>10} {:>10}",
            "pid", "spans", "wakeups", "preempt", "migr", "wake-wait", "preempt-l", "queue-wait",
            "run", "blocked"
        );
        for (&pid, t) in &self.tasks {
            let b = self.breakdown(pid).unwrap_or_default();
            let _ = writeln!(
                out,
                "{:>6} {:>6} {:>7} {:>7} {:>5}  {:>10} {:>10} {:>10} {:>10} {:>10}",
                pid,
                t.spans.len(),
                t.wakeups,
                t.preemptions,
                t.migrations,
                fmt_ns(Ns(b.wakeup_wait)),
                fmt_ns(Ns(b.preemption_loss)),
                fmt_ns(Ns(b.queue_wait)),
                fmt_ns(Ns(b.run)),
                fmt_ns(Ns(b.blocked)),
            );
        }
        let by_kind = |k: EdgeKind| self.edges.iter().filter(|e| e.kind == k).count();
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} spans, {} edges ({} wakeup, {} hint, {} lock-handoff), {} decisions",
            self.spans.len(),
            self.edges.len(),
            by_kind(EdgeKind::Wakeup),
            by_kind(EdgeKind::Hint),
            by_kind(EdgeKind::LockHandoff),
            self.decisions.len(),
        );
        let _ = writeln!(out, "graph hash {:#018x}", self.graph_hash());
        out
    }

    /// Renders a critical path as chronological steps.
    pub fn render_critpath(&self, pid: i64) -> String {
        let steps = self.critical_path(pid);
        if steps.is_empty() {
            return format!("no spans recorded for pid {pid}\n");
        }
        let mut out = String::new();
        let _ = writeln!(out, "critical path to pid {pid} (chronological):");
        for s in &steps {
            let span = s.span;
            let _ = write!(
                out,
                "  t={:<12} +{:<9} pid {:<5} {:<17} cpu {}",
                span.start,
                fmt_ns(Ns(span.dur())),
                span.pid,
                span.kind.name(),
                span.cpu,
            );
            if let Some(wakee) = s.wakes {
                let _ = write!(out, "  -> wakes pid {wakee}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders the full "why is pid slow" explanation: causal chain,
    /// chosen-over decisions, and the latency breakdown.
    pub fn render_why(&self, pid: i64) -> String {
        let Some(b) = self.breakdown(pid) else {
            return format!("no spans recorded for pid {pid}\n");
        };
        let mut out = String::new();
        // Waker provenance: the last fresh wakeup and who caused it.
        if let Some(e) = self
            .edges
            .iter()
            .rev()
            .find(|e| e.kind == EdgeKind::Wakeup && e.to == pid)
        {
            let _ = writeln!(
                out,
                "pid {pid} last woken by pid {} at t={} (queued on cpu {})",
                e.from, e.at, e.detail
            );
        } else {
            let _ = writeln!(out, "pid {pid}: no recorded waker (external or first wakeup)");
        }
        let _ = write!(out, "{}", self.render_critpath(pid));
        // Chosen-over evidence with reason codes.
        let over = self.chosen_over(pid);
        if !over.is_empty() {
            let _ = writeln!(
                out,
                "passed over {} time(s) while runnable; most recent:",
                over.len()
            );
            for d in over.iter().rev().take(8).rev() {
                let _ = write!(
                    out,
                    "  t={:<12} cpu {} policy {} chose pid {} ({}; {} candidates",
                    d.at, d.cpu, d.policy, d.chosen, d.reason.name(), d.candidates
                );
                if d.predicted > 0 {
                    let _ = write!(out, "; predicted {}", fmt_ns(Ns(d.predicted)));
                }
                let _ = writeln!(out, ")");
            }
        }
        let _ = write!(out, "{}", b.render());
        out
    }
}

// ---------------------------------------------------------------------
// Virtual-time sampling profiler
// ---------------------------------------------------------------------

/// Per-policy virtual-time attribution to scheduler callbacks.
#[derive(Debug, Default)]
pub struct ProfileReport {
    /// policy id -> callback name -> (samples, attributed virtual ns).
    /// Policy `-1` covers records before the first decision or switch
    /// identified the running policy.
    pub policies: BTreeMap<i32, BTreeMap<&'static str, (u64, u64)>>,
    /// Total samples taken.
    pub samples: u64,
    /// The sampling stride used.
    pub stride: usize,
}

impl ProfileReport {
    /// Renders per-policy callback tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "virtual-time profile ({} samples, stride {}):",
            self.samples, self.stride
        );
        for (policy, funcs) in &self.policies {
            let total: u64 = funcs.values().map(|&(_, v)| v).sum();
            let _ = writeln!(out, "policy {policy} ({} attributed):", fmt_ns(Ns(total)));
            let mut rows: Vec<(&&str, &(u64, u64))> = funcs.iter().collect();
            rows.sort_by_key(|(_, &(_, v))| std::cmp::Reverse(v));
            for (func, &(n, v)) in rows {
                let pct = if total > 0 { v as f64 * 100.0 / total as f64 } else { 0.0 };
                let _ = writeln!(
                    out,
                    "  {func:<22} {n:>8} samples  {:>10}  {pct:>5.1}%",
                    fmt_ns(Ns(v))
                );
            }
        }
        out
    }
}

/// Samples every `stride`-th scheduler call and attributes the virtual
/// time since the previous sample to the sampled callback, under the
/// policy in force at that instant (tracked from switch markers and
/// decision records). `stride` 1 attributes every inter-call gap.
pub fn profile(log: &[Rec], stride: usize) -> ProfileReport {
    let stride = stride.max(1);
    let mut report = ProfileReport { stride, ..ProfileReport::default() };
    let mut policy = -1i32;
    let mut seen = 0usize;
    let mut last_sample_now: Option<u64> = None;
    for rec in log {
        match *rec {
            Rec::Switch { to, .. } => policy = to,
            Rec::Decision { policy: p, .. } => policy = p,
            Rec::Call { func, args, .. } => {
                seen += 1;
                if !seen.is_multiple_of(stride) {
                    continue;
                }
                let dv = last_sample_now.map_or(0, |prev| args.now.saturating_sub(prev));
                last_sample_now = Some(args.now);
                let slot = report
                    .policies
                    .entry(policy)
                    .or_default()
                    .entry(func.name())
                    .or_insert((0, 0));
                slot.0 += 1;
                slot.1 += dv;
                report.samples += 1;
            }
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CallArgs;

    fn call(tid: u32, func: FuncId, pid: i64, cpu: i32, now: u64) -> Rec {
        Rec::Call {
            tid,
            func,
            args: CallArgs { now, pid, cpu, ..CallArgs::default() },
        }
    }

    fn wake_by(tid: u32, pid: i64, cpu: i32, now: u64, waker: i64) -> Rec {
        Rec::Call {
            tid,
            func: FuncId::TaskWakeup,
            args: CallArgs {
                now,
                pid,
                cpu,
                flags: ((waker as u32) + 1) << 8,
                ..CallArgs::default()
            },
        }
    }

    fn ret(tid: u32, func: FuncId, val: i64) -> Rec {
        Rec::Ret { tid, func, val }
    }

    fn decision(at: u64, cpu: i32, chosen: i64, candidates: u32) -> Rec {
        Rec::Decision {
            tid: cpu as u32,
            at,
            cpu,
            policy: 10,
            chosen,
            candidates,
            reason: DecisionReason::MinVruntime,
            predicted: 0,
        }
    }

    /// pid 9 runs, wakes pid 7 at t=1000; cpu 0 picks pid 9 again at
    /// t=1500 (passing 7 over), preempts 9 at t=2000 and picks 7; 7 runs
    /// until it blocks at t=5000, wakes again at t=6000, runs at t=6500,
    /// and the log ends at t=7000.
    fn chain_log() -> Vec<Rec> {
        vec![
            call(0, FuncId::TaskNew, 9, 0, 0),
            call(0, FuncId::PickNextTask, -1, 0, 100),
            ret(0, FuncId::PickNextTask, 9),
            wake_by(0, 7, 0, 1000, 9),
            call(0, FuncId::TaskPreempt, 9, 0, 1500),
            call(0, FuncId::PickNextTask, -1, 0, 1500),
            decision(1500, 0, 9, 2),
            ret(0, FuncId::PickNextTask, 9),
            call(0, FuncId::TaskPreempt, 9, 0, 2000),
            call(0, FuncId::PickNextTask, -1, 0, 2000),
            decision(2000, 0, 7, 2),
            ret(0, FuncId::PickNextTask, 7),
            call(0, FuncId::TaskBlocked, 7, 0, 5000),
            call(0, FuncId::PickNextTask, -1, 0, 5100),
            ret(0, FuncId::PickNextTask, 9),
            wake_by(0, 7, 0, 6000, 9),
            call(0, FuncId::TaskPreempt, 9, 0, 6500),
            call(0, FuncId::PickNextTask, -1, 0, 6500),
            decision(6500, 0, 7, 2),
            ret(0, FuncId::PickNextTask, 7),
            call(0, FuncId::TaskTick, 7, 0, 7000),
        ]
    }

    #[test]
    fn breakdown_components_sum_to_wall_latency() {
        let g = SpanGraph::build(&chain_log());
        for &pid in g.tasks.keys() {
            let b = g.breakdown(pid).unwrap();
            assert_eq!(b.sum(), b.wall(), "pid {pid}: {b:?}");
        }
        let b = g.breakdown(7).unwrap();
        // Woken at 1000, picked at 2000; woken at 6000, picked at 6500.
        assert_eq!(b.wakeup_wait, 1000 + 500);
        // Ran 2000..5000 and 6500..7000.
        assert_eq!(b.run, 3000 + 500);
        assert_eq!(b.blocked, 1000);
        assert_eq!(b.wall(), 6000);
    }

    #[test]
    fn wakeup_edges_carry_the_waker() {
        let g = SpanGraph::build(&chain_log());
        let wakes: Vec<&Edge> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Wakeup)
            .collect();
        assert_eq!(wakes.len(), 2);
        assert!(wakes.iter().all(|e| e.from == 9 && e.to == 7));
    }

    #[test]
    fn chosen_over_finds_the_passed_over_pick() {
        let g = SpanGraph::build(&chain_log());
        let over = g.chosen_over(7);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].at, 1500);
        assert_eq!(over[0].chosen, 9);
        assert_eq!(over[0].reason, DecisionReason::MinVruntime);
    }

    #[test]
    fn critical_path_jumps_to_the_waker() {
        let g = SpanGraph::build(&chain_log());
        let steps = g.critical_path(7);
        assert!(!steps.is_empty());
        // The chain must include a span of the waker task 9 and end on 7.
        assert!(steps.iter().any(|s| s.span.pid == 9));
        assert_eq!(steps.last().unwrap().span.pid, 7);
        // Exactly one step is marked as the cross-task wake jump.
        assert_eq!(steps.iter().filter(|s| s.wakes == Some(7)).count(), 1);
    }

    #[test]
    fn graph_hash_is_stable_and_input_sensitive() {
        let a = SpanGraph::build(&chain_log()).graph_hash();
        let b = SpanGraph::build(&chain_log()).graph_hash();
        assert_eq!(a, b);
        let mut log = chain_log();
        log.truncate(log.len() - 1);
        assert_ne!(a, SpanGraph::build(&log).graph_hash());
    }

    #[test]
    fn tail_pid_names_the_worst_wakeup_wait() {
        let g = SpanGraph::build(&chain_log());
        // pid 7 owns both fresh-wakeup waits; it is the tail by definition.
        assert_eq!(g.tail_pid(), Some(7));
    }

    #[test]
    fn why_render_names_waker_reason_and_breakdown() {
        let g = SpanGraph::build(&chain_log());
        let why = g.render_why(7);
        assert!(why.contains("woken by pid 9"), "{why}");
        assert!(why.contains("min_vruntime"), "{why}");
        assert!(why.contains("latency breakdown for pid 7"), "{why}");
        assert!(why.contains("wakeup wait"), "{why}");
    }

    #[test]
    fn profiler_attributes_virtual_time_per_policy() {
        let p = profile(&chain_log(), 1);
        assert!(p.samples > 0);
        // Policy 10 is announced by the first decision; both the unknown
        // prefix and the attributed tail must be present.
        assert!(p.policies.contains_key(&-1));
        assert!(p.policies.contains_key(&10));
        let total: u64 = p
            .policies
            .values()
            .flat_map(|f| f.values())
            .map(|&(_, v)| v)
            .sum();
        // All sampled gaps together cover the whole log span minus the
        // prefix before the first sample.
        assert!(total <= 7000);
        assert!(total > 0);
        let render = p.render();
        assert!(render.contains("pick_next_task"), "{render}");
    }

    #[test]
    fn decision_emission_is_gated_on_recording() {
        // Not recording: emit_decision must be a no-op regardless of the
        // enable flag (nothing to assert beyond "does not panic/deadlock").
        set_decision_trace(true);
        emit_decision(Ns(1), 0, 10, 5, 2, DecisionReason::QueueHead, 0);
        set_decision_trace(false);
        emit_decision(Ns(1), 0, 10, 5, 2, DecisionReason::QueueHead, 0);
        set_decision_trace(true);
        assert!(decision_trace_enabled());
    }
}
