//! In-memory spans recorded from outside the layers.
//!
//! Every proxy in [`crate::proxy`] and every timed call in the workloads
//! opens a span here. Spans are aggregated per kind (count + total ns);
//! the first [`RAW_CAP`] of a run are also kept raw, with their parent,
//! and written as a Chrome trace when the run ends. A layer's self time
//! is its spans' total minus its children's total.

use crate::json::J;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept per run; later spans are aggregated only.
pub const RAW_CAP: usize = 100_000;

/// The layer a span belongs to (module names of the repo).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `enoki_sim::machine`: one span per timed run of the event loop.
    Machine,
    /// `enoki_core::dispatch`: `SchedClass` callbacks seen by [`crate::proxy::TimedClass`].
    Dispatch,
    /// `enoki_sched`: `EnokiScheduler` callbacks seen by [`crate::proxy::TimedPolicy`].
    Policy,
    /// `enoki_sim::cluster` shards seen by [`crate::proxy::TimedShard`].
    Shard,
    /// Record, replay, forensics and tracing calls timed by the workload.
    Phase,
}

macro_rules! kinds {
    ($($id:ident = $layer:ident $name:literal),* $(,)?) => {
        /// One span kind per (layer, callback).
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[allow(missing_docs)]
        pub enum Kind { $($id),* }
        /// Layer and callback name of every kind, indexed by `Kind as usize`.
        pub const KINDS: &[(Layer, &str)] = &[$((Layer::$layer, $name)),*];
    };
}

kinds! {
    Run = Machine "run",
    CSelectRq = Dispatch "select_task_rq", CNew = Dispatch "task_new",
    CWakeup = Dispatch "task_wakeup", CBlocked = Dispatch "task_blocked",
    CYield = Dispatch "task_yield", CPreempt = Dispatch "task_preempt",
    CDead = Dispatch "task_dead", CDeparted = Dispatch "task_departed",
    CAffinity = Dispatch "task_affinity_changed", CPrio = Dispatch "task_prio_changed",
    CTick = Dispatch "task_tick", CPick = Dispatch "pick_next_task",
    CPickRejected = Dispatch "pick_rejected", CBalance = Dispatch "balance",
    CBalanceErr = Dispatch "balance_err", CMigrate = Dispatch "migrate_task_rq",
    CHint = Dispatch "deliver_hint",
    PSelectRq = Policy "select_task_rq", PNew = Policy "task_new",
    PWakeup = Policy "task_wakeup", PBlocked = Policy "task_blocked",
    PYield = Policy "task_yield", PPreempt = Policy "task_preempt",
    PDead = Policy "task_dead", PDeparted = Policy "task_departed",
    PAffinity = Policy "task_affinity_changed", PPrio = Policy "task_prio_changed",
    PTick = Policy "task_tick", PPick = Policy "pick_next_task",
    PPntErr = Policy "pnt_err", PBalance = Policy "balance",
    PBalanceErr = Policy "balance_err", PMigrate = Policy "migrate_task_rq",
    PEnterQueue = Policy "enter_queue", PParseHint = Policy "parse_hint",
    SFactory = Shard "factory", SRunUntil = Shard "run_until", SCollect = Shard "collect",
    SDeliver = Shard "deliver", SFinish = Shard "finish",
    Flush = Phase "stop_recording", LoadLog = Phase "load_log",
    Attribute = Phase "attribute_latency", Graph = Phase "span_graph",
    Calibrate = Phase "empty_proxied_call",
}

struct Raw {
    kind: Kind,
    id: u32,
    parent: u32,
    tid: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open span; close it with [`Sink::exit`].
pub struct Open {
    kind: Kind,
    start: Instant,
    id: u32,
    parent: u32,
    tid: u32,
    nested: bool,
}

/// The span store of one traced run.
pub struct Sink {
    epoch: Instant,
    count: Vec<AtomicU64>,
    total_ns: Vec<AtomicU64>,
    raw: Mutex<Vec<Raw>>,
    next_id: AtomicU32,
    /// Innermost open span on the simulation thread (0 = none).
    current: AtomicU32,
}

impl Sink {
    /// An empty sink; span times are relative to now.
    pub fn new() -> Sink {
        Sink {
            epoch: Instant::now(),
            count: KINDS.iter().map(|_| AtomicU64::new(0)).collect(),
            total_ns: KINDS.iter().map(|_| AtomicU64::new(0)).collect(),
            raw: Mutex::new(Vec::with_capacity(RAW_CAP)),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
        }
    }

    /// Opens a span nested in the innermost open span of the (single)
    /// simulation thread.
    pub fn enter(&self, kind: Kind) -> Open {
        let parent = self.current.load(Relaxed);
        let id = self.claim_id();
        if id != 0 {
            self.current.store(id, Relaxed);
        }
        Open {
            kind,
            start: Instant::now(),
            id,
            parent,
            tid: 0,
            nested: true,
        }
    }

    /// Opens a root span on lane `tid`. Shards run on several worker
    /// threads, so their spans never nest through the shared `current`.
    pub fn enter_root(&self, kind: Kind, tid: u32) -> Open {
        Open {
            kind,
            start: Instant::now(),
            id: self.claim_id(),
            parent: 0,
            tid,
            nested: false,
        }
    }

    /// Closes a span: aggregates it and keeps it raw while there is room.
    pub fn exit(&self, o: Open) -> u64 {
        let end = Instant::now();
        let ns = end.duration_since(o.start).as_nanos() as u64;
        self.count[o.kind as usize].fetch_add(1, Relaxed);
        self.total_ns[o.kind as usize].fetch_add(ns, Relaxed);
        if o.id != 0 {
            if o.nested {
                self.current.store(o.parent, Relaxed);
            }
            let start_ns = o.start.duration_since(self.epoch).as_nanos() as u64;
            self.raw.lock().expect("span store poisoned").push(Raw {
                kind: o.kind,
                id: o.id,
                parent: o.parent,
                tid: o.tid,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
        ns
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let o = self.enter(kind);
        let r = f();
        self.exit(o);
        r
    }

    fn claim_id(&self) -> u32 {
        if self.next_id.load(Relaxed) as usize > RAW_CAP {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Relaxed);
        if id as usize > RAW_CAP {
            0
        } else {
            id
        }
    }

    /// Spans of `kind` closed so far.
    pub fn count(&self, kind: Kind) -> u64 {
        self.count[kind as usize].load(Relaxed)
    }

    /// Total nanoseconds inside spans of `kind`.
    pub fn ns(&self, kind: Kind) -> u64 {
        self.total_ns[kind as usize].load(Relaxed)
    }

    /// `(spans, total ns)` over every kind of `layer`.
    pub fn layer(&self, layer: Layer) -> (u64, u64) {
        KINDS
            .iter()
            .enumerate()
            .filter(|(_, k)| k.0 == layer)
            .fold((0, 0), |(c, n), (i, _)| {
                (
                    c + self.count[i].load(Relaxed),
                    n + self.total_ns[i].load(Relaxed),
                )
            })
    }

    /// Per-kind rows `(layer, callback, spans, total ns)` with at least one span.
    pub fn rows(&self) -> Vec<(Layer, &'static str, u64, u64)> {
        KINDS
            .iter()
            .enumerate()
            .map(|(i, k)| {
                (
                    k.0,
                    k.1,
                    self.count[i].load(Relaxed),
                    self.total_ns[i].load(Relaxed),
                )
            })
            .filter(|r| r.2 > 0)
            .collect()
    }

    /// The raw spans as a Chrome `trace_event` document.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let raw = self.raw.lock().expect("span store poisoned");
        let events = raw
            .iter()
            .map(|s| {
                let (layer, name) = KINDS[s.kind as usize];
                J::obj(vec![
                    ("name", J::Str(name.to_string())),
                    ("cat", J::Str(format!("{layer:?}"))),
                    ("ph", J::Str("X".into())),
                    ("pid", J::Str(workload.to_string())),
                    ("tid", J::Int(s.tid as u64)),
                    ("ts", J::Num(s.start_ns as f64 / 1e3)),
                    ("dur", J::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        J::obj(vec![
                            ("id", J::Int(s.id as u64)),
                            ("parent", J::Int(s.parent as u64)),
                        ]),
                    ),
                ])
            })
            .collect();
        J::obj(vec![("traceEvents", J::Arr(events))]).to_string()
    }
}
