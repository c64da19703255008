#![warn(missing_docs)]

//! # enoki-core — the Enoki framework
//!
//! A reproduction of the Enoki framework for high-velocity Linux kernel
//! scheduler development (Miller et al., EuroSys 2024), running against the
//! `enoki-sim` kernel substrate:
//!
//! - [`api::EnokiScheduler`] — the safe scheduler API (paper Table 1).
//!   Schedulers implement this trait in 100% safe Rust.
//! - [`schedulable::Schedulable`] — the non-clonable ownership token that
//!   proves a task is runnable on a core; wrong-core picks are caught by
//!   the framework (`pnt_err`) instead of crashing the kernel (§3.1).
//! - [`dispatch::EnokiClass`] — the dispatch layer (the Enoki-C/libEnoki
//!   pair): message passing, the per-scheduler quiescing lock, token
//!   minting/validation, per-call overhead, and record hooks.
//! - Live upgrade (§3.2): [`dispatch::EnokiClass::upgrade`] quiesces the
//!   module, transfers custom state, and swaps the module pointer with a
//!   µs-scale measured blackout.
//! - [`queue::RingBuffer`] — bidirectional user↔kernel hint queues (§3.3).
//! - [`metrics`] — the unified observability layer: a lock-free metrics
//!   registry (counters, gauges, latency histograms keyed by scheduler,
//!   cpu, and event kind), a structured trace-event sink over the SPSC
//!   ring, snapshot/diff reading, and Chrome `trace_event` export.
//! - [`record`] / [`replay`] — record each call, hint, and lock
//!   acquisition through a ring drained by a userspace writer thread, then
//!   re-run the *same scheduler code* in userspace with the recorded lock
//!   order enforced, validating every response (§3.4).
//! - [`forensics`] — offline analysis of record logs: per-task latency
//!   attribution, per-lock contention stats with a lock-order cycle
//!   detector, typed replay divergences with context windows, and Chrome
//!   `trace_event` export (the `enoki-log` CLI front-end lives in
//!   `crates/replay`).
//! - [`health`] — live health telemetry: a watchdog evaluating invariant
//!   monitors (starvation, `Schedulable` conservation, hint-queue stalls,
//!   runqueue imbalance, upgrade-blackout SLO, pnt_err storms) on a
//!   periodic virtual-time cadence, plus a bounded time-series ring with
//!   an `enoki-top`-style renderer and JSON export.
//! - [`faults`] — deterministic fault injection: a seeded, virtual-time
//!   [`faults::FaultPlan`] detonates scheduler misbehaviour (panics, forged
//!   and dropped tokens, pnt_err storms, hint stalls) at the dispatch
//!   boundary; the framework survives all of it by quarantining the module
//!   and failing over to a built-in failsafe FIFO until a replacement
//!   re-registers through the live-upgrade path.
//! - [`tracing`] — causal span tracing over record logs: per-task span
//!   chains with cross-task causal edges (waker, hint, lock handoff),
//!   typed pick-decision records with reason codes, per-task latency
//!   breakdowns that sum to wall latency, critical-path extraction, and a
//!   virtual-time sampling profiler per policy (the `enoki-log spans` /
//!   `critpath` / `why` CLI front-ends live in `crates/replay`).
//! - [`flight`] — the always-on flight recorder: a fixed-budget
//!   lock-free overwrite-oldest mirror of the record stream, snapshotted
//!   to black-box dumps (ordinary record logs + a JSON manifest) on
//!   critical health events, SLO burns, quarantines, or an explicit
//!   [`flight::SnapshotBlackbox::snapshot_blackbox`] — the layer that
//!   makes unrecorded runs diagnosable after the fact.
//! - [`builder`] — [`builder::MachineBuilder`], the single fluent config
//!   path for a machine + scheduler class: metrics, health/watchdog,
//!   sampler cadence, event-queue choice, token ledger, fault plan,
//!   flight recorder, and SLO.
//! - [`cluster`] — framework glue for sharded fleet runs on the
//!   [`enoki_sim::cluster`] engine: [`cluster::ClusterBuilder`] shapes the
//!   shard/epoch spec, [`cluster::ClusterCapture`] gives every machine its
//!   own replayable record stream (per-stream lock ids, epoch frames), and
//!   [`cluster::aggregate_metrics`] folds per-shard snapshots into one
//!   fleet-wide view.
//! - [`meta`] — the meta-scheduler: a [`meta::MetaController`] watches the
//!   health time series and live-switches between registered policies
//!   through the blackout-bounded upgrade path, hysteresis-guarded and
//!   replay-deterministic; [`meta::Switchable`] makes arbitrary policy
//!   pairs hot-swappable by draining and re-feeding the task set with its
//!   real `Schedulable` tokens.
//! - [`kernel`] — the substrate seam: [`kernel::KernelFacilities`], the
//!   narrow kernel-facility surface (clock, topology, deferred-action
//!   queue) the dispatch layer is written against, with the determinism
//!   contract each backend provides.
//! - [`native`] — the native userspace backend: the same unmodified
//!   scheduler modules driving **real OS threads** through the same
//!   dispatch layer (tokens, panic quarantine, failsafe, metrics,
//!   record streams), with `now()` a monotonic wall clock and preemption
//!   timers served by a timer thread. Select it with
//!   [`builder::MachineBuilder::backend`].

pub mod api;
pub mod builder;
pub mod cluster;
pub mod dispatch;
pub mod faults;
pub mod flight;
pub mod forensics;
pub mod health;
pub mod json;
pub mod kernel;
pub mod meta;
pub mod metrics;
pub mod native;
pub mod queue;
pub mod record;
pub mod registry;
pub mod replay;
pub mod schedulable;
pub mod sync;
pub mod tracing;

pub use api::{EnokiScheduler, SchedCtx, TaskInfo, TransferIn, TransferOut};
pub use builder::{Backend, BuiltMachine, MachineBuilder};
pub use kernel::KernelFacilities;
pub use native::{NativeCtx, NativeMachine, NativeOp, NativeReport, NativeTaskSpec};
pub use cluster::{ClusterBuilder, ClusterCapture, ClusterLogs};
pub use dispatch::{DispatchStats, EnokiClass, UpgradeReport, ENOKI_CALL_OVERHEAD};
pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use flight::{FlightSpec, SnapshotBlackbox};
pub use forensics::{Divergence, LatencyReport, LockReport, LogSummary};
pub use health::{
    HealthConfig, HealthEvent, HealthPolicy, HealthSample, Incident, Severity, SloSpec, Watchdog,
};
pub use metrics::{
    EventKind, HistogramSnapshot, MetricKey, MetricsRegistry, MetricsSnapshot, SchedulerMetrics,
    TraceRecord,
};
pub use meta::{
    Candidate, Chooser, MetaConfig, MetaController, MetaSpec, PolicyFactory, SwitchRecord,
    Switchable,
};
pub use queue::RingBuffer;
pub use registry::Registry;
pub use schedulable::{SchedError, Schedulable, TokenLedger};
pub use tracing::{LatencyBreakdown, ProfileReport, SpanGraph};
