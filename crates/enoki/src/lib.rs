#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # enoki — facade crate
//!
//! Re-exports the whole Enoki reproduction under one roof:
//!
//! - [`sim`] — the deterministic multicore kernel simulator substrate;
//! - [`core`] — the Enoki framework: the safe `EnokiScheduler` API,
//!   `Schedulable` tokens, dispatch, live upgrade, hint queues, record
//!   and replay;
//! - [`sched`] — the schedulers: CFS, WFQ, FIFO, Shinjuku, locality-aware,
//!   the Arachne core arbiter, and the ghOSt emulation;
//! - [`workloads`] — the paper's evaluation workloads;
//! - [`replay`] — the record/replay utility APIs.
//!
//! See the `examples/` directory at the repository root for runnable
//! walkthroughs: `quickstart`, `shinjuku_server`, `locality_hints`,
//! `live_upgrade`, and `record_replay`.

pub use enoki_core as core;
pub use enoki_replay as replay;
pub use enoki_sched as sched;
pub use enoki_sim as sim;
pub use enoki_workloads as workloads;
