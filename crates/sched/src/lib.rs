#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # enoki-sched — schedulers built on the Enoki framework
//!
//! Every scheduler from the paper's evaluation, implemented in safe Rust
//! against the [`enoki_core::EnokiScheduler`] API, plus the ghOSt
//! userspace-scheduling emulation used as a baseline:
//!
//! | Module | Paper § | Scheduler |
//! |---|---|---|
//! | [`cfs`] | 4.2.1 | CFS-like native baseline (vruntime + full balancing) |
//! | [`wfq`] | 4.2.1 | The Enoki weighted fair queuing scheduler |
//! | [`fifo`] | 4.2.2 | Per-cpu FIFO |
//! | [`shinjuku`] | 4.2.2 | Shinjuku-style FCFS with µs-scale preemption |
//! | [`locality`] | 4.2.3 | Hint-driven locality-aware scheduler |
//! | [`arbiter`] | 4.2.4 | Arachne-style core arbiter (two-level scheduling) |
//! | [`ghost`] | 4.2.2 | ghOSt emulation: userspace agents, async commits |
//! | [`meta`] | 3.2 | Policy arsenal + chooser for the telemetry-driven meta-scheduler |

pub mod arbiter;
pub mod cfs;
pub mod fair;
pub mod fifo;
pub mod ghost;
pub mod locality;
pub mod meta;
pub mod shinjuku;
pub mod wfq;

pub use arbiter::Arbiter;
pub use cfs::Cfs;
pub use fifo::Fifo;
pub use locality::Locality;
pub use meta::{arsenal, classify, default_chooser, PolicyRegistry};
pub use shinjuku::Shinjuku;
pub use wfq::Wfq;
