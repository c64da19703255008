#![warn(missing_docs)]

//! # enoki-sim — a deterministic multicore kernel simulator
//!
//! This crate is the substrate the Enoki reproduction runs on: a
//! discrete-event simulation of a Linux-like multicore kernel. It models
//! cores, NUMA topology, tasks with programmable behaviors, pipes, futexes,
//! timers, context-switch and IPI costs, and — crucially — the exact call
//! sequence Linux's core scheduling code makes into a scheduling class:
//! placement, enqueue notifications, balance-then-pick rescheduling,
//! periodic ticks, hrtimer preemption, and migrations.
//!
//! The Enoki framework (`enoki-core`) interposes on this interface the same
//! way Enoki-C interposes on Linux's `sched_class`, so the framework's
//! safety, live-upgrade, hint, and record/replay machinery is exercised on
//! realistic code paths.
//!
//! ## Quick example
//!
//! ```
//! use enoki_sim::behavior::{Op, ProgramBehavior};
//! use enoki_sim::costs::CostModel;
//! use enoki_sim::fifo_ref::RefFifo;
//! use enoki_sim::machine::{Machine, TaskSpec};
//! use enoki_sim::time::Ns;
//! use enoki_sim::topology::Topology;
//! use std::rc::Rc;
//!
//! let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
//! m.add_class(Rc::new(RefFifo::new(8)));
//! let pid = m.spawn(TaskSpec::new(
//!     "worker",
//!     0,
//!     Box::new(ProgramBehavior::once(vec![Op::Compute(Ns::from_ms(1))])),
//! ));
//! m.run_to_completion(Ns::from_secs(1)).unwrap();
//! assert_eq!(m.task(pid).runtime, Ns::from_ms(1));
//! ```

pub mod behavior;
pub mod cluster;
pub mod costs;
pub mod event;
pub mod fifo_ref;
pub mod fnv;
pub mod ipc;
pub mod machine;
pub mod rng;
pub mod sched_class;
pub mod stats;
pub mod task;
pub mod time;
pub mod topology;
pub mod trace;

pub use behavior::{Behavior, BehaviorCtx, HintVal, Op, PipeId};
pub use cluster::{ClusterError, ClusterReport, ClusterSpec, Shard, WireMsg};
pub use costs::CostModel;
pub use fnv::Fnv1a;
pub use machine::{Machine, Sampler, SimError, TaskSpec};
pub use sched_class::{Command, KernelCtx, SchedClass};
pub use task::{Pid, TaskView, WakeFlags};
pub use time::Ns;
pub use topology::{CpuId, CpuSet, Topology};
