#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # enoki-workloads — the paper's evaluation workloads
//!
//! Workload generators reproducing the scheduling footprint of every
//! benchmark in the Enoki paper's evaluation (§5), built on the
//! `enoki-sim` substrate and the schedulers in `enoki-sched`.

pub mod apps;
pub mod fairness;
pub mod fleet;
pub mod memcached;
pub mod metrics;
pub mod pipe;
pub mod rocksdb;
pub mod schbench;
pub mod shifting;
pub mod testbed;

use enoki_sim::{Machine, Ns, Pid};

/// Runs the machine in chunks until every task in `pids` has exited (or
/// `limit` is reached). Needed because some baselines (spinning ghOSt
/// agents) keep the machine busy forever, so quiescence never occurs.
pub fn run_until_dead(m: &mut Machine, pids: &[Pid], limit: Ns) {
    let chunk = Ns::from_ms(20);
    while m.now() < limit {
        if pids
            .iter()
            .all(|&p| m.task(p).state == enoki_sim::task::TaskState::Dead)
        {
            return;
        }
        let next = (m.now() + chunk).min(limit);
        m.run_until(next).expect("no kernel panic");
    }
}
