//! The five workloads. Each module's header says what runs and why it
//! was chosen; `README.md` has the same in one table.

pub mod fleet;
pub mod native;
pub mod pipe;
pub mod record;
pub mod schbench;

use crate::harness::{Cfg, Workload};

/// Workload names, in the order they run, and why each is here.
pub const WORKLOADS: [(&str, &str); 5] = [
    ("pipe_wfq", "sim pipe ping-pong under WFQ: two tasks, shallow queues, so Machine step + SchedClass adapter + dispatch carry the time (paper Table 3)"),
    ("schbench_cfs80", "sim schbench 2x40 under native CFS on 80 cpus: policy callbacks, periodic balance and a deep timer wheel carry the time (paper Table 4)"),
    ("pipe_record", "the pipe_wfq machine under record mode: every dispatch call also encodes, enqueues and writes a record; replay checked (paper 5.8)"),
    ("fleet_2t", "100 machines, 500k short-lived tasks on the cluster engine, 8 shards on 2 threads: epoch barriers, mailboxes and spawn/exit carry the time"),
    ("native_pingpong", "futex ping-pong on the native backend, real OS threads: time lives in core::native, none in enoki-sim; same policy and dispatch code"),
];

/// The workload called `name`.
pub fn by_name<'a>(name: &str, cfg: &'a Cfg) -> Option<Box<dyn Workload + 'a>> {
    Some(match name {
        "pipe_wfq" => Box::new(pipe::PipeWfq::new(cfg)),
        "schbench_cfs80" => Box::new(schbench::SchbenchCfs80::new(cfg)),
        "pipe_record" => Box::new(record::PipeRecord::new(cfg)),
        "fleet_2t" => Box::new(fleet::Fleet2t::new(cfg)),
        "native_pingpong" => Box::new(native::NativePingpong::new(cfg)),
        _ => return None,
    })
}
