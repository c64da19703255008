#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # enoki-replay — the userspace replay utility
//!
//! Thin crate around [`enoki_core::replay`]: a library API for recording
//! scheduler runs to a log file and replaying them in userspace, plus the
//! `enoki-replay` binary that replays a log against a named scheduler.
//!
//! Workflow (paper §3.4):
//!
//! 1. Build the scheduler in record mode: [`start_recording`] arms the
//!    global recorder and spawns the userspace writer thread.
//! 2. Run the workload; every call, hint, and lock acquisition is encoded
//!    where it is emitted and streams to the log file in byte blocks.
//! 3. [`stop_recording`] drains and closes the log.
//! 4. [`replay_file`] re-runs the same scheduler code in userspace,
//!    enforcing the recorded lock order and validating every response.

use enoki_core::api::EnokiScheduler;
use enoki_core::record::{self, parse_log, ParsedLog, RecordWriter, Recorder};
pub use enoki_core::replay::{
    replay, replay_on, replay_with, ReplayCoordinator, ReplayOptions, ReplayReport,
};
use std::fs::File;
use std::path::Path;

pub mod cli;

/// A live recording session.
pub struct RecordingSession {
    writer: RecordWriter,
    recorder: Recorder,
}

/// Arms global record mode, streaming records to `path`.
///
/// Call [`record::reset_lock_ids`] *before constructing the scheduler*
/// (both here and before replay) so lock identities line up.
///
/// `capacity` bounds the records buffered between the emitters and the
/// writer thread; past it records are dropped and counted
/// ([`RecordingSession::dropped`]).
pub fn start_recording(path: &Path, capacity: usize) -> std::io::Result<RecordingSession> {
    let recorder = Recorder::new(capacity);
    let writer = RecordWriter::spawn(&recorder, path)?;
    record::enable_record(recorder.clone());
    Ok(RecordingSession { writer, recorder })
}

impl RecordingSession {
    /// Records dropped so far because the writer fell `capacity` behind.
    pub fn dropped(&self) -> u64 {
        self.recorder.dropped()
    }
}

/// Disarms record mode and flushes the log; returns records written.
pub fn stop_recording(session: RecordingSession) -> std::io::Result<u64> {
    record::disable();
    session.writer.finish()
}

/// Loads a record log from disk.
///
/// A log whose final record was cut off mid-write (writer killed during a
/// flush) still loads: the parsed prefix is returned with
/// [`ParsedLog::truncated`] set. Mid-stream corruption is a hard error.
pub fn load_log(path: &Path) -> std::io::Result<ParsedLog> {
    parse_log(File::open(path)?)
}

/// Replays a log file against a fresh scheduler instance.
pub fn replay_file<S, F>(path: &Path, nr_cpus: usize, make: F) -> std::io::Result<ReplayReport>
where
    S: EnokiScheduler + 'static,
    S::UserMsg: From<enoki_sim::HintVal>,
    F: FnOnce() -> S,
{
    let log = load_log(path)?;
    Ok(replay(&log, nr_cpus, make))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record/replay mode is process-global; serialize the tests that
    /// toggle it.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    use enoki_core::dispatch::EnokiClass;
    use enoki_sched::Wfq;
    use enoki_sim::behavior::{Op, ProgramBehavior};
    use enoki_sim::{CostModel, Machine, Ns, TaskSpec, Topology};
    use std::rc::Rc;

    /// End-to-end: record a WFQ run on the simulated kernel, then replay
    /// it in userspace with zero divergences.
    #[test]
    fn record_then_replay_wfq_faithfully() {
        let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("enoki-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wfq.log");

        // Record phase.
        record::reset_lock_ids();
        let class = Rc::new(EnokiClass::load("wfq", 8, Box::new(Wfq::new(8))));
        let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
        m.add_class(class.clone());
        let session = start_recording(&path, 1 << 20).unwrap();
        let ab = m.create_pipe();
        let ba = m.create_pipe();
        m.spawn(TaskSpec::new(
            "ping",
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::PipeWrite(ab), Op::PipeRead(ba)],
                200,
            )),
        ));
        m.spawn(TaskSpec::new(
            "pong",
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::PipeRead(ab), Op::PipeWrite(ba)],
                200,
            )),
        ));
        m.run_to_completion(Ns::from_secs(10)).unwrap();
        let written = stop_recording(session).unwrap();
        assert!(written > 1000, "wrote {written} records");

        // Replay phase: same scheduler code, fresh instance, userspace.
        let report = replay_file(&path, 8, || Wfq::new(8)).unwrap();
        assert!(report.calls > 500, "replayed {} calls", report.calls);
        assert!(report.threads >= 1);
        assert!(
            report.divergences.is_empty(),
            "divergences: {:?}",
            &report.divergences[..report.divergences.len().min(5)]
        );
        assert_eq!(report.sequencing_timeouts, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replaying against a *different* policy diverges and is reported.
    #[test]
    fn replay_detects_policy_changes() {
        let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("enoki-replay2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wfq2.log");

        record::reset_lock_ids();
        let class = Rc::new(EnokiClass::load("wfq", 8, Box::new(Wfq::new(8))));
        let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
        m.add_class(class);
        let session = start_recording(&path, 1 << 20).unwrap();
        for i in 0..6 {
            m.spawn(TaskSpec::new(
                format!("t{i}"),
                0,
                Box::new(ProgramBehavior::repeat(
                    vec![Op::Compute(Ns::from_us(500)), Op::Sleep(Ns::from_us(100))],
                    20,
                )),
            ));
        }
        m.run_to_completion(Ns::from_secs(10)).unwrap();
        stop_recording(session).unwrap();

        // Replay with a FIFO scheduler instead: select/pick responses
        // should diverge somewhere.
        let report = replay_file(&path, 8, || enoki_sched::Fifo::new(8)).unwrap();
        assert!(
            !report.divergences.is_empty(),
            "expected divergences when replaying a different policy"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
