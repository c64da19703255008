//! A shim-lock guard's release mirrors its acquire: the record/replay
//! hooks a guard ran when it was taken are the ones it runs when dropped,
//! whatever was armed or disarmed while it was held. Record/replay mode is
//! process-global, so the tests serialize on one mutex and count only
//! their own lock's traffic.

use enoki::core::record::{self, parse_log, LockOp, LockSequencer, Rec, Recorder};
use enoki::core::sync::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A sequencer that never blocks and counts the turns waited for and
/// released on one lock.
struct Counting {
    lock: u64,
    waits: AtomicU64,
    releases: AtomicU64,
}

impl Counting {
    fn on(lock: u64) -> Arc<Counting> {
        Arc::new(Counting {
            lock,
            waits: AtomicU64::new(0),
            releases: AtomicU64::new(0),
        })
    }

    /// (turns waited for, releases) so far.
    fn counts(&self) -> (u64, u64) {
        (
            self.waits.load(Ordering::Relaxed),
            self.releases.load(Ordering::Relaxed),
        )
    }
}

impl LockSequencer for Counting {
    fn wait_turn(&self, lock: u64, _tid: u32) {
        if lock == self.lock {
            self.waits.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn released(&self, lock: u64, _tid: u32) {
        if lock == self.lock {
            self.releases.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The acquire and release records of `lock` in `rec`'s buffered bytes.
fn lock_records(rec: &Recorder, lock: u64) -> Vec<Rec> {
    parse_log(&rec.take_bytes()[..])
        .expect("the log parses")
        .records
        .into_iter()
        .filter(|r| {
            matches!(r, Rec::LockAcquire { lock: l, .. } | Rec::LockRelease { lock: l, .. } if *l == lock)
        })
        .collect()
}

#[test]
fn guard_taken_unarmed_logs_no_release_after_record_is_armed() {
    let _g = serial();
    let m = Mutex::new(0u32);
    let rec = Recorder::new(1024);
    let held = m.lock();
    record::enable_record(rec.clone());
    drop(held);
    drop(m.lock());
    record::disable();
    let tid = record::current_tid();
    assert_eq!(
        lock_records(&rec, m.id()),
        [
            Rec::LockAcquire {
                tid,
                lock: m.id(),
                op: LockOp::Mutex
            },
            Rec::LockRelease { tid, lock: m.id() },
        ],
        "only the guard taken while recording is logged, acquire and release"
    );
}

#[test]
fn guard_taken_unarmed_releases_no_replay_turn() {
    let _g = serial();
    let l = RwLock::new(0u32);
    let seq = Counting::on(l.id());
    let held = l.read();
    record::enable_replay(seq.clone());
    drop(held);
    assert_eq!(
        seq.counts(),
        (0, 0),
        "an unarmed guard never waited, so never releases"
    );
    *l.write() += 1;
    record::disable();
    assert_eq!(
        seq.counts(),
        (1, 1),
        "a guard taken while replaying waits and releases once"
    );
}

#[test]
fn guard_taken_recording_never_calls_a_later_sequencer() {
    let _g = serial();
    let m = Mutex::new(0u32);
    let rec = Recorder::new(1024);
    let seq = Counting::on(m.id());
    record::enable_record(rec.clone());
    let held = m.lock();
    record::disable();
    record::enable_replay(seq.clone());
    drop(held);
    record::disable();
    assert_eq!(seq.counts(), (0, 0));
    let tid = record::current_tid();
    assert_eq!(
        lock_records(&rec, m.id()),
        [Rec::LockAcquire {
            tid,
            lock: m.id(),
            op: LockOp::Mutex
        }],
        "the log ends while the lock is held"
    );
}
