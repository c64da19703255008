//! Lock shims for Enoki schedulers.
//!
//! Schedulers synchronize internal state with these wrappers instead of raw
//! `std::sync` types. The shims are the record/replay hook points the
//! paper describes: recording captures lock creation, acquisition, and
//! release order (tagged with the kernel thread id); replay blocks each
//! thread until it is its turn to acquire, reproducing the recorded
//! interleaving. Because schedulers are safe Rust, lock order is the *only*
//! source of nondeterminism that must be captured (paper §6).
//!
//! Every acquire loads [`record`]'s hook word once, before taking the std
//! lock. When it is zero — no recorder, replay sequencer or flight ring
//! armed, the common case — the shim is the std lock plus the lock-metrics
//! counter and calls nothing else in [`record`]. The guard keeps that
//! snapshot, and its release mirrors its acquire: a guard taken with
//! nothing armed emits no `LockRelease` and calls no sequencer even if
//! recording or replay is armed while it is held, and a guard taken while
//! capturing never reports a release to a sequencer armed later.

use crate::metrics::{self, EventKind};
use crate::record::{self, LockOp, Rec, HOOK_REPLAY};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Instant;

/// Per-thread lock-acquisition sequence. Shim locks are taken on every
/// scheduler call, so per-acquisition atomics are measurable against the
/// dispatch hot path; instead each thread publishes its count to the
/// global `locks` handle in blocks of [`LOCK_PUBLISH_BLOCK`] (up to
/// `LOCK_PUBLISH_BLOCK - 1` acquisitions per thread are staged but not
/// yet visible) and samples hold-time timing once per
/// [`LOCK_SAMPLE_PERIOD`], starting with the thread's first acquisition.
const LOCK_PUBLISH_BLOCK: u64 = 64;
const LOCK_SAMPLE_PERIOD: u64 = 1024;
thread_local! {
    static LOCK_SEQ: Cell<u64> = const { Cell::new(0) };
}

/// Counts an acquisition (block-published, see [`LOCK_SEQ`]) and starts
/// the hold-time clock on sampled acquisitions. Skipped entirely when
/// metrics are disabled; reports under the global `locks` scheduler name
/// — see [`crate::metrics::lock_metrics`].
#[inline]
fn acquire_instrumented() -> Option<Instant> {
    if !metrics::enabled() {
        return None;
    }
    let seq = LOCK_SEQ.with(|c| {
        let v = c.get().wrapping_add(1);
        c.set(v);
        v
    });
    if seq.is_multiple_of(LOCK_PUBLISH_BLOCK) {
        publish_acquires();
    }
    (seq % LOCK_SAMPLE_PERIOD == 1).then(Instant::now)
}

// The rare halves of the lock metrics stay out of line, so the common
// acquire and release inline into their callers.
#[cold]
#[inline(never)]
fn publish_acquires() {
    metrics::lock_metrics().count_n(EventKind::LockAcquires, 0, LOCK_PUBLISH_BLOCK);
}

#[cold]
#[inline(never)]
fn observe_hold(t0: Instant) {
    metrics::lock_metrics().observe_duration(EventKind::LockHold, 0, t0.elapsed());
}

/// Ends the hold-time clock started by [`acquire_instrumented`].
#[inline]
fn release_instrumented(held_since: Option<Instant>) {
    if let Some(t0) = held_since {
        observe_hold(t0);
    }
}

/// Emits `LockCreate` for a new shim lock and returns its id.
fn create() -> u64 {
    let id = record::next_lock_id();
    record::emit(Rec::LockCreate {
        tid: record::current_tid(),
        lock: id,
    });
    id
}

/// A held shim lock, shared by every guard type: the std guard `G` plus
/// the hook word its acquire saw, which its release mirrors.
struct Held<G> {
    id: u64,
    /// The hook word loaded before acquiring; zero when no hook ran.
    hooks: u8,
    held_since: Option<Instant>,
    guard: G,
}

impl<G> Held<G> {
    /// Acquires through `take` (the std lock).
    #[inline]
    fn acquire(id: u64, op: LockOp, take: impl FnOnce() -> G) -> Held<G> {
        let hooks = record::hooks();
        let guard = if hooks == 0 {
            take()
        } else {
            take_hooked(id, op, hooks, take)
        };
        Held {
            id,
            hooks,
            held_since: acquire_instrumented(),
            guard,
        }
    }
}

/// The armed acquire: under replay the thread first waits its turn; while
/// capturing it logs the acquisition once it holds the lock.
#[inline(never)]
fn take_hooked<G>(id: u64, op: LockOp, hooks: u8, take: impl FnOnce() -> G) -> G {
    let tid = record::current_tid();
    if hooks & HOOK_REPLAY != 0 {
        record::with_sequencer(|s| s.wait_turn(id, tid));
    }
    let guard = take();
    if hooks & HOOK_REPLAY == 0 {
        record::emit(Rec::LockAcquire { tid, lock: id, op });
    }
    guard
}

/// The armed release, mirroring [`take_hooked`] for the same `hooks`.
#[inline(never)]
fn release_hooked(id: u64, hooks: u8) {
    let tid = record::current_tid();
    if hooks & HOOK_REPLAY != 0 {
        record::with_sequencer(|s| s.released(id, tid));
    } else {
        record::emit(Rec::LockRelease { tid, lock: id });
    }
}

impl<G> Drop for Held<G> {
    // Runs before `guard` drops, so the release hook fires with the lock
    // still held.
    #[inline]
    fn drop(&mut self) {
        release_instrumented(self.held_since.take());
        if self.hooks != 0 {
            release_hooked(self.id, self.hooks);
        }
    }
}

/// A mutex whose acquisition order is recorded and replayed.
pub struct Mutex<T> {
    id: u64,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex around `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            id: create(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the mutex.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Like `parking_lot`, the shim ignores poisoning: a panicking
        // scheduler thread must not wedge replay of the surviving ones.
        MutexGuard(Held::acquire(self.id, LockOp::Mutex, || {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }))
    }

    /// The framework-assigned lock id (stable across record/replay by
    /// creation order).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Guard for [`Mutex`].
pub struct MutexGuard<'a, T>(Held<std::sync::MutexGuard<'a, T>>);

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0.guard
    }
}

/// A read-write lock whose acquisition order is recorded and replayed.
///
/// Replay serializes read acquisitions too: read/read concurrency cannot
/// produce divergent scheduler state (readers do not mutate), so replaying
/// reads in recorded order is sufficient and simpler.
pub struct RwLock<T> {
    id: u64,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new read-write lock around `value`.
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            id: create(),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Acquires the lock in shared mode.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(Held::acquire(self.id, LockOp::Read, || {
            self.inner.read().unwrap_or_else(PoisonError::into_inner)
        }))
    }

    /// Acquires the lock in exclusive mode.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(Held::acquire(self.id, LockOp::Write, || {
            self.inner.write().unwrap_or_else(PoisonError::into_inner)
        }))
    }

    /// The framework-assigned lock id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T>(Held<std::sync::RwLockReadGuard<'a, T>>);

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.guard
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T>(Held<std::sync::RwLockWriteGuard<'a, T>>);

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.guard
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{parse_log, RecordWriter, Recorder};

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn lock_ids_monotonic() {
        let a = Mutex::new(());
        let b = RwLock::new(());
        assert!(b.id() > a.id());
    }

    #[test]
    fn record_mode_logs_lock_ops() {
        // This test mutates process-global record state; keep it
        // self-contained and restore Off at the end.
        let _serial = record::tests::serial();
        let dir = std::env::temp_dir().join(format!("enoki-sync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("locks.bin");
        let recorder = Recorder::new(1024);
        let writer = RecordWriter::spawn(&recorder, &path).unwrap();
        record::set_tid(3);
        record::enable_record(recorder);
        let m = Mutex::new(0u32);
        {
            let _g = m.lock();
        }
        record::disable();
        writer.finish().unwrap();
        let log = parse_log(std::fs::File::open(&path).unwrap()).unwrap();
        let id = m.id();
        assert!(log.contains(&Rec::LockCreate { tid: 3, lock: id }));
        assert!(log.contains(&Rec::LockAcquire {
            tid: 3,
            lock: id,
            op: LockOp::Mutex
        }));
        assert!(log.contains(&Rec::LockRelease { tid: 3, lock: id }));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod rwlock_record_tests {
    use super::*;
    use crate::record::{parse_log, LockOp, Rec, RecordWriter, Recorder};

    #[test]
    fn rwlock_modes_are_distinguished_in_the_log() {
        let _serial = record::tests::serial();
        let dir = std::env::temp_dir().join(format!("enoki-rw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rw.bin");
        let recorder = Recorder::new(256);
        let writer = RecordWriter::spawn(&recorder, &path).unwrap();
        record::set_tid(5);
        record::enable_record(recorder);
        let l = RwLock::new(1u32);
        {
            let _r = l.read();
        }
        {
            let mut w = l.write();
            *w = 2;
        }
        record::disable();
        writer.finish().unwrap();
        let log = parse_log(std::fs::File::open(&path).unwrap()).unwrap();
        let id = l.id();
        assert!(log.contains(&Rec::LockAcquire { tid: 5, lock: id, op: LockOp::Read }));
        assert!(log.contains(&Rec::LockAcquire { tid: 5, lock: id, op: LockOp::Write }));
        // Two releases, one per guard.
        let releases = log
            .iter()
            .filter(|r| matches!(r, Rec::LockRelease { lock, .. } if *lock == id))
            .count();
        assert_eq!(releases, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
