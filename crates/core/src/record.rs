//! Record support for scheduler debugging (paper §3.4).
//!
//! In record mode, libEnoki records every call and hint sent to the
//! scheduler plus the order of lock acquisitions, so the exact same
//! scheduler code can later be replayed at userspace. Scheduler context
//! cannot block on file I/O, so [`Recorder::emit`] only encodes the
//! record into a byte block under the producer lock; full blocks go to a
//! separate "userspace" writer thread that writes them to the log as
//! they are. If the writer falls a bound of records behind, events are
//! dropped (and counted); memory follows the backlog, not the bound.
//!
//! The log format is a hand-rolled length-free fixed-layout little-endian
//! binary codec (one tag byte + fixed fields per record).

use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Identifies which scheduler entry point a [`Rec::Call`] belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum FuncId {
    /// `select_task_rq`
    SelectTaskRq = 1,
    /// `task_new`
    TaskNew = 2,
    /// `task_wakeup`
    TaskWakeup = 3,
    /// `task_blocked`
    TaskBlocked = 4,
    /// `task_yield`
    TaskYield = 5,
    /// `task_preempt`
    TaskPreempt = 6,
    /// `task_dead`
    TaskDead = 7,
    /// `task_departed`
    TaskDeparted = 8,
    /// `task_tick`
    TaskTick = 9,
    /// `balance`
    Balance = 10,
    /// `pick_next_task`
    PickNextTask = 11,
    /// `migrate_task_rq`
    MigrateTaskRq = 12,
    /// `task_prio_changed`
    TaskPrioChanged = 13,
    /// `task_affinity_changed`
    TaskAffinityChanged = 14,
    /// `balance_err`
    BalanceErr = 15,
    /// `pnt_err`
    PntErr = 16,
}

impl FuncId {
    /// The kernel-facing name of the scheduler entry point.
    pub fn name(&self) -> &'static str {
        match self {
            FuncId::SelectTaskRq => "select_task_rq",
            FuncId::TaskNew => "task_new",
            FuncId::TaskWakeup => "task_wakeup",
            FuncId::TaskBlocked => "task_blocked",
            FuncId::TaskYield => "task_yield",
            FuncId::TaskPreempt => "task_preempt",
            FuncId::TaskDead => "task_dead",
            FuncId::TaskDeparted => "task_departed",
            FuncId::TaskTick => "task_tick",
            FuncId::Balance => "balance",
            FuncId::PickNextTask => "pick_next_task",
            FuncId::MigrateTaskRq => "migrate_task_rq",
            FuncId::TaskPrioChanged => "task_prio_changed",
            FuncId::TaskAffinityChanged => "task_affinity_changed",
            FuncId::BalanceErr => "balance_err",
            FuncId::PntErr => "pnt_err",
        }
    }

    /// Decodes a tag byte.
    pub fn from_u8(v: u8) -> Option<FuncId> {
        Some(match v {
            1 => FuncId::SelectTaskRq,
            2 => FuncId::TaskNew,
            3 => FuncId::TaskWakeup,
            4 => FuncId::TaskBlocked,
            5 => FuncId::TaskYield,
            6 => FuncId::TaskPreempt,
            7 => FuncId::TaskDead,
            8 => FuncId::TaskDeparted,
            9 => FuncId::TaskTick,
            10 => FuncId::Balance,
            11 => FuncId::PickNextTask,
            12 => FuncId::MigrateTaskRq,
            13 => FuncId::TaskPrioChanged,
            14 => FuncId::TaskAffinityChanged,
            15 => FuncId::BalanceErr,
            16 => FuncId::PntErr,
            _ => return None,
        })
    }
}

/// Discriminates [`Rec::Fault`] records: what happened at the dispatch
/// boundary outside the normal call/return protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum FaultTag {
    /// A [`crate::faults::FaultPlan`] detonated a panic inside a callback.
    InjectedPanic = 1,
    /// The plan forged a wrong-cpu token in place of the module's pick.
    ForgedToken = 2,
    /// The plan destroyed a freshly minted token before the module saw it.
    DroppedToken = 3,
    /// The plan suppressed delivery of the preceding hint (queue stall).
    HintStall = 4,
    /// The plan detonated a panic while holding a recorded shim lock.
    InjectedPanicInLock = 5,
    /// Dispatch caught a module panic at the message boundary.
    CaughtPanic = 6,
    /// The framework quarantined the scheduler; the failsafe policy owns
    /// dispatch from here until a replacement re-registers.
    Quarantined = 7,
    /// A replacement scheduler re-registered via live upgrade; replay
    /// treats this as an epoch boundary.
    Recovered = 8,
}

impl FaultTag {
    /// Human-readable tag name (forensics output).
    pub fn name(&self) -> &'static str {
        match self {
            FaultTag::InjectedPanic => "injected_panic",
            FaultTag::ForgedToken => "forged_token",
            FaultTag::DroppedToken => "dropped_token",
            FaultTag::HintStall => "hint_stall",
            FaultTag::InjectedPanicInLock => "injected_panic_in_lock",
            FaultTag::CaughtPanic => "caught_panic",
            FaultTag::Quarantined => "quarantined",
            FaultTag::Recovered => "recovered",
        }
    }

    /// Decodes a tag byte.
    pub fn from_u8(v: u8) -> Option<FaultTag> {
        Some(match v {
            1 => FaultTag::InjectedPanic,
            2 => FaultTag::ForgedToken,
            3 => FaultTag::DroppedToken,
            4 => FaultTag::HintStall,
            5 => FaultTag::InjectedPanicInLock,
            6 => FaultTag::CaughtPanic,
            7 => FaultTag::Quarantined,
            8 => FaultTag::Recovered,
            _ => return None,
        })
    }
}

/// Why a pick chose its task, as recorded in [`Rec::Decision`]. The
/// discriminant is the wire-format byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum DecisionReason {
    /// No runnable candidate: the cpu went idle.
    Idle = 1,
    /// Exactly one candidate was runnable; no comparison happened.
    OnlyCandidate = 2,
    /// Weighted-fair pick: smallest vruntime in the queue.
    MinVruntime = 3,
    /// FIFO/FCFS pick: the oldest waiting task.
    QueueHead = 4,
    /// Shortest-predicted-burst pick. No library policy emits it; the
    /// variant stays so wire tag 5 keeps its meaning in existing logs.
    ShortestPredictedBurst = 5,
    /// Locality pick: a hint or history pinned the task to this cpu.
    LocalityHint = 6,
    /// The framework failsafe FIFO answered while the module was
    /// quarantined.
    Failsafe = 7,
}

impl DecisionReason {
    /// Human-readable reason name (forensics / `enoki-log why` output).
    pub fn name(&self) -> &'static str {
        match self {
            DecisionReason::Idle => "idle",
            DecisionReason::OnlyCandidate => "only_candidate",
            DecisionReason::MinVruntime => "min_vruntime",
            DecisionReason::QueueHead => "queue_head",
            DecisionReason::ShortestPredictedBurst => "shortest_predicted_burst",
            DecisionReason::LocalityHint => "locality_hint",
            DecisionReason::Failsafe => "failsafe",
        }
    }

    /// Decodes a reason byte.
    pub fn from_u8(v: u8) -> Option<DecisionReason> {
        Some(match v {
            1 => DecisionReason::Idle,
            2 => DecisionReason::OnlyCandidate,
            3 => DecisionReason::MinVruntime,
            4 => DecisionReason::QueueHead,
            5 => DecisionReason::ShortestPredictedBurst,
            6 => DecisionReason::LocalityHint,
            7 => DecisionReason::Failsafe,
            _ => return None,
        })
    }
}

/// How a lock was acquired (for the lock-order log).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum LockOp {
    /// Mutex lock.
    Mutex = 0,
    /// Read-write lock, shared mode.
    Read = 1,
    /// Read-write lock, exclusive mode.
    Write = 2,
}

/// The message-call argument bundle recorded for every scheduler call.
///
/// Mirrors the per-function "message" data structures Enoki-C fills from
/// kernel state: all timing and task information the scheduler may consult
/// is captured here, which is what makes the replay deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CallArgs {
    /// Virtual time of the call.
    pub now: u64,
    /// Subject task (or -1).
    pub pid: i64,
    /// Accumulated runtime of the task.
    pub runtime: u64,
    /// Runtime since last pick.
    pub delta: u64,
    /// The cpu argument (target cpu / task's cpu).
    pub cpu: i32,
    /// Previous cpu (select/migrate).
    pub prev_cpu: i32,
    /// Task load weight.
    pub weight: u32,
    /// Task nice value.
    pub nice: i32,
    /// Wake flags (bit 0 = sync, bit 1 = fork).
    pub flags: u32,
    /// Affinity mask, low half.
    pub aff_lo: u64,
    /// Affinity mask, high half.
    pub aff_hi: u64,
}

/// One record-log event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rec {
    /// A shim lock was created.
    LockCreate {
        /// Kernel thread (cpu) creating the lock.
        tid: u32,
        /// Framework-assigned lock id (creation order).
        lock: u64,
    },
    /// A shim lock was acquired.
    LockAcquire {
        /// Acquiring kernel thread.
        tid: u32,
        /// Lock id.
        lock: u64,
        /// Acquisition mode.
        op: LockOp,
    },
    /// A shim lock was released.
    LockRelease {
        /// Releasing kernel thread.
        tid: u32,
        /// Lock id.
        lock: u64,
    },
    /// A call into the scheduler.
    Call {
        /// Calling kernel thread (cpu).
        tid: u32,
        /// Which scheduler function.
        func: FuncId,
        /// Argument bundle.
        args: CallArgs,
    },
    /// The scheduler's response to the preceding call on this thread.
    /// Encodes cpu ids, `Option<pid>` (`-1` = None), etc.
    Ret {
        /// Responding kernel thread.
        tid: u32,
        /// Which scheduler function returned.
        func: FuncId,
        /// Encoded return value.
        val: i64,
    },
    /// A userspace hint delivered to the scheduler.
    Hint {
        /// Kernel thread delivering the hint.
        tid: u32,
        /// Sending task.
        pid: i64,
        /// Hint discriminator.
        kind: u32,
        /// Hint payload.
        a: i64,
        /// Hint payload.
        b: i64,
        /// Hint payload.
        c: i64,
    },
    /// A fault-model event at the dispatch boundary: an injected fault
    /// detonating, a caught panic, a quarantine transition, or a recovery.
    /// Replay uses these to skip calls that never reached the module and
    /// to cut epochs at recovery points.
    Fault {
        /// Kernel thread (cpu) the fault fired on.
        tid: u32,
        /// Virtual time of the fault.
        at: u64,
        /// What happened.
        kind: FaultTag,
        /// The callback involved as a [`FuncId`] byte, or 0 when the fault
        /// is not tied to a specific callback (hints, quarantine markers).
        func: u8,
        /// Event-specific payload (pid, window length, error code…).
        arg: i64,
    },
    /// A meta-scheduler policy switch: a telemetry-driven live upgrade
    /// replaced the running policy. Like [`FaultTag::Recovered`], this is
    /// an epoch boundary for replay — the switched-to module was freshly
    /// constructed mid-run (its lock creations immediately precede this
    /// marker) and everything after it is that module's history.
    Switch {
        /// Kernel thread (cpu) the switch decision ran on.
        tid: u32,
        /// Virtual time of the switch.
        at: u64,
        /// Health-sample epoch whose telemetry triggered the decision.
        epoch: u64,
        /// Policy number of the outgoing scheduler.
        from: i32,
        /// Policy number of the incoming scheduler.
        to: i32,
    },
    /// The "why" behind one `pick_next_task` answer: which policy chose
    /// which task over how many waiting candidates and for what reason.
    /// Pure observability — replay skips these — consumed by the span
    /// graph in [`crate::tracing`].
    Decision {
        /// Kernel thread (cpu) the pick ran on.
        tid: u32,
        /// Virtual time of the pick.
        at: u64,
        /// The cpu the pick answered.
        cpu: i32,
        /// Policy number of the deciding scheduler.
        policy: i32,
        /// Chosen pid, or `-1` when the cpu went idle.
        chosen: i64,
        /// Runnable candidates the policy considered for this cpu.
        candidates: u32,
        /// Why the chosen task won ([`DecisionReason`] byte).
        reason: DecisionReason,
        /// Predicted service burst in ns; 0 from every library policy.
        predicted: u64,
    },
    /// An epoch-barrier frame in a sharded cluster capture: the owning
    /// machine (stream) crossed cluster epoch `epoch` at virtual time
    /// `at`. Pure framing — replay skips these like [`Rec::Decision`] —
    /// but they let offline tooling align per-machine logs from one
    /// parallel run against each other and against the barrier schedule.
    EpochMark {
        /// Kernel thread (cpu) that emitted the mark.
        tid: u32,
        /// Record stream (machine index within the cluster capture).
        stream: u32,
        /// Cluster epoch just completed (zero-indexed barrier rounds).
        epoch: u64,
        /// Virtual time of the epoch boundary.
        at: u64,
    },
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

const TAG_LOCK_CREATE: u8 = 0xC0;
const TAG_LOCK_ACQUIRE: u8 = 0xC1;
const TAG_LOCK_RELEASE: u8 = 0xC2;
const TAG_CALL: u8 = 0xC3;
const TAG_RET: u8 = 0xC4;
const TAG_HINT: u8 = 0xC5;
const TAG_FAULT: u8 = 0xC6;
const TAG_SWITCH: u8 = 0xC7;
const TAG_DECISION: u8 = 0xC8;
const TAG_EPOCH_MARK: u8 = 0xC9;

/// Encoded size of [`Rec::Call`], the largest record: tag + tid + func +
/// 4×u64 + 5×u32/i32 + 2×u64 affinity. The recorder hands a block off
/// while it still has room for one of these.
const CALL_BYTES: usize = 1 + 4 + 1 + 8 * 4 + 4 * 5 + 8 * 2;

/// Appends one record with a single `extend_from_slice`: the fields'
/// little-endian bytes fill an `$n`-byte stack array back to back, at
/// offsets that are constants once expanded, where an append per field
/// would pay a capacity check each.
macro_rules! put {
    ($out:expr, $n:expr; $($field:expr),+) => {{
        let mut buf = [0u8; $n];
        let mut at = 0;
        $(
            let field = $field.to_le_bytes();
            buf[at..at + field.len()].copy_from_slice(&field);
            at += field.len();
        )+
        debug_assert_eq!(at, $n);
        $out.extend_from_slice(&buf);
    }};
}

impl Rec {
    /// Appends the binary encoding of this record to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Rec::LockCreate { tid, lock } => put!(out, 13; TAG_LOCK_CREATE, tid, lock),
            Rec::LockAcquire { tid, lock, op } => {
                put!(out, 14; TAG_LOCK_ACQUIRE, tid, lock, op as u8)
            }
            Rec::LockRelease { tid, lock } => put!(out, 13; TAG_LOCK_RELEASE, tid, lock),
            Rec::Call { tid, func, args: a } => put!(
                out, CALL_BYTES; TAG_CALL, tid, func as u8, a.now, a.pid, a.runtime, a.delta,
                a.cpu, a.prev_cpu, a.weight, a.nice, a.flags, a.aff_lo, a.aff_hi
            ),
            Rec::Ret { tid, func, val } => put!(out, 14; TAG_RET, tid, func as u8, val),
            Rec::Hint {
                tid,
                pid,
                kind,
                a,
                b,
                c,
            } => put!(out, 41; TAG_HINT, tid, pid, kind, a, b, c),
            Rec::Fault {
                tid,
                at,
                kind,
                func,
                arg,
            } => put!(out, 23; TAG_FAULT, tid, at, kind as u8, func, arg),
            Rec::Switch {
                tid,
                at,
                epoch,
                from,
                to,
            } => put!(out, 29; TAG_SWITCH, tid, at, epoch, from, to),
            Rec::Decision {
                tid,
                at,
                cpu,
                policy,
                chosen,
                candidates,
                reason,
                predicted,
            } => put!(
                out, 42; TAG_DECISION, tid, at, cpu, policy, chosen, candidates, reason as u8,
                predicted
            ),
            Rec::EpochMark {
                tid,
                stream,
                epoch,
                at,
            } => put!(out, 25; TAG_EPOCH_MARK, tid, stream, epoch, at),
        }
    }

    /// Decodes one record from `buf`, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Option<(Rec, usize)> {
        Rec::decode_ext(buf).ok()
    }

    /// Decodes one record from `buf`, distinguishing a record cut short by
    /// the end of the buffer ([`DecodeError::Truncated`]) from bytes that
    /// cannot be a record at all ([`DecodeError::Corrupt`]).
    pub fn decode_ext(buf: &[u8]) -> Result<(Rec, usize), DecodeError> {
        fn u32_at(b: &[u8], o: usize) -> u32 {
            u32::from_le_bytes(b[o..o + 4].try_into().unwrap())
        }
        fn i32_at(b: &[u8], o: usize) -> i32 {
            i32::from_le_bytes(b[o..o + 4].try_into().unwrap())
        }
        fn u64_at(b: &[u8], o: usize) -> u64 {
            u64::from_le_bytes(b[o..o + 8].try_into().unwrap())
        }
        fn i64_at(b: &[u8], o: usize) -> i64 {
            i64::from_le_bytes(b[o..o + 8].try_into().unwrap())
        }
        let Some(&tag) = buf.first() else {
            return Err(DecodeError::Truncated);
        };
        match tag {
            TAG_LOCK_CREATE => {
                if buf.len() < 13 {
                    return Err(DecodeError::Truncated);
                }
                Ok((
                    Rec::LockCreate {
                        tid: u32_at(buf, 1),
                        lock: u64_at(buf, 5),
                    },
                    13,
                ))
            }
            TAG_LOCK_ACQUIRE => {
                if buf.len() < 14 {
                    return Err(DecodeError::Truncated);
                }
                let op = match buf[13] {
                    0 => LockOp::Mutex,
                    1 => LockOp::Read,
                    2 => LockOp::Write,
                    other => {
                        return Err(DecodeError::Corrupt(format!(
                            "invalid lock op byte {other:#04x}"
                        )))
                    }
                };
                Ok((
                    Rec::LockAcquire {
                        tid: u32_at(buf, 1),
                        lock: u64_at(buf, 5),
                        op,
                    },
                    14,
                ))
            }
            TAG_LOCK_RELEASE => {
                if buf.len() < 13 {
                    return Err(DecodeError::Truncated);
                }
                Ok((
                    Rec::LockRelease {
                        tid: u32_at(buf, 1),
                        lock: u64_at(buf, 5),
                    },
                    13,
                ))
            }
            TAG_CALL => {
                let need = CALL_BYTES;
                if buf.len() < need {
                    return Err(DecodeError::Truncated);
                }
                let func = FuncId::from_u8(buf[5]).ok_or_else(|| {
                    DecodeError::Corrupt(format!("invalid func id {:#04x}", buf[5]))
                })?;
                let mut o = 6;
                let mut rd8 = || {
                    let v = u64_at(buf, o);
                    o += 8;
                    v
                };
                let now = rd8();
                let pid = rd8() as i64;
                let runtime = rd8();
                let delta = rd8();
                let cpu = i32_at(buf, o);
                let prev_cpu = i32_at(buf, o + 4);
                let weight = u32_at(buf, o + 8);
                let nice = i32_at(buf, o + 12);
                let flags = u32_at(buf, o + 16);
                let aff_lo = u64_at(buf, o + 20);
                let aff_hi = u64_at(buf, o + 28);
                Ok((
                    Rec::Call {
                        tid: u32_at(buf, 1),
                        func,
                        args: CallArgs {
                            now,
                            pid,
                            runtime,
                            delta,
                            cpu,
                            prev_cpu,
                            weight,
                            nice,
                            flags,
                            aff_lo,
                            aff_hi,
                        },
                    },
                    need,
                ))
            }
            TAG_RET => {
                if buf.len() < 14 {
                    return Err(DecodeError::Truncated);
                }
                let func = FuncId::from_u8(buf[5]).ok_or_else(|| {
                    DecodeError::Corrupt(format!("invalid func id {:#04x}", buf[5]))
                })?;
                Ok((
                    Rec::Ret {
                        tid: u32_at(buf, 1),
                        func,
                        val: i64_at(buf, 6),
                    },
                    14,
                ))
            }
            TAG_HINT => {
                if buf.len() < 41 {
                    return Err(DecodeError::Truncated);
                }
                Ok((
                    Rec::Hint {
                        tid: u32_at(buf, 1),
                        pid: i64_at(buf, 5),
                        kind: u32_at(buf, 13),
                        a: i64_at(buf, 17),
                        b: i64_at(buf, 25),
                        c: i64_at(buf, 33),
                    },
                    41,
                ))
            }
            TAG_FAULT => {
                // tag + tid + at + kind + func + arg.
                let need = 1 + 4 + 8 + 1 + 1 + 8;
                if buf.len() < need {
                    return Err(DecodeError::Truncated);
                }
                let kind = FaultTag::from_u8(buf[13]).ok_or_else(|| {
                    DecodeError::Corrupt(format!("invalid fault tag {:#04x}", buf[13]))
                })?;
                let func = buf[14];
                if func != 0 && FuncId::from_u8(func).is_none() {
                    return Err(DecodeError::Corrupt(format!(
                        "invalid fault func id {func:#04x}"
                    )));
                }
                Ok((
                    Rec::Fault {
                        tid: u32_at(buf, 1),
                        at: u64_at(buf, 5),
                        kind,
                        func,
                        arg: i64_at(buf, 15),
                    },
                    need,
                ))
            }
            TAG_SWITCH => {
                // tag + tid + at + epoch + from + to.
                let need = 1 + 4 + 8 + 8 + 4 + 4;
                if buf.len() < need {
                    return Err(DecodeError::Truncated);
                }
                Ok((
                    Rec::Switch {
                        tid: u32_at(buf, 1),
                        at: u64_at(buf, 5),
                        epoch: u64_at(buf, 13),
                        from: i32_at(buf, 21),
                        to: i32_at(buf, 25),
                    },
                    need,
                ))
            }
            TAG_DECISION => {
                // tag + tid + at + cpu + policy + chosen + candidates +
                // reason + predicted.
                let need = 1 + 4 + 8 + 4 + 4 + 8 + 4 + 1 + 8;
                if buf.len() < need {
                    return Err(DecodeError::Truncated);
                }
                let reason = DecisionReason::from_u8(buf[33]).ok_or_else(|| {
                    DecodeError::Corrupt(format!("invalid decision reason {:#04x}", buf[33]))
                })?;
                Ok((
                    Rec::Decision {
                        tid: u32_at(buf, 1),
                        at: u64_at(buf, 5),
                        cpu: i32_at(buf, 13),
                        policy: i32_at(buf, 17),
                        chosen: i64_at(buf, 21),
                        candidates: u32_at(buf, 29),
                        reason,
                        predicted: u64_at(buf, 34),
                    },
                    need,
                ))
            }
            TAG_EPOCH_MARK => {
                // tag + tid + stream + epoch + at.
                let need = 1 + 4 + 4 + 8 + 8;
                if buf.len() < need {
                    return Err(DecodeError::Truncated);
                }
                Ok((
                    Rec::EpochMark {
                        tid: u32_at(buf, 1),
                        stream: u32_at(buf, 5),
                        epoch: u64_at(buf, 9),
                        at: u64_at(buf, 17),
                    },
                    need,
                ))
            }
            other => Err(DecodeError::Corrupt(format!(
                "unknown record tag {other:#04x}"
            ))),
        }
    }
}

/// Why a record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends before the record does. At the tail of a log this
    /// means the writer was killed mid-flush; the prefix is still valid.
    Truncated,
    /// The bytes cannot be any record (unknown tag or invalid field).
    Corrupt(String),
}

// ---------------------------------------------------------------------
// Recorder: producer-owned byte blocks + userspace writer thread
// ---------------------------------------------------------------------

/// Bytes in a block when `emit` hands it to the writer.
const BLOCK_BYTES: usize = 64 * 1024;

/// How long an idle writer waits for a block before it asks for the open
/// one and looks at its stop flag — the bound on every wait here.
const WRITER_WAIT: Duration = Duration::from_millis(1);

/// Locks `m`, ignoring poison: every update under these locks leaves the
/// data valid, and `emit` runs inside shim locks whose holders may panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whole encoded records on their way from the emitters to the log.
#[derive(Default)]
struct Block {
    bytes: Vec<u8>,
    records: u64,
}

#[derive(Default)]
struct Shared {
    /// Bound on records buffered (accepted − retired).
    capacity: u64,
    /// The block `emit` appends to, and the records accepted so far.
    producer: Mutex<(Block, u64)>,
    /// Blocks handed off, oldest first; locked after `producer` when
    /// both are held.
    full: Mutex<VecDeque<Block>>,
    ready: Condvar,
    /// Records that have left the recorder, to the writer or as bytes.
    retired: AtomicU64,
    dropped: AtomicU64,
}

/// Shared handle used by the framework and lock shims to emit records.
#[derive(Clone)]
pub struct Recorder(Arc<Shared>);

impl Recorder {
    /// Creates a recorder that buffers at most `capacity` records.
    pub fn new(capacity: usize) -> Recorder {
        Recorder(Arc::new(Shared {
            capacity: capacity as u64,
            ..Shared::default()
        }))
    }

    /// Emits one record, from any thread: encodes it onto the open block,
    /// or drops and counts it when `capacity` records are buffered.
    pub fn emit(&self, rec: Rec) {
        let sh = &*self.0;
        let mut p = lock(&sh.producer);
        let (open, accepted) = &mut *p;
        // Relaxed: the count publishes nothing, and a stale one only
        // under-reports the room.
        if *accepted - sh.retired.load(Ordering::Relaxed) >= sh.capacity {
            sh.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        rec.encode(&mut open.bytes);
        open.records += 1;
        *accepted += 1;
        // A block goes when it has no room for another largest record, or
        // holds half of `capacity`: a recorder far smaller than a block
        // still wakes its writer.
        if open.bytes.len() > BLOCK_BYTES - CALL_BYTES || open.records >= sh.capacity.div_ceil(2) {
            self.hand_off(open);
        }
    }

    /// Moves the open block, if it holds anything, to the end of `full`.
    fn hand_off(&self, open: &mut Block) {
        if open.records > 0 {
            let fresh = Block {
                bytes: Vec::with_capacity(BLOCK_BYTES),
                records: 0,
            };
            lock(&self.0.full).push_back(std::mem::replace(open, fresh));
            self.0.ready.notify_one();
        }
    }

    /// Records dropped because `capacity` records were already buffered.
    pub fn dropped(&self) -> u64 {
        self.0.dropped.load(Ordering::Relaxed)
    }

    /// Takes the oldest buffered block out, waiting up to [`WRITER_WAIT`]
    /// for a handed-off one if `wait`. Only when there is none does it
    /// take the producer lock, to have the open block handed off.
    fn next_block(&self, wait: bool) -> Option<Block> {
        let sh = &*self.0;
        let mut full = lock(&sh.full);
        if full.is_empty() && wait {
            let timed = sh.ready.wait_timeout(full, WRITER_WAIT);
            full = timed.unwrap_or_else(PoisonError::into_inner).0;
        }
        if full.is_empty() {
            drop(full);
            self.hand_off(&mut lock(&sh.producer).0);
            full = lock(&sh.full);
        }
        let block = full.pop_front()?;
        sh.retired.fetch_add(block.records, Ordering::Relaxed);
        Some(block)
    }

    /// Takes every buffered record out, encoded, in emission order.
    /// Cluster captures use this instead of a [`RecordWriter`] thread per
    /// machine: the capture ends, then each recorder's bytes are that
    /// machine's log.
    pub fn take_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(block) = self.next_block(false) {
            out.extend_from_slice(&block.bytes);
        }
        out
    }
}

/// The "userspace record task": a real thread that takes the recorder's
/// blocks and writes them to the log file as they are.
pub struct RecordWriter {
    handle: Option<JoinHandle<std::io::Result<u64>>>,
    stop: Arc<AtomicBool>,
}

impl RecordWriter {
    /// Spawns the writer thread draining `recorder` into `path`.
    ///
    /// The log starts on a fresh inode: truncating the last session's
    /// file in place makes ext4 flush the whole new log when it is closed
    /// (`auto_da_alloc`), and the next session's open waits for that.
    pub fn spawn(recorder: &Recorder, path: &Path) -> std::io::Result<RecordWriter> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let mut file = File::create_new(path)?;
        let recorder = recorder.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("enoki-record".into())
            .spawn(move || {
                let mut written = 0u64;
                loop {
                    // Read first: what was emitted before `finish` is
                    // then found by this round's look.
                    let stopping = stop2.load(Ordering::Acquire);
                    match recorder.next_block(!stopping) {
                        Some(block) => {
                            file.write_all(&block.bytes)?;
                            written += block.records;
                        }
                        None if stopping => return Ok(written),
                        None => {}
                    }
                }
            })?;
        Ok(RecordWriter {
            handle: Some(handle),
            stop,
        })
    }

    /// Stops the writer once everything buffered is in the file; returns
    /// records written.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .take()
            .expect("finish called once")
            .join()
            .expect("record writer panicked")
    }
}

impl Drop for RecordWriter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A parsed record log: the decoded records plus whether the log ended in
/// a truncated final record (writer killed mid-flush) or started inside
/// one (flight-recorder dumps begin mid-stream).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedLog {
    /// Decoded records — the readable prefix when `truncated` is set.
    pub records: Vec<Rec>,
    /// True when the log ended mid-record; the prefix in `records` is
    /// still valid, but the tail of the run was lost.
    pub truncated: bool,
    /// Bytes skipped before the first decodable record. Non-zero for
    /// logs that begin inside a record — the overwrite-oldest flight
    /// ring can hand back a window whose first surviving slot follows a
    /// partially overwritten one; the head fragment is dropped the way a
    /// truncated tail is.
    pub head_skipped: usize,
}

impl std::ops::Deref for ParsedLog {
    type Target = [Rec];
    fn deref(&self) -> &[Rec] {
        &self.records
    }
}

impl ParsedLog {
    /// Unwraps into the record vector, discarding the truncation flag.
    pub fn into_records(self) -> Vec<Rec> {
        self.records
    }
}

/// How far into a log [`parse_log`] will hunt for a decodable head. A
/// partial head record is at most one record long (tens of bytes); the
/// bound keeps the quadratic resync scan from running away on a file
/// that simply is not a record log.
const MAX_HEAD_SKIP: usize = 4096;

/// How many consecutive records must decode from a resync candidate
/// before it is trusted — a single accidental decode inside a partial
/// record's payload bytes will not chain.
const RESYNC_CHAIN: usize = 4;

/// Finds the first offset in `from..` where the stream re-frames: a run
/// of [`RESYNC_CHAIN`] records decodes, or fewer decode but the stream
/// then ends cleanly (exact end, or an ordinary truncated tail).
fn resync_head(data: &[u8], from: usize) -> Option<usize> {
    for cand in from..data.len().min(from + MAX_HEAD_SKIP) {
        let mut off = cand;
        let mut decoded = 0usize;
        loop {
            if off == data.len() {
                if decoded > 0 {
                    return Some(cand);
                }
                break;
            }
            match Rec::decode_ext(&data[off..]) {
                Ok((_, used)) => {
                    off += used;
                    decoded += 1;
                    if decoded >= RESYNC_CHAIN {
                        return Some(cand);
                    }
                }
                Err(DecodeError::Truncated) if decoded > 0 => return Some(cand),
                Err(_) => break,
            }
        }
    }
    None
}

/// Parses an entire record log from a reader.
///
/// A final record cut short by the end of input (the writer was killed
/// mid-flush) is tolerated: the parsed prefix is returned with
/// [`ParsedLog::truncated`] set. A partial *head* record — a log that
/// starts mid-stream, as flight-recorder dumps can — is tolerated
/// symmetrically: the head fragment is skipped up to the first offset
/// where the stream decodes as a trusted chain, and the skip is reported
/// in [`ParsedLog::head_skipped`]. Corruption after the first good
/// record — an unknown tag or an invalid field — is still a hard
/// `InvalidData` error, because everything after it would be misframed.
pub fn parse_log<R: Read>(mut r: R) -> std::io::Result<ParsedLog> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    let mut out = Vec::new();
    let mut truncated = false;
    let mut off = 0;
    let mut head_skipped = 0;
    while off < data.len() {
        match Rec::decode_ext(&data[off..]) {
            Ok((rec, used)) => {
                out.push(rec);
                off += used;
            }
            Err(DecodeError::Truncated) => {
                // By construction this is the tail: decode only saw the
                // remaining bytes and ran out.
                truncated = true;
                break;
            }
            Err(DecodeError::Corrupt(why)) => {
                if out.is_empty() && head_skipped == 0 {
                    if let Some(resync) = resync_head(&data, off + 1) {
                        head_skipped = resync;
                        off = resync;
                        continue;
                    }
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt record at offset {off}: {why}"),
                ));
            }
        }
    }
    Ok(ParsedLog {
        records: out,
        truncated,
        head_skipped,
    })
}

// ---------------------------------------------------------------------
// Global record/replay mode for the lock shims
// ---------------------------------------------------------------------

/// Replay-side lock sequencing hooks (implemented in `crate::replay`).
pub trait LockSequencer: Send + Sync {
    /// Blocks the calling thread until it is its turn to acquire `lock`.
    fn wait_turn(&self, lock: u64, tid: u32);
    /// Notes that `lock` was released.
    fn released(&self, lock: u64, tid: u32);
}

/// Hook-word bit: a file or sharded recorder is armed.
const HOOK_RECORD: u8 = 1;
/// Hook-word bit: a replay sequencer is armed (excludes [`HOOK_RECORD`]).
pub(crate) const HOOK_REPLAY: u8 = 2;
/// Hook-word bit: the flight ring is armed ([`crate::flight::arm`]).
pub(crate) const HOOK_FLIGHT: u8 = 4;

/// The one word every hook reads: which of record, replay and flight are
/// armed. Zero means none is, and a shim lock then calls nothing here.
static HOOKS: AtomicU8 = AtomicU8::new(0);
static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

/// The hook word, loaded once. Acquire pairs with the Release updates:
/// the `enable_*` functions set a bit after writing [`GLOBAL`], and
/// [`disable`] clears it before resetting `GLOBAL`.
#[inline]
pub(crate) fn hooks() -> u8 {
    HOOKS.load(Ordering::Acquire)
}

/// Sets the record/replay bits to `mode`, keeping the flight bit.
fn set_mode(mode: u8) {
    let _ = HOOKS.fetch_update(Ordering::Release, Ordering::Relaxed, |h| {
        Some((h & HOOK_FLIGHT) | mode)
    });
}

/// Sets or clears the flight bit ([`crate::flight::arm`] / `disarm`).
pub(crate) fn set_flight_hook(armed: bool) {
    if armed {
        HOOKS.fetch_or(HOOK_FLIGHT, Ordering::Release);
    } else {
        HOOKS.fetch_and(!HOOK_FLIGHT, Ordering::Release);
    }
}

static GLOBAL: std::sync::RwLock<GlobalMode> = std::sync::RwLock::new(GlobalMode::Off);

enum GlobalMode {
    Off,
    Record(Recorder),
    /// Sharded capture for cluster runs: one recorder (and one lock-id
    /// counter) per *stream* — a machine in the fleet. Worker threads
    /// bind themselves to a stream with [`set_record_stream`] before
    /// touching that machine; every record and every lock-id allocation
    /// then routes to the bound stream, so each machine's log is a
    /// self-contained, replayable history whose lock ids start at 1
    /// exactly as a solo-recorded run's would.
    RecordSharded {
        recorders: Vec<Recorder>,
        lock_ids: Vec<AtomicU64>,
    },
    Replay(Arc<dyn LockSequencer>),
}

thread_local! {
    static TID: AtomicU32 = const { AtomicU32::new(0) };
    /// The record stream this thread is bound to, plus one (0 = unbound).
    static STREAM: AtomicU32 = const { AtomicU32::new(0) };
}

/// Sets the current thread's kernel-thread id used for tagging records
/// (the cpu id in kernel context, the replayed tid in replay threads).
pub fn set_tid(tid: u32) {
    TID.with(|t| t.store(tid, Ordering::Relaxed));
}

/// The current thread's kernel-thread id.
pub fn current_tid() -> u32 {
    TID.with(|t| t.load(Ordering::Relaxed))
}

/// Switches the process into record mode; all shim locks and framework
/// dispatch calls start emitting records.
pub fn enable_record(recorder: Recorder) {
    *GLOBAL.write().unwrap_or_else(std::sync::PoisonError::into_inner) = GlobalMode::Record(recorder);
    set_mode(HOOK_RECORD);
}

/// Switches the process into **sharded** record mode: one recorder per
/// stream (machine), each with its own lock-id counter starting at 1.
///
/// Threads route records by binding to a stream with
/// [`set_record_stream`]; records emitted by unbound threads are
/// discarded (a cluster capture has no coherent place to put them).
/// Callers keep clones of the recorders (they share buffers) and take
/// their bytes after [`disable`].
pub fn enable_record_sharded(recorders: Vec<Recorder>) {
    let lock_ids = (0..recorders.len()).map(|_| AtomicU64::new(1)).collect();
    *GLOBAL.write().unwrap_or_else(std::sync::PoisonError::into_inner) =
        GlobalMode::RecordSharded {
            recorders,
            lock_ids,
        };
    set_mode(HOOK_RECORD);
}

/// Binds the current thread to record stream `idx`: until cleared, every
/// record this thread emits — and every shim-lock id it allocates — goes
/// to that stream. Cluster workers call this before running or even
/// *constructing* a machine (lock creation order is the replay
/// identity), and again whenever they switch machines within an epoch.
pub fn set_record_stream(idx: u32) {
    STREAM.with(|s| s.store(idx + 1, Ordering::Relaxed));
}

/// Unbinds the current thread from any record stream.
pub fn clear_record_stream() {
    STREAM.with(|s| s.store(0, Ordering::Relaxed));
}

/// The record stream the current thread is bound to, if any.
pub fn current_record_stream() -> Option<u32> {
    STREAM.with(|s| s.load(Ordering::Relaxed)).checked_sub(1)
}

/// Emits the epoch-barrier frame for `stream` (cluster captures call
/// this once per machine per epoch, from the thread bound to that
/// stream).
///
/// The mark's tid is pinned to 0: an epoch frame belongs to the barrier,
/// not to whichever cpu happened to dispatch last on the calling OS
/// thread — a `current_tid()` here would leak the host thread layout
/// into the log and break byte-equality across thread counts.
pub fn mark_epoch(stream: u32, epoch: u64, at: u64) {
    emit(Rec::EpochMark {
        tid: 0,
        stream,
        epoch,
        at,
    });
}

/// Switches the process into replay mode with the given lock sequencer.
pub fn enable_replay(seq: Arc<dyn LockSequencer>) {
    *GLOBAL.write().unwrap_or_else(std::sync::PoisonError::into_inner) = GlobalMode::Replay(seq);
    set_mode(HOOK_REPLAY);
}

/// Turns record/replay off (the default).
pub fn disable() {
    set_mode(0);
    *GLOBAL.write().unwrap_or_else(std::sync::PoisonError::into_inner) = GlobalMode::Off;
}

/// True when records are being captured — by the file recorder, the
/// flight ring, or both. Replay always reports false: a replayed run
/// must never re-emit the stream it is consuming.
pub fn recording() -> bool {
    let h = hooks();
    h & HOOK_RECORD != 0 || h & (HOOK_REPLAY | HOOK_FLIGHT) == HOOK_FLIGHT
}

/// Emits a record to every armed capture sink (cheap no-op otherwise).
///
/// The flight ring mirrors the stream whenever it is armed and the
/// process is not replaying, independent of full recording — this single
/// funnel is what makes the black box see lock traffic, dispatch calls,
/// hints, and decisions without any per-site changes.
pub fn emit(rec: Rec) {
    let h = hooks();
    if h & (HOOK_REPLAY | HOOK_FLIGHT) == HOOK_FLIGHT {
        crate::flight::mirror(rec);
    }
    if h & HOOK_RECORD == 0 {
        return;
    }
    match &*GLOBAL.read().unwrap_or_else(std::sync::PoisonError::into_inner) {
        GlobalMode::Record(r) => r.emit(rec),
        GlobalMode::RecordSharded { recorders, .. } => {
            if let Some(idx) = current_record_stream() {
                if let Some(r) = recorders.get(idx as usize) {
                    r.emit(rec);
                }
            }
        }
        _ => {}
    }
}

/// Dropped-record count of the active file recorder, if one is armed.
/// Exposed so health polling can surface silent record loss instead of
/// leaving it queryable-only.
pub fn recorder_dropped() -> Option<u64> {
    if hooks() & HOOK_RECORD == 0 {
        return None;
    }
    match &*GLOBAL.read().unwrap_or_else(std::sync::PoisonError::into_inner) {
        GlobalMode::Record(r) => Some(r.dropped()),
        GlobalMode::RecordSharded { recorders, .. } => {
            Some(recorders.iter().map(Recorder::dropped).sum())
        }
        _ => None,
    }
}

/// Allocates a fresh shim-lock id (creation order is the replay identity).
///
/// In sharded record mode a thread bound to a stream allocates from that
/// stream's private counter (each starts at 1), so every machine's log
/// numbers its locks exactly as a solo run would and replays with a
/// plain [`reset_lock_ids`].
pub fn next_lock_id() -> u64 {
    if hooks() & HOOK_RECORD != 0 {
        if let Some(idx) = current_record_stream() {
            if let GlobalMode::RecordSharded { lock_ids, .. } =
                &*GLOBAL.read().unwrap_or_else(std::sync::PoisonError::into_inner)
            {
                if let Some(ctr) = lock_ids.get(idx as usize) {
                    return ctr.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed)
}

/// Resets lock-id allocation. Call before constructing the scheduler in
/// both record and replay runs so creation orders line up.
pub fn reset_lock_ids() {
    NEXT_LOCK_ID.store(1, Ordering::Relaxed);
}

/// Sets the next shim-lock id to `next` (clamped to at least 1).
///
/// Replay uses this to line a fresh module's lock ids up with a recorded
/// epoch whose module was constructed mid-run — a replacement that
/// re-registered after a quarantine allocated its locks from a counter
/// that had already advanced, and the recorded acquisition order is keyed
/// by those ids.
pub fn seed_lock_ids(next: u64) {
    NEXT_LOCK_ID.store(next.max(1), Ordering::Relaxed);
}

/// Invokes `f` with the active sequencer if replaying.
pub fn with_sequencer(f: impl FnOnce(&dyn LockSequencer)) {
    if hooks() & HOOK_REPLAY == 0 {
        return;
    }
    if let GlobalMode::Replay(s) = &*GLOBAL.read().unwrap_or_else(std::sync::PoisonError::into_inner) {
        f(&**s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: Rec) {
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let (got, used) = Rec::decode(&buf).expect("decodes");
        assert_eq!(used, buf.len(), "consumed everything for {rec:?}");
        assert_eq!(got, rec);
    }

    #[test]
    fn codec_round_trips_all_variants() {
        roundtrip(Rec::LockCreate { tid: 3, lock: 77 });
        roundtrip(Rec::LockAcquire {
            tid: 1,
            lock: 2,
            op: LockOp::Write,
        });
        roundtrip(Rec::LockAcquire {
            tid: 1,
            lock: 2,
            op: LockOp::Read,
        });
        roundtrip(Rec::LockAcquire {
            tid: 1,
            lock: 2,
            op: LockOp::Mutex,
        });
        roundtrip(Rec::LockRelease {
            tid: 9,
            lock: u64::MAX,
        });
        roundtrip(Rec::Call {
            tid: 5,
            func: FuncId::PickNextTask,
            args: CallArgs {
                now: 123456789,
                pid: -1,
                runtime: 42,
                delta: 7,
                cpu: 3,
                prev_cpu: -1,
                weight: 1024,
                nice: -20,
                flags: 0b11,
                aff_lo: u64::MAX,
                aff_hi: 1,
            },
        });
        roundtrip(Rec::Ret {
            tid: 2,
            func: FuncId::Balance,
            val: -1,
        });
        roundtrip(Rec::Hint {
            tid: 0,
            pid: 12,
            kind: 2,
            a: -5,
            b: 6,
            c: 7,
        });
        roundtrip(Rec::Fault {
            tid: 3,
            at: 987654321,
            kind: FaultTag::CaughtPanic,
            func: FuncId::PickNextTask as u8,
            arg: -7,
        });
        roundtrip(Rec::Fault {
            tid: 0,
            at: 0,
            kind: FaultTag::Recovered,
            func: 0,
            arg: 0,
        });
        roundtrip(Rec::Switch {
            tid: 4,
            at: 555_000,
            epoch: 17,
            from: 10,
            to: -30,
        });
        roundtrip(Rec::Decision {
            tid: 2,
            at: 777_000,
            cpu: 3,
            policy: 90,
            chosen: 41,
            candidates: 5,
            reason: DecisionReason::ShortestPredictedBurst,
            predicted: 120_000,
        });
        roundtrip(Rec::Decision {
            tid: 0,
            at: 0,
            cpu: 0,
            policy: 10,
            chosen: -1,
            candidates: 0,
            reason: DecisionReason::Idle,
            predicted: 0,
        });
        roundtrip(Rec::EpochMark {
            tid: 6,
            stream: 42,
            epoch: u64::MAX,
            at: 1_234_567,
        });
        roundtrip(Rec::EpochMark {
            tid: 0,
            stream: 0,
            epoch: 0,
            at: 0,
        });
    }

    /// The wire layout, byte for byte: one literal per variant, written
    /// as hex with a space between fields. A layout slip fails here, not
    /// in a `dump_fnv` / `graph_hash` pin three crates away.
    #[test]
    fn golden_bytes_pin_every_variant() {
        fn hex(s: &str) -> Vec<u8> {
            let digits: Vec<u8> = s.bytes().filter(|b| *b != b' ').collect();
            digits
                .chunks(2)
                .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
                .collect()
        }
        let tid = 0x0102_0304;
        let (w, x, y) = (
            0x1112_1314_1516_1718,
            0x2122_2324_2526_2728,
            0x3132_3334_3536_3738,
        );
        let golden = [
            (
                Rec::LockCreate { tid, lock: w },
                "c0 04030201 1817161514131211",
            ),
            (
                Rec::LockAcquire {
                    tid,
                    lock: w,
                    op: LockOp::Write,
                },
                "c1 04030201 1817161514131211 02",
            ),
            (
                Rec::LockRelease { tid, lock: w },
                "c2 04030201 1817161514131211",
            ),
            (
                Rec::Call {
                    tid,
                    func: FuncId::PickNextTask,
                    args: CallArgs {
                        now: x,
                        pid: -2,
                        runtime: y,
                        delta: 0x4142_4344_4546_4748,
                        cpu: 0x5152_5354,
                        prev_cpu: -1,
                        weight: 0x6162_6364,
                        nice: -20,
                        flags: 3,
                        aff_lo: 0x7172_7374_7576_7778,
                        aff_hi: 0x8182_8384_8586_8788,
                    },
                },
                "c3 04030201 0b 2827262524232221 feffffffffffffff 3837363534333231 \
                 4847464544434241 54535251 ffffffff 64636261 ecffffff 03000000 \
                 7877767574737271 8887868584838281",
            ),
            (
                Rec::Ret {
                    tid,
                    func: FuncId::Balance,
                    val: -1,
                },
                "c4 04030201 0a ffffffffffffffff",
            ),
            (
                Rec::Hint {
                    tid,
                    pid: w as i64,
                    kind: 0x2122_2324,
                    a: -5,
                    b: 6,
                    c: y as i64,
                },
                "c5 04030201 1817161514131211 24232221 fbffffffffffffff \
                 0600000000000000 3837363534333231",
            ),
            (
                Rec::Fault {
                    tid,
                    at: w,
                    kind: FaultTag::CaughtPanic,
                    func: FuncId::PickNextTask as u8,
                    arg: -7,
                },
                "c6 04030201 1817161514131211 06 0b f9ffffffffffffff",
            ),
            (
                Rec::Switch {
                    tid,
                    at: w,
                    epoch: x,
                    from: 10,
                    to: -30,
                },
                "c7 04030201 1817161514131211 2827262524232221 0a000000 e2ffffff",
            ),
            (
                Rec::Decision {
                    tid,
                    at: w,
                    cpu: 3,
                    policy: 90,
                    chosen: x as i64,
                    candidates: 5,
                    reason: DecisionReason::ShortestPredictedBurst,
                    predicted: y,
                },
                "c8 04030201 1817161514131211 03000000 5a000000 2827262524232221 \
                 05000000 05 3837363534333231",
            ),
            (
                Rec::EpochMark {
                    tid,
                    stream: 42,
                    epoch: w,
                    at: x,
                },
                "c9 04030201 2a000000 1817161514131211 2827262524232221",
            ),
        ];
        for (rec, want) in golden {
            let mut got = Vec::new();
            rec.encode(&mut got);
            assert_eq!(got, hex(want), "layout of {rec:?}");
            assert!(
                got.len() <= CALL_BYTES,
                "{rec:?} outgrows a block's headroom"
            );
        }
    }

    #[test]
    fn decision_decode_rejects_bad_reason() {
        let mut buf = Vec::new();
        Rec::Decision {
            tid: 1,
            at: 2,
            cpu: 0,
            policy: 10,
            chosen: 7,
            candidates: 2,
            reason: DecisionReason::MinVruntime,
            predicted: 0,
        }
        .encode(&mut buf);
        // Invalid reason byte.
        let mut bad = buf.clone();
        bad[33] = 0xEE;
        assert!(matches!(Rec::decode_ext(&bad), Err(DecodeError::Corrupt(_))));
        // Truncated tail.
        assert!(matches!(
            Rec::decode_ext(&buf[..buf.len() - 1]),
            Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn fault_decode_rejects_bad_tags() {
        let mut buf = Vec::new();
        Rec::Fault {
            tid: 1,
            at: 2,
            kind: FaultTag::InjectedPanic,
            func: FuncId::TaskTick as u8,
            arg: 3,
        }
        .encode(&mut buf);
        // Invalid fault kind byte.
        let mut bad = buf.clone();
        bad[13] = 0xEE;
        assert!(matches!(Rec::decode_ext(&bad), Err(DecodeError::Corrupt(_))));
        // Invalid (non-zero, unknown) func byte.
        let mut bad = buf.clone();
        bad[14] = 0xEE;
        assert!(matches!(Rec::decode_ext(&bad), Err(DecodeError::Corrupt(_))));
        // Truncated tail.
        assert!(matches!(
            Rec::decode_ext(&buf[..buf.len() - 1]),
            Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Rec::decode(&[0xFFu8, 0, 0]).is_none());
        assert!(Rec::decode(&[]).is_none());
        // Truncated call.
        let mut buf = Vec::new();
        Rec::Call {
            tid: 0,
            func: FuncId::TaskNew,
            args: CallArgs::default(),
        }
        .encode(&mut buf);
        assert!(Rec::decode(&buf[..buf.len() - 1]).is_none());
    }

    /// A fresh directory for one test's log file.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("enoki-rec-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn recorder_writer_round_trip() {
        let dir = scratch_dir("round-trip");
        let path = dir.join("log.bin");
        let rec = Recorder::new(1024);
        let writer = RecordWriter::spawn(&rec, &path).unwrap();
        let events: Vec<Rec> = (0..100)
            .map(|i| Rec::Ret {
                tid: i % 4,
                func: FuncId::Balance,
                val: i as i64,
            })
            .collect();
        for e in &events {
            rec.emit(*e);
        }
        let written = writer.finish().unwrap();
        assert_eq!(written, 100);
        let parsed = parse_log(File::open(&path).unwrap()).unwrap();
        assert!(!parsed.truncated);
        assert_eq!(parsed.records, events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overrun_drops_and_counts_exactly_once() {
        // 10 emits into a 2-record recorder with no consumer: exactly 8
        // drops, each counted once.
        let rec = Recorder::new(2);
        for i in 0..10 {
            rec.emit(Rec::LockRelease { tid: 0, lock: i });
        }
        assert_eq!(rec.dropped(), 8);
    }

    #[test]
    fn idle_writer_wakes_up_for_late_records() {
        // An idle writer waits on the hand-off; records emitted after the
        // idle period, too few to fill a block, must still be written.
        let dir = scratch_dir("idle");
        let path = dir.join("idle.bin");
        let rec = Recorder::new(64);
        let writer = RecordWriter::spawn(&rec, &path).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        for i in 0..10 {
            rec.emit(Rec::LockCreate { tid: 1, lock: i });
        }
        assert_eq!(writer.finish().unwrap(), 10);
        assert_eq!(rec.dropped(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_log_tolerates_truncated_tail() {
        let mut buf = Vec::new();
        Rec::Ret {
            tid: 1,
            func: FuncId::Balance,
            val: 3,
        }
        .encode(&mut buf);
        let complete = buf.len();
        Rec::Call {
            tid: 2,
            func: FuncId::PickNextTask,
            args: CallArgs::default(),
        }
        .encode(&mut buf);
        // Writer killed mid-flush: the final record loses its tail.
        let parsed = parse_log(&buf[..complete + 10]).unwrap();
        assert!(parsed.truncated);
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(
            parsed.records[0],
            Rec::Ret {
                tid: 1,
                func: FuncId::Balance,
                val: 3
            }
        );
    }

    #[test]
    fn parse_log_hard_errors_on_corruption() {
        let mut buf = Vec::new();
        Rec::LockRelease { tid: 1, lock: 5 }.encode(&mut buf);
        // An unknown tag mid-stream misframes everything after it.
        buf.push(0x7F);
        buf.extend_from_slice(&[0u8; 64]);
        let err = parse_log(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // An invalid func id inside an otherwise complete record is also
        // corruption, not truncation.
        let mut call = Vec::new();
        Rec::Call {
            tid: 0,
            func: FuncId::TaskNew,
            args: CallArgs::default(),
        }
        .encode(&mut call);
        call[5] = 0xEE;
        assert!(matches!(
            Rec::decode_ext(&call),
            Err(DecodeError::Corrupt(_))
        ));
    }

    /// A realistic multi-variant log for robustness tests.
    fn sample_log() -> Vec<u8> {
        let mut buf = Vec::new();
        Rec::LockCreate { tid: 1, lock: 77 }.encode(&mut buf);
        for i in 0..4u32 {
            Rec::Call {
                tid: i,
                func: FuncId::PickNextTask,
                args: CallArgs {
                    now: 1000 + i as u64,
                    pid: 40 + i as i64,
                    cpu: i as i32,
                    ..CallArgs::default()
                },
            }
            .encode(&mut buf);
            Rec::Ret {
                tid: i,
                func: FuncId::PickNextTask,
                val: 40 + i as i64,
            }
            .encode(&mut buf);
        }
        Rec::LockAcquire {
            tid: 2,
            lock: 77,
            op: LockOp::Mutex,
        }
        .encode(&mut buf);
        Rec::LockRelease { tid: 2, lock: 77 }.encode(&mut buf);
        Rec::EpochMark {
            tid: 1,
            stream: 3,
            epoch: 9,
            at: 2_000_000,
        }
        .encode(&mut buf);
        buf
    }

    /// Fuzz-style sweep: every truncated prefix and every single-byte
    /// corruption of a real log must come back from `decode_ext` as a
    /// value or a typed `DecodeError` — never a panic, never an
    /// out-of-bounds read.
    #[test]
    fn decode_ext_survives_truncated_and_corrupted_prefixes() {
        let buf = sample_log();
        // Every prefix: decode records until the data runs out or errors.
        for end in 0..=buf.len() {
            let mut off = 0;
            while off < end {
                match Rec::decode_ext(&buf[off..end]) {
                    Ok((_, used)) => {
                        assert!(used > 0, "zero-length record at {off}");
                        off += used;
                    }
                    Err(DecodeError::Truncated) | Err(DecodeError::Corrupt(_)) => break,
                }
            }
        }
        // Every single-byte corruption, decoded from the start.
        for flip in 0..buf.len() {
            let mut bad = buf.clone();
            bad[flip] ^= 0xFF;
            let mut off = 0;
            while off < bad.len() {
                match Rec::decode_ext(&bad[off..]) {
                    Ok((_, used)) => {
                        assert!(used > 0);
                        off += used;
                    }
                    Err(DecodeError::Truncated) | Err(DecodeError::Corrupt(_)) => break,
                }
            }
        }
    }

    /// Flight dumps can begin inside a record; `parse_log` skips the head
    /// fragment and resynchronizes on the first trusted record chain,
    /// mirroring how it already tolerates a truncated tail.
    #[test]
    fn parse_log_skips_partial_head_record() {
        let buf = sample_log();
        let full = parse_log(&buf[..]).unwrap();
        assert_eq!(full.head_skipped, 0);
        let nr = full.records.len();
        let first_len = {
            let (_, used) = Rec::decode(&buf).unwrap();
            used
        };
        // Start mid-way through the first record: its remains are not a
        // valid record, but everything after decodes.
        let parsed = parse_log(&buf[1..]).unwrap();
        assert!(!parsed.truncated);
        assert_eq!(parsed.head_skipped, first_len - 1);
        assert_eq!(parsed.records, full.records[1..]);
        assert_eq!(parsed.records.len(), nr - 1);

        // Pure garbage with no record chain anywhere is still a hard
        // error, not an empty success.
        let garbage = vec![0x5Au8; 256];
        assert!(parse_log(&garbage[..]).is_err());
    }

    #[test]
    fn take_bytes_drains_in_order() {
        // Enough records to span several blocks plus a partial one.
        let n = 3 * BLOCK_BYTES as u64 / 13;
        let rec = Recorder::new(1 << 20);
        for i in 0..n {
            rec.emit(Rec::LockRelease { tid: 0, lock: i });
        }
        let parsed = parse_log(&rec.take_bytes()[..]).unwrap();
        assert!(!parsed.truncated);
        assert_eq!(parsed.records.len() as u64, n);
        for (lock, r) in (0..n).zip(&parsed.records) {
            assert_eq!(*r, Rec::LockRelease { tid: 0, lock });
        }
        assert!(rec.take_bytes().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn emit_is_sound_from_many_threads() {
        const THREADS: u32 = 4;
        const PER_THREAD: i64 = 50_000;
        let dir = scratch_dir("threads");
        let path = dir.join("log.bin");
        let rec = Recorder::new(1 << 14);
        let writer = RecordWriter::spawn(&rec, &path).unwrap();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let (rec, start) = (&rec, &start);
                s.spawn(move || {
                    start.wait();
                    for val in 0..PER_THREAD {
                        rec.emit(Rec::Ret {
                            tid,
                            func: FuncId::Balance,
                            val,
                        });
                    }
                });
            }
        });
        let written = writer.finish().unwrap();
        assert_eq!(written + rec.dropped(), THREADS as u64 * PER_THREAD as u64);
        let parsed = parse_log(File::open(&path).unwrap()).unwrap();
        assert!(!parsed.truncated);
        assert_eq!(parsed.records.len() as u64, written);
        // Each thread's records are in its own emission order.
        let mut next = [0i64; THREADS as usize];
        for r in &parsed.records {
            let Rec::Ret { tid, val, .. } = *r else {
                panic!("foreign record {r:?}");
            };
            assert!(val >= next[tid as usize], "thread {tid} reordered at {val}");
            next[tid as usize] = val + 1;
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_recorder_loses_nothing_it_did_not_count() {
        let dir = scratch_dir("tiny");
        let path = dir.join("log.bin");
        let rec = Recorder::new(4);
        let writer = RecordWriter::spawn(&rec, &path).unwrap();
        for i in 0..1_000 {
            rec.emit(Rec::LockRelease { tid: 0, lock: i });
            std::thread::yield_now();
        }
        let written = writer.finish().unwrap();
        assert_eq!(written + rec.dropped(), 1_000);
        assert!(written >= 4, "only {written} written");
        let parsed = parse_log(File::open(&path).unwrap()).unwrap();
        assert_eq!(parsed.records.len() as u64, written);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_terminates_with_nothing_emitted_and_mid_block() {
        let dir = scratch_dir("edges");
        let t0 = std::time::Instant::now();
        // Nothing ever emitted.
        let rec = Recorder::new(64);
        let writer = RecordWriter::spawn(&rec, &dir.join("empty.bin")).unwrap();
        assert_eq!(writer.finish().unwrap(), 0);
        drop(RecordWriter::spawn(&rec, &dir.join("empty.bin")).unwrap());
        // Dropped while the producer is mid-block: the partial block is
        // still written.
        let path = dir.join("partial.bin");
        let writer = RecordWriter::spawn(&rec, &path).unwrap();
        for i in 0..10 {
            rec.emit(Rec::LockCreate { tid: 1, lock: i });
        }
        drop(writer);
        assert_eq!(parse_log(File::open(&path).unwrap()).unwrap().len(), 10);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "a writer wait is unbounded"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_cut_mid_block_loads_truncated() {
        let dir = scratch_dir("cut");
        let path = dir.join("log.bin");
        let rec = Recorder::new(1 << 20);
        let writer = RecordWriter::spawn(&rec, &path).unwrap();
        // 14 bytes each: well into the second block.
        let n = BLOCK_BYTES as i64 / 14 + 2_000;
        for val in 0..n {
            rec.emit(Rec::Ret {
                tid: 0,
                func: FuncId::Balance,
                val,
            });
        }
        assert_eq!(writer.finish().unwrap(), n as u64);
        // The writer died inside the second block, inside a record.
        let keep = BLOCK_BYTES as u64 / 14 + 1_000;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(keep * 14 + 5).unwrap();
        let parsed = parse_log(File::open(&path).unwrap()).unwrap();
        assert!(parsed.truncated);
        assert_eq!(parsed.records.len() as u64, keep);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_mode_routes_by_stream_and_numbers_locks_per_stream() {
        // Mutates process-global record state; self-contained, restores
        // Off at the end (same discipline as the sync.rs record tests).
        let recs: Vec<Recorder> = (0..2).map(|_| Recorder::new(2)).collect();
        enable_record_sharded(recs.clone());
        // Unbound threads drop records instead of polluting a stream.
        assert_eq!(current_record_stream(), None);
        emit(Rec::LockRelease { tid: 0, lock: 99 });
        // Each stream gets its own records and its own lock ids from 1.
        for idx in 0..2u32 {
            set_record_stream(idx);
            assert_eq!(current_record_stream(), Some(idx));
            let lock = next_lock_id();
            assert_eq!(lock, 1, "stream {idx} lock ids start at 1");
            emit(Rec::LockCreate {
                tid: idx,
                lock,
            });
            assert_eq!(next_lock_id(), 2);
        }
        assert_eq!(recorder_dropped(), Some(0));
        // Health's `record_drops` feed is the sum over streams: stream 1
        // overruns its bound of 2 by one record, then stream 0 by two.
        for (idx, emits) in [(1u32, 2u64), (0, 3)] {
            set_record_stream(idx);
            for lock in 0..emits {
                emit(Rec::LockRelease { tid: idx, lock });
            }
        }
        assert_eq!(recorder_dropped(), Some(3));
        clear_record_stream();
        assert_eq!(current_record_stream(), None);
        disable();
        for (idx, rec) in recs.iter().enumerate() {
            let parsed = parse_log(&rec.take_bytes()[..]).unwrap();
            assert_eq!(parsed.len(), 2, "stream {idx} kept what its bound allows");
            assert_eq!(
                parsed[0],
                Rec::LockCreate {
                    tid: idx as u32,
                    lock: 1
                }
            );
        }
    }

    #[test]
    fn tid_is_thread_local() {
        set_tid(7);
        assert_eq!(current_tid(), 7);
        std::thread::spawn(|| {
            assert_eq!(current_tid(), 0);
            set_tid(9);
            assert_eq!(current_tid(), 9);
        })
        .join()
        .unwrap();
        assert_eq!(current_tid(), 7);
    }
}
