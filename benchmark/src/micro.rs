//! Single-layer measurements made by calling public functions directly:
//! the timer wheel, the dispatch seam, the SPSC ring and the record
//! codec. Each reports the faster of three samples (noise only adds time).

use enoki_core::record::Rec;
use enoki_core::{EnokiClass, KernelFacilities, RingBuffer};
use enoki_sched::Fifo;
use enoki_sim::event::{Event, EventQueue};
use enoki_sim::{CpuSet, HintVal, KernelCtx, Ns, TaskView, Topology};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// The faster of three timings of `f`, in nanoseconds per `ops`.
fn best_of_3(ops: u64, mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Delays shaped like the simulator's event mix: mostly same-microsecond
/// IPC and tick-scale timers, a tail of sleeps and rare far timers, which
/// live long and so come to dominate the pending set.
fn delta_table() -> Vec<u64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..8192)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = x >> 33;
            match r % 16 {
                0..=6 => r % 50_000,
                7..=12 => r % 4_000_000,
                13 | 14 => r % 100_000_000,
                _ => r % 8_000_000_000,
            }
        })
        .collect()
}

/// `sim.event.push_pop_ns`: one pop plus one push on the event queue in
/// steady state with 65,536 timers pending.
pub fn event_queue_push_pop_ns() -> f64 {
    const PENDING: usize = 65_536;
    const ROUNDS: u64 = 1_000_000;
    let deltas = delta_table();
    best_of_3(ROUNDS, || {
        let mut q = EventQueue::new();
        let mut di = 0usize;
        for i in 0..PENDING {
            di = (di + 1) % deltas.len();
            q.push(Ns(deltas[di]), Event::External { tag: i as u64 });
        }
        for r in 0..ROUNDS {
            let (t, _) = q.pop().expect("steady state");
            di = (di + 1) % deltas.len();
            q.push(Ns(t.0 + deltas[di]), Event::External { tag: r });
        }
        black_box(q.len());
    })
}

/// `core.dispatch.seam_ns_per_call`: a pick/yield cycle on a one-task
/// FIFO through `&dyn KernelFacilities`, the tightest loop dispatch has.
pub fn dispatch_seam_ns_per_call() -> f64 {
    const ROUNDS: u64 = 500_000;
    let class: EnokiClass<HintVal, HintVal> = EnokiClass::load("seam", 1, Box::new(Fifo::new(1)));
    let ctx = KernelCtx::new(Ns::ZERO, Rc::new(Topology::new(1, 1)));
    let k: &dyn KernelFacilities = &ctx;
    let view = TaskView {
        pid: 1,
        runtime: Ns::ZERO,
        delta_runtime: Ns::ZERO,
        cpu: 0,
        weight: 1024,
        nice: 0,
        affinity: CpuSet::all(1),
    };
    class.dispatch_task_new(k, &view);
    best_of_3(2 * ROUNDS, || {
        for _ in 0..ROUNDS {
            black_box(class.dispatch_pick_next_task(k, 0));
            class.dispatch_task_yield(k, &view);
        }
        black_box(ctx.take_commands());
    })
}

/// `(core.queue.push_pop_ns, core.queue.batch_ns_per_msg)`: the SPSC ring
/// moved one message at a time and in 256-message bursts, both roles on
/// the calling thread.
pub fn ring_ns() -> (f64, f64) {
    const BURST: usize = 256;
    const MSGS: u64 = 2_000_000;
    let ring: RingBuffer<u64> = RingBuffer::with_capacity(1024);
    let chunk: Vec<u64> = (0..BURST as u64).collect();
    let mut out: Vec<u64> = Vec::with_capacity(BURST);
    let single = best_of_3(MSGS, || {
        for i in 0..MSGS {
            ring.push(black_box(i)).expect("ring has room");
            black_box(ring.pop());
        }
    });
    let batch = best_of_3(MSGS, || {
        let mut moved = 0;
        while moved < MSGS {
            let pushed = ring.push_slice(&chunk);
            out.clear();
            moved += ring.pop_batch(&mut out, BURST) as u64;
            assert_eq!(pushed, out.len());
            black_box(&out);
        }
    });
    (single, batch)
}

/// `(core.record.encode_ns, core.record.decode_ns)` per record, over
/// records captured from a real session.
pub fn codec_ns(sample: &[Rec]) -> (f64, f64) {
    let n = sample.len().max(1) as u64;
    let mut buf = Vec::with_capacity(64 * sample.len());
    let enc = best_of_3(n, || {
        buf.clear();
        for rec in sample {
            rec.encode(&mut buf);
        }
        black_box(buf.len());
    });
    let dec = best_of_3(n, || {
        let mut off = 0;
        while let Some((rec, used)) = Rec::decode(&buf[off..]) {
            black_box(rec);
            off += used;
        }
        assert_eq!(off, buf.len(), "sample decodes to the end");
    });
    (enc, dec)
}
