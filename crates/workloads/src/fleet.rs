//! Fleet workload: chains of job steps hopping across a cluster of
//! machines (the cluster engine's flagship workload).
//!
//! Models a datacenter-style job fleet: each **chain** is a sequence of
//! compute steps; a step runs as one task under the WFQ Enoki scheduler
//! on some machine, and when it dies the chain advances. Every
//! `migrate_every` steps the chain **migrates** — a `MIGRATE` wire
//! message carries it to the least-loaded of `candidates` machines drawn
//! from a LOAD-gossip table, and delivery raises a simulated IPI on the
//! destination ([`Machine::inject_external`]). Finished chains send a
//! `KICK` back to their home machine (a pure IPC completion signal).
//!
//! Everything nondeterministic-looking is a pure function of the run
//! seed: step durations and placement candidates come from per-(chain,
//! step) RNG streams split off one root ([`SmallRng::split`]), and chain
//! advancement is checked only at epoch barriers, so the trace digest of
//! a fleet is a function of `(spec, shards)` — never of the host thread
//! count. `tests/cluster.rs` pins that equivalence.
//!
//! When the process is in sharded record mode
//! ([`enoki_core::ClusterBuilder::record`]) each machine gets its
//! own replayable record stream: the shard binds the machine's stream
//! around every construction, run, and spawn, and stamps an epoch frame
//! per machine per barrier.

use enoki_core::record;
use enoki_core::EnokiClass;
use enoki_sched::Wfq;
use enoki_sim::behavior::{Op, ProgramBehavior};
use enoki_sim::cluster::{Shard, WireMsg};
use enoki_sim::rng::SmallRng;
use enoki_sim::task::TaskState;
use enoki_sim::{CostModel, Fnv1a, Machine, Ns, Pid, SimError, TaskSpec, Topology};
use std::rc::Rc;

/// `WireMsg::kind`: a chain step migrating to another machine.
pub const MSG_MIGRATE: u32 = 1;
/// `WireMsg::kind`: a load-table gossip entry.
pub const MSG_LOAD: u32 = 2;
/// `WireMsg::kind`: a chain-completion IPC kick to the home machine.
pub const MSG_KICK: u32 = 3;

/// Salt folded into the per-(chain, step) placement stream so it never
/// collides with the duration stream for the same step.
const PLACE_SALT: u64 = 1 << 63;

/// Shape of a fleet run. All fields are plain data so the spec can cross
/// into the factory closure (`Sync`) and be reused across thread counts.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// Machines in the fleet.
    pub machines: usize,
    /// Cpus per machine.
    pub cores_per_machine: usize,
    /// Job chains. Chain `c` starts on machine `c % machines`.
    pub chains: usize,
    /// Steps per chain (total tasks = `chains * steps_per_chain`).
    pub steps_per_chain: u64,
    /// Nominal per-step compute; actual duration is `step_work` scaled
    /// by a per-step factor in `[0.5, 1.5)`.
    pub step_work: Ns,
    /// A chain migrates after every `migrate_every`-th step.
    pub migrate_every: u64,
    /// Placement candidates drawn per migration (least-loaded-of-k).
    pub candidates: usize,
    /// Root RNG seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Per-machine schedviz trace ring capacity (drop-oldest).
    pub trace_capacity: usize,
}

impl FleetSpec {
    /// A small fleet for tests: 6 machines, 12 chains of 8 steps.
    pub fn small(seed: u64) -> FleetSpec {
        FleetSpec {
            machines: 6,
            cores_per_machine: 2,
            chains: 12,
            steps_per_chain: 8,
            step_work: Ns::from_us(40),
            migrate_every: 3,
            candidates: 3,
            seed,
            trace_capacity: 2048,
        }
    }

    /// Total tasks the run will spawn.
    pub fn total_tasks(&self) -> u64 {
        self.chains as u64 * self.steps_per_chain
    }

    /// The shard owning global machine `m` when the fleet runs on
    /// `shards` shards (contiguous chunking, mirroring
    /// [`enoki_core::ClusterBuilder::machine_range`]).
    pub fn shard_of(&self, m: usize, shards: usize) -> usize {
        (0..shards)
            .find(|&s| self.machine_range(s, shards).contains(&m))
            .expect("machine index out of range")
    }

    /// The contiguous machine range owned by `shard` of `shards`.
    pub fn machine_range(&self, shard: usize, shards: usize) -> std::ops::Range<usize> {
        let lo = self.machines * shard / shards;
        let hi = self.machines * (shard + 1) / shards;
        lo..hi
    }
}

/// A live chain step on some machine.
struct LiveStep {
    pid: Pid,
    chain: u64,
    step: u64,
}

/// One machine of the fleet plus its chain bookkeeping.
struct FleetMachine {
    /// Global machine index == record stream index.
    global: usize,
    machine: Machine,
    class_idx: usize,
    live: Vec<LiveStep>,
}

/// A shard of the fleet: a contiguous slice of machines plus the
/// gossiped load table. Implements [`enoki_sim::cluster::Shard`].
pub struct FleetShard {
    spec: FleetSpec,
    shards: usize,
    id: usize,
    machines: Vec<FleetMachine>,
    /// Gossiped live-step counts per global machine (own entries exact,
    /// remote entries one epoch stale — like real load gossip).
    loads: Vec<u64>,
    root: SmallRng,
    epoch: u64,
    completed: u64,
    spawned: u64,
    migrations: u64,
    kicks: u64,
}

/// Per-shard result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutput {
    /// Shard id.
    pub shard: usize,
    /// FNV-1a digest of every machine's schedviz trace, task table shape
    /// and counters — the value the determinism matrix compares.
    pub digest: u64,
    /// Machine stats merged across the shard's machines.
    pub stats: enoki_sim::stats::MachineStats,
    /// Chains whose final step finished on this shard.
    pub completed: u64,
    /// Step tasks spawned on this shard.
    pub spawned: u64,
    /// MIGRATE messages this shard emitted.
    pub migrations: u64,
    /// KICK completions delivered to home machines on this shard.
    pub kicks: u64,
    /// Simulation events processed.
    pub events: u64,
}

impl FleetShard {
    /// Builds shard `id` of `shards` for `spec`: constructs its machines
    /// (WFQ under the Enoki dispatch layer), seeds the load table, and
    /// spawns step 0 of every chain homed on this shard.
    pub fn new(spec: FleetSpec, shards: usize, id: usize) -> Result<FleetShard, SimError> {
        assert!(spec.machines > 0 && spec.chains > 0 && spec.steps_per_chain > 0);
        assert!(spec.migrate_every > 0 && spec.candidates > 0);
        let range = spec.machine_range(id, shards);
        let mut machines = Vec::with_capacity(range.len());
        for global in range {
            // The machine's construction-time record events (lock
            // creations in the dispatch layer) must land in its own
            // stream, numbered from 1.
            record::set_record_stream(global as u32);
            let nr = spec.cores_per_machine;
            let mut machine = Machine::new(Topology::new(nr, 1), CostModel::calibrated());
            machine.enable_trace(spec.trace_capacity);
            let class = Rc::new(EnokiClass::load("wfq", nr, Box::new(Wfq::new(nr))));
            let class_idx = machine.add_class(class);
            machines.push(FleetMachine {
                global,
                machine,
                class_idx,
                live: Vec::new(),
            });
        }
        record::clear_record_stream();

        // Exact initial loads: chain c is homed on machine c % machines.
        let mut loads = vec![0u64; spec.machines];
        for c in 0..spec.chains {
            loads[c % spec.machines] += 1;
        }

        let mut shard = FleetShard {
            root: SmallRng::seed_from_u64(spec.seed),
            spec,
            shards,
            id,
            machines,
            loads,
            epoch: 0,
            completed: 0,
            spawned: 0,
            migrations: 0,
            kicks: 0,
        };
        for c in 0..shard.spec.chains {
            let home = c % shard.spec.machines;
            if let Some(local) = shard.local_index(home) {
                shard.spawn_step(local, c as u64, 0, Ns::ZERO);
            }
        }
        Ok(shard)
    }

    /// Local slot of global machine `m`, if this shard owns it.
    fn local_index(&self, m: usize) -> Option<usize> {
        let range = self.spec.machine_range(self.id, self.shards);
        range.contains(&m).then(|| m - range.start)
    }

    /// Spawns the task for `(chain, step)` on local machine `local`,
    /// runnable at `at`. Duration is a pure function of the run seed.
    fn spawn_step(&mut self, local: usize, chain: u64, step: u64, at: Ns) {
        let mut rng = self.root.split((chain << 32) | step);
        let factor = 0.5 + rng.next_f64();
        let dur = Ns((self.spec.step_work.as_nanos() as f64 * factor) as u64);
        let fm = &mut self.machines[local];
        record::set_record_stream(fm.global as u32);
        let pid = fm.machine.spawn(
            TaskSpec::new(
                format!("c{chain}.s{step}"),
                fm.class_idx,
                Box::new(ProgramBehavior::once(vec![Op::Compute(dur)])),
            )
            .tag(chain as u32 % 64)
            .at(at),
        );
        record::clear_record_stream();
        fm.live.push(LiveStep { pid, chain, step });
        self.spawned += 1;
    }

    /// Least-loaded of `candidates` machines drawn from the placement
    /// stream for `(chain, step)`; ties break to the lowest index.
    fn place(&mut self, chain: u64, step: u64) -> usize {
        let mut rng = self.root.split(PLACE_SALT | (chain << 32) | step);
        let mut best = rng.gen_range(0..self.spec.machines as u64) as usize;
        for _ in 1..self.spec.candidates {
            let cand = rng.gen_range(0..self.spec.machines as u64) as usize;
            if self.loads[cand] < self.loads[best]
                || (self.loads[cand] == self.loads[best] && cand < best)
            {
                best = cand;
            }
        }
        best
    }

    fn has_live(&self) -> bool {
        self.machines.iter().any(|m| !m.live.is_empty())
    }
}

impl Shard for FleetShard {
    type Output = FleetOutput;

    fn run_until(&mut self, until: Ns) -> Result<(), SimError> {
        for fm in &mut self.machines {
            record::set_record_stream(fm.global as u32);
            let r = fm.machine.run_until(until);
            record::clear_record_stream();
            r?;
        }
        Ok(())
    }

    fn collect(&mut self, now: Ns, out: &mut Vec<(usize, WireMsg)>) {
        // Epoch frame per machine: aligns each per-machine record log
        // against the rest of the fleet offline.
        for fm in &self.machines {
            record::set_record_stream(fm.global as u32);
            record::mark_epoch(fm.global as u32, self.epoch, now.as_nanos());
        }
        record::clear_record_stream();
        self.epoch += 1;

        // Advance chains whose step died this epoch. Scan order (machine
        // slot, live slot) is deterministic; decisions are made against
        // the load table as gossiped at the last barrier.
        let mut done: Vec<(usize, u64, u64)> = Vec::new();
        for (local, fm) in self.machines.iter_mut().enumerate() {
            let machine = &fm.machine;
            fm.live.retain(|ls| {
                if machine.task(ls.pid).state == TaskState::Dead {
                    done.push((local, ls.chain, ls.step));
                    false
                } else {
                    true
                }
            });
        }
        for (local, chain, step) in done {
            let next = step + 1;
            let home = chain as usize % self.spec.machines;
            if next == self.spec.steps_per_chain {
                // Chain complete: IPC-kick the home machine, possibly
                // ourselves — routed through the mailbox either way so
                // every completion pays the same epoch-quantized latency.
                self.completed += 1;
                let dest = self.spec.shard_of(home, self.shards);
                out.push((
                    dest,
                    WireMsg {
                        kind: MSG_KICK,
                        a: chain,
                        b: home as u64,
                        c: 0,
                    },
                ));
            } else if next % self.spec.migrate_every == 0 {
                let target = self.place(chain, next);
                self.migrations += 1;
                let dest = self.spec.shard_of(target, self.shards);
                out.push((
                    dest,
                    WireMsg {
                        kind: MSG_MIGRATE,
                        a: chain,
                        b: next,
                        c: target as u64,
                    },
                ));
            } else {
                // Same machine: the next step continues where this one
                // died, runnable right at the barrier.
                self.spawn_step(local, chain, next, now);
            }
        }

        // Gossip own loads while the shard still drives work; going
        // silent once drained lets the cluster quiesce.
        for fm in &self.machines {
            self.loads[fm.global] = fm.live.len() as u64;
        }
        if self.has_live() {
            for s in 0..self.shards {
                if s == self.id {
                    continue;
                }
                for fm in &self.machines {
                    out.push((
                        s,
                        WireMsg {
                            kind: MSG_LOAD,
                            a: fm.global as u64,
                            b: fm.live.len() as u64,
                            c: 0,
                        },
                    ));
                }
            }
        }
    }

    fn deliver(&mut self, _from: usize, msg: WireMsg, at: Ns) -> Result<(), SimError> {
        match msg.kind {
            MSG_MIGRATE => {
                let target = msg.c as usize;
                let local = self
                    .local_index(target)
                    .expect("MIGRATE routed to wrong shard");
                self.spawn_step(local, msg.a, msg.b, at);
                // The simulated IPI a remote enqueue raises (tag bit 0 =
                // resched kick on cpu 0).
                let fm = &mut self.machines[local];
                record::set_record_stream(fm.global as u32);
                fm.machine.inject_external(at, 1);
                record::clear_record_stream();
            }
            MSG_LOAD => {
                self.loads[msg.a as usize] = msg.b;
            }
            MSG_KICK => {
                let home = msg.b as usize;
                let local = self.local_index(home).expect("KICK routed to wrong shard");
                let fm = &mut self.machines[local];
                record::set_record_stream(fm.global as u32);
                fm.machine.inject_external(at, 1);
                record::clear_record_stream();
                self.kicks += 1;
            }
            other => panic!("unknown fleet wire message kind {other}"),
        }
        Ok(())
    }

    fn pending(&self) -> bool {
        self.has_live()
    }

    fn events_processed(&self) -> u64 {
        self.machines
            .iter()
            .map(|m| m.machine.events_processed())
            .sum()
    }

    fn finish(self) -> FleetOutput {
        let mut digest = Fnv1a::new();
        let mut stats = enoki_sim::stats::MachineStats::new(self.spec.cores_per_machine);
        let mut events = 0;
        for fm in &self.machines {
            digest.u64(fm.global as u64);
            digest.u64(fm.machine.nr_tasks() as u64);
            digest.u64(fm.machine.events_processed());
            digest.u64(fm.machine.now().as_nanos());
            let s = fm.machine.stats();
            digest.u64(s.nr_context_switches);
            digest.u64(s.nr_ipis);
            digest.u64(s.nr_externals);
            if let Some(t) = fm.machine.tracer() {
                digest.u64(t.dropped());
                for ev in t.events() {
                    let (a, b) = trace_words(ev);
                    digest.u64(a);
                    digest.u64(b);
                }
            }
            stats.merge(s);
            events += fm.machine.events_processed();
        }
        FleetOutput {
            shard: self.id,
            digest: digest.finish(),
            stats,
            completed: self.completed,
            spawned: self.spawned,
            migrations: self.migrations,
            kicks: self.kicks,
            events,
        }
    }
}

/// Packs a trace event into two words for digesting.
fn trace_words(ev: &enoki_sim::trace::TraceEvent) -> (u64, u64) {
    use enoki_sim::trace::TraceEvent::*;
    match *ev {
        SwitchIn { at, cpu, pid } => (at.as_nanos() ^ 0x1000_0000_0000_0000, ((cpu as u64) << 32) | pid as u64),
        Idle { at, cpu } => (at.as_nanos() ^ 0x2000_0000_0000_0000, cpu as u64),
        Wakeup { at, pid, cpu } => (at.as_nanos() ^ 0x3000_0000_0000_0000, ((cpu as u64) << 32) | pid as u64),
        Migrate { at, pid, from, to } => (
            at.as_nanos() ^ 0x4000_0000_0000_0000,
            ((from as u64) << 48) | ((to as u64) << 32) | pid as u64,
        ),
    }
}

/// A `Sync` factory for [`enoki_sim::cluster::run_parallel`] /
/// [`enoki_sim::cluster::run_sequential`]: builds shard `id` of
/// `shards`.
pub fn factory(
    spec: FleetSpec,
    shards: usize,
) -> impl Fn(usize) -> Result<FleetShard, SimError> + Sync {
    move |id| FleetShard::new(spec, shards, id)
}

/// Folds per-shard digests into one fleet digest (shard order).
pub fn fleet_digest(outputs: &[FleetOutput]) -> u64 {
    let mut h = Fnv1a::new();
    for o in outputs {
        h.u64(o.digest);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use enoki_sim::cluster::{run_parallel, run_sequential, ClusterSpec};

    #[test]
    fn fleet_completes_every_chain() {
        let spec = FleetSpec::small(42);
        let shards = 3;
        let report = run_sequential(ClusterSpec::new(shards), factory(spec, shards)).unwrap();
        assert_eq!(report.outputs.len(), shards);
        let sum = |f: fn(&FleetOutput) -> u64| report.outputs.iter().map(f).sum::<u64>();
        assert_eq!(sum(|o| o.completed), spec.chains as u64);
        assert_eq!(sum(|o| o.spawned), spec.total_tasks());
        assert_eq!(sum(|o| o.kicks), spec.chains as u64, "every chain kicks home");
        assert!(sum(|o| o.migrations) > 0, "chains never migrated");
        assert!(report.messages > 0 && report.epochs > 1);
        // Externals fired for every migration and kick.
        let externals: u64 = report.outputs.iter().map(|o| o.stats.nr_externals).sum();
        assert!(externals >= sum(|o| o.kicks));
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let spec = FleetSpec::small(7);
        let shards = 4;
        let seq = run_sequential(ClusterSpec::new(shards), factory(spec, shards)).unwrap();
        let par = run_parallel(ClusterSpec::new(shards), 2, factory(spec, shards)).unwrap();
        assert_eq!(seq.epochs, par.epochs);
        assert_eq!(seq.events, par.events);
        assert_eq!(seq.messages, par.messages);
        for (a, b) in seq.outputs.iter().zip(par.outputs.iter()) {
            assert_eq!(a.digest, b.digest, "shard {} diverged", a.shard);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.spawned, b.spawned);
        }
        assert_eq!(fleet_digest(&seq.outputs), fleet_digest(&par.outputs));
    }

    #[test]
    fn seed_changes_the_fleet() {
        let shards = 2;
        let a = run_sequential(
            ClusterSpec::new(shards),
            factory(FleetSpec::small(1), shards),
        )
        .unwrap();
        let b = run_sequential(
            ClusterSpec::new(shards),
            factory(FleetSpec::small(2), shards),
        )
        .unwrap();
        assert_ne!(fleet_digest(&a.outputs), fleet_digest(&b.outputs));
    }

    #[test]
    fn machine_partition_is_exhaustive() {
        let spec = FleetSpec::small(0);
        for shards in [1, 2, 3, 6] {
            let mut seen = Vec::new();
            for s in 0..shards {
                seen.extend(spec.machine_range(s, shards));
            }
            assert_eq!(seen, (0..spec.machines).collect::<Vec<_>>());
            for m in 0..spec.machines {
                assert!(spec.machine_range(spec.shard_of(m, shards), shards).contains(&m));
            }
        }
    }
}
