# Project task runner. `just` runs the default recipe (ci).

default: ci

# Everything CI runs, in CI's order.
ci: build test bench-smoke one-of-each lint

build:
    cargo build --release

test:
    cargo test -q

lint:
    cargo clippy --all-targets -- -D warnings

# One FNV-1a, one pick call/return pairing, one JSON escaper, one
# record/replay/flight hook word, one histogram bucket layout: fails when
# a second copy of any of them appears in crates/, tests/ or examples/,
# or when a crate's non-test lines exceed tools/loc.budget.
one-of-each:
    sh tools/one-of-each.sh

# Non-test lines of Rust per crate, with enoki-core split into the
# paper's framework modules and their extensions (EXPERIMENTS.md Table 2).
loc:
    sh tools/loc.sh

# Criterion-style microbenchmarks (includes the metrics-overhead gate).
bench:
    cargo bench -p enoki-bench

# Fast-mode hot-path benches + regression gate against the committed
# baseline (crates/bench/baselines/BENCH_framework.json). Fails on a >2x
# throughput regression, a wheel-vs-heap / batched-vs-seed inversion, or
# a metrics/watchdog/failsafe dispatch overhead above 15% (design
# target <5%; the gate leaves headroom for fast-mode noise). Also runs
# the cluster scaling harness so the gate can pin the parallel engine's
# thread-count invariance (and, on >= 4-core hosts, its speedup floor).
bench-gate:
    ENOKI_BENCH_FAST=1 cargo bench -p enoki-bench --bench framework
    ENOKI_BENCH_FAST=1 cargo run --release -p enoki-bench --bin cluster_bench
    cargo run --release -p enoki-bench --bin bench_gate

# The repo benchmark at ~1 % sizes with every check on (a few seconds).
# It is a package of its own that compiles against the library's public
# surface, so this is where an API break or a failed check (a dropped
# record, an unfaithful replay, a digest mismatch) shows in tier-1
# tooling: the run exits non-zero on any failed operation.
bench-smoke:
    benchmark/run.sh --quick

# Alternating paired runs of one workload, <rev> against the working tree
# (seeds 1..pairs): per-pair rows for the four end-to-end metrics, each
# side's median and quartiles, the change's wins and failed totals.
bench-pairs rev workload pairs="10" seconds="15":
    tools/bench-pairs.sh {{rev}} {{workload}} {{pairs}} {{seconds}}

# Native userspace backend: the same unmodified policy structs scheduling
# real OS threads through the same dispatch layer (tests/native.rs), plus
# the KernelFacilities contract suite run against both substrates
# (tests/facilities_contract.rs). Wrapped in a wall-clock timeout: a
# backend bug here hangs real threads, not virtual time.
native:
    timeout 300 cargo test -q -p enoki --test native
    timeout 300 cargo test -q -p enoki --test facilities_contract
    timeout 300 cargo test -q -p enoki-core native

# Sharded parallel simulation engine: the fleet workload's unit tests,
# the engine's own determinism suite, the 1/2/4-thread bit-identity
# matrix (trace digests, per-machine record logs, parallel-run replay),
# and the fast-mode scaling harness (results/BENCH_cluster.json; gated
# by bench-gate when present).
cluster:
    cargo test -q -p enoki-sim cluster
    cargo test -q -p enoki-workloads fleet
    cargo test -q -p enoki --test cluster
    ENOKI_BENCH_FAST=1 cargo run --release -p enoki-bench --bin cluster_bench

# Closed control loop: the shifting-mix switching matrix (meta beats
# every static policy, zero flapping, bit-identical reruns), the
# switching record/replay suite, and the meta_switch bench
# (results/BENCH_meta.json; gated by bench-gate when present).
meta:
    cargo test -q -p enoki-workloads shifting
    cargo test -q -p enoki --test meta_switching
    cargo run --release -p enoki-bench --bin meta_switch

# Per-cpu timeline + Chrome trace for a scheduler run.
schedviz sched="wfq":
    cargo run --release -p enoki-bench --bin schedviz -- {{sched}}

# Live health telemetry: watchdog-armed schedviz run + the health suite.
health sched="wfq":
    cargo run --release -p enoki-bench --bin schedviz -- --health {{sched}}
    cargo test -q -p enoki --test health
    cargo test -q -p enoki --test safety

# Fault-injection matrix: panic/token/storm faults in every callback,
# failsafe takeover, recovery via live upgrade, and faulted-run replay.
faults:
    cargo test -q -p enoki --test faults
    cargo test -q -p enoki-core faults

# Causal span tracing: record a small deterministic WFQ run
# (trace_bench, which also emits results/BENCH_trace.json for the
# regression gate), then walk the span graph — per-task spans, the
# p99-tail critical path, the per-policy virtual-time profile, and the
# Perfetto export with causal wakeup flow arrows.
trace log="results/trace_smoke.log":
    cargo run --release -p enoki-bench --bin trace_bench -- {{log}}
    cargo run --release -p enoki-replay --bin enoki-log -- spans {{log}}
    cargo run --release -p enoki-replay --bin enoki-log -- critpath {{log}}
    cargo run --release -p enoki-replay --bin enoki-log -- profile {{log}}
    cargo run --release -p enoki-replay --bin enoki-log -- export {{log}} {{log}}.trace.json
    cargo test -q -p enoki --test tracing

# "Why is my task slow?" for one pid of a recorded log (see `just trace`).
why pid log="results/trace_smoke.log":
    cargo run --release -p enoki-replay --bin enoki-log -- why {{log}} {{pid}}

# Flight recorder: induce starvation on an unrecorded run (blackbox_bench,
# which also emits results/BENCH_blackbox.json for the regression gate and
# pins byte-identical dumps across two cold runs), then triage the
# auto-triggered black-box dump end to end.
blackbox:
    cargo run --release -p enoki-bench --bin blackbox_bench
    cargo run --release -p enoki-replay --bin enoki-log -- blackbox results/blackbox_smoke.bin
    cargo test -q -p enoki --test flight

# Record a run, then walk the log through every enoki-log analysis.
forensics log="/tmp/enoki-forensics.log":
    cargo run --release -p enoki --example record_replay -- {{log}}
    cargo run --release -p enoki-replay --bin enoki-log -- stat {{log}}
    cargo run --release -p enoki-replay --bin enoki-log -- lat {{log}}
    cargo run --release -p enoki-replay --bin enoki-log -- locks {{log}}
    cargo run --release -p enoki-replay --bin enoki-log -- dump {{log}} 0 20
    cargo run --release -p enoki-replay --bin enoki-log -- diff {{log}} wfq
    cargo run --release -p enoki-replay --bin enoki-log -- export {{log}} {{log}}.trace.json
