#!/usr/bin/env sh
# Offline CI gate for the workspace.
#
# Runs the tier-1 verification (release build + full test suite) plus the
# bench-target compile, all with the network disabled and warnings denied.
# The workspace has no external dependencies, so this passes with an empty
# cargo registry.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# Process-leak gate: the test suites, examples and servebench smokes
# below spawn xai-shard-worker pool workers and daemons, and must reap
# every one. Count this user's workers now and again after the smokes.
# `-f` matches the full command line, because `comm` cuts the
# 16-character name to 15.
count_workers() {
    pgrep -u "$(id -u)" -f '/xai-shard-worker( |$)' | wc -l
}
WORKERS_BEFORE="$(count_workers)"
echo "==> process-leak gate: $WORKERS_BEFORE xai-shard-worker processes before the suites" \
    "(only growth during this CI run counts; processes that were already running are left alone)"

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The equivalence and oracle suites are part of the workspace run above;
# invoke them by name too so a filtered or partial run can't skip them.
echo "==> cargo test -q --test unified_api"
cargo test -q --test unified_api

echo "==> cargo test -q --test registry_completeness"
cargo test -q --test registry_completeness

echo "==> cargo test -q --test masked_equivalence"
cargo test -q --test masked_equivalence

echo "==> cargo test -q --test batch_equivalence"
cargo test -q --test batch_equivalence

echo "==> cargo test -q --test incremental_equivalence"
cargo test -q --test incremental_equivalence

echo "==> cargo test -q --test fault_injection"
cargo test -q --test fault_injection

echo "==> cargo test -q --test serve_api"
cargo test -q --test serve_api

echo "==> cargo test -q --test serve_concurrency"
cargo test -q --test serve_concurrency

echo "==> cargo test -q --test serve_golden"
cargo test -q --test serve_golden

echo "==> cargo test -q --test shard_equivalence"
cargo test -q --test shard_equivalence

echo "==> cargo test -q --test shard_golden"
cargo test -q --test shard_golden

echo "==> cargo test -q --test shard_faults"
cargo test -q --test shard_faults

echo "==> cargo test -q --test transport_equivalence"
cargo test -q --test transport_equivalence

echo "==> cargo test -q --test transport_faults"
cargo test -q --test transport_faults

echo "==> cargo test -q --test transport_soak"
cargo test -q --test transport_soak

echo "==> cargo test -q --test backend_equivalence"
cargo test -q --test backend_equivalence

echo "==> cargo test -q -p xai-core --test shard_plan"
cargo test -q -p xai-core --test shard_plan

echo "==> cargo test -q -p xai-linalg --test chol_update"
cargo test -q -p xai-linalg --test chol_update

echo "==> cargo test -q -p xai-shapley --test golden_oracle"
cargo test -q -p xai-shapley --test golden_oracle

echo "==> cargo test -q -p xai-models --test properties"
cargo test -q -p xai-models --test properties

echo "==> cargo bench -p xai-bench --no-run (compile only)"
cargo bench -p xai-bench --no-run

# Advisory bench regression gate: reruns the Shapley bench suite and
# diffs medians against the checked-in baselines (scripts/bench_gate.sh,
# DESIGN.md §12). Shared CI hosts have noisy clocks, so a timing
# regression warns here rather than failing the build; run the gate
# directly on quiet hardware before trusting a red result.
echo "==> scripts/bench_gate.sh (bench regression gate, advisory only)"
sh scripts/bench_gate.sh \
    || echo "ci.sh: bench gate reported regressions (advisory only)"

# The unified-layer example doubles as an end-to-end smoke test of the
# runnable registry: every resolve() axis is exercised against a live
# model, and the budgeted/strict plan path runs for real.
echo "==> cargo run --release --example unified_api"
cargo run --release --example unified_api >/dev/null

# The serving demo smoke-tests the explanation-serving engine end to
# end: concurrent JSON submission, cache hits, typed admission control.
echo "==> cargo run --release --example serve_demo"
cargo run --release --example serve_demo >/dev/null

# The shard demo proves the distribution story end to end: unsharded,
# in-process sharded and OS-process-pool runs must emit identical bytes.
echo "==> cargo run --release --example shard_demo"
cargo run --release --example shard_demo >/dev/null

# The cluster demo proves the multi-node transport end to end: two real
# loopback daemons, TCP-shipped descriptors, retry/breaker supervision,
# and graceful in-process degradation — all bit-identical bytes.
echo "==> cargo run --release --example cluster_demo"
cargo run --release --example cluster_demo >/dev/null

# The backend demo proves the unified execution substrate end to end:
# one ServeRequest on the local, process-pool and cluster backends, the
# trait driven directly, and cache/session instrumentation — all
# bit-identical bytes.
echo "==> cargo run --release --example backend_demo"
cargo run --release --example backend_demo >/dev/null

# Serve-path correctness smoke: one second of each benchmark workload
# (servebench/, built in its own target directory). The timing is not
# checked; each run must answer every request and match a direct
# `Explainer::explain` on its sampled references. local-cold drives the
# coalition memo, local-hot the result cache at capacity (every hit
# compares the full request key), remote-sharded the shard cache, the
# cluster transport and the process pool.
for WORKLOAD in local-cold local-hot remote-sharded; do
    echo "==> servebench $WORKLOAD smoke (correctness only)"
    SERVEBENCH_LAST="$(bash servebench/run.sh --workload "$WORKLOAD" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    if ! printf '%s\n' "$SERVEBENCH_LAST" | grep -q '"correct":true' \
        || ! printf '%s\n' "$SERVEBENCH_LAST" | grep -Eq '"failed":0[,}]'; then
        echo "ci.sh: servebench $WORKLOAD smoke run failed: $SERVEBENCH_LAST" >&2
        exit 1
    fi
done

WORKERS_AFTER="$(count_workers)"
echo "==> process-leak gate: $WORKERS_AFTER xai-shard-worker processes after the smokes" \
    "(this CI run's growth only)"
if [ "$WORKERS_AFTER" -gt "$WORKERS_BEFORE" ]; then
    echo "ci.sh: this CI run left $((WORKERS_AFTER - WORKERS_BEFORE)) xai-shard-worker processes behind:" >&2
    pgrep -a -u "$(id -u)" -f '/xai-shard-worker( |$)' >&2 || true
    exit 1
fi

# Execution-substrate call-site gate (DESIGN.md §14): new code must go
# through the ExecutionBackend trait, not call the raw process-pool or
# cluster dispatch loops directly. Blessed: the backend module and the
# transport internals that implement it, the facade convenience wrapper,
# and the pre-backend shard suites that pin the raw runners' semantics.
echo "==> backend call-site gate (explain_process_pool / run_descriptors)"
VIOLATIONS="$(grep -rn --include='*.rs' -E 'explain_process_pool\(|\.run_descriptors\(' \
    src crates tests examples \
    | grep -v -e '^src/shard\.rs:' \
              -e '^crates/core/src/backend\.rs:' \
              -e '^crates/core/src/transport\.rs:' \
              -e '^examples/shard_demo\.rs:' \
              -e '^tests/shard_faults\.rs:' \
              -e '^tests/shard_equivalence\.rs:' \
    || true)"
if [ -n "$VIOLATIONS" ]; then
    echo "ci.sh: direct process-pool/cluster dispatch outside the backend layer:" >&2
    echo "$VIOLATIONS" >&2
    echo "ci.sh: route new callers through xai_core::backend::ExecutionBackend" >&2
    exit 1
fi

# Advisory unwrap/expect audit over the library crates' non-test code.
# Warnings only, never a gate: the panicking convenience APIs are
# intentional `.expect` wrappers over their `try_*` twins (DESIGN.md §8),
# so this pass exists to surface *new* unwraps for review, not to fail.
# RUSTFLAGS is cleared so `-D warnings` cannot escalate these lints.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --lib (unwrap/expect audit, warnings only)"
    RUSTFLAGS="" cargo clippy -q \
        -p xai-rand -p xai-linalg -p xai-data -p xai-core -p xai-models \
        -p xai-shapley -p xai-surrogate -p xai-counterfactual \
        -p xai-datavalue -p xai-provenance -p xai-rules \
        --lib -- -W clippy::unwrap_used -W clippy::expect_used \
        || echo "ci.sh: clippy audit reported issues (advisory only)"
else
    echo "==> clippy not installed; skipping unwrap/expect audit"
fi

echo "ci.sh: all green"
