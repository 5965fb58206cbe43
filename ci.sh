#!/usr/bin/env bash
# CI gate, split into the stages .github/workflows/ci.yml runs as a matrix
# (so lint failures report in minutes, not after a full release build):
#
#   ./ci.sh               full gate: every stage below except quick, in
#                         order (lint, test-debug, test-release,
#                         test-scalar, test-perword, test-relaxed,
#                         test-pooled, server-smoke, perf)
#   ./ci.sh lint          rustfmt + clippy -D warnings + cargo doc --no-deps
#                         (rustdoc warnings denied: the redesigned public
#                         bulk Vm API stays documented), a check that no
#                         library code outside avr_types::knobs reads the
#                         environment, then rustfmt + clippy -D warnings on
#                         the benchmark package (avr_benchmark/, which
#                         --workspace skips)
#   ./ci.sh test-debug    debug build + full test suite
#   ./ci.sh test-release  release build + full test suite + the benchmark
#                         package's unit tests (avr_benchmark/: its digest
#                         pins, the Vm wrapper's transparency, and its
#                         release profile matching the workspace's)
#   ./ci.sh test-scalar   release test suite with AVR_NO_SIMD=1 — the
#                         process's dispatch table is the portable scalar
#                         codec arm (what a CPU without AVX2 runs), so the
#                         non-SIMD path can never rot
#   ./ci.sh test-perword  release test suite with AVR_NO_BATCHED_WALK=1 —
#                         forces the per-word timed walk (the batched span
#                         walk's reference semantics) so the equivalence
#                         oracle keeps running against live code
#   ./ci.sh test-relaxed  release test suite with AVR_BACKEND=relaxed —
#                         every default-constructed System runs on the
#                         fault-injecting relaxed-refresh DRAM backend at
#                         its default rates, so the graceful-degradation
#                         and criticality-protection paths can never rot
#   ./ci.sh test-pooled   release test suite with AVR_THREADS=4 — every
#                         default-width SimPool (grid sweeps, figure
#                         smoke, the sweep server) runs four workers wide,
#                         so the chunked claiming / weighted scheduling /
#                         golden-memoization machinery is exercised under
#                         real concurrency by the whole suite, not only by
#                         the tests that construct wide pools themselves
#   ./ci.sh server-smoke  sweep-server end-to-end: the stacking-study
#                         example in --smoke mode (submit over loopback,
#                         reassemble the stream, bit-compare every wire
#                         cell to a direct run), plus the sweep_server
#                         binary driven over a real socket
#   ./ci.sh perf          bench smoke: bench_e2e --smoke gated against the
#                         committed BENCH_PR23.json + codec kernel smoke
#                         (AVR_BENCH_FAST=1) + every table/figure and the
#                         ablation at tiny scale, then the same figures
#                         rerun under AVR_NO_SIMD=1, AVR_NO_BATCHED_WALK=1
#                         and AVR_THREADS=1, failing on any byte difference
#   ./ci.sh quick         fast local pre-commit check (lint + release tests)
#
# Every stage stops at its first failing command and fails the run, and
# prints its wall time, pass or fail (run_stage), so a slow CI leg is
# attributable to a stage instead of to "the job".
#
# The test-* legs select an alternate implementation through an AVR_*
# knob. The simulator resolves every knob once per process, in
# crates/avr-types/src/knobs.rs (the six knobs, their kinds and defaults
# are listed there and in PERFORMANCE.md, "Knobs"); tests/knobs.rs checks
# in every leg that each consumer follows the leg's variable.
#
# Everything builds with the repo's .cargo/config.toml (host-native
# codegen) and the channel pinned by rust-toolchain.toml; see
# PERFORMANCE.md.

set -euo pipefail
cd "$(dirname "$0")"

# The stage running now and its start time, for the failure report.
stage_name=""
stage_t0=0
report_failure() {
    local rc=$?
    if [ "$rc" -ne 0 ] && [ -n "$stage_name" ]; then
        echo "==> stage ${stage_name}: FAILED after $((SECONDS - stage_t0))s" >&2
    fi
}
trap report_failure EXIT

# Run one named stage function and report its wall time. The function is
# called as a plain command, so `set -e` ends the script at the stage's
# first failing command and the EXIT trap reports the stage. (Under `||`,
# `&&`, `if` or `!`, bash ignores `set -e` inside the function, and only
# its last command could fail the stage.)
run_stage() {
    stage_name="$1"
    stage_t0=$SECONDS
    "$2"
    echo "==> stage ${stage_name}: ok in $((SECONDS - stage_t0))s"
    stage_name=""
}

lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all --check

    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo doc --no-deps (rustdoc warnings denied)"
    # The bulk Vm API is the public workload-facing surface; broken intra-doc
    # links or undocumented public items fail the gate.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

    echo "==> environment reads only in avr_types::knobs"
    # Library code takes AVR_* knobs from the one snapshot in
    # crates/avr-types/src/knobs.rs; entry points under src/bin/ may read
    # their own environment.
    local reads
    reads=$(grep -rn --include='*.rs' 'env::var' crates/*/src \
        | grep -v -e '^crates/avr-types/src/knobs\.rs:' -e '^crates/[^/]*/src/bin/' || true)
    if [ -n "$reads" ]; then
        echo "$reads" >&2
        echo "error: library code reads the environment; use avr_types::knobs" >&2
        return 1
    fi

    echo "==> cargo fmt --check + clippy -D warnings (benchmark package)"
    # A package of its own (empty [workspace]), so --workspace skips it.
    cargo fmt --check --manifest-path avr_benchmark/Cargo.toml
    cargo clippy --offline --manifest-path avr_benchmark/Cargo.toml --all-targets -- -D warnings
}

test_debug() {
    echo "==> cargo build (debug)"
    cargo build --workspace

    echo "==> cargo test (debug, workspace)"
    cargo test --workspace -q
}

test_release() {
    echo "==> cargo build --release"
    cargo build --release

    echo "==> cargo test --release (workspace)"
    cargo test --release --workspace -q

    echo "==> cargo test --release (benchmark package)"
    # A package of its own (empty [workspace]), so --workspace skips it.
    cargo test --release --offline --manifest-path avr_benchmark/Cargo.toml
}

test_scalar() {
    echo "==> cargo test --release with AVR_NO_SIMD=1 (scalar codec arm)"
    # The knob makes the scalar arm the process's dispatch table, so every
    # Compressor and compress call — the determinism and digest tests
    # included — runs the portable kernels, exactly what a non-x86 host
    # or an x86-64 CPU without AVX2 would execute. The per-arm oracle
    # still covers both arms: it hands each arm's table to its scratch
    # explicitly.
    AVR_NO_SIMD=1 cargo test --release --workspace -q
}

test_perword() {
    echo "==> cargo test --release with AVR_NO_BATCHED_WALK=1 (per-word timed walk)"
    # Every default-constructed System runs the retained per-word walk, so
    # the whole suite — workloads, determinism, zero-alloc, figure smoke —
    # exercises the reference semantics the batched walk is pinned against
    # (tests/batched_walk.rs re-enables batching explicitly on one side of
    # its oracle, so the equivalence check itself stays meaningful here).
    AVR_NO_BATCHED_WALK=1 cargo test --release --workspace -q
}

test_relaxed() {
    echo "==> cargo test --release with AVR_BACKEND=relaxed (fault-injecting DRAM)"
    # The error-model override applies to every System whose config does
    # not pin a backend, so the whole suite — workloads, determinism,
    # zero-alloc, figure smoke — runs with retention faults injected at
    # the default rates. Codec-band tests pin the exact backend
    # explicitly (device faults are not codec error); the dedicated
    # fault-injection harness pins the faulty backends and so runs
    # identically in every leg.
    AVR_BACKEND=relaxed cargo test --release --workspace -q
}

test_pooled() {
    echo "==> cargo test --release with AVR_THREADS=4 (4-wide SimPool)"
    # AVR_THREADS sets every default-width SimPool (SimPool::from_env:
    # grid sweeps, the figures sweep, the sweep_server daemon), so the
    # whole suite runs them four workers wide even on a smaller CI
    # runner: chunked claiming, heaviest-first scheduling and the
    # golden-run memoization all execute under real worker concurrency,
    # and the determinism tests verify the results stay bit-identical to
    # the 1-thread order. Tests that construct explicit-width pools
    # (tests/determinism.rs, tests/scaling.rs) are unaffected —
    # SimPool::new ignores the knob.
    AVR_THREADS=4 cargo test --release --workspace -q
}

server_smoke() {
    echo "==> sweep-server smoke: stacking study (loopback, bit-compared to direct runs)"
    # The example submits a batch to an in-process server and, in --smoke
    # mode, re-computes every cell directly and bit-compares the wire
    # metrics — the server determinism contract as a runnable check.
    cargo run --release --example stacking_study -- --smoke

    echo "==> sweep_server binary over a real socket"
    # Start the standalone binary on an ephemeral port, drive one tiny
    # batch through it from a second process, then shut it down over the
    # protocol (drain) and require a clean exit.
    local logfile addr rc=0
    logfile=$(mktemp)
    cargo build --release -q -p avr-server --bin sweep_server
    ./target/release/sweep_server --addr 127.0.0.1:0 >"$logfile" &
    local server_pid=$!
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on //p' "$logfile")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "sweep_server never reported its address" >&2
        kill "$server_pid" 2>/dev/null || true
        rm -f "$logfile"
        return 1
    fi
    # One submit + drain over the line protocol; the server must stream a
    # result for the cell, report the job done, and exit zero on drain.
    timeout 120 python3 - "$addr" <<'PYEOF' || rc=$?
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
requests = (
    b'{ "cmd": "submit", "cells": [ { "workload": "heat" } ] }\n'
    b'{ "cmd": "drain" }\n'
)
s = socket.create_connection((host, int(port)), timeout=110)
s.sendall(requests)
buf = b""
while b'"event":"job_done"' not in buf:
    chunk = s.recv(65536)
    if not chunk:
        sys.exit("connection closed before job_done")
    buf += chunk
text = buf.decode()
assert '"event":"result"' in text, text
assert '"completed":1' in text, text
print("sweep_server smoke: 1 cell streamed, job done, drained")
PYEOF
    wait "$server_pid" || rc=$?
    rm -f "$logfile"
    return "$rc"
}

perf() {
    echo "==> perf smoke: end-to-end blocks/s vs committed BENCH_PR23.json"
    # Fails when any workload's blocks/s regresses > 25 % against the
    # committed trajectory baseline, and hard-fails on
    # workload/backend/layout/design set drift; the JSON is uploaded as a
    # CI artifact. The smoke run times every cell of the tiny table (the
    # ten workloads, every backend, layout and design) in interleaved
    # rounds, and the gate calibrates each round against its own median,
    # so host-speed drift during the run cancels. The baseline is
    # BENCH_PR23.json, recorded that way after the workloads' own
    # arithmetic got faster (kmeans and fft most). On a multi-core runner
    # the gate also fails if the pooled design grid is slower than its
    # single-thread time.
    cargo run --release -p avr-bench --bin bench_e2e -- \
        --smoke --check BENCH_PR23.json --out bench-e2e-smoke.json

    echo "==> codec kernel smoke (reference vs fused, shrunk measurement)"
    # AVR_BENCH_FAST is a flag: any value but empty or 0 shrinks the run.
    AVR_BENCH_FAST=1 cargo run --release -p avr-bench --bin bench_codec -- /tmp/bench_smoke.json

    echo "==> paper pipeline smoke: every table/figure renderer + the ablation (tiny scale)"
    cargo build --release -q -p avr-bench --bin figures
    local out knob rc=0
    out=$(mktemp -d)
    ./target/release/figures | tee "$out/default.txt" || rc=1

    echo "==> paper pipeline knob invariance: figures output byte-identical under each knob"
    # The scalar codec arm, the per-word timed walk and a one-worker pool
    # are bit-identical to the defaults they replace, so the whole paper
    # pipeline must print the same bytes under each.
    for knob in AVR_NO_SIMD=1 AVR_NO_BATCHED_WALK=1 AVR_THREADS=1; do
        if env "$knob" ./target/release/figures >"$out/knob.txt" &&
            cmp "$out/default.txt" "$out/knob.txt"; then
            echo "    ${knob}: identical"
        else
            echo "error: figures output under ${knob} differs from the default run" >&2
            rc=1
        fi
    done
    rm -rf "$out"
    return "$rc"
}

case "${1:-all}" in
    lint) run_stage lint lint ;;
    test-debug) run_stage test-debug test_debug ;;
    test-release) run_stage test-release test_release ;;
    test-scalar) run_stage test-scalar test_scalar ;;
    test-perword) run_stage test-perword test_perword ;;
    test-relaxed) run_stage test-relaxed test_relaxed ;;
    test-pooled) run_stage test-pooled test_pooled ;;
    server-smoke) run_stage server-smoke server_smoke ;;
    perf) run_stage perf perf ;;
    quick)
        run_stage lint lint
        run_stage test-release test_release
        ;;
    all)
        run_stage lint lint
        run_stage test-debug test_debug
        run_stage test-release test_release
        run_stage test-scalar test_scalar
        run_stage test-perword test_perword
        run_stage test-relaxed test_relaxed
        run_stage test-pooled test_pooled
        run_stage server-smoke server_smoke
        run_stage perf perf
        ;;
    *)
        echo "usage: ./ci.sh [lint|test-debug|test-release|test-scalar|test-perword|test-relaxed|test-pooled|server-smoke|perf|quick|all]" >&2
        exit 2
        ;;
esac

echo "==> ci.sh ${1:-all}: all green"
