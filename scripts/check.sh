#!/usr/bin/env bash
# Pre-PR gate: hcclint + dynamic checks + ruff + mypy + pytest.
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the tier-1 pytest stage (lint/type gates, the smoke
#           stages and the memory-budget tests still run)
#
# ruff and mypy are part of the dev extra (pip install -e ".[dev]"); when
# they are not installed the stage is reported as SKIPPED rather than
# failing, so the gate still runs on minimal containers.  hcclint and
# pytest have no extra dependencies and always run.
#
# Stages are classified as "lint" (static analysis, style, types) or
# "test" (dynamic checks and the tier-1 suite), and the exit code says
# which side broke:
#   0  everything passed
#   2  lint-stage failure(s) only
#   3  test-stage failure(s) only
#   4  both lint- and test-stage failures

set -u
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

lint_failures=0
test_failures=0
stage_names=()
stage_kinds=()
stage_results=()
stage_times=()

record() {  # record <name> <kind> <result> <seconds>
    stage_names+=("$1")
    stage_kinds+=("$2")
    stage_results+=("$3")
    stage_times+=("$4")
}

stage() {  # stage <lint|test> <name> <command...>
    local kind="$1" name="$2"; shift 2
    echo "== $name =="
    local start end rc
    start=$SECONDS
    "$@"
    rc=$?
    end=$SECONDS
    if [ "$rc" -eq 0 ]; then
        echo "-- $name: OK"
        record "$name" "$kind" "OK" "$((end - start))"
    else
        echo "-- $name: FAILED (exit $rc)"
        record "$name" "$kind" "FAILED" "$((end - start))"
        if [ "$kind" = "lint" ]; then
            lint_failures=$((lint_failures + 1))
        else
            test_failures=$((test_failures + 1))
        fi
    fi
    echo
}

skipped() {  # skipped <lint|test> <name> <reason>
    echo "== $2 =="
    echo "-- $2: SKIPPED ($3)"
    echo
    record "$2" "$1" "SKIPPED" 0
}

# 1. hcclint: every domain rule, the AST tier and the flow-sensitive
# HCC2xx tier (docs/static_analysis.md); any finding fails the stage
stage lint "hcclint" python -m repro lint src

# 2. race-check: dynamic P-row ownership + one-copy discipline proof
stage test "race-check" python -m repro race-check --inject-overlap

# 2b. instrumented-run smoke: a tiny real training must produce a
# loadable Chrome trace (the telemetry plane's end-to-end guarantee)
obs_smoke() {
    local tmpdir trace metrics
    tmpdir="$(mktemp -d)" || return 1
    trace="$tmpdir/run.json"
    metrics="$tmpdir/run.jsonl"
    python -m repro train --nnz 2000 --epochs 2 --k 8 \
        --trace "$trace" --metrics "$metrics" \
        && python -m repro obs-report --trace "$trace" --metrics "$metrics" \
            > /dev/null
    local rc=$?
    rm -rf "$tmpdir"
    return "$rc"
}
stage test "obs-smoke" obs_smoke

# 2c. engine-parity: the sim and process planes must execute the same
# stage sequence with the same per-epoch update counts (docs/engine.md)
# — on the Netflix shape, where every shard rates every column, and on
# the R1 shape, where each rates a fifth of them and its wire is that
# column set (core.server.column_set)
engine_parity() {
    python -m repro engine-parity --nnz 4000 --epochs 2 --k 8 --workers 2 \
        && python -m repro engine-parity --dataset R1 --nnz 4000 --epochs 2 --k 8 --workers 2
}
stage test "engine-parity" engine_parity

# 2d. fault-smoke: kill a worker mid-run; recovery must redistribute its
# shard and converge within tolerance of the fault-free baseline
# (docs/resilience.md) — again on both shapes: on R1 the re-open
# derives the survivors' column sets from their new shards
fault_smoke() {
    python -m repro fault-smoke --nnz 4000 --epochs 4 --k 8 --workers 3 --barrier-timeout 5 \
        && python -m repro fault-smoke --dataset R1 --nnz 4000 --epochs 4 --k 8 --workers 3 --barrier-timeout 5
}
stage test "fault-smoke" fault_smoke

# 2e. chaos-parity: a small seeded fault matrix through both planes —
# one scenario cross-plane, the rest sim-only invariants — plus a
# randomized sim-only sweep (docs/resilience.md)
stage test "chaos-parity" python -m repro chaos-parity \
    --seed 0 --process-scenarios 1 --sim-scenarios 8

# 2f. perf-smoke: the repo benchmark (BENCHMARK.json, perf/README.md)
# at toy sizes — every workload, both passes, every metric emitted and
# every check green — plus the benchmark's own tests, so a change that
# breaks a front door the benchmark drives fails here, not in the
# driver.  ~25 s; nothing under perf/ is edited by this gate.
perf_smoke() {
    python3 -m perf run --scale smoke > /dev/null \
        && python -m pytest perf/tests -q
}
stage test "perf-smoke" perf_smoke

# 2g. memory-budget: the epoch path's tracemalloc budgets and the
# bit-identity of the blocked residual, fused codec and merge_delta
# against their full-array references (docs/engine.md, "Memory on the
# epoch path").  A few seconds, so it also runs under --fast and a
# budget breach gets its own line in the table below rather than one
# dot among the tier-1 tests.
stage test "memory-budget" python -m pytest tests/test_memory_budget.py -q

# 3. ruff (style/pyflakes), if installed
if command -v ruff >/dev/null 2>&1; then
    stage lint "ruff" ruff check src tests
elif python -c "import ruff" >/dev/null 2>&1; then
    stage lint "ruff" python -m ruff check src tests
else
    skipped lint "ruff" "not installed; pip install -e '.[dev]'"
fi

# 4. mypy (types), if installed
if command -v mypy >/dev/null 2>&1; then
    stage lint "mypy" mypy
elif python -c "import mypy" >/dev/null 2>&1; then
    stage lint "mypy" python -m mypy
else
    skipped lint "mypy" "not installed; pip install -e '.[dev]'"
fi

# 5. tier-1 tests
if [ "$fast" -eq 1 ]; then
    skipped test "pytest" "--fast"
else
    stage test "pytest" python -m pytest -x -q
fi

# ---------------------------------------------------------------------------
# per-stage summary table
echo "== summary =="
printf '%-14s %-5s %-7s %s\n' "stage" "kind" "result" "time"
printf '%-14s %-5s %-7s %s\n' "-----" "----" "------" "----"
for i in "${!stage_names[@]}"; do
    printf '%-14s %-5s %-7s %ss\n' \
        "${stage_names[$i]}" "${stage_kinds[$i]}" \
        "${stage_results[$i]}" "${stage_times[$i]}"
done
echo

if [ "$lint_failures" -gt 0 ] && [ "$test_failures" -gt 0 ]; then
    echo "check.sh: $lint_failures lint stage(s) and $test_failures test stage(s) FAILED"
    exit 4
elif [ "$test_failures" -gt 0 ]; then
    echo "check.sh: $test_failures test stage(s) FAILED"
    exit 3
elif [ "$lint_failures" -gt 0 ]; then
    echo "check.sh: $lint_failures lint stage(s) FAILED"
    exit 2
fi
echo "check.sh: all stages passed"
