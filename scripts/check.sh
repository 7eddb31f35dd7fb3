#!/usr/bin/env bash
# Pre-PR gate: hcclint + perf-smoke + memory-budget + ruff + mypy + pytest.
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the tier-1 pytest stage: the lint/type gates, perf-smoke
#           and the memory-budget tests still run.  Every test runs once
#           per gate: the pytest stage leaves out tests/test_memory_budget.py,
#           which the memory-budget stage has just run.  The race detector,
#           the plane-parity, fault-recovery and chaos checks and the
#           instrumented-run smoke are tier-1 tests, so they run in the
#           pytest stage only (which CI always runs).
#
# ruff and mypy are part of the dev extra (pip install -e ".[dev]"); when
# they are not installed the stage is reported as SKIPPED rather than
# failing, so the gate still runs on minimal containers.  hcclint and
# pytest have no extra dependencies and always run.
#
# Stages are classified as "lint" (static analysis, style, types) or
# "test" (the benchmark smoke and the test suites), and the exit code says
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

# 2. perf-smoke: the repo benchmark (BENCHMARK.json, perf/README.md)
# at toy sizes — every workload, both passes, every metric emitted and
# every check green — plus the benchmark's own tests, so a change that
# breaks a front door the benchmark drives fails here, not in the
# driver.  ~25 s; nothing under perf/ is edited by this gate.
perf_smoke() {
    python3 -m perf run --scale smoke > /dev/null \
        && python -m pytest perf/tests -q
}
stage test "perf-smoke" perf_smoke

# 3. memory-budget: the epoch path's tracemalloc budgets and the
# bit-identity of the blocked residual, fused codec and merge_delta
# against their full-array references (docs/engine.md, "Memory on the
# epoch path").  A few seconds, so it also runs under --fast and a
# budget breach gets its own line in the table below rather than one
# dot among the tier-1 tests.
stage test "memory-budget" python -m pytest tests/test_memory_budget.py -q

# 4. ruff (style/pyflakes), if installed
if command -v ruff >/dev/null 2>&1; then
    stage lint "ruff" ruff check src tests
elif python -c "import ruff" >/dev/null 2>&1; then
    stage lint "ruff" python -m ruff check src tests
else
    skipped lint "ruff" "not installed; pip install -e '.[dev]'"
fi

# 5. mypy (types), if installed
if command -v mypy >/dev/null 2>&1; then
    stage lint "mypy" mypy
elif python -c "import mypy" >/dev/null 2>&1; then
    stage lint "mypy" python -m mypy
else
    skipped lint "mypy" "not installed; pip install -e '.[dev]'"
fi

# 6. tier-1 tests: every dynamic check runs here once — the race
# detector (tests/test_analysis_race.py), plane parity
# (tests/test_engine_pipeline.py, tests/test_engine_planes.py), kill
# recovery (tests/test_engine_recovery.py), the chaos matrix
# (tests/test_chaos_parity.py) and the instrumented-run smoke
# (tests/test_cli.py) — every tier-1 test but the memory-budget file,
# which stage 3 runs in both modes
if [ "$fast" -eq 1 ]; then
    skipped test "pytest" "--fast"
else
    stage test "pytest" python -m pytest -x -q --ignore=tests/test_memory_budget.py
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
