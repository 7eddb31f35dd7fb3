"""Benchmark self-tests: ``python -m pytest perf/tests -q`` (not tier-1)."""

from __future__ import annotations

import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from perf import runner, serve, workloads
from perf.spans import SpanLog
from perf.stats import interpolate_crossing, pair_half_median

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- estimators --------------------------------------------------------------
def test_pair_median_cancels_two_mode_alternation():
    # sizing fact 1: steady epochs alternate 485/816 ms; a plain median
    # over an odd count lands on one mode, the pair estimator on the mean
    series = [9.0, 9.0] + [0.485, 0.816] * 6
    assert pair_half_median(series) == pytest.approx((0.485 + 0.816) / 2)
    # starting on the other mode changes nothing
    assert pair_half_median([9.0, 9.0, 0.816] + [0.485, 0.816] * 6) == pytest.approx(0.6505)
    # one disturbed pair does not move the median of pairs
    disturbed = series[:]
    disturbed[6] = 5.0
    assert pair_half_median(disturbed) == pytest.approx(0.6505)


def test_pair_median_skips_warmup_and_survives_short_series():
    assert pair_half_median([100.0, 100.0, 1.0, 3.0]) == 2.0
    assert pair_half_median([5.0, 7.0], skip=2) == 6.0   # nothing steady: plain median


def test_crossing_is_interpolated_in_time():
    times, rmse = [1.0, 2.0, 3.0, 4.0], [0.9, 0.8, 0.7, 0.6]
    assert interpolate_crossing(times, rmse, 0.75) == pytest.approx(2.5)
    assert interpolate_crossing(times, rmse, 0.8) == pytest.approx(2.0)
    assert interpolate_crossing(times, rmse, 0.95) == 1.0     # reached before any bracket
    assert interpolate_crossing(times, rmse, 0.5) is None     # never reached
    # uneven epoch lengths: a quarter of the way through a 4 s epoch
    assert interpolate_crossing([1.0, 5.0], [1.0, 0.6], 0.9) == pytest.approx(2.0)


def test_span_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    log = SpanLog(clock=lambda: next(ticks))
    with log.span("parent") as parent:
        with log.span("child", parent):
            pass
    assert log.self_times() == {0: 7.0, 1: 3.0}


# -- oracle ------------------------------------------------------------------
def _reply_for(P, Q, users, k):
    expected = serve.oracle_top_k(P, Q, users, k, None, None)
    return SimpleNamespace(version=1, items=[i for i, _ in expected],
                           scores=[s for _, s in expected])


def test_oracle_mismatch_is_counted_as_a_failure():
    rng = np.random.default_rng(0)
    P = rng.standard_normal((20, 4)).astype(np.float32)
    Q = rng.standard_normal((4, 30)).astype(np.float32)
    requests = serve.make_requests(20, 3, seed=1, count=8)
    good = _reply_for(P, Q, requests[0], 5)
    bad = _reply_for(P, Q, requests[1], 5)
    bad.items[0] = bad.items[0][::-1].copy()     # same items, wrong order
    window = serve.Window(samples=[(0, good), (1, bad)])
    checked, mismatches = serve.check_samples(
        [window], lambda version: (P, Q), requests, 5, None, None)
    assert (checked, mismatches) == (2, 1)


def test_oracle_catches_a_torn_factor_pair():
    rng = np.random.default_rng(1)
    P1, P2 = (rng.standard_normal((10, 3)).astype(np.float32) for _ in range(2))
    Q1 = rng.standard_normal((3, 12)).astype(np.float32)
    requests = serve.make_requests(10, 2, seed=2, count=4)
    torn = _reply_for(P2, Q1, requests[0], 4)    # P of one version, Q of another
    window = serve.Window(samples=[(0, torn)])
    _, mismatches = serve.check_samples(
        [window], lambda version: (P1, Q1), requests, 4, None, None)
    assert mismatches == 1


def test_versions_must_never_go_backwards():
    assert serve.versions_monotone([serve.Window(versions=[1, 1, 2]),
                                    serve.Window(versions=[2, 3])])
    assert not serve.versions_monotone([serve.Window(versions=[2, 1])])


# -- contract ----------------------------------------------------------------
def test_benchmark_json_is_within_the_driver_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert contract["paths"] == ["perf"]
    assert contract["run_seconds"] == workloads.WORKLOADS["proc_tall_compute"].seconds


def test_bounds_are_the_issues_and_are_never_widened(contract):
    # a headline metric is either end-to-end at the issue's bound or
    # demoted to per_layer; setup_s alone may not be demoted (the driver
    # contract requires it) and takes the contract's largest bound
    issue = {"rmse_final": 0.005, "peak_rss_mb": 0.05}
    headline = ["setup_s", "time_to_rmse_s", "epoch_s_p50", "rmse_final",
                "publish_s_p50", "serve_latency_ms_p50", "serve_latency_ms_p90",
                "serve_qps", "peak_rss_mb"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    layer = {m["name"] for m in contract["per_layer"]}
    assert set(bounds) <= set(headline)
    for name in headline:
        if name == "setup_s":
            assert bounds[name] == 0.25
        elif name in bounds:
            assert bounds[name] == issue.get(name, runner.DEMOTION_SPREAD)
        else:
            assert name in layer


def test_runner_refuses_an_oversubscribed_host(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with pytest.raises(runner.BenchmarkError, match="nproc=1"):
        runner.run_pass("proc_tall_compute", 0, None, 0, "smoke")


# -- smoke: every named metric, with its unit, on all four workloads ---------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_scale_emits_every_named_metric(name, contract, capsys):
    # traced first: it generates (and caches) the input the e2e pass loads
    for trace, key in ((1, "per_layer"), (0, "end_to_end")):
        doc, measured = runner.run_pass(
            name, seed=3, seconds=None, trace=trace, scale="smoke")
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in contract[key]}
        assert {n: e["unit"] for n, e in doc["metrics"].items()} == declared
        assert all(np.isfinite(e["value"]) for e in doc["metrics"].values())
        if not trace:
            # the end-to-end pass measures every headline metric, wherever
            # BENCHMARK.json lists it
            assert {"time_to_rmse_s", "epoch_s_p50", "publish_s_p50", "serve_qps",
                    "serve_latency_ms_p50", "serve_latency_ms_p90"} <= set(measured)
    out = capsys.readouterr().out
    assert "serve_qps" in out and "share.kernel" in out
    spans = os.path.join(ROOT, "perf", "out", f"{name}-s3-t1-smoke", "spans.jsonl")
    with open(spans) as fh:
        rows = [json.loads(line) for line in fh]
    assert {"name", "start", "end", "parent", "trace_id", "self"} <= set(rows[0])
    assert any(r["trace_id"] == "epoch-0" for r in rows)
