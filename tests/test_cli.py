"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "Netflix"
        assert args.partition == "auto"
        assert not args.fp16

    def test_bad_partition_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--partition", "dp9"])

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert not args.rules

    def test_race_check_defaults(self):
        args = build_parser().parse_args(["race-check"])
        assert args.workers == 3
        assert not args.inject_overlap


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Netflix" in out
        assert "99072112" in out

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "2080S" in out
        assert "UPI" in out

    def test_train_timing_only(self, capsys):
        assert main([
            "train", "--timing-only", "--epochs", "3", "--k", "128",
        ]) == 0
        out = capsys.readouterr().out
        assert "partition: dp1" in out
        assert "rmse" not in out

    def test_train_numeric_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main([
            "train", "--dataset", "netflix", "--nnz", "4000",
            "--epochs", "2", "--k", "8", "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "rmse:" in out
        assert json.loads(trace.read_text())["traceEvents"]

    def test_train_q_rotate(self, capsys):
        """Priced, not trained: numeric runs exit 2, --timing-only prices it."""
        argv = ["train", "--dataset", "MovieLens-20m", "--epochs", "2",
                "--k", "8", "--transmit", "q-rotate"]
        for executor in ("model", "process"):
            assert main([*argv, "--nnz", "4000", "--executor", executor]) == 2
            assert "timing plane only" in capsys.readouterr().err
        assert main([*argv, "--timing-only"]) == 0
        out = capsys.readouterr().out
        assert "modeled time:" in out and "rmse:" not in out

    def test_analyze_synthetic(self, capsys):
        assert main(["analyze", "--dataset", "R2", "--nnz", "4000"]) == 0
        out = capsys.readouterr().out
        assert "reuse" in out and "recommended" in out

    def test_analyze_file(self, capsys, tmp_path):
        from repro.data.datasets import NETFLIX
        from repro.data.io import save_text

        path = tmp_path / "r.txt"
        save_text(NETFLIX.scaled(2000).generate(seed=0), path)
        assert main(["analyze", "--file", str(path)]) == 0
        assert "Gini" in capsys.readouterr().out

    def test_autotune(self, capsys):
        assert main(["autotune", "--dataset", "MovieLens-20m"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "advice:" in out

    def test_autotune_no_rotation(self, capsys):
        assert main(["autotune", "--no-rotation"]) == 0
        assert "q-rotate" not in capsys.readouterr().out

    def test_reproduce_selected(self, capsys):
        assert main(["reproduce", "fig3b"]) == 0
        assert "[fig3b]" in capsys.readouterr().out

    def test_reproduce_unknown_id(self, capsys):
        assert main(["reproduce", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_ablate_selected(self, capsys):
        assert main(["ablate", "lambda"]) == 0
        assert "[ablate-lambda]" in capsys.readouterr().out

    def test_ablate_unknown_id(self, capsys):
        assert main(["ablate", "nope"]) == 2
        assert "unknown ablation" in capsys.readouterr().err

    def test_lint_src_is_clean(self, capsys):
        """Acceptance gate: the shipped tree lints clean under every rule
        of both tiers, with no flags."""
        assert main(["lint"]) == 0
        assert capsys.readouterr().out.strip() == "hcclint: clean (0 issues)"

    def test_lint_reports_violations(self, capsys, tmp_path):
        """Any finding fails the run — the wall-clock rule included: a
        span stamped with time.time() in the telemetry tree exits 1."""
        spans = tmp_path / "repro" / "obs" / "spans.py"
        spans.parent.mkdir(parents=True)
        source = open("src/repro/obs/spans.py", encoding="utf-8").read()
        spans.write_text(source.replace("start = self.clock()", "start = time.time()"))
        assert main(["lint", str(spans)]) == 1
        out = capsys.readouterr().out
        assert "HCC110" in out and "wall-clock" in out
        assert "hcclint: 1 issue" in out

    def test_lint_rule_catalogue(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "HCC101" in out and "shm-lifecycle" in out

    def test_lint_missing_path(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert capsys.readouterr().err

    def test_race_check(self, capsys):
        assert main(["race-check", "--workers", "2", "--nnz", "800",
                     "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "race-check: PASS" in out

    def test_race_check_inject_overlap(self, capsys):
        assert main(["race-check", "--workers", "2", "--nnz", "800",
                     "--epochs", "1", "--inject-overlap"]) == 0
        out = capsys.readouterr().out
        assert "injected overlap detected: yes" in out
        assert "race-check: PASS" in out


class TestObservabilityCli:
    def test_train_parser_telemetry_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.executor == "model"
        assert args.metrics is None
        assert not args.drift

    def test_obs_report_parser(self):
        args = build_parser().parse_args(["obs-report", "--trace", "t.json"])
        assert args.trace == "t.json"
        assert args.metrics is None

    def test_train_metrics_written(self, capsys, tmp_path):
        metrics = tmp_path / "m.jsonl"
        assert main([
            "train", "--nnz", "4000", "--epochs", "2", "--k", "8",
            "--metrics", str(metrics),
        ]) == 0
        assert "metric lines" in capsys.readouterr().out
        lines = [json.loads(line) for line in metrics.read_text().splitlines()]
        names = {rec.get("name") for rec in lines if rec["type"] == "sample"}
        assert "epoch_rmse" in names

    def test_train_drift_report(self, capsys):
        assert main([
            "train", "--nnz", "4000", "--epochs", "2", "--k", "8", "--drift",
        ]) == 0
        out = capsys.readouterr().out
        assert "cost-model drift report" in out
        assert "computing" in out

    def test_train_drift_requires_numeric_plane(self, capsys):
        assert main(["train", "--timing-only", "--drift"]) == 2
        assert "drift" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--metrics", "--hotpaths"])
    def test_train_timing_only_refuses_numeric_plane_files(
        self, flag, capsys, tmp_path
    ):
        out = tmp_path / "out"
        assert main(["train", "--timing-only", flag, str(out)]) == 2
        assert f"{flag}: needs the numeric plane" in capsys.readouterr().err
        assert not out.exists()

    def test_train_hotpaths_needs_the_process_executor(self, capsys, tmp_path):
        out = tmp_path / "hp.json"
        assert main(["train", "--nnz", "2000", "--hotpaths", str(out)]) == 2
        assert "--executor process" in capsys.readouterr().err
        assert not out.exists()

    def test_process_executor_rejects_timing_only(self, capsys):
        assert main(["train", "--executor", "process", "--timing-only"]) == 2
        assert capsys.readouterr().err

    def test_process_executor_full_telemetry(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        assert main([
            "train", "--executor", "process", "--workers", "2",
            "--nnz", "2000", "--epochs", "2", "--k", "8",
            "--trace", str(trace), "--metrics", str(metrics), "--drift",
        ]) == 0
        out = capsys.readouterr().out
        assert "rmse:" in out
        assert "cost-model drift report" in out
        events = json.loads(trace.read_text())["traceEvents"]
        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert lanes == {"worker-0", "worker-1", "server"}
        assert metrics.read_text().strip()

    def test_obs_report_requires_an_input(self, capsys):
        assert main(["obs-report"]) == 2
        assert capsys.readouterr().err

    def test_obs_report_renders_trace_and_metrics(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        assert main([
            "train", "--nnz", "4000", "--epochs", "2", "--k", "8",
            "--trace", str(trace), "--metrics", str(metrics),
        ]) == 0
        capsys.readouterr()
        assert main([
            "obs-report", "--trace", str(trace), "--metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "spans," in out  # "trace: ... (N spans, makespan ...)"
        assert "epoch_rmse" in out
        # the run's own memory figure, beside the stage breakdown
        assert "peak RSS" in out and " MB " in out
        assert "peak_rss_mb{}" in out

    def test_obs_report_missing_file(self, capsys, tmp_path):
        assert main(["obs-report", "--trace", str(tmp_path / "no.json")]) == 2
        assert capsys.readouterr().err

    def test_train_hotpaths_and_report(self, capsys, tmp_path):
        hotpaths = tmp_path / "hp.json"
        assert main([
            "train", "--executor", "process", "--nnz", "2000",
            "--epochs", "2", "--k", "8", "--hotpaths", str(hotpaths),
        ]) == 0
        assert f"wrote {hotpaths}" in capsys.readouterr().out
        assert main([
            "obs-report", "--hotpaths", str(hotpaths), "--top", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "hotpaths:" in out
        assert "attributed to engine stages" in out
        assert "compute" in out

    def test_obs_report_bad_hotpaths_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"other\"}")
        assert main(["obs-report", "--hotpaths", str(bad)]) == 2
        assert "cannot read hotpaths" in capsys.readouterr().err

    def test_fault_smoke_parser_defaults(self):
        args = build_parser().parse_args(["fault-smoke"])
        assert args.workers == 3
        assert args.epochs == 4
        assert args.tolerance == pytest.approx(0.05)
        assert args.barrier_timeout == pytest.approx(5.0)

    def test_fault_smoke_passes(self, capsys):
        assert main([
            "fault-smoke", "--nnz", "4000", "--epochs", "3", "--k", "8",
            "--workers", "2", "--barrier-timeout", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault-smoke: OK" in out
        assert "redistributions=1" in out

    def test_fault_smoke_needs_two_workers(self, capsys):
        assert main(["fault-smoke", "--workers", "1"]) == 2
        assert "at least 2 workers" in capsys.readouterr().err

    def test_chaos_parity_parser_defaults(self):
        args = build_parser().parse_args(["chaos-parity"])
        assert args.seed == 0
        assert args.process_scenarios == -1
        assert args.sim_scenarios == 8
        assert args.rmse_tol == pytest.approx(0.08)

    def test_chaos_parity_small_gate_passes(self, capsys):
        # one cross-plane scenario, the rest of the matrix sim-only,
        # plus a small randomized sweep — the check.sh stage's shape
        assert main([
            "chaos-parity", "--seed", "0",
            "--process-scenarios", "1", "--sim-scenarios", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario kill-soft" in out
        assert "(sim only)" in out
        assert "randomized sweep: 3/3 scenarios clean" in out
        assert "chaos-parity: OK" in out
