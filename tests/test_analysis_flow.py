"""Tests for the flow-sensitive HCC2xx rules and function summaries."""

import ast
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.flow import (
    module_summaries,
    summarize_function,
)
from repro.analysis.lint import all_rules, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "data" / "flow_corpus"
EXPECT_RE = re.compile(r"#\s*expect:\s*(HCC\d+)")


def flow_rules():
    """The HCC2xx tier: the rules the corpus below is annotated for."""
    return [r for r in all_rules() if r.rule_id.startswith("HCC2")]


def flow_issues(source: str, path: str = "corpus.py"):
    return lint_source(textwrap.dedent(source), path, rules=flow_rules())


# ---------------------------------------------------------------------------
# the seeded corpus: every annotated violation flagged, nothing else
# ---------------------------------------------------------------------------
def corpus_files():
    files = sorted(CORPUS.rglob("*.py"))
    assert files, f"flow corpus missing at {CORPUS}"
    return files


@pytest.mark.parametrize(
    "fpath", corpus_files(), ids=lambda p: str(p.relative_to(CORPUS))
)
def test_corpus_findings_match_annotations(fpath):
    source = fpath.read_text(encoding="utf-8")
    expected = {
        (lineno, m.group(1))
        for lineno, line in enumerate(source.splitlines(), start=1)
        for m in [EXPECT_RE.search(line)]
        if m
    }
    issues = lint_source(source, str(fpath), rules=flow_rules())
    actual = {(i.line, i.rule_id) for i in issues}
    missing = expected - actual
    unexpected = actual - expected
    assert not missing, f"{fpath.name}: expected findings not reported: {missing}"
    assert not unexpected, f"{fpath.name}: unexpected findings: {unexpected}"


def test_corpus_covers_every_flow_rule():
    expected_ids = set()
    for fpath in corpus_files():
        expected_ids |= set(EXPECT_RE.findall(fpath.read_text(encoding="utf-8")))
    assert expected_ids == {r.rule_id for r in flow_rules()}


def test_src_tree_is_clean_under_flow_rules():
    issues = lint_paths([str(REPO_ROOT / "src")], rules=flow_rules())
    rendered = [f"{i.path}:{i.line} {i.rule_id}: {i.message}" for i in issues]
    assert rendered == []


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistryAndFiltering:
    def test_flow_registry_ids(self):
        assert [r.rule_id for r in flow_rules()] == [
            "HCC201",
            "HCC202",
            "HCC203",
            "HCC204",
        ]


# ---------------------------------------------------------------------------
# targeted behaviours beyond the corpus
# ---------------------------------------------------------------------------
class TestResourceLeakRule:
    def test_suppression_comment_applies(self):
        issues = flow_issues(
            """
            from multiprocessing import shared_memory

            def intentional(nbytes):  # a justified exception
                shm = shared_memory.SharedMemory(create=True, size=nbytes)  # hcclint: disable=flow-resource-leak
                return shm.name
            """
        )
        assert issues == []

    def test_passing_to_unknown_callee_is_lenient(self):
        issues = flow_issues(
            """
            from multiprocessing import shared_memory

            def hands_off(nbytes, registry):
                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                registry.adopt(shm)
            """
        )
        assert issues == []

    def test_clean_module_helper_keeps_tracking(self):
        issues = flow_issues(
            """
            from multiprocessing import shared_memory

            def _log(shm):
                print(shm.name)

            def still_leaks(nbytes):
                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                _log(shm)
            """
        )
        assert [i.rule_id for i in issues] == ["HCC201"]


class TestExceptionSafetyRule:
    def test_out_of_scope_module_is_ignored(self):
        issues = flow_issues(
            """
            def merge_then_validate(self, payloads):
                self.model.Q += payloads[0]
                if not self.ok(payloads):
                    raise ValueError("torn payload")
            """,
            path="src/repro/core/server.py",
        )
        assert issues == []

    def test_resilience_scope_is_checked(self):
        issues = flow_issues(
            """
            def merge_then_validate(self, payloads):
                self.model.Q += payloads[0]
                if not self.ok(payloads):
                    raise ValueError("torn payload")
            """,
            path="src/repro/resilience/recovery.py",
        )
        assert [i.rule_id for i in issues] == ["HCC202"]


class TestStageProtocolRule:
    def test_violation_names_the_transition(self):
        issues = flow_issues(
            """
            def bad(backend, epoch):
                backend.pull(epoch)
                backend.push(epoch)
            """
        )
        assert len(issues) == 1
        assert "push()" in issues[0].message
        assert "pulled" in issues[0].message and "computed" in issues[0].message

    def test_may_states_suppress_false_alarms(self):
        # after the if, the backend may be pulled OR computed; compute is
        # legal from pulled, so no *definite* violation exists
        issues = flow_issues(
            """
            def ambiguous(backend, epoch, flag):
                backend.pull(epoch)
                if flag:
                    backend.compute(epoch)
                backend.compute(epoch)
            """
        )
        assert issues == []


# ---------------------------------------------------------------------------
# function summaries
# ---------------------------------------------------------------------------
class TestSummaries:
    def summarize(self, src):
        tree = ast.parse(textwrap.dedent(src))
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef))
        return summarize_function(fn)

    def test_closes_param(self):
        summary = self.summarize(
            """
            def _teardown(shm):
                shm.close()
                shm.unlink()
            """
        )
        assert summary.effects["shm"].closes

    def test_stores_param(self):
        summary = self.summarize(
            """
            def _adopt(self, shm):
                self._segments.append(shm)
            """
        )
        assert summary.effects["shm"].stores
        assert not summary.effects["shm"].closes

    def test_returns_param(self):
        summary = self.summarize(
            """
            def _wrap(shm, spec):
                return (shm, spec)
            """
        )
        assert summary.effects["shm"].returns

    def test_returns_float64(self):
        summary = self.summarize(
            """
            def _rates(n):
                import numpy as np
                return np.zeros(n, dtype=np.float64)
            """
        )
        assert summary.returns_float64

    def test_module_summaries_cover_toplevel_functions(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def a(x):
                    return x

                def b(y):
                    y.close()
                """
            )
        )
        summaries = module_summaries(tree)
        assert set(summaries) == {"a", "b"}
        assert summaries["b"].effects["y"].closes
