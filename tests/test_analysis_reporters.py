"""Tests for the reporter layer (text output) and suppression comments."""

import textwrap

from repro.analysis.lint import LintIssue, all_rules, lint_source
from repro.analysis.reporters import render_rules, render_text, summary_line


def make_issue(
    rule="frozen-dataclass",
    rule_id="HCC104",
    path="src/repro/x.py",
    line=10,
    col=4,
    message="dataclass FooPlan looks like shared plan/spec state",
):
    return LintIssue(
        rule=rule,
        rule_id=rule_id,
        path=path,
        line=line,
        col=col,
        message=message,
    )


# ---------------------------------------------------------------------------
# text renderer
# ---------------------------------------------------------------------------
class TestTextAndJson:
    def test_text_line_format(self):
        text = render_text([make_issue()])
        assert (
            "src/repro/x.py:10:4: HCC104 (frozen-dataclass): "
            "dataclass FooPlan looks like shared plan/spec state" in text
        )

    def test_summary_line_clean(self):
        assert summary_line([]) == "hcclint: clean (0 issues)"

    def test_summary_line_counts_issues(self):
        assert summary_line([make_issue()]) == "hcclint: 1 issue"
        assert summary_line([make_issue()] * 3) == "hcclint: 3 issues"

    def test_rules_catalogue_lists_flow_rules(self):
        catalogue = render_rules(all_rules())
        assert "HCC201 flow-resource-leak" in catalogue
        assert "HCC204 flow-stage-protocol" in catalogue
        for rule in all_rules():
            assert rule.rationale.split()[0] in catalogue


# ---------------------------------------------------------------------------
# suppression comments
# ---------------------------------------------------------------------------
def issues_for(source: str):
    return lint_source(textwrap.dedent(source), "scratch.py")


class TestSuppressionComments:
    SOURCE = """
        @dataclass
        class FooPlan:
            x: int = 0
    """

    def test_unsuppressed_fires(self):
        assert any(i.rule == "frozen-dataclass" for i in issues_for(self.SOURCE))

    def test_trailing_comment_suppresses_own_line(self):
        src = """
            @dataclass  # hcclint: disable=frozen-dataclass
            class FooPlan:
                x: int = 0
        """
        assert issues_for(src) == []

    def test_comment_line_suppresses_next_line(self):
        src = """
            # hcclint: disable=frozen-dataclass
            @dataclass
            class FooPlan:
                x: int = 0
        """
        assert issues_for(src) == []

    def test_rule_id_works_like_slug(self):
        src = """
            @dataclass  # hcclint: disable=HCC104
            class FooPlan:
                x: int = 0
        """
        assert issues_for(src) == []

    def test_unrelated_rule_does_not_suppress(self):
        src = """
            @dataclass  # hcclint: disable=hot-copy
            class FooPlan:
                x: int = 0
        """
        assert any(i.rule == "frozen-dataclass" for i in issues_for(src))

    def test_suppression_only_hits_its_line(self):
        src = """
            @dataclass  # hcclint: disable=frozen-dataclass
            class FooPlan:
                x: int = 0

            @dataclass
            class BarPlan:
                y: int = 0
        """
        issues = issues_for(src)
        assert len(issues) == 1
        assert issues[0].line == 6
