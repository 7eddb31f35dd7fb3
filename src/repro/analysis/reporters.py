"""Text output for ``repro lint``: findings, the summary line, the rule catalogue."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.lint import LintIssue, Rule


def render_text(issues: Sequence[LintIssue]) -> str:
    """``path:line:col: RULEID (slug): message`` lines + summary."""
    lines = [
        f"{i.path}:{i.line}:{i.col}: {i.rule_id} ({i.rule}): {i.message}"
        for i in issues
    ]
    lines.append(summary_line(issues))
    return "\n".join(lines)


def summary_line(issues: Sequence[LintIssue]) -> str:
    if not issues:
        return "hcclint: clean (0 issues)"
    n = len(issues)
    return f"hcclint: {n} issue{'s' if n != 1 else ''}"


def render_rules(rules: Sequence[Rule]) -> str:
    """Rule catalogue for ``repro lint --rules``."""
    return "\n".join(f"{r.rule_id} {r.name}\n    {r.rationale}" for r in rules)
