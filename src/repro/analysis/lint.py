"""hcclint: the lint framework (rule registry, suppression, runner).

A :class:`Rule` inspects one parsed file (:class:`FileContext`) and
yields :class:`LintIssue` records.  Rules register themselves with the
:func:`rule` decorator: the AST rules of :mod:`repro.analysis.rules`
(HCC1xx) and the flow-sensitive rules of :mod:`repro.analysis.flow`
(HCC2xx) share one registry, and the runner applies every registered
rule to every file.  Any finding fails ``repro lint``.

``# hcclint: disable=hot-copy`` suppresses the named rule(s) — by slug
or by id, comma-separated — on its own line, or on the line below when
the comment stands alone.  Suppression is deliberately explicit and
local: a disabled rule leaves a visible audit trail next to the code it
excuses, which is the point — the lint encodes paper invariants
(section 3.4/3.5, Eq. 1-7), and every exception should say why the
invariant still holds.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.analysis.hotpath import module_key


@dataclass(frozen=True)
class LintIssue:
    """One finding: where, which rule, and why."""

    rule: str
    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)


_SUPPRESS_RE = re.compile(r"#\s*hcclint:\s*disable\s*=\s*([A-Za-z0-9_\-, ]+)")


class FileContext:
    """One parsed source file plus everything rules need to scope checks."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.module = module_key(path)
        self._disabled: dict[int, set[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            m = _SUPPRESS_RE.search(text)
            if m:
                # a comment-only line suppresses the line below it (the
                # eslint-disable-next-line idiom); a trailing comment
                # suppresses its own line
                target = lineno + 1 if text.lstrip().startswith("#") else lineno
                self._disabled.setdefault(target, set()).update(
                    n.strip().lower() for n in m.group(1).split(",") if n.strip()
                )
        self._functions: list[ast.AST] | None = None

    def is_suppressed(self, issue: LintIssue) -> bool:
        names = self._disabled.get(issue.line, set())
        return issue.rule.lower() in names or issue.rule_id.lower() in names

    def iter_functions(self) -> Iterator[ast.AST]:
        """Every function/method definition in the file."""
        if self._functions is None:
            self._functions = [
                node
                for node in ast.walk(self.tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        return iter(self._functions)


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` (``HCCnnn``), ``name`` (the slug used in
    suppression comments) and ``rationale`` (the paper invariant the
    rule protects — surfaced by ``repro lint --rules``).
    """

    rule_id = "HCC000"
    name = "abstract-rule"
    rationale = ""

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:  # pragma: no cover
        raise NotImplementedError

    def issue(self, ctx: FileContext, node: ast.AST, message: str) -> LintIssue:
        return LintIssue(
            rule=self.name,
            rule_id=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def rule(cls: type) -> type:
    """Class decorator: instantiate and register a rule."""
    instance = cls()
    if any(r.rule_id == instance.rule_id for r in _REGISTRY.values()):
        raise ValueError(f"duplicate rule id {instance.rule_id}")
    _REGISTRY[instance.name] = instance
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, both tiers, importing them on first use."""
    import repro.analysis.flow  # noqa: F401  (registration side effect)
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return sorted(_REGISTRY.values(), key=lambda r: r.rule_id)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------
def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] | None = None,
) -> list[LintIssue]:
    """Lint one source string (`path` drives module-scoped rules)."""
    chosen = list(rules) if rules is not None else all_rules()
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return [
            LintIssue(
                rule="parse-error",
                rule_id="HCC000",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"could not parse file: {exc.msg}",
            )
        ]
    issues = [
        issue
        for r in chosen
        for issue in r.check(ctx)
        if not ctx.is_suppressed(issue)
    ]
    return sorted(issues, key=LintIssue.sort_key)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git", ".ruff_cache"}
                )
                for fname in sorted(files):
                    if fname.endswith(".py"):
                        yield os.path.join(root, fname)
        elif path.endswith(".py") or os.path.isfile(path):
            yield path
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def lint_paths(
    paths: Sequence[str], rules: Sequence[Rule] | None = None
) -> list[LintIssue]:
    """Lint every ``.py`` file under ``paths``; issues sorted by location."""
    issues: list[LintIssue] = []
    for fpath in iter_python_files(paths):
        with open(fpath, "r", encoding="utf-8") as fh:
            source = fh.read()
        issues.extend(lint_source(source, fpath, rules))
    return sorted(issues, key=LintIssue.sort_key)
