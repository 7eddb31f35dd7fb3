"""Flow-sensitive lint checkers (the HCC2xx rules) and their dataflow core.

Built on :mod:`repro.analysis.cfg`, this module provides:

* a generic forward **worklist fixpoint** (:func:`run_analysis`) over a
  user-supplied :class:`FlowAnalysis` (transfer / join / exception-edge
  hook), i.e. a small abstract interpreter over per-variable lattices;
* **reaching definitions** (:func:`reaching_definitions`) as the
  classic instance of the framework;
* lightweight **intraprocedural function summaries**
  (:func:`summarize_function` / :func:`module_summaries`) so helpers
  like a module-local ``_cleanup(shm)`` participate in the analysis
  without full interprocedural dataflow;
* the four flow-sensitive rules:

  ======= ==================== =========================================
  id      slug                 invariant
  ======= ==================== =========================================
  HCC201  flow-resource-leak   every SharedMemory / span-ring /
                               tmp-checkpoint acquisition reaches
                               close/unlink/os.replace on all normal
                               *and* exception paths
  HCC202  flow-exception-safety in engine/resilience code, no path may
                               raise after mutating P/Q or opening a
                               backend attempt without passing through
                               rollback / snapshot-restore / close
  HCC203  flow-dtype-taint     float64 taint must not flow through
                               assignments/calls into FP32 kernel
                               arguments
  HCC204  flow-stage-protocol  calls on ComputeBackend objects must
                               follow open→(pull→compute→push→sync)*
                               →finalize→close
  ======= ==================== =========================================

They register with the AST rules of :mod:`repro.analysis.rules` in one
registry, so every ``repro lint`` run applies both tiers.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.analysis.cfg import (
    CFG,
    EDGE_EXC,
    Block,
    build_cfg,
    stmt_atoms,
)
from repro.analysis.hotpath import is_exception_safety_module
from repro.analysis.lint import FileContext, LintIssue, Rule, rule

__all__ = [
    "FlowAnalysis",
    "run_analysis",
    "reaching_definitions",
    "assigned_names",
    "ParamEffects",
    "FunctionSummary",
    "summarize_function",
    "module_summaries",
]


# ---------------------------------------------------------------------------
# small AST helpers
# ---------------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """``self.backend.close`` -> ``"self.backend.close"`` (or ``""``)."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return ""
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _call_tail(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return ""


def _calls_in(stmt: ast.stmt) -> list[ast.Call]:
    return [n for n in stmt_atoms(stmt) if isinstance(n, ast.Call)]


def _load_names_in(expr: ast.AST) -> set[str]:
    return {
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def assigned_names(stmt: ast.stmt) -> set[str]:
    """Plain variable names this statement atom (re)binds."""
    names: set[str] = set()
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names |= {
                    elt.id for elt in target.elts if isinstance(elt, ast.Name)
                }
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        if isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt.target, (ast.Tuple, ast.List)):
            names |= {
                elt.id for elt in stmt.target.elts if isinstance(elt, ast.Name)
            }
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if isinstance(item.optional_vars, ast.Name):
                names.add(item.optional_vars.id)
    for atom in stmt_atoms(stmt):
        if isinstance(atom, ast.NamedExpr) and isinstance(atom.target, ast.Name):
            names.add(atom.target.id)
    return names


# ---------------------------------------------------------------------------
# the dataflow engine
# ---------------------------------------------------------------------------
class FlowAnalysis:
    """A forward dataflow problem: override the four hooks below.

    States must be immutable values with structural equality (tuples,
    frozensets, dicts of frozensets compared by ``==``) — the engine
    re-runs ``transfer`` freely, so it must be pure.
    """

    def initial(self, cfg: CFG) -> Any:
        return {}

    def join(self, a: Any, b: Any) -> Any:  # pragma: no cover - interface
        raise NotImplementedError

    def transfer(self, stmt: ast.stmt, state: Any) -> Any:  # pragma: no cover
        raise NotImplementedError

    def exc_state(self, stmt: ast.stmt, pre: Any, post: Any) -> Any:
        """State flowing along the exception edge (default: pre-state,
        i.e. the statement may raise before any of its effects land)."""
        return pre


def run_analysis(cfg: CFG, analysis: FlowAnalysis) -> dict[Block, Any]:
    """Worklist fixpoint; returns the *in*-state of every reached block."""
    in_states: dict[Block, Any] = {cfg.entry: analysis.initial(cfg)}
    worklist: deque[Block] = deque([cfg.entry])
    queued = {cfg.entry}
    while worklist:
        block = worklist.popleft()
        queued.discard(block)
        pre = in_states[block]
        stmt = block.stmt
        if stmt is None:
            post = exc = pre
        else:
            post = analysis.transfer(stmt, pre)
            exc = analysis.exc_state(stmt, pre, post)
        for succ, kind in block.succs:
            out = exc if kind == EDGE_EXC else post
            old = in_states.get(succ)
            new = out if old is None else analysis.join(old, out)
            if old is None or new != old:
                in_states[succ] = new
                if succ not in queued:
                    queued.add(succ)
                    worklist.append(succ)
    return in_states


class _ReachingDefs(FlowAnalysis):
    """var -> frozenset of line numbers whose definitions may reach here."""

    def join(self, a, b):
        merged = dict(a)
        for var, lines in b.items():
            merged[var] = merged.get(var, frozenset()) | lines
        return merged

    def transfer(self, stmt, state):
        names = assigned_names(stmt)
        if not names:
            return state
        new = dict(state)
        for name in names:
            new[name] = frozenset({stmt.lineno})
        return new


def reaching_definitions(
    func: ast.FunctionDef | ast.AsyncFunctionDef | CFG,
) -> dict[Block, dict[str, frozenset[int]]]:
    """Reaching definitions for one function (or a prebuilt CFG)."""
    cfg = func if isinstance(func, CFG) else build_cfg(func)
    return run_analysis(cfg, _ReachingDefs())


# ---------------------------------------------------------------------------
# function summaries
# ---------------------------------------------------------------------------
_RELEASE_TAILS = frozenset({"close", "unlink", "shutdown", "terminate", "release"})
_SINK_TAILS = frozenset(
    {"append", "add", "register", "callback", "push", "enter_context", "setdefault"}
)


@dataclass(frozen=True)
class ParamEffects:
    """What a function does with one of its parameters."""

    closes: bool = False
    stores: bool = False
    returns: bool = False


@dataclass(frozen=True)
class FunctionSummary:
    """Flow-relevant facts about one function, by cheap syntactic scan."""

    name: str
    params: tuple[str, ...] = ()
    effects: Mapping[str, ParamEffects] = field(default_factory=dict)
    returns_float64: bool = False

    def effect_for_arg(self, index: int, keyword: str | None = None) -> ParamEffects:
        name = keyword if keyword is not None else (
            self.params[index] if index < len(self.params) else None
        )
        if name is None or name not in self.effects:
            # unknown parameter (e.g. *args): assume ownership transfer
            return ParamEffects(stores=True)
        return self.effects[name]


def summarize_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> FunctionSummary:
    """Summarise parameter lifecycle effects and float64-returning-ness."""
    params = tuple(
        a.arg
        for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
    )
    closes: set[str] = set()
    stores: set[str] = set()
    returns: set[str] = set()
    returns_f64 = False
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in _RELEASE_TAILS
                and func.value.id in params
            ):
                closes.add(func.value.id)
            if isinstance(func, ast.Attribute) and func.attr in _SINK_TAILS:
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in params:
                        stores.add(arg.id)
        elif isinstance(node, ast.Assign):
            stored_to = any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets
            )
            if stored_to:
                stores |= _load_names_in(node.value) & set(params)
        elif isinstance(node, ast.Return) and node.value is not None:
            returns |= _load_names_in(node.value) & set(params)
            if _expr_is_float64(node.value, {}, None):
                returns_f64 = True
    effects = {
        p: ParamEffects(closes=p in closes, stores=p in stores, returns=p in returns)
        for p in params
    }
    return FunctionSummary(
        name=fn.name, params=params, effects=effects, returns_float64=returns_f64
    )


def module_summaries(tree: ast.Module) -> dict[str, FunctionSummary]:
    """Summaries for every top-level function in a module."""
    return {
        node.name: summarize_function(node)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


# ---------------------------------------------------------------------------
# shared per-file caches + rule base
# ---------------------------------------------------------------------------
def _cfg_for(ctx: FileContext, fn: ast.AST) -> CFG:
    cache = ctx.__dict__.setdefault("_flow_cfg_cache", {})
    key = id(fn)
    if key not in cache:
        cache[key] = build_cfg(fn)
    return cache[key]


def _summaries_for(ctx: FileContext) -> dict[str, FunctionSummary]:
    cache = ctx.__dict__.get("_flow_summaries")
    if cache is None:
        cache = module_summaries(ctx.tree)
        ctx.__dict__["_flow_summaries"] = cache
    return cache


class _FlowRule(Rule):
    """Base: run a per-function CFG analysis, yield its findings."""

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not self.applies(ctx):
            return
        for fn in ctx.iter_functions():
            yield from self.check_function(ctx, fn, _cfg_for(ctx, fn))

    def check_function(
        self, ctx: FileContext, fn: ast.AST, cfg: CFG
    ) -> Iterator[LintIssue]:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class _Loc:
    """A bare source location usable as the ``node`` of an issue."""

    lineno: int
    col_offset: int = 0


# ---------------------------------------------------------------------------
# HCC201: resource lifecycle on every path
# ---------------------------------------------------------------------------
_SHM_ROOTS = frozenset({"SharedArray", "SpanRing"})
_PATH_MOVE_FUNCS = frozenset({"os.replace", "os.rename", "shutil.move"})


def _classify_acquisition(value: ast.expr) -> str | None:
    """Is this expression a tracked resource acquisition? Returns a kind."""
    if not isinstance(value, ast.Call):
        return None
    tail = _call_tail(value)
    if tail == "SharedMemory":
        return "shared-memory segment"
    if tail in {"create", "attach"} and isinstance(value.func, ast.Attribute):
        parts = dotted_name(value.func).split(".")
        if _SHM_ROOTS & set(parts):
            return "shared segment"
    if isinstance(value.func, ast.Name) and value.func.id == "open":
        return "file handle"
    if tail in {"with_name", "with_suffix"}:
        for sub in ast.walk(value):
            if (
                isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and ".tmp" in sub.value
            ):
                return "tmp checkpoint path"
    return None


class _ResourceState:
    """Per-statement effect computation shared by transfer and reporting."""

    def __init__(self, summaries: Mapping[str, FunctionSummary]):
        self.summaries = summaries

    def effects(
        self, stmt: ast.stmt, state: Mapping[str, tuple[str, int]]
    ) -> tuple[dict[str, tuple[str, int]], set[str], list[tuple[str, tuple[str, int]]]]:
        """-> (post_state, acquired_vars, rebind_leaks)."""
        released: set[str] = set()
        escaped: set[str] = set()
        consumed_arg_nodes: set[int] = set()

        for call in _calls_in(stmt):
            func = call.func
            # v.close() / v.unlink() / ...
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in _RELEASE_TAILS
                and func.value.id in state
            ):
                released.add(func.value.id)
            # os.replace(v, dst) and friends consume a tmp path
            if dotted_name(func) in _PATH_MOVE_FUNCS and call.args:
                first = call.args[0]
                if isinstance(first, ast.Name) and first.id in state:
                    released.add(first.id)
                    consumed_arg_nodes.add(id(first))
            arg_items: list[tuple[int, str | None, ast.expr]] = [
                (i, None, a) for i, a in enumerate(call.args)
            ] + [(-1, kw.arg, kw.value) for kw in call.keywords]
            for index, keyword, arg in arg_items:
                # handing off a bound release method (stack.callback(v.unlink))
                if (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.attr in _RELEASE_TAILS
                    and arg.value.id in state
                ):
                    released.add(arg.value.id)
                if not (isinstance(arg, ast.Name) and arg.id in state):
                    continue
                consumed_arg_nodes.add(id(arg))
                kind = state[arg.id][0]
                if kind == "tmp checkpoint path" and (
                    isinstance(func, ast.Name) and func.id == "open"
                ):
                    continue  # open(tmp_path) reads the path, no ownership
                summary = (
                    self.summaries.get(func.id)
                    if isinstance(func, ast.Name)
                    else None
                )
                if summary is None:
                    escaped.add(arg.id)  # unknown callee: assume transfer
                    continue
                effect = summary.effect_for_arg(index, keyword)
                if effect.closes:
                    released.add(arg.id)
                elif effect.stores or effect.returns:
                    escaped.add(arg.id)
                # a clean helper leaves the resource open in the caller

        # returning / yielding / storing / aliasing / deleting escapes
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            escaped |= _load_names_in(stmt.value) & set(state)
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            escaped |= _load_names_in(stmt.value) & set(state)
        if isinstance(stmt, ast.Delete):
            escaped |= {
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            } & set(state)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                escaped |= {
                    n.id
                    for n in ast.walk(item.context_expr)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)
                    and n.id in state
                    and id(n) not in consumed_arg_nodes
                }
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and getattr(
            stmt, "value", None
        ) is not None:
            direct_uses = {
                n.id
                for n in ast.walk(stmt.value)
                if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)
                and n.id in state
                and id(n) not in consumed_arg_nodes
            }
            escaped |= direct_uses

        post = {
            v: info
            for v, info in state.items()
            if v not in released and v not in escaped
        }

        # (re)bindings: acquisitions start tracking, other binds drop it
        acquired: set[str] = set()
        leaks: list[tuple[str, tuple[str, int]]] = []
        bound = assigned_names(stmt)
        acq_var: str | None = None
        acq_kind: str | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            acq_kind = _classify_acquisition(stmt.value)
            if acq_kind is not None:
                acq_var = stmt.targets[0].id
        for name in bound:
            if name in post:  # rebound while still open: the old value leaks
                leaks.append((name, post[name]))
                del post[name]
        if acq_var is not None:
            post[acq_var] = (acq_kind, stmt.lineno)
            acquired.add(acq_var)
        return post, acquired, leaks


class _ResourceAnalysis(FlowAnalysis):
    def __init__(self, helper: _ResourceState):
        self.helper = helper

    def join(self, a, b):  # may-be-open: union keeps every leaky path
        merged = dict(a)
        merged.update({v: info for v, info in b.items() if v not in merged})
        return merged

    def transfer(self, stmt, state):
        post, _, _ = self.helper.effects(stmt, state)
        return post

    def exc_state(self, stmt, pre, post):
        # if the statement itself raises, its acquisition never happened,
        # but its releases are still treated as done (cleanup carve-out)
        post2, acquired, _ = self.helper.effects(stmt, pre)
        return {v: info for v, info in post2.items() if v not in acquired}


@rule
class FlowResourceLeakRule(_FlowRule):
    """HCC201: acquisitions must be released on every path.

    Path-aware upgrade of HCC101: instead of "a guarded cleanup exists
    somewhere", the CFG must show the segment closed/unlinked (or its
    tmp path replaced) on the normal exit *and* on every exception exit.
    """

    rule_id = "HCC201"
    name = "flow-resource-leak"
    rationale = (
        "A SharedMemory segment that misses close/unlink on any path leaks "
        "kernel memory until reboot (paper 3.3's one-copy buffers are "
        "process-lifetime resources); a tmp checkpoint that misses "
        "os.replace/unlink breaks crash-atomicity."
    )

    def check_function(self, ctx, fn, cfg):
        helper = _ResourceState(_summaries_for(ctx))
        analysis = _ResourceAnalysis(helper)
        states = run_analysis(cfg, analysis)

        # leaks at exits, grouped per acquisition site
        leak_paths: dict[tuple[str, str, int], set[str]] = {}
        for exit_block, path_kind in (
            (cfg.exit, "a normal path"),
            (cfg.raise_exit, "an exception path"),
        ):
            for var, (kind, line) in states.get(exit_block, {}).items():
                leak_paths.setdefault((var, kind, line), set()).add(path_kind)
        for (var, kind, line), kinds in sorted(leak_paths.items()):
            where = (
                "normal and exception paths"
                if len(kinds) > 1
                else next(iter(kinds))
            )
            yield self.issue(
                ctx,
                _Loc(line),
                f"{kind} {var!r} acquired here may still be open on {where} "
                "out of the function — release it (close/unlink/os.replace) "
                "on every path, e.g. in a finally block",
            )

        # rebinding an open resource loses the only reference to it
        seen_rebinds: set[tuple[int, str]] = set()
        for block in cfg.blocks:
            stmt = block.stmt
            if stmt is None or block not in states:
                continue
            _, _, leaks = helper.effects(stmt, states[block])
            for var, (kind, line) in leaks:
                key = (stmt.lineno, var)
                if key in seen_rebinds:
                    continue
                seen_rebinds.add(key)
                yield self.issue(
                    ctx,
                    stmt,
                    f"{var!r} is rebound while the {kind} acquired at line "
                    f"{line} may still be open — release the old one first",
                )


# ---------------------------------------------------------------------------
# HCC202: exception safety in engine/resilience code
# ---------------------------------------------------------------------------
_PQ_ATTRS = frozenset({"P", "Q"})
_SNAPSHOT_HINTS = ("snapshot", "backup", "base", "init", "saved")


def _pq_attr(node: ast.expr) -> ast.Attribute | None:
    """The ``<...>.P`` / ``<...>.Q`` attribute inside a write target."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _PQ_ATTRS:
        return node
    return None


def _looks_like_snapshot(expr: ast.expr) -> bool:
    names = " ".join(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(expr)
        if isinstance(n, (ast.Name, ast.Attribute))
    ).lower()
    return any(hint in names for hint in _SNAPSHOT_HINTS)


class _ExcSafetyAnalysis(FlowAnalysis):
    """State: (pq mutations in flight, open attempts), both frozensets."""

    def initial(self, cfg):
        return (frozenset(), frozenset())

    def join(self, a, b):
        return (a[0] | b[0], a[1] | b[1])

    def transfer(self, stmt, state):
        pq, attempts = state

        # P/Q mutations and restores
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if _pq_attr(target) is not None:
                    pq = pq | {stmt.lineno}
        for call in _calls_in(stmt):
            tail = _call_tail(call)
            if tail == "copyto" and len(call.args) >= 2:
                dst, src = call.args[0], call.args[1]
                if _pq_attr(dst) is not None:
                    if _looks_like_snapshot(src):
                        pq = frozenset()  # restoring from a snapshot
                    else:
                        pq = pq | {stmt.lineno}
            if "restore" in tail or "rollback" in tail or tail == "close":
                pq = frozenset()
            # backend attempts: <recv>.open(...) must reach <recv>.close()
            if isinstance(call.func, ast.Attribute) and isinstance(
                call.func.value, (ast.Attribute, ast.Name)
            ):
                recv = dotted_name(call.func.value)
                if recv:
                    if call.func.attr == "open":
                        attempts = attempts | {(recv, stmt.lineno)}
                    elif call.func.attr == "close":
                        attempts = frozenset(
                            a for a in attempts if a[0] != recv
                        )
        return (pq, attempts)


@rule
class FlowExceptionSafetyRule(_FlowRule):
    """HCC202: no raise may escape with P/Q half-mutated or an attempt open.

    Scope: ``repro/engine/`` and ``repro/resilience/``.  Explicit
    ``raise`` statements are checked against in-flight P/Q mutations;
    open attempts are additionally checked on implicit exception paths
    (the sanctioned shape is ``open()`` then ``try: ... finally:
    close()``).
    """

    rule_id = "HCC202"
    name = "flow-exception-safety"
    rationale = (
        "The attempt/recovery loop retries after failures; a raise that "
        "escapes with P/Q half-mutated or a backend attempt still open "
        "corrupts the state the next attempt resumes from (paper 3.2's "
        "epoch protocol assumes all-or-nothing syncs)."
    )

    def applies(self, ctx):
        return is_exception_safety_module(ctx.module)

    def check_function(self, ctx, fn, cfg):
        analysis = _ExcSafetyAnalysis()
        states = run_analysis(cfg, analysis)

        seen: set[tuple[int, int]] = set()
        for block in cfg.blocks:
            stmt = block.stmt
            if not isinstance(stmt, ast.Raise) or block not in states:
                continue
            pq = states[block][0]
            for line in sorted(pq):
                key = (stmt.lineno, line)
                if key in seen:
                    continue
                seen.add(key)
                yield self.issue(
                    ctx,
                    stmt,
                    f"raises after mutating P/Q at line {line} without a "
                    "rollback/snapshot-restore on this path — the next "
                    "attempt would resume from half-mutated factors",
                )

        reported_attempts: set[tuple[str, int]] = set()
        for var_state in (states.get(cfg.raise_exit, (frozenset(), frozenset())),):
            for recv, line in sorted(var_state[1]):
                if (recv, line) in reported_attempts:
                    continue
                reported_attempts.add((recv, line))
                yield self.issue(
                    ctx,
                    _Loc(line),
                    f"attempt opened via {recv}.open() here can escape on an "
                    f"exception path without {recv}.close() — wrap the body "
                    "in try/finally",
                )


# ---------------------------------------------------------------------------
# HCC203: float64 taint into FP32 kernel arguments
# ---------------------------------------------------------------------------
_KERNEL_SINKS = frozenset({"sgd_batch_update", "sgd_shard_epoch", "sgd_epoch"})
_SHAPE_PRESERVING = frozenset(
    {
        "copy",
        "reshape",
        "ravel",
        "flatten",
        "transpose",
        "ascontiguousarray",
        "asfortranarray",
        "clip",
    }
)


def _dtype_expr_is(expr: ast.expr, target: str) -> bool:
    """Does a ``dtype=...`` expression denote the given float width?"""
    if isinstance(expr, ast.Attribute):
        return expr.attr == target
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value == target
    if isinstance(expr, ast.Name):
        if target == "float64":
            return expr.id in {"float", "float64"}
        return expr.id == target
    if isinstance(expr, ast.Call) and _call_tail(expr) == "dtype" and expr.args:
        return _dtype_expr_is(expr.args[0], target)
    return False


def _expr_is_float64(
    expr: ast.expr,
    state: Mapping[str, bool],
    summaries: Mapping[str, FunctionSummary] | None,
) -> bool:
    """Conservative float64-taint evaluation of one expression."""
    if isinstance(expr, ast.Name):
        return bool(state.get(expr.id))
    if isinstance(expr, ast.BinOp):
        # NumPy promotion: one float64 operand taints the result
        return _expr_is_float64(expr.left, state, summaries) or _expr_is_float64(
            expr.right, state, summaries
        )
    if isinstance(expr, ast.UnaryOp):
        return _expr_is_float64(expr.operand, state, summaries)
    if isinstance(expr, (ast.IfExp,)):
        return _expr_is_float64(expr.body, state, summaries) or _expr_is_float64(
            expr.orelse, state, summaries
        )
    if isinstance(expr, ast.Call):
        tail = _call_tail(expr)
        # explicit casts decide on their own
        if tail == "astype" and expr.args:
            if _dtype_expr_is(expr.args[0], "float64"):
                return True
            if _dtype_expr_is(expr.args[0], "float32"):
                return False
        if tail == "float64":
            return True
        for kw in expr.keywords:
            if kw.arg == "dtype":
                if _dtype_expr_is(kw.value, "float64"):
                    return True
                if _dtype_expr_is(kw.value, "float32"):
                    return False
        if tail in _SHAPE_PRESERVING:
            if isinstance(expr.func, ast.Attribute) and _expr_is_float64(
                expr.func.value, state, summaries
            ):
                return True
            if expr.args and _expr_is_float64(expr.args[0], state, summaries):
                return True
            return False
        if (
            summaries is not None
            and isinstance(expr.func, ast.Name)
            and expr.func.id in summaries
        ):
            return summaries[expr.func.id].returns_float64
        return False
    return False


class _DtypeTaintAnalysis(FlowAnalysis):
    """State: set of float64-tainted local variable names (as a dict)."""

    def __init__(self, summaries: Mapping[str, FunctionSummary]):
        self.summaries = summaries

    def join(self, a, b):
        merged = dict(a)
        merged.update(b)
        return merged

    def transfer(self, stmt, state):
        new = None

        def taint(name: str, value: bool) -> None:
            nonlocal new
            if new is None:
                new = dict(state)
            if value:
                new[name] = True
            else:
                new.pop(name, None)

        if isinstance(stmt, ast.Assign) and stmt.value is not None:
            tainted = _expr_is_float64(stmt.value, state, self.summaries)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    taint(target.id, tainted)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                taint(
                    stmt.target.id,
                    _expr_is_float64(stmt.value, state, self.summaries),
                )
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name) and _expr_is_float64(
                stmt.value, state, self.summaries
            ):
                taint(stmt.target.id, True)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if isinstance(stmt.target, ast.Name) and isinstance(
                stmt.iter, ast.Name
            ):
                taint(stmt.target.id, bool(state.get(stmt.iter.id)))
        return state if new is None else new


@rule
class FlowDtypeTaintRule(_FlowRule):
    """HCC203: float64 taint must not reach FP32 kernel arguments.

    Flow-sensitive upgrade of HCC103: instead of flagging literal
    ``dtype=float64`` in kernel modules, taint is propagated through
    assignments, arithmetic and helper calls, and only flagged where it
    actually reaches an SGD kernel / model-constructor argument.
    """

    rule_id = "HCC203"
    name = "flow-dtype-taint"
    rationale = (
        "Kernels are FP32-only (paper 3.4: FP32 compute, FP16 wire); a "
        "float64 array reaching them silently doubles bandwidth and "
        "memory and masks precision assumptions."
    )

    def _is_sink(self, call: ast.Call) -> str | None:
        tail = _call_tail(call)
        if tail in _KERNEL_SINKS:
            return tail
        if isinstance(call.func, ast.Name) and call.func.id == "MFModel":
            return "MFModel"
        dotted = dotted_name(call.func)
        if "kernels." in dotted:
            return tail or dotted
        return None

    def check_function(self, ctx, fn, cfg):
        analysis = _DtypeTaintAnalysis(_summaries_for(ctx))
        states = run_analysis(cfg, analysis)
        seen: set[tuple[int, int]] = set()
        for block in cfg.blocks:
            stmt = block.stmt
            if stmt is None or block not in states:
                continue
            state = states[block]
            for call in _calls_in(stmt):
                sink = self._is_sink(call)
                if sink is None:
                    continue
                args = [(f"argument {i + 1}", a) for i, a in enumerate(call.args)]
                args += [(f"argument {kw.arg!r}", kw.value) for kw in call.keywords]
                for label, arg in args:
                    if not _expr_is_float64(arg, state, analysis.summaries):
                        continue
                    key = (call.lineno, call.col_offset)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.issue(
                        ctx,
                        call,
                        f"float64-tainted value flows into {sink}() {label} — "
                        "kernels are FP32-only; cast with "
                        ".astype(np.float32) before the call",
                    )
                    break


# ---------------------------------------------------------------------------
# HCC204: backend stage-protocol conformance
# ---------------------------------------------------------------------------
_PROTOCOL_STATES = frozenset(
    {"idle", "ready", "pulled", "computed", "pushed", "final"}
)
#: stage -> (states it is legal from, state it lands in)
_PROTOCOL = {
    "open": (frozenset({"idle"}), "ready"),
    "pull": (frozenset({"ready"}), "pulled"),
    "compute": (frozenset({"pulled"}), "computed"),
    "push": (frozenset({"computed"}), "pushed"),
    "sync": (frozenset({"pushed"}), "ready"),
    "evaluate": (frozenset({"ready"}), "ready"),
    "finalize": (frozenset({"ready"}), "final"),
    "close": (_PROTOCOL_STATES, "idle"),
}


def _is_backend_ctor(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and _call_tail(value).endswith("Backend")


def _backend_receiver(node: ast.expr) -> str | None:
    """Dotted receiver string if this looks like a ComputeBackend."""
    recv = dotted_name(node)
    if recv and "backend" in recv.lower():
        return recv
    return None


class _StageProtocolAnalysis(FlowAnalysis):
    """State: receiver -> frozenset of possible protocol states."""

    def join(self, a, b):
        merged = dict(a)
        for recv, states in b.items():
            merged[recv] = merged.get(recv, _PROTOCOL_STATES) | states
        for recv in set(a) - set(b):
            merged[recv] = merged[recv] | _PROTOCOL_STATES
        return merged

    def transfer(self, stmt, state):
        new = dict(state)
        # constructing a backend pins it to idle; rebinding otherwise forgets
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            name = stmt.targets[0].id
            if _is_backend_ctor(stmt.value):
                new[name] = frozenset({"idle"})
            elif name in new:
                del new[name]
        for call in _calls_in(stmt):
            # passing a tracked backend away loses track of its state
            for arg in (*call.args, *[kw.value for kw in call.keywords]):
                recv = dotted_name(arg) if isinstance(arg, (ast.Name, ast.Attribute)) else ""
                if recv in new:
                    new[recv] = _PROTOCOL_STATES
            if not isinstance(call.func, ast.Attribute):
                continue
            stage = call.func.attr
            if stage not in _PROTOCOL:
                continue
            recv = self._tracked_receiver(call.func.value, new)
            if recv is None:
                continue
            _, target = _PROTOCOL[stage]
            new[recv] = frozenset({target})
        return new

    def _tracked_receiver(self, node: ast.expr, state) -> str | None:
        recv = _backend_receiver(node)
        if recv is not None:
            return recv
        dotted = dotted_name(node)
        return dotted if dotted in state else None


@rule
class FlowStageProtocolRule(_FlowRule):
    """HCC204: backend calls must follow the declared stage machine.

    open → (pull → compute → push → sync)* with evaluate allowed between
    epochs, then finalize and close; close is legal from any state.  A
    violation is reported only when the call is illegal from *every*
    state the receiver may be in (definite protocol break, no
    path-insensitive false alarms).
    """

    rule_id = "HCC204"
    name = "flow-stage-protocol"
    rationale = (
        "The epoch protocol (paper 3.2) is pull→compute→push→sync; a "
        "backend driven out of order trains on stale factors or merges "
        "unpushed updates, which no unit test of a single stage catches."
    )

    def check_function(self, ctx, fn, cfg):
        analysis = _StageProtocolAnalysis()
        states = run_analysis(cfg, analysis)
        seen: set[tuple[int, int]] = set()
        for block in cfg.blocks:
            stmt = block.stmt
            if stmt is None or block not in states:
                continue
            state = dict(states[block])
            for call in _calls_in(stmt):
                # apply protocol effects left-to-right within the statement
                if not isinstance(call.func, ast.Attribute):
                    continue
                stage = call.func.attr
                if stage not in _PROTOCOL:
                    continue
                recv = analysis._tracked_receiver(call.func.value, state)
                if recv is None:
                    continue
                allowed, target = _PROTOCOL[stage]
                current = state.get(recv, _PROTOCOL_STATES)
                if not (current & allowed):
                    key = (call.lineno, call.col_offset)
                    if key not in seen:
                        seen.add(key)
                        yield self.issue(
                            ctx,
                            call,
                            f"{recv}.{stage}() breaks the "
                            "pull→compute→push→sync protocol: the backend "
                            f"can only be {_fmt_states(current)} here, but "
                            f"{stage}() requires {_fmt_states(allowed)}",
                        )
                state[recv] = frozenset({target})


def _fmt_states(states: frozenset[str]) -> str:
    return "/".join(sorted(states))
