"""The hcclint domain rules.

Each rule machine-checks one invariant the HCC-MF design depends on:

====== ================== ========================================================
id     name               invariant (paper anchor)
====== ================== ========================================================
HCC101 shm-lifecycle      every SharedMemory segment has a guaranteed
                          close()/unlink() path (3.5: named segments outlive
                          the process on crash)
HCC102 hot-copy           no hidden NumPy allocation in per-sample hot paths
                          (Eq. 2: T_comp multiplies by nnz)
HCC103 kernel-promotion   kernels stay FP32; no silent float64 promotion
                          (3.4 Strategy 2: FP32 compute / FP16 wire)
HCC104 frozen-dataclass   Spec/Plan/Config/Stats dataclasses are immutable
                          (plans are shared across worker processes)
HCC106 pq-mutation        P/Q mutated only by kernels and the server sync
                          (3.4 Strategy 1: row-grid ownership)
HCC107 blocking-call      no sleep in worker loops, and no unbounded
                          .wait/.join/.acquire/.get there or anywhere in
                          repro/parallel/ and repro/engine/ (Eq. 1: the
                          epoch ends at max_i{T_i}; a dead peer must
                          surface as a failure, not a hang)
HCC108 unit-mix           cost-model formulas never add bytes to seconds
                          (Eq. 1-7 unit discipline)
HCC110 wall-clock         timing code uses time.perf_counter(),
                          never time.time() (telemetry spans need one
                          monotonic cross-process time base)
HCC111 epoch-loop         epoch-loop orchestration lives in repro/engine/
                          only; the legacy plane modules are facades that
                          delegate to EpochEngine
====== ================== ========================================================

The flow-sensitive HCC2xx rules live in :mod:`repro.analysis.flow`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.hotpath import (
    is_bounded_wait_module,
    is_cost_model_module,
    is_epoch_loop_guarded_module,
    is_hot_module,
    is_kernel_module,
    is_pq_owner_module,
    is_timing_module,
    is_worker_loop_module,
)
from repro.analysis.lint import FileContext, LintIssue, Rule, rule

_CLEANUP_ATTRS = {"close", "unlink", "terminate", "shutdown"}
_OWNERSHIP_SINKS = {"enter_context", "callback", "push"}


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------
def _func_tail(func: ast.AST) -> str:
    """Last segment of a call target: ``a.b.c(...)`` -> ``c``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _dotted(func: ast.AST) -> str:
    """Dotted call target when statically resolvable, else ''."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _parent_map(root: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _walk_shallow(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/classes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _contains_name(root: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name for node in ast.walk(root)
    )


def _name_used_as_value(root: ast.AST, name: str) -> bool:
    """True when *name* appears in *root* outside an attribute access.

    ``return shm`` transfers ownership of the object; ``return shm.name``
    only leaks a field of it and must not count as an escape.
    """
    parents = _parent_map(root)
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and node.id == name:
            parent = parents.get(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue
            return True
    return False


def _cleanup_receivers(root: ast.AST) -> Iterator[ast.AST]:
    """``x`` of every ``x.close``/``x.unlink``/... read inside ``root`` —
    called, or registered as a callback."""
    for node in ast.walk(root):
        if isinstance(node, ast.Attribute) and node.attr in _CLEANUP_ATTRS:
            yield node.value


def _assign_targets(assign: ast.AST) -> list[ast.AST]:
    return assign.targets if isinstance(assign, ast.Assign) else [assign.target]


def _self_attr(node: ast.AST) -> str | None:
    """``a`` for ``self.a``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _releases_name(root: ast.AST, name: str) -> bool:
    """Does ``root`` close or unlink ``name``, or each item of it?"""
    items = {name} | {
        loop.target.id
        for loop in ast.walk(root)
        if isinstance(loop, ast.For)
        and isinstance(loop.target, ast.Name)
        and isinstance(loop.iter, ast.Name)
        and loop.iter.id == name
    }
    return any(
        isinstance(recv, ast.Name) and recv.id in items
        for recv in _cleanup_receivers(root)
    )


def _try_releases(node: ast.Try, name: str) -> bool:
    """Does a handler or the ``finally`` of ``node`` release ``name``?

    Cleanup of something else — an ``ExitStack`` closed on the way out —
    covers only what was registered with it, which the registration
    itself shows.
    """
    return any(
        _releases_name(scope, name)
        for scope in list(node.finalbody) + list(node.handlers)
    )


def _self_attrs_released(
    fn: ast.AST, tree_parents: dict[ast.AST, ast.AST]
) -> set[str]:
    """Attributes ``a`` the class of ``fn`` releases anywhere: it reads
    ``self.a.close``/``.unlink``/..., or closes each item of a
    ``for x in self.a`` loop."""
    cls = tree_parents.get(fn)
    while cls is not None and not isinstance(cls, ast.ClassDef):
        cls = tree_parents.get(cls)
    if cls is None:
        return set()
    released = {
        attr for recv in _cleanup_receivers(cls)
        if (attr := _self_attr(recv)) is not None
    }
    for loop in ast.walk(cls):
        if (
            isinstance(loop, ast.For)
            and isinstance(loop.target, ast.Name)
            and (attr := _self_attr(loop.iter)) is not None
            and _releases_name(loop, loop.target.id)
        ):
            released.add(attr)
    return released


# ---------------------------------------------------------------------------
# HCC101: SharedMemory lifecycle
# ---------------------------------------------------------------------------
@rule
class ShmLifecycleRule(Rule):
    rule_id = "HCC101"
    name = "shm-lifecycle"
    rationale = (
        "Named shared-memory segments survive process crashes (paper 3.5 maps "
        "pull/push buffers this way); every creation or attach needs a "
        "guaranteed close()/unlink() — a finally block, a context manager, an "
        "ExitStack registration, or an explicit ownership transfer.  A segment "
        "stored on self, or appended to a self.<list>, counts only if its "
        "class releases that attribute; an enclosing try counts only if it "
        "releases the segment itself."
    )

    _CREATORS = {"SharedMemory"}
    _FACTORY_TAILS = {"create", "attach"}
    _FACTORY_CLASSES = {"SharedArray", "SpanRing"}

    def _is_creation(self, node: ast.Call) -> bool:
        tail = _func_tail(node.func)
        if tail in self._CREATORS:
            return True
        dotted = _dotted(node.func)
        return (
            tail in self._FACTORY_TAILS
            and not self._FACTORY_CLASSES.isdisjoint(dotted.split("."))
        )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        tree_parents: dict[ast.AST, ast.AST] | None = None
        for fn in ctx.iter_functions():
            creations = [
                node
                for node in _walk_shallow(fn)
                if isinstance(node, ast.Call) and self._is_creation(node)
            ]
            if not creations:
                continue
            if tree_parents is None:
                tree_parents = _parent_map(ctx.tree)
            released = _self_attrs_released(fn, tree_parents)
            parents = _parent_map(fn)
            for creation in creations:
                if not self._is_guarded(fn, creation, parents, released):
                    yield self.issue(
                        ctx,
                        creation,
                        "shared-memory segment created without a guaranteed "
                        "close()/unlink() (use try/finally, a context manager, "
                        "ExitStack, or return it to transfer ownership; one "
                        "stored on self needs its class to release it)",
                    )

    # -- guard detection ------------------------------------------------
    def _is_guarded(
        self,
        fn: ast.AST,
        creation: ast.Call,
        parents: dict[ast.AST, ast.AST],
        released: set[str],
    ) -> bool:
        node: ast.AST = creation
        bound: set[str] = set()    # the names the segment is bound to
        while node is not fn:
            parent = parents.get(node)
            if parent is None:
                break
            if isinstance(parent, ast.withitem):
                return True
            if isinstance(parent, ast.Call) and node in parent.args:
                if _func_tail(parent.func) in _OWNERSHIP_SINKS:
                    return True
            if isinstance(parent, ast.Return):
                return True
            if isinstance(parent, (ast.Assign, ast.AnnAssign)):
                guarded = self._assignment_guarded(fn, parent, parents, released)
                if guarded is not None:
                    return guarded
                bound |= {
                    t.id for t in _assign_targets(parent) if isinstance(t, ast.Name)
                }
            if isinstance(parent, ast.Try) and any(
                _try_releases(parent, name) for name in bound
            ):
                return True
            node = parent
        return False

    def _assignment_guarded(
        self,
        fn: ast.AST,
        assign: ast.AST,
        parents: dict[ast.AST, ast.AST],
        released: set[str],
    ) -> bool | None:
        """True/False when the binding decides it; None to look further out."""
        for target in _assign_targets(assign):
            if isinstance(target, ast.Attribute):
                # stored on self: guarded only where the class releases
                # that attribute; stored on another object: handed over
                if isinstance(target.value, ast.Name) and target.value.id == "self":
                    return target.attr in released
                return True
            if isinstance(target, ast.Name) and self._name_escapes(
                fn, target.id, assign, parents, released
            ):
                return True
        return None

    def _name_escapes(
        self,
        fn: ast.AST,
        name: str,
        assign: ast.AST,
        parents: dict[ast.AST, ast.AST],
        released: set[str],
    ) -> bool:
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                if _name_used_as_value(node.value, name):
                    return True
            if isinstance(node, ast.withitem) and _contains_name(
                node.context_expr, name
            ):
                return True
        followers = self._following_statements(assign, parents)
        # acquisition immediately followed by a try whose cleanup releases it
        if followers and isinstance(followers[0], ast.Try):
            if _try_releases(followers[0], name):
                return True
        # handed over further down its block, before the name is rebound:
        # registered with a stack, or appended to a list its class releases
        for stmt in followers:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in _assign_targets(stmt)
            ):
                return False
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call) or not any(
                    _contains_name(arg, name) for arg in node.args
                ):
                    continue
                tail = _func_tail(node.func)
                if tail in _OWNERSHIP_SINKS:
                    return True
                if tail == "append" and _self_attr(node.func.value) in released:
                    return True
        return False

    @staticmethod
    def _following_statements(
        stmt: ast.AST, parents: dict[ast.AST, ast.AST]
    ) -> list[ast.AST]:
        """The statements after ``stmt`` in its own block."""
        parent = parents.get(stmt)
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            if isinstance(block, list) and stmt in block:
                return block[block.index(stmt) + 1 :]
        return []


# ---------------------------------------------------------------------------
# HCC102: hot-path allocation
# ---------------------------------------------------------------------------
@rule
class HotCopyRule(Rule):
    rule_id = "HCC102"
    name = "hot-copy"
    rationale = (
        "Hot-path functions run once per sample/batch, so a hidden NumPy copy "
        "multiplies by nnz and lands straight in T_comp (Eq. 2).  The paper's "
        "one-copy discipline (3.5) allows exactly one pull and one push copy "
        "per worker per epoch."
    )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_hot_module(ctx.module):
            return
        for fn in ctx.iter_functions():
            for node in _walk_shallow(fn):
                if not isinstance(node, ast.Call):
                    continue
                tail = _func_tail(node.func)
                if tail == "copy" and isinstance(node.func, ast.Attribute):
                    if not node.args and not node.keywords:
                        yield self.issue(
                            ctx,
                            node,
                            ".copy() allocates in a hot path; hoist it out of "
                            "the per-sample loop or suppress with a comment "
                            "saying which one-copy budget it spends",
                        )
                elif tail == "astype":
                    if not any(
                        kw.arg == "copy"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                        for kw in node.keywords
                    ):
                        yield self.issue(
                            ctx,
                            node,
                            "astype() copies even when the dtype already "
                            "matches; pass copy=False in hot paths",
                        )
                elif _dotted(node.func) in {"np.array", "numpy.array"}:
                    yield self.issue(
                        ctx,
                        node,
                        "np.array() copies by default in a hot path; use "
                        "np.asarray() or pass copy=False",
                    )


# ---------------------------------------------------------------------------
# HCC103: float64 promotion in kernel code
# ---------------------------------------------------------------------------
@rule
class KernelPromotionRule(Rule):
    rule_id = "HCC103"
    name = "kernel-promotion"
    rationale = (
        "Training is FP32 with an FP16 wire (3.4 Strategy 2); a float64 "
        "intermediate doubles memory traffic and silently changes the "
        "numerics the FP16 round-trip was validated against."
    )

    _F64_STRINGS = {"float64", "f8", ">f8", "<f8"}

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_kernel_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "float64":
                yield self.issue(
                    ctx, node, "float64 in FP32 kernel code (use float32, or "
                    "suppress where a reduction deliberately widens)"
                )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in self._F64_STRINGS
            ):
                yield self.issue(
                    ctx, node, f"dtype string {node.value!r} promotes FP32 "
                    "kernel data to float64"
                )
            elif isinstance(node, ast.keyword) and node.arg == "dtype":
                if isinstance(node.value, ast.Name) and node.value.id == "float":
                    yield self.issue(
                        ctx, node.value, "dtype=float means float64; kernel "
                        "code must say float32 explicitly"
                    )


# ---------------------------------------------------------------------------
# HCC104: dataclass hygiene
# ---------------------------------------------------------------------------
@rule
class FrozenDataclassRule(Rule):
    rule_id = "HCC104"
    name = "frozen-dataclass"
    rationale = (
        "Spec/Plan/Config/Stats dataclasses cross process boundaries (plans "
        "are pickled to spawn workers); freezing makes aliasing across the "
        "server and workers safe by construction."
    )

    _SUFFIXES = ("Spec", "Plan", "Config", "Stats")

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith(self._SUFFIXES):
                continue
            for deco in node.decorator_list:
                frozen = None
                if _func_tail(deco) == "dataclass" and not isinstance(deco, ast.Call):
                    frozen = False
                elif isinstance(deco, ast.Call) and _func_tail(deco.func) == "dataclass":
                    frozen = any(
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in deco.keywords
                    )
                if frozen is False:
                    # anchor on the decorator so a suppression comment
                    # directly above ``@dataclass`` covers the finding
                    yield self.issue(
                        ctx,
                        deco,
                        f"dataclass {node.name} looks like shared plan/spec "
                        "state; declare it @dataclass(frozen=True)",
                    )


# ---------------------------------------------------------------------------
# HCC106: P/Q ownership
# ---------------------------------------------------------------------------
@rule
class PQMutationRule(Rule):
    rule_id = "HCC106"
    name = "pq-mutation"
    rationale = (
        "Strategy 1 ('transmit Q only') holds because P rows are written "
        "only by their owning worker and Q only through the server's merge; "
        "a stray write from analysis/experiment code would reintroduce the "
        "races the row grid exists to prevent."
    )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if is_pq_owner_module(ctx.module):
            return
        # every store, so ``m.P, m.Q = p, q`` and ``m.Q += d`` count too
        for node in ast.walk(ctx.tree):
            if not isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            attr = self._pq_attr(node)
            if attr is not None:
                yield self.issue(
                    ctx,
                    node,
                    f"direct mutation of .{attr} outside the kernel/server "
                    "modules; go through sgd_batch_update or "
                    "ParameterServer.push/sync",
                )

    @staticmethod
    def _pq_attr(target: ast.AST) -> str | None:
        if isinstance(target, ast.Attribute) and target.attr in {"P", "Q"}:
            return target.attr
        if isinstance(target, ast.Subscript):
            value = target.value
            if isinstance(value, ast.Attribute) and value.attr in {"P", "Q"}:
                return value.attr
        return None


# ---------------------------------------------------------------------------
# HCC107: blocking calls in worker loops and coordination code
# ---------------------------------------------------------------------------
@rule
class BlockingCallRule(Rule):
    rule_id = "HCC107"
    name = "blocking-call"
    rationale = (
        "The epoch ends at max_i{T_i} (Eq. 1): one worker sleeping stalls "
        "every other worker at the barrier, and fault tolerance starts at "
        "detection — a .wait()/.join()/.acquire()/.get() with no timeout "
        "in the worker loops, repro/parallel/ or repro/engine/ blocks "
        "forever when a peer process dies, so the failure never surfaces "
        "and recovery never runs."
    )

    _WAIT_ATTRS = {"wait", "join", "acquire", "get"}

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_bounded_wait_module(ctx.module):
            return
        worker_loop = is_worker_loop_module(ctx.module)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = _func_tail(node.func)
            if tail == "sleep" and worker_loop:
                yield self.issue(
                    ctx, node, "sleep() in a worker/server loop inflates "
                    "max_i{T_i}; use event- or barrier-based waiting"
                )
            elif (
                tail in self._WAIT_ATTRS
                and isinstance(node.func, ast.Attribute)
                # "sep".join(parts) / f"{x}".join(...) are string operations
                and not isinstance(node.func.value, (ast.Constant, ast.JoinedStr))
                # a positional argument is the timeout for these APIs
                and not node.args
                and not any(kw.arg == "timeout" for kw in node.keywords)
            ):
                yield self.issue(
                    ctx, node, f".{tail}() without a timeout blocks forever "
                    "on a dead peer process; pass timeout= so failure "
                    "detection can run"
                )


# ---------------------------------------------------------------------------
# HCC108: bytes-vs-seconds unit mixing in cost-model code
# ---------------------------------------------------------------------------
@rule
class UnitMixRule(Rule):
    rule_id = "HCC108"
    name = "unit-mix"
    rationale = (
        "Eq. 1-7 mix byte counts, bandwidths and times; adding a *_bytes "
        "quantity to a *_s/*_time quantity is always a bug (divide by a "
        "bandwidth first).  Units are inferred from naming conventions."
    )

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_cost_model_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            left = self._unit_of(node.left)
            right = self._unit_of(node.right)
            if left is not None and right is not None and left != right:
                yield self.issue(
                    ctx,
                    node,
                    f"adding a {left} quantity to a {right} quantity; convert "
                    "through a bandwidth/scale factor first",
                )

    def _unit_of(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return self._unit_from_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._unit_from_name(node.attr)
        if isinstance(node, ast.Call):
            return self._unit_from_name(_func_tail(node.func))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left = self._unit_of(node.left)
            right = self._unit_of(node.right)
            return left if left == right else None
        return None

    @staticmethod
    def _unit_from_name(name: str) -> str | None:
        n = name.lower()
        if n == "nbytes" or n.endswith("bytes"):
            return "bytes"
        if n.endswith(("_us",)):
            return "microseconds"
        if n.endswith(("_ms",)):
            return "milliseconds"
        if n.endswith(("_gbs", "_gbps")):
            return "GB/s"
        if n.endswith(("_s", "_sec", "_seconds", "_time")) or n in {
            "seconds",
            "elapsed",
        }:
            return "seconds"
        return None


# ---------------------------------------------------------------------------
# HCC110: wall-clock timestamps in timing code
# ---------------------------------------------------------------------------
@rule
class WallClockRule(Rule):
    rule_id = "HCC110"
    name = "wall-clock"
    rationale = (
        "Telemetry spans and probes are compared across processes, so they "
        "need one monotonic time base.  time.time() jumps under NTP slew — "
        "a span can end before it starts; time.monotonic() is a *different* "
        "base (and coarser on some platforms), so mixing it in misaligns "
        "spans against every other module; time.perf_counter() is the "
        "system-wide monotonic clock every timing module must share."
    )

    _BANNED = {
        "time.time": "time.time() is wall clock (non-monotonic); timing "
                     "code must use time.perf_counter()",
        "time.monotonic": "time.monotonic() is a second monotonic base; "
                          "timing code must share time.perf_counter()",
    }

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_timing_module(ctx.module):
            return
        # the attribute, not only its call: ``clock=time.time`` passes
        # the wall clock on to whoever calls it
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                message = self._BANNED.get(_dotted(node))
                if message is not None:
                    yield self.issue(ctx, node, message)


# ---------------------------------------------------------------------------
# HCC111: epoch-loop orchestration belongs to the engine
# ---------------------------------------------------------------------------
@rule
class EpochLoopRule(Rule):
    rule_id = "HCC111"
    name = "epoch-loop"
    rationale = (
        "Both planes execute one epoch pipeline — pull, compute, push, sync "
        "— and since the planes were unified that loop lives only in "
        "repro/engine/ (EpochEngine).  An epoch loop reappearing in a "
        "legacy plane module means the facade is growing its own "
        "orchestration again, and the two planes can silently diverge.  "
        "No shipped module carries a suppression."
    )

    #: calls that mark a loop body as *driving* the training pipeline
    #: (iterating epochs to render a table or an axis is fine); each
    #: names a ``def`` under src/repro, which the lint's own tests hold
    _STAGE_TAILS = {
        "pull",
        "push",
        "sync",
        "compute",
        "begin_epoch",
        "run_epoch",
        "worker_epoch",
    }

    def check(self, ctx: FileContext) -> Iterator[LintIssue]:
        if not is_epoch_loop_guarded_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.For)
                and self._is_epoch_range(node.iter)
                and self._drives_stages(node)
            ):
                yield self.issue(
                    ctx,
                    node,
                    "epoch loop outside repro/engine/: the stage pipeline "
                    "lives in EpochEngine — delegate to it (or suppress a "
                    "sanctioned non-pipeline loop with a comment)",
                )

    @staticmethod
    def _is_epoch_range(iter_node: ast.AST) -> bool:
        """True for ``range(...)`` whose bound names an epoch count."""
        if not (
            isinstance(iter_node, ast.Call)
            and _func_tail(iter_node.func) == "range"
        ):
            return False
        for arg in iter_node.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if "epoch" in name.lower():
                    return True
        return False

    def _drives_stages(self, loop: ast.For) -> bool:
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and _func_tail(sub.func) in self._STAGE_TAILS
                ):
                    return True
        return False
