"""Tests for hcclint: the framework and every domain rule.

Each rule gets a positive fixture (the violation fires), a negative
fixture (clean code passes), and a suppression fixture (the violation
is silenced by a ``# hcclint: disable=...`` comment).  The mutation
table at the end holds every rule to a one-line edit of real ``src/``
code that it, and no other rule, catches.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import all_rules, lint_paths, lint_source
from repro.analysis.reporters import render_rules, render_text

HOT = "src/repro/mf/kernels.py"          # hot path + kernel module
WORKER = "src/repro/engine/worker_proc.py"  # hot path + worker loop
COST = "src/repro/core/cost_model.py"    # cost-model module
NEUTRAL = "src/repro/experiments/report.py"  # none of the above
SRC = Path(__file__).resolve().parent.parent / "src"


def issues_for(source, path=NEUTRAL, rule=None):
    found = lint_source(textwrap.dedent(source), path)
    if rule is not None:
        found = [i for i in found if i.rule == rule]
    return found


#: an unfrozen plan: one HCC104 finding on line 3, in any module
UNFROZEN = "from dataclasses import dataclass\n\n@dataclass\nclass FooPlan:\n    x: int = 0\n"


class TestFramework:
    def test_rule_registry_complete(self):
        rules = all_rules()
        ids = {r.rule_id for r in rules}
        assert ids == {"HCC101", "HCC102", "HCC103", "HCC104", "HCC106",
                       "HCC107", "HCC108", "HCC110", "HCC111", "HCC201",
                       "HCC202", "HCC203", "HCC204"}
        # ids and names are unique
        assert len(ids) == len(rules)
        assert len({r.name for r in rules}) == len(rules)
        assert all(r.rationale for r in rules)

    def test_syntax_error_is_reported_not_raised(self):
        issues = lint_source("def broken(:\n    pass\n", "bad.py")
        assert len(issues) == 1
        assert issues[0].rule == "parse-error"

    def test_clean_file_has_no_issues(self):
        assert issues_for("x = 1\n") == []

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(UNFROZEN)
        (tmp_path / "pkg" / "data.txt").write_text("not python")
        issues = lint_paths([str(tmp_path)])
        assert [i.rule for i in issues] == ["frozen-dataclass"]

    def test_suppression_by_rule_id(self):
        src = UNFROZEN.replace("@dataclass\n", "@dataclass  # hcclint: disable=HCC104\n")
        assert issues_for(src) == []

    def test_comment_only_line_suppresses_next_line(self):
        src = UNFROZEN.replace("@dataclass\n", "# hcclint: disable=frozen-dataclass\n@dataclass\n")
        assert issues_for(src) == []

    def test_suppression_is_line_scoped(self):
        src = (
            UNFROZEN.replace("@dataclass\n", "@dataclass  # hcclint: disable=frozen-dataclass\n")
            + "\n@dataclass\nclass BarPlan:\n    y: int = 0\n"
        )
        issues = issues_for(src, rule="frozen-dataclass")
        assert len(issues) == 1
        assert issues[0].line == 7


class TestReporters:
    def test_text_output(self):
        text = render_text(issues_for(UNFROZEN))
        assert "HCC104" in text
        assert "frozen-dataclass" in text
        assert "hcclint: 1 issue" in text

    def test_text_clean(self):
        assert "clean" in render_text([])

    def test_rule_catalogue(self):
        text = render_rules(all_rules())
        assert "HCC101" in text and "shm-lifecycle" in text


class TestShmLifecycle:
    def test_unguarded_creation_flagged(self):
        src = """
        from multiprocessing import shared_memory

        def leak(n):
            shm = shared_memory.SharedMemory(create=True, size=n)
            return shm.name
        """
        assert len(issues_for(src, rule="shm-lifecycle")) == 1

    def test_try_finally_is_clean(self):
        src = """
        from multiprocessing import shared_memory

        def ok(n):
            shm = shared_memory.SharedMemory(create=True, size=n)
            try:
                return bytes(shm.buf[:4])
            finally:
                shm.close()
                shm.unlink()
        """
        assert issues_for(src, rule="shm-lifecycle") == []

    def test_exitstack_is_clean(self):
        src = """
        def ok(stack, spec):
            arr = stack.enter_context(SharedArray.attach(spec))
            return arr.array.sum()
        """
        assert issues_for(src, rule="shm-lifecycle") == []

    def test_callback_registration_is_clean(self):
        src = """
        def ok(stack, shape):
            arr = SharedArray.create(shape)
            stack.callback(arr.unlink)
            return arr
        """
        assert issues_for(src, rule="shm-lifecycle") == []

    def test_ownership_transfer_by_return_is_clean(self):
        src = """
        def factory(shape):
            return SharedArray.create(shape)
        """
        assert issues_for(src, rule="shm-lifecycle") == []

    def test_self_assignment_is_clean(self):
        """Stored on self and released by the class: the lifecycle is the
        object's."""
        src = """
        class Holder:
            def __init__(self, stack, n):
                self._shm = shared_memory.SharedMemory(create=True, size=n)
                stack.callback(self._shm.unlink)
        """
        assert issues_for(src, rule="shm-lifecycle") == []

    def test_self_assignment_nothing_releases_is_flagged(self):
        """Stored on self but no method of the class ever closes or
        unlinks that attribute — also not an enclosing try's cleanup of
        something else."""
        src = """
        class Holder:
            def open(self, stack, n):
                try:
                    self._shm = shared_memory.SharedMemory(create=True, size=n)
                    self._other = shared_memory.SharedMemory(create=True, size=n)
                    stack.callback(self._other.unlink)
                except BaseException:
                    stack.close()
                    raise

            def close(self):
                self._shm = None
        """
        issues = issues_for(src, rule="shm-lifecycle")
        assert [i.line for i in issues] == [5]

    def test_acquire_then_guard_try_is_clean(self):
        src = """
        def ok(n):
            shm = shared_memory.SharedMemory(create=True, size=n)
            try:
                arr = wrap(shm)
                return arr
            except BaseException:
                shm.close()
                shm.unlink()
                raise
        """
        assert issues_for(src, rule="shm-lifecycle") == []

    def test_suppression(self):
        src = """
        def leak(n):
            shm = shared_memory.SharedMemory(create=True, size=n)  # hcclint: disable=shm-lifecycle
            register_global(shm)
        """
        assert issues_for(src, rule="shm-lifecycle") == []

    def test_a_try_that_closes_something_else_covers_nothing(self):
        """The handler closes a stack the segment was never registered
        with, and the list it is kept in is released by nobody."""
        src = """
        class Holder:
            def open(self, stack, n):
                self._bufs = []
                try:
                    for _ in range(n):
                        buf = SharedArray.create((n,))
                        self._bufs.append(buf)
                except BaseException:
                    stack.close()
                    raise
        """
        issues = issues_for(src, rule="shm-lifecycle")
        assert [i.line for i in issues] == [7]

    def test_appended_to_a_list_its_class_releases_is_clean(self):
        src = """
        class Holder:
            def open(self, n):
                self._bufs = []
                for _ in range(n):
                    buf = SharedArray.create((n,))
                    self._bufs.append(buf)

            def close(self):
                for buf in self._bufs:
                    buf.unlink()
        """
        assert issues_for(src, rule="shm-lifecycle") == []

    def test_a_registration_for_an_earlier_binding_of_the_name_covers_nothing(self):
        src = """
        def open(stack, n):
            buf = SharedArray.create((n,))
            stack.callback(buf.unlink)
            buf = SharedArray.create((n,))
            return buf.spec
        """
        issues = issues_for(src, rule="shm-lifecycle")
        assert [i.line for i in issues] == [5]

    @pytest.mark.parametrize("line", [
        # a push wire: appended to self._push_bufs, which close() never reads
        "                self._stack.callback(buf.unlink)\n",
        # a span ring: SpanRing.create makes a segment like SharedArray.create
        "                    self._stack.callback(ring.unlink)\n",
    ], ids=["push-wire", "span-ring"])
    def test_process_backend_segment_left_unregistered(self, line):
        rel = "repro/engine/backends.py"
        source = (SRC / rel).read_text(encoding="utf-8")
        assert source.count(line) == 1, f"{rel} no longer holds the line"
        found = lint_source(source.replace(line, ""), str(SRC / rel))
        assert [i.rule_id for i in found] == ["HCC101"], render_text(found)


class TestHotCopy:
    def test_copy_in_hot_module_flagged(self):
        src = """
        def step(buf):
            local = buf.copy()
            return local
        """
        issues = issues_for(src, path=HOT, rule="hot-copy")
        assert len(issues) == 1
        assert ".copy()" in issues[0].message

    def test_astype_without_copy_false_flagged(self):
        src = """
        def step(x, np):
            return x.astype(np.float32)
        """
        assert len(issues_for(src, path=HOT, rule="hot-copy")) == 1

    def test_astype_with_copy_false_clean(self):
        src = """
        def step(x, np):
            return x.astype(np.float32, copy=False)
        """
        assert issues_for(src, path=HOT, rule="hot-copy") == []

    def test_cold_module_not_flagged(self):
        src = """
        def report(buf):
            return buf.copy()
        """
        assert issues_for(src, path=NEUTRAL, rule="hot-copy") == []

    def test_suppression(self):
        src = """
        def step(buf):
            local = buf.copy()  # hcclint: disable=hot-copy
            return local
        """
        assert issues_for(src, path=HOT, rule="hot-copy") == []

class TestKernelPromotion:
    def test_float64_attribute_flagged(self):
        src = """
        def accumulate(x, np):
            return x.astype(np.float64, copy=False)
        """
        assert len(issues_for(src, path=HOT, rule="kernel-promotion")) == 1

    def test_dtype_string_flagged(self):
        src = 'err = np.zeros(4, dtype="float64")\n'
        assert len(issues_for(src, path=HOT, rule="kernel-promotion")) == 1

    def test_dtype_builtin_float_flagged(self):
        src = "err = np.zeros(4, dtype=float)\n"
        assert len(issues_for(src, path=HOT, rule="kernel-promotion")) == 1

    def test_float32_clean(self):
        src = "err = np.zeros(4, dtype=np.float32)\n"
        assert issues_for(src, path=HOT, rule="kernel-promotion") == []

    def test_non_kernel_module_not_scoped(self):
        src = "stats = np.zeros(4, dtype=np.float64)\n"
        assert issues_for(src, path=COST, rule="kernel-promotion") == []

    def test_suppression(self):
        src = "loss = np.square(err, dtype=np.float64)  # hcclint: disable=kernel-promotion\n"
        assert issues_for(src, path=HOT, rule="kernel-promotion") == []


class TestFrozenDataclass:
    def test_unfrozen_plan_flagged(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class ShardPlan:
            fractions: tuple
        """
        issues = issues_for(src, rule="frozen-dataclass")
        assert len(issues) == 1
        assert "ShardPlan" in issues[0].message

    def test_dataclass_call_without_frozen_flagged(self):
        src = """
        from dataclasses import dataclass

        @dataclass(eq=True)
        class WireSpec:
            nbytes: int
        """
        assert len(issues_for(src, rule="frozen-dataclass")) == 1

    def test_frozen_clean(self):
        src = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ShardPlan:
            fractions: tuple
        """
        assert issues_for(src, rule="frozen-dataclass") == []

    def test_other_names_exempt(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class TrainResult:
            rmse: float
        """
        assert issues_for(src, rule="frozen-dataclass") == []

    def test_suppression(self):
        src = """
        from dataclasses import dataclass

        # hcclint: disable=frozen-dataclass
        @dataclass
        class MutablePlan:
            fractions: list
        """
        assert issues_for(src, rule="frozen-dataclass") == []


class TestPQMutation:
    def test_assignment_outside_owners_flagged(self):
        src = """
        def tamper(model, rows):
            model.P[rows] = 0.0
        """
        issues = issues_for(src, path=NEUTRAL, rule="pq-mutation")
        assert len(issues) == 1
        assert ".P" in issues[0].message

    def test_augmented_q_flagged(self):
        src = """
        def tamper(model, delta):
            model.Q += delta
        """
        assert len(issues_for(src, path=NEUTRAL, rule="pq-mutation")) == 1

    def test_rebinding_attribute_flagged(self):
        src = """
        def tamper(model, new_p):
            model.P = new_p
        """
        assert len(issues_for(src, path=NEUTRAL, rule="pq-mutation")) == 1

    def test_tuple_unpacking_flagged(self):
        src = """
        def tamper(model, p, q):
            model.P, model.Q = p, q
        """
        assert len(issues_for(src, path=NEUTRAL, rule="pq-mutation")) == 2

    def test_read_access_clean(self):
        src = """
        def inspect(model):
            return model.P.mean() + model.Q.mean()
        """
        assert issues_for(src, path=NEUTRAL, rule="pq-mutation") == []

    def test_owner_module_exempt(self):
        src = """
        def merge(model, delta):
            model.Q += delta
        """
        assert issues_for(src, path=HOT, rule="pq-mutation") == []

    def test_suppression(self):
        src = """
        def tamper(model, delta):
            model.Q += delta  # hcclint: disable=pq-mutation
        """
        assert issues_for(src, path=NEUTRAL, rule="pq-mutation") == []


class TestBlockingCall:
    def test_sleep_flagged(self):
        src = """
        import time

        def loop(queue):
            while True:
                time.sleep(0.1)
        """
        assert len(issues_for(src, path=WORKER, rule="blocking-call")) == 1

    def test_join_without_timeout_flagged(self):
        src = """
        def reap(procs):
            for proc in procs:
                proc.join()
        """
        assert len(issues_for(src, path=WORKER, rule="blocking-call")) == 1

    def test_join_with_timeout_clean(self):
        src = """
        def reap(procs):
            for proc in procs:
                proc.join(timeout=5.0)
        """
        assert issues_for(src, path=WORKER, rule="blocking-call") == []

    def test_string_join_not_flagged(self):
        src = """
        def render(parts):
            return ", ".join(parts)
        """
        assert issues_for(src, path=WORKER, rule="blocking-call") == []

    def test_non_worker_module_exempt(self):
        src = """
        import time

        def poll():
            time.sleep(1)
        """
        assert issues_for(src, path=NEUTRAL, rule="blocking-call") == []

    def test_suppression(self):
        src = """
        def loop(barrier):
            barrier.wait()  # hcclint: disable=blocking-call
        """
        assert issues_for(src, path=WORKER, rule="blocking-call") == []


class TestUnitMix:
    def test_bytes_plus_seconds_flagged(self):
        src = """
        def epoch_total(pull_bytes, sync_time):
            return pull_bytes + sync_time
        """
        issues = issues_for(src, path=COST, rule="unit-mix")
        assert len(issues) == 1
        assert "bytes" in issues[0].message and "seconds" in issues[0].message

    def test_us_plus_seconds_flagged(self):
        src = """
        def total(latency_us, sync_time):
            return latency_us + sync_time
        """
        assert len(issues_for(src, path=COST, rule="unit-mix")) == 1

    def test_same_unit_clean(self):
        src = """
        def total(pull_time, push_time):
            return pull_time + push_time
        """
        assert issues_for(src, path=COST, rule="unit-mix") == []

    def test_converted_quantity_clean(self):
        src = """
        def total(nbytes, bandwidth, sync_time):
            return nbytes / bandwidth + sync_time
        """
        assert issues_for(src, path=COST, rule="unit-mix") == []

    def test_non_cost_module_exempt(self):
        src = """
        def total(pull_bytes, sync_time):
            return pull_bytes + sync_time
        """
        assert issues_for(src, path=NEUTRAL, rule="unit-mix") == []

    def test_suppression(self):
        src = """
        def total(pull_bytes, sync_time):
            return pull_bytes + sync_time  # hcclint: disable=unit-mix
        """
        assert issues_for(src, path=COST, rule="unit-mix") == []


class TestWallClock:
    TIMING = "src/repro/obs/spans.py"  # timing module (obs/ tree)

    def test_time_time_flagged_in_timing_module(self):
        src = """
        import time

        def stamp():
            return time.time()
        """
        issues = issues_for(src, path=self.TIMING, rule="wall-clock")
        assert len(issues) == 1
        assert "perf_counter" in issues[0].message

    def test_wall_clock_passed_as_a_callable_flagged(self):
        src = """
        import time

        def recorder(ring, clock=time.time):
            return clock
        """
        assert len(issues_for(src, path=self.TIMING, rule="wall-clock")) == 1

    def test_profiler_module_is_timing(self):
        src = "import time\nt = time.time()\n"
        assert len(
            issues_for(src, path="src/repro/hardware/profiler.py", rule="wall-clock")
        ) == 1

    def test_perf_counter_clean(self):
        src = """
        import time

        def stamp():
            return time.perf_counter()
        """
        assert issues_for(src, path=self.TIMING, rule="wall-clock") == []

    def test_non_timing_module_exempt(self):
        src = "import time\nt = time.time()\n"
        assert issues_for(src, path=NEUTRAL, rule="wall-clock") == []

    def test_monotonic_flagged_as_second_time_base(self):
        # time.monotonic() is monotonic but a *different* base than
        # perf_counter; mixing bases misaligns cross-process spans
        src = """
        import time

        def stamp():
            return time.monotonic()
        """
        issues = issues_for(src, path=self.TIMING, rule="wall-clock")
        assert len(issues) == 1
        assert "perf_counter" in issues[0].message

    def test_bench_module_is_timing(self):
        src = "import time\nt = time.time()\n"
        assert len(
            issues_for(src, path="src/repro/obs/bench.py", rule="wall-clock")
        ) == 1

    def test_profile_module_is_timing(self):
        src = "import time\nt = time.monotonic()\n"
        assert len(
            issues_for(src, path="src/repro/obs/profile.py", rule="wall-clock")
        ) == 1

    def test_bench_module_named_beyond_prefix(self):
        # the explicit TIMING_MODULES entry must keep the rule alive
        # even if the file leaves the repro/obs/ prefix someday
        from repro.analysis.hotpath import TIMING_MODULES

        assert "repro/obs/profile.py" in TIMING_MODULES

    def test_suppression(self):
        src = """
        import time
        t = time.time()  # hcclint: disable=wall-clock
        """
        assert issues_for(src, path=self.TIMING, rule="wall-clock") == []


class TestEpochLoop:
    FRAMEWORK = "src/repro/framework.py"  # legacy plane facade

    LOOP = """
    def train(self, server, epochs):
        for epoch in range(epochs):
            server.begin_epoch(epoch)
            server.sync(epoch)
    """

    def test_epoch_loop_in_facade_flagged(self):
        issues = issues_for(self.LOOP, path=self.FRAMEWORK, rule="epoch-loop")
        assert len(issues) == 1
        assert "EpochEngine" in issues[0].message

    def test_reporting_loop_without_stage_calls_clean(self):
        src = """
        def axis(self, epochs):
            out = []
            for epoch in range(epochs):
                out.append(self.cost * (epoch + 1))
            return out
        """
        assert issues_for(src, path=self.FRAMEWORK, rule="epoch-loop") == []

    def test_non_epoch_bound_clean(self):
        src = """
        def fan_out(self, n_workers, server):
            for rank in range(n_workers):
                server.push(rank)
        """
        assert issues_for(src, path=self.FRAMEWORK, rule="epoch-loop") == []

    def test_engine_module_is_the_sanctioned_home(self):
        assert issues_for(self.LOOP, path="src/repro/engine/pipeline.py",
                          rule="epoch-loop") == []

    def test_neutral_module_exempt(self):
        assert issues_for(self.LOOP, path=NEUTRAL, rule="epoch-loop") == []

    def test_rotation_loop_fires_without_suppression(self):
        src = """
        def rotate(self, epochs):
            for _ in range(epochs):
                self.worker_epoch()
        """
        assert len(issues_for(src, path=self.FRAMEWORK, rule="epoch-loop")) == 1

    def test_suppression(self):
        src = """
        def rotate(self, epochs):
            for _ in range(epochs):  # hcclint: disable=epoch-loop
                self.worker_epoch()
        """
        assert issues_for(src, path=self.FRAMEWORK, rule="epoch-loop") == []


class TestUnboundedWait:
    """HCC107's rendezvous half: every ``.wait``/``.join``/``.acquire``/
    ``.get`` in the coordination trees carries a timeout."""

    # an engine module that is not a worker-loop module: waits are
    # checked there, sleeps are not
    ENGINE = "src/repro/engine/pipeline.py"

    def test_bare_rendezvous_flagged(self):
        src = """
        def rendezvous(barrier, proc, lock, queue):
            barrier.wait()
            proc.join()
            lock.acquire()
            return queue.get()
        """
        issues = issues_for(src, path=self.ENGINE, rule="blocking-call")
        assert [i.line for i in issues] == [3, 4, 5, 6]

    def test_timeout_kwarg_clean(self):
        src = """
        def rendezvous(barrier, proc, queue):
            barrier.wait(timeout=5.0)
            proc.join(timeout=5.0)
            return queue.get(timeout=5.0)
        """
        assert issues_for(src, path=self.ENGINE, rule="blocking-call") == []

    def test_positional_arg_clean(self):
        # a positional arg is a timeout for these APIs (join(5.0))
        src = """
        def reap(proc):
            proc.join(5.0)
        """
        assert issues_for(src, path=self.ENGINE, rule="blocking-call") == []

    def test_string_receivers_not_flagged(self):
        src = """
        def render(parts):
            return ", ".join(parts) + f"{parts}".join(parts)
        """
        assert issues_for(src, path=self.ENGINE, rule="blocking-call") == []

    def test_sleep_only_in_worker_loop_modules(self):
        src = """
        import time

        def backoff():
            time.sleep(0.1)
        """
        assert issues_for(src, path=self.ENGINE, rule="blocking-call") == []
        assert len(issues_for(src, path=WORKER, rule="blocking-call")) == 1

    def test_module_outside_coordination_tree_exempt(self):
        src = """
        def fetch(queue):
            return queue.get()
        """
        assert issues_for(src, path=NEUTRAL, rule="blocking-call") == []

    def test_suppression(self):
        src = """
        def fetch(queue):
            return queue.get()  # hcclint: disable=blocking-call
        """
        assert issues_for(src, path=self.ENGINE, rule="blocking-call") == []


class TestRepoIsClean:
    def test_scoped_rules_look_at_the_real_worker_loop(self):
        """The shipped worker process body is linted as a worker loop:
        strip its one blocking-call suppression and the rule fires, so
        the suppression is load-bearing."""
        with open(WORKER, encoding="utf-8") as fh:
            source = fh.read()
        marker = "# hcclint: disable=blocking-call"
        assert source.count(marker) == 1
        found = lint_source(source.replace(marker, ""), WORKER)
        assert [i.rule for i in found] == ["blocking-call"]

    def test_scoped_module_lists_name_files_that_exist(self):
        import os

        from repro.analysis import hotpath

        scoped = set().union(*(
            value for name, value in vars(hotpath).items()
            if name.endswith("_MODULES") and isinstance(value, frozenset)
        ))
        missing = sorted(m for m in scoped if not os.path.exists(f"src/{m}"))
        assert missing == []

    def test_epoch_loop_stage_names_are_defined_in_src(self):
        """A stage call the rule looks for that nothing defines any more
        is a rule that matches nothing: the deletion must fail here."""
        import ast
        import pathlib

        from repro.analysis.flow import _KERNEL_SINKS
        from repro.analysis.rules import EpochLoopRule

        defined = {
            node.name
            for path in pathlib.Path("src/repro").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)
        }
        assert sorted(EpochLoopRule._STAGE_TAILS - defined) == []
        # the same holds for the kernels HCC203 follows float64 into
        assert sorted(_KERNEL_SINKS - defined) == []

    def test_src_tree_has_no_warnings_or_errors(self):
        """The acceptance gate: `repro lint src/` must be clean."""
        issues = lint_paths(["src"])
        assert issues == [], render_text(issues)


# ---------------------------------------------------------------------------
# the mutation table: one edit of real src/ code per rule
# ---------------------------------------------------------------------------

#: (rule id, file under src/, a line of it, what replaces that line).
#: Each edit is a slip the rule exists for; the edited file must report
#: that rule and nothing else, and no ruff or mypy check makes the catch.
MUTATIONS = [
    # a segment stored on self whose unlink is registered nowhere
    ("HCC101", "repro/engine/backends.py",
     "            self._stack.callback(self._progress.unlink)\n", ""),
    # a per-batch residual that copies although it is already FP32
    ("HCC102", "repro/mf/kernels.py",
     'err = (vals - np.einsum("ij,ij->i", p, q)).astype(np.float32, copy=False)',
     'err = (vals - np.einsum("ij,ij->i", p, q)).astype(np.float32)'),
    # the FP16 wire decoded to float64
    ("HCC103", "repro/core/compression.py",
     "        return arr.astype(np.float32)\n",
     "        return arr.astype(np.float64)\n"),
    # a plan that workers share made mutable
    ("HCC104", "repro/core/partition.py",
     "@dataclass(frozen=True)\nclass PartitionPlan",
     "@dataclass\nclass PartitionPlan"),
    # a worker rebinding Q instead of decoding into its compact local
    ("HCC106", "repro/engine/worker_proc.py",
     "        _decode_pull(channel, pull_wire, cols, model.Q)\n",
     "        model.Q = channel.decode(pull_wire)\n"),
    # a reap that waits forever on a hung worker
    ("HCC107", "repro/engine/backends.py",
     "            proc.join(timeout=self.barrier_timeout_s)\n",
     "            proc.join()\n"),
    # a bus latency added in microseconds to a time in seconds
    ("HCC108", "repro/core/comm.py",
     "            + bus.latency_us * 1e-6\n",
     "            + bus.latency_us\n"),
    # a span stamped with the wall clock
    ("HCC110", "repro/obs/spans.py",
     "        start = self.clock()\n",
     "        start = time.time()\n"),
    # the facade growing its own epoch loop again
    ("HCC111", "repro/framework.py",
     "        result = engine.run(epochs)\n",
     "        for epoch in range(epochs):\n"
     "            engine.backend.compute(epoch)\n"
     "        result = engine.run(epochs)\n"),
    # a tmp checkpoint left behind when the write raises
    ("HCC201", "repro/core/checkpoint.py",
     "        tmp.unlink(missing_ok=True)\n",
     "        pass\n"),
    # an attempt left open when an epoch raises
    ("HCC202", "repro/engine/pipeline.py",
     "                self.backend.close()\n",
     "                pass\n"),
    # a worker's Q allocated in float64 and handed to the kernels
    ("HCC203", "repro/engine/worker_proc.py",
     "np.empty((p.shape[1], n), dtype=np.float32)",
     "np.empty((p.shape[1], n), dtype=np.float64)"),
    # a compute before the epoch's pull
    ("HCC204", "repro/engine/pipeline.py",
     "                    for local in range(remaining):\n",
     "                    self.backend.compute(offset)\n"
     "                    for local in range(remaining):\n"),
]


class TestMutations:
    def test_every_rule_has_exactly_one_row(self):
        assert sorted(row[0] for row in MUTATIONS) == sorted(
            r.rule_id for r in all_rules()
        )

    @pytest.mark.parametrize(
        "rule_id, rel, old, new", MUTATIONS, ids=[row[0] for row in MUTATIONS]
    )
    def test_mutation_fires_only_its_rule(self, rule_id, rel, old, new):
        path = str(SRC / rel)
        source = (SRC / rel).read_text(encoding="utf-8")
        assert source.count(old) == 1, f"{rel} no longer holds the mutated line"
        assert lint_source(source, path) == []
        found = lint_source(source.replace(old, new), path)
        assert {i.rule_id for i in found} == {rule_id}, render_text(found)
