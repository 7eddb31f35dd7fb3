"""Concurrency tier: hot-swap under live load never serves a torn model.

A writer thread swaps between checkpoints whose P and Q are constant
matrices filled with the same *tag* value (a different tag per file).
Reader threads hammer ``snapshot()`` and ``Scorer.top_k`` the whole
time.  A torn read — P from one checkpoint paired with Q from another —
would produce a score of ``k·tag_a·tag_b``, which for the chosen tags
is distinguishable from every legitimate ``k·tag²``; a torn snapshot
object would show ``P[0,0] != Q[0,0]``.  Any violation is collected
(thread-safely) and fails the test deterministically at join time.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.checkpoint import Checkpoint, save_checkpoint
from repro.mf.model import MFModel
from repro.serving.scorer import Scorer
from repro.serving.store import ModelStore
from tests.test_serving_topk import oracle_top_k

M, N, K = 6, 8, 4
#: tags chosen so every cross product k*a*b differs from every k*t**2
TAGS = (1.0, 2.0, 4.0)


def _tagged_checkpoint(path, tag):
    model = MFModel(
        np.full((M, K), tag, dtype=np.float32),
        np.full((K, N), tag, dtype=np.float32),
    )
    save_checkpoint(Checkpoint(model=model, epoch=int(tag)), path)
    return str(path)


def test_hot_swap_under_live_load_is_never_torn(tmp_path):
    paths = [
        _tagged_checkpoint(tmp_path / f"tag{i}", tag)
        for i, tag in enumerate(TAGS)
    ]
    store = ModelStore(paths[0])
    scorer = Scorer(store)
    legit_scores = {float(K * tag * tag) for tag in TAGS}

    n_readers = 4
    swaps = 150
    problems: list[str] = []
    problems_lock = threading.Lock()
    stop = threading.Event()

    def complain(msg: str) -> None:
        with problems_lock:
            problems.append(msg)

    def reader(seed: int) -> None:
        rng = np.random.default_rng(seed)
        reads = 0
        while not stop.is_set() or reads == 0:
            reads += 1
            try:
                snap = store.snapshot()
                if snap.P[0, 0] != snap.Q[0, 0]:
                    complain(
                        f"torn snapshot v{snap.version}: "
                        f"P tag {snap.P[0, 0]} vs Q tag {snap.Q[0, 0]}"
                    )
                users = rng.integers(0, M, size=3)
                result = scorer.top_k(users, 2)
                for row in result.scores:
                    for score in row:
                        if float(score) not in legit_scores:
                            complain(
                                f"torn score {score} from v{result.version} "
                                f"(legitimate: {sorted(legit_scores)})"
                            )
            except Exception as exc:  # noqa: BLE001 - reported at join
                complain(f"reader raised {type(exc).__name__}: {exc}")
                return

    readers = [
        threading.Thread(target=reader, args=(seed,), daemon=True)
        for seed in range(n_readers)
    ]
    for t in readers:
        t.start()
    try:
        for i in range(swaps):
            result = store.swap(paths[i % len(paths)])
            assert result.ok
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=60.0)

    assert not any(t.is_alive() for t in readers)
    assert problems == []
    # every swap published: initial load + one version per swap call
    assert store.version == swaps + 1


def test_swap_failure_mid_load_keeps_readers_consistent(tmp_path):
    """Readers racing a writer that alternates good and bad swaps."""
    good = _tagged_checkpoint(tmp_path / "good", TAGS[1])
    store = ModelStore(_tagged_checkpoint(tmp_path / "init", TAGS[0]))
    problems: list[str] = []
    stop = threading.Event()

    def reader() -> None:
        while not stop.is_set():
            snap = store.snapshot()
            if snap.P[0, 0] not in TAGS or snap.P[0, 0] != snap.Q[0, 0]:
                problems.append(f"inconsistent snapshot v{snap.version}")
                return

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
    for t in threads:
        t.start()
    try:
        failures = 0
        for i in range(60):
            if i % 2 == 0:
                assert store.swap(good).ok
            else:
                failures += 1
                assert not store.swap(str(tmp_path / "missing")).ok
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=60.0)

    assert problems == []
    assert store.swap_failures() == failures
    assert store.version == 31   # 1 initial + 30 good swaps


def test_overwrite_under_a_live_snapshot(tmp_path):
    """Saves to the path a reader's snapshot was mapped from do not reach it.

    ``save_checkpoint`` renames a new file over the path, so the snapshot
    a reader holds keeps the old inode — its factors stay bit-equal —
    while the store swaps to each new model and answers from it.
    """
    rng = np.random.default_rng(7)
    models = [
        MFModel(
            rng.normal(size=(M, K)).astype(np.float32),
            rng.normal(size=(K, N)).astype(np.float32),
        )
        for _ in range(3)
    ]
    path = str(tmp_path / "a")
    save_checkpoint(Checkpoint(model=models[0], epoch=0), path)
    store = ModelStore(path)
    scorer = Scorer(store)
    held = store.snapshot()
    held_bits = held.P.tobytes(), held.Q.tobytes()
    by_version = {1: models[0]}
    problems: list[str] = []
    stop = threading.Event()

    def reader() -> None:
        users_rng = np.random.default_rng(1)
        try:
            while not stop.is_set():
                if (held.P.tobytes(), held.Q.tobytes()) != held_bits:
                    problems.append("the held snapshot's factors changed")
                    return
                users = users_rng.integers(0, M, size=3)
                reply = scorer.top_k(users, 3)
                model = by_version[reply.version]
                for user, items, scores in zip(users, reply.items, reply.scores):
                    want_items, want_scores = oracle_top_k(
                        model.P, model.Q, user, 3, None, None
                    )
                    if not (np.array_equal(items, want_items)
                            and np.allclose(scores, want_scores, rtol=1e-5)):
                        problems.append(f"v{reply.version} reply is not v{reply.version}'s")
                        return
        except Exception as exc:  # noqa: BLE001 - reported at join
            problems.append(f"reader raised {type(exc).__name__}: {exc}")

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        for i in range(40):
            model = models[1 + i % 2]
            save_checkpoint(Checkpoint(model=model, epoch=i + 1), path)
            by_version[store.version + 1] = model
            assert store.swap(path).ok
    finally:
        stop.set()
        thread.join(timeout=60.0)

    assert not thread.is_alive()
    assert problems == []
    assert store.version == 41
    assert held.version == 1
    assert (held.P.tobytes(), held.Q.tobytes()) == held_bits
    np.testing.assert_array_equal(held.P, models[0].P)
    with pytest.raises(ValueError, match="read-only"):
        held.P[0, 0] = 0.0
