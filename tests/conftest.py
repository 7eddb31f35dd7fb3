"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.datasets import NETFLIX
from repro.data.ratings import RatingMatrix
from repro.parallel.shm import SharedArray


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_ratings() -> RatingMatrix:
    """A fixed 6x5 rating matrix with 15 entries."""
    dense = np.array(
        [
            [5, 0, 3, 0, 1],
            [4, 2, 0, 0, 0],
            [0, 3, 1, 5, 0],
            [1, 5, 0, 3, 0],
            [4, 0, 0, 0, 2],
            [0, 0, 3, 4, 0],
        ],
        dtype=np.float32,
    )
    return RatingMatrix.from_dense(dense)


@pytest.fixture
def small_ratings() -> RatingMatrix:
    """A synthetic Netflix-shaped matrix, ~8k entries."""
    return NETFLIX.scaled(8000).generate(seed=3)


@pytest.fixture
def medium_ratings() -> RatingMatrix:
    """A synthetic Netflix-shaped matrix, ~25k entries."""
    return NETFLIX.scaled(25_000).generate(seed=5)


class MadeSegments:
    """The shared-memory segments ``SharedArray.create`` made in one test.

    A leak check over these names sees this test's segments only; a
    listing of the whole ``/dev/shm`` also sees every other process on
    the host create and unlink its own.
    """

    def __init__(self) -> None:
        self.names: list[str] = []

    def surviving(self) -> list[str]:
        """The recorded segments that still exist."""
        return [name for name in self.names if os.path.exists(os.path.join("/dev/shm", name))]


@pytest.fixture
def made_segments(monkeypatch) -> MadeSegments:
    made = MadeSegments()
    create = SharedArray.create.__func__

    def recording(cls, *args, **kwargs):
        arr = create(cls, *args, **kwargs)
        made.names.append(arr.spec.name)
        return arr

    monkeypatch.setattr(SharedArray, "create", classmethod(recording))
    return made
