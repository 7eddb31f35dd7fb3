"""Synthetic rating-data generators.

The paper evaluates on Netflix, Yahoo! Music R1/R2 and MovieLens-20m
(Table 3), none of which can be redistributed here.  These generators
produce rating matrices with the same *structural* properties the
paper's effects depend on:

* the (m : n : nnz) shape ratios — these alone determine communication
  cost, synchronization cost and the Q-only transmission benefit;
* a low-rank-plus-noise value model, so SGD-based MF actually converges
  and the RMSE-vs-epoch curves of Figure 7 are meaningful;
* skewed user-activity / item-popularity marginals (real recommendation
  data is heavy-tailed, which is what makes Hogwild-style conflicts
  rare — paper section 4.2 relies on "sparse and random enough" data).

The R1* dataset ("generated by adding data according to the uniform
distribution on the basis of R1") is reproduced by the ``extend_uniform``
helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.ratings import RatingMatrix, flat_keys


@dataclass(frozen=True)
class SyntheticConfig:
    """Configuration for the low-rank generator.

    Parameters
    ----------
    m, n, nnz:
        Target shape of the rating matrix.
    rank:
        Rank of the latent ground-truth factors.
    rating_min, rating_max:
        Rating scale bounds (e.g. 1..5 for Netflix, 0..100 for Yahoo R1).
    rating_step:
        Quantization step of ratings (1.0, 0.5, ...). 0 disables rounding.
    noise:
        Std-dev of Gaussian noise added before clipping, expressed as a
        fraction of the rating range.
    row_skew, col_skew:
        Zipf-like exponents for user-activity / item-popularity skew;
        0 gives uniform marginals.
    """

    m: int
    n: int
    nnz: int
    rank: int = 8
    rating_min: float = 1.0
    rating_max: float = 5.0
    rating_step: float = 1.0
    noise: float = 0.1
    row_skew: float = 0.7
    col_skew: float = 0.7

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0:
            raise ValueError("m and n must be positive")
        if self.nnz <= 0:
            raise ValueError("nnz must be positive")
        if self.nnz > self.m * self.n:
            raise ValueError(f"nnz={self.nnz} exceeds matrix capacity {self.m * self.n}")
        if self.rank <= 0:
            raise ValueError("rank must be positive")
        if self.rating_max <= self.rating_min:
            raise ValueError("rating_max must exceed rating_min")


def _skewed_probs(size: int, skew: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like marginal probabilities over ``size`` indices.

    The ranks are randomly permuted so that popular rows/columns are
    scattered across the index space, as after the paper's shuffle step.
    """
    if skew <= 0.0:
        return np.full(size, 1.0 / size)
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    rng.shuffle(weights)
    return weights / weights.sum()


def sample_sparsity_pattern(
    m: int,
    n: int,
    nnz: int,
    rng: np.random.Generator,
    row_skew: float = 0.0,
    col_skew: float = 0.0,
    max_tries: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``nnz`` distinct (row, col) coordinates.

    Sampling is with replacement followed by deduplication; we oversample
    and iterate until the target count is reached, which stays cheap for
    the sparse regimes recommendation data lives in (density << 10%).
    """
    if nnz > m * n:
        raise ValueError("nnz exceeds matrix capacity")
    row_p = _skewed_probs(m, row_skew, rng)
    col_p = _skewed_probs(n, col_skew, rng)

    dense_fallback = nnz > 0.4 * m * n
    if dense_fallback:
        # dense regime: pick without replacement over the flat index space
        flat = rng.choice(m * n, size=nnz, replace=False)
        return flat // n, flat % n

    seen = np.empty(0, dtype=np.int64)
    for _ in range(max_tries):
        need = nnz - len(seen)
        if need <= 0:
            break
        batch = int(need * 1.5) + 16
        r = rng.choice(m, size=batch, p=row_p)
        c = rng.choice(n, size=batch, p=col_p)
        keys = flat_keys(r, c, n)
        seen = np.unique(np.concatenate([seen, keys]))
    if len(seen) < nnz:
        # heavy skew can starve deduped sampling; top up uniformly
        universe_try = rng.choice(m * n, size=min(m * n, 4 * nnz), replace=False)
        seen = np.unique(np.concatenate([seen, universe_try]))
    if len(seen) < nnz:
        raise RuntimeError("failed to sample enough distinct coordinates")
    keys = rng.permutation(seen)[:nnz]
    return keys // n, keys % n


def generate_low_rank(config: SyntheticConfig, seed: int = 0) -> RatingMatrix:
    """Generate a rating matrix from a low-rank ground truth.

    True factors ``U (m x r)`` and ``V (r x n)`` are drawn so that
    ``U @ V`` spans the rating scale; observed entries get Gaussian
    noise and are quantized to the rating step, mimicking real
    star-rating data.
    """
    rng = np.random.default_rng(seed)
    rows, cols = sample_sparsity_pattern(
        config.m, config.n, config.nnz, rng, config.row_skew, config.col_skew
    )

    scale_mid = 0.5 * (config.rating_min + config.rating_max)
    scale_half = 0.5 * (config.rating_max - config.rating_min)
    # factors sized so u.v has mean ~scale_mid and spread ~scale_half
    base = np.sqrt(scale_mid / config.rank)
    spread = np.sqrt(scale_half / config.rank)
    u = base + spread * rng.standard_normal((config.m, config.rank))
    v = base + spread * rng.standard_normal((config.rank, config.n))

    vals = np.einsum("ij,ji->i", u[rows], v[:, cols]).astype(np.float64)
    if config.noise > 0:
        vals += rng.normal(
            0.0, config.noise * (config.rating_max - config.rating_min), size=len(vals)
        )
    if config.rating_step > 0:
        vals = np.round(vals / config.rating_step) * config.rating_step
    vals = np.clip(vals, config.rating_min, config.rating_max)
    return RatingMatrix(config.m, config.n, rows, cols, vals.astype(np.float32))


def extend_uniform(ratings: RatingMatrix, target_nnz: int, seed: int = 0) -> RatingMatrix:
    """Add uniformly-distributed extra entries up to ``target_nnz``.

    Reproduces how the paper built R1* from R1 ("generated by adding data
    according to the uniform distribution on the basis of R1").  New
    coordinates avoid existing ones; new values are uniform over the
    observed value range.
    """
    if target_nnz < ratings.nnz:
        raise ValueError("target_nnz smaller than current nnz")
    if target_nnz == ratings.nnz:
        return ratings
    rng = np.random.default_rng(seed)
    existing = flat_keys(ratings.rows, ratings.cols, ratings.n)
    existing_set = np.sort(existing)

    need = target_nnz - ratings.nnz
    new_keys = np.empty(0, dtype=np.int64)
    while len(new_keys) < need:
        batch = int((need - len(new_keys)) * 1.5) + 16
        r = rng.integers(0, ratings.m, size=batch)
        c = rng.integers(0, ratings.n, size=batch)
        keys = flat_keys(r, c, ratings.n)
        keys = keys[np.searchsorted(existing_set, keys) == np.searchsorted(existing_set, keys, side="right")]
        new_keys = np.unique(np.concatenate([new_keys, keys]))
    new_keys = new_keys[:need]

    lo, hi = float(ratings.vals.min()), float(ratings.vals.max())
    new_vals = rng.uniform(lo, hi, size=need).astype(np.float32)
    return RatingMatrix(
        ratings.m,
        ratings.n,
        np.concatenate([ratings.rows, new_keys // ratings.n]),
        np.concatenate([ratings.cols, new_keys % ratings.n]),
        np.concatenate([ratings.vals, new_vals]),
    )
