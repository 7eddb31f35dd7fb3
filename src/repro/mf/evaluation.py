"""Recommendation-quality evaluation for trained MF models.

The paper evaluates convergence with RMSE only (Figure 7); a downstream
user of an MF library also needs ranking metrics for the actual
recommendation task (Figure 1's "decide whether to recommend a product
to a user").  This module provides the standard set: error metrics
(RMSE/MAE), top-N generation, and ranked-list quality
(precision/recall@N, NDCG@N, catalog coverage).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.ratings import RatingMatrix
from repro.mf.model import MFModel


def mae(model: MFModel, ratings: RatingMatrix) -> float:
    """Mean absolute error over observed entries."""
    if ratings.nnz == 0:
        return 0.0
    return float(np.mean(np.abs(model.residual(ratings))))


def recommend_top_n(
    model: MFModel,
    user: int,
    n: int = 10,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-N unseen items for one user: (item ids, predicted scores)."""
    if not (0 <= user < model.m):
        raise IndexError(f"user {user} out of range for m={model.m}")
    if n <= 0:
        raise ValueError("n must be positive")
    scores = model.P[user] @ model.Q
    if exclude is not None and len(exclude):
        scores = scores.copy()
        scores[np.asarray(exclude, dtype=np.int64)] = -np.inf
    n = min(n, model.n)
    top = np.argpartition(scores, -n)[-n:]
    order = np.argsort(scores[top])[::-1]
    top = top[order]
    return top, scores[top]


@dataclass(frozen=True)
class RankingReport:
    """Aggregate ranked-list quality over a set of test users."""

    precision: float
    recall: float
    ndcg: float
    coverage: float        # fraction of the catalog ever recommended
    users_evaluated: int
    n: int


def candidate_ndcg(
    model: MFModel,
    test: RatingMatrix,
    max_users: int | None = None,
    seed: int = 0,
) -> float:
    """Mean per-user NDCG of ranking the user's *test items* by prediction.

    Candidate ranking sidesteps catalog-level top-N's popularity noise:
    each user's held-out items are ordered by predicted score, with
    graded relevance equal to the true rating.  1.0 means the model
    orders every user's test items perfectly.
    """
    if test.nnz == 0:
        raise ValueError("empty test set")
    by_user: dict[int, list[tuple[int, float]]] = {}
    for r, c, v in zip(test.rows.tolist(), test.cols.tolist(), test.vals.tolist()):
        by_user.setdefault(r, []).append((c, v))
    users = sorted(u for u, items in by_user.items() if len(items) >= 2)
    if not users:
        raise ValueError("no user has >= 2 held-out items to rank")
    if max_users is not None and len(users) > max_users:
        rng = np.random.default_rng(seed)
        users = sorted(rng.choice(users, size=max_users, replace=False).tolist())

    scores = []
    for user in users:
        items = by_user[user]
        cols = np.asarray([c for c, _ in items], dtype=np.int64)
        rels = np.asarray([v for _, v in items], dtype=np.float64)
        preds = model.predict(np.full(len(cols), user, dtype=np.int64), cols)
        order = np.argsort(preds)[::-1]
        dcg = _dcg(rels[order])
        idcg = _dcg(np.sort(rels)[::-1])
        if idcg > 0:
            scores.append(dcg / idcg)
    return float(np.mean(scores)) if scores else 0.0


def _dcg(relevances: np.ndarray) -> float:
    if len(relevances) == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, len(relevances) + 2))
    return float(np.sum(relevances * discounts))


def evaluate_ranking(
    model: MFModel,
    train: RatingMatrix,
    test: RatingMatrix,
    n: int = 10,
    relevant_threshold: float | None = None,
    max_users: int | None = None,
    seed: int = 0,
) -> RankingReport:
    """Precision/recall/NDCG@N against held-out ratings.

    A test item counts as *relevant* for its user when its rating is at
    or above ``relevant_threshold`` (default: the test-set mean).  Train
    items are excluded from each user's recommendations, as in standard
    leave-out evaluation.
    """
    if test.nnz == 0:
        raise ValueError("empty test set")
    if relevant_threshold is None:
        relevant_threshold = float(test.vals.mean())

    train_by_user: dict[int, list[int]] = {}
    for r, c in zip(train.rows.tolist(), train.cols.tolist()):
        train_by_user.setdefault(r, []).append(c)
    test_by_user: dict[int, dict[int, float]] = {}
    for r, c, v in zip(test.rows.tolist(), test.cols.tolist(), test.vals.tolist()):
        test_by_user.setdefault(r, {})[c] = v

    users = sorted(test_by_user)
    if max_users is not None and len(users) > max_users:
        rng = np.random.default_rng(seed)
        users = sorted(rng.choice(users, size=max_users, replace=False).tolist())

    precisions, recalls, ndcgs = [], [], []
    recommended_items: set[int] = set()
    for user in users:
        relevant = {
            item for item, v in test_by_user[user].items() if v >= relevant_threshold
        }
        if not relevant:
            continue
        exclude = np.asarray(train_by_user.get(user, []), dtype=np.int64)
        items, _ = recommend_top_n(model, user, n=n, exclude=exclude)
        recommended_items.update(items.tolist())
        hits = np.asarray([1.0 if int(i) in relevant else 0.0 for i in items])
        precisions.append(hits.sum() / len(items))
        recalls.append(hits.sum() / len(relevant))
        ideal = _dcg(np.ones(min(len(relevant), len(items))))
        ndcgs.append(_dcg(hits) / ideal if ideal > 0 else 0.0)

    if not precisions:
        raise ValueError("no test user had relevant held-out items")
    return RankingReport(
        precision=float(np.mean(precisions)),
        recall=float(np.mean(recalls)),
        ndcg=float(np.mean(ndcgs)),
        coverage=len(recommended_items) / model.n,
        users_evaluated=len(precisions),
        n=n,
    )
