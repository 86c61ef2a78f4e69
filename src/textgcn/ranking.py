"""Top-k recommendation by cosine similarity, ranking metrics, baselines.

Candidates are always the items the user has not interacted with in
training. Ties are broken by ascending item index so rankings are
reproducible; per-user metrics are averaged with exactly rounded
summation (math.fsum), making the report independent of user iteration
order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import DatasetSplit, InteractionMatrix
from .errors import DataError


@dataclass
class Ranking:
    """Ordered recommendation list for one user."""

    items: np.ndarray
    scores: np.ndarray
    truncated: bool = False   # fewer than k candidates existed
    user: int | None = None


@dataclass
class MetricsReport:
    dataset: str
    model: str
    k: int
    recall: float
    ndcg: float
    hr: float
    n_users: int

    def to_json(self) -> str:
        return json.dumps({
            "dataset": self.dataset, "model": self.model, "k": self.k,
            "recall": self.recall, "ndcg": self.ndcg, "hr": self.hr,
            "users": self.n_users,
        }, sort_keys=True)


def unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized copy plus a mask of zero-norm rows (left as zeros)."""
    matrix = np.asarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(matrix, axis=1)
    zero = norms == 0
    safe = np.where(zero, 1.0, norms).astype(np.float32)
    return matrix / safe[:, None], zero


def _topk_within(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Top-k candidate indices by (score desc, index asc); exact partial selection.

    Matches a full stable sort followed by truncation, without sorting the
    entire axis: everything strictly above the kth-largest score is in,
    and ties at the boundary are filled by ascending item index.
    """
    cscores = scores[candidates]
    n = len(candidates)
    if k < n:
        kth = np.partition(cscores, n - k)[n - k]
        above = cscores > kth
        need = k - int(above.sum())
        eq_pos = np.flatnonzero(cscores == kth)[:need]
        mask = above.copy()
        mask[eq_pos] = True
        candidates = candidates[mask]
        cscores = cscores[mask]
    order = np.lexsort((candidates, -cscores))
    return candidates[order]


def _candidates(n_items: int, exclude: set[int] | np.ndarray) -> np.ndarray:
    """Ascending indices of the items not in ``exclude``."""
    keep = np.ones(n_items, dtype=bool)
    keep[np.asarray(list(exclude) if isinstance(exclude, set) else exclude,
                    dtype=np.int64)] = False
    return np.flatnonzero(keep)


def recommend_topk(user_vec: np.ndarray, item_emb: np.ndarray,
                   exclude: set[int] | np.ndarray, k: int,
                   user: int | None = None) -> Ranking:
    """Top-k non-excluded items by cosine similarity to the user vector.

    Zero-norm item rows score 0. Fewer than k candidates returns them all
    with the truncated flag set.
    """
    if k < 1:
        raise DataError("k must be >= 1")
    user_vec = np.asarray(user_vec, dtype=np.float32)
    norm = np.linalg.norm(user_vec)
    if norm == 0:
        raise DataError("zero user vector")
    item_unit, _ = unit_rows(item_emb)
    scores = item_unit @ (user_vec / norm)

    candidates = _candidates(len(scores), exclude)
    truncated = len(candidates) < k
    top = _topk_within(scores, candidates, k)
    return Ranking(items=top, scores=scores[top], truncated=truncated, user=user)


def recall_at_k(items: np.ndarray, relevant: set[int]) -> float:
    """|top-k intersect relevant| / |relevant|."""
    if not relevant:
        raise DataError("empty relevant set")
    hits = sum(1 for i in items if int(i) in relevant)
    return hits / len(relevant)


def ndcg_at_k(items: np.ndarray, relevant: set[int], k: int) -> float:
    """Binary-relevance NDCG with the ideal DCG truncated at min(|relevant|, k)."""
    if not relevant:
        raise DataError("empty relevant set")
    dcg = sum(1.0 / math.log2(rank + 1)
              for rank, item in enumerate(items, start=1) if int(item) in relevant)
    ideal = sum(1.0 / math.log2(rank + 1)
                for rank in range(1, min(len(relevant), k) + 1))
    return dcg / ideal


def hr_at_k(items: np.ndarray, relevant: set[int]) -> float:
    """1.0 if any relevant item was retrieved, else 0.0."""
    return 1.0 if any(int(i) in relevant for i in items) else 0.0


def _check_exclusion(top: np.ndarray, train_items: np.ndarray) -> None:
    if len(train_items) == 0 or len(top) == 0:
        return
    pos = np.searchsorted(train_items, top)
    pos = np.minimum(pos, len(train_items) - 1)
    if np.any(train_items[pos] == top):
        raise AssertionError("recommended an item from the user's train set")


def _aggregate(split_name: str, model: str, k: int,
               per_user: list[tuple[float, float, float]]) -> MetricsReport:
    if not per_user:
        raise DataError("zero evaluable users")
    n = len(per_user)
    recall = math.fsum(m[0] for m in per_user) / n
    ndcg = math.fsum(m[1] for m in per_user) / n
    hr = math.fsum(m[2] for m in per_user) / n
    return MetricsReport(dataset=split_name, model=model, k=k,
                         recall=recall, ndcg=ndcg, hr=hr, n_users=n)


# scores ranked together (at least one row): keeps a slice's int64
# argpartition indices and negated score copy near 3 MB
_SELECT_CELLS = 1 << 18


def _part_matrix(split: DatasetSplit, part: str) -> InteractionMatrix:
    if part not in ("val", "test"):
        raise DataError(f"part must be 'val' or 'test', got {part!r}")
    return split.val if part == "val" else split.test


def _block_pairs(matrix: InteractionMatrix,
                 users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, item) of every stored pair of ``users``; row r is users[r]."""
    degrees = matrix.user_degrees[users]
    rows = np.repeat(np.arange(len(users)), degrees)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    return rows, matrix.indices[np.repeat(matrix.indptr[users], degrees) + offsets]


def _rank_rows(scores: np.ndarray, users: np.ndarray, train: InteractionMatrix,
               target: InteractionMatrix, k: int,
               discount: np.ndarray, ideal: np.ndarray) -> list[tuple[float, float, float]]:
    """Per-user (recall, ndcg, hr) for one block of ascending users.

    Train items are masked to -inf in ``scores``. ``argpartition`` picks
    each row's k best; a row keeps that set only when it is the exact top
    k, i.e. no unselected item ties the kth score and at least k
    candidates exist. The other rows go through ``_topk_within`` and the
    per-user metric functions. Hits are summed left to right against the
    same ``math.log2`` discounts, so every float equals ``ndcg_at_k``'s.
    """
    n_items = scores.shape[1]
    rows, cols = _block_pairs(train, users)
    scores[rows, cols] = -np.inf
    finite = np.isfinite(scores)
    exact = np.zeros(len(users), dtype=bool)
    per_user: list[tuple[float, float, float]] = []
    if k < n_items:
        neg = np.where(finite, -scores, np.inf)
        top = np.argpartition(neg, k - 1, axis=1)[:, :k]
        top_neg = np.take_along_axis(neg, top, axis=1)
        exact = np.count_nonzero(neg <= top_neg.max(axis=1)[:, None], axis=1) == k
        order = np.lexsort((top, top_neg), axis=1)
        top = np.take_along_axis(top, order, axis=1)[exact]
        keys = users[exact, None] * n_items + top
        _check_exclusion(keys, users[rows] * n_items + cols)

        relevant = np.zeros(scores.shape, dtype=bool)
        relevant[_block_pairs(target, users)] = True
        hits = np.take_along_axis(relevant[exact], top, axis=1)
        n_hits = np.count_nonzero(hits, axis=1)
        n_rel = target.user_degrees[users[exact]]
        dcg = np.cumsum(hits * discount, axis=1)[:, -1]
        per_user.extend(zip((n_hits / n_rel).tolist(),
                            (dcg / ideal[np.minimum(n_rel, k)]).tolist(),
                            (n_hits > 0).astype(np.float64).tolist()))
    for row in np.flatnonzero(~exact).tolist():
        u = int(users[row])
        train_items = train.items_of(u)
        top_row = _topk_within(scores[row], np.flatnonzero(finite[row]), k)
        _check_exclusion(top_row, train_items)
        relevant_set = set(target.items_of(u).tolist())
        per_user.append((recall_at_k(top_row, relevant_set),
                         ndcg_at_k(top_row, relevant_set, k),
                         hr_at_k(top_row, relevant_set)))
    return per_user


def _score_users(split: DatasetSplit, k: int, part: str, model: str,
                 score_block, block: int = 512) -> MetricsReport:
    """Rank-and-score loop shared by evaluate and the baselines.

    score_block(users) returns a writable (len(users), n_items) score
    array. Each user's candidates are the items with a finite score once
    their train items are masked to -inf. Ranking runs on row slices of
    at most ``_SELECT_CELLS`` scores, which bounds its temporaries.
    """
    target = _part_matrix(split, part)
    train = split.train
    eligible = np.flatnonzero((target.user_degrees > 0) & (train.user_degrees > 0))
    discount = np.array([1.0 / math.log2(rank + 1) for rank in range(1, k + 1)])
    ideal = np.concatenate(([0.0], np.cumsum(discount)))   # ideal[m]: m hits on top
    rows = max(1, _SELECT_CELLS // max(train.n_items, 1))
    per_user: list[tuple[float, float, float]] = []
    for start in range(0, len(eligible), block):
        batch = eligible[start:start + block]
        scores = score_block(batch)
        for lo in range(0, len(batch), rows):
            per_user.extend(_rank_rows(scores[lo:lo + rows], batch[lo:lo + rows],
                                       train, target, k, discount, ideal))
    return _aggregate(split.name, model, k, per_user)


def evaluate(split: DatasetSplit, user_emb: np.ndarray, item_emb: np.ndarray,
             k: int = 20, part: str = "test", model: str = "textgcn",
             block: int = 512) -> MetricsReport:
    """Rank every evaluable user's candidates and average the three metrics.

    A user is evaluable with >= 1 relevant item in the chosen part and
    >= 1 training interaction. Candidate scores come from the cosine of
    the supplied embeddings; the user's train items are excluded and the
    exclusion is asserted on every ranking.
    """
    train = split.train
    if user_emb.shape[0] != train.n_users or item_emb.shape[0] != train.n_items:
        raise DataError("embedding row counts do not match the split")
    user_unit, _ = unit_rows(user_emb)
    item_unit, _ = unit_rows(item_emb)
    return _score_users(split, k, part, model,
                        lambda users: user_unit[users] @ item_unit.T, block)


def baseline_random(split: DatasetSplit, k: int = 20, seed: int = 0,
                    part: str = "test") -> MetricsReport:
    """Uniformly random permutation of each user's candidates, seeded per user."""
    train = split.train
    # the candidate at position j of the user's permutation scores -j, so
    # the top k are the permutation's first k
    positions = np.arange(train.n_items, dtype=np.float64)

    def score_block(users: np.ndarray) -> np.ndarray:
        scores = np.full((len(users), train.n_items), -np.inf)
        for row, u in enumerate(users.tolist()):
            order = np.random.default_rng((seed, u)).permutation(
                _candidates(train.n_items, train.items_of(u)))
            scores[row, order] = -positions[:len(order)]
        return scores

    return _score_users(split, k, part, "random", score_block)


def baseline_pop(split: DatasetSplit, k: int = 20, part: str = "test") -> MetricsReport:
    """Most train-popular items first (ties by ascending index), minus train items."""
    degrees = split.train.item_degrees.astype(np.float64)
    return _score_users(split, k, part, "pop",
                        lambda users: np.tile(degrees, (len(users), 1)))
