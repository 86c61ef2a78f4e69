"""Top-k recommendation by cosine similarity, ranking metrics, baselines.

Candidates are always the items the user has not interacted with in
training. One kernel, ``_topk_rows``, ranks for ``recommend_topk``,
``evaluate`` and both baselines: a row's top k by score descending, ties
broken by ascending item index, so rankings are reproducible and equal a
full stable sort. One scorer, ``_cosine``, scores for ``recommend_topk``
and ``evaluate``: ``(user_unit @ item_emb.T) / item_norms`` over the raw
item table. Against float64 cosine (2,000 users, 12,000 x 256 diffused
items) it errs by at most 3.4e-7 for a user vector and 1.1e-6 for a block
of user rows, a rounding fixed for one numpy build and CPU dispatch.
The norms of a frozen item table (what ``diffuse``, ``model_outputs`` and
``training.project`` return) are computed once and reused for every
request against it, until the next frozen table is scored.
Per-user metrics are averaged with exactly rounded summation (math.fsum),
making the report independent of user iteration order.
"""

from __future__ import annotations

import json
import math
import weakref
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


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalized copy; zero-norm rows stay zeros."""
    matrix = np.asarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(matrix, axis=1)
    return matrix / np.where(norms == 0, 1.0, norms).astype(np.float32)[:, None]


# (weak reference to the last frozen table scored, its read-only norms)
_frozen_norms: tuple[weakref.ref, np.ndarray] | None = None


def _item_table(item_emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The item table as float32 and its row norms, zero norms taken as 1.

    A frozen table (a float32 array that owns its data and is not
    writeable) has its norms computed once and reused until the next
    frozen table is scored; the cache holds the table only weakly. Any
    other table, a read-only view included (its base may still change),
    gets fresh norms on every call.
    """
    global _frozen_norms
    frozen = (isinstance(item_emb, np.ndarray) and item_emb.dtype == np.float32
              and item_emb.base is None and not item_emb.flags.writeable)
    cached = _frozen_norms
    if frozen and cached is not None and cached[0]() is item_emb:
        return item_emb, cached[1]
    item_emb = np.asarray(item_emb, dtype=np.float32)
    norms = np.sqrt(np.einsum("ij,ij->i", item_emb, item_emb))
    norms[norms == 0] = 1.0
    if frozen:
        norms.setflags(write=False)
        _frozen_norms = (weakref.ref(item_emb), norms)
    return item_emb, norms


def _cosine(user_unit: np.ndarray, item_emb: np.ndarray, item_norms: np.ndarray) -> np.ndarray:
    """Fresh scores of a unit user vector, or of unit user rows, against every item."""
    scores = user_unit @ item_emb.T
    scores /= item_norms
    return scores


def _topk_rows(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's top ``min(k, n_items)`` indices by (score desc, index asc).

    A ``-inf`` score marks a non-candidate; ``valid`` is False on the
    trailing places of rows with fewer candidates. ``argpartition`` picks
    the k largest; when a whole-block count shows that it split a tie at
    the kth score, the tied places of those rows are refilled with the
    lowest tied indices. The result equals a full stable sort truncated.
    """
    n_rows, n_items = scores.shape
    rows = np.arange(n_rows)[:, None]
    if k < n_items:
        top = np.argpartition(scores, n_items - k, axis=1)[:, n_items - k:]
        top_scores = scores[rows, top]
        kth = top_scores[:, :1]                 # partition puts the kth first
        at_least = scores >= kth
        # k per row unless a tie at the kth score (-inf in rows with fewer
        # than k candidates) was split
        if np.count_nonzero(at_least) > k * n_rows:
            split = np.flatnonzero(np.count_nonzero(at_least, axis=1) > k)
            block, bound = scores[split], kth[split]
            above = block > bound
            tied = block == bound
            need = k - np.count_nonzero(above, axis=1)
            take = above | (tied & (np.cumsum(tied, axis=1) <= need[:, None]))
            top[split] = np.nonzero(take)[1].reshape(len(split), k)
            top_scores[split] = block[take].reshape(len(split), k)
    else:
        top = np.broadcast_to(np.arange(n_items), scores.shape)
        top_scores = scores
    order = np.lexsort((top, -top_scores), axis=1)
    return top[rows, order], top_scores[rows, order] > -np.inf


def recommend_topk(user_vec: np.ndarray, item_emb: np.ndarray,
                   exclude: set[int] | np.ndarray, k: int,
                   user: int | None = None) -> Ranking:
    """Top-k non-excluded items by ``_cosine`` to the user vector.

    Fewer than k candidates returns them all with the truncated flag set.
    An ``exclude`` index outside ``[0, n_items)`` raises ``DataError``.
    """
    if k < 1:
        raise DataError("k must be >= 1")
    user_vec = np.asarray(user_vec, dtype=np.float32)
    norm = np.linalg.norm(user_vec)
    if norm == 0:
        raise DataError("zero user vector")
    scores = _cosine(user_vec / norm, *_item_table(item_emb))
    excluded = np.asarray(list(exclude) if isinstance(exclude, set) else exclude,
                          dtype=np.int64)
    # a negative index would silently mask an item counted from the end
    if excluded.size and (excluded.min() < 0 or excluded.max() >= len(scores)):
        raise DataError(f"exclude holds an item index outside [0, {len(scores)})")
    scores[excluded] = -np.inf
    top, valid = _topk_rows(scores[None, :], k)
    top = top[0, valid[0]]
    return Ranking(items=top, scores=scores[top], truncated=len(top) < k, user=user)


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
# argpartition indices near 2 MB
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

    Train items are masked to -inf in ``scores`` before ``_topk_rows``.
    Hits are summed left to right against the same ``math.log2``
    discounts, so every float equals the metric functions' own.
    """
    n_items = scores.shape[1]
    rows, cols = _block_pairs(train, users)
    scores[rows, cols] = -np.inf
    top, valid = _topk_rows(scores, k)
    _check_exclusion((users[:, None] * n_items + top)[valid], users[rows] * n_items + cols)

    relevant = np.zeros(scores.shape, dtype=bool)
    relevant[_block_pairs(target, users)] = True
    hits = np.take_along_axis(relevant, top, axis=1) & valid
    n_hits = np.count_nonzero(hits, axis=1)
    n_rel = target.user_degrees[users]
    dcg = np.cumsum(hits * discount[:top.shape[1]], axis=1)[:, -1]
    return list(zip((n_hits / n_rel).tolist(),
                    (dcg / ideal[np.minimum(n_rel, k)]).tolist(),
                    (n_hits > 0).astype(np.float64).tolist()))


def _score_users(split: DatasetSplit, k: int, part: str, model: str,
                 score_block, block: int = 512) -> MetricsReport:
    """Rank-and-score loop shared by evaluate and the baselines.

    score_block(users) returns a writable (len(users), n_items) score
    array. Each user's candidates are the items not scored -inf once
    their train items are masked to -inf. Ranking runs on row slices of
    at most ``_SELECT_CELLS`` scores, which bounds its temporaries. Each
    block is freed before the next is scored, so the loop holds one
    ``block`` x n_items score array at a time.
    """
    if k < 1:
        raise DataError("k must be >= 1")
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
        del scores      # free this block before the next one is scored
    return _aggregate(split.name, model, k, per_user)


def evaluate(split: DatasetSplit, user_emb: np.ndarray, item_emb: np.ndarray,
             k: int = 20, part: str = "test", model: str = "textgcn",
             block: int = 512) -> MetricsReport:
    """Rank every evaluable user's candidates and average the three metrics.

    A user is evaluable with >= 1 relevant item in the chosen part and
    >= 1 training interaction. Candidate scores are the ``_cosine`` of each
    block's unit user rows; the user's train items are excluded and the
    exclusion is asserted on every ranking.
    """
    train = split.train
    if user_emb.shape[0] != train.n_users or item_emb.shape[0] != train.n_items:
        raise DataError("embedding row counts do not match the split")
    item_emb, item_norms = _item_table(item_emb)
    return _score_users(split, k, part, model, lambda users: _cosine(
        unit_rows(user_emb[users]), item_emb, item_norms), block)


def baseline_random(split: DatasetSplit, k: int = 20, seed: int = 0,
                    part: str = "test") -> MetricsReport:
    """A uniformly random k-subset of each user's candidates, in random order.

    Every score is an independent uniform float64 draw (float32 would make
    ties likely among thousands of candidates). Each score block draws from
    its own stream, keyed by (seed, the block's first user), so the report
    does not depend on the order blocks are scored in and is reproducible
    for (split, part, k, seed); a user's list depends on which block the
    user falls in.
    """
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    n_items = split.train.n_items
    return _score_users(split, k, part, "random", lambda users: np.random.default_rng(
        (seed, int(users[0]))).random((len(users), n_items)))


def baseline_pop(split: DatasetSplit, k: int = 20, part: str = "test") -> MetricsReport:
    """Most train-popular items first (ties by ascending index), minus train items."""
    degrees = split.train.item_degrees.astype(np.float64)
    return _score_users(split, k, part, "pop",
                        lambda users: np.tile(degrees, (len(users), 1)))
