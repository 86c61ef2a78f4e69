"""Independent reference computations the workloads check the program against.

Nothing here calls ``textgcn``: diffusion is recomputed in float64 from edge
lists, rankings come from a full sort of every candidate, and the
popularity baseline from raw item counts. Users and items are addressed by
dense index; callers translate external IDs where the program's order
differs from the generator's.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp


def diffuse_f64(n_users: int, n_items: int, users: np.ndarray, items: np.ndarray,
                item_emb: np.ndarray, n_layers: int) -> tuple[np.ndarray, np.ndarray]:
    """Layer-averaged user and item rows of symmetric-normalized propagation.

    Layer 0 is the mean of each user's item vectors (zero without items);
    each layer multiplies by the 1/sqrt(deg_u deg_i)-weighted bipartite
    adjacency; the result is the mean of layers 0..n_layers.
    """
    du = np.bincount(users, minlength=n_users).astype(np.float64)
    di = np.bincount(items, minlength=n_items).astype(np.float64)
    ones = sp.csr_matrix((np.ones(len(users)), (users, items)), shape=(n_users, n_items))
    norm = sp.csr_matrix((1.0 / np.sqrt(du[users] * di[items]), (users, items)),
                         shape=(n_users, n_items))
    item_l = np.asarray(item_emb, dtype=np.float64)
    user_l = (ones @ item_l) / np.maximum(du, 1.0)[:, None]
    user_acc, item_acc = user_l.copy(), item_l.copy()
    for _ in range(n_layers):
        user_l, item_l = norm @ item_l, norm.T @ user_l
        user_acc += user_l
        item_acc += item_l
    return user_acc / (n_layers + 1), item_acc / (n_layers + 1)


def _unit(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    return matrix / np.where(norms == 0, 1.0, norms)[:, None]


def top_k(scores: np.ndarray, sorted_scores: np.ndarray, k: int) -> np.ndarray:
    """First k items by (score desc, index asc), given the row's full ascending sort.

    Excluded items carry -inf. The full sort fixes the kth-largest score;
    every item at or above it is then ordered explicitly.
    """
    k = min(k, int(np.isfinite(scores).sum()))
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    picked = np.flatnonzero(scores >= sorted_scores[len(scores) - k])
    return picked[np.lexsort((picked, -scores[picked]))][:k]


def _user_metrics(top: np.ndarray, relevant: set[int], k: int) -> tuple[float, float, float]:
    hit_ranks = [rank for rank, item in enumerate(top.tolist(), start=1) if item in relevant]
    dcg = math.fsum(1.0 / math.log2(rank + 1) for rank in hit_ranks)
    ideal = math.fsum(1.0 / math.log2(rank + 1) for rank in range(1, min(len(relevant), k) + 1))
    return len(hit_ranks) / len(relevant), dcg / ideal, 1.0 if hit_ranks else 0.0


def _mean(per_user: list[tuple[float, float, float]]) -> dict:
    n = len(per_user)
    return {"recall": math.fsum(m[0] for m in per_user) / n,
            "ndcg": math.fsum(m[1] for m in per_user) / n,
            "hr": math.fsum(m[2] for m in per_user) / n, "users": n}


def rows_of(indptr: np.ndarray, indices: np.ndarray, u: int) -> np.ndarray:
    return indices[indptr[u]:indptr[u + 1]]


def ranking_metrics(user_emb: np.ndarray, item_emb: np.ndarray, train: tuple, target: tuple,
                    k: int = 20, block: int = 256) -> dict:
    """Recall/NDCG/HR@k by cosine in float64 with a full sort of each user's candidates.

    ``train`` and ``target`` are (indptr, indices) CSR pairs over dense
    indices. Users need at least one train and one target item.
    """
    users = np.flatnonzero((np.diff(train[0]) > 0) & (np.diff(target[0]) > 0))
    user_unit, item_unit = _unit(user_emb), _unit(item_emb)
    per_user = []
    for start in range(0, len(users), block):
        batch = users[start:start + block]
        scores = user_unit[batch] @ item_unit.T
        for row, u in enumerate(batch.tolist()):
            scores[row, rows_of(*train, u)] = -np.inf
        ordered = np.sort(scores, axis=1)
        for row, u in enumerate(batch.tolist()):
            top = top_k(scores[row], ordered[row], k)
            per_user.append(_user_metrics(top, set(rows_of(*target, u).tolist()), k))
    return _mean(per_user)


def pop_metrics(train: tuple, target: tuple, n_items: int, k: int = 20) -> dict:
    """Most-counted train items first (ties by ascending index), minus each user's own."""
    counts = np.zeros(n_items, dtype=np.int64)
    for item in train[1].tolist():
        counts[item] += 1
    order = sorted(range(n_items), key=lambda i: (-counts[i], i))
    users = np.flatnonzero((np.diff(train[0]) > 0) & (np.diff(target[0]) > 0))
    per_user = []
    for u in users.tolist():
        own = set(rows_of(*train, u).tolist())
        top = []
        for item in order:
            if item not in own:
                top.append(item)
                if len(top) == k:
                    break
        per_user.append(_user_metrics(np.asarray(top), set(rows_of(*target, u).tolist()), k))
    return _mean(per_user)


def random_recall(train: tuple, target: tuple, n_items: int, k: int = 20) -> float:
    """Expected Recall@k of a uniformly random ranking of each user's candidates."""
    users = np.flatnonzero((np.diff(train[0]) > 0) & (np.diff(target[0]) > 0))
    candidates = n_items - np.diff(train[0])[users]
    return float(np.mean(np.minimum(k, candidates) / candidates))


def max_abs_rel_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute difference, relative to the largest reference magnitude."""
    scale = max(float(np.max(np.abs(expected))), 1e-30)
    return float(np.max(np.abs(np.asarray(actual, np.float64) - expected))) / scale
