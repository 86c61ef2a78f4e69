"""Contrastive batch sampling and the k-positive contrastive objective.

Each batch user anchors k positives drawn from their training history and
J shared negatives drawn uniformly from the items they never interacted
with. Every positive is contrasted against that positive plus the J
negatives only (other positives never enter the denominator), with cosine
similarity scaled by a temperature. Per-user RNG streams are keyed by
(seed, epoch, user) so sampling is reproducible no matter how work is
scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import InteractionMatrix
from .errors import DataError


@dataclass
class ContrastBatch:
    """Sampled indices, all in the global item namespace."""

    users: np.ndarray       # (B,)
    positives: np.ndarray   # (B, k)
    negatives: np.ndarray   # (B, J)


def _sample_negatives(rng: np.random.Generator, interacted: np.ndarray,
                      n_items: int, count: int) -> np.ndarray:
    """Uniform over the complement of `interacted`, by rejection; duplicates allowed."""
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        draw = rng.integers(0, n_items, size=max(16, 2 * (count - filled)))
        pos = np.searchsorted(interacted, draw)
        pos_clip = np.minimum(pos, len(interacted) - 1)
        hit = interacted[pos_clip] == draw if len(interacted) else np.zeros(len(draw), bool)
        keep = draw[~hit]
        take = min(len(keep), count - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def sample_batch(train: InteractionMatrix, users: np.ndarray | list[int],
                 pos_k: int, neg_j: int, seed: int, epoch: int) -> ContrastBatch:
    """Draw ``pos_k`` positives and ``neg_j`` negatives for each user of a batch.

    Positives are uniform without replacement when the user has at least k
    training items, otherwise with replacement so the count is always
    exactly k.
    """
    users = np.asarray(users, dtype=np.int64)
    positives = np.empty((len(users), pos_k), dtype=np.int64)
    negatives = np.empty((len(users), neg_j), dtype=np.int64)
    for row, u in enumerate(users):
        items = train.items_of(int(u))
        if len(items) == 0:
            raise DataError(f"user {u} has zero train degree")
        if len(items) >= train.n_items:
            raise DataError(f"no negatives available for user {u}")
        rng = np.random.default_rng((seed, epoch, int(u)))
        positives[row] = rng.choice(items, size=pos_k, replace=len(items) < pos_k)
        negatives[row] = _sample_negatives(rng, items, train.n_items, neg_j)
    return ContrastBatch(users=users, positives=positives, negatives=negatives)


def localize_batch(batch: ContrastBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique item IDs of the batch plus positive/negative indices into them."""
    n_users, k = batch.positives.shape
    flat = np.concatenate([batch.positives.ravel(), batch.negatives.ravel()])
    unique_items, inverse = np.unique(flat, return_inverse=True)
    pos_local = inverse[:n_users * k].reshape(batch.positives.shape)
    neg_local = inverse[n_users * k:].reshape(batch.negatives.shape)
    return unique_items, pos_local, neg_local


def kcl_loss(
    user_vecs: np.ndarray,
    item_vecs: np.ndarray,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    temperature: float,
    chunk: int = 256,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus exact gradients w.r.t. the user and item embedding rows.

    user_vecs is (B, d); item_vecs holds one row per distinct batch item;
    pos_idx (B, k) and neg_idx (B, J) index into item_vecs. Internals run
    in float64 with max-subtracted log-sum-exp; gradients come back as
    float32.

    Users are processed in row blocks of at most ``chunk``. Each block
    scores every item with one product ``S = u_unit @ i_unit.T``, reads the
    sampled similarities out of S, and scatters the per-pair loss
    coefficients into a dense (rows x items) matrix W, so both gradients
    are matrix products (cosine backprop, d sim(u,v)/du = (v - sim * u) / |u|):

        d_user = (W @ i_unit - rowsum(W * S) * u_unit) / |u|
        d_item = (sum over blocks of W.T @ u_unit - colsum(W * S) * i_unit) / |i|

    With many items a block has fewer rows (at least one), so that S and W
    each stay within ``chunk * (k + J) * d`` values, the size of the
    (rows, k + J, d) gathers a row-wise form would take. The result is bitwise
    reproducible for a given BLAS build and thread count: the scatters are
    ``np.bincount`` sums in a fixed order, and the block boundaries and
    matrix shapes depend only on the input shapes.
    """
    if temperature <= 0:
        raise DataError("temperature must be > 0")
    user_vecs = np.asarray(user_vecs)
    item_vecs = np.asarray(item_vecs)
    n_users, k = pos_idx.shape
    n_neg = neg_idx.shape[1]

    u64 = user_vecs.astype(np.float64)
    i64 = item_vecs.astype(np.float64)
    u_norm = np.linalg.norm(u64, axis=1)
    i_norm = np.linalg.norm(i64, axis=1)
    if np.any(u_norm == 0) or np.any(i_norm == 0):
        raise DataError("zero-norm embedding row")
    u_unit = u64 / u_norm[:, None]
    i_unit = i64 / i_norm[:, None]
    n_items, dim = i_unit.shape
    step = max(1, min(chunk, chunk * (k + n_neg) * dim // n_items))

    inv_scale = 1.0 / (n_users * k * temperature)
    loss = 0.0
    d_user = np.empty_like(u64)
    item_pull = np.zeros_like(i64)       # sum of W.T @ u_unit over blocks
    item_diag = np.zeros(n_items)        # colsum(W * S) over blocks
    for start in range(0, n_users, step):
        stop = min(start + step, n_users)
        uu = u_unit[start:stop]                      # (C, d)
        cols = np.concatenate([pos_idx[start:stop], neg_idx[start:stop]], axis=1)
        sampled = np.take_along_axis(uu @ i_unit.T, cols, axis=1)   # (C, k + J)

        a = sampled[:, :k] / temperature
        b = sampled[:, k:] / temperature
        m = np.maximum(a.max(axis=1), b.max(axis=1))[:, None]
        ea = np.exp(a - m)
        eb = np.exp(b - m)
        z = ea + eb.sum(axis=1)[:, None]             # (C, k)
        loss += float(np.sum(-(a - m) + np.log(z)))

        coef = np.concatenate([(ea / z - 1.0) * inv_scale,      # dL/d sampled sim
                               eb * (1.0 / z).sum(axis=1)[:, None] * inv_scale], axis=1)
        coef_sim = coef * sampled

        rows = stop - start
        flat = (np.arange(rows)[:, None] * n_items + cols).ravel()
        w = np.bincount(flat, weights=coef.ravel(),
                        minlength=rows * n_items).reshape(rows, n_items)

        d_user[start:stop] = ((w @ i_unit - coef_sim.sum(axis=1)[:, None] * uu)
                              / u_norm[start:stop, None])
        item_pull += w.T @ uu
        item_diag += np.bincount(cols.ravel(), weights=coef_sim.ravel(),
                                 minlength=n_items)

    d_item = (item_pull - item_diag[:, None] * i_unit) / i_norm[:, None]
    loss /= n_users * k
    if not np.isfinite(loss):
        raise DataError("non-finite contrastive loss")
    return loss, d_user.astype(np.float32), d_item.astype(np.float32)
