"""Contrastive batch sampling and the k-positive contrastive objective.

Each batch user anchors k positives drawn from their training history and
J shared negatives drawn uniformly from the items they never interacted
with. Every positive is contrasted against that positive plus the J
negatives only (other positives never enter the denominator), with cosine
similarity scaled by a temperature.

Sampling is counter-based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011): one 64-bit key per (seed, epoch), from
``np.random.SeedSequence``, is mixed with the user id and a stream tag into
a per-user state, and draw ``c`` of that stream is the SplitMix64 finalizer
of ``state + (c + 1) * golden gamma``. Every draw is a pure function of
(seed, epoch, user, stream, counter), evaluated for a whole batch as array
operations, so sampling is reproducible no matter how users are batched,
ordered or scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import InteractionMatrix
from .errors import DataError

_GAMMA = np.uint64(0x9E3779B97F4A7C15)     # SplitMix64's golden-ratio increment
_POS_TAG, _NEG_TAG = 0, 1                  # stream tags: positives, negatives
# Bounds the (users x items) membership bitmap: membership is tested for
# max(1, MEMBERSHIP_BYTES // n_items) users at a time, so a single user's
# row is always built, even when it alone is larger.
MEMBERSHIP_BYTES = 1 << 22


@dataclass
class ContrastBatch:
    """Sampled indices, all in the global item namespace."""

    users: np.ndarray       # (B,)
    positives: np.ndarray   # (B, k)
    negatives: np.ndarray   # (B, J)


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array; the arithmetic wraps."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _streams(key: np.ndarray, users: np.ndarray, tag: int) -> np.ndarray:
    """Per-user stream states of one stream tag under one (seed, epoch) key."""
    return _mix(key ^ _mix(users.astype(np.uint64) * np.uint64(2) + np.uint64(tag)))


def _draws(states: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Draw number ``counters`` of the streams ``states`` (broadcast): uint64 words."""
    return _mix(states + (counters.astype(np.uint64) + np.uint64(1)) * _GAMMA)


def _segments(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and offset within its row of every entry of rows ``degrees`` long."""
    row = np.repeat(np.arange(len(degrees)), degrees)
    return row, np.arange(len(row)) - (np.cumsum(degrees) - degrees)[row]


def _positives(indices: np.ndarray, starts: np.ndarray, degrees: np.ndarray,
               states: np.ndarray, pos_k: int) -> np.ndarray:
    """The k history items with the smallest keys, or k keyed picks if the history is short."""
    out = np.empty((len(starts), pos_k), dtype=np.int64)
    full = degrees >= pos_k
    if full.any():
        seg_row, offset = _segments(degrees[full])
        keys = _draws(states[full][seg_row], offset)
        # row above the key's high 32 bits: one sort orders every history by
        # key; ties keep history order, so they too depend on the user alone
        order = np.argsort((seg_row.astype(np.uint64) << np.uint64(32))
                           | (keys >> np.uint64(32)), kind="stable")
        chosen = order[offset < pos_k]
        out[full] = indices[starts[full][seg_row[chosen]] + offset[chosen]].reshape(-1, pos_k)
    short = ~full
    if short.any():
        picks = _draws(states[short, None], np.arange(pos_k))
        picks %= degrees[short, None].astype(np.uint64)
        out[short] = indices[starts[short, None] + picks.astype(np.int64)]
    return out


def _negatives(indices: np.ndarray, starts: np.ndarray, degrees: np.ndarray,
               states: np.ndarray, n_items: int, neg_j: int) -> np.ndarray:
    """The first J keyed draws over the catalog that miss each user's history.

    Draws come in rounds of consecutive counters, the whole block of users
    at once; only users still short of J take another round. Membership is
    one lookup into a (users x items) bitmap of the block's histories.
    """
    n_rows = len(starts)
    hist_row, hist_pos = _segments(degrees)
    interacted = np.zeros(n_rows * n_items, dtype=bool)
    interacted[hist_row * n_items + indices[starts[hist_row] + hist_pos]] = True

    out = np.empty((n_rows, neg_j), dtype=np.int64)
    filled = np.zeros(n_rows, dtype=np.int64)
    width = max(16, 2 * neg_j)
    rows = np.arange(n_rows)
    first = 0
    while len(rows):
        draws = (_draws(states[rows, None], np.arange(first, first + width))
                 % np.uint64(n_items)).astype(np.int64)
        miss = ~interacted[rows[:, None] * n_items + draws]
        slot = filled[rows, None] + np.cumsum(miss, axis=1) - 1
        keep = miss & (slot < neg_j)
        out[np.broadcast_to(rows[:, None], keep.shape)[keep], slot[keep]] = draws[keep]
        filled[rows] += keep.sum(axis=1)
        rows = rows[filled[rows] < neg_j]
        first += width
    return out


def sample_batch(train: InteractionMatrix, users: np.ndarray | list[int],
                 pos_k: int, neg_j: int, seed: int, epoch: int) -> ContrastBatch:
    """Draw ``pos_k`` positives and ``neg_j`` negatives for each user of a batch.

    Positives are uniform without replacement when the user has at least k
    training items (the k with the smallest keys), otherwise with
    replacement so the count is always exactly k. Negatives are uniform
    over the items the user never interacted with, with replacement.
    """
    users = np.asarray(users, dtype=np.int64)
    starts = train.indptr[users]
    degrees = train.indptr[users + 1] - starts
    bad = np.flatnonzero((degrees == 0) | (degrees >= train.n_items))
    if len(bad):
        u = users[bad[0]]
        if degrees[bad[0]] == 0:
            raise DataError(f"user {u} has zero train degree")
        raise DataError(f"no negatives available for user {u}")

    key = np.random.SeedSequence((seed, epoch)).generate_state(1, np.uint64)
    positives = _positives(train.indices, starts, degrees,
                           _streams(key, users, _POS_TAG), pos_k)
    neg_states = _streams(key, users, _NEG_TAG)
    negatives = np.empty((len(users), neg_j), dtype=np.int64)
    block = max(1, MEMBERSHIP_BYTES // train.n_items)
    for lo in range(0, len(users), block):
        hi = lo + block
        negatives[lo:hi] = _negatives(train.indices, starts[lo:hi], degrees[lo:hi],
                                      neg_states[lo:hi], train.n_items, neg_j)
    return ContrastBatch(users=users, positives=positives, negatives=negatives)


def localize_batch(batch: ContrastBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique item IDs of the batch plus positive/negative indices into them.

    The same arrays as ``np.unique(flat, return_inverse=True)``, from a
    presence mask over the item IDs instead of a sort.
    """
    n_users, k = batch.positives.shape
    flat = np.concatenate([batch.positives.ravel(), batch.negatives.ravel()])
    present = np.zeros(flat.max(initial=-1) + 1, dtype=bool)
    present[flat] = True
    unique_items = np.flatnonzero(present).astype(flat.dtype, copy=False)
    inverse = (np.cumsum(present) - 1)[flat]
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
