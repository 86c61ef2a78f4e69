import math

import numpy as np
import pytest

from textgcn import contrast
from textgcn.contrast import ContrastBatch, kcl_loss, localize_batch, sample_batch
from textgcn.corpus import InteractionMatrix
from textgcn.errors import DataError

from conftest import random_interactions


def infonce_oracle(user_vecs, item_vecs, pos_idx, neg_idx, tau):
    """Independent single-positive InfoNCE, written naively in float64."""
    assert pos_idx.shape[1] == 1
    users = np.asarray(user_vecs, dtype=np.float64)
    items = np.asarray(item_vecs, dtype=np.float64)
    total = 0.0
    for b in range(users.shape[0]):
        u = users[b] / np.linalg.norm(users[b])
        pos = items[pos_idx[b, 0]]
        s_pos = float(u @ (pos / np.linalg.norm(pos)))
        denom = math.exp(s_pos / tau)
        for j in neg_idx[b]:
            neg = items[j]
            s_neg = float(u @ (neg / np.linalg.norm(neg)))
            denom += math.exp(s_neg / tau)
        total += -math.log(math.exp(s_pos / tau) / denom)
    return total / users.shape[0]


def reference_kcl_loss(user_vecs, item_vecs, pos_idx, neg_idx, temperature, chunk=256):
    """Row-wise form of kcl_loss: (C,k,d)/(C,J,d) gathers and np.add.at scatters."""
    n_users, k = pos_idx.shape
    u64 = np.asarray(user_vecs, dtype=np.float64)
    i64 = np.asarray(item_vecs, dtype=np.float64)
    u_norm = np.linalg.norm(u64, axis=1)
    i_norm = np.linalg.norm(i64, axis=1)
    u_unit = u64 / u_norm[:, None]
    i_unit = i64 / i_norm[:, None]
    inv_scale = 1.0 / (n_users * k * temperature)
    loss = 0.0
    d_user = np.zeros_like(u64)
    d_item = np.zeros_like(i64)
    for start in range(0, n_users, chunk):
        stop = min(start + chunk, n_users)
        uu = u_unit[start:stop]
        pi = pos_idx[start:stop]
        ni = neg_idx[start:stop]
        pos_unit = i_unit[pi]
        neg_unit = i_unit[ni]
        pos_sim = np.einsum("cd,ckd->ck", uu, pos_unit)
        neg_sim = np.einsum("cd,cjd->cj", uu, neg_unit)
        a = pos_sim / temperature
        b = neg_sim / temperature
        m = np.maximum(a.max(axis=1), b.max(axis=1))[:, None]
        ea = np.exp(a - m)
        eb = np.exp(b - m)
        z = ea + eb.sum(axis=1)[:, None]
        loss += float(np.sum(-(a - m) + np.log(z)))
        coef_pos = (ea / z - 1.0) * inv_scale
        coef_neg = eb * (1.0 / z).sum(axis=1)[:, None] * inv_scale
        d_user[start:stop] = (
            np.einsum("ck,ckd->cd", coef_pos, pos_unit)
            - np.sum(coef_pos * pos_sim, axis=1)[:, None] * uu
            + np.einsum("cj,cjd->cd", coef_neg, neg_unit)
            - np.sum(coef_neg * neg_sim, axis=1)[:, None] * uu
        ) / u_norm[start:stop, None]
        dpos = (coef_pos[:, :, None] * (uu[:, None, :] - pos_sim[:, :, None] * pos_unit)
                / i_norm[pi][:, :, None])
        dneg = (coef_neg[:, :, None] * (uu[:, None, :] - neg_sim[:, :, None] * neg_unit)
                / i_norm[ni][:, :, None])
        np.add.at(d_item, pi.ravel(), dpos.reshape(-1, d_item.shape[1]))
        np.add.at(d_item, ni.ravel(), dneg.reshape(-1, d_item.shape[1]))
    return loss / (n_users * k), d_user.astype(np.float32), d_item.astype(np.float32)


@pytest.mark.parametrize("n_users, n_items, dim, k, n_neg, chunk", [
    (600, 800, 64, 11, 128, 256),   # production shapes, last block partial
    (37, 40, 8, 5, 16, 16),         # items collide within and across users
    (50, 3000, 4, 3, 7, 32),        # many items: blocks shrink below chunk
])
def test_matches_rowwise_reference(rng, n_users, n_items, dim, k, n_neg, chunk):
    users = rng.standard_normal((n_users, dim)).astype(np.float32)
    items = rng.standard_normal((n_items, dim)).astype(np.float32)
    pos = rng.integers(0, n_items, size=(n_users, k))
    neg = rng.integers(0, n_items, size=(n_users, n_neg))
    neg[:, 0] = pos[:, 0]              # one item both positive and negative
    pos[1::2, -1] = pos[0, 0]          # and shared across users
    want = reference_kcl_loss(users, items, pos, neg, 0.15, chunk)
    got = kcl_loss(users, items, pos, neg, 0.15, chunk)
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == np.float32
        np.testing.assert_allclose(g, w, rtol=1e-6, atol=1e-6 * np.abs(w).max())


class TestSampler:
    def test_with_replacement_when_short(self):
        train = InteractionMatrix.from_rows(1, 10, [[2, 5, 7]])
        batch = sample_batch(train, [0], pos_k=5, neg_j=3, seed=1, epoch=0)
        assert batch.positives.shape == (1, 5)
        assert set(batch.positives.ravel().tolist()) <= {2, 5, 7}

    def test_without_replacement_when_enough(self):
        train = InteractionMatrix.from_rows(1, 10, [[0, 1, 2, 3, 4, 5]])
        batch = sample_batch(train, [0], pos_k=4, neg_j=2, seed=1, epoch=0)
        assert len(set(batch.positives[0].tolist())) == 4

    def test_negatives_exclude_interactions(self, rng):
        train = random_interactions(rng, 20, 15, 10)
        batch = sample_batch(train, np.arange(20), pos_k=2, neg_j=8, seed=3, epoch=2)
        for row, u in enumerate(batch.users):
            interacted = set(train.items_of(int(u)).tolist())
            assert not (set(batch.negatives[row].tolist()) & interacted)
            assert set(batch.positives[row].tolist()) <= interacted

    def test_all_items_interacted_errors(self):
        train = InteractionMatrix.from_rows(1, 3, [[0, 1, 2]])
        with pytest.raises(DataError, match="no negatives available"):
            sample_batch(train, [0], pos_k=1, neg_j=1, seed=0, epoch=0)

    def test_zero_degree_errors(self):
        train = InteractionMatrix.from_rows(2, 3, [[0], []])
        with pytest.raises(DataError, match="zero train degree"):
            sample_batch(train, [1], pos_k=1, neg_j=1, seed=0, epoch=0)

    def test_deterministic_streams(self, rng):
        train = random_interactions(rng, 10, 30, 6)
        sampling = dict(pos_k=3, neg_j=5, seed=9)
        a = sample_batch(train, np.arange(10), **sampling, epoch=4)
        b = sample_batch(train, np.arange(10), **sampling, epoch=4)
        assert np.array_equal(a.positives, b.positives)
        assert np.array_equal(a.negatives, b.negatives)
        # stream depends only on (seed, epoch, user): a permuted user list
        # yields the same draws per user
        perm = rng.permutation(10)
        c = sample_batch(train, perm, **sampling, epoch=4)
        back = np.argsort(perm)
        assert np.array_equal(c.positives[back], a.positives)
        assert np.array_equal(c.negatives[back], a.negatives)
        d = sample_batch(train, np.arange(10), **sampling, epoch=5)
        assert not np.array_equal(a.negatives, d.negatives)


class TestCounterSampler:
    """Properties a broken counter-based sampler would fail."""

    def test_negatives_miss_history_with_later_rounds(self):
        # user 0 leaves one free item: a first round of 2J draws keeps about
        # a tenth of them, so the rest of the row comes from later rounds
        train = InteractionMatrix.from_rows(3, 10, [list(range(9)), [3], [0, 5, 9]])
        batch = sample_batch(train, [0, 1, 2], pos_k=2, neg_j=64, seed=5, epoch=1)
        assert set(batch.negatives[0].tolist()) == {9}
        for row in (1, 2):
            interacted = set(train.items_of(row).tolist())
            assert not set(batch.negatives[row].tolist()) & interacted
            assert len(set(batch.negatives[row].tolist())) > 1

    def test_positives_distinct_and_uniform_when_enough(self):
        history = [1, 4, 6, 8, 11, 13, 17, 19]
        train = InteractionMatrix.from_rows(1, 20, [history])
        counts = np.zeros(20)
        epochs = 2000
        for epoch in range(epochs):
            row = sample_batch(train, [0], pos_k=3, neg_j=1, seed=4, epoch=epoch).positives[0]
            assert len(set(row.tolist())) == 3 and set(row.tolist()) <= set(history)
            counts[row] += 1
        # each item is in a uniform 3-subset of 8 with probability 3/8
        assert np.abs(counts[history] / epochs - 3 / 8).max() < 0.05

    def test_positives_with_replacement_when_short(self):
        train = InteractionMatrix.from_rows(1, 10, [[2, 5, 7]])
        rows = np.stack([sample_batch(train, [0], pos_k=4, neg_j=1, seed=4,
                                      epoch=epoch).positives[0] for epoch in range(600)])
        assert set(rows.ravel().tolist()) == {2, 5, 7}
        # independent draws: some rows miss an item, the counts are near uniform
        assert sum(len(set(r.tolist())) < 3 for r in rows) > 100
        shares = np.array([(rows == item).mean() for item in (2, 5, 7)])
        assert np.abs(shares - 1 / 3).max() < 0.03

    def test_negatives_uniform_over_complement(self):
        from scipy.stats import chisquare

        train = InteractionMatrix.from_rows(1, 50, [[0, 3, 7, 20, 21, 22, 48]])
        draws = np.concatenate([
            sample_batch(train, [0], pos_k=1, neg_j=500, seed=11, epoch=epoch).negatives[0]
            for epoch in range(40)])
        complement = np.setdiff1d(np.arange(50), train.items_of(0))
        counts = np.bincount(draws, minlength=50)
        assert counts[train.items_of(0)].sum() == 0
        assert chisquare(counts[complement]).pvalue > 0.001

    def test_draws_do_not_depend_on_batch(self, rng):
        train = random_interactions(rng, 40, 60, 12)
        whole = sample_batch(train, np.arange(40), pos_k=6, neg_j=9, seed=3, epoch=7)
        for u in (0, 17, 39):
            alone = sample_batch(train, [u], pos_k=6, neg_j=9, seed=3, epoch=7)
            assert np.array_equal(alone.positives[0], whole.positives[u])
            assert np.array_equal(alone.negatives[0], whole.negatives[u])
        other_seed = sample_batch(train, np.arange(40), pos_k=6, neg_j=9, seed=4, epoch=7)
        assert not np.array_equal(other_seed.negatives, whole.negatives)
        assert not np.array_equal(other_seed.positives, whole.positives)

    def test_seed_beyond_64_bits(self):
        train = InteractionMatrix.from_rows(2, 30, [[1, 2, 3], [4, 5]])
        low = sample_batch(train, [0, 1], pos_k=2, neg_j=8, seed=5, epoch=1)
        high = sample_batch(train, [0, 1], pos_k=2, neg_j=8, seed=2 ** 64 + 5, epoch=1)
        assert not np.array_equal(low.negatives, high.negatives)

    def test_seed_beyond_64_bits_trains(self):
        from textgcn.synthetic import SyntheticConfig, generate_clustered_split
        from textgcn.training import TrainConfig, train

        split = generate_clustered_split(SyntheticConfig(n_users=30, n_items=40, seed=1))
        item_emb = np.random.default_rng(0).standard_normal((40, 8)).astype(np.float32)
        cfg = TrainConfig(d_out=4, n_layers=1, neg_samples=8, batch_users=16,
                          max_epochs=2, seed=2 ** 64 + 3)
        _, log, _ = train(split, item_emb, cfg)
        assert len(log.epochs) == 2 and all(np.isfinite(r.loss) for r in log.epochs)

    def test_membership_blocks_give_the_same_draws(self, rng, monkeypatch):
        n_users, n_items = 24, 400_000
        rows = [sorted(rng.choice(n_items, size=int(rng.integers(1, 30)),
                                  replace=False).tolist()) for _ in range(n_users)]
        train = InteractionMatrix.from_rows(n_users, n_items, rows)
        assert n_users * n_items > contrast.MEMBERSHIP_BYTES    # the default bound splits it
        args = dict(pos_k=5, neg_j=40, seed=8, epoch=2)
        chunked = sample_batch(train, np.arange(n_users), **args)
        monkeypatch.setattr(contrast, "MEMBERSHIP_BYTES", n_users * n_items)
        whole = sample_batch(train, np.arange(n_users), **args)
        monkeypatch.setattr(contrast, "MEMBERSHIP_BYTES", 1)
        per_user = sample_batch(train, np.arange(n_users), **args)
        for other in (whole, per_user):
            assert np.array_equal(chunked.positives, other.positives)
            assert np.array_equal(chunked.negatives, other.negatives)
        for u in range(n_users):
            assert not set(chunked.negatives[u].tolist()) & set(rows[u])


@pytest.mark.parametrize("k, n_neg", [(1, 64), (4, 128), (6, 256), (20, 64)])
def test_localize_batch_matches_unique(rng, k, n_neg):
    for n_items in (5, 300, 5000):     # from every item repeated to few repeats
        batch = ContrastBatch(users=np.arange(32),
                              positives=rng.integers(0, n_items, size=(32, k)),
                              negatives=rng.integers(0, n_items, size=(32, n_neg)))
        flat = np.concatenate([batch.positives.ravel(), batch.negatives.ravel()])
        want_items, want_inverse = np.unique(flat, return_inverse=True)
        unique_items, pos_local, neg_local = localize_batch(batch)
        assert unique_items.dtype == want_items.dtype
        assert unique_items.tobytes() == want_items.tobytes()
        got_inverse = np.concatenate([pos_local.ravel(), neg_local.ravel()])
        assert got_inverse.dtype == want_inverse.dtype
        assert got_inverse.tobytes() == want_inverse.tobytes()


def test_localize_batch_roundtrip():
    batch = ContrastBatch(users=np.array([0, 1]),
                          positives=np.array([[7, 3], [3, 3]]),
                          negatives=np.array([[9, 7], [1, 9]]))
    unique_items, pos_local, neg_local = localize_batch(batch)
    assert unique_items.tolist() == [1, 3, 7, 9]
    assert np.array_equal(unique_items[pos_local], batch.positives)
    assert np.array_equal(unique_items[neg_local], batch.negatives)


class TestLossValues:
    def test_scalar_case(self):
        # sim+ = 1, sim- = 0, tau = 1 -> log(1 + e^-1)
        user = np.array([[1.0, 0.0]])
        items = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _, _ = kcl_loss(user, items, np.array([[0]]), np.array([[1]]), 1.0)
        assert abs(loss - 0.3132616875182228) < 1e-6

    def test_all_sims_equal(self):
        # every term is log(1 + J); with J = 1 that is log 2
        user = np.array([[1.0, 0.0]])
        items = np.array([[2.0, 0.0], [0.5, 0.0]])
        loss, _, _ = kcl_loss(user, items, np.array([[0]]), np.array([[1]]), 0.7)
        assert abs(loss - math.log(2.0)) < 1e-9

    def test_k1_matches_independent_infonce(self, rng):
        for _ in range(100):
            n_users = int(rng.integers(1, 6))
            n_items = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            users = rng.standard_normal((n_users, d))
            items = rng.standard_normal((n_items, d))
            pos = rng.integers(0, n_items, size=(n_users, 1))
            neg = rng.integers(0, n_items, size=(n_users, int(rng.integers(1, 5))))
            tau = float(rng.uniform(0.1, 2.0))
            loss, _, _ = kcl_loss(users, items, pos, neg, tau)
            assert abs(loss - infonce_oracle(users, items, pos, neg, tau)) < 1e-6

    def test_positivity(self, rng):
        for _ in range(50):
            users = rng.standard_normal((3, 4))
            items = rng.standard_normal((6, 4))
            pos = rng.integers(0, 6, size=(3, 2))
            neg = rng.integers(0, 6, size=(3, 3))
            loss, _, _ = kcl_loss(users, items, pos, neg, 0.5)
            assert loss > 0

    def test_scale_invariance_of_rows(self, rng):
        users = rng.standard_normal((3, 4))
        items = rng.standard_normal((6, 4))
        pos = rng.integers(0, 6, size=(3, 2))
        neg = rng.integers(0, 6, size=(3, 3))
        base, _, _ = kcl_loss(users, items, pos, neg, 0.5)
        users2 = users.copy()
        users2[1] *= 5.0
        items2 = items.copy()
        items2[4] *= 0.01
        scaled, _, _ = kcl_loss(users2, items2, pos, neg, 0.5)
        assert abs(base - scaled) < 1e-5

    def test_monotone_in_positive_similarity(self):
        items = np.array([[1.0, 0.0], [0.0, 1.0]])
        losses = []
        for angle in (0.9, 0.6, 0.3, 0.0):
            user = np.array([[math.cos(angle), math.sin(angle)]])
            loss, _, _ = kcl_loss(user, items, np.array([[0]]), np.array([[1]]), 1.0)
            losses.append(loss)
        # angle shrinking -> sim(u, pos) grows, sim(u, neg) shrinks -> loss falls
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_duplicated_positives_leave_loss_unchanged(self, rng):
        users = rng.standard_normal((4, 5))
        items = rng.standard_normal((9, 5))
        pos = rng.integers(0, 9, size=(4, 3))
        neg = rng.integers(0, 9, size=(4, 4))
        a, _, _ = kcl_loss(users, items, pos, neg, 0.3)
        b, _, _ = kcl_loss(users, items, np.tile(pos, (1, 2)), neg, 0.3)
        assert abs(a - b) < 1e-6

    def test_zero_norm_row_errors(self):
        users = np.zeros((1, 3))
        items = np.ones((2, 3))
        with pytest.raises(DataError, match="zero-norm"):
            kcl_loss(users, items, np.array([[0]]), np.array([[1]]), 1.0)

    def test_deterministic_grads(self, rng):
        users = rng.standard_normal((5, 4))
        items = rng.standard_normal((8, 4))
        pos = rng.integers(0, 8, size=(5, 2))
        neg = rng.integers(0, 8, size=(5, 6))
        a = kcl_loss(users, items, pos, neg, 0.2)
        b = kcl_loss(users, items, pos, neg, 0.2)
        assert a[0] == b[0]
        assert a[1].tobytes() == b[1].tobytes()
        assert a[2].tobytes() == b[2].tobytes()


def test_gradients_match_central_differences(rng):
    h = 1e-6
    for _ in range(100):
        n_users = int(rng.integers(1, 5))
        n_items = int(rng.integers(2, 8))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        j = int(rng.integers(1, 5))
        users = rng.standard_normal((n_users, d))
        items = rng.standard_normal((n_items, d))
        pos = rng.integers(0, n_items, size=(n_users, k))
        neg = rng.integers(0, n_items, size=(n_users, j))
        tau = float(rng.uniform(0.2, 1.5))
        _, d_user, d_item = kcl_loss(users, items, pos, neg, tau)

        def loss_of(u, it):
            return kcl_loss(u, it, pos, neg, tau)[0]

        for target, grad in ((users, d_user), (items, d_item)):
            for idx in np.ndindex(target.shape):
                plus = target.copy()
                plus[idx] += h
                minus = target.copy()
                minus[idx] -= h
                if target is users:
                    numeric = (loss_of(plus, items) - loss_of(minus, items)) / (2 * h)
                else:
                    numeric = (loss_of(users, plus) - loss_of(users, minus)) / (2 * h)
                denom = max(abs(numeric), abs(float(grad[idx])), 1e-4)
                assert abs(numeric - grad[idx]) / denom <= 1e-3
