import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from textgcn import ranking
from textgcn.errors import DataError
from textgcn.ranking import (MetricsReport, baseline_pop, baseline_random, evaluate,
                             hr_at_k, ndcg_at_k, recall_at_k, recommend_topk)

from conftest import make_split


def brute_force_metrics(topk, relevant, k):
    """Independent loop-based oracle for all three metrics."""
    hits = [int(i) for i in topk if int(i) in relevant]
    recall = len(hits) / len(relevant)
    dcg = 0.0
    for rank, item in enumerate(topk, start=1):
        if int(item) in relevant:
            dcg += 1.0 / math.log2(rank + 1)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(relevant), k) + 1))
    ndcg = dcg / idcg
    hr = 1.0 if hits else 0.0
    return recall, ndcg, hr


def dot_over_norms(items, u):
    """recommend_topk's documented scores: (u_unit @ items.T) / row norms, 0 norms as 1."""
    norms = np.sqrt(np.einsum("ij,ij->i", items, items))
    norms[norms == 0] = 1.0
    return ((u / np.linalg.norm(u)) @ items.T) / norms


class TestRecommendTopk:
    def test_orthogonal_basis(self):
        items = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        ranking = recommend_topk(np.array([1.0, 0.0]), items, set(), k=2)
        assert ranking.items.tolist() == [0, 1]
        assert np.allclose(ranking.scores, [1.0, 0.0], atol=1e-6)

    def test_exclusion(self):
        items = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        ranking = recommend_topk(np.array([1.0, 0.0]), items, {0}, k=1)
        assert ranking.items.tolist() == [1]

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        items = rng.standard_normal((30, 4)).astype(np.float32)
        u = rng.standard_normal(4)
        a = recommend_topk(u, items, {3, 4}, k=10)
        b = recommend_topk(5.0 * u, items, {3, 4}, k=10)
        assert a.items.tolist() == b.items.tolist()
        # per-item positive rescaling also leaves the order unchanged
        scales = rng.uniform(0.1, 10.0, size=30).astype(np.float32)
        c = recommend_topk(u, items * scales[:, None], {3, 4}, k=10)
        assert a.items.tolist() == c.items.tolist()

    def test_tie_break_ascending_index(self):
        items = np.array([[1.0, 0.0]] * 4, dtype=np.float32)
        ranking = recommend_topk(np.array([1.0, 0.0]), items, {1}, k=3)
        assert ranking.items.tolist() == [0, 2, 3]

    def test_fewer_candidates_flagged(self):
        items = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        ranking = recommend_topk(np.array([1.0, 1.0]), items, {0}, k=5)
        assert ranking.truncated
        assert ranking.items.tolist() == [1]

    @pytest.mark.parametrize("k", [1, 3, 7, 12, 40, 61])
    @pytest.mark.parametrize("as_set", [True, False])
    def test_ties_match_full_sort(self, rng, k, as_set):
        # few distinct cosines: small integer rows, and one-hot or zero rows
        # against a one-hot user, which score exactly 0 or 1
        tables = [(rng.integers(0, 3, size=(n, 2)) + [1, 0], rng.integers(1, 3, size=2))
                  for n in (12, 30)]
        tables.append((np.eye(6, 5)[rng.integers(0, 6, size=60)], np.eye(5)[0]))
        for items, u in tables:
            items, u = items.astype(np.float32), u.astype(np.float32)
            n_items = len(items)
            for n_exclude in (0, 4, n_items - 3, n_items):
                exclude = rng.choice(n_items, size=n_exclude, replace=False)
                got = recommend_topk(u, items, set(exclude.tolist()) if as_set else exclude, k)
                scores = dot_over_norms(items, u)
                masked = scores.copy()
                masked[exclude] = -np.inf
                want = reference_topk(masked, k)
                assert got.items.tolist() == want.tolist()
                assert got.scores.tolist() == scores[want].tolist()
                assert got.truncated == (n_items - n_exclude < k)

    def test_scores_match_float64_cosine(self, rng):
        # zero rows and rows scaled over six orders of magnitude
        for n, d in ((50, 8), (400, 64)):
            items = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            items[rng.choice(n, size=5, replace=False)] = 0.0
            items = items.astype(np.float32)
            u = rng.standard_normal(d).astype(np.float32)
            got = recommend_topk(u, items, set(), k=n)
            wide, wide_u = items.astype(np.float64), u.astype(np.float64)
            norms = np.linalg.norm(wide, axis=1)
            cosine = (wide @ wide_u) / np.where(norms == 0, 1.0, norms) / np.linalg.norm(wide_u)
            assert sorted(got.items.tolist()) == list(range(n))
            np.testing.assert_allclose(got.scores, cosine[got.items], rtol=0, atol=1e-6)
            assert np.all(got.scores[norms[got.items] == 0] == 0.0)

    def test_request_allocates_no_table_copy(self, rng):
        items = rng.standard_normal((4000, 64)).astype(np.float32)
        u = rng.standard_normal(64).astype(np.float32)
        exclude = np.arange(0, 4000, 7)
        tracemalloc.start()
        try:
            recommend_topk(u, items, exclude, k=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < items.nbytes / 4

    def test_empty_item_table(self):
        result = recommend_topk(np.ones(3), np.zeros((0, 3), np.float32), set(), k=2)
        assert result.items.tolist() == [] and result.scores.tolist() == []
        assert result.truncated

    @pytest.mark.parametrize("as_set", [True, False], ids=["set", "array"])
    @pytest.mark.parametrize("index", [-1, 4])
    def test_out_of_range_exclude_errors(self, index, as_set):
        exclude = {0, index} if as_set else np.array([0, index])
        with pytest.raises(DataError, match=r"outside \[0, 4\)"):
            recommend_topk(np.ones(3), np.ones((4, 3), np.float32), exclude, k=1)

    def test_zero_user_vector_errors(self):
        with pytest.raises(DataError, match="zero user vector"):
            recommend_topk(np.zeros(3), np.ones((4, 3), np.float32), set(), k=1)


def frozen(table) -> np.ndarray:
    """A float32 table that owns its data and is read-only, as ``diffuse`` returns."""
    table = np.array(table, dtype=np.float32)
    table.setflags(write=False)
    return table


def fresh_norms(table):
    norms = np.sqrt(np.einsum("ij,ij->i", table, table))
    norms[norms == 0] = 1.0
    return norms


class TestFrozenTableNorms:
    def test_norms_reused_until_the_next_frozen_table(self, rng):
        table, other = (frozen(rng.standard_normal((50, 8))) for _ in range(2))
        first = ranking._item_table(table)[1]
        assert ranking._item_table(table)[1] is first
        assert not first.flags.writeable
        assert np.array_equal(first, fresh_norms(table))
        assert ranking._item_table(other)[1] is ranking._item_table(other)[1]
        again = ranking._item_table(table)[1]
        assert again is not first and np.array_equal(again, first)

    def test_writeable_table_gets_fresh_norms(self, rng):
        table = rng.standard_normal((50, 8)).astype(np.float32)
        first = ranking._item_table(table)[1]
        table[3] *= 2
        second = ranking._item_table(table)[1]
        assert second is not first and np.array_equal(second, fresh_norms(table))

    def test_read_only_view_of_a_writeable_table_gets_fresh_norms(self, rng):
        base = rng.standard_normal((50, 8)).astype(np.float32)
        view = base.view()
        view.setflags(write=False)
        first = ranking._item_table(view)[1]
        base[3] *= 2
        second = ranking._item_table(view)[1]
        assert second is not first and np.array_equal(second, fresh_norms(base))

    def test_table_made_writeable_again_gets_fresh_norms(self, rng):
        table = frozen(rng.standard_normal((50, 8)))
        first = ranking._item_table(table)[1]
        table.setflags(write=True)
        table[3] *= 2
        second = ranking._item_table(table)[1]
        assert second is not first and np.array_equal(second, fresh_norms(table))

    def test_float64_table_gets_fresh_norms(self, rng):
        table = rng.standard_normal((50, 8))
        table.setflags(write=False)
        items, first = ranking._item_table(table)
        assert items.dtype == np.float32
        assert ranking._item_table(table)[1] is not first

    def test_cache_does_not_keep_the_table_alive(self, rng):
        table = frozen(rng.standard_normal((50, 8)))
        ranking._item_table(table)
        ref = ranking._frozen_norms[0]
        assert ref() is table
        del table
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("zero_rows", [0, 9])
    def test_frozen_and_writeable_tables_serve_identical_lists(self, rng, zero_rows):
        items = rng.standard_normal((300, 16)).astype(np.float32)
        items[rng.choice(300, size=zero_rows, replace=False)] = 0.0
        read_only = frozen(items)
        for u, user in enumerate(rng.standard_normal((200, 16)).astype(np.float32)):
            exclude = rng.choice(300, size=u % 25, replace=False)
            a = recommend_topk(user, read_only, exclude, k=20)
            b = recommend_topk(user, items, exclude, k=20)
            assert a.items.tobytes() == b.items.tobytes()
            assert a.scores.tobytes() == b.scores.tobytes()


class TestMetricFormulas:
    def test_recall_examples(self):
        assert recall_at_k(np.array([1, 9]), {1, 2}) == 0.5
        assert recall_at_k(np.array([1, 2, 5]), {1, 2}) == 1.0

    def test_ndcg_examples(self):
        assert ndcg_at_k(np.array([7]), {7}, k=1) == 1.0
        got = ndcg_at_k(np.array([3, 7]), {7}, k=2)
        assert abs(got - 0.6309297535714574) < 1e-9

    def test_hr_examples(self):
        assert hr_at_k(np.array([1, 2]), {2}) == 1.0
        assert hr_at_k(np.array([1, 2]), {5}) == 0.0

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(1000):
            n = 50
            k = int(rng.integers(1, 20))
            topk = rng.choice(n, size=k, replace=False)
            relevant = set(rng.choice(n, size=int(rng.integers(1, 10)),
                                      replace=False).tolist())
            want = brute_force_metrics(topk, relevant, k)
            got = (recall_at_k(topk, relevant), ndcg_at_k(topk, relevant, k),
                   hr_at_k(topk, relevant))
            assert got == pytest.approx(want, abs=1e-12)
            assert got[0] <= got[2] + 1e-12   # recall <= hr
            assert got[1] <= got[2] + 1e-12   # ndcg <= hr
            assert hr_at_k(topk, relevant) == min(1, len(set(topk.tolist()) & relevant))


class TestEvaluate:
    def test_perfect_embeddings(self):
        # user u aligned one-hot with their unique test item
        split = make_split(train_rows=[[0], [1], [2]],
                           val_rows=[[], [], []],
                           test_rows=[[3], [4], [5]], n_items=6)
        user_emb = np.zeros((3, 6), dtype=np.float32)
        item_emb = np.eye(6, dtype=np.float32)
        for u, i in enumerate((3, 4, 5)):
            user_emb[u, i] = 1.0
        report = evaluate(split, user_emb, item_emb, k=2)
        assert (report.recall, report.ndcg, report.hr) == (1.0, 1.0, 1.0)
        assert report.n_users == 3

    def test_single_user_report(self, rng):
        split = make_split(train_rows=[[0, 1]], val_rows=[[]],
                           test_rows=[[2, 3]], n_items=5)
        user_emb = rng.standard_normal((1, 4)).astype(np.float32)
        item_emb = rng.standard_normal((5, 4)).astype(np.float32)
        report = evaluate(split, user_emb, item_emb, k=2)
        ranking = recommend_topk(user_emb[0], item_emb, {0, 1}, k=2)
        want = brute_force_metrics(ranking.items, {2, 3}, 2)
        assert (report.recall, report.ndcg, report.hr) == pytest.approx(want, abs=1e-12)

    def test_matches_per_user_oracle(self, rng):
        n_users, n_items = 20, 30
        train_rows, test_rows = [], []
        for _ in range(n_users):
            perm = rng.permutation(n_items)
            train_rows.append(sorted(perm[:5].tolist()))
            test_rows.append(sorted(perm[5:8].tolist()))
        split = make_split(train_rows, [[]] * n_users, test_rows, n_items)
        user_emb = rng.standard_normal((n_users, 8)).astype(np.float32)
        item_emb = rng.standard_normal((n_items, 8)).astype(np.float32)
        report = evaluate(split, user_emb, item_emb, k=7)

        metrics = []
        for u in range(n_users):
            uvec = user_emb[u].astype(np.float64)
            uvec /= np.linalg.norm(uvec)
            scored = []
            for i in range(n_items):
                if i in train_rows[u]:
                    continue
                ivec = item_emb[i].astype(np.float64)
                norm = np.linalg.norm(ivec)
                scored.append((-(uvec @ (ivec / norm)), i))
            scored.sort()
            topk = np.array([i for _, i in scored[:7]])
            metrics.append(brute_force_metrics(topk, set(test_rows[u]), 7))
        want = np.mean(np.asarray(metrics), axis=0)
        assert abs(report.recall - want[0]) < 1e-9
        assert abs(report.ndcg - want[1]) < 1e-9
        assert abs(report.hr - want[2]) < 1e-9

    def test_evaluate_allocates_no_table_copy(self, rng):
        # many users, a moderate catalog, a wide dimension: a normalized copy
        # of the user table alone would exceed the bound
        n_users, n_items = 4000, 500
        split = make_split([[u % n_items] for u in range(n_users)], [[]] * n_users,
                           [[(u + 1) % n_items] for u in range(n_users)], n_items)
        user_emb = rng.standard_normal((n_users, 1024)).astype(np.float32)
        item_emb = rng.standard_normal((n_items, 1024)).astype(np.float32)
        tracemalloc.start()
        try:
            evaluate(split, user_emb, item_emb, k=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < user_emb.nbytes / 2

    def test_evaluate_holds_one_score_block(self, rng):
        # a wide catalog and three blocks of users: two score blocks alive
        # at once would exceed the bound
        n_users, n_items, block = 1100, 8000, 512
        split = make_split([[u % n_items, (u + 7) % n_items] for u in range(n_users)],
                           [[]] * n_users, [[(u + 1) % n_items] for u in range(n_users)],
                           n_items)
        user_emb = rng.standard_normal((n_users, 16)).astype(np.float32)
        item_emb = frozen(rng.standard_normal((n_items, 16)))
        ranking._item_table(item_emb)        # norms cached, as for a served table
        score_block = block * n_items * 4
        tracemalloc.start()
        try:
            evaluate(split, user_emb, item_emb, k=20, block=block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # slack: the ranking temporaries of one _SELECT_CELLS slice
        assert peak < score_block + 16 * ranking._SELECT_CELLS

    def test_excludes_users_without_history_or_relevance(self):
        split = make_split(train_rows=[[0], []], val_rows=[[], []],
                           test_rows=[[1], [1]], n_items=3)
        user_emb = np.ones((2, 3), dtype=np.float32)
        item_emb = np.ones((3, 3), dtype=np.float32)
        report = evaluate(split, user_emb, item_emb, k=1)
        assert report.n_users == 1  # user 1 has no train history

    def test_zero_evaluable_users_errors(self):
        split = make_split(train_rows=[[0]], val_rows=[[]], test_rows=[[]], n_items=2)
        with pytest.raises(DataError, match="zero evaluable users"):
            evaluate(split, np.ones((1, 2), np.float32), np.ones((2, 2), np.float32))

    def test_report_json_shape(self):
        report = MetricsReport("ds", "textgcn", 20, 0.5, 0.25, 0.75, 10)
        parsed = json.loads(report.to_json())
        assert parsed == {"dataset": "ds", "model": "textgcn", "k": 20,
                          "recall": 0.5, "ndcg": 0.25, "hr": 0.75, "users": 10}


class TestBaselines:
    def test_pop_order_example(self):
        # train counts i0:5, i1:3, i2:9 -> order [i2, i0, i1]; u10 trained only on i3
        rows = [[0, 2]] * 3 + [[0, 1, 2]] * 2 + [[2]] * 4 + [[1]] + [[3]]
        ranks = []
        for item in range(3):
            split = make_split(rows, [[]] * 11, [[]] * 10 + [[item]], n_items=4)
            # a single relevant item at rank r scores NDCG = 1 / log2(r + 1)
            ranks.append(2 ** (1 / baseline_pop(split, k=3).ndcg) - 1)
        assert split.train.item_degrees.tolist() == [5, 3, 9, 1]
        assert np.round(ranks).tolist() == [2, 3, 1]

    def test_random_seeded_identical(self, rng):
        train_rows = [[0, 1], [2], [3, 4]]
        test_rows = [[5], [0], [1]]
        split = make_split(train_rows, [[]] * 3, test_rows, n_items=6)
        a = baseline_random(split, k=3, seed=11)
        b = baseline_random(split, k=3, seed=11)
        assert (a.recall, a.ndcg, a.hr) == (b.recall, b.ndcg, b.hr)
        c = baseline_random(split, k=3, seed=12)
        assert (a.recall, a.ndcg, a.hr) != (c.recall, c.ndcg, c.hr)

    @pytest.mark.parametrize("relevant", [1, 3, 4, 5])
    def test_random_top1_is_uniform_over_candidates(self, relevant):
        # every user trained on items 0 and 2 of 6: four candidates, one relevant
        n_users, seeds = 1000, range(4)
        split = make_split([[0, 2]] * n_users, [[]] * n_users, [[relevant]] * n_users,
                           n_items=6)
        trials = n_users * len(seeds)
        share = math.fsum(baseline_random(split, k=1, seed=s).hr for s in seeds) / len(seeds)
        assert abs(share - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / trials)

    def test_random_does_not_depend_on_block_order(self, rng, monkeypatch):
        n_users, n_items = 1300, 30                    # three score blocks of 512
        rows = [rng.permutation(n_items)[:5].tolist() for _ in range(n_users)]
        split = make_split([sorted(r[:3]) for r in rows], [[]] * n_users,
                           [sorted(r[3:]) for r in rows], n_items)
        score_users = ranking._score_users
        aggregate = ranking._aggregate
        per_user = []

        def reversed_blocks(split, k, part, model, score_block, block=512):
            """``_score_users`` with every block scored before it, last block first."""
            eligible = np.flatnonzero((split.test.user_degrees > 0)
                                      & (split.train.user_degrees > 0))
            scored = {int(eligible[start]): score_block(eligible[start:start + block])
                      for start in reversed(range(0, len(eligible), block))}
            return score_users(split, k, part, model, lambda users: scored[int(users[0])],
                               block)

        def capture(name, model, k, rows):
            per_user.append(rows)
            return aggregate(name, model, k, rows)

        monkeypatch.setattr(ranking, "_aggregate", capture)
        forward = baseline_random(split, k=5, seed=7)
        monkeypatch.setattr(ranking, "_score_users", reversed_blocks)
        assert baseline_random(split, k=5, seed=7).to_json() == forward.to_json()
        assert per_user[0] == per_user[1]

    def test_pop_applies_exclusion(self):
        # user 0 interacted with the most popular item; it must not be recommended
        rows = [[2], [2], [2], [0]]
        split = make_split(rows, [[]] * 4, [[0], [1], [1], [2]], n_items=3)
        report = baseline_pop(split, k=1)
        # user 0: pop order [2,0,1] minus {2} -> [0]; relevant {0} -> hit
        assert report.recall > 0


def test_aggregation_order_independent():
    from textgcn.ranking import _aggregate
    rng = np.random.default_rng(5)
    vals = [(float(r), float(n), float(h))
            for r, n, h in rng.random((500, 3))]
    a = _aggregate("d", "m", 20, vals)
    shuffled = list(vals)
    rng.shuffle(shuffled)
    b = _aggregate("d", "m", 20, shuffled)
    assert a.recall == b.recall and a.ndcg == b.ndcg and a.hr == b.hr


def reference_topk(s, k):
    """Top k finite-score indices by a full stable sort on (score desc, index asc)."""
    cand = np.flatnonzero(np.isfinite(s))
    return cand[np.lexsort((cand, -s[cand]))][:k]


def reference_score_users(split, k, part, model, score_block, block=512):
    """Per-user loop: mask train items, a full sort, the three metric functions."""
    target = ranking._part_matrix(split, part)
    train = split.train
    eligible = np.flatnonzero((target.user_degrees > 0) & (train.user_degrees > 0))
    per_user = []
    for start in range(0, len(eligible), block):
        batch = eligible[start:start + block]
        scores = score_block(batch)
        for row, u in enumerate(batch):
            s = scores[row]
            s[train.items_of(int(u))] = -np.inf
            top = reference_topk(s, k)
            relevant = set(target.items_of(int(u)).tolist())
            per_user.append((recall_at_k(top, relevant), ndcg_at_k(top, relevant, k),
                             hr_at_k(top, relevant)))
    return ranking._aggregate(split.name, model, k, per_user)


def _tie_heavy_split(rng, n_users=300, n_items=40):
    """Users of every train degree, up to leaving fewer than k candidates.

    Up to 8 test items per user, so DCG sums run over several hits.
    """
    train_rows, val_rows, test_rows = [], [], []
    for u in range(n_users):
        perm = rng.permutation(n_items)
        n_train = int(rng.integers(0, n_items - 2)) if u % 5 else n_items - 3
        n_val = int(rng.integers(0, 3))
        train_rows.append(sorted(perm[:n_train].tolist()))
        val_rows.append(sorted(perm[n_train:n_train + n_val].tolist()))
        n_test = int(rng.integers(1, 9))
        test_rows.append(sorted(perm[n_train + n_val:n_train + n_val + n_test].tolist()))
    return make_split(train_rows, val_rows, test_rows, n_items)


@pytest.mark.parametrize("select_cells", [1 << 18, 100])
def test_block_ranking_matches_per_user_loop(rng, monkeypatch, select_cells):
    monkeypatch.setattr(ranking, "_SELECT_CELLS", select_cells)
    split = _tie_heavy_split(rng)
    n_items = split.train.n_items
    # integer-valued scores: ties at the kth score in most rows
    table = rng.integers(0, 4, size=(split.train.n_users, n_items)).astype(np.float32)
    per_user = []
    aggregate = ranking._aggregate

    def capture(name, model, k, rows):
        per_user.append(sorted(rows))
        return aggregate(name, model, k, rows)

    with monkeypatch.context() as patched:
        patched.setattr(ranking, "_aggregate", capture)
        for k in (1, 5, 20, n_items):
            for part in ("val", "test"):
                got = ranking._score_users(split, k, part, "m", lambda u: table[u].copy(), 64)
                want = reference_score_users(split, k, part, "m",
                                             lambda u: table[u].copy(), 64)
                assert got.to_json() == want.to_json()
                assert per_user[-2] == per_user[-1]   # every user's floats, not only means

    # identical embedding rows tie in cosine; pop ties on equal degrees
    user_emb = rng.integers(-2, 3, size=(split.train.n_users, 3)).astype(np.float32)
    user_emb[:, 0] = 3.0
    item_emb = rng.integers(-1, 2, size=(n_items, 3)).astype(np.float32)
    item_emb[:, 1] = 1.0
    calls = [lambda k: evaluate(split, user_emb, item_emb, k=k, block=64),
             lambda k: baseline_pop(split, k=k),
             lambda k: baseline_random(split, k=k, seed=3)]
    for call in calls:
        for k in (1, 7, 20, 50):
            got = call(k)
            with monkeypatch.context() as patched:
                patched.setattr(ranking, "_score_users", reference_score_users)
                want = call(k)
            assert got.to_json() == want.to_json()
