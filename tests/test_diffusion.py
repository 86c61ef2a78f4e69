import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from textgcn import diffusion, ranking
from textgcn.corpus import InteractionMatrix
from textgcn.diffusion import NormalizedGraph, diffuse, init_user_layer0, propagate
from textgcn.errors import DataError
from textgcn.ranking import recommend_topk

from conftest import random_interactions


def dense_oracle(train, item_emb, n_layers):
    """Independent dense D^-1/2 A D^-1/2 computation over the joint graph, f64."""
    m, n = train.n_users, train.n_items
    r = np.zeros((m, n), dtype=np.float64)
    for u in range(m):
        r[u, train.items_of(u)] = 1.0
    adj = np.zeros((m + n, m + n), dtype=np.float64)
    adj[:m, m:] = r
    adj[m:, :m] = r.T
    deg = adj.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, deg ** -0.5, 0.0)
    norm_adj = dinv[:, None] * adj * dinv[None, :]

    du = r.sum(axis=1)
    user0 = np.divide(r @ item_emb, np.maximum(du, 1.0)[:, None])
    state = np.vstack([user0, item_emb.astype(np.float64)])
    acc = state.copy()
    for _ in range(n_layers):
        state = norm_adj @ state
        acc += state
    acc /= n_layers + 1
    return acc[:m], acc[m:]


def copy_accumulate_oracle(train, item_emb, n_layers):
    """float32 diffusion composed of whole layers: copy layer 0, add each
    ``propagate`` output, divide into new arrays."""
    ones = sp.csr_matrix(
        (np.ones(train.n_interactions, dtype=np.float32), train.indices, train.indptr),
        shape=(train.n_users, train.n_items),
    )
    user_l = (ones @ item_emb) / np.maximum(train.user_degrees, 1).astype(np.float32)[:, None]
    item_l = item_emb
    user_acc, item_acc = user_l.copy(), item_l.copy()
    graph = NormalizedGraph(train)
    for _ in range(n_layers):
        user_l, item_l = propagate(graph, user_l, item_l)
        user_acc += user_l
        item_acc += item_l
    scale = np.float32(n_layers + 1)
    return user_acc / scale, item_acc / scale


def sparse_graph(rng, n_users, n_items):
    """Random interactions in which every third user and item has none."""
    pool = [i for i in range(n_items) if i % 3 != 1]
    rows = []
    for u in range(n_users):
        deg = 0 if u % 3 == 1 else min(int(rng.integers(1, 5)), len(pool))
        rows.append(sorted(rng.choice(pool, size=deg, replace=False).tolist()))
    return InteractionMatrix.from_rows(n_users, n_items, rows)


def test_init_user_layer0_examples():
    train = InteractionMatrix.from_rows(3, 2, [[0, 1], [1], []])
    item_emb = np.array([[1, 0], [0, 1]], dtype=np.float32)
    user0 = init_user_layer0(train, item_emb)
    assert user0[0].tolist() == [0.5, 0.5]
    assert user0[1].tolist() == [0.0, 1.0]   # single item: that vector exactly
    assert user0[2].tolist() == [0.0, 0.0]   # zero-degree: zero vector


def test_propagate_two_item_example():
    # degrees: user 2, both items 1 -> e_u1 = (e_i1 + e_i2) / sqrt(2)
    train = InteractionMatrix.from_rows(1, 2, [[0, 1]])
    item_emb = np.array([[1, 0], [0, 1]], dtype=np.float32)
    graph = NormalizedGraph(train)
    user0 = init_user_layer0(train, item_emb)
    user1, item1 = propagate(graph, user0, item_emb)
    assert np.allclose(user1[0], [0.70711, 0.70711], atol=1e-5)
    assert np.allclose(item1, [[0.35355, 0.35355]] * 2, atol=1e-5)


def test_propagate_identity_degrees():
    train = InteractionMatrix.from_rows(1, 1, [[0]])
    item_emb = np.array([[3, 4]], dtype=np.float32)
    graph = NormalizedGraph(train)
    user0 = init_user_layer0(train, item_emb)
    user1, item1 = propagate(graph, user0, item_emb)
    assert user1.tolist() == [[3, 4]]
    assert item1.tolist() == [[3, 4]]


def test_propagate_empty_graph_zeroes():
    train = InteractionMatrix.from_rows(2, 2, [[], []])
    emb = np.ones((2, 3), dtype=np.float32)
    graph = NormalizedGraph(train)
    user1, item1 = propagate(graph, emb.copy(), emb.copy())
    assert not user1.any()
    assert not item1.any()


def test_l0_is_raw_embedding_case(rng):
    train = random_interactions(rng, 6, 9, 4)
    item_emb = rng.standard_normal((9, 5)).astype(np.float32)
    out = diffuse(train, item_emb, n_layers=0)
    assert out.item_final.tobytes() == item_emb.tobytes()   # bitwise
    user0 = init_user_layer0(train, item_emb)
    assert np.allclose(out.user_final, user0, atol=1e-6)


def test_matches_dense_oracle(rng):
    for _ in range(30):
        n_users = int(rng.integers(1, 20))
        n_items = int(rng.integers(1, 20))
        train = random_interactions(rng, n_users, min(n_items, 20), 5)
        item_emb = rng.standard_normal((train.n_items, int(rng.integers(2, 8))))
        item_emb = item_emb.astype(np.float32)
        for n_layers in (0, 1, 2, 3):
            ours = diffuse(train, item_emb, n_layers)
            want_u, want_i = dense_oracle(train, item_emb, n_layers)
            assert np.max(np.abs(ours.user_final - want_u)) <= 1e-5
            assert np.max(np.abs(ours.item_final - want_i)) <= 1e-5


def test_deterministic_bitwise(rng):
    train = random_interactions(rng, 10, 12, 5)
    item_emb = rng.standard_normal((12, 6)).astype(np.float32)
    a = diffuse(train, item_emb, 3)
    b = diffuse(train, item_emb, 3)
    assert a.user_final.tobytes() == b.user_final.tobytes()
    assert a.item_final.tobytes() == b.item_final.tobytes()


def test_linearity_in_item_embeddings(rng):
    train = random_interactions(rng, 8, 10, 4)
    x = rng.standard_normal((10, 4)).astype(np.float32)
    y = rng.standard_normal((10, 4)).astype(np.float32)
    alpha, beta = 0.7, -1.3
    combined = diffuse(train, alpha * x + beta * y, 2)
    xa = diffuse(train, x, 2)
    yb = diffuse(train, y, 2)
    assert np.allclose(combined.user_final,
                       alpha * xa.user_final + beta * yb.user_final, atol=1e-4)
    assert np.allclose(combined.item_final,
                       alpha * xa.item_final + beta * yb.item_final, atol=1e-4)


def test_permutation_equivariance(rng):
    train = random_interactions(rng, 7, 9, 4)
    item_emb = rng.standard_normal((9, 5)).astype(np.float32)
    user_perm = rng.permutation(7)
    item_perm = rng.permutation(9)
    rows2 = [[]] * 7
    for u in range(7):
        rows2[user_perm[u]] = sorted(int(item_perm[i]) for i in train.items_of(u))
    train2 = InteractionMatrix.from_rows(7, 9, rows2)
    item_emb2 = np.empty_like(item_emb)
    item_emb2[item_perm] = item_emb

    a = diffuse(train, item_emb, 2)
    b = diffuse(train2, item_emb2, 2)
    assert np.allclose(b.user_final[user_perm], a.user_final, atol=1e-5)
    assert np.allclose(b.item_final[item_perm], a.item_final, atol=1e-5)


def test_block_diagonal_independence(rng):
    # two components; changing one side's embeddings must not affect the other
    rows = [[0, 1], [1], [2, 3], [3]]
    train = InteractionMatrix.from_rows(4, 4, rows)
    emb = rng.standard_normal((4, 3)).astype(np.float32)
    base = diffuse(train, emb, 2)
    emb2 = emb.copy()
    emb2[2:] = rng.standard_normal((2, 3)).astype(np.float32)
    changed = diffuse(train, emb2, 2)
    assert np.array_equal(base.user_final[:2], changed.user_final[:2])
    assert np.array_equal(base.item_final[:2], changed.item_final[:2])


def test_diffuse_returns_read_only_tables(rng):
    train = random_interactions(rng, 6, 9, 4)
    item_emb = rng.standard_normal((9, 5)).astype(np.float32)
    for n_layers in (0, 1, 2):
        out = diffuse(train, item_emb, n_layers)
        for table in (out.user_final, out.item_final):
            assert table.dtype == np.float32 and table.base is None
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
        # frozen, so a second request reuses the item norms of the first
        recommend_topk(out.user_final[0], out.item_final, train.items_of(0), k=3)
        cached = ranking._frozen_norms
        assert cached[0]() is out.item_final
        recommend_topk(out.user_final[1], out.item_final, train.items_of(1), k=3)
        assert ranking._frozen_norms is cached
    assert item_emb.flags.writeable     # the input itself is left writeable


@pytest.mark.parametrize("block_rows", [1, 3, None], ids=["1-row", "3-row", "default"])
def test_bit_identical_to_copy_accumulate_oracle(rng, monkeypatch, block_rows):
    dim = 5
    if block_rows is not None:
        monkeypatch.setattr(diffusion, "BLOCK_BYTES", block_rows * 4 * dim)
    for n_users, n_items in ((11, 9), (4, 13), (1, 1)):
        train = sparse_graph(rng, n_users, n_items)
        item_emb = rng.standard_normal((n_items, dim)).astype(np.float32)
        for n_layers in range(5):
            out = diffuse(train, item_emb, n_layers)
            want_u, want_i = copy_accumulate_oracle(train, item_emb, n_layers)
            assert out.user_final.tobytes() == want_u.tobytes()
            assert out.item_final.tobytes() == want_i.tobytes()


@pytest.mark.parametrize("n_layers", [1, 2])
def test_peak_is_output_layer_pairs_graph_and_one_block(rng, monkeypatch, n_layers):
    n_users, n_items, dim = 6000, 3000, 128
    train = random_interactions(rng, n_users, n_items, 8)
    item_emb = rng.standard_normal((n_items, dim)).astype(np.float32)
    monkeypatch.setattr(diffusion, "BLOCK_BYTES", 256 * 4 * dim)
    graph = NormalizedGraph(train)
    graph_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                      for m in (graph.user_to_item, graph.item_to_user))
    del graph
    pair = (n_users + n_items) * dim * 4      # = the output: both accumulators
    tracemalloc.start()
    try:
        diffuse(train, item_emb, n_layers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # L=1 holds no whole layer, L=2 one; slack covers the graph's float64
    # edge temporaries and a block's CSR rows
    held = pair + (n_layers - 1) * pair + graph_bytes + diffusion.BLOCK_BYTES
    assert peak < held + pair // 4


def test_graph_transpose_exact():
    train = InteractionMatrix.from_rows(3, 4, [[0, 2], [1, 2, 3], [0]])
    graph = NormalizedGraph(train)
    dense = graph.user_to_item.toarray()
    assert np.array_equal(dense.T, graph.item_to_user.toarray())
    assert np.all(graph.user_to_item.data > 0)
    assert np.all(np.isfinite(graph.user_to_item.data))


def test_dimension_mismatch_errors(rng):
    train = random_interactions(rng, 3, 4, 2)
    with pytest.raises(DataError):
        init_user_layer0(train, np.ones((5, 2), dtype=np.float32))
    with pytest.raises(DataError):
        diffuse(train, np.ones((4, 2), dtype=np.float32), -1)
