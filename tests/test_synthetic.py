import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textgcn import synthetic
from textgcn.corpus import InteractionMatrix
from textgcn.errors import DataError
from textgcn.synthetic import SyntheticConfig, generate_clustered_split, parse_synthetic_spec


def reference_rows(cfg: SyntheticConfig) -> list[list[int]]:
    """The generator's draws, with the pool re-filtered by a Python loop on every draw."""
    rng = np.random.default_rng(cfg.seed)
    item_clusters = np.arange(cfg.n_items) % cfg.n_clusters
    pop_rank = np.arange(cfg.n_items) // cfg.n_clusters
    weights = 1.0 / (pop_rank + 1.0) ** cfg.popularity_exponent
    rows = []
    for user in range(cfg.n_users):
        home = user % cfg.n_clusters
        degree = int(rng.integers(cfg.min_degree, cfg.max_degree + 1))
        in_home = rng.random(degree) < cfg.purity
        chosen: set[int] = set()
        for stay in in_home:
            pool = np.flatnonzero(
                (item_clusters == home) if stay or cfg.n_clusters == 1
                else (item_clusters != home))
            pool = np.asarray([i for i in pool if i not in chosen])
            if len(pool) == 0:
                continue
            w = weights[pool]
            chosen.add(int(rng.choice(pool, p=w / w.sum())))
        rows.append(sorted(chosen))
    return rows


def drawn_keys(cfg: SyntheticConfig) -> np.ndarray:
    """Every generated (user, item) pair as a sorted pair key, over all three parts."""
    split = generate_clustered_split(cfg)
    parts = (split.train, split.val, split.test)
    return np.sort(np.concatenate([part.pair_keys() for part in parts]))


def reference_keys(cfg: SyntheticConfig) -> np.ndarray:
    return InteractionMatrix.from_rows(cfg.n_users, cfg.n_items, reference_rows(cfg)).pair_keys()


@pytest.mark.parametrize("cfg", [
    # the benchmark's head-train source corpus
    SyntheticConfig(n_clusters=4, n_users=1500, n_items=800, seed=1, vocab_tag="b",
                    id_tag="s"),
    parse_synthetic_spec("clusters:2,users:200,items:100,seed:29,vocab:shared,tag:A"),
    SyntheticConfig(n_clusters=1, n_users=50, n_items=30, seed=3),
    # 5 items per home cluster against degrees up to 12: home pools run out (purity 1)
    SyntheticConfig(n_clusters=4, n_users=40, n_items=20, seed=4, purity=1.0,
                    min_degree=8, max_degree=12),
    # home pools of 130 items shrink past 128, where numpy's pairwise sum recurses
    SyntheticConfig(n_clusters=2, n_users=60, n_items=260, seed=5, min_degree=4,
                    max_degree=12),
    # every draw away, from 5 away items against degrees up to 9: away pools run out
    SyntheticConfig(n_clusters=2, n_users=40, n_items=10, seed=6, purity=0.0,
                    min_degree=3, max_degree=9),
    parse_synthetic_spec("clusters:3,users:80,items:45,seed:7,pop_exponent:0"),
    # clusters of 11 and 10 items
    SyntheticConfig(n_clusters=3, n_users=70, n_items=31, seed=8, min_degree=2, max_degree=9),
], ids=["head-train-source", "synth-a", "one-cluster", "exhausted-home-pool",
        "home-pool-over-128", "exhausted-away-pool", "tied-weights", "uneven-clusters"])
def test_generator_matches_reference_draws(cfg):
    assert np.array_equal(drawn_keys(cfg), reference_keys(cfg))


def test_pick_matches_choice_arithmetic_at_every_step_of_the_cdf():
    """Uniforms on and just below each cumulative-sum step tell apart sums one ulp off."""
    rng = np.random.default_rng(0)
    weights = 1.0 / (np.arange(300) + 1.0) ** 1.3
    rows, uniforms, want = [], [], []
    for _ in range(20):
        free = np.ones(300, dtype=bool)
        free[rng.choice(300, size=37, replace=False)] = False
        pool = np.flatnonzero(free)     # 263 items: numpy's pairwise sum recurses
        w = weights[pool]
        cdf = (w / w.sum()).cumsum()    # as Generator.choice(pool, p=w / w.sum())
        cdf /= cdf[-1]
        for u in np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0)]):
            rows.append(free)
            uniforms.append(u)
            want.append(pool[np.searchsorted(cdf, u, side="right")])
    got = synthetic._pick(weights, np.array(rows), np.array(uniforms))
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 25), st.integers(0, 12), st.integers(0, 2 ** 32),
       st.sampled_from([0.0, 0.3, 0.9, 1.0]), st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0]),
       st.integers(1, 8), st.integers(0, 6))
def test_generator_matches_reference_on_small_configs(n_clusters, n_users, extra_items, seed,
                                                      purity, exponent, min_degree, spread):
    max_degree = min_degree + spread
    n_items = max(n_clusters, max_degree + 1) + extra_items
    cfg = SyntheticConfig(n_clusters=n_clusters, n_users=n_users, n_items=n_items, seed=seed,
                          purity=purity, popularity_exponent=exponent,
                          min_degree=min_degree, max_degree=max_degree)
    assert np.array_equal(drawn_keys(cfg), reference_keys(cfg))


@pytest.mark.parametrize("block_bytes", [1, 7 * 8 * 100], ids=["one-user", "seven-users"])
def test_generator_draws_do_not_depend_on_the_block(block_bytes, monkeypatch):
    cfg = SyntheticConfig(n_clusters=3, n_users=150, n_items=100, seed=11)
    want = drawn_keys(cfg)
    assert 8 * cfg.n_users * cfg.n_items <= synthetic.BLOCK_BYTES   # one block by default
    monkeypatch.setattr(synthetic, "BLOCK_BYTES", block_bytes)
    assert np.array_equal(drawn_keys(cfg), want)


@pytest.mark.parametrize("exponent", ["nan", "2000", "-2000", "inf"])
def test_unusable_popularity_exponent_refused(exponent):
    with pytest.raises(DataError, match="non-finite or zero item weights"):
        parse_synthetic_spec(f"clusters:2,users:20,items:30,pop_exponent:{exponent}")
