import numpy as np
import pytest

from textgcn.corpus import InteractionMatrix
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


@pytest.mark.parametrize("cfg", [
    # the benchmark's head-train source corpus
    SyntheticConfig(n_clusters=4, n_users=1500, n_items=800, seed=1, vocab_tag="b",
                    id_tag="s"),
    parse_synthetic_spec("clusters:2,users:200,items:100,seed:29,vocab:shared,tag:A"),
    SyntheticConfig(n_clusters=1, n_users=50, n_items=30, seed=3),
    # 5 items per home cluster against degrees up to 12: home pools run out
    SyntheticConfig(n_clusters=4, n_users=40, n_items=20, seed=4, purity=1.0,
                    min_degree=8, max_degree=12),
], ids=["head-train-source", "synth-a", "one-cluster", "exhausted-home-pool"])
def test_generator_matches_reference_draws(cfg):
    split = generate_clustered_split(cfg)
    parts = (split.train, split.val, split.test)
    drawn = np.sort(np.concatenate([part.pair_keys() for part in parts]))
    want = InteractionMatrix.from_rows(cfg.n_users, cfg.n_items, reference_rows(cfg))
    assert np.array_equal(drawn, want.pair_keys())
