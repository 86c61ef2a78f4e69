"""Synthetic clustered interaction data for offline pipeline tests.

Users and items are assigned round-robin to clusters; each user interacts
mostly within their home cluster, with item choice skewed by a popularity
gradient. Titles are built from three vocabularies: a cluster word (the
transferable signal), a style word shared across clusters (a distractor),
and a per-item word (noise). Two corpora generated with the same
``vocab_tag`` therefore share language geometry while having disjoint
items, which is exactly the setup cross-corpus transfer needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DatasetSplit, IdMaps, InteractionMatrix, ItemCatalog, split_random
from .errors import DataError


@dataclass(frozen=True)
class SyntheticConfig:
    n_clusters: int = 2
    n_users: int = 200
    n_items: int = 100
    seed: int = 7
    n_styles: int = 5
    purity: float = 0.9
    min_degree: int = 12
    max_degree: int = 20
    popularity_exponent: float = 1.0
    vocab_tag: str = "v0"
    id_tag: str = ""
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)

    def __post_init__(self):
        if self.n_clusters < 1 or self.n_users < 1 or self.n_items < self.n_clusters:
            raise DataError("need >= 1 cluster, >= 1 user, and items >= clusters")
        if not 0.0 <= self.purity <= 1.0:
            raise DataError("purity must be in [0, 1]")
        if not 1 <= self.min_degree <= self.max_degree:
            raise DataError("need 1 <= min_degree <= max_degree")
        if self.max_degree >= self.n_items:
            raise DataError("max_degree must be below n_items")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def item_title(cfg: SyntheticConfig, item: int) -> str:
    cluster = item % cfg.n_clusters
    style = (item // cfg.n_clusters) % cfg.n_styles
    return (f"genre{cfg.vocab_tag}c{cluster} "
            f"style{cfg.vocab_tag}s{style} "
            f"item{cfg.id_tag}n{item}")


def generate_clustered_split(cfg: SyntheticConfig) -> DatasetSplit:
    """Sample interactions, then hold out val/test per user."""
    rng = np.random.default_rng(cfg.seed)
    item_clusters = np.arange(cfg.n_items) % cfg.n_clusters
    # popularity gradient within each cluster: early indices are popular
    pop_rank = np.arange(cfg.n_items) // cfg.n_clusters
    weights = 1.0 / (pop_rank + 1.0) ** cfg.popularity_exponent

    rows: list[list[int]] = []
    for user in range(cfg.n_users):
        home = item_clusters == user % cfg.n_clusters
        degree = int(rng.integers(cfg.min_degree, cfg.max_degree + 1))
        in_home = rng.random(degree) < cfg.purity
        taken = np.zeros(cfg.n_items, dtype=bool)
        for stay in in_home:
            side = home if stay or cfg.n_clusters == 1 else ~home
            pool = np.flatnonzero(side & ~taken)
            if len(pool) == 0:
                continue
            w = weights[pool]
            taken[rng.choice(pool, p=w / w.sum())] = True
        rows.append(np.flatnonzero(taken).tolist())

    maps = IdMaps()
    for user in range(cfg.n_users):
        maps.user_index(f"u{cfg.id_tag}{user}")
    for item in range(cfg.n_items):
        maps.item_index(f"i{cfg.id_tag}{item}")
    full = InteractionMatrix.from_rows(cfg.n_users, cfg.n_items, rows)
    catalog = ItemCatalog([item_title(cfg, i) for i in range(cfg.n_items)])
    split = split_random(full, maps, catalog, ratios=cfg.ratios, seed=cfg.seed,
                         name=f"synthetic-{cfg.n_clusters}c-{cfg.n_users}u-{cfg.n_items}i")
    return split


def parse_synthetic_spec(spec: str) -> SyntheticConfig:
    """Parse the CLI shorthand, e.g. ``clusters:2,users:200,items:100,seed:7``."""
    known = {
        "clusters": ("n_clusters", int),
        "users": ("n_users", int),
        "items": ("n_items", int),
        "seed": ("seed", int),
        "styles": ("n_styles", int),
        "purity": ("purity", float),
        "min_degree": ("min_degree", int),
        "max_degree": ("max_degree", int),
        "pop_exponent": ("popularity_exponent", float),
        "vocab": ("vocab_tag", str),
        "tag": ("id_tag", str),
    }
    kwargs = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise DataError(f"bad synthetic spec fragment {chunk!r} (want key:value)")
        key, value = chunk.split(":", 1)
        if key not in known:
            raise DataError(f"unknown synthetic spec key {key!r}")
        field_name, cast = known[key]
        kwargs[field_name] = cast(value)
    return SyntheticConfig(**kwargs)
