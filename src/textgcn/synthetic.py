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

# Bounds the arrays of one block of users: users are sampled
# max(1, BLOCK_BYTES // (8 * n_items)) of one cluster at a time, so a
# block's float64 (users x side) probabilities take at most BLOCK_BYTES
# and its taken flags an eighth of that; a single user's row is always
# built. The draws do not depend on it.
BLOCK_BYTES = 1 << 20


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
        weights = self.item_weights()
        if not (np.isfinite(weights).all() and weights.min() > 0):
            raise DataError(f"popularity exponent {self.popularity_exponent} gives "
                            "non-finite or zero item weights")

    def item_weights(self) -> np.ndarray:
        """Popularity weight of each item: early indices within a cluster are popular."""
        pop_rank = np.arange(self.n_items) // self.n_clusters
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return 1.0 / (pop_rank + 1.0) ** self.popularity_exponent


def item_title(cfg: SyntheticConfig, item: int) -> str:
    cluster = item % cfg.n_clusters
    style = (item // cfg.n_clusters) % cfg.n_styles
    return (f"genre{cfg.vocab_tag}c{cluster} "
            f"style{cfg.vocab_tag}s{style} "
            f"item{cfg.id_tag}n{item}")


def _pick(weights: np.ndarray, free: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per row of ``free``, the place ``Generator.choice`` picks with that row's uniform.

    The pool is the row's free places, with probabilities ``w / w.sum()``
    over their weights ``w``; every row has as many free places. As in
    ``choice``: the cumulative sum, divided by its last entry, and the
    count of its entries at or below the uniform (``searchsorted`` with
    ``side="right"``). The row sums run over the gathered pool weights, so
    they add in the order of ``w.sum()``.
    """
    total = np.broadcast_to(weights, free.shape)[free].reshape(len(free), -1).sum(axis=1)
    cdf = weights / total[:, None]
    cdf *= free
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= uniforms[:, None], axis=1)


def _sample_interactions(cfg: SyntheticConfig) -> InteractionMatrix:
    """Every user's interactions, drawn from one ``default_rng(cfg.seed)`` stream.

    User by user, the stream gives a degree, one home/away flag per
    interaction, and one uniform per interaction whose side (the items of
    the user's cluster, or all others) still holds an item the user has
    not taken. With one cluster every interaction is home. The uniform
    picks a free item of the side with probability proportional to its
    weight, by the arithmetic of ``Generator.choice(pool, p=w / w.sum())``
    over the free items ``pool``. The picks run for many users at once: a
    side's draw j has a pool of ``|side| - j`` items, so each group of one
    cluster, side and j shares its pool size and its row sums. Zero
    probabilities at taken items leave each cumulative sum unchanged, so
    the corpus is the one that drawing a ``choice`` per interaction gives.
    """
    rng = np.random.default_rng(cfg.seed)
    n_clusters, n_items = cfg.n_clusters, cfg.n_items
    item_clusters = np.arange(n_items) % n_clusters
    n_home = np.bincount(item_clusters, minlength=n_clusters)
    home_sizes = n_home.tolist()
    degrees, flags, uniforms = [], [], []
    for user in range(cfg.n_users):
        degree = int(rng.integers(cfg.min_degree, cfg.max_degree + 1))
        stay = (rng.random(degree) < cfg.purity) | (n_clusters == 1)
        stays, home = int(np.count_nonzero(stay)), home_sizes[user % n_clusters]
        # a side runs out after |side| draws; an empty pool draws nothing
        uniforms.append(rng.random(min(stays, home) + min(degree - stays, n_items - home)))
        degrees.append(degree)
        flags.append(stay)

    degrees = np.asarray(degrees, dtype=np.int64)
    stay = np.concatenate(flags)
    users = np.repeat(np.arange(cfg.n_users), degrees)
    first = (np.cumsum(degrees) - degrees)[users]
    homes_before = np.cumsum(stay) - stay
    homes_before -= homes_before[first]           # the user's earlier home steps
    rank = np.where(stay, homes_before, np.arange(len(stay)) - first - homes_before)
    cluster = users % n_clusters
    drawn = rank < np.where(stay, n_home[cluster], n_items - n_home[cluster])
    users, cluster, away, rank = users[drawn], cluster[drawn], ~stay[drawn], rank[drawn]
    uniforms = np.concatenate(uniforms)

    block = max(1, BLOCK_BYTES // (8 * n_items))
    member = users // n_clusters        # the user's place among its cluster's users
    group = ((cluster * cfg.n_users + member // block) * 2 + away) * cfg.max_degree + rank
    order = np.argsort(group)
    picks = np.empty(len(order), dtype=np.int64)
    weights, current = cfg.item_weights(), None
    for idx in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
        c = cluster[idx[0]]
        if (c, member[idx[0]] // block) != current:
            current = (c, member[idx[0]] // block)
            cols = np.argsort(item_clusters != c, kind="stable")     # home items, then away
            col_weights = weights[cols]
            taken = np.zeros((min(block, -(-cfg.n_users // n_clusters)), n_items), dtype=bool)
        side = slice(home_sizes[c], n_items) if away[idx[0]] else slice(0, home_sizes[c])
        rows = member[idx] % block
        pick = side.start + _pick(col_weights[side], ~taken[rows, side], uniforms[idx])
        taken[rows, pick] = True
        picks[idx] = cols[pick]
    return InteractionMatrix._from_keys(cfg.n_users, n_items, np.sort(users * n_items + picks))


def generate_clustered_split(cfg: SyntheticConfig) -> DatasetSplit:
    """Sample interactions, then hold out val/test per user."""
    full = _sample_interactions(cfg)
    maps = IdMaps()
    for user in range(cfg.n_users):
        maps.user_index(f"u{cfg.id_tag}{user}")
    for item in range(cfg.n_items):
        maps.item_index(f"i{cfg.id_tag}{item}")
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
