"""Seeded input generation for the benchmark workloads.

Everything here is the benchmark's own: it never imports ``textgcn``, so
the inputs (and the edge lists the reference checks use) do not depend on
the code under test. Run as a script it writes one workload's inputs into
a directory; the workload process calls it in a child process so that the
generator's memory stays out of the measured peak RSS.

    python3 perfbench/inputs.py rank-catalog 7 <out_dir>
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path

import numpy as np

# rank-catalog: the training-free model at catalog scale
RANK_USERS = 20_000
RANK_ITEMS = 12_000
RANK_CLUSTERS = 24
RANK_DIM = 256
RANK_DEGREE = (14, 43)        # per-user interactions before dedup, [lo, hi)
RANK_PURITY = 0.85
RANK_SPLIT = (0.7, 0.1)       # train and val shares; the rest is test
RANK_TEST_EVERY = 4           # only every 4th user holds test items; the others train on them

# embed-cache: the embedding-service path
EMBED_ITEMS = 8_000
EMBED_USERS = 8_000
EMBED_DEGREE = (10, 31)
EMBED_DIM = 256
EMBED_REPEAT = 0.04           # share of items that reuse another item's title
EMBED_EDIT = 0.03             # share of items whose title the follow-up edits

ADJECTIVES = ("crimson", "silent", "iron", "lost", "golden", "hidden", "wild", "frozen",
              "broken", "ancient", "electric", "hollow", "lunar", "savage", "velvet",
              "burning", "distant", "endless", "glass", "secret")
NOUNS = ("kingdom", "engine", "harbor", "legend", "circuit", "garden", "empire", "signal",
         "voyage", "tower", "forest", "machine", "river", "citadel", "orbit", "shadow",
         "frontier", "archive", "desert", "island")


def write_tge(path: Path, matrix: np.ndarray) -> None:
    """TGE1 container: magic, u32 version, u32 rows, u32 dim, float32 rows."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"TGE1" + struct.pack("<III", 1, *matrix.shape))
        fh.write(matrix.tobytes())


def read_tge(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != b"TGE1":
        raise ValueError(f"{path}: not a TGE1 file")
    _, rows, dim = struct.unpack("<III", raw[4:16])
    return np.frombuffer(raw[16:16 + rows * dim * 4], dtype="<f4").reshape(rows, dim)


def title_vector(title: str, dim: int) -> np.ndarray:
    """The loopback endpoint's vector for a title: a hash-seeded unit vector."""
    seed = int.from_bytes(hashlib.blake2b(title.encode("utf-8"), digest_size=8).digest(),
                          "little")
    vec = np.random.default_rng(seed).standard_normal(dim)
    return (vec / np.linalg.norm(vec)).astype(np.float32)


def _clustered_edges(rng: np.random.Generator, n_users: int, n_items: int,
                     n_clusters: int, degree: tuple[int, int],
                     purity: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (user, item) pairs, mostly inside the user's home cluster.

    Item i belongs to cluster i % n_clusters; within a cluster, early items
    are more popular (weights 1 / (rank + 1) ** 0.8).
    """
    per_cluster = n_items // n_clusters
    weights = 1.0 / (np.arange(per_cluster) + 1.0) ** 0.8
    cdf = np.cumsum(weights) / weights.sum()
    degrees = rng.integers(degree[0], degree[1], size=n_users)
    users = np.repeat(np.arange(n_users), degrees)
    home = users % n_clusters
    stray = rng.random(len(users)) >= purity
    offset = rng.integers(1, n_clusters, size=len(users))
    cluster = np.where(stray, (home + offset) % n_clusters, home)
    rank = np.minimum(np.searchsorted(cdf, rng.random(len(users))), per_cluster - 1)
    items = rank * n_clusters + cluster
    keys = np.unique(users.astype(np.int64) * n_items + items)
    return keys // n_items, keys % n_items


def _split_edges(rng: np.random.Generator, users: np.ndarray, items: np.ndarray,
                 shares: tuple[float, float], test_every: int = 1) -> np.ndarray:
    """Per-user random holdout: 0 train, 1 val, 2 test; every user keeps a train item.

    Only users whose index is a multiple of ``test_every`` hold test items;
    the others keep their would-be test items in train.
    """
    order = np.lexsort((rng.random(len(users)), users))
    users, items = users[order], items[order]
    starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
    counts = np.diff(np.r_[starts, len(users)])
    pos = np.arange(len(users)) - np.repeat(starts, counts)
    deg = np.repeat(counts, counts)
    n_train = np.maximum(1, np.round(shares[0] * deg))
    n_val = np.round(shares[1] * deg)
    part = np.where(pos < n_train, 0, np.where(pos < n_train + n_val, 1, 2))
    part[(part == 2) & (users % test_every != 0)] = 0
    return users, items, part


def _write_adjacency(path: Path, n_users: int, users: np.ndarray, items: np.ndarray) -> None:
    """One line per user (bare IDs for users without items), items in stored order."""
    lines = [f"u{u}" for u in range(n_users)]
    if len(users):
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        for lo, hi in zip(starts, np.r_[starts[1:], len(users)]):
            lines[users[lo]] += " " + " ".join(f"i{i}" for i in items[lo:hi].tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_split(out: Path, n_users: int, users: np.ndarray, items: np.ndarray,
                 part: np.ndarray, titles: list[str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for code, name in enumerate(("train.txt", "val.txt", "test.txt")):
        mask = part == code
        _write_adjacency(out / name, n_users, users[mask], items[mask])
    (out / "titles.tsv").write_text(
        "".join(f"i{i}\t{t}\n" for i, t in enumerate(titles)), encoding="utf-8")


def _catalog_title(rng: np.random.Generator, item: int, cluster: int) -> str:
    return (f"{ADJECTIVES[cluster % len(ADJECTIVES)]} {NOUNS[cluster % len(NOUNS)]} "
            f"{ADJECTIVES[int(rng.integers(len(ADJECTIVES)))]} "
            f"{NOUNS[int(rng.integers(len(NOUNS)))]} part {item}")


def make_rank_catalog(seed: int, out: Path) -> None:
    """Clustered corpus, cluster-word titles and a float32 item .tge file.

    Item vectors mix a cluster direction, a style direction and noise, so
    diffusion over same-cluster interactions has signal to work with.
    """
    rng = np.random.default_rng((seed, 1))
    users, items = _clustered_edges(rng, RANK_USERS, RANK_ITEMS, RANK_CLUSTERS,
                                    RANK_DEGREE, RANK_PURITY)
    users, items, part = _split_edges(rng, users, items, RANK_SPLIT, RANK_TEST_EVERY)
    cluster = np.arange(RANK_ITEMS) % RANK_CLUSTERS
    style = rng.integers(0, 8, size=RANK_ITEMS)
    titles = [f"genre{c} style{s} item{i}" for i, (c, s) in enumerate(zip(cluster, style))]
    _write_split(out / "corpus", RANK_USERS, users, items, part, titles)
    centers = rng.standard_normal((RANK_CLUSTERS, RANK_DIM))
    styles = rng.standard_normal((8, RANK_DIM))
    vecs = (centers[cluster] + 0.5 * styles[style]
            + 1.2 * rng.standard_normal((RANK_ITEMS, RANK_DIM)))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    # rows follow the order in which a reader of the corpus meets the items:
    # train, val and test lines as written, then the titles file
    seen = np.concatenate([items[part == 0], items[part == 1], items[part == 2],
                           np.arange(RANK_ITEMS)])
    order = seen[np.sort(np.unique(seen, return_index=True)[1])]
    write_tge(out / "items.tge", vecs[order].astype(np.float32))
    (out / "items.tge.ids").write_text("".join(f"i{i}\n" for i in order), encoding="utf-8")
    np.savez(out / "edges.npz", users=users, items=items, part=part)


def make_embed_cache(seed: int, out: Path) -> None:
    """A catalog with some repeated titles, plus a copy with a share of titles edited."""
    rng = np.random.default_rng((seed, 2))
    clusters = 16
    titles = [_catalog_title(rng, i, i % clusters) for i in range(EMBED_ITEMS)]
    repeat = rng.choice(EMBED_ITEMS, size=int(EMBED_REPEAT * EMBED_ITEMS), replace=False)
    for i in repeat.tolist():
        titles[i] = titles[int(rng.integers(EMBED_ITEMS))]
    users, items = _clustered_edges(rng, EMBED_USERS, EMBED_ITEMS, clusters,
                                    EMBED_DEGREE, 0.8)
    users, items, part = _split_edges(rng, users, items, (0.8, 0.1))
    _write_split(out / "corpus", EMBED_USERS, users, items, part, titles)
    edited = list(titles)
    for i in rng.choice(EMBED_ITEMS, size=int(EMBED_EDIT * EMBED_ITEMS), replace=False):
        edited[i] = f"{titles[i]} remastered edition {int(rng.integers(1000))}"
    _write_split(out / "corpus_edited", EMBED_USERS, users, items, part, edited)


MAKERS = {"rank-catalog": make_rank_catalog, "embed-cache": make_embed_cache}


if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    MAKERS[workload](seed, out_dir)
