"""Interaction corpora: parsing, ID maps, splits, degree tables, merging.

The on-disk format is the adjacency-list text layout used by the public
benchmark splits: each line is ``<user_id> <item_id> <item_id> ...``
separated by single spaces, with ``#`` comment lines ignored. Titles live
in a separate TSV (``<item_id>\\t<title>``). All interactions are implicit
and binary; presence of a (user, item) pair means an observed interaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError
from .files import write_atomic

TRAIN_FILE = "train.txt"
VAL_FILE = "val.txt"
TEST_FILE = "test.txt"
TITLES_FILE = "titles.tsv"


class IdMaps:
    """Bijective external-ID <-> dense-index maps for users and items.

    Dense indices are contiguous from 0 in first-occurrence order.
    """

    def __init__(self):
        self.user_to_dense: dict[str, int] = {}
        self.item_to_dense: dict[str, int] = {}
        self.user_ids: list[str] = []
        self.item_ids: list[str] = []

    def user_index(self, ext_id: str) -> int:
        idx = self.user_to_dense.get(ext_id)
        if idx is None:
            idx = len(self.user_ids)
            self.user_to_dense[ext_id] = idx
            self.user_ids.append(ext_id)
        return idx

    def item_index(self, ext_id: str) -> int:
        idx = self.item_to_dense.get(ext_id)
        if idx is None:
            idx = len(self.item_ids)
            self.item_to_dense[ext_id] = idx
            self.item_ids.append(ext_id)
        return idx

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)


class InteractionMatrix:
    """Sparse binary user x item matrix in CSR form.

    ``indptr``/``indices`` follow the usual CSR convention; within each
    user row the item indices are strictly ascending, so there are no
    duplicate pairs by construction.
    """

    def __init__(self, n_users: int, n_items: int, indptr: np.ndarray, indices: np.ndarray):
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self._validate()
        self.user_degrees = np.diff(self.indptr)
        self.item_degrees = np.bincount(self.indices, minlength=self.n_items).astype(np.int64)

    def _validate(self) -> None:
        if self.indptr.shape != (self.n_users + 1,):
            raise DataError("indptr length must be n_users + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise DataError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise DataError("indptr must be non-decreasing")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= self.n_items):
            raise DataError("item index out of range")
        # with items in range, keys ascend across rows; within a row they ascend iff items do
        if np.any(np.diff(self.pair_keys()) <= 0):
            raise DataError("row not strictly ascending (duplicate or unsorted item)")

    @classmethod
    def from_rows(cls, n_users: int, n_items: int, rows: list[list[int]]) -> "InteractionMatrix":
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        items = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
        # checked before the key arithmetic, where a bad item would wrap into another row
        if len(items) and (items.min() < 0 or items.max() >= n_items):
            raise DataError("item index out of range")
        users = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
        return cls._from_keys(n_users, n_items, np.sort(users * n_items + items))

    @classmethod
    def _from_keys(cls, n_users: int, n_items: int, keys: np.ndarray) -> "InteractionMatrix":
        """Inverse of ``pair_keys``: ascending ``u * n_items + i`` keys to CSR."""
        indptr = np.searchsorted(keys, np.arange(n_users + 1, dtype=np.int64) * n_items)
        return cls(n_users, n_items, indptr, keys % n_items)

    @property
    def n_interactions(self) -> int:
        return int(len(self.indices))

    def items_of(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def pair_keys(self) -> np.ndarray:
        """Each stored (u, i) encoded as u * n_items + i; sorted ascending."""
        users = np.repeat(np.arange(self.n_users, dtype=np.int64), np.diff(self.indptr))
        return users * self.n_items + self.indices

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InteractionMatrix)
            and self.n_users == other.n_users
            and self.n_items == other.n_items
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass
class ItemCatalog:
    """Dense-item-indexed titles; length equals n_items of the owning maps."""

    titles: list[str]

    def __post_init__(self):
        for pos, t in enumerate(self.titles):
            if not t.strip():
                raise DataError(f"empty title at item index {pos}")

    @property
    def n_items(self) -> int:
        return len(self.titles)


@dataclass
class DatasetSplit:
    """train/val/test matrices sharing one IdMaps, plus the item catalog."""

    name: str
    maps: IdMaps
    train: InteractionMatrix
    val: InteractionMatrix
    test: InteractionMatrix
    catalog: ItemCatalog
    dropped_val: int = 0
    dropped_test: int = 0
    duplicates: int = 0    # repeated (user, item) pairs dropped while parsing


@dataclass
class MergedCorpus:
    """Several DatasetSplits mapped into one disjoint global ID namespace.

    The merged train matrix is block-diagonal: part p's users occupy rows
    [user_offsets[p], user_offsets[p+1]) and its items the matching column
    band, so no message passing ever crosses part boundaries.
    """

    parts: list[DatasetSplit]
    user_offsets: list[int]
    item_offsets: list[int]
    train: InteractionMatrix

    @property
    def n_users(self) -> int:
        return self.train.n_users

    @property
    def n_items(self) -> int:
        return self.train.n_items

    def part_user_range(self, p: int) -> tuple[int, int]:
        return self.user_offsets[p], self.user_offsets[p + 1]

    def part_item_range(self, p: int) -> tuple[int, int]:
        return self.item_offsets[p], self.item_offsets[p + 1]


def _read_pairs(path: Path, maps: IdMaps) -> tuple[np.ndarray, np.ndarray]:
    """One interactions file as (user, item) dense-index arrays, one entry per item token.

    Unseen external IDs are appended to ``maps`` in first-occurrence order;
    a bare user line registers the user with no pairs.
    """
    line_users, lengths, items = [], [], []
    user_index, item_index = maps.user_index, maps.item_index
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            tokens = line.split(" ")
            if "" in tokens:
                raise DataError(f"{path}:{lineno}: malformed line (empty token)")
            line_users.append(user_index(tokens[0]))
            lengths.append(len(tokens) - 1)
            items.extend(map(item_index, tokens[1:]))
    users = np.repeat(np.asarray(line_users, dtype=np.int64),
                      np.asarray(lengths, dtype=np.int64))
    return users, np.asarray(items, dtype=np.int64)


def write_interactions(matrix: InteractionMatrix, maps: IdMaps, path: str | Path) -> None:
    """Serialize to the adjacency-list format; one line per user in dense order."""
    with write_atomic(path) as fh:
        for u in range(matrix.n_users):
            items = " ".join(maps.item_ids[i] for i in matrix.items_of(u))
            fh.write(maps.user_ids[u] + (" " + items if items else "") + "\n")


def read_titles(path: str | Path, maps: IdMaps) -> dict[int, str]:
    """Read a titles TSV, registering unseen items (title-only items are kept)."""
    titles: dict[int, str] = {}
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if "\t" not in line:
                raise DataError(f"{path}:{lineno}: malformed title line (no tab)")
            ext, title = line.split("\t", 1)
            if not title.strip():
                raise DataError(f"{path}:{lineno}: empty title for item {ext!r}")
            titles[maps.item_index(ext)] = title.strip()
    return titles


def load_split(directory: str | Path) -> DatasetSplit:
    """Load train/val/test interaction files plus titles from a directory.

    Enforces the split invariants: (u, i) pairs must be disjoint across
    parts, every interaction item must have a title, and val/test
    interactions of users without training history are dropped (counted in
    ``dropped_val`` / ``dropped_test``). Repeated pairs within a file are
    dropped and counted in ``duplicates``.
    """
    directory = Path(directory)
    for fname in (TRAIN_FILE, VAL_FILE, TEST_FILE, TITLES_FILE):
        if not (directory / fname).exists():
            raise DataError(f"missing file: {directory / fname}")
    maps = IdMaps()
    pairs = [_read_pairs(directory / fname, maps)
             for fname in (TRAIN_FILE, VAL_FILE, TEST_FILE)]
    n_pairs = sum(len(items) for _, items in pairs)
    if n_pairs == 0:
        raise DataError(f"{directory}: empty corpus")
    titles_by_idx = read_titles(directory / TITLES_FILE, maps)
    n_users, n_items = maps.n_users, maps.n_items

    untitled = np.ones(n_items, dtype=bool)
    untitled[list(titles_by_idx)] = False
    missing = np.unique(np.concatenate([items[untitled[items]] for _, items in pairs]))
    if len(missing):
        raise DataError(
            f"{directory}: {len(missing)} interaction item(s) without a title, "
            f"first: {maps.item_ids[missing[0]]!r}"
        )

    # every file keyed against the final item count, so keys compare across files
    train_keys, val_keys, test_keys = (np.unique(users * n_items + items)
                                       for users, items in pairs)
    for label, a, b in (("train/val", train_keys, val_keys),
                        ("train/test", train_keys, test_keys),
                        ("val/test", val_keys, test_keys)):
        if len(np.intersect1d(a, b, assume_unique=True)):
            raise DataError(f"overlapping interaction across splits ({label})")

    train = InteractionMatrix._from_keys(n_users, n_items, train_keys)
    warm = train.user_degrees > 0
    val_kept, test_kept = (keys[warm[keys // n_items]] for keys in (val_keys, test_keys))
    return DatasetSplit(
        name=directory.name,
        maps=maps,
        train=train,
        val=InteractionMatrix._from_keys(n_users, n_items, val_kept),
        test=InteractionMatrix._from_keys(n_users, n_items, test_kept),
        catalog=ItemCatalog([titles_by_idx[i] for i in range(n_items)]),
        dropped_val=len(val_keys) - len(val_kept),
        dropped_test=len(test_keys) - len(test_kept),
        duplicates=n_pairs - len(train_keys) - len(val_keys) - len(test_keys),
    )


def save_split(split: DatasetSplit, directory: str | Path) -> None:
    """Write a DatasetSplit back to its four-file directory layout."""
    directory = Path(directory)
    write_interactions(split.train, split.maps, directory / TRAIN_FILE)
    write_interactions(split.val, split.maps, directory / VAL_FILE)
    write_interactions(split.test, split.maps, directory / TEST_FILE)
    with write_atomic(directory / TITLES_FILE) as fh:
        for idx, title in enumerate(split.catalog.titles):
            fh.write(f"{split.maps.item_ids[idx]}\t{title}\n")


def interaction_quantile(matrix: InteractionMatrix, q: float) -> int:
    """Nearest-rank q-quantile of per-user interaction counts, at least 1."""
    if matrix.n_users == 0:
        raise DataError("empty matrix")
    if not 0.0 <= q <= 1.0:
        raise DataError(f"quantile {q} outside [0, 1]")
    degrees = np.sort(matrix.user_degrees)
    rank = max(1, int(np.ceil(q * len(degrees))))
    return max(1, int(degrees[rank - 1]))


def merge_corpora(splits: list[DatasetSplit]) -> MergedCorpus:
    """Map splits into disjoint global user/item namespaces.

    The merged train matrix is the block-diagonal union; per-part
    provenance (offsets and the original splits) is retained so metrics can
    be reported per dataset.
    """
    if not splits:
        raise DataError("merge_corpora requires at least one split")
    user_offsets, item_offsets = [0], [0]
    indptrs, indices, nnz = [np.zeros(1, dtype=np.int64)], [], 0
    for s in splits:
        indptrs.append(s.train.indptr[1:] + nnz)
        indices.append(s.train.indices + item_offsets[-1])
        nnz += s.train.n_interactions
        user_offsets.append(user_offsets[-1] + s.train.n_users)
        item_offsets.append(item_offsets[-1] + s.train.n_items)
    train = InteractionMatrix(user_offsets[-1], item_offsets[-1],
                              np.concatenate(indptrs), np.concatenate(indices))
    return MergedCorpus(parts=list(splits), user_offsets=user_offsets,
                        item_offsets=item_offsets, train=train)


def split_random(
    matrix: InteractionMatrix,
    maps: IdMaps,
    catalog: ItemCatalog,
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
    seed: int = 0,
    name: str = "random-split",
) -> DatasetSplit:
    """Per-user random holdout into train/val/test with the given ratios.

    Utility splitter for synthetic or unsplit data; published benchmark
    splits should be ingested as-is instead. Every user with at least one
    interaction keeps at least one training item.
    """
    if abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0:
        raise DataError(f"ratios must be non-negative and sum to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    train_rows: list[list[int]] = []
    val_rows: list[list[int]] = []
    test_rows: list[list[int]] = []
    for u in range(matrix.n_users):
        items = matrix.items_of(u).copy()
        rng.shuffle(items)
        n = len(items)
        n_train = max(1, int(round(ratios[0] * n))) if n else 0
        n_val = int(round(ratios[1] * n))
        n_val = min(n_val, n - n_train)
        train_rows.append(items[:n_train].tolist())
        val_rows.append(items[n_train:n_train + n_val].tolist())
        test_rows.append(items[n_train + n_val:].tolist())
    make = lambda rows: InteractionMatrix.from_rows(matrix.n_users, matrix.n_items, rows)
    return DatasetSplit(
        name=name,
        maps=maps,
        train=make(train_rows),
        val=make(val_rows),
        test=make(test_rows),
        catalog=catalog,
    )
