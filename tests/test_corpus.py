import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textgcn.corpus import (IdMaps, InteractionMatrix, _unique_sorted, interaction_quantile,
                            load_split, merge_corpora, read_titles, save_split, split_random)
from textgcn.errors import DataError

from conftest import make_split, write_dataset


def test_parse_basic(tmp_path):
    d = write_dataset(tmp_path / "ds", train=["u1 i1 i2", "u2 i2"], val=[], test=[],
                      titles={"i1": "a", "i2": "b"})
    split = load_split(d)
    assert (split.train.n_users, split.train.n_items) == (2, 2)
    assert split.train.n_interactions == 3
    assert split.train.user_degrees.tolist() == [2, 1]
    assert split.train.item_degrees.tolist() == [1, 2]
    assert split.duplicates == 0
    assert split.maps.user_ids == ["u1", "u2"]
    assert split.maps.item_ids == ["i1", "i2"]


def test_parse_empty_file_errors(tmp_path):
    # bare user lines and comments register no pairs
    d = write_dataset(tmp_path / "ds", train=["# header", "u1"], val=[], test=["u2"],
                      titles={"i1": "a"})
    with pytest.raises(DataError, match="empty corpus"):
        load_split(d)


def test_parse_duplicate_pair_counted(tmp_path):
    # repeats count per file; the same pair in two files is an overlap instead
    d = write_dataset(tmp_path / "ds", train=["u1 i1 i1", "u1 i2 i1"], val=["u1 i3 i3"],
                      test=["u1 i4"], titles={f"i{k}": "t" for k in range(1, 5)})
    split = load_split(d)
    assert split.train.n_interactions == 2
    assert split.val.n_interactions == 1
    assert split.duplicates == 3


def test_parse_comments_and_malformed(tmp_path):
    d = write_dataset(tmp_path / "ds", train=["# header", "u1 i1"], val=[], test=[],
                      titles={"i1": "a"})
    assert load_split(d).train.n_interactions == 1

    (d / "val.txt").write_text("u1  i1\n", encoding="utf-8")  # double space -> empty token
    with pytest.raises(DataError, match="val.txt:1"):
        load_split(d)


def test_parse_roundtrip(tmp_path):
    # a bare user line keeps its user, with no interactions, in first-occurrence order
    d = write_dataset(tmp_path / "a", train=["u0 i3 i1", "u3", "u1 i2", "u2 i0 i1 i2 i3"],
                      val=[], test=[], titles={f"i{k}": f"t{k}" for k in (3, 1, 2, 0)})
    first = load_split(d)
    assert first.maps.user_ids == ["u0", "u3", "u1", "u2"]
    assert first.maps.item_ids == ["i3", "i1", "i2", "i0"]
    assert first.train.user_degrees.tolist() == [2, 0, 1, 4]
    save_split(first, tmp_path / "b")
    again = load_split(tmp_path / "b")
    assert again.train == first.train
    assert again.maps.user_ids == first.maps.user_ids
    assert again.maps.item_ids == first.maps.item_ids


def test_parse_permutation_with_fixed_maps(tmp_path):
    # once train has fixed the IDs, line and item order in a later file do not matter
    titles = {f"i{k}": "t" for k in range(1, 6)}
    a = load_split(write_dataset(tmp_path / "a", train=["u1 i1 i2", "u2 i3 i4 i5"],
                                 val=["u1 i3 i4", "u2 i1"], test=[], titles=titles))
    b = load_split(write_dataset(tmp_path / "b", train=["u1 i1 i2", "u2 i3 i4 i5"],
                                 val=["u2 i1", "u1 i4 i3"], test=[], titles=titles))
    assert a.val == b.val


def test_load_split_happy(tmp_path):
    d = write_dataset(tmp_path / "ds",
                      train=["u1 i1"], val=[], test=["u1 i2"],
                      titles={"i1": "first", "i2": "second"})
    split = load_split(d)
    assert split.train.n_interactions == 1
    assert split.test.n_interactions == 1
    assert split.dropped_test == 0
    assert split.catalog.titles == ["first", "second"]


def test_load_split_counts_duplicates(tmp_path):
    d = write_dataset(tmp_path / "ds",
                      train=["u0 i1 i1 i2"], val=[], test=["u0 i3"],
                      titles={"i1": "a", "i2": "b", "i3": "c"})
    split = load_split(d)
    assert split.train.n_interactions == 2
    assert split.duplicates == 1


def test_load_split_drops_train_cold_users(tmp_path):
    d = write_dataset(tmp_path / "ds",
                      train=[], val=[], test=["u1 i1"],
                      titles={"i1": "one"})
    split = load_split(d)
    assert split.test.n_interactions == 0
    assert split.dropped_test == 1


def test_load_split_overlap_errors(tmp_path):
    d = write_dataset(tmp_path / "ds",
                      train=["u1 i1"], val=[], test=["u1 i1"],
                      titles={"i1": "one"})
    with pytest.raises(DataError, match="overlapping interaction across splits"):
        load_split(d)


def test_load_split_title_only_item_kept(tmp_path):
    d = write_dataset(tmp_path / "ds",
                      train=["u1 i1"], val=[], test=["u1 i2"],
                      titles={"i1": "a", "i2": "b", "i9": "never interacted"})
    split = load_split(d)
    assert split.train.n_items == 3
    assert "i9" in split.maps.item_to_dense


def test_load_split_missing_title_errors(tmp_path):
    d = write_dataset(tmp_path / "ds",
                      train=["u1 i1 i2"], val=[], test=[],
                      titles={"i1": "a"})
    with pytest.raises(DataError, match="without a title"):
        load_split(d)


def test_load_split_missing_file_errors(tmp_path):
    d = write_dataset(tmp_path / "ds", train=["u1 i1"], val=[], test=[],
                      titles={"i1": "a"})
    (d / "val.txt").unlink()
    with pytest.raises(DataError, match="missing file"):
        load_split(d)


@pytest.mark.parametrize("rows, message", [
    ([[3], []], "item index out of range"),     # would wrap into user 1's row
    ([[], [-1]], "item index out of range"),    # would wrap into user 0's row
    ([[1, 1], []], "duplicate or unsorted"),
], ids=["out-of-range", "negative", "duplicate"])
def test_from_rows_rejects_bad_items(rows, message):
    with pytest.raises(DataError, match=message):
        InteractionMatrix.from_rows(2, 3, rows)


@pytest.mark.parametrize("indptr, indices, message", [
    ([0, 1, 1], [3], "item index out of range"),
    ([0, 0, 1], [-1], "item index out of range"),
    ([0, 2, 2], [1, 1], "duplicate or unsorted"),
    ([0, 2, 2], [2, 0], "duplicate or unsorted"),
    ([0, 3, 2], [0, 1], "non-decreasing"),
], ids=["out-of-range", "negative", "duplicate", "unsorted", "indptr-decreasing"])
def test_constructor_rejects_bad_indices(indptr, indices, message):
    with pytest.raises(DataError, match=message):
        InteractionMatrix(2, 3, np.array(indptr), np.array(indices))


def test_constructor_accepts_descent_across_rows():
    m = InteractionMatrix(2, 3, np.array([0, 1, 2]), np.array([2, 0]))
    assert m.pair_keys().tolist() == [2, 3]
    assert InteractionMatrix.from_rows(2, 3, [[2, 0], [1]]) == InteractionMatrix(
        2, 3, np.array([0, 2, 3]), np.array([0, 2, 1]))


def _reference_parse(path, maps):
    """A per-user-set parser of one interactions file, kept as an oracle."""
    per_user, duplicates = {}, 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            tokens = line.split(" ")
            if any(t == "" for t in tokens):
                raise DataError(f"{path}:{lineno}: malformed line (empty token)")
            bucket = per_user.setdefault(maps.user_index(tokens[0]), set())
            for tok in tokens[1:]:
                i = maps.item_index(tok)
                duplicates += i in bucket
                bucket.add(i)
    return per_user, duplicates


def _csr(rows):
    return np.cumsum([0] + [len(r) for r in rows]).tolist(), [i for r in rows for i in r]


def _reference_load_split(directory):
    """The per-user-set ``load_split``, as plain lists; errors come back as text."""
    maps = IdMaps()
    parts, duplicates = [], 0
    for fname in ("train.txt", "val.txt", "test.txt"):
        per_user, dups = _reference_parse(directory / fname, maps)
        parts.append(per_user)
        duplicates += dups
    if not any(items for part in parts for items in part.values()):
        raise DataError(f"{directory}: empty corpus")
    titles = read_titles(directory / "titles.tsv", maps)
    missing = sorted({i for part in parts for items in part.values() for i in items}
                     - set(titles))
    if missing:
        raise DataError(f"{directory}: {len(missing)} interaction item(s) without a title, "
                        f"first: {maps.item_ids[missing[0]]!r}")
    pairs = [{(u, i) for u, items in part.items() for i in items} for part in parts]
    for label, a, b in (("train/val", 0, 1), ("train/test", 0, 2), ("val/test", 1, 2)):
        if pairs[a] & pairs[b]:
            raise DataError(f"overlapping interaction across splits ({label})")
    warm = {u for u, items in parts[0].items() if items}
    matrices = [_csr([sorted(part.get(u, ())) if k == 0 or u in warm else []
                      for u in range(maps.n_users)]) for k, part in enumerate(parts)]
    dropped = [sum(len(items) for u, items in part.items() if u not in warm)
               for part in parts[1:]]
    return (maps.user_ids, maps.item_ids, matrices,
            [titles[i] for i in range(maps.n_items)], *dropped, duplicates)


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.int64),
    np.array([7], dtype=np.int64),
    np.full(5, 3, dtype=np.int64),
    # keys of the last user and item of a 3e9 x 3e9 matrix, past int32
    3 * 10**9 * 3 * 10**9 - 1 - np.array([0, 5, 0, 1, 5, 2], dtype=np.int64),
], ids=["empty", "one", "all-equal", "near-n-users-times-n-items"])
def test_unique_sorted_matches_np_unique(values):
    got = _unique_sorted(values)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.unique(values))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=60))
def test_unique_sorted_matches_np_unique_with_duplicates(values):
    values = np.asarray(values, dtype=np.int64)
    np.testing.assert_array_equal(_unique_sorted(values), np.unique(values))


def _loaded(directory):
    split = load_split(directory)
    matrices = [(m.indptr.tolist(), m.indices.tolist())
                for m in (split.train, split.val, split.test)]
    assert {m.n_users for m in (split.train, split.val, split.test)} == {split.maps.n_users}
    return (split.maps.user_ids, split.maps.item_ids, matrices, split.catalog.titles,
            split.dropped_val, split.dropped_test, split.duplicates)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as err:
        return f"DataError: {err}"


def _lines(item_pool):
    users = st.sampled_from([f"u{k}" for k in range(6)])
    items = st.lists(st.sampled_from(item_pool), max_size=5)   # may repeat; may be bare
    pair_line = st.builds(lambda u, its: " ".join([u, *its]), users, items)
    odd_line = st.sampled_from(["# comment", "", "   "])
    return st.lists(st.one_of(pair_line, pair_line, pair_line, odd_line), max_size=8)


@st.composite
def _split_dirs(draw):
    shared = ["i0", "i1", "i2"]
    files = {name: draw(_lines(shared + [f"{name[0]}{k}" for k in range(3)]))
             for name in ("train", "val", "test")}
    if draw(st.integers(0, 9)) == 0:
        lines = files[draw(st.sampled_from(sorted(files)))]
        lines.insert(draw(st.integers(0, len(lines))), "u0  i0")   # empty token
    named = shared + [f"{p}{k}" for p in "tvx" for k in range(3)] + ["solo0", "solo1"]
    untitled = draw(st.sets(st.sampled_from(named), max_size=1))
    titles = [f"{item}\ttitle of {item}" for item in draw(st.permutations(named))
              if item not in untitled]
    if draw(st.integers(0, 9)) == 0:
        titles.insert(draw(st.integers(0, len(titles))), "no tab here")
    return files, titles


@settings(max_examples=300, deadline=None)
@given(_split_dirs())
def test_load_split_matches_per_user_set_reference(spec):
    files, titles = spec
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "ds"
        write_dataset(d, files["train"], files["val"], files["test"], {})
        (d / "titles.tsv").write_text("".join(t + "\n" for t in titles), encoding="utf-8")
        assert _outcome(_loaded, d) == _outcome(_reference_load_split, d)


def test_quantile_examples():
    m = InteractionMatrix.from_rows(5, 5, [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3],
                                           [0, 1, 2, 3, 4]])
    assert interaction_quantile(m, 0.5) == 3  # median of [1,2,3,4,5]
    single = InteractionMatrix.from_rows(1, 7, [[0, 1, 2, 3, 4, 5, 6]])
    assert interaction_quantile(single, 0.5) == 7
    even = InteractionMatrix.from_rows(4, 4, [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]])
    # nearest-rank with rank = ceil(0.5 * 4) = 2 over [1,2,3,4]
    assert interaction_quantile(even, 0.5) == 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
       st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
def test_quantile_matches_sort_and_index_oracle(degrees, q):
    rows = [list(range(d)) for d in degrees]
    m = InteractionMatrix.from_rows(len(degrees), 41, rows)
    ordered = sorted(degrees)
    rank = max(1, math.ceil(q * len(ordered)))
    expected = max(1, ordered[rank - 1])
    assert interaction_quantile(m, q) == expected


def test_merge_offsets_and_identity():
    a = make_split([[0, 1], [2]], [[], []], [[], []], n_items=3, name="a")
    b = make_split([[1]], [[]], [[]], n_items=2, name="b")
    merged = merge_corpora([a, b])
    assert merged.train.n_users == 3
    assert merged.train.n_items == 5
    assert merged.item_offsets == [0, 3, 5]
    assert merged.train.items_of(2).tolist() == [4]  # b's item 1 shifted by 3

    single = merge_corpora([a])
    assert single.train == a.train
    assert single.user_offsets == [0, 2]


def test_merge_preserves_counts_and_degree_multiset(rng):
    splits = []
    for p in range(3):
        rows = [sorted(rng.choice(6, size=int(rng.integers(1, 5)),
                                  replace=False).tolist()) for _ in range(4)]
        splits.append(make_split(rows, [[]] * 4, [[]] * 4, n_items=6, name=f"p{p}"))
    merged = merge_corpora(splits)
    assert merged.train.n_interactions == sum(s.train.n_interactions for s in splits)
    want = sorted(d for s in splits for d in s.train.user_degrees.tolist())
    assert sorted(merged.train.user_degrees.tolist()) == want
    want_items = sorted(d for s in splits for d in s.train.item_degrees.tolist())
    assert sorted(merged.train.item_degrees.tolist()) == want_items


def test_split_random_keeps_train_nonempty(rng):
    from conftest import random_interactions
    full = random_interactions(rng, 30, 20, 8)
    maps = IdMaps()
    for u in range(30):
        maps.user_index(f"u{u}")
    for i in range(20):
        maps.item_index(f"i{i}")
    from textgcn.corpus import ItemCatalog
    split = split_random(full, maps, ItemCatalog([f"t{i}" for i in range(20)]), seed=3)
    assert np.all(split.train.user_degrees >= 1)
    total = (split.train.n_interactions + split.val.n_interactions
             + split.test.n_interactions)
    assert total == full.n_interactions
    # parts disjoint
    assert len(np.intersect1d(split.train.pair_keys(), split.test.pair_keys())) == 0
    assert len(np.intersect1d(split.train.pair_keys(), split.val.pair_keys())) == 0


def test_save_split_roundtrip(tmp_path):
    split = make_split([[0, 1], [1]], [[2], []], [[], [0]], n_items=3)
    save_split(split, tmp_path / "ds")
    again = load_split(tmp_path / "ds")
    assert again.train == split.train
    assert again.val == split.val
    assert again.test == split.test
    assert again.catalog.titles == split.catalog.titles

