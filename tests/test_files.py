"""Every file goes through files.write_atomic: whole or not at all, plain-open modes."""

import os
import stat
import types

import numpy as np
import pytest

from textgcn import embeddings
from textgcn.cli import main
from textgcn.embeddings import VectorCache, cache_key, load_matrix, save_matrix
from textgcn.files import write_atomic
from textgcn.search import TrialRecord, TrialStore

SYNTH = "clusters:2,users:30,items:24,seed:3,min_degree:5,max_degree:8"


def test_write_atomic_replaces_whole_and_creates_parents(tmp_path):
    path = tmp_path / "a" / "b" / "f.txt"
    with write_atomic(path) as fh:
        fh.write("one\n")
    with write_atomic(path, "wb") as fh:
        fh.write(b"two\n")
    assert path.read_bytes() == b"two\n"
    assert os.listdir(path.parent) == ["f.txt"]


def test_write_atomic_failure_keeps_old_bytes_and_no_temp_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="interrupted"):
        with write_atomic(path) as fh:
            fh.write("new, but only half")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["f.txt"]


def test_save_matrix_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "m.tge"
    old = np.arange(6, dtype=np.float32).reshape(2, 3)
    save_matrix(old, path)
    before = path.read_bytes()

    def pack(*_):
        raise KeyboardInterrupt

    # the header is packed after the file is open: an interruption mid-write
    monkeypatch.setattr(embeddings, "struct", types.SimpleNamespace(pack=pack))
    with pytest.raises(KeyboardInterrupt):
        save_matrix(np.zeros((4, 3), dtype=np.float32), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.tge"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_new_files_get_plain_open_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        save_matrix(np.ones((1, 2), dtype=np.float32), tmp_path / "m.tge", ids=["x"])
        VectorCache(tmp_path / "cache").put([cache_key("m", "k")], np.ones((1, 2), np.float32))
        TrialStore(tmp_path / "rec").put("0123456789abcdef", TrialRecord({"lr": 1.0}, 0.5))
    finally:
        os.umask(old)
    [segment] = (tmp_path / "cache").iterdir()
    for path in (tmp_path / "m.tge", tmp_path / "m.tge.ids", segment,
                 tmp_path / "rec" / "0123456789abcdef.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


def test_out_symlink_is_written_through(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["ingest", "--synthetic", SYNTH, "--out", str(data)]) == 0
    target = tmp_path / "reports" / "pop.json"
    target.parent.mkdir()
    target.write_text("stale\n")
    link = tmp_path / "links" / "pop.json"
    link.parent.mkdir()
    link.symlink_to(target)
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(data), "--model", "pop", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == capsys.readouterr().out
    assert sorted(os.listdir(target.parent)) == ["pop.json"]
    assert sorted(os.listdir(link.parent)) == ["manifest.json", "pop.json"]


def test_save_matrix_writes_header_then_row_major_floats(tmp_path):
    # a strided view is made contiguous once, then written from its buffer
    matrix = np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2]
    save_matrix(matrix, tmp_path / "m.tge")
    header = b"TGE1" + np.array([1, 4, 3], dtype="<u4").tobytes()
    assert (tmp_path / "m.tge").read_bytes() == header + matrix.astype("<f4").tobytes()
    assert np.array_equal(load_matrix(tmp_path / "m.tge"), matrix)
