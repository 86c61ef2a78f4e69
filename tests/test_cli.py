import http.server
import json
import shlex
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from textgcn import cli
from textgcn.cli import build_parser, main
from textgcn.corpus import load_split
from textgcn.embeddings import load_matrix
from textgcn.ranking import baseline_pop, recommend_topk
from textgcn.tower import load_checkpoint
from textgcn.training import model_outputs

from conftest import write_dataset

SYNTH = "clusters:2,users:30,items:24,seed:3,min_degree:5,max_degree:8"


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds = root / "ds"
    assert main(["ingest", "--synthetic", SYNTH, "--out", str(ds)]) == 0
    return ds


@pytest.fixture(scope="module")
def mock_embeddings(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("emb") / "items.tge"
    code = main(["embed", "--dataset", str(dataset_dir), "--out", str(out),
                 "--mock", "--dim", "16", "--seed", "3"])
    assert code == 0
    return out


def test_ingest_synthetic_writes_dataset_and_manifest(dataset_dir):
    split = load_split(dataset_dir)
    assert split.train.n_users == 30
    assert split.train.n_items == 24
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["config"]["synthetic"]["n_clusters"] == 2


def test_ingest_stats_output(dataset_dir, capsys):
    assert main(["ingest", "--dataset", str(dataset_dir)]) == 0
    out = capsys.readouterr().out
    assert "users: 30" in out
    assert "train degree quantiles" in out


def test_ingest_reports_duplicates(tmp_path, capsys):
    d = write_dataset(tmp_path / "ds", ["u0 i1 i1 i2"], [], ["u0 i3"],
                      {"i1": "a", "i2": "b", "i3": "c"})
    assert main(["ingest", "--dataset", str(d)]) == 0
    assert "duplicates dropped: 1" in capsys.readouterr().out


def test_ingest_missing_titles_exit2(tmp_path, capsys):
    d = write_dataset(tmp_path / "broken", ["u1 i1"], [], ["u1 i2"],
                      {"i1": "a", "i2": "b"})
    (d / "titles.tsv").unlink()
    assert main(["ingest", "--dataset", str(d)]) == 2
    assert "missing file" in capsys.readouterr().err


def test_mock_embed_deterministic(dataset_dir, tmp_path):
    a = tmp_path / "a.tge"
    b = tmp_path / "b.tge"
    for path in (a, b):
        assert main(["embed", "--dataset", str(dataset_dir), "--out", str(path),
                     "--mock", "--dim", "8", "--seed", "1"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_embed_without_api_key_exit2(dataset_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TEXTGCN_EMBED_API_KEY", raising=False)
    code = main(["embed", "--dataset", str(dataset_dir),
                 "--out", str(tmp_path / "x.tge"),
                 "--endpoint", "http://127.0.0.1:1/v1"])
    assert code == 2
    assert "API key" in capsys.readouterr().err


class _Server(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        n = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(n))
        data = [{"index": i, "embedding": [float(len(t)), 1.0, -1.0]}
                for i, t in enumerate(payload["input"])]
        body = json.dumps({"data": data}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_embed_cache_rerun_zero_requests(dataset_dir, tmp_path, capsys, monkeypatch):
    server = http.server.HTTPServer(("127.0.0.1", 0), _Server)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    monkeypatch.setenv("TEXTGCN_EMBED_API_KEY", "test-key")
    url = f"http://127.0.0.1:{server.server_port}/v1/embeddings"
    try:
        args = ["embed", "--dataset", str(dataset_dir), "--out", str(tmp_path / "r.tge"),
                "--endpoint", url, "--cache", str(tmp_path / "cache")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "requests: 1" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "requests: 0" in second
    finally:
        server.shutdown()
        server.server_close()


def test_embed_counts_requests_of_concurrent_batches(dataset_dir, tmp_path, capsys,
                                                    monkeypatch):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Server)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    monkeypatch.setenv("TEXTGCN_EMBED_API_KEY", "test-key")
    url = f"http://127.0.0.1:{server.server_port}/v1/embeddings"
    distinct = len(set(load_split(dataset_dir).catalog.titles))
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)    # threads switch often: a lost count would show
    try:
        for concurrency in ("1", "3"):
            out = tmp_path / concurrency / "items.tge"
            assert main(["embed", "--dataset", str(dataset_dir), "--out", str(out),
                         "--endpoint", url, "--batch-size", "1",
                         "--concurrency", concurrency]) == 0
            assert f"requests: {distinct}" in capsys.readouterr().out
            outputs.append(out.read_bytes())
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
    assert outputs[0] == outputs[1]


def test_diffuse_l0_item_passthrough(dataset_dir, mock_embeddings, tmp_path):
    out = tmp_path / "diff0"
    assert main(["diffuse", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings),
                 "--layers", "0", "--out", str(out)]) == 0
    item_final = load_matrix(out / "item_final.tge")
    original = load_matrix(mock_embeddings)
    assert item_final.tobytes() == original.tobytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["layers"] == 0
    assert "embeddings" in manifest["inputs"]


def test_diffuse_rerun_bit_identical(dataset_dir, mock_embeddings, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["diffuse", "--dataset", str(dataset_dir),
                     "--embeddings", str(mock_embeddings),
                     "--layers", "2", "--out", str(out)]) == 0
    for name in ("user_final.tge", "item_final.tge"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_diffuse_corrupted_embeddings_exit2(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.tge"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main(["diffuse", "--dataset", str(dataset_dir), "--embeddings", str(bad),
                 "--layers", "1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not an embedding file" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["diffuse", "--out", "o"],
    ["evaluate", "--model", "textgcn"],
    ["recommend", "--users", "u0"],
    ["train", "--out", "o"],
    ["tune", "--stage", "pos", "--records", "r"],
], ids=lambda command: command[0])
def test_misordered_item_sidecar_exit2(command, dataset_dir, mock_embeddings,
                                       tmp_path, capsys):
    emb = tmp_path / "items.tge"
    emb.write_bytes(mock_embeddings.read_bytes())
    ids = load_split(dataset_dir).maps.item_ids
    (tmp_path / "items.tge.ids").write_text("".join(f"{i}\n" for i in reversed(ids)))
    argv = [command[0], "--dataset", str(dataset_dir), "--embeddings", str(emb)]
    argv += [str(tmp_path / a) if a in ("o", "r") else a for a in command[1:]]
    assert main(argv) == 2
    assert ".ids sidecar" in capsys.readouterr().err


def test_train_seeded_identical_jsonl(dataset_dir, mock_embeddings, tmp_path):
    runs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        code = main(["train", "--dataset", str(dataset_dir),
                     "--embeddings", str(mock_embeddings), "--out", str(out),
                     "--seed", "7", "--max-epochs", "3", "--out-dim", "8",
                     "--neg", "16", "--batch", "16"])
        assert code == 0
        runs.append((out / "log.jsonl").read_bytes())
    assert runs[0] == runs[1]


def test_train_writes_checkpoint_and_manifest(dataset_dir, mock_embeddings, tmp_path):
    out = tmp_path / "ck"
    assert main(["train", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--out", str(out),
                 "--seed", "1", "--max-epochs", "2", "--out-dim", "8",
                 "--neg", "16", "--batch", "16"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["meta"]["train_config"]["seed"] == 1
    assert manifest["meta"]["version"] == "0.1.0"
    assert "dataset0" in manifest["meta"]["inputs"]
    assert (out / "log.jsonl").exists()
    assert (out / "user.w1.tge").exists()


def test_evaluate_pop_matches_library_call(dataset_dir, capsys):
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "pop",
                 "--k", "5"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = baseline_pop(load_split(dataset_dir), k=5)
    assert got["recall"] == want.recall
    assert got["ndcg"] == want.ndcg
    assert got["users"] == want.n_users


def test_evaluate_textgcn_and_mlp(dataset_dir, mock_embeddings, tmp_path, capsys):
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "textgcn",
                 "--embeddings", str(mock_embeddings), "--layers", "2"]) == 0
    textgcn_report = json.loads(capsys.readouterr().out)
    assert textgcn_report["model"] == "textgcn"

    ck = tmp_path / "ck"
    assert main(["train", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--out", str(ck),
                 "--seed", "2", "--max-epochs", "2", "--out-dim", "8",
                 "--neg", "16", "--batch", "16"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "mlp",
                 "--checkpoint", str(ck), "--embeddings", str(mock_embeddings)]) == 0
    mlp_report = json.loads(capsys.readouterr().out)
    assert mlp_report["users"] > 0


def test_recommend_known_and_unknown_user(dataset_dir, mock_embeddings, capsys):
    split = load_split(dataset_dir)
    ext = split.maps.user_ids[0]
    assert main(["recommend", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--users", ext,
                 "--k", "4"]) == 0
    out = capsys.readouterr().out
    fields = out.strip().split("\t")
    assert fields[0] == ext
    assert len(fields) == 5
    recommended = {split.maps.item_to_dense[i] for i in fields[1:]}
    assert not (recommended & set(split.train.items_of(0).tolist()))

    assert main(["recommend", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--users", "ghost-user"]) == 2
    assert "unknown user" in capsys.readouterr().err


def test_recommend_uses_checkpoint_depth(dataset_dir, mock_embeddings, tmp_path, capsys):
    ck = tmp_path / "ck"
    assert main(["train", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--out", str(ck),
                 "--layers", "0", "--seed", "2", "--max-epochs", "2",
                 "--out-dim", "8", "--neg", "16", "--batch", "16"]) == 0
    users = ",".join(load_split(dataset_dir).maps.user_ids[:6])
    base = ["recommend", "--dataset", str(dataset_dir), "--embeddings",
            str(mock_embeddings), "--checkpoint", str(ck), "--users", users, "--k", "5"]
    capsys.readouterr()
    outputs = {}
    for label, extra in (("default", []), ("l0", ["--layers", "0"]), ("l2", ["--layers", "2"])):
        out = tmp_path / label / "recs.tsv"
        out.parent.mkdir()
        assert main(base + extra + ["--out", str(out)]) == 0
        capsys.readouterr()
        outputs[label] = out.read_text()
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["config"]["layers"] == (2 if label == "l2" else 0)
    assert outputs["default"] == outputs["l0"]
    assert outputs["l2"] != outputs["l0"]   # the depth is visible in the lists


@pytest.fixture(scope="module")
def checkpoint(dataset_dir, mock_embeddings, tmp_path_factory):
    """A short depth-1 training run; commands given it default to depth 1."""
    ck = tmp_path_factory.mktemp("ck") / "ck"
    assert main(["train", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--out", str(ck),
                 "--layers", "1", "--seed", "2", "--max-epochs", "2",
                 "--out-dim", "8", "--neg", "16", "--batch", "16"]) == 0
    return ck


def test_evaluate_mlp_tags_transfer_only_off_the_training_data(dataset_dir, mock_embeddings,
                                                              checkpoint, tmp_path, capsys):
    # same synthetic shape and directory name, other seed: names collide, files do not
    other = tmp_path / dataset_dir.name
    assert main(["ingest", "--synthetic", SYNTH.replace("seed:3", "seed:4"),
                 "--out", str(other)]) == 0
    assert load_split(other).name == load_split(dataset_dir).name
    other_emb = tmp_path / "other.tge"
    assert main(["embed", "--dataset", str(other), "--out", str(other_emb),
                 "--mock", "--dim", "16", "--seed", "3"]) == 0
    capsys.readouterr()
    tags = []
    for ds, emb in ((dataset_dir, mock_embeddings), (other, other_emb)):
        assert main(["evaluate", "--dataset", str(ds), "--model", "mlp",
                     "--checkpoint", str(checkpoint), "--embeddings", str(emb)]) == 0
        tags.append(json.loads(capsys.readouterr().out)["model"])
    assert tags == ["textgcn-mlp", "textgcn-mlp-zero-shot"]


def test_recommend_matches_per_user_library_calls(dataset_dir, mock_embeddings, checkpoint,
                                                  capsys):
    split = load_split(dataset_dir)
    emb = load_matrix(mock_embeddings)
    ids = split.maps.user_ids
    users = [ids[3], ids[0], ids[7], ids[0]]
    for params in (None, load_checkpoint(checkpoint)[0]):
        layers = 2 if params is None else 1
        user_out, item_out = model_outputs(params, split.train, emb, layers)
        want = ""
        for ext in users:
            u = split.maps.user_to_dense[ext]
            ranking = recommend_topk(user_out[u], item_out, split.train.items_of(u), 6, user=u)
            want += "\t".join([ext] + [split.maps.item_ids[i] for i in ranking.items]) + "\n"
        argv = ["recommend", "--dataset", str(dataset_dir), "--embeddings",
                str(mock_embeddings), "--users", ",".join(users), "--k", "6"]
        capsys.readouterr()
        assert main(argv + ([] if params is None else ["--checkpoint", str(checkpoint)])) == 0
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", [
    ["evaluate", "--model", "mlp"],
    ["recommend", "--users", "u0"],
], ids=lambda command: command[0])
def test_checkpoint_dimension_mismatch_exit2(command, dataset_dir, checkpoint, tmp_path,
                                             capsys):
    narrow = tmp_path / "narrow.tge"
    assert main(["embed", "--dataset", str(dataset_dir), "--out", str(narrow),
                 "--mock", "--dim", "8"]) == 0
    capsys.readouterr()
    assert main([command[0], "--dataset", str(dataset_dir), "--embeddings", str(narrow),
                 "--checkpoint", str(checkpoint), *command[1:]]) == 2
    assert "checkpoint dimension mismatch" in capsys.readouterr().err


def test_checkpoint_missing_tensor_entry_exit2(dataset_dir, mock_embeddings, checkpoint,
                                               tmp_path, capsys):
    broken = tmp_path / "ck"
    shutil.copytree(checkpoint, broken)
    manifest = json.loads((broken / "manifest.json").read_text())
    del manifest["tensors"]["user.w2"]
    (broken / "manifest.json").write_text(json.dumps(manifest))
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "mlp", "--embeddings",
                 str(mock_embeddings), "--checkpoint", str(broken)]) == 2
    assert "no entry for tensor 'user.w2'" in capsys.readouterr().err


def test_out_into_missing_directory_records_depth_used(dataset_dir, mock_embeddings,
                                                       checkpoint, tmp_path):
    common = ["--dataset", str(dataset_dir), "--embeddings", str(mock_embeddings)]
    runs = {
        "evaluate-textgcn": (["evaluate", "--model", "textgcn"], 2),
        "evaluate-mlp": (["evaluate", "--model", "mlp", "--checkpoint", str(checkpoint)], 1),
        "evaluate-mlp-l2": (["evaluate", "--model", "mlp", "--checkpoint", str(checkpoint),
                             "--layers", "2"], 2),
        "recommend-mlp": (["recommend", "--users", "u0", "--checkpoint", str(checkpoint)], 1),
    }
    for name, (argv, depth) in runs.items():
        out = tmp_path / "new" / name / "out.txt"
        assert main(argv[:1] + common + argv[1:] + ["--out", str(out)]) == 0
        assert out.read_text()
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["config"]["layers"] == depth, name


def test_embed_mock_dim_zero_exit2(dataset_dir, tmp_path, capsys):
    out = tmp_path / "zero.tge"
    assert main(["embed", "--dataset", str(dataset_dir), "--out", str(out),
                 "--mock", "--dim", "0"]) == 2
    assert "dim must be >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    (["--neg", "0"], "pos_k, neg_j and batch_users must be >= 1"),
    (["--batch", "0"], "pos_k, neg_j and batch_users must be >= 1"),
    (["--pos", "0"], "pos_k, neg_j and batch_users must be >= 1"),
    (["--tau", "0"], "temperature must be > 0"),
    (["--max-epochs", "0"], "patience, max_epochs and d_out must be >= 1"),
    (["--out-dim", "0"], "patience, max_epochs and d_out must be >= 1"),
    (["--lr", "-1"], "lr must be a finite number >= 0, got -1.0"),
    (["--lr", "inf"], "lr must be a finite number >= 0, got inf"),
    (["--lr", "nan"], "lr must be a finite number >= 0, got nan"),
], ids=["neg", "batch", "pos", "tau", "max-epochs", "out-dim", "lr-negative", "lr-inf",
        "lr-nan"])
def test_bad_head_config_exit2_before_loading(flag, message, tmp_path, capsys):
    # the dataset does not exist: the config check has to come first
    assert main(["train", "--dataset", str(tmp_path / "absent"), "--embeddings",
                 str(tmp_path / "absent.tge"), "--out", str(tmp_path / "o"), *flag]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "tune"])
@pytest.mark.parametrize("flag", ["--hidden-dim", "--eval-every"])
def test_removed_head_flags_exit2(command, flag, tmp_path):
    # the hidden width is half the input width; validation runs every epoch
    argv = [command, "--dataset", str(tmp_path / "absent"), "--embeddings",
            str(tmp_path / "absent.tge"), flag, "4"]
    argv += ["--out", str(tmp_path / "o")] if command == "train" else [
        "--stage", "broad", "--records", str(tmp_path / "r")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["train", "tune"])
@pytest.mark.parametrize("key", ["neg_sampels", "d_hidden", "eval_k", "eval_every"])
def test_config_key_outside_train_config_exit2_before_loading(command, key, tmp_path,
                                                              capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lr": 0.01, key: 4}))
    argv = [command, "--dataset", str(tmp_path / "absent"), "--embeddings",
            str(tmp_path / "absent.tge"), "--config", str(config)]
    argv += ["--out", str(tmp_path / "o")] if command == "train" else [
        "--stage", "broad", "--records", str(tmp_path / "r")]
    assert main(argv) == 2
    assert f"not a setting of this command: {key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, content, message", [
    ("train", {"seed": "3"}, 'seed must be an integer, got "3"'),
    ("train", {"patience": "5"}, 'patience must be an integer, got "5"'),
    ("train", {"lr": "0.01"}, 'lr must be a number, got "0.01"'),
    ("train", {"max_epochs": True}, "max_epochs must be an integer, got true"),
    ("tune", {"pos_k": 1.5}, "pos_k must be an integer or null, got 1.5"),
    ("tune", {"tower_mode": 1}, "tower_mode must be a string, got 1"),
    ("embed", {"dim": 8.7}, "dim must be an integer, got 8.7"),
    ("embed", {"dim": "8"}, 'dim must be an integer, got "8"'),
    ("embed", {"seed": False}, "seed must be an integer, got false"),
    ("embed", {"model": 3}, "model must be a string, got 3"),
], ids=["train-seed", "train-patience", "train-lr", "train-bool", "tune-pos-k",
        "tune-tower", "embed-float-dim", "embed-text-dim", "embed-bool-seed", "embed-model"])
def test_config_value_of_another_type_exit2_before_loading(command, content, message,
                                                           tmp_path, capsys):
    # the dataset does not exist: the type check has to come first
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(content))
    data = ["--dataset", str(tmp_path / "absent")]
    heads = ["--embeddings", str(tmp_path / "absent.tge")]
    argv = {"train": ["train", *data, *heads, "--out", str(tmp_path / "o")],
            "tune": ["tune", *data, *heads, "--stage", "broad",
                     "--records", str(tmp_path / "r")],
            "embed": ["embed", *data, "--mock", "--out", str(tmp_path / "o" / "items.tge")]}
    assert main([*argv[command], "--config", str(config)]) == 2
    assert f"{config}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["train", "--pos", "2", "--pos-quantile", "0.9"], {}, "would not take effect"),
    (["train", "--pos-quantile", "0.9"], {"pos_k": 2}, "would not take effect"),
    (["train", "--ablation", "--tower", "one"], {}, "train --ablation sets tower_mode"),
    (["train", "--ablation", "--pos", "3"], {}, "train --ablation sets pos_k"),
    (["train", "--ablation"], {"tower_mode": "two", "pos_k": 1},
     "train --ablation sets tower_mode and pos_k"),
    (["tune", "--stage", "pos", "--pos", "3"], {}, "tune --stage pos sets pos_k"),
    (["tune", "--stage", "pos", "--pos-quantile", "0.9"], {},
     "tune --stage pos sets pos_quantile"),
], ids=["pos-and-quantile", "config-pos-and-quantile", "ablation-tower", "ablation-pos",
        "ablation-config", "pos-stage-pos", "pos-stage-quantile"])
def test_train_setting_that_would_not_take_effect_exit2(argv, config, message, tmp_path,
                                                        capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    command, *flags = argv
    argv = [command, "--dataset", str(tmp_path / "absent"), "--embeddings",
            str(tmp_path / "absent.tge"), "--config", str(path), *flags]
    argv += ["--out", str(tmp_path / "o")] if command == "train" else [
        "--records", str(tmp_path / "r")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--dataset", "DATA", "--embeddings", "absent.tge", "--out", "o", "--seed", "-1"],
    ["evaluate", "--dataset", "DATA", "--model", "random", "--seed", "-1", "--out", "o/r.json"],
    ["ingest", "--synthetic", "clusters:2,users:30,items:24,seed:-1", "--out", "o"],
], ids=["train", "evaluate-random", "ingest-synthetic"])
def test_negative_seed_exit2(argv, dataset_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([str(dataset_dir) if arg == "DATA" else arg for arg in argv]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("exponent", ["nan", "2000", "-2000"])
def test_ingest_synthetic_unusable_popularity_exponent_exit2(exponent, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["ingest", "--synthetic", f"{SYNTH},pop_exponent:{exponent}",
                 "--out", str(out)]) == 2
    assert "gives non-finite or zero item weights" in capsys.readouterr().err
    assert not out.exists()


def test_embed_mock_negative_seed_accepted(dataset_dir, tmp_path):
    # the mock vectors are keyed by a hash of the title, which takes any integer seed
    out = tmp_path / "neg.tge"
    assert main(["embed", "--dataset", str(dataset_dir), "--out", str(out),
                 "--mock", "--dim", "8", "--seed", "-1"]) == 0
    assert load_matrix(out).shape[1] == 8


@pytest.mark.parametrize("content", [{"dims": 8}, {"dim": 8, "batch_size": 4}])
def test_embed_config_key_outside_its_settings_exit2(content, dataset_dir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(content))
    out = tmp_path / "e" / "items.tge"
    assert main(["embed", "--dataset", str(dataset_dir), "--out", str(out), "--mock",
                 "--config", str(config)]) == 2
    assert "not a setting of this command" in capsys.readouterr().err
    assert not out.parent.exists()


def test_embed_config_file_settings_take_effect(dataset_dir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dim": 8, "seed": 5, "endpoint": "http://127.0.0.1:1/v1",
                                  "model": "m"}))
    out = tmp_path / "items.tge"
    assert main(["embed", "--dataset", str(dataset_dir), "--out", str(out), "--mock",
                 "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["config"]["dim"], manifest["config"]["seed"]) == (8, 5)


@pytest.mark.parametrize("argv, message", [
    (["--mock", "--endpoint", "http://127.0.0.1:1/v1"],
     "embed with --mock does not read --endpoint"),
    (["--mock", "--model", "m"], "embed with --mock does not read --model"),
    (["--mock", "--cache", "CACHE"], "embed with --mock does not read --cache"),
    (["--mock", "--batch-size", "-5"], "embed with --mock does not read --batch-size"),
    (["--mock", "--concurrency", "0"], "embed with --mock does not read --concurrency"),
    (["--endpoint", "http://127.0.0.1:1/v1", "--dim", "8"],
     "embed without --mock does not read --dim"),
    (["--endpoint", "http://127.0.0.1:1/v1", "--seed", "3"],
     "embed without --mock does not read --seed"),
], ids=["mock-endpoint", "mock-model", "mock-cache", "mock-batch-size", "mock-concurrency",
        "endpoint-dim", "endpoint-seed"])
def test_embed_flag_the_mode_does_not_read_exit2(argv, message, tmp_path, capsys,
                                                 monkeypatch):
    # nothing exists: the flag check has to come before anything loads
    monkeypatch.setenv("TEXTGCN_EMBED_API_KEY", "test-key")
    cache = tmp_path / "cache"
    argv = [str(cache) if a == "CACHE" else a for a in argv]
    out = tmp_path / "e" / "items.tge"
    assert main(["embed", "--dataset", str(tmp_path / "absent"), "--out", str(out),
                 *argv]) == 2
    assert message in capsys.readouterr().err
    assert not cache.exists() and not out.parent.exists()


@pytest.mark.parametrize("concurrency", ["0", "-3"])
def test_embed_concurrency_below_one_exit2(concurrency, dataset_dir, tmp_path, capsys,
                                           monkeypatch):
    monkeypatch.setenv("TEXTGCN_EMBED_API_KEY", "test-key")
    out = tmp_path / "items.tge"
    assert main(["embed", "--dataset", str(dataset_dir), "--out", str(out),
                 "--endpoint", "http://127.0.0.1:1/v1", "--concurrency", concurrency]) == 2
    assert "concurrency must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("synthetic, message", [
    ([], "ingest --dataset does not read --out"),
    (["--synthetic", SYNTH], "ingest --synthetic does not read --dataset"),
], ids=["dataset-out", "synthetic-dataset"])
def test_ingest_flag_the_mode_does_not_read_exit2(synthetic, message, dataset_dir, tmp_path,
                                                  capsys):
    out = tmp_path / "new"
    assert main(["ingest", *synthetic, "--dataset", str(dataset_dir), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-2"])
@pytest.mark.parametrize("model", ["textgcn", "pop", "random"])
def test_evaluate_k_below_one_exit2(model, k, dataset_dir, mock_embeddings, tmp_path,
                                    capsys):
    files = ["--embeddings", str(mock_embeddings)] if model == "textgcn" else []
    out = tmp_path / "report.json"
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", model, *files,
                 "--k", k, "--out", str(out)]) == 2
    assert "k must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_tune_pos_stage(dataset_dir, mock_embeddings, tmp_path, capsys):
    records = tmp_path / "records"
    code = main(["tune", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings),
                 "--stage", "pos", "--records", str(records),
                 "--quantiles", "0.5",
                 "--max-epochs", "2", "--out-dim", "8", "--neg", "16",
                 "--batch", "16", "--seed", "0"])
    assert code == 0
    best = json.loads(capsys.readouterr().out)["best_config"]
    assert "pos_quantile" in best or best.get("pos_k") == 1
    assert (records / "summary.tsv").exists()
    assert len(list(records.glob("*.json"))) == 2


@pytest.mark.parametrize("space, message", [
    ({"values": {"neg_sampels": [4, 32]}}, "unknown parameter(s) neg_sampels"),
    ({"values": {"neg_samples": [4, 32]}, "defaults": {"neg_samples": 4, "layers": 2}},
     "unknown parameter(s) layers"),
    ({"values": ["neg_samples"]}, '"values" must map parameter names to lists'),
    ({"values": {"neg_samples": 4}}, '"values" must map parameter names to lists'),
    ({"defaults": ["neg_samples"]}, '"defaults" must map parameter names to values'),
    ({"values": {"neg_samples": [4, 32], "d_out": []}},
     "empty value list for parameter 'd_out'"),
], ids=["values", "defaults", "values-list", "values-scalar", "defaults-list", "values-empty"])
def test_tune_unknown_parameter_exit2(space, message, dataset_dir, mock_embeddings,
                                      tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(space))
    records = tmp_path / "records"
    code = main(["tune", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--stage", "broad",
                 "--space", str(space_file), "--records", str(records),
                 "--max-epochs", "1", "--out-dim", "8", "--batch", "16"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not records.exists()   # rejected before the store opens or any trial runs


@pytest.mark.parametrize("space, message", [
    ({"defaults": {"lr": "0.01"}}, 'defaults.lr must be a number, got "0.01"'),
    ({"values": {"d_out": [8, 16.0]}}, "values.d_out must be an integer, got 16.0"),
    ({"values": {"neg_samples": [True]}}, "values.neg_samples must be an integer, got true"),
    ({"values": {"pos_k": [None, "2"]}}, 'values.pos_k must be an integer or null, got "2"'),
], ids=["defaults-text-lr", "values-float-d-out", "values-bool", "values-text-pos-k"])
def test_tune_space_value_of_another_type_exit2_before_loading(space, message, tmp_path,
                                                               capsys):
    # the dataset does not exist: the type check has to come before any trial
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(space))
    records = tmp_path / "records"
    assert main(["tune", "--dataset", str(tmp_path / "absent"), "--embeddings",
                 str(tmp_path / "absent.tge"), "--stage", "broad", "--space", str(space_file),
                 "--records", str(records)]) == 2
    assert f"{space_file}: {message}" in capsys.readouterr().err
    assert not records.exists()


def test_tune_recalls_a_trial_whose_float_setting_came_as_a_json_integer(
        dataset_dir, mock_embeddings, tmp_path, capsys):
    # {"lr": 1} in a file and --lr 1 are one setting, so the second run trains nothing
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lr": 1}))
    records = tmp_path / "records"
    argv = ["tune", "--dataset", str(dataset_dir), "--embeddings", str(mock_embeddings),
            "--stage", "pos", "--quantiles", "0.5", "--records", str(records),
            "--max-epochs", "1", "--out-dim", "8", "--neg", "16", "--batch", "16"]
    assert main([*argv, "--config", str(config)]) == 0
    first = sorted(p.name for p in records.glob("*.json"))
    assert main([*argv, "--lr", "1"]) == 0
    assert sorted(p.name for p in records.glob("*.json")) == first
    assert len(first) == 2


def test_tune_grid_empty_value_list_exit2(dataset_dir, mock_embeddings, tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"values": {"n_layers": [1, 2], "d_out": []}}))
    records = tmp_path / "records"
    assert main(["tune", "--dataset", str(dataset_dir), "--embeddings", str(mock_embeddings),
                 "--stage", "grid", "--space", str(space_file), "--records", str(records),
                 "--max-epochs", "1", "--out-dim", "8", "--batch", "16"]) == 2
    assert "empty value list for parameter 'd_out'" in capsys.readouterr().err
    assert not records.exists()


def test_tune_grid_without_values_exit2(dataset_dir, mock_embeddings, tmp_path, capsys,
                                        monkeypatch):
    # a grid space with defaults only must not fall back to the broad lists
    trials = []
    monkeypatch.setattr(cli, "train", lambda *args: trials.append(args[2]))
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"defaults": {"d_out": 8}}))
    records = tmp_path / "records"
    assert main(["tune", "--dataset", str(dataset_dir), "--embeddings", str(mock_embeddings),
                 "--stage", "grid", "--space", str(space_file), "--records", str(records),
                 "--max-epochs", "1"]) == 2
    assert 'space file has no "values"' in capsys.readouterr().err
    assert trials == []
    assert not records.exists()


@pytest.mark.parametrize("command", ["tune", "train", "embed"])
@pytest.mark.parametrize("content", ["{bad", "[1, 2]"], ids=["not-json", "not-an-object"])
def test_malformed_json_file_exit2(command, content, dataset_dir, mock_embeddings,
                                   tmp_path, capsys):
    # a --space or --config file that is not a JSON object is an input error
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    out = tmp_path / "out"
    data = ["--dataset", str(dataset_dir)]
    argv = {"tune": ["tune", *data, "--embeddings", str(mock_embeddings), "--stage", "broad",
                     "--space", str(bad), "--records", str(out)],
            "train": ["train", *data, "--embeddings", str(mock_embeddings),
                      "--config", str(bad), "--out", str(out)],
            "embed": ["embed", *data, "--mock", "--config", str(bad),
                      "--out", str(out / "items.tge")]}[command]
    assert main(argv) == 2
    assert f"{bad}: not" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    ("not json", "not valid JSON"),
    ('{"recall": 0.1}', "a trial record needs"),
], ids=["not-json", "no-config"])
def test_tune_malformed_trial_record_exit2(content, message, dataset_dir, mock_embeddings,
                                           tmp_path, capsys):
    records = tmp_path / "records"
    records.mkdir()
    (records / "0123456789abcdef.json").write_text(content)
    assert main(["tune", "--dataset", str(dataset_dir), "--embeddings", str(mock_embeddings),
                 "--stage", "pos", "--quantiles", "0.5", "--records", str(records),
                 "--max-epochs", "1", "--out-dim", "8", "--neg", "16", "--batch", "16"]) == 2
    assert f"0123456789abcdef.json: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in records.iterdir()) == ["0123456789abcdef.json"]


@pytest.mark.parametrize("quantiles, message", [
    ("0.5,abc", "--quantiles must be comma-separated numbers"),
    ("1.5,-1", "--quantiles must lie in [0, 1]"),
    ("0.5,nan", "--quantiles must lie in [0, 1]"),
], ids=["not-a-number", "out-of-range", "nan"])
def test_tune_bad_quantiles_exit2_before_loading(quantiles, message, tmp_path, capsys):
    # the dataset does not exist: the quantile check has to come first
    records = tmp_path / "records"
    assert main(["tune", "--dataset", str(tmp_path / "absent"), "--embeddings",
                 str(tmp_path / "absent.tge"), "--stage", "pos", "--records", str(records),
                 "--quantiles", quantiles]) == 2
    assert message in capsys.readouterr().err
    assert not records.exists()


def test_tune_out_into_missing_directory(dataset_dir, mock_embeddings, tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "summary.tsv"
    assert main(["tune", "--dataset", str(dataset_dir), "--embeddings", str(mock_embeddings),
                 "--stage", "pos", "--records", str(tmp_path / "records"),
                 "--quantiles", "0.5", "--out", str(out), "--max-epochs", "1",
                 "--out-dim", "8", "--neg", "16", "--batch", "16"]) == 0
    assert out.read_text().startswith("d_out\tlr\tn_layers\tneg_samples\tpos_k")
    assert len(out.read_text().splitlines()) == 3    # header, quantile 0.5, k=1


@pytest.mark.parametrize("argv, message", [
    (["--model", "textgcn", "--embeddings", "e.tge", "--checkpoint", "ck"],
     "--model textgcn does not read --checkpoint"),
    (["--model", "pop", "--embeddings", "e.tge", "--checkpoint", "ck"],
     "--model pop does not read --embeddings"),
    (["--model", "random", "--checkpoint", "ck"], "--model random does not read --checkpoint"),
    (["--model", "textgcn", "--embeddings", "e.tge", "--user-emb", "u.tge",
      "--item-emb", "i.tge"], "--model textgcn does not read --embeddings"),
    (["--model", "mlp", "--embeddings", "e.tge", "--checkpoint", "ck", "--item-emb", "i.tge"],
     "--model mlp does not read --item-emb"),
    (["--model", "textgcn", "--user-emb", "u.tge"],
     "--model textgcn needs --user-emb and --item-emb"),
    (["--model", "mlp", "--embeddings", "e.tge"],
     "--model mlp needs --checkpoint and --embeddings"),
    (["--model", "pop", "--layers", "3"], "--model pop does not read --layers"),
    (["--model", "random", "--layers", "3"], "--model random does not read --layers"),
    (["--model", "textgcn", "--user-emb", "u.tge", "--item-emb", "i.tge", "--layers", "1"],
     "--model textgcn does not read --layers"),
    (["--model", "pop", "--seed", "9"], "--model pop does not read --seed"),
    (["--model", "mlp", "--embeddings", "e.tge", "--checkpoint", "ck", "--seed", "9"],
     "--model mlp does not read --seed"),
], ids=["textgcn-checkpoint", "pop-files", "random-checkpoint", "textgcn-both-tables",
        "mlp-item-emb", "textgcn-one-table", "mlp-no-checkpoint", "pop-layers",
        "random-layers", "textgcn-tables-layers", "pop-seed", "mlp-seed"])
def test_evaluate_file_flags_the_model_does_not_read_exit2(argv, message, tmp_path, capsys):
    # nothing exists: the flag check has to come before anything loads
    out = tmp_path / "eval" / "report.json"
    argv = [str(tmp_path / a) if a.endswith(".tge") or a == "ck" else a for a in argv]
    assert main(["evaluate", "--dataset", str(tmp_path / "absent"), *argv,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.parent.exists()


def test_commands_refuse_to_replace_a_checkpoint_manifest(dataset_dir, mock_embeddings,
                                                          checkpoint, tmp_path, capsys):
    ck = tmp_path / "ck"
    shutil.copytree(checkpoint, ck)
    before = {p.name: p.read_bytes() for p in ck.iterdir()}
    for argv in (["evaluate", "--model", "pop", "--out", str(ck / "report.json")],
                 ["diffuse", "--embeddings", str(mock_embeddings), "--out", str(ck)],
                 ["recommend", "--embeddings", str(mock_embeddings), "--users", "u0",
                  "--out", str(ck / "recs.tsv")]):
        assert main([argv[0], "--dataset", str(dataset_dir), *argv[1:]]) == 2
        assert "written by train" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in ck.iterdir()} == before
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "mlp",
                 "--checkpoint", str(ck), "--embeddings", str(mock_embeddings)]) == 0


def test_embed_refuses_to_replace_the_ingest_manifest(dataset_dir, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(dataset_dir, ds)
    before = (ds / "manifest.json").read_bytes()
    assert main(["embed", "--dataset", str(ds), "--out", str(ds / "items.tge"),
                 "--mock", "--dim", "8"]) == 2
    assert "written by ingest; embed will not replace it" in capsys.readouterr().err
    assert (ds / "manifest.json").read_bytes() == before
    assert not (ds / "items.tge").exists()


def test_manifest_refusal_comes_before_loading(tmp_path, capsys):
    # an unreadable manifest counts as another command's
    (tmp_path / "manifest.json").write_text('{"command": "evalu')
    assert main(["evaluate", "--dataset", str(tmp_path / "absent"), "--model", "pop",
                 "--out", str(tmp_path / "report.json")]) == 2
    assert "written by another program" in capsys.readouterr().err


def test_a_command_replaces_its_own_manifest(dataset_dir, mock_embeddings, tmp_path, capsys):
    for name in ("a.json", "b.json"):
        assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "pop",
                     "--out", str(tmp_path / "eval" / name)]) == 0
    manifest = json.loads((tmp_path / "eval" / "manifest.json").read_text())
    assert manifest["config"]["out"] == str(tmp_path / "eval" / "b.json")
    train = ["train", "--dataset", str(dataset_dir), "--embeddings", str(mock_embeddings),
             "--max-epochs", "1", "--out-dim", "8", "--neg", "16", "--batch", "16"]
    for _ in range(2):
        assert main(train + ["--out", str(tmp_path / "ck")]) == 0
    # train --ablation checks every variant directory it would write
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "pop",
                 "--out", str(tmp_path / "abl" / "two-tower_k-pos" / "r.json")]) == 0
    capsys.readouterr()
    assert main(train + ["--ablation", "--out", str(tmp_path / "abl")]) == 2
    assert "two-tower_k-pos" in capsys.readouterr().err
    assert not (tmp_path / "abl" / "one-tower_1-pos").exists()


@pytest.mark.parametrize("edit, match", [
    (lambda text: text[:200], "not valid JSON"),
    (lambda text: text.replace('"file": "user.w2.tge",', ""),
     "tensor 'user.w2' has no 'file' entry"),
], ids=["torn", "entry-without-file"])
def test_evaluate_broken_checkpoint_manifest_exit2(dataset_dir, mock_embeddings, checkpoint,
                                                   tmp_path, capsys, edit, match):
    ck = tmp_path / "ck"
    shutil.copytree(checkpoint, ck)
    manifest = ck / "manifest.json"
    manifest.write_text(edit(manifest.read_text()))
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "mlp",
                 "--checkpoint", str(ck), "--embeddings", str(mock_embeddings)]) == 2
    assert match in capsys.readouterr().err


def test_tune_ignores_other_json_in_records(dataset_dir, mock_embeddings, tmp_path, capsys):
    trials = tmp_path / "trials"
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "pop",
                 "--out", str(trials / "pop.json")]) == 0
    assert main(["tune", "--dataset", str(dataset_dir), "--embeddings", str(mock_embeddings),
                 "--stage", "pos", "--quantiles", "0.5", "--records", str(trials),
                 "--max-epochs", "1", "--out-dim", "8", "--neg", "16", "--batch", "16"]) == 0
    rows = (trials / "summary.tsv").read_text().strip().split("\n")
    assert len(rows) == 3     # header plus the two trials, not the report


def test_ablation_flag_emits_table(dataset_dir, mock_embeddings, tmp_path):
    out = tmp_path / "abl"
    assert main(["train", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--out", str(out),
                 "--ablation", "--seed", "0", "--max-epochs", "2",
                 "--out-dim", "8", "--neg", "16", "--batch", "16",
                 "--pos-quantile", "0.75"]) == 0
    table = (out / "ablation.tsv").read_text()
    lines = table.strip().split("\n")
    assert lines[0] == "variant\tval_recall\ttest_recall\tbest_epoch"
    assert len(lines) == 5
    labels = {l.split("\t")[0] for l in lines[1:]}
    assert labels == {"one-tower/1-pos", "one-tower/k-pos",
                      "two-tower/1-pos", "two-tower/k-pos"}
    # the k-pos variants draw pos_quantile positives, so the ablation reads it
    manifest = json.loads((out / "two-tower_k-pos" / "manifest.json").read_text())
    assert manifest["meta"]["train_config"]["pos_quantile"] == 0.75


def test_threads_flag_rejected(dataset_dir):
    # thread pools are sized when numpy loads; set OPENBLAS_NUM_THREADS instead
    for argv in (["--threads", "2", "ingest", "--dataset", str(dataset_dir)],
                 ["ingest", "--dataset", str(dataset_dir), "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_config_file_precedence(dataset_dir, mock_embeddings, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lr": 0.01, "max_epochs": 2, "d_out": 8,
                                  "neg_samples": 16, "batch_users": 16}))
    # file value used when no flag is given
    out1 = tmp_path / "o1"
    assert main(["train", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--out", str(out1),
                 "--config", str(config), "--seed", "0"]) == 0
    meta1 = json.loads((out1 / "manifest.json").read_text())["meta"]["train_config"]
    assert meta1["lr"] == 0.01

    # explicit flag beats the file
    out2 = tmp_path / "o2"
    assert main(["train", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings), "--out", str(out2),
                 "--config", str(config), "--lr", "0.02", "--seed", "0"]) == 0
    meta2 = json.loads((out2 / "manifest.json").read_text())["meta"]["train_config"]
    assert meta2["lr"] == 0.02


def test_evaluate_precomputed_diffusion_files(dataset_dir, mock_embeddings,
                                              tmp_path, capsys):
    diffdir = tmp_path / "diff"
    assert main(["diffuse", "--dataset", str(dataset_dir),
                 "--embeddings", str(mock_embeddings),
                 "--layers", "2", "--out", str(diffdir)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "textgcn",
                 "--user-emb", str(diffdir / "user_final.tge"),
                 "--item-emb", str(diffdir / "item_final.tge")]) == 0
    from_files = json.loads(capsys.readouterr().out)
    assert main(["evaluate", "--dataset", str(dataset_dir), "--model", "textgcn",
                 "--embeddings", str(mock_embeddings), "--layers", "2"]) == 0
    from_raw = json.loads(capsys.readouterr().out)
    assert from_files["recall"] == from_raw["recall"]
    assert from_files["ndcg"] == from_raw["ndcg"]


def test_joint_training_two_datasets(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["ingest", "--synthetic", SYNTH + ",tag:A", "--out", str(a)]) == 0
    assert main(["ingest", "--synthetic",
                 "clusters:2,users:20,items:18,seed:4,min_degree:5,max_degree:7,tag:B",
                 "--out", str(b)]) == 0
    emb_a = tmp_path / "a.tge"
    emb_b = tmp_path / "b.tge"
    for ds, out in ((a, emb_a), (b, emb_b)):
        assert main(["embed", "--dataset", str(ds), "--out", str(out),
                     "--mock", "--dim", "12", "--seed", "0"]) == 0
    ck = tmp_path / "joint"
    assert main(["train", "--dataset", str(a), str(b),
                 "--embeddings", str(emb_a), str(emb_b), "--out", str(ck),
                 "--seed", "0", "--max-epochs", "2", "--out-dim", "8",
                 "--neg", "16", "--batch", "16"]) == 0
    assert (ck / "log.jsonl").exists()
    manifest = json.loads((ck / "manifest.json").read_text())
    assert manifest["meta"]["train_config"]["seed"] == 0
    # checkpoint manifest lists both source datasets
    _, _, meta = load_checkpoint(ck)
    assert len(meta["sources"]) == 2


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI pipeline", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("textgcn ")]
    assert len(commands) == 13
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command no longer parses: {command}")
