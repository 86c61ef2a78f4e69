import json

import pytest

from textgcn.errors import DataError
from textgcn.search import (BROAD_VALUES, POS_QUANTILES, TrialRecord, TrialStore,
                            config_hash, greedy_stage, grid_stage, load_space,
                            pos_quantile_sweep, run_trials, summary_tsv)
from textgcn.training import TrainConfig

DEFAULTS = {name: getattr(TrainConfig(), name) for name in BROAD_VALUES}


class CountingRunner:
    def __init__(self, score_fn=None, fail_on=None):
        self.calls: list[dict] = []
        self.score_fn = score_fn or (lambda cfg: 0.5)
        self.fail_on = fail_on or (lambda cfg: False)

    def __call__(self, config: dict) -> float:
        self.calls.append(dict(config))
        if self.fail_on(config):
            raise RuntimeError("boom")
        return self.score_fn(config)


@pytest.fixture
def store(tmp_path):
    return TrialStore(tmp_path / "records")


def test_greedy_dedup_counts_shared_default(store):
    # broad lists: 7 + 7 + 6 + 7 with defaults inside each
    sizes = [len(v) for v in BROAD_VALUES.values()]
    assert sorted(sizes) == [6, 7, 7, 7]
    runner = CountingRunner()
    best = greedy_stage(BROAD_VALUES, DEFAULTS, runner, store)
    # all-defaults config runs once, not once per parameter
    assert len(runner.calls) == sum(sizes) - 3
    assert len(store.records()) == sum(sizes) - 3
    assert set(best) == set(BROAD_VALUES)


def test_greedy_single_value_lists(store):
    runner = CountingRunner()
    best = greedy_stage({"lr": [5e-4], "d_out": [64]}, DEFAULTS, runner, store)
    assert len(runner.calls) == 1
    assert best == {"lr": 5e-4, "d_out": 64}


def test_greedy_varies_one_parameter_at_a_time(store):
    runner = CountingRunner()
    greedy_stage(BROAD_VALUES, DEFAULTS, runner, store)
    for config in runner.calls:
        diffs = [k for k, v in DEFAULTS.items() if config[k] != v]
        assert len(diffs) <= 1


def test_greedy_picks_argmax_per_parameter(store):
    score = lambda cfg: {1: 0.1, 2: 0.3, 3: 0.9, 4: 0.2}.get(cfg["n_layers"], 0.0)
    best = greedy_stage({"n_layers": [1, 2, 3, 4]}, DEFAULTS,
                        CountingRunner(score_fn=score), store)
    assert best["n_layers"] == 3


def test_greedy_tie_keeps_earliest_entry(store):
    best = greedy_stage({"n_layers": [3, 1, 2]}, DEFAULTS, CountingRunner(), store)
    assert best["n_layers"] == 3


def test_greedy_survives_trial_failures(store):
    runner = CountingRunner(score_fn=lambda c: c["n_layers"] * 0.1,
                            fail_on=lambda c: c["n_layers"] == 3)
    best = greedy_stage({"n_layers": [1, 2, 3]}, DEFAULTS, runner, store)
    assert best["n_layers"] == 2
    failed = [r for r in store.records() if not r.ok]
    assert len(failed) == 1 and "boom" in failed[0].error


@pytest.mark.parametrize("stage", [
    lambda runner, store: greedy_stage({"lr": [5e-4, 1e-3], "n_layers": [1, 3]}, DEFAULTS,
                                       runner, store),
    lambda runner, store: grid_stage({"n_layers": [1, 3]}, DEFAULTS, runner, store),
    lambda runner, store: pos_quantile_sweep([0.5], DEFAULTS, runner, store),
], ids=["greedy", "grid", "pos"])
def test_every_trial_failed_raises(stage, store):
    # greedy: lr's sweep survives on the shared default, n_layers' sweep does not
    runner = CountingRunner(fail_on=lambda c: c["n_layers"] != 2 or "pos_k" in c)
    with pytest.raises(DataError, match="every trial failed"):
        stage(runner, store)
    # the failures are on disk, so a rerun does not repeat them
    assert any(not r.ok for r in TrialStore(store.directory).records())


def test_run_trials_runs_each_distinct_config_once(store):
    runner = CountingRunner(score_fn=lambda c: c["lr"])
    records = run_trials([{"lr": 0.1}, {"lr": 0.2}, {"lr": 0.1}], runner, store)
    assert [r.val_recall for r in records] == [0.1, 0.2, 0.1]
    assert runner.calls == [{"lr": 0.1}, {"lr": 0.2}]


def test_resumability_zero_recomputation(tmp_path):
    values = {"n_layers": [1, 2]}
    first = CountingRunner()
    greedy_stage(values, DEFAULTS, first, TrialStore(tmp_path / "records"))
    assert len(first.calls) == 2

    # a fresh store over the same directory must not re-run anything
    poisoned = CountingRunner(score_fn=lambda c: 1 / 0)
    best = greedy_stage(values, DEFAULTS, poisoned, TrialStore(tmp_path / "records"))
    assert poisoned.calls == []
    assert best["n_layers"] in (1, 2)


def test_records_with_timing_resume_without_recomputation(tmp_path):
    # records written before timing was dropped carry a wall_time field
    records = tmp_path / "records"
    records.mkdir()
    scores = {1: 0.2, 2: 0.4}
    for n_layers, recall in scores.items():
        config = dict(DEFAULTS, n_layers=n_layers)
        (records / f"{config_hash(config)}.json").write_text(json.dumps(
            {"config": config, "error": "", "val_recall": recall, "wall_time": 1.25},
            sort_keys=True) + "\n")
    poisoned = CountingRunner(score_fn=lambda c: 1 / 0)
    best = greedy_stage({"n_layers": [1, 2]}, DEFAULTS, poisoned, TrialStore(records))
    assert poisoned.calls == []
    assert best == {"n_layers": 2}


def test_grid_product_count_and_argmax(store):
    runner = CountingRunner(score_fn=lambda c: c["n_layers"] * 0.1 + c["d_out"] * 0.001)
    values = {"n_layers": [2, 3], "d_out": [128, 256], "neg_samples": [512]}
    best = grid_stage(values, DEFAULTS, runner, store)
    assert len(runner.calls) == 4
    assert best["n_layers"] == 3 and best["d_out"] == 256
    # argmax must equal a brute-force scan over the records
    brute = max((r for r in store.records() if r.ok), key=lambda r: r.val_recall).config
    assert best == brute


def test_grid_single_config(store):
    best = grid_stage({"n_layers": [4]}, DEFAULTS, CountingRunner(), store)
    assert len(store.records()) == 1
    assert best["n_layers"] == 4


def test_grid_tie_break_prefers_smaller_model(store):
    runner = CountingRunner(score_fn=lambda c: 0.5)   # everything ties
    values = {"n_layers": [3, 2], "d_out": [256, 128]}
    best = grid_stage(values, DEFAULTS, runner, store)
    assert (best["d_out"], best["n_layers"]) == (128, 2)


def test_pos_quantile_sweep_trials(store):
    runner = CountingRunner(score_fn=lambda c: c.get("pos_quantile") or 0.0)
    best = pos_quantile_sweep([0.5], DEFAULTS, runner, store)
    records = store.records()
    assert len(records) == 2      # the quantile plus fixed k=1
    assert best["pos_quantile"] == 0.5
    ks = [r.config.get("pos_k") for r in records]
    assert 1 in ks


def test_pos_quantile_default_list(store):
    runner = CountingRunner(score_fn=lambda c: 0.1)
    best = pos_quantile_sweep(POS_QUANTILES, DEFAULTS, runner, store)
    assert len(store.records()) == 4      # {0.25, 0.5, 0.75} + k=1
    assert best["pos_quantile"] == 0.25   # the first maximum wins


def test_trial_record_roundtrip_and_hash_stability(tmp_path):
    record = TrialRecord(config={"lr": 5e-4, "n_layers": 2}, val_recall=0.25)
    (tmp_path / "r.json").write_text(record.to_json())
    assert TrialRecord.read(tmp_path / "r.json") == record
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_store_atomic_persistence(tmp_path):
    store = TrialStore(tmp_path / "rec")
    record = TrialRecord(config={"lr": 1e-3}, val_recall=0.4)
    store.put(config_hash(record.config), record)
    files = list((tmp_path / "rec").glob("*.json"))
    assert len(files) == 1
    assert not list((tmp_path / "rec").glob(".*.tmp"))
    again = TrialStore(tmp_path / "rec")
    assert again.get(config_hash(record.config)) == record


def test_store_put_uses_a_private_temp_name(tmp_path):
    # a fixed temp name is shared by every process writing the same key; a
    # directory there stands in for another writer holding that name
    store = TrialStore(tmp_path / "rec")
    record = TrialRecord(config={"lr": 1e-3}, val_recall=0.4)
    key = config_hash(record.config)
    # the store makes its directory on the first put
    (tmp_path / "rec" / f".{key}.tmp").mkdir(parents=True)
    store.put(key, record)
    assert TrialStore(tmp_path / "rec").get(key) == record
    # no temp file is left behind
    assert sorted(p.name for p in (tmp_path / "rec").iterdir()) == [f".{key}.tmp", f"{key}.json"]


def test_store_reads_only_hash_named_records(tmp_path):
    # a report parked in the records directory is not a trial
    store = TrialStore(tmp_path / "rec")
    record = TrialRecord(config={"lr": 1e-3}, val_recall=0.4)
    store.put(config_hash(record.config), record)
    (tmp_path / "rec" / "pop.json").write_text('{"recall": 0.1}\n')
    (tmp_path / "rec" / "manifest.json").write_text('{"command": "evaluate"}\n')
    assert TrialStore(tmp_path / "rec").records() == [record]


@pytest.mark.parametrize("content, message", [
    (b"not json", "not valid JSON"),
    (b"\xff\xfe{}", "not valid JSON"),
    (b"[1]", "not a JSON object"),
    (b'{"recall": 0.1}', "a trial record needs"),
    (b'{"config": {"lr": 1.0}, "val_recall": "high"}', "a trial record needs"),
    (b'{"config": {"lr": 1.0}, "val_recall": 0.1, "error": 5}', "a trial record needs"),
], ids=["not-json", "not-utf8", "not-an-object", "no-config", "text-recall", "number-error"])
def test_store_rejects_a_malformed_record(tmp_path, content, message):
    (tmp_path / "rec").mkdir()
    (tmp_path / "rec" / "0123456789abcdef.json").write_bytes(content)
    with pytest.raises(DataError, match=f"0123456789abcdef.json: {message}"):
        TrialStore(tmp_path / "rec")


def test_summary_tsv_sorted():
    records = [TrialRecord({"lr": 1e-3}, 0.2),
               TrialRecord({"lr": 5e-4}, 0.9),
               TrialRecord({"lr": 1e-4}, -float("inf"), error="boom")]
    table = summary_tsv(records)
    lines = table.strip().split("\n")
    assert lines[0] == "lr\tval_recall\terror"
    assert "0.900000" in lines[1]
    assert lines[-1].endswith("boom")


def test_shipped_broad_space_values():
    # the shipped broad lists, each holding TrainConfig's default for its parameter
    assert BROAD_VALUES["d_out"] == [16, 32, 64, 128, 256, 512, 1024]
    assert BROAD_VALUES["lr"] == [1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2]
    assert BROAD_VALUES["n_layers"] == [1, 2, 3, 4, 5, 8]
    assert BROAD_VALUES["neg_samples"] == [16, 32, 64, 128, 256, 512, 1024]
    assert POS_QUANTILES == [0.25, 0.5, 0.75]
    assert DEFAULTS == {"lr": 5e-4, "d_out": 64, "neg_samples": 256, "n_layers": 2}
    for name, default in DEFAULTS.items():
        assert default in BROAD_VALUES[name]


def test_empty_value_list_rejected(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"values": {"lr": [], "d_out": [8]}}))
    with pytest.raises(DataError, match="empty value list for parameter 'lr'"):
        load_space(space, BROAD_VALUES, DEFAULTS)


def test_load_space_falls_back_per_key(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"values": {"d_out": [8, 16]}}))
    assert load_space(space, BROAD_VALUES, DEFAULTS) == ({"d_out": [8, 16]}, DEFAULTS)
    space.write_text(json.dumps({"defaults": {"d_out": 8}}))
    assert load_space(space, BROAD_VALUES, DEFAULTS) == (BROAD_VALUES, {"d_out": 8})


def test_load_space_stores_an_integer_float_setting_as_a_float(tmp_path):
    # {"lr": 1} from a file hashes like --lr 1, so its trial is recalled, not rerun
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"values": {"lr": [1, 0.5], "d_out": [8]},
                                 "defaults": {"lr": 2, "temperature": 1}}))
    values, defaults = load_space(space, None, DEFAULTS)
    assert values == {"lr": [1.0, 0.5], "d_out": [8]}
    assert [type(v) for v in values["lr"] + values["d_out"]] == [float, float, int]
    assert [type(v) for v in defaults.values()] == [float, float]
    assert config_hash(dict(defaults, lr=values["lr"][0])) == config_hash(
        {"lr": 1.0, "temperature": 1.0})


def test_pos_quantile_end_to_end_direction(tmp_path):
    # trained through the real loop: the median-positive policy should hold
    # its own against single-positive training on clustered data
    from dataclasses import fields, replace
    from textgcn.corpus import load_split, save_split
    from textgcn.embeddings import mock_embed
    from textgcn.synthetic import generate_clustered_split, parse_synthetic_spec
    from textgcn.training import TrainConfig, train

    save_split(generate_clustered_split(parse_synthetic_spec(
        "clusters:2,users:200,items:100,seed:29,vocab:shared,tag:A")), tmp_path / "ds")
    split = load_split(tmp_path / "ds")
    emb = mock_embed(split.catalog, dim=64, seed=7)
    base = TrainConfig(lr=5e-4, d_out=32, n_layers=2, neg_samples=64,
                       temperature=0.15, batch_users=64, patience=20,
                       max_epochs=200, seed=2)
    names = {f.name for f in fields(TrainConfig)}

    def runner(config: dict) -> float:
        overrides = {k: v for k, v in config.items() if k in names}
        _, log, _ = train(split, emb, replace(base, **overrides))
        return log.best_val_recall

    store = TrialStore(tmp_path / "records")
    best = pos_quantile_sweep([0.5], {}, runner, store)
    by_policy = {}
    for rec in store.records():
        key = "k=1" if rec.config.get("pos_k") == 1 else "median"
        by_policy[key] = rec.val_recall
    assert by_policy["median"] >= by_policy["k=1"] - 0.005
    assert best.get("pos_quantile") == 0.5


def test_all_degree_one_users_make_quantiles_equal():
    from textgcn.corpus import InteractionMatrix
    from textgcn.training import TrainConfig, resolve_pos_k

    train_m = InteractionMatrix.from_rows(5, 10, [[i] for i in range(5)])
    ks = {resolve_pos_k(train_m, TrainConfig(pos_quantile=q))
          for q in (0.25, 0.5, 0.75)}
    assert ks == {1}
