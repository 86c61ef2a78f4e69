"""Two-stage hyperparameter search with resumable on-disk trial records.

Stage one sweeps each parameter over a broad list with the others at their
defaults; stage two runs a small full grid over the promising region. A
third sweep picks the positive-count policy. Every trial lands in a record
directory keyed by config hash, so re-running skips finished work.
"""

import tempfile
from dataclasses import fields, replace
from pathlib import Path

from textgcn.embeddings import mock_embed
from textgcn.search import TrialStore, greedy_stage, grid_stage, pos_quantile_sweep, summary_tsv
from textgcn.synthetic import SyntheticConfig, generate_clustered_split
from textgcn.training import TrainConfig, train

split = generate_clustered_split(SyntheticConfig(
    n_clusters=2, n_users=120, n_items=60, seed=3))
item_emb = mock_embed(split.catalog, dim=32, seed=3)

base = TrainConfig(temperature=0.15, batch_users=64, patience=10, max_epochs=60,
                   seed=0, d_out=16, neg_samples=32)
field_names = {f.name for f in fields(TrainConfig)}
trials_run = [0]


def runner(config: dict) -> float:
    overrides = {k: v for k, v in config.items() if k in field_names}
    trials_run[0] += 1
    _, log, _ = train(split, item_emb, replace(base, **overrides))
    return log.best_val_recall


records_dir = Path(tempfile.mkdtemp(prefix="textgcn-trials-"))
store = TrialStore(records_dir)

# ------------------------------------------------- stage 1: broad greedy
# Small lists keep the demo quick; the shipped BROAD_VALUES cover the full
# published ranges.
values = {"n_layers": [1, 2, 3], "d_out": [8, 16, 32], "lr": [1e-4, 5e-4, 1e-3]}
defaults = {"n_layers": 2, "d_out": 16, "lr": 5e-4}
best_per_param = greedy_stage(values, defaults, runner, store)
print(f"broad stage: {trials_run[0]} trials (the all-defaults config ran once)")
print(f"best value per parameter: {best_per_param}\n")

# --------------------------------------------------- stage 2: narrow grid
narrow = {"n_layers": sorted({best_per_param['n_layers'], 2}),
          "d_out": sorted({best_per_param['d_out'], 32})}
best_config = grid_stage(narrow, defaults, runner, store)
print(f"narrow grid over {narrow}")
print(f"best config: {best_config}\n")

# --------------------------------------------- positive-count policy sweep
best_pos = pos_quantile_sweep([0.25, 0.5, 0.75], best_config, runner, store)
policy = (f"quantile {best_pos['pos_quantile']}" if best_pos.get("pos_k") is None
          else f"fixed k={best_pos['pos_k']}")
print(f"positive-count sweep winner: {policy}\n")

# ------------------------------------------------------------ resumption
before = trials_run[0]
resumed = TrialStore(records_dir)          # fresh process would do the same
greedy_stage(values, defaults, runner, resumed)
print(f"re-running the broad stage recomputed {trials_run[0] - before} trials")
print(f"\nrecords live in {records_dir}; summary:\n")
print(summary_tsv(resumed.records())[:600])
