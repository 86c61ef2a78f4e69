"""Acceptance margins over training seeds: how far criteria 6 and 7 clear their bounds.

Usage: python tools/margins.py [--src SRC] [--seeds 1-8]

Imports textgcn from SRC (default: this checkout's ``src/``) and rebuilds,
in a temporary directory, the comparisons of ``tests/test_acceptance.py``
whose outcome depends on the training seed, once per seed with only the
seed changed:

- criterion 6: ``mlp - textgcn`` (test recall of the trained head minus
  that of the diffused embeddings; passes at >= 0) and ``zs - randB``
  (zero-shot recall on corpus B minus its random baseline; passes at > 0);
- criterion 7: ``kpos - best`` (two-tower/k-pos test recall minus the best
  of the four ``train --ablation`` variants; passes at >= -0.005).

Criterion 9 replays a scripted validation curve, so it has no seed margin.
The corpora, the embeddings, the training settings and the bounds are the
acceptance suite's. BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` is set, since training is byte-identical only at
a fixed thread count. It prints one tab-separated row per seed, then the
min, median and max of each margin and how many seeds pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import operator
import os
import statistics
import sys
import tempfile
from pathlib import Path

# as in tests/test_acceptance.py; tests/test_margins.py checks each against it
SYNTH_A = ("clusters:2,users:200,items:100,seed:29,vocab:shared,tag:A")
SYNTH_B = ("clusters:2,users:150,items:80,seed:21,vocab:shared,tag:B")
TRAIN_FLAGS = ["--seed", "2", "--out-dim", "32", "--neg", "64", "--tau", "0.15",
               "--batch", "64", "--patience", "20", "--max-epochs", "200"]
CRITERION_6_CONFIG = dict(lr=5e-4, d_out=32, n_layers=2, neg_samples=64, temperature=0.15,
                          batch_users=64, patience=20, max_epochs=200)
EMBED_FLAGS = ["--mock", "--dim", "64", "--seed", "7"]
K = 20
RANDOM_SEED = 0         # baseline_random's seed
# margin name -> (comparison, bound): a seed passes when `margin <comparison> bound`
MARGINS = {
    "mlp - textgcn": (">=", 0.0),
    "zs - randB": (">", 0.0),
    "kpos - best": (">=", -0.005),
}
_COMPARE = {">=": operator.ge, ">": operator.gt}


def _with(flags: list[str], flag: str, value: int) -> list[str]:
    out = list(flags)
    out[out.index(flag) + 1] = str(value)
    return out


def _cli(tg, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = tg.cli.main(argv)
    if code != 0:
        raise SystemExit(f"textgcn {' '.join(argv)} exited {code}")


def _corpus(tg, root: Path, spec: str, name: str):
    dataset, emb = root / f"dataset_{name}", root / f"items_{name}.tge"
    _cli(tg, ["ingest", "--synthetic", spec, "--out", str(dataset)])
    _cli(tg, ["embed", "--dataset", str(dataset), "--out", str(emb), *EMBED_FLAGS])
    return dataset, emb, tg.load_split(dataset), tg.load_matrix(emb)


def seed_margins(tg, root: Path, seeds: list[int]) -> list[dict[str, float]]:
    """One dict of margins per seed, in ``MARGINS`` order."""
    dataset_a, emb_a, split_a, item_emb_a = _corpus(tg, root, SYNTH_A, "a")
    _, _, split_b, item_emb_b = _corpus(tg, root, SYNTH_B, "b")
    n_layers = CRITERION_6_CONFIG["n_layers"]
    diff = tg.diffuse(split_a.train, item_emb_a, n_layers)
    textgcn_r = tg.evaluate(split_a, diff.user_final, diff.item_final, k=K).recall
    random_b = tg.baseline_random(split_b, k=K, seed=RANDOM_SEED).recall
    rows = []
    for seed in seeds:
        cfg = tg.TrainConfig(**CRITERION_6_CONFIG, seed=seed)
        params, _, diff2 = tg.train(split_a, item_emb_a, cfg)
        user_out, item_out = tg.training.project(params, diff2.user_final, diff2.item_final)
        mlp_r = tg.evaluate(split_a, user_out, item_out, k=K, model="textgcn-mlp").recall
        zero_shot_r = tg.apply_zero_shot(params, split_b, item_emb_b, n_layers=n_layers).recall

        out = root / f"ablation-{seed}"
        _cli(tg, ["train", "--dataset", str(dataset_a), "--embeddings", str(emb_a),
                  "--out", str(out), "--ablation", *_with(TRAIN_FLAGS, "--seed", seed)])
        lines = (out / "ablation.tsv").read_text().strip().split("\n")[1:]
        test_recall = {p[0]: float(p[2]) for p in (line.split("\t") for line in lines)}
        rows.append({"mlp - textgcn": mlp_r - textgcn_r,
                     "zs - randB": zero_shot_r - random_b,
                     "kpos - best": test_recall["two-tower/k-pos"] - max(test_recall.values())})
    return rows


def report(seeds: list[int], rows: list[dict[str, float]]) -> list[str]:
    lines = ["seed\t" + "\t".join(MARGINS)]
    lines += [f"{s}\t" + "\t".join(f"{r[m]:+.4f}" for m in MARGINS) for s, r in zip(seeds, rows)]
    for label, stat in (("min", min), ("median", statistics.median), ("max", max)):
        lines.append(label + "\t" + "\t".join(f"{stat([r[m] for r in rows]):+.4f}"
                                              for m in MARGINS))
    lines.append("passes\t" + "\t".join(
        f"{sum(_COMPARE[op](r[m], bound) for r in rows)}/{len(rows)} ({op} {bound:g})"
        for m, (op, bound) in MARGINS.items()))
    return lines


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-8"),
                        help="comma-separated seeds and ranges, e.g. 1-8 or 2,5")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.src.resolve()))
    import textgcn as tg
    import textgcn.cli  # noqa: F401 - the corpora and the ablation run through the CLI

    with tempfile.TemporaryDirectory() as work:
        rows = seed_margins(tg, Path(work), args.seeds)
    print("\n".join(report(args.seeds, rows)))
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main(sys.argv[1:]))
