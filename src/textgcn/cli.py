"""Command-line pipelines: ingest, embed, diffuse, train, tune, evaluate, recommend.

Every command that produces files, except ``tune``, also writes a
``manifest.json`` capturing the resolved configuration, input checksums and
package version, enough to re-run it exactly (``tune`` would read one back
from its records directory as a trial). A command exits 2 before loading
anything rather than replace a manifest another command wrote. Every file
is written through ``files.write_atomic``. The manifests of ``evaluate`` and
``recommend`` record the diffusion depth actually used: ``--layers``, else
the checkpoint's training depth, else 2. Outputs are deterministic for a
fixed seed; anything wall-clock related stays out of primary outputs. Exit
codes: 0 success, 1 internal failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, embeddings, search, synthetic
from .corpus import MergedCorpus, interaction_quantile, load_split, merge_corpora, save_split
from .diffusion import diffuse
from .errors import DataError
from .files import json_setting, read_json_object, write_atomic
from .ranking import baseline_pop, baseline_random, evaluate, recommend_topk
from .tower import TOWER_PREFIXES, TwoTowerParams, load_checkpoint, save_checkpoint
from .training import (TrainConfig, ablation_variants, apply_zero_shot, head_recall,
                       model_outputs, train)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_checksums(paths: dict[str, Path]) -> dict:
    out = {}
    for name, path in paths.items():
        path = Path(path)
        if path.is_dir():
            out[name] = {f.name: _sha256(f) for f in sorted(path.iterdir()) if f.is_file()}
        else:
            out[name] = _sha256(path)
    return out


def _claim_manifest(out_dir: str | Path, command: str) -> None:
    """Refuse, before anything loads, to replace a manifest another command wrote.

    A checkpoint's manifest is ``train``'s; an unreadable one is foreign.
    """
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        return
    try:
        raw = read_json_object(path)
    except (OSError, DataError):
        raw = {}
    owner = "train" if "tensors" in raw else raw.get("command")
    if owner != command:
        raise DataError(f"{path} was written by {owner or 'another program'}; "
                        f"{command} will not replace it")


def _write_manifest(out_dir: Path, command: str, config: dict,
                    inputs: dict[str, Path]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": _input_checksums(inputs),
        "version": __version__,
    }
    with write_atomic(out_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_output(args, command: str, text: str, config: dict) -> None:
    """Write ``text`` to --out, creating its directory, and a manifest beside it."""
    out = Path(args.out)
    with write_atomic(out) as fh:
        fh.write(text)
    inputs = {name: Path(getattr(args, name))
              for name in ("dataset", "embeddings", "user_emb", "item_emb", "checkpoint")
              if getattr(args, name, None)}
    _write_manifest(out.parent, command, dict(config, out=str(out)), inputs)


_TRAIN_SETTINGS = get_type_hints(TrainConfig)


def _merge_config(args, settings: dict) -> None:
    """Fill each ``args`` setting the command line left None from the --config file.

    ``settings`` maps the setting names, which are ``args`` attributes, to
    their types. A key outside it, or a value of another JSON type, is refused;
    an integer for a float setting is stored as a float, as its flag would be.
    """
    file_cfg = {} if args.config is None else read_json_object(args.config)
    unknown = sorted(set(file_cfg) - set(settings))
    if unknown:
        raise DataError(f"{args.config}: not a setting of this command: {', '.join(unknown)} "
                        f"(expected some of {', '.join(sorted(settings))})")
    for name, value in file_cfg.items():
        value = json_setting(args.config, name, value, settings[name])
        if getattr(args, name) is None:
            setattr(args, name, value)


def _refuse_unread(args, mode: str, names) -> None:
    """Refuse the first flag in ``names`` the user set: ``mode`` does not read any of them."""
    for name in names:
        if getattr(args, name) is not None:
            raise DataError(f"{mode} does not read --{name.replace('_', '-')}")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lr", type=float, default=None)
    parser.add_argument("--out-dim", type=int, default=None, dest="d_out")
    parser.add_argument("--layers", type=int, default=None, dest="n_layers")
    parser.add_argument("--neg", type=int, default=None, dest="neg_samples")
    parser.add_argument("--pos", type=int, default=None, dest="pos_k")
    parser.add_argument("--pos-quantile", type=float, default=None)
    parser.add_argument("--tau", type=float, default=None, dest="temperature")
    parser.add_argument("--batch", type=int, default=None, dest="batch_users")
    parser.add_argument("--patience", type=int, default=None)
    parser.add_argument("--max-epochs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tower", choices=tuple(TOWER_PREFIXES), default=None, dest="tower_mode")


def _train_config(args, preset: tuple[str, ...] = (), mode: str = "") -> TrainConfig:
    """The run's TrainConfig; ``preset`` names the settings ``mode`` sets itself.

    A setting that would not take effect, one in ``preset`` or
    ``pos_quantile`` next to ``pos_k``, exits 2 when the user set it (by
    flag or ``--config``); defaults are not checked.
    """
    _merge_config(args, _TRAIN_SETTINGS)
    overrides = {name: getattr(args, name) for name in _TRAIN_SETTINGS
                 if getattr(args, name) is not None}
    if "pos_k" in overrides and "pos_quantile" in overrides:
        raise DataError("pos_k (--pos) fixes the positive count: "
                        "pos_quantile (--pos-quantile) would not take effect")
    ignored = [name for name in preset if name in overrides]
    if ignored:
        raise DataError(f"{mode} sets {' and '.join(ignored)} itself: would not take effect")
    return replace(TrainConfig(), **overrides)


def _load_rows(path: str, expected_ids: list[str]) -> np.ndarray:
    """Load a .tge whose rows must follow ``expected_ids``.

    The row count must match; when the ``.ids`` sidecar exists, its IDs
    must be ``expected_ids`` in the same order.
    """
    matrix = embeddings.load_matrix(path)
    if matrix.shape[0] != len(expected_ids):
        raise DataError(f"{path}: embedding rows {matrix.shape[0]} != "
                        f"expected {len(expected_ids)}")
    if Path(str(path) + ".ids").exists() and embeddings.load_ids(path) != expected_ids:
        raise DataError(f"{path}: .ids sidecar does not follow the dataset's ID order")
    return matrix


def _load_model(split, args) -> tuple[TwoTowerParams | None, np.ndarray, int, dict]:
    """The --checkpoint towers (None without one), the --embeddings table, the depth
    and the checkpoint's meta ({} without one).

    The depth is --layers, else the checkpoint's training depth, else 2.
    """
    item_emb = _load_rows(args.embeddings, split.maps.item_ids)
    params, meta = None, {}
    if args.checkpoint:
        params, _, meta = load_checkpoint(args.checkpoint)
    layers = args.layers
    if layers is None:
        layers = int(meta.get("train_config", {}).get("n_layers", 2))
    return params, item_emb, layers, meta


def _trained_on(meta: dict, dataset: str) -> bool:
    """Whether a checkpoint trained on ``dataset``: its files hash as one of ``train``'s
    ``dataset<i>`` inputs. Names of synthetic datasets collide; checksums do not."""
    checksums = _input_checksums({"dataset": Path(dataset)})["dataset"]
    return any(checksums == value for name, value in meta.get("inputs", {}).items()
               if name.startswith("dataset"))


def _load_corpus(dataset_paths: list[str],
                 emb_paths: list[str]) -> tuple[MergedCorpus, np.ndarray]:
    """Merge one or more datasets and stack their item embeddings in part order."""
    if len(emb_paths) != len(dataset_paths):
        raise DataError("need one --embeddings file per --dataset")
    splits = [load_split(p) for p in dataset_paths]
    item_emb = np.vstack([_load_rows(p, s.maps.item_ids)
                          for p, s in zip(emb_paths, splits)])
    return merge_corpora(splits), item_emb


def cmd_ingest(args) -> int:
    if args.synthetic:
        _refuse_unread(args, "ingest --synthetic", ("dataset",))
        if not args.out:
            raise DataError("--synthetic requires --out")
        out = Path(args.out)
        _claim_manifest(out, "ingest")
        cfg = synthetic.parse_synthetic_spec(args.synthetic)
        split = synthetic.generate_clustered_split(cfg)
        save_split(split, out)
        _write_manifest(out, "ingest", {"synthetic": asdict(cfg)}, {})
        source = out
    else:
        if not args.dataset:
            raise DataError("ingest needs --dataset or --synthetic")
        _refuse_unread(args, "ingest --dataset", ("out",))
        source = Path(args.dataset)
    split = load_split(source)
    train_m = split.train
    quantiles = {q: interaction_quantile(train_m, q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)}
    print(f"dataset: {split.name}")
    print(f"users: {train_m.n_users}  items: {train_m.n_items}")
    print(f"interactions: train={train_m.n_interactions} "
          f"val={split.val.n_interactions} test={split.test.n_interactions}")
    print(f"dropped (no train history): val={split.dropped_val} test={split.dropped_test}")
    print(f"duplicates dropped: {split.duplicates}")
    print("train degree quantiles: "
          + "  ".join(f"q{int(q * 100)}={v}" for q, v in quantiles.items()))
    return 0


def cmd_embed(args) -> int:
    # flags only: one config file may hold the settings of both modes
    _refuse_unread(args, f"embed {'with' if args.mock else 'without'} --mock",
                   ("endpoint", "model", "batch_size", "cache", "concurrency") if args.mock
                   else ("dim", "seed"))
    if args.endpoint is None:
        args.endpoint = os.environ.get(embeddings.ENDPOINT_ENV) or None
    _merge_config(args, {"dim": int, "seed": int, "endpoint": str, "model": str})
    out_path = Path(args.out)
    _claim_manifest(out_path.parent, "embed")
    split = load_split(args.dataset)
    resolved: dict = {"dataset": str(args.dataset), "out": str(out_path)}
    if args.mock:
        dim = 64 if args.dim is None else args.dim
        seed = 0 if args.seed is None else args.seed
        matrix = embeddings.mock_embed(split.catalog, dim=dim, seed=seed)
        resolved.update({"mock": True, "dim": dim, "seed": seed})
        requests_made = 0
    else:
        if not args.endpoint:
            raise DataError("no embeddings endpoint (use --endpoint or "
                            f"{embeddings.ENDPOINT_ENV})")
        api_key = os.environ.get(embeddings.API_KEY_ENV)
        if not api_key:
            raise DataError(f"no API key in {embeddings.API_KEY_ENV}")
        model = "text-embedding-3-large" if args.model is None else args.model
        cache = embeddings.VectorCache(args.cache) if args.cache else None
        batch_size = embeddings.DEFAULT_BATCH_SIZE if args.batch_size is None else args.batch_size
        concurrency = 1 if args.concurrency is None else args.concurrency
        sent: list[str] = []   # one entry per request: an append is atomic across threads
        with embeddings.http_transport(api_key, concurrency) as send:
            def post(url: str, payload: dict):
                sent.append(url)
                return send(url, payload)

            matrix = embeddings.fetch_embeddings(
                split.catalog, endpoint=args.endpoint, model=model,
                batch_size=batch_size, cache=cache, post=post, concurrency=concurrency)
        requests_made = len(sent)
        resolved.update({"mock": False, "model": model, "endpoint": args.endpoint,
                         "batch_size": batch_size, "cache": args.cache})
    embeddings.save_matrix(matrix, out_path, ids=split.maps.item_ids)
    _write_manifest(out_path.parent, "embed", resolved, {"dataset": Path(args.dataset)})
    print(f"wrote {out_path} ({matrix.shape[0]} x {matrix.shape[1]}), "
          f"requests: {requests_made}")
    return 0


def cmd_diffuse(args) -> int:
    out = Path(args.out)
    _claim_manifest(out, "diffuse")
    split = load_split(args.dataset)
    item_emb = _load_rows(args.embeddings, split.maps.item_ids)
    result = diffuse(split.train, item_emb, args.layers)
    embeddings.save_matrix(result.user_final, out / "user_final.tge",
                           ids=split.maps.user_ids)
    embeddings.save_matrix(result.item_final, out / "item_final.tge",
                           ids=split.maps.item_ids)
    _write_manifest(out, "diffuse",
                    {"layers": args.layers, "dataset": split.name},
                    {"dataset": Path(args.dataset), "embeddings": Path(args.embeddings)})
    print(f"wrote {out}/user_final.tge and item_final.tge (layers={args.layers})")
    return 0


def _run_one_training(corpus: MergedCorpus, item_emb: np.ndarray, cfg: TrainConfig,
                      out: Path, inputs):
    params, log, diff = train(corpus, item_emb, cfg)
    test_recall = head_recall(params, corpus, diff, "test")
    # the checkpoint manifest doubles as the run manifest
    meta = {"command": "train", "train_config": asdict(cfg),
            "sources": [part.name for part in corpus.parts],
            "best_epoch": log.best_epoch, "best_val_recall": log.best_val_recall,
            "resolved_pos_k": log.resolved_pos_k, "stop_reason": log.stop_reason,
            "test_recall": test_recall,
            "inputs": _input_checksums(inputs), "version": __version__}
    save_checkpoint(params, None, meta, out)
    with write_atomic(out / "log.jsonl") as fh:
        fh.write(log.to_jsonl())
    return log, test_recall


def cmd_train(args) -> int:
    out = Path(args.out)
    cfg = _train_config(args, ("tower_mode", "pos_k") if args.ablation else (),
                        "train --ablation")
    variants = [(label, variant_cfg, out / label.replace("/", "_"))
                for label, variant_cfg in ablation_variants(cfg)] if args.ablation else []
    for directory in [out] + [vdir for _, _, vdir in variants]:
        _claim_manifest(directory, "train")
    corpus, item_emb = _load_corpus(args.dataset, args.embeddings)
    inputs = {f"dataset{i}": Path(p) for i, p in enumerate(args.dataset)}
    inputs.update({f"embeddings{i}": Path(p) for i, p in enumerate(args.embeddings)})

    if args.ablation:
        rows = []
        for label, variant_cfg, vdir in variants:
            log, test_recall = _run_one_training(corpus, item_emb, variant_cfg, vdir, inputs)
            rows.append((label, log.best_val_recall, test_recall, log.best_epoch))
        table = "variant\tval_recall\ttest_recall\tbest_epoch\n" + "".join(
            f"{label}\t{val:.6f}\t{test:.6f}\t{epoch}\n"
            for label, val, test, epoch in rows)
        with write_atomic(out / "ablation.tsv") as fh:
            fh.write(table)
        print(table, end="")
        _write_manifest(out, "train",
                        {"train_config": asdict(cfg), "ablation": True}, inputs)
    else:
        log, test_recall = _run_one_training(corpus, item_emb, cfg, out, inputs)
        print(f"best epoch {log.best_epoch}: val recall {log.best_val_recall:.6f} "
              f"test recall {test_recall:.6f} ({log.stop_reason})")
    return 0


def _evaluate_inputs(args) -> None:
    """Reject a flag the chosen model does not read, and a missing file flag it needs.

    Only a model read from --embeddings is diffused, so only it reads
    --layers; only ``random`` reads --seed.
    """
    if args.model == "textgcn":
        reads = ("user_emb", "item_emb") if args.user_emb or args.item_emb else ("embeddings",)
    else:
        reads = ("checkpoint", "embeddings") if args.model == "mlp" else ()
    unread = [name for name in ("embeddings", "user_emb", "item_emb", "checkpoint")
              if name not in reads]
    if "embeddings" not in reads:
        unread.append("layers")
    if args.model != "random":
        unread.append("seed")
    mode = f"evaluate --model {args.model}"
    _refuse_unread(args, mode, unread)
    if not all(getattr(args, name) for name in reads):
        raise DataError(f"{mode} needs "
                        + " and ".join("--" + name.replace("_", "-") for name in reads))


def cmd_evaluate(args) -> int:
    _evaluate_inputs(args)
    if args.out:
        _claim_manifest(Path(args.out).parent, "evaluate")
    split = load_split(args.dataset)
    k = args.k
    layers = args.layers
    if args.model == "random":
        report = baseline_random(split, k=k, seed=args.seed or 0, part=args.part)
    elif args.model == "pop":
        report = baseline_pop(split, k=k, part=args.part)
    elif args.user_emb:
        user_out = _load_rows(args.user_emb, split.maps.user_ids)
        item_out = _load_rows(args.item_emb, split.maps.item_ids)
        report = evaluate(split, user_out, item_out, k=k, part=args.part)
    else:
        params, item_emb, layers, meta = _load_model(split, args)
        report = apply_zero_shot(params, split, item_emb, layers, k=k, part=args.part)
        if params is not None and _trained_on(meta, args.dataset):
            report = replace(report, model="textgcn-mlp")     # in-domain, not a transfer
    line = report.to_json()
    print(line)
    if args.out:
        _write_output(args, "evaluate", line + "\n",
                      {"model": args.model, "k": k, "part": args.part,
                       "seed": args.seed, "layers": layers})
    return 0


def _quantiles(text: str) -> list[float]:
    try:
        quantiles = [float(q) for q in text.split(",")]
    except ValueError:
        raise DataError(f"--quantiles must be comma-separated numbers, got {text!r}") from None
    if not all(0.0 <= q <= 1.0 for q in quantiles):
        raise DataError(f"--quantiles must lie in [0, 1], got {text!r}")
    return quantiles


def cmd_tune(args) -> int:
    cfg = _train_config(args, ("pos_k", "pos_quantile") if args.stage == "pos" else (),
                        "tune --stage pos")
    # sweep defaults come from the resolved run config, so flags like
    # --out-dim set the baseline for parameters not currently being swept
    values = search.BROAD_VALUES
    defaults = {name: getattr(cfg, name) for name in values}
    if args.space:
        # the narrow grid has no shipped lists: its values come from the file alone
        values, defaults = search.load_space(
            args.space, None if args.stage == "grid" else values, defaults)
    elif args.stage == "grid":
        raise DataError("tune --stage grid needs --space with the narrow grid")
    quantiles = (search.POS_QUANTILES if args.quantiles is None
                 else _quantiles(args.quantiles))
    corpus, item_emb = _load_corpus(args.dataset, args.embeddings)
    store = search.TrialStore(args.records)

    def runner(overrides: dict) -> float:
        _, log, _ = train(corpus, item_emb, replace(cfg, **overrides))
        return log.best_val_recall

    if args.stage == "broad":
        best = {"best_per_parameter": search.greedy_stage(values, defaults, runner, store)}
    elif args.stage == "grid":
        best = {"best_config": search.grid_stage(values, defaults, runner, store)}
    else:
        best = {"best_config": search.pos_quantile_sweep(quantiles, defaults, runner, store)}
    print(json.dumps(best, sort_keys=True))
    with write_atomic(args.out or Path(args.records) / "summary.tsv") as fh:
        fh.write(search.summary_tsv(store.records()))
    return 0


def cmd_recommend(args) -> int:
    if args.out:
        _claim_manifest(Path(args.out).parent, "recommend")
    split = load_split(args.dataset)
    params, item_emb, layers, _ = _load_model(split, args)
    user_out, item_out = model_outputs(params, split.train, item_emb, layers)
    lines = []
    for ext in args.users.split(","):
        ext = ext.strip()
        if ext not in split.maps.user_to_dense:
            raise DataError(f"unknown user ID {ext!r}")
        u = split.maps.user_to_dense[ext]
        if split.train.user_degrees[u] == 0:
            raise DataError(f"user {ext!r} has no training history")
        ranking = recommend_topk(user_out[u], item_out, split.train.items_of(u),
                                 args.k, user=u)
        items = "\t".join(split.maps.item_ids[i] for i in ranking.items)
        lines.append(f"{ext}\t{items}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write_output(args, "recommend", text,
                      {"users": args.users, "k": args.k, "layers": layers})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textgcn",
        description="Graph-diffused text-embedding recommender pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a dataset directory or generate one")
    p.add_argument("--dataset", default=None)
    p.add_argument("--synthetic", default=None,
                   help="e.g. clusters:2,users:200,items:100,seed:7")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("embed", help="fetch or mock item-title embeddings")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mock", action="store_true")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--cache", default=None)
    p.add_argument("--concurrency", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("diffuse", help="compute diffused user/item embeddings")
    p.add_argument("--dataset", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("train", help="train the contrastive MLP head")
    p.add_argument("--dataset", required=True, nargs="+")
    p.add_argument("--embeddings", required=True, nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--ablation", action="store_true",
                   help="run the four tower/positives variants")
    p.add_argument("--config", default=None)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model or baseline on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True,
                   choices=("textgcn", "mlp", "random", "pop"))
    p.add_argument("--embeddings", default=None)
    p.add_argument("--user-emb", default=None)
    p.add_argument("--item-emb", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--part", choices=("val", "test"), default="test")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune", help="hyperparameter search stages")
    p.add_argument("--dataset", required=True, nargs="+")
    p.add_argument("--embeddings", required=True, nargs="+")
    p.add_argument("--stage", required=True, choices=("broad", "grid", "pos"))
    p.add_argument("--records", required=True)
    p.add_argument("--space", default=None, help="JSON file with values/defaults")
    p.add_argument("--quantiles", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    _add_train_flags(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("recommend", help="top-k items for given user IDs")
    p.add_argument("--dataset", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--users", required=True, help="comma-separated external user IDs")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_recommend)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
