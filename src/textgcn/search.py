"""Two-stage hyperparameter search with resumable on-disk trial records.

Stage one sweeps each tuned parameter independently over a broad list
while everything else sits at its default (the all-defaults configuration
is shared across sweeps and runs once). Stage two exhaustively evaluates a
small operator-chosen cartesian grid, and a third sweep picks the
positive-count policy. Every stage is a list of configurations handed to
``run_trials`` plus a rule that selects by validation recall. Records are
keyed by a hash of the full configuration and written through
``files.write_atomic``, so an interrupted search resumes without
recomputing and several processes can share one record directory. Only
``<16 hex digits>.json`` files are read back as records, so other JSON in
the directory is ignored. Records hold no timing, so rerunning a search
writes byte-identical record files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, get_type_hints

from .errors import DataError
from .files import json_setting, read_json_object, write_atomic
from .training import TrainConfig

BROAD_VALUES: dict[str, list] = {
    "d_out": [16, 32, 64, 128, 256, 512, 1024],
    "lr": [1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2],
    "n_layers": [1, 2, 3, 4, 5, 8],
    "neg_samples": [16, 32, 64, 128, 256, 512, 1024],
}
POS_QUANTILES: list[float] = [0.25, 0.5, 0.75]


def load_space(path: str | Path, values: dict[str, list] | None,
               defaults: dict[str, object]) -> tuple[dict[str, list], dict[str, object]]:
    """The ``values`` and ``defaults`` of a space file, each falling back to the given one.

    The file holds a JSON object; ``values`` maps parameter names to
    non-empty lists and ``defaults`` maps them to values, every name a
    ``TrainConfig`` field and every value of that field's JSON type
    (``files.json_setting``; an integer for a float field becomes a float).
    With ``values`` None the file must hold its own.
    """
    spec = read_json_object(path)
    values = spec.get("values", values)
    if values is None:
        raise DataError(f'{path}: space file has no "values"')
    defaults = spec.get("defaults", defaults)
    if not (isinstance(values, dict) and all(isinstance(v, list) for v in values.values())):
        raise DataError(f'{path}: "values" must map parameter names to lists')
    if not isinstance(defaults, dict):
        raise DataError(f'{path}: "defaults" must map parameter names to values')
    types = get_type_hints(TrainConfig)
    unknown = sorted((set(values) | set(defaults)) - set(types))
    if unknown:
        raise DataError(f"{path}: unknown parameter(s) {', '.join(unknown)}")
    for name, options in values.items():
        if not options:
            raise DataError(f"{path}: empty value list for parameter {name!r}")
    values = {name: [json_setting(path, f"values.{name}", value, types[name])
                     for value in options] for name, options in values.items()}
    defaults = {name: json_setting(path, f"defaults.{name}", value, types[name])
                for name, value in defaults.items()}
    return values, defaults


@dataclass
class TrialRecord:
    config: dict
    val_recall: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error

    def to_json(self) -> str:
        return json.dumps({"config": self.config, "val_recall": self.val_recall,
                           "error": self.error}, sort_keys=True)

    @classmethod
    def read(cls, path: Path) -> "TrialRecord":
        """The record in ``path``; ``DataError`` naming the file if it is not one."""
        raw = read_json_object(path)
        # fields other than these, such as an older writer's timing, are ignored
        if not (isinstance(raw.get("config"), dict)
                and isinstance(raw.get("val_recall"), (int, float))
                and isinstance(raw.get("error", ""), str)):
            raise DataError(f"{path}: a trial record needs a 'config' object, "
                            "a numeric 'val_recall' and a text 'error', if any")
        return cls(config=raw["config"], val_recall=raw["val_recall"],
                   error=raw.get("error", ""))


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class TrialStore:
    """Records by config hash, persisted one JSON file per trial."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._mem: dict[str, TrialRecord] = {
            path.stem: TrialRecord.read(path)
            for path in sorted(self.directory.glob("[0-9a-f]" * 16 + ".json"))}

    def get(self, key: str) -> TrialRecord | None:
        return self._mem.get(key)

    def put(self, key: str, record: TrialRecord) -> None:
        self._mem[key] = record
        with write_atomic(self.directory / f"{key}.json") as fh:
            fh.write(record.to_json() + "\n")

    def records(self) -> list[TrialRecord]:
        return list(self._mem.values())


Runner = Callable[[dict], float]


def run_trials(configs: list[dict], runner: Runner, store: TrialStore) -> list[TrialRecord]:
    """One record per config, in order: each distinct config is run once or recalled.

    A trial that raises becomes an error record; ``DataError`` when every
    trial failed.
    """
    records = []
    for config in configs:
        key = config_hash(config)
        record = store.get(key)
        if record is None:
            try:
                record = TrialRecord(dict(config), float(runner(dict(config))))
            except Exception as err:  # noqa: BLE001 - sweep must survive bad trials
                record = TrialRecord(dict(config), float("-inf"), error=str(err))
            store.put(key, record)
        records.append(record)
    if not any(record.ok for record in records):
        raise DataError(f"every trial failed ({len(records)} configs)")
    return records


def greedy_stage(values: dict[str, list], defaults: dict[str, object], runner: Runner,
                 store: TrialStore) -> dict[str, object]:
    """Broad per-parameter sweeps with everything else at defaults.

    Returns the best value found for each parameter; ties keep the earliest
    list entry.
    """
    best: dict[str, object] = {}
    for name in sorted(values):
        records = run_trials([dict(defaults, **{name: v}) for v in values[name]],
                             runner, store)
        best[name] = max((r for r in records if r.ok), key=lambda r: r.val_recall).config[name]
    return best


def grid_stage(values: dict[str, list], defaults: dict[str, object], runner: Runner,
               store: TrialStore) -> dict:
    """Full cartesian product; argmax validation recall.

    Ties prefer the smaller model: lower d_out first, then fewer layers.
    """
    names = sorted(values)
    records = run_trials([dict(defaults, **dict(zip(names, combo)))
                          for combo in itertools.product(*(values[n] for n in names))],
                         runner, store)

    def rank(record: TrialRecord):
        cfg = record.config
        return (-record.val_recall, cfg.get("d_out", 0), cfg.get("n_layers", 0))

    return min((r for r in records if r.ok), key=rank).config


def pos_quantile_sweep(quantiles: list[float], defaults: dict[str, object], runner: Runner,
                       store: TrialStore) -> dict:
    """Sweep the positive-count policy over interaction quantiles plus k=1.

    Ties keep the earliest quantile, and any quantile beats k=1.
    """
    single = dict(defaults, pos_k=1)
    single.pop("pos_quantile", None)
    records = run_trials([dict(defaults, pos_quantile=q, pos_k=None) for q in quantiles]
                         + [single], runner, store)
    return max((r for r in records if r.ok), key=lambda r: r.val_recall).config


def summary_tsv(records: list[TrialRecord]) -> str:
    """Human-facing table: one row per trial, best first.

    Ties order by canonical config, so the table does not depend on the
    order records were produced or reloaded.
    """
    keys = sorted({k for r in records for k in r.config})
    lines = ["\t".join(keys + ["val_recall", "error"])]
    ordered = sorted(records,
                     key=lambda r: (-r.val_recall, json.dumps(r.config, sort_keys=True)))
    for rec in ordered:
        row = [json.dumps(rec.config.get(k)) for k in keys]
        lines.append("\t".join(row + [f"{rec.val_recall:.6f}", rec.error or "-"]))
    return "\n".join(lines) + "\n"
