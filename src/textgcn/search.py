"""Two-stage hyperparameter search with resumable on-disk trial records.

Stage one sweeps each tuned parameter independently over a broad list
while everything else sits at its default (the all-defaults configuration
is shared across sweeps and runs once). Stage two exhaustively evaluates a
small operator-chosen cartesian grid. Both stages select by validation
recall. Records are keyed by a hash of the full configuration and written
atomically (temp file + rename), so an interrupted search resumes without
recomputing and several processes can share one record directory.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import DataError

BROAD_VALUES: dict[str, list] = {
    "d_out": [16, 32, 64, 128, 256, 512, 1024],
    "lr": [1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2],
    "n_layers": [1, 2, 3, 4, 5, 8],
    "neg_samples": [16, 32, 64, 128, 256, 512, 1024],
}
DEFAULTS: dict[str, object] = {
    "lr": 5e-4,
    "d_out": 64,
    "neg_samples": 256,
    "n_layers": 2,
}


@dataclass(frozen=True)
class SearchSpace:
    """Per-parameter candidate lists plus the shared defaults."""

    values: dict[str, list] = field(default_factory=lambda: dict(BROAD_VALUES))
    defaults: dict[str, object] = field(default_factory=lambda: dict(DEFAULTS))

    def __post_init__(self):
        for name, options in self.values.items():
            if not options:
                raise DataError(f"empty value list for parameter {name!r}")


@dataclass
class TrialRecord:
    config: dict
    val_recall: float
    wall_time: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error

    def to_json(self) -> str:
        return json.dumps({"config": self.config, "val_recall": self.val_recall,
                           "wall_time": self.wall_time, "error": self.error},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrialRecord":
        raw = json.loads(text)
        return cls(config=raw["config"], val_recall=raw["val_recall"],
                   wall_time=raw["wall_time"], error=raw.get("error", ""))


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class TrialStore:
    """Records by config hash; optionally persisted one JSON file per trial."""

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        self._mem: dict[str, TrialRecord] = {}
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            for path in sorted(self.directory.glob("*.json")):
                self._mem[path.stem] = TrialRecord.from_json(
                    path.read_text(encoding="utf-8"))

    def get(self, key: str) -> TrialRecord | None:
        return self._mem.get(key)

    def put(self, key: str, record: TrialRecord) -> None:
        self._mem[key] = record
        if self.directory is not None:
            # a private temp name: processes sharing the directory may write one key at once
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f".{key}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(record.to_json() + "\n")
                os.replace(tmp, self.directory / f"{key}.json")
            except BaseException:
                os.unlink(tmp)
                raise

    def records(self) -> list[TrialRecord]:
        return list(self._mem.values())


Runner = Callable[[dict], float]


def run_trial(runner: Runner, config: dict, store: TrialStore) -> TrialRecord:
    """Run (or recall) one configuration; failures become error records."""
    key = config_hash(config)
    cached = store.get(key)
    if cached is not None:
        return cached
    tic = time.perf_counter()
    try:
        recall = float(runner(dict(config)))
        record = TrialRecord(config=dict(config), val_recall=recall,
                             wall_time=time.perf_counter() - tic)
    except Exception as err:  # noqa: BLE001 - sweep must survive bad trials
        record = TrialRecord(config=dict(config), val_recall=float("-inf"),
                             wall_time=time.perf_counter() - tic, error=str(err))
    store.put(key, record)
    return record


def greedy_stage(space: SearchSpace, runner: Runner,
                 store: TrialStore | None = None
                 ) -> tuple[dict[str, object], list[TrialRecord]]:
    """Broad per-parameter sweeps with everything else at defaults.

    Returns the best value found for each parameter (ties keep the earliest
    list entry) plus every trial record touched.
    """
    store = store if store is not None else TrialStore()
    best: dict[str, object] = {}
    touched: list[TrialRecord] = []
    seen: set[str] = set()
    for name in sorted(space.values):
        trials: list[tuple[object, TrialRecord]] = []
        for value in space.values[name]:
            config = dict(space.defaults)
            config[name] = value
            record = run_trial(runner, config, store)
            trials.append((value, record))
            key = config_hash(config)
            if key not in seen:
                seen.add(key)
                touched.append(record)
        ok = [(v, r) for v, r in trials if r.ok]
        if not ok:
            raise DataError(f"every trial failed while sweeping {name!r}")
        best[name] = max(ok, key=lambda vr: vr[1].val_recall)[0]
    return best, touched


def grid_stage(values: dict[str, list], defaults: dict[str, object], runner: Runner,
               store: TrialStore | None = None) -> tuple[dict, list[TrialRecord]]:
    """Full cartesian product; argmax validation recall.

    Ties prefer the smaller model: lower d_out first, then fewer layers.
    """
    store = store if store is not None else TrialStore()
    names = sorted(values)
    records: list[TrialRecord] = []
    for combo in itertools.product(*(values[n] for n in names)):
        config = dict(defaults)
        config.update(dict(zip(names, combo)))
        records.append(run_trial(runner, config, store))
    ok = [r for r in records if r.ok]
    if not ok:
        raise DataError("every grid trial failed")

    def rank(record: TrialRecord):
        cfg = record.config
        return (-record.val_recall, cfg.get("d_out", 0), cfg.get("n_layers", 0))

    return min(ok, key=rank).config, records


def pos_quantile_sweep(base: dict, runner: Runner,
                       quantiles: list[float] = (0.25, 0.5, 0.75),
                       store: TrialStore | None = None
                       ) -> tuple[dict, list[TrialRecord]]:
    """Sweep the positive-count policy over interaction quantiles plus k=1."""
    store = store if store is not None else TrialStore()
    records = []
    for q in quantiles:
        config = dict(base)
        config["pos_quantile"] = q
        config["pos_k"] = None
        records.append(run_trial(runner, config, store))
    config = dict(base)
    config["pos_k"] = 1
    config.pop("pos_quantile", None)
    records.append(run_trial(runner, config, store))
    ok = [r for r in records if r.ok]
    if not ok:
        raise DataError("every positive-count trial failed")
    return max(ok, key=lambda r: r.val_recall).config, records


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
