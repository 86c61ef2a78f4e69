"""The three workloads: rank-catalog, head-train and embed-cache.

A workload runs in rounds. Each round times three phases of calls into the
program's public entry points (``setup``, ``main``, ``followup``) and then
``serve``s single-user recommendation requests, whose latencies feed the
recommend percentiles. ``digest`` hashes the round's primary artifacts so
rounds (traced or not) can be compared byte for byte, and ``checks``
compares the last round's outputs with the independent computations in
``reference`` or with properties of the method.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from inputs import EMBED_DIM, read_tge

HERE = Path(__file__).resolve().parent
K = 20


class Workload:
    """Shared round bookkeeping; subclasses define the phases and checks."""

    requests = 240      # recommend requests per round
    round_state: tuple[str, ...] = ()

    def __init__(self, tg, work: Path, seed: int):
        self.tg = tg
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.digest_parts: list[bytes] = []
        self.round = -1

    def call(self, fn, *args, **kwargs):
        """One counted operation against the program."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise

    def generate_inputs(self, name: str) -> Path:
        """Write this workload's inputs from the seed in a child process."""
        out = self.work / "inputs"
        subprocess.run([sys.executable, str(HERE / "inputs.py"), name, str(self.seed), str(out)],
                       check=True, timeout=150)
        return out

    def serve_requests(self, user_out: np.ndarray, item_out: np.ndarray, train) -> list:
        """Closed loop: each request is sent when the previous one has returned."""
        rng = np.random.default_rng((self.seed, 3))
        users = rng.choice(np.flatnonzero(train.user_degrees > 0), size=self.requests)
        lists = []
        for u in users.tolist():
            tic = time.perf_counter()
            ranking = self.call(self.tg.recommend_topk, user_out[u], item_out,
                                train.items_of(u), K, user=u)
            self.latencies.append(time.perf_counter() - tic)
            lists.append(ranking.items)
        self.served = (users, lists, user_out, item_out, train)
        self.digest_parts.append(np.concatenate(lists).tobytes())
        return lists

    def start_round(self) -> None:
        """Drop the previous round's data, so peak RSS holds one round's, not two."""
        self.digest_parts = []
        self.round += 1
        for name in self.round_state:
            setattr(self, name, None)

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts:
            h.update(hashlib.sha256(part).digest())
        return h.hexdigest()

    def serve(self) -> None:
        """Recommendation requests after the follow-up (none by default)."""

    def close(self) -> None:
        """Stop whatever prepare started."""

    def check_served(self) -> list[tuple[str, bool, str]]:
        """Each served list excludes train items and matches a full-sort top-k in float64."""
        users, lists, user_out, item_out, train = self.served
        item_unit = item_out.astype(np.float64)
        item_unit /= np.linalg.norm(item_unit, axis=1, keepdims=True)
        leaked = exact = 0
        worst = 0.0
        for u, items in zip(users.tolist(), lists):
            own = train.items_of(u)
            leaked += int(np.isin(items, own).any())
            user_vec = user_out[u].astype(np.float64)
            scores = item_unit @ (user_vec / np.linalg.norm(user_vec))
            scores[own] = -np.inf
            expect = reference.top_k(scores, np.sort(scores), K)
            if np.array_equal(items, expect):
                exact += 1
            elif len(items) == len(expect):
                worst = max(worst, float(np.max(np.abs(scores[items] - scores[expect]))))
            else:
                worst = math.inf
        return [("served lists exclude train items", leaked == 0, f"{leaked} leaked"),
                ("served lists match full-sort top-k", worst <= 1e-6,
                 f"{exact}/{len(lists)} identical, others differ only at score gaps "
                 f"<= {worst:.1e}")]


def _csr(n_rows: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr, cols[order]


def _train_test(split) -> tuple[tuple, tuple]:
    return (split.train.indptr, split.train.indices), (split.test.indptr, split.test.indices)


def _read_ids(path: Path) -> list[str]:
    return Path(str(path) + ".ids").read_text(encoding="utf-8").splitlines()


class RankCatalog(Workload):
    """Training-free model at catalog scale: load, diffuse+evaluate, then serve."""

    layers = 2
    round_state = ("split", "emb", "report", "diff", "served")

    def prepare(self) -> None:
        self.inputs = self.generate_inputs("rank-catalog")

    def setup(self) -> None:
        self.split = self.call(self.tg.load_split, self.inputs / "corpus")
        self.emb = self.call(self.tg.load_matrix, self.inputs / "items.tge")

    def main(self) -> None:
        self.report = self.call(self.tg.apply_zero_shot, None, self.split, self.emb,
                                self.layers, k=K, part="test")
        self.digest_parts.append(self.report.to_json().encode())

    def followup(self) -> None:
        self.diff = self.call(self.tg.diffuse, self.split.train, self.emb, self.layers)
        self.serve_requests(self.diff.user_final, self.diff.item_final, self.split.train)

    def checks(self) -> list[tuple[str, bool, str]]:
        edges = np.load(self.inputs / "edges.npz")
        maps = self.split.maps
        user_dense = np.array([maps.user_to_dense[f"u{n}"] for n in range(maps.n_users)])
        ids = _read_ids(self.inputs / "items.tge")
        item_dense = np.array([maps.item_to_dense[i] for i in ids])
        rows = read_tge(self.inputs / "items.tge")
        train_mask = edges["part"] == 0
        users = user_dense[edges["users"]]
        gen_item_row = {int(i[1:]): r for r, i in enumerate(ids)}
        items = item_dense[np.array([gen_item_row[i] for i in edges["items"].tolist()])]
        emb = np.empty_like(rows)
        emb[item_dense] = rows
        ref_user, ref_item = reference.diffuse_f64(
            maps.n_users, maps.n_items, users[train_mask], items[train_mask], emb, self.layers)
        err = max(reference.max_abs_rel_error(self.diff.user_final, ref_user),
                  reference.max_abs_rel_error(self.diff.item_final, ref_item))
        train = _csr(maps.n_users, users[train_mask], items[train_mask])
        test_mask = edges["part"] == 2
        test = _csr(maps.n_users, users[test_mask], items[test_mask])
        ref = reference.ranking_metrics(ref_user, ref_item, train, test, K)
        gap = max(abs(getattr(self.report, m) - ref[m]) for m in ("recall", "ndcg", "hr"))
        chance = reference.random_recall(train, test, maps.n_items, K)
        return [
            ("diffused rows match float64 reference", err <= 1e-5, f"max rel error {err:.2e}"),
            ("metrics match full-sort reference",
             self.report.n_users == ref["users"] and gap <= 1e-3,
             f"users {self.report.n_users}/{ref['users']}, max gap {gap:.1e}"),
            ("recall above random", self.report.recall > chance,
             f"{self.report.recall:.4f} vs {chance:.4f}"),
        ] + self.check_served()


class HeadTrain(Workload):
    """In-domain head training, then checkpoint, baselines and zero-shot transfer."""

    dim = 128
    epochs = 6
    requests = 4000     # ~0.1 ms each: a block long enough to meet the host's busy spells
    round_state = ("source", "target", "source_emb", "target_emb", "params", "log", "loaded",
                   "served")

    def prepare(self) -> None:
        Config = self.tg.SyntheticConfig
        self.source_cfg = Config(n_clusters=4, n_users=1500, n_items=800, seed=2 * self.seed + 1,
                                 vocab_tag="b", id_tag="s")
        self.target_cfg = Config(n_clusters=4, n_users=1000, n_items=600, seed=2 * self.seed + 2,
                                 vocab_tag="b", id_tag="t")
        self.train_cfg = self.tg.TrainConfig(
            d_out=64, neg_samples=128, batch_users=256, max_epochs=self.epochs,
            patience=self.epochs + 1, seed=self.seed, n_layers=2)

    def setup(self) -> None:
        self.source = self.call(self.tg.generate_clustered_split, self.source_cfg)
        self.target = self.call(self.tg.generate_clustered_split, self.target_cfg)
        self.source_emb = self.call(self.tg.mock_embed, self.source.catalog, self.dim, self.seed)
        self.target_emb = self.call(self.tg.mock_embed, self.target.catalog, self.dim, self.seed)

    def main(self) -> None:
        self.params, self.log, _ = self.call(self.tg.train, self.source, self.source_emb,
                                             self.train_cfg)
        self.digest_parts.append(self.log.to_jsonl().encode())

    def followup(self) -> None:
        # a new directory per round: deleting or truncating files between
        # rounds made later writes stall on the project's ext4 disk
        self.ckpt = self.work / f"checkpoint-{self.round}"
        self.call(self.tg.save_checkpoint, self.params, None, {"seed": self.seed}, self.ckpt)
        self.loaded, _, _ = self.call(self.tg.load_checkpoint, self.ckpt,
                                      expected_d_in=self.dim)
        self.baselines = [self.call(baseline, split, k=K, **extra)
                          for split in (self.source, self.target)
                          for baseline, extra in ((self.tg.baseline_pop, {}),
                                                  (self.tg.baseline_random, {"seed": self.seed}))]
        self.zero_shot = self.call(self.tg.apply_zero_shot, self.loaded, self.target,
                                   self.target_emb, self.train_cfg.n_layers, k=K)
        for path in sorted(self.ckpt.iterdir()):
            self.digest_parts.append(path.name.encode() + path.read_bytes())
        for report in self.baselines + [self.zero_shot]:
            self.digest_parts.append(report.to_json().encode())

    def serve(self) -> None:
        diff = self.call(self.tg.diffuse, self.target.train, self.target_emb,
                         self.train_cfg.n_layers)
        user_out, item_out = self.call(self.tg.training.project, self.loaded,
                                       diff.user_final, diff.item_final)
        self.serve_requests(user_out, item_out, self.target.train)

    def checks(self) -> list[tuple[str, bool, str]]:
        losses = [rec.loss for rec in self.log.epochs]
        saved, loaded = self.params.named_tensors(), self.loaded.named_tensors()
        bit_exact = (saved.keys() == loaded.keys() and self.params.mode == self.loaded.mode
                     and all(saved[n].tobytes() == loaded[n].tobytes() for n in saved))
        pop_gaps = []
        for split, pop in ((self.source, self.baselines[0]), (self.target, self.baselines[2])):
            ref = reference.pop_metrics(*_train_test(split), split.train.n_items, K)
            pop_gaps.append(math.inf if pop.n_users != ref["users"] else
                            max(abs(getattr(pop, m) - ref[m]) for m in ("recall", "ndcg", "hr")))
        target_chance = reference.random_recall(*_train_test(self.target),
                                                self.target.train.n_items, K)
        return [
            ("configured epochs ran", len(losses) == self.epochs
             and self.log.stop_reason == "max_epochs", f"{len(losses)} epochs"),
            ("last loss below first", losses[-1] < losses[0],
             f"{losses[0]:.4f} -> {losses[-1]:.4f}"),
            ("checkpoint round trip bit-exact", bit_exact, self.params.mode),
            ("pop baselines match raw-count reference", max(pop_gaps) <= 1e-12,
             f"max gap {max(pop_gaps):.1e} (source, target)"),
            ("zero-shot recall above random", self.zero_shot.recall > target_chance,
             f"{self.zero_shot.recall:.4f} vs {target_chance:.4f}"),
        ] + self.check_served()


class EmbedCache(Workload):
    """`textgcn embed` against a loopback endpoint: no cache, then a warm cache after an edit.

    The cold cache is filled once before the rounds, untimed: on the
    project's ext4 disk, creating the same 8k small files took anywhere
    from 0.4 s to 4 s, which no bound can absorb.
    Each round then removes what its follow-up added, so every round starts
    from the same warm cache.
    """

    batch = 32
    model = "bench-embedder"
    requests = 320      # ~6 ms each, so serving stays a minor share of a round
    round_state = ("split", "served")

    def prepare(self) -> None:
        from endpoint import EmbeddingEndpoint
        self.inputs = self.generate_inputs("embed-cache")
        self.titles = {name: self._read_titles(self.inputs / name / "titles.tsv")
                       for name in ("corpus", "corpus_edited")}
        every = set(self.titles["corpus"].values()) | set(self.titles["corpus_edited"].values())
        self.endpoint = EmbeddingEndpoint(every, EMBED_DIM)
        self.cache = self.work / "cache"
        self.phase_requests: dict[str, tuple[int, int]] = {}
        os.environ[self.tg.embeddings.API_KEY_ENV] = "loopback-key"
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
        self._embed("corpus", self.work / "warm.tge", cache=True)
        self.warm_entries = set(os.listdir(self.cache))

    @staticmethod
    def _read_titles(path: Path) -> dict[str, str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        return dict(line.split("\t", 1) for line in lines)

    def start_round(self) -> None:
        super().start_round()
        # a new directory per round, as for head-train's checkpoints
        self.out = {name: self.work / f"round-{self.round}" / name / "items.tge"
                    for name in self.titles}
        for name in set(os.listdir(self.cache)) - self.warm_entries:
            os.remove(self.cache / name)

    def setup(self) -> None:
        self.split = self.call(self.tg.load_split, self.inputs / "corpus")

    def _embed(self, name: str, out: Path, cache: bool) -> tuple[int, int]:
        """Run `textgcn embed` in-process; returns (requests, titles) the endpoint served."""
        before = (self.endpoint.requests, self.endpoint.titles_served)
        argv = ["embed", "--dataset", str(self.inputs / name), "--out", str(out),
                "--endpoint", self.endpoint.url, "--model", self.model,
                "--batch-size", str(self.batch)] + (["--cache", str(self.cache)] if cache else [])
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.tg.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"textgcn {' '.join(argv)} exited {code}")
        return self.endpoint.requests - before[0], self.endpoint.titles_served - before[1]

    def _timed_embed(self, name: str, cache: bool) -> None:
        self.phase_requests[name] = self.call(self._embed, name, self.out[name], cache)
        for path in (self.out[name], Path(str(self.out[name]) + ".ids")):
            self.digest_parts.append(path.read_bytes())
        manifest = json.loads((self.out[name].parent / "manifest.json").read_text())
        del manifest["config"]["out"]     # the one entry that names the round's directory
        self.digest_parts.append(json.dumps(manifest, sort_keys=True).encode())

    def main(self) -> None:
        self._timed_embed("corpus", cache=False)

    def followup(self) -> None:
        self._timed_embed("corpus_edited", cache=True)

    def serve(self) -> None:
        emb = self.call(self.tg.load_matrix, self.out["corpus_edited"])
        diff = self.call(self.tg.diffuse, self.split.train, emb, 2)
        self.serve_requests(diff.user_final, diff.item_final, self.split.train)

    def _expected(self, name: str) -> np.ndarray:
        titles = self.titles[name]
        return np.stack([self.endpoint.vectors[titles[i]] for i in _read_ids(self.out[name])])

    def checks(self) -> list[tuple[str, bool, str]]:
        out = []
        for name in self.titles:
            got = read_tge(self.out[name])
            out.append((f"{name}: .tge equals endpoint vectors in catalog order",
                        got.tobytes() == self._expected(name).tobytes(), f"{got.shape}"))
        first = set(self.titles["corpus"].values())
        edited = set(self.titles["corpus_edited"].values())
        for name, distinct in (("corpus", len(first)), ("corpus_edited", len(edited - first))):
            want = (math.ceil(distinct / self.batch), distinct)
            out.append((f"{name}: (requests, titles) sent", self.phase_requests[name] == want,
                        f"{self.phase_requests[name]} vs {want}"))
        ids = _read_ids(self.out["corpus_edited"])
        catalog = self.tg.ItemCatalog([self.titles["corpus_edited"][i] for i in ids])
        refused_before = self.endpoint.refused
        again = self.tg.fetch_embeddings(catalog, self.endpoint.refuse_url, self.model,
                                         batch_size=self.batch,
                                         cache=self.tg.VectorCache(self.cache),
                                         api_key="loopback-key", max_attempts=1)
        out.append(("refusing endpoint: every vector came from the cache",
                    again.tobytes() == read_tge(self.out["corpus_edited"]).tobytes()
                    and self.endpoint.refused == refused_before,
                    f"{self.endpoint.refused - refused_before} refused"))
        return out + self.check_served()

    def close(self) -> None:
        if getattr(self, "endpoint", None) is not None:     # prepare may have failed first
            self.endpoint.close()


WORKLOADS = {"rank-catalog": RankCatalog, "head-train": HeadTrain, "embed-cache": EmbedCache}
