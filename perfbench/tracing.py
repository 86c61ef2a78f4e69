"""Spans around the program's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function at every module attribute
of ``textgcn`` that holds it (the package re-exports, ``textgcn.cli``'s
imported names, the defining module), so calls are caught wherever the
program looks the function up. Methods are patched on their class. Spans
stay in memory with a parent id (``run.py`` writes them out as JSONL when
the run ends); ``uninstall`` restores every original binding. A traced name that no
longer exists is skipped: its layer metrics are then absent, not an error.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import statistics
import threading
import time

# (module, attribute) -> name of the extractor that adds span attributes
TRACED = {
    ("corpus", "load_split"): "interactions",
    ("synthetic", "generate_clustered_split"): None,
    ("embeddings", "load_matrix"): None,
    ("embeddings", "save_matrix"): None,
    ("embeddings", "mock_embed"): None,
    ("embeddings", "fetch_embeddings"): None,
    ("embeddings", "_embed_batch"): "titles",
    ("embeddings", "_post_json"): None,
    ("embeddings", "VectorCache.get"): "hit",
    ("embeddings", "VectorCache.put"): None,
    ("diffusion", "diffuse"): None,
    ("diffusion", "propagate"): "spmm_flops",
    ("contrast", "sample_batch"): None,
    ("contrast", "localize_batch"): None,
    ("contrast", "kcl_loss"): "pairs",
    ("tower", "mlp_forward"): None,
    ("tower", "mlp_backward"): None,
    ("tower", "adam_step"): None,
    ("tower", "save_checkpoint"): None,
    ("tower", "load_checkpoint"): None,
    ("training", "train"): "epochs",
    ("training", "apply_zero_shot"): None,
    ("ranking", "evaluate"): "scored",
    ("ranking", "recommend_topk"): None,
    ("ranking", "baseline_pop"): None,
    ("ranking", "baseline_random"): None,
    ("cli", "cmd_embed"): None,
}


def _extract(kind: str | None, args: tuple, result) -> dict:
    """Work counts computed from argument and result sizes."""
    if kind == "interactions":
        return {"interactions": result.train.n_interactions + result.val.n_interactions
                + result.test.n_interactions}
    if kind == "titles":
        return {"titles": len(args[3])}
    if kind == "hit":
        return {"hit": result is not None}
    if kind == "spmm_flops":
        graph, user_layer = args[0], args[1]
        nnz = graph.user_to_item.nnz + graph.item_to_user.nnz
        return {"flops": 2 * nnz * user_layer.shape[1]}
    if kind == "pairs":
        return {"pairs": args[2].size + args[3].size}
    if kind == "epochs":
        return {"epochs": len(result[1].epochs)}
    if kind == "scored":
        item_emb = args[2]
        return {"users": result.n_users,
                "flops": 2 * result.n_users * item_emb.shape[0] * item_emb.shape[1]}
    return {}


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, func, kind: str | None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = {"id": len(tracer.spans), "parent": stack[-1]["id"] if stack else None,
                    "name": name, "start": time.perf_counter()}
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span.update(_extract(kind, args, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [self.package] + [
            importlib.import_module(f"{self.package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(self.package.__path__)
            if info.name != "__main__"]
        for (module_name, attr), kind in TRACED.items():
            module = getattr(self.package, module_name, None)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None)
            if method:
                func = owner.__dict__.get(method) if isinstance(owner, type) else None
                if func is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patch(owner, method, self._wrap(f"{module_name}.{attr}", func, kind))
                continue
            if owner is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", owner, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        self._patch(mod, key, wrapper)

    def _patch(self, target, key: str, value) -> None:
        self._patches.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered), math.ceil(q * len(ordered))) - 1]


class _Missing(Exception):
    """A metric read a traced name that no longer exists in the program."""


class _Spans:
    """Lookups over one round's spans; reading a missing name raises _Missing."""

    def __init__(self, spans: list[dict], missing: list[str]):
        self.missing = set(missing)
        self.by_name: dict[str, list[dict]] = {}
        self.child_time: dict[int, float] = {}
        self.names = {span["id"]: span["name"] for span in spans}
        for span in spans:
            self.by_name.setdefault(span["name"], []).append(span)
            if span["parent"] is not None:
                self.child_time[span["parent"]] = (self.child_time.get(span["parent"], 0.0)
                                                   + span["end"] - span["start"])

    def of(self, name: str) -> list[dict]:
        if name in self.missing:
            raise _Missing(name)
        return self.by_name.get(name, [])

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.of(name))

    def count(self, name: str) -> int:
        return len(self.of(name))

    def attr(self, name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in self.of(name))

    def self_time(self, name: str) -> float:
        """Duration minus the time covered by direct children (they never overlap)."""
        return sum(s["end"] - s["start"] - self.child_time.get(s["id"], 0.0)
                   for s in self.of(name))

    def under(self, name: str, parent: str) -> float:
        self.of(parent)     # a missing parent leaves the metric out too
        return sum(s["end"] - s["start"] for s in self.of(name)
                   if self.names.get(s["parent"]) == parent)

    def hits(self) -> int:
        return sum(1 for s in self.of("embeddings.VectorCache.get") if s.get("hit"))

    def misses(self) -> int:
        return self.count("embeddings.VectorCache.get") - self.hits()

    def titles_per_miss(self) -> float:
        """Titles sent per cache miss, over the fetches that consulted a cache."""
        fetches = {s["id"] for s in self.of("embeddings.fetch_embeddings")}
        gets = [s for s in self.of("embeddings.VectorCache.get") if s["parent"] in fetches]
        cached = {s["parent"] for s in gets}
        sent = sum(s.get("titles", 0) for s in self.of("embeddings._embed_batch")
                   if s["parent"] in cached)
        return _ratio(sent, sum(1 for s in gets if not s.get("hit")))

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (s["end"] - s["start"]) for s in self.of(name)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: inclusive span totals unless named "self"; flops are
# computed from array sizes, not measured.
LAYER_METRICS = {
    "corpus.load_split_s": lambda t: t.total("corpus.load_split"),
    "corpus.interactions_per_s": lambda t: _ratio(t.attr("corpus.load_split", "interactions"),
                                                  t.total("corpus.load_split")),
    "synthetic.generate_s": lambda t: t.total("synthetic.generate_clustered_split"),
    "embeddings.load_matrix_s": lambda t: t.total("embeddings.load_matrix"),
    "embeddings.mock_embed_s": lambda t: t.total("embeddings.mock_embed"),
    "embeddings.fetch_s": lambda t: t.total("embeddings.fetch_embeddings"),
    "embeddings.requests": lambda t: t.count("embeddings._post_json"),
    "embeddings.titles_sent": lambda t: t.attr("embeddings._embed_batch", "titles"),
    "embeddings.titles_sent_per_miss": lambda t: t.titles_per_miss(),
    "embeddings.request_p50_ms": lambda t: percentile(t.durations_ms("embeddings._post_json"),
                                                       0.50),
    "embeddings.request_p95_ms": lambda t: percentile(t.durations_ms("embeddings._post_json"),
                                                       0.95),
    "embeddings.cache_put_s": lambda t: t.total("embeddings.VectorCache.put"),
    "embeddings.cache_puts": lambda t: t.count("embeddings.VectorCache.put"),
    "embeddings.save_matrix_s": lambda t: t.total("embeddings.save_matrix"),
    "cli.embed_self_s": lambda t: t.self_time("cli.cmd_embed"),
    "embeddings.cache_get_s": lambda t: t.total("embeddings.VectorCache.get"),
    "embeddings.cache_hits": lambda t: t.hits(),
    "embeddings.cache_misses": lambda t: t.misses(),
    "diffusion.diffuse_s": lambda t: t.total("diffusion.diffuse"),
    "diffusion.propagate_s": lambda t: t.total("diffusion.propagate"),
    "diffusion.propagate_calls": lambda t: t.count("diffusion.propagate"),
    "diffusion.spmm_flops": lambda t: t.attr("diffusion.propagate", "flops"),
    "diffusion.gflops_per_s": lambda t: _ratio(t.attr("diffusion.propagate", "flops") / 1e9,
                                               t.total("diffusion.propagate")),
    "contrast.sample_batch_s": lambda t: t.total("contrast.sample_batch"),
    "contrast.localize_batch_s": lambda t: t.total("contrast.localize_batch"),
    "contrast.kcl_loss_s": lambda t: t.total("contrast.kcl_loss"),
    "contrast.kcl_loss_calls": lambda t: t.count("contrast.kcl_loss"),
    "contrast.scored_pairs_per_s": lambda t: _ratio(t.attr("contrast.kcl_loss", "pairs"),
                                                    t.total("contrast.kcl_loss")),
    "tower.mlp_forward_s": lambda t: t.total("tower.mlp_forward"),
    "tower.mlp_backward_s": lambda t: t.total("tower.mlp_backward"),
    "tower.adam_step_s": lambda t: t.total("tower.adam_step"),
    "tower.checkpoint_io_s": lambda t: (t.total("tower.save_checkpoint")
                                        + t.total("tower.load_checkpoint")),
    "training.train_s": lambda t: t.total("training.train"),
    "training.self_s": lambda t: t.self_time("training.train"),
    "training.epochs": lambda t: t.attr("training.train", "epochs"),
    "training.validation_s": lambda t: t.under("ranking.evaluate", "training.train"),
    "training.apply_zero_shot_s": lambda t: t.total("training.apply_zero_shot"),
    "ranking.evaluate_s": lambda t: t.total("ranking.evaluate"),
    "ranking.users_scored": lambda t: t.attr("ranking.evaluate", "users"),
    "ranking.users_per_s": lambda t: _ratio(t.attr("ranking.evaluate", "users"),
                                            t.total("ranking.evaluate")),
    "ranking.score_flops": lambda t: t.attr("ranking.evaluate", "flops"),
    "ranking.recommend_topk_s": lambda t: t.total("ranking.recommend_topk"),
    "ranking.requests": lambda t: t.count("ranking.recommend_topk"),
    "ranking.request_p50_ms": lambda t: percentile(t.durations_ms("ranking.recommend_topk"), 0.50),
    "ranking.baseline_pop_s": lambda t: t.total("ranking.baseline_pop"),
    "ranking.baseline_random_s": lambda t: t.total("ranking.baseline_random"),
}


def layer_metrics(spans: list[dict], missing: list[str]) -> dict[str, float]:
    """Per-layer numbers of one traced round; metrics of missing names are left out."""
    lookup = _Spans(spans, missing)
    out = {}
    for name, compute in LAYER_METRICS.items():
        try:
            out[name] = compute(lookup)
        except _Missing:
            continue
    return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced rounds."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
