"""Training loop for the contrastive MLP head over frozen diffusion output.

Diffusion embeddings are computed once on the train graph and never receive
gradients; only the user/item MLPs learn. Each epoch shuffles users
(seeded), walks contrastive batches, then scores validation
recall@``EVAL_K`` with the current towers. Early stopping keeps the weights
from the best validation epoch, not the last one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .contrast import kcl_loss, localize_batch, sample_batch
from .corpus import (DatasetSplit, InteractionMatrix, MergedCorpus, interaction_quantile,
                     merge_corpora)
from .diffusion import DiffusionOutput, diffuse
from .errors import DataError
from .ranking import MetricsReport, evaluate
from .tower import TOWER_PREFIXES, AdamState, TwoTowerParams, adam_step

EVAL_K = 20   # the k of the recall that selects the epoch and of train's test recall


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; defaults follow the tuned-search defaults."""

    lr: float = 5e-4
    d_out: int = 64
    n_layers: int = 2
    neg_samples: int = 256
    pos_k: int | None = None         # fixed positive count, overrides quantile
    pos_quantile: float = 0.5        # used when pos_k is None
    temperature: float = 0.15
    batch_users: int = 1024
    patience: int = 20
    max_epochs: int = 500
    seed: int = 0
    tower_mode: str = "two"

    def __post_init__(self):
        if self.patience < 1:
            raise DataError("patience must be >= 1")
        if self.tower_mode not in TOWER_PREFIXES:
            raise DataError(f"unknown tower mode {self.tower_mode!r}")
        if ((self.pos_k is not None and self.pos_k < 1) or self.neg_samples < 1
                or self.batch_users < 1):
            raise DataError("pos_k, neg_j and batch_users must be >= 1")
        if self.temperature <= 0:
            raise DataError("temperature must be > 0")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    val_recall: float


@dataclass
class TrainLog:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_recall: float = float("-inf")
    stop_reason: str = ""
    resolved_pos_k: int = 0

    def to_jsonl(self) -> str:
        """Deterministic per-epoch lines."""
        lines = []
        for rec in self.epochs:
            lines.append(json.dumps({
                "epoch": rec.epoch, "loss": rec.loss, "val_recall": rec.val_recall,
                "best": rec.epoch == self.best_epoch,
            }, sort_keys=True))
        return "\n".join(lines) + "\n"


def resolve_pos_k(train, cfg: TrainConfig) -> int:
    if cfg.pos_k is not None:
        return cfg.pos_k
    return interaction_quantile(train, cfg.pos_quantile)


def project(params: TwoTowerParams, user_in: np.ndarray,
            item_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Push both embedding tables through their towers (no tape kept)."""
    return params.forward(user_in, item_in)[:2]


def _train_epoch(train, diff: DiffusionOutput, params: TwoTowerParams,
                 adam: AdamState, cfg: TrainConfig, pos_k: int,
                 users: np.ndarray, epoch: int) -> float:
    rng = np.random.default_rng((cfg.seed, epoch))
    order = rng.permutation(users)
    batch_size = cfg.batch_users
    total = 0.0
    tensors = params.named_tensors()
    for index, start in enumerate(range(0, len(order), batch_size)):
        batch_users = order[start:start + batch_size]
        batch = sample_batch(train, batch_users, pos_k, cfg.neg_samples, cfg.seed, epoch)
        unique_items, pos_local, neg_local = localize_batch(batch)

        user_out, item_out, tapes = params.forward(diff.user_final[batch.users],
                                                   diff.item_final[unique_items])
        try:
            loss, d_user, d_item = kcl_loss(user_out, item_out, pos_local, neg_local,
                                            cfg.temperature)
            adam_step(tensors, params.backward(tapes, d_user, d_item), adam)
        except DataError as err:
            raise DataError(f"epoch {epoch} batch {index}: {err}") from err
        total += loss * len(batch_users)
    return total / len(order)


def _run_loop(train, diff: DiffusionOutput, cfg: TrainConfig,
              eval_fn) -> tuple[TwoTowerParams, TrainLog]:
    """Shared epoch/early-stop driver; eval_fn(params) -> validation recall."""
    d_in = diff.item_final.shape[1]
    params = TwoTowerParams.init(d_in, cfg.d_out, mode=cfg.tower_mode, seed=cfg.seed)
    adam = AdamState(params.named_tensors(), lr=cfg.lr)
    pos_k = resolve_pos_k(train, cfg)
    users = np.flatnonzero(train.user_degrees > 0)
    if len(users) == 0:
        raise DataError("no trainable users (all train degrees are zero)")

    log = TrainLog(resolved_pos_k=pos_k)
    best_params = params.copy()
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss = _train_epoch(train, diff, params, adam, cfg, pos_k, users, epoch)
        val_recall = eval_fn(params)
        log.epochs.append(EpochRecord(epoch=epoch, loss=loss, val_recall=val_recall))
        if val_recall > log.best_val_recall:
            log.best_val_recall = val_recall
            log.best_epoch = epoch
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                log.stop_reason = "patience"
                break
    if not log.stop_reason:
        log.stop_reason = "max_epochs"
    return best_params, log


def head_recall(params: TwoTowerParams, corpus: MergedCorpus, diff: DiffusionOutput,
                part: str) -> float:
    """Unweighted mean over the corpus's parts of the towers' recall@EVAL_K on ``part``."""
    user_out, item_out = project(params, diff.user_final, diff.item_final)
    recalls = []
    for p, split in enumerate(corpus.parts):
        u_lo, u_hi = corpus.part_user_range(p)
        i_lo, i_hi = corpus.part_item_range(p)
        recalls.append(evaluate(split, user_out[u_lo:u_hi], item_out[i_lo:i_hi],
                                k=EVAL_K, part=part, model="textgcn-mlp").recall)
    return float(np.mean(recalls))


def train(data: DatasetSplit | MergedCorpus, item_emb: np.ndarray,
          cfg: TrainConfig) -> tuple[TwoTowerParams, TrainLog, DiffusionOutput]:
    """Train the head; returns best-epoch towers, the log, and the frozen diffusion.

    A single split trains as a one-part corpus. Several corpora train
    jointly on the block-diagonal merged graph, with ``item_emb`` stacked
    in part order. The model-selection metric is ``head_recall`` on the
    validation part, which for one part is its own recall.
    """
    corpus = merge_corpora([data]) if isinstance(data, DatasetSplit) else data
    diff = diffuse(corpus.train, item_emb, cfg.n_layers)
    params, log = _run_loop(corpus.train, diff, cfg,
                            lambda p: head_recall(p, corpus, diff, "val"))
    return params, log, diff


def model_outputs(params: TwoTowerParams | None, train: InteractionMatrix,
                  item_emb: np.ndarray, n_layers: int) -> tuple[np.ndarray, np.ndarray]:
    """User and item tables of a model: diffusion over ``train``, then the towers if any.

    With ``params`` None this is the training-free model: the diffusion
    output itself. Evaluation, zero-shot transfer and serving all score
    these tables.
    """
    if params is not None and params.user_mlp.d_in != item_emb.shape[1]:
        raise DataError(f"checkpoint dimension mismatch: d_in {params.user_mlp.d_in} != "
                        f"embedding dim {item_emb.shape[1]}")
    diff = diffuse(train, item_emb, n_layers)
    if params is None:
        return diff.user_final, diff.item_final
    return project(params, diff.user_final, diff.item_final)


def apply_zero_shot(params: TwoTowerParams | None, target: DatasetSplit,
                    target_item_emb: np.ndarray, n_layers: int,
                    k: int = 20, part: str = "test") -> MetricsReport:
    """Score a never-seen dataset with frozen towers (or the identity head).

    Target embeddings are diffused from the target's own train graph; no
    IDs cross between corpora, only embedding geometry.
    """
    user_out, item_out = model_outputs(params, target.train, target_item_emb, n_layers)
    model = "textgcn" if params is None else "textgcn-mlp-zero-shot"
    return evaluate(target, user_out, item_out, k=k, part=part, model=model)


def ablation_variants(base: TrainConfig) -> list[tuple[str, TrainConfig]]:
    """The four head ablations, expressed purely as config changes."""
    return [
        ("one-tower/1-pos", replace(base, tower_mode="one", pos_k=1)),
        ("one-tower/k-pos", replace(base, tower_mode="one", pos_k=None)),
        ("two-tower/1-pos", replace(base, tower_mode="two", pos_k=1)),
        ("two-tower/k-pos", replace(base, tower_mode="two", pos_k=None)),
    ]
