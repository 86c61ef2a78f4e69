"""Trainable projection head: per-side MLPs, manual backprop, Adam, checkpoints.

Each MLP is two linear layers with a LeakyReLU (slope 0.01) in between;
the hidden width is half the input width. The head runs either
with separate user/item networks ("two" mode) or a single shared network
("one" mode) where both sides literally alias the same tensors, so
gradient contributions from the two branches accumulate by summation.

Forward/backward are written out by hand in float32; correctness is
guarded by finite-difference tests rather than an autograd framework.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import embeddings
from .errors import DataError
from .files import read_json_object, write_atomic

LEAKY_SLOPE = 0.01
CHECKPOINT_MANIFEST = "manifest.json"
TENSOR_NAMES = ("w1", "b1", "w2", "b2")


@dataclass
class MlpParams:
    """Weights of one two-layer MLP: y = w2 @ leaky(w1 @ x + b1) + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        self.w1 = np.ascontiguousarray(self.w1, dtype=np.float32)
        self.b1 = np.ascontiguousarray(self.b1, dtype=np.float32)
        self.w2 = np.ascontiguousarray(self.w2, dtype=np.float32)
        self.b2 = np.ascontiguousarray(self.b2, dtype=np.float32)
        d_hidden, d_in = self.w1.shape
        d_out = self.w2.shape[0]
        if self.b1.shape != (d_hidden,) or self.w2.shape != (d_out, d_hidden) \
                or self.b2.shape != (d_out,):
            raise DataError("inconsistent MLP tensor shapes")
        for name in TENSOR_NAMES:
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"non-finite value in tensor {name}")

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def d_hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TENSOR_NAMES}


def init_mlp(d_in: int, d_out: int, rng: np.random.Generator) -> MlpParams:
    """Kaiming-uniform fan-in init (LeakyReLU gain); torch-style uniform biases."""
    d_hidden = max(1, d_in // 2)
    gain = math.sqrt(2.0 / (1.0 + LEAKY_SLOPE ** 2))

    def weight(rows: int, cols: int) -> np.ndarray:
        bound = gain * math.sqrt(3.0 / cols)
        return rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)

    def bias(rows: int, fan_in: int) -> np.ndarray:
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=rows).astype(np.float32)

    return MlpParams(weight(d_hidden, d_in), bias(d_hidden, d_in),
                     weight(d_out, d_hidden), bias(d_out, d_hidden))


# mode -> (user-side, item-side) tensor-name prefix; a shared head names one MLP twice.
# The prefixes key named_tensors, the Adam moments and the checkpoint files.
TOWER_PREFIXES = {"one": ("shared", "shared"), "two": ("user", "item")}


@dataclass
class TwoTowerParams:
    """User and item MLPs; in "one" mode both fields are the same object."""

    user_mlp: MlpParams
    item_mlp: MlpParams

    @property
    def mode(self) -> str:
        return "one" if self.user_mlp is self.item_mlp else "two"

    @property
    def sides(self) -> tuple[tuple[str, MlpParams], tuple[str, MlpParams]]:
        """(prefix, MLP) of the user side, then of the item side."""
        user_prefix, item_prefix = TOWER_PREFIXES[self.mode]
        return (user_prefix, self.user_mlp), (item_prefix, self.item_mlp)

    @classmethod
    def build(cls, mode: str, make_mlp: Callable[[str], MlpParams]) -> "TwoTowerParams":
        """A head of ``mode`` whose MLPs are ``make_mlp(prefix)``, once per distinct prefix."""
        if mode not in TOWER_PREFIXES:
            raise DataError(f"unknown tower mode {mode!r}")
        mlps = {prefix: make_mlp(prefix) for prefix in dict.fromkeys(TOWER_PREFIXES[mode])}
        return cls(*(mlps[prefix] for prefix in TOWER_PREFIXES[mode]))

    @classmethod
    def init(cls, d_in: int, d_out: int, mode: str = "two", seed: int = 0) -> "TwoTowerParams":
        rng = np.random.default_rng(seed)
        return cls.build(mode, lambda _: init_mlp(d_in, d_out, rng))

    def named_tensors(self) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": tensor for prefix, mlp in self.sides
                for name, tensor in mlp.tensors().items()}

    def copy(self) -> "TwoTowerParams":
        # deepcopy's memo keeps a shared MLP shared
        return copy.deepcopy(self)

    def forward(self, user_in: np.ndarray,
                item_in: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Both sides through their MLPs: (user_out, item_out, tapes for ``backward``)."""
        user_out, user_tape = mlp_forward(self.user_mlp, user_in)
        item_out, item_tape = mlp_forward(self.item_mlp, item_in)
        return user_out, item_out, (user_tape, item_tape)

    def backward(self, tapes: tuple, d_user_out: np.ndarray,
                 d_item_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients keyed like ``named_tensors``; a shared head sums user + item."""
        grads: dict[str, np.ndarray] = {}
        for (prefix, mlp), tape, dy in zip(self.sides, tapes, (d_user_out, d_item_out)):
            for name, grad in zip(TENSOR_NAMES, mlp_backward(mlp, tape, dy)):
                key = f"{prefix}.{name}"
                grads[key] = grads[key] + grad if key in grads else grad
        return grads


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Forward pass; the returned tape feeds mlp_backward."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != params.d_in:
        raise DataError(f"input shape {x.shape} does not match d_in {params.d_in}")
    hidden_pre = x @ params.w1.T + params.b1
    hidden = np.where(hidden_pre >= 0, hidden_pre, LEAKY_SLOPE * hidden_pre)
    y = hidden @ params.w2.T + params.b2
    return y, (x, hidden_pre, hidden)


def mlp_backward(
    params: MlpParams, tape: tuple, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact weight gradients of the forward map: (dw1, db1, dw2, db2).

    No input gradient: the inputs are frozen diffusion output. The
    LeakyReLU subgradient at exactly zero is taken as 1.
    """
    x, hidden_pre, hidden = tape
    dy = np.ascontiguousarray(dy, dtype=np.float32)
    if dy.shape != (x.shape[0], params.d_out):
        raise DataError(f"upstream gradient shape {dy.shape} does not match tape")
    dw2 = dy.T @ hidden
    db2 = dy.sum(axis=0)
    dhidden = dy @ params.w2
    dpre = dhidden * np.where(hidden_pre >= 0, np.float32(1.0), np.float32(LEAKY_SLOPE))
    dw1 = dpre.T @ x
    db1 = dpre.sum(axis=0)
    return dw1, db1, dw2, db2


class AdamState:
    """First/second moments per named tensor, plus the shared step counter."""

    def __init__(self, tensors: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}


def adam_step(tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """Standard bias-corrected Adam update, in place, constant learning rate."""
    state.step += 1
    bias1 = 1.0 - state.beta1 ** state.step
    bias2 = 1.0 - state.beta2 ** state.step
    for name, grad in grads.items():
        if not np.isfinite(grad).all():
            raise DataError(f"non-finite gradient for tensor {name}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(grad)
        m_hat = m / np.float32(bias1)
        v_hat = v / np.float32(bias2)
        tensors[name] -= np.float32(state.lr) * m_hat / (np.sqrt(v_hat) + np.float32(state.eps))


def save_checkpoint(params: TwoTowerParams, adam: AdamState | None,
                    meta: dict, directory: str | Path) -> None:
    """Write tensors (and optimizer moments) bit-exactly plus a JSON manifest."""
    directory = Path(directory)
    tensors = params.named_tensors()
    manifest: dict = {
        "format_version": 1,
        "mode": params.mode,
        "d_in": params.user_mlp.d_in,
        "d_hidden": params.user_mlp.d_hidden,
        "d_out": params.user_mlp.d_out,
        "tensors": {name: {"file": f"{name}.tge", "shape": list(tensor.shape)}
                    for name, tensor in tensors.items()},
        "adam": None,
        "meta": meta,
    }
    files = {f"{name}.tge": tensor for name, tensor in tensors.items()}
    if adam is not None:
        manifest["adam"] = {"lr": adam.lr, "beta1": adam.beta1, "beta2": adam.beta2,
                            "eps": adam.eps, "step": adam.step}
        files.update({f"adam.{bank}.{name}.tge": tensor
                      for bank, moments in (("m", adam.m), ("v", adam.v))
                      for name, tensor in moments.items()})
    for fname, tensor in files.items():
        embeddings.save_matrix(np.atleast_2d(tensor), directory / fname)
    with write_atomic(directory / CHECKPOINT_MANIFEST) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _require(entry, keys: tuple[str, ...], what: str) -> None:
    """DataError naming ``what`` unless ``entry`` is a JSON object holding every key."""
    for key in keys:
        if not isinstance(entry, dict) or key not in entry:
            raise DataError(f"{what} has no {key!r} entry")


def load_checkpoint(
    directory: str | Path, expected_d_in: int | None = None
) -> tuple[TwoTowerParams, AdamState | None, dict]:
    """Restore a checkpoint; one-tower checkpoints alias both sides again."""
    directory = Path(directory)
    manifest = read_json_object(directory / CHECKPOINT_MANIFEST)
    _require(manifest, ("format_version", "tensors", "d_in", "mode", "adam", "meta"),
             "checkpoint manifest")
    if manifest["format_version"] != 1:
        raise DataError(f"unsupported checkpoint version {manifest['format_version']}")
    if expected_d_in is not None and manifest["d_in"] != expected_d_in:
        raise DataError(
            f"checkpoint dimension mismatch: d_in {manifest['d_in']} != {expected_d_in}"
        )

    def read(name: str, fname: str | None = None) -> np.ndarray:
        """Tensor ``name``, or its moment file ``fname``, shaped as the manifest records."""
        entry = manifest["tensors"].get(name)
        if entry is None:
            raise DataError(f"checkpoint manifest has no entry for tensor {name!r}")
        _require(entry, ("file", "shape"), f"checkpoint manifest entry for tensor {name!r}")
        fname = fname or entry["file"]
        tensor = embeddings.load_matrix(directory / fname)
        shape = tuple(entry["shape"])
        # save_checkpoint stores every tensor through np.atleast_2d
        if tensor.shape != (1,) * (2 - len(shape)) + shape:
            raise DataError(f"checkpoint file {fname} holds shape {list(tensor.shape)}, "
                            f"which does not fit tensor {name!r} of shape {list(shape)}")
        return tensor.reshape(shape)

    params = TwoTowerParams.build(manifest["mode"], lambda prefix: MlpParams(
        *(read(f"{prefix}.{short}") for short in TENSOR_NAMES)))
    adam = None
    if manifest["adam"] is not None:
        spec = manifest["adam"]
        _require(spec, ("lr", "beta1", "beta2", "eps", "step"),
                 'checkpoint manifest "adam" object')
        adam = AdamState(params.named_tensors(), lr=spec["lr"], beta1=spec["beta1"],
                         beta2=spec["beta2"], eps=spec["eps"])
        adam.step = int(spec["step"])
        for bank, moments in (("m", adam.m), ("v", adam.v)):
            for name in moments:
                moments[name] = read(name, f"adam.{bank}.{name}.tge")
    return params, adam, manifest["meta"]
