"""Training-free diffusion of item-title embeddings over the interaction graph.

User vectors start as the mean of each user's interacted-item embeddings;
both sides are then propagated through L parameter-free, symmetrically
normalized convolution layers over the bipartite graph, and the final
embedding is the arithmetic mean of layers 0..L. With L=0 this degenerates
to ranking directly on the raw text embeddings (nearest-neighbor mode).

There is deliberately no learnable state here: self-loops, nonlinearities
and layer weights are all absent. Arithmetic is float32 with the
summation order fixed by the CSR layout, so repeated runs are
bit-identical on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import InteractionMatrix
from .errors import DataError


class NormalizedGraph:
    """Bipartite adjacency with 1/sqrt(deg_u * deg_i) edge weights, both directions."""

    def __init__(self, train: InteractionMatrix):
        du = train.user_degrees.astype(np.float64)
        di = train.item_degrees.astype(np.float64)
        edge_users = np.repeat(np.arange(train.n_users), train.user_degrees)
        weights = 1.0 / np.sqrt(du[edge_users] * di[train.indices])
        self.n_users = train.n_users
        self.n_items = train.n_items
        self.user_to_item = sp.csr_matrix(
            (weights.astype(np.float32), train.indices.copy(), train.indptr.copy()),
            shape=(train.n_users, train.n_items),
        )
        self.item_to_user = self.user_to_item.T.tocsr()


def init_user_layer0(train: InteractionMatrix, item_emb: np.ndarray) -> np.ndarray:
    """Mean of interacted-item embeddings per user.

    Users with no training interactions get the zero vector.
    """
    item_emb = np.ascontiguousarray(item_emb, dtype=np.float32)
    if item_emb.shape[0] != train.n_items:
        raise DataError(
            f"item embedding rows {item_emb.shape[0]} != n_items {train.n_items}"
        )
    ones = sp.csr_matrix(
        (np.ones(train.n_interactions, dtype=np.float32), train.indices, train.indptr),
        shape=(train.n_users, train.n_items),
    )
    sums = ones @ item_emb
    denom = np.maximum(train.user_degrees, 1).astype(np.float32)
    return sums / denom[:, None]


def propagate(
    graph: NormalizedGraph, user_layer: np.ndarray, item_layer: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One simultaneous convolution step: both outputs read the same layer."""
    if user_layer.shape[0] != graph.n_users or item_layer.shape[0] != graph.n_items:
        raise DataError("layer row counts do not match the graph")
    if user_layer.shape[1] != item_layer.shape[1]:
        raise DataError("user/item embedding dims differ")
    user_next = graph.user_to_item @ item_layer
    item_next = graph.item_to_user @ user_layer
    return user_next, item_next


@dataclass
class DiffusionOutput:
    """Layer-averaged user/item embeddings, read-only (edit a ``.copy()``)."""

    user_final: np.ndarray
    item_final: np.ndarray


def diffuse(
    train: InteractionMatrix,
    item_emb: np.ndarray,
    n_layers: int,
) -> DiffusionOutput:
    """Full pipeline: layer 0 init, L propagation steps, average of layers 0..L.

    n_layers=0 returns layer 0 unchanged (item side bit-identical to the
    input). Deterministic: no randomness anywhere.
    """
    if n_layers < 0:
        raise DataError("n_layers must be >= 0")
    item_emb = np.ascontiguousarray(item_emb, dtype=np.float32)
    user0 = init_user_layer0(train, item_emb)

    graph = NormalizedGraph(train) if n_layers > 0 else None
    user_acc = user0.copy()
    item_acc = item_emb.copy()
    user_l, item_l = user0, item_emb
    for _ in range(n_layers):
        user_l, item_l = propagate(graph, user_l, item_l)
        user_acc += user_l
        item_acc += item_l
    scale = np.float32(n_layers + 1)
    out = DiffusionOutput(user_final=user_acc / scale, item_final=item_acc / scale)
    for table in (out.user_final, out.item_final):
        table.setflags(write=False)
    return out
