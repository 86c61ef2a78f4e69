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

``diffuse`` holds little beyond its output. Layer 0 becomes the
accumulators, each middle layer is added and dropped once the next is
built, and the last layer is added one block of CSR rows at a time
(``BLOCK_BYTES`` of output a block), so it is never held whole. For
L <= 2 the peak is at most the output, one layer pair, the graph and one
row block; for L >= 3, building a middle layer briefly holds two pairs.
Every element sees the same float32 operations, in the same order, as
summing whole layers into copies and dividing into new arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import InteractionMatrix
from .errors import DataError

# float32 output bytes per row block of the last layer: at most
# max(1, BLOCK_BYTES // (4 * dim)) rows are multiplied at a time
BLOCK_BYTES = 1 << 22


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
    sums /= np.maximum(train.user_degrees, 1).astype(np.float32)[:, None]
    return sums


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


def _add_rows(acc: np.ndarray, adjacency: sp.csr_matrix, layer: np.ndarray) -> None:
    """``acc += adjacency @ layer``, one block of CSR rows at a time."""
    rows = max(1, BLOCK_BYTES // (4 * max(layer.shape[1], 1)))
    for lo in range(0, acc.shape[0], rows):
        acc[lo:lo + rows] += adjacency[lo:lo + rows] @ layer


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
    user_acc = init_user_layer0(train, item_emb)
    item_acc = item_emb.copy()
    if n_layers > 0:
        graph = NormalizedGraph(train)
        user_l, item_l = user_acc, item_emb
        for _ in range(n_layers - 1):
            user_l, item_l = propagate(graph, user_l, item_l)
            user_acc += user_l
            item_acc += item_l
        # the last layer's item side first: with L=1, user_l is user_acc
        _add_rows(item_acc, graph.item_to_user, user_l)
        _add_rows(user_acc, graph.user_to_item, item_l)
    scale = np.float32(n_layers + 1)
    for table in (user_acc, item_acc):
        table /= scale
        table.setflags(write=False)
    return DiffusionOutput(user_final=user_acc, item_final=item_acc)
