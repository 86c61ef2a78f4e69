"""Collaborative filtering from diffused text embeddings.

Item titles are embedded by a language model, diffused over the bipartite
user-item interaction graph with parameter-free convolution layers, and
ranked by cosine similarity; an optional two-tower MLP head trained with a
k-positive contrastive loss specializes the embeddings in-domain.
"""

__version__ = "0.1.0"

from .contrast import ContrastBatch, kcl_loss, localize_batch, sample_batch
from .corpus import (DatasetSplit, IdMaps, InteractionMatrix, ItemCatalog, MergedCorpus,
                     interaction_quantile, load_split, merge_corpora, save_split, split_random)
from .diffusion import DiffusionOutput, NormalizedGraph, diffuse, init_user_layer0, propagate
from .embeddings import (VectorCache, fetch_embeddings, load_matrix, mock_embed,
                         save_matrix)
from .errors import DataError
from .ranking import (MetricsReport, Ranking, baseline_pop, baseline_random, evaluate,
                      hr_at_k, ndcg_at_k, recall_at_k, recommend_topk)
from .search import TrialRecord, TrialStore, greedy_stage, grid_stage
from .synthetic import SyntheticConfig, generate_clustered_split
from .tower import (AdamState, MlpParams, TwoTowerParams, adam_step, load_checkpoint,
                    mlp_backward, mlp_forward, save_checkpoint)
from .training import TrainConfig, TrainLog, apply_zero_shot, train
