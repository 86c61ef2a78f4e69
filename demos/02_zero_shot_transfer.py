"""Zero-shot transfer: train on two corpora, score a third with no overlap.

The three corpora share a title vocabulary (the "language space") but have
disjoint users and items. Joint training merges the first two into one
block-diagonal graph; the held-out corpus is then scored by diffusing its
own interactions and pushing the result through the frozen towers. No ID
ever crosses corpora, only embedding geometry.
"""

import numpy as np

from textgcn.corpus import merge_corpora
from textgcn.embeddings import mock_embed
from textgcn.ranking import baseline_pop, baseline_random
from textgcn.synthetic import SyntheticConfig, generate_clustered_split
from textgcn.training import TrainConfig, apply_zero_shot, train

EMB_DIM = 64
MOCK_SEED = 7


def make_corpus(tag: str, users: int, items: int, seed: int):
    split = generate_clustered_split(SyntheticConfig(
        n_clusters=2, n_users=users, n_items=items, seed=seed,
        vocab_tag="shared", id_tag=tag))
    return split, mock_embed(split.catalog, dim=EMB_DIM, seed=MOCK_SEED)


source_a, emb_a = make_corpus("A", users=200, items=100, seed=29)
source_b, emb_b = make_corpus("B", users=150, items=90, seed=11)
target, target_emb = make_corpus("C", users=150, items=80, seed=21)
print(f"train corpora: {source_a.name}, {source_b.name}")
print(f"held-out target: {target.name}\n")

# -------------------------------------------------------- joint training
corpus = merge_corpora([source_a, source_b])
print(f"merged graph: {corpus.train.n_users} users x {corpus.train.n_items} items "
      f"(block-diagonal, no cross-corpus edges)")
cfg = TrainConfig(lr=5e-4, d_out=32, n_layers=2, neg_samples=64,
                  temperature=0.15, batch_users=64, patience=20,
                  max_epochs=200, seed=2)
params, log, _ = train(corpus, np.vstack([emb_a, emb_b]), cfg)
print(f"joint training: {len(log.epochs)} epochs, best mean val recall "
      f"{log.best_val_recall:.4f}\n")

# ------------------------------------------------------ target scoring
k = 20
rows = [
    ("random", baseline_random(target, k=k, seed=0).recall),
    ("pop", baseline_pop(target, k=k).recall),
    # identity head: plain diffused embeddings, the training-free model
    ("diffused, no head", apply_zero_shot(None, target, target_emb, 2).recall),
    ("frozen towers", apply_zero_shot(params, target, target_emb, 2).recall),
]
print(f"zero-shot recall@{k} on {target.name}:")
for name, recall in rows:
    print(f"  {name:>18}  {recall:.4f}")
print("\nBoth embedding models clear the baselines by a wide margin. These")
print("synthetic corpora share their cluster vocabulary exactly, which is")
print("friendly territory for the trained head; on real data with broader")
print("language drift the training-free variant tends to generalize better.")
