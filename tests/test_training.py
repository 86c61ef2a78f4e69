import copy

import numpy as np
import pytest

from textgcn.contrast import kcl_loss, localize_batch, sample_batch
from textgcn.corpus import merge_corpora
from textgcn.diffusion import diffuse
from textgcn.errors import DataError
from textgcn.tower import TwoTowerParams
from textgcn.training import (TrainConfig, ablation_variants, apply_zero_shot, project,
                              train)
from textgcn.training import EVAL_K, _run_loop
from textgcn.synthetic import SyntheticConfig, generate_clustered_split
from textgcn.embeddings import mock_embed


def small_cfg(**overrides) -> TrainConfig:
    base = dict(lr=5e-4, d_out=8, n_layers=2, neg_samples=16, pos_quantile=0.5,
                temperature=0.2, batch_users=32, patience=3, max_epochs=6, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset():
    split = generate_clustered_split(SyntheticConfig(
        n_clusters=2, n_users=40, n_items=30, seed=5, min_degree=6, max_degree=10))
    emb = mock_embed(split.catalog, dim=16, seed=5)
    return split, emb


def _params_fingerprint(params: TwoTowerParams) -> bytes:
    return b"".join(t.tobytes() for _, t in sorted(params.named_tensors().items()))


class TestEarlyStopping:
    def _run_with_script(self, tiny_dataset, script):
        split, emb = tiny_dataset
        diff = diffuse(split.train, emb, 1)
        seen = []
        calls = iter(script)

        def eval_fn(params):
            value = next(calls)
            seen.append((_params_fingerprint(params), value))
            return value

        cfg = small_cfg(patience=20, max_epochs=100, n_layers=1)
        params, log = _run_loop(split.train, diff, cfg, eval_fn)
        return params, log, seen

    def test_patience_semantics(self, tiny_dataset):
        script = [0.10, 0.11] + [0.11] * 20 + [0.99] * 50  # 0.99 never reached
        params, log, seen = self._run_with_script(tiny_dataset, script)
        assert len(log.epochs) == 22
        assert log.stop_reason == "patience"
        assert log.best_epoch == 2
        assert log.best_val_recall == 0.11
        # returned weights are the epoch-2 snapshot, not the last epoch's
        assert _params_fingerprint(params) == seen[1][0]

    def test_strict_improvement_required(self, tiny_dataset):
        script = [0.5] + [0.5] * 30
        _, log, _ = self._run_with_script(tiny_dataset, script)
        assert log.best_epoch == 1
        assert len(log.epochs) == 21  # patience + 1

    def test_max_epochs_stop(self, tiny_dataset):
        split, emb = tiny_dataset
        cfg = small_cfg(max_epochs=2, patience=20)
        _, log, _ = train(split, emb, cfg)
        assert log.stop_reason == "max_epochs"
        assert len(log.epochs) == 2


def test_zero_lr_parameters_frozen(tiny_dataset):
    split, emb = tiny_dataset
    cfg = small_cfg(lr=0.0, patience=3, max_epochs=50)
    params, log, diff = train(split, emb, cfg)
    fresh = TwoTowerParams.init(diff.item_final.shape[1], cfg.d_out,
                                mode=cfg.tower_mode, seed=cfg.seed)
    assert _params_fingerprint(params) == _params_fingerprint(fresh)
    recalls = [r.val_recall for r in log.epochs]
    assert len(set(recalls)) == 1            # same recall every epoch
    assert len(log.epochs) == cfg.patience + 1


def test_deterministic_training(tiny_dataset):
    split, emb = tiny_dataset
    cfg = small_cfg(max_epochs=4, patience=10)
    a_params, a_log, _ = train(split, emb, cfg)
    b_params, b_log, _ = train(split, emb, cfg)
    assert a_log.to_jsonl() == b_log.to_jsonl()
    assert _params_fingerprint(a_params) == _params_fingerprint(b_params)


def test_diffusion_is_frozen(tiny_dataset):
    split, emb = tiny_dataset
    before = diffuse(split.train, emb, 2)
    _, _, after = train(split, emb, small_cfg(max_epochs=3, patience=10))
    assert before.user_final.tobytes() == after.user_final.tobytes()
    assert before.item_final.tobytes() == after.item_final.tobytes()


def test_one_and_two_tower_same_first_loss(tiny_dataset):
    split, emb = tiny_dataset
    diff = diffuse(split.train, emb, 1)
    shared = TwoTowerParams.init(16, 8, mode="one", seed=9)
    twin = TwoTowerParams(copy.deepcopy(shared.user_mlp), copy.deepcopy(shared.user_mlp))
    assert twin.mode == "two"

    users = np.flatnonzero(split.train.user_degrees > 0)[:16]
    batch = sample_batch(split.train, users, pos_k=2, neg_j=8, seed=1, epoch=0)
    items, pos_local, neg_local = localize_batch(batch)
    losses = []
    for params in (shared, twin):
        user_out, item_out = project(params, diff.user_final[batch.users],
                                     diff.item_final[items])
        loss, _, _ = kcl_loss(user_out, item_out, pos_local, neg_local, 0.2)
        losses.append(loss)
    assert losses[0] == losses[1]


def test_resolved_pos_k_policies(tiny_dataset):
    split, emb = tiny_dataset
    _, log, _ = train(split, emb, small_cfg(max_epochs=1, pos_k=3))
    assert log.resolved_pos_k == 3
    from textgcn.corpus import interaction_quantile
    _, log2, _ = train(split, emb, small_cfg(max_epochs=1, pos_quantile=0.5))
    assert log2.resolved_pos_k == interaction_quantile(split.train, 0.5)


class TestJoint:
    def test_single_part_equals_plain_train(self, tiny_dataset):
        split, emb = tiny_dataset
        cfg = small_cfg(max_epochs=3, patience=10)
        from textgcn.ranking import evaluate
        diff = diffuse(split.train, emb, cfg.n_layers)

        def eval_fn(params):   # plain in-domain selection on the split's own val recall
            user_out, item_out = project(params, diff.user_final, diff.item_final)
            return evaluate(split, user_out, item_out, k=EVAL_K, part="val",
                            model="textgcn-mlp").recall

        a_params, a_log = _run_loop(split.train, diff, cfg, eval_fn)
        for data in (split, merge_corpora([split])):
            b_params, b_log, _ = train(data, emb, cfg)
            assert a_log.to_jsonl() == b_log.to_jsonl()
            assert _params_fingerprint(a_params) == _params_fingerprint(b_params)

    def test_block_diagonal_diffusion(self):
        a = generate_clustered_split(SyntheticConfig(
            n_clusters=2, n_users=20, n_items=16, seed=1, min_degree=4, max_degree=6,
            id_tag="A"))
        b = generate_clustered_split(SyntheticConfig(
            n_clusters=2, n_users=15, n_items=12, seed=2, min_degree=4, max_degree=6,
            id_tag="B"))
        emb_a = mock_embed(a.catalog, dim=12, seed=0)
        emb_b = mock_embed(b.catalog, dim=12, seed=0)
        corpus = merge_corpora([a, b])
        merged = diffuse(corpus.train, np.vstack([emb_a, emb_b]), 2)
        alone_a = diffuse(a.train, emb_a, 2)
        alone_b = diffuse(b.train, emb_b, 2)
        assert np.array_equal(merged.user_final[:20], alone_a.user_final)
        assert np.array_equal(merged.user_final[20:], alone_b.user_final)
        assert np.array_equal(merged.item_final[:16], alone_a.item_final)
        assert np.array_equal(merged.item_final[16:], alone_b.item_final)

    def test_zero_shot_pipeline(self, tiny_dataset):
        split, emb = tiny_dataset
        params, _, _ = train(split, emb, small_cfg(max_epochs=2, patience=5))
        target = generate_clustered_split(SyntheticConfig(
            n_clusters=2, n_users=25, n_items=20, seed=9, min_degree=5, max_degree=8,
            id_tag="T"))
        target_emb = mock_embed(target.catalog, dim=16, seed=5)
        report = apply_zero_shot(params, target, target_emb, n_layers=2)
        assert report.n_users > 0
        assert 0.0 <= report.recall <= 1.0

    def test_joint_towers_transfer_to_held_out_corpus(self):
        parts = []
        embs = []
        for tag, seed in (("A", 1), ("B", 2)):
            part = generate_clustered_split(SyntheticConfig(
                n_clusters=2, n_users=30, n_items=24, seed=seed, min_degree=5,
                max_degree=8, id_tag=tag))
            parts.append(part)
            embs.append(mock_embed(part.catalog, dim=16, seed=5))
        corpus = merge_corpora(parts)
        params, _, _ = train(corpus, np.vstack(embs),
                             small_cfg(max_epochs=3, patience=5))
        held_out = generate_clustered_split(SyntheticConfig(
            n_clusters=2, n_users=25, n_items=20, seed=9, min_degree=5,
            max_degree=8, id_tag="C"))
        held_out_emb = mock_embed(held_out.catalog, dim=16, seed=5)
        report = apply_zero_shot(params, held_out, held_out_emb, n_layers=2)
        assert report.n_users > 0
        assert report.model == "textgcn-mlp-zero-shot"

    def test_zero_shot_identity_head_is_plain_diffusion(self, tiny_dataset):
        split, emb = tiny_dataset
        from textgcn.ranking import evaluate
        report = apply_zero_shot(None, split, emb, n_layers=2)
        diff = diffuse(split.train, emb, 2)
        direct = evaluate(split, diff.user_final, diff.item_final, k=20, part="test",
                          model="textgcn")
        assert report.recall == direct.recall
        assert report.ndcg == direct.ndcg

    def test_zero_shot_dim_mismatch(self, tiny_dataset):
        split, emb = tiny_dataset
        params = TwoTowerParams.init(8, 4, mode="two", seed=0)  # wrong d_in
        with pytest.raises(DataError, match="checkpoint dimension mismatch"):
            apply_zero_shot(params, split, emb, n_layers=1)


def test_ablation_variants_cover_grid():
    variants = dict(ablation_variants(small_cfg()))
    assert set(variants) == {"one-tower/1-pos", "one-tower/k-pos",
                             "two-tower/1-pos", "two-tower/k-pos"}
    assert variants["one-tower/1-pos"].tower_mode == "one"
    assert variants["one-tower/1-pos"].pos_k == 1
    assert variants["two-tower/k-pos"].pos_k is None
    assert variants["two-tower/k-pos"].tower_mode == "two"


def test_nonfinite_loss_aborts_with_context(tiny_dataset, monkeypatch):
    split, emb = tiny_dataset
    import textgcn.training as training_mod

    def explode(*args, **kwargs):
        raise DataError("non-finite contrastive loss")

    monkeypatch.setattr(training_mod, "kcl_loss", explode)
    with pytest.raises(DataError, match=r"epoch 1 batch 0: non-finite"):
        train(split, emb, small_cfg(max_epochs=2))
