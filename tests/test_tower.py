import json

import numpy as np
import pytest

from textgcn.errors import DataError
from textgcn.tower import (LEAKY_SLOPE, TENSOR_NAMES, AdamState, MlpParams, TwoTowerParams,
                           adam_step, init_mlp, load_checkpoint, mlp_backward, mlp_forward,
                           save_checkpoint)


def forward_f64(params, x: np.ndarray) -> np.ndarray:
    """Independent double-precision re-implementation used as the oracle."""
    if isinstance(params, MlpParams):
        params = {k: v.astype(np.float64) for k, v in params.tensors().items()}
    pre = x.astype(np.float64) @ params["w1"].T + params["b1"]
    hidden = np.where(pre >= 0, pre, LEAKY_SLOPE * pre)
    return hidden @ params["w2"].T + params["b2"]


def random_params(rng, d_in=6, d_hidden=3, d_out=2) -> MlpParams:
    return MlpParams(
        rng.standard_normal((d_hidden, d_in)).astype(np.float32),
        rng.standard_normal(d_hidden).astype(np.float32),
        rng.standard_normal((d_out, d_hidden)).astype(np.float32),
        rng.standard_normal(d_out).astype(np.float32),
    )


def test_forward_identity_weights_exposes_slope():
    eye = np.eye(2, dtype=np.float32)
    params = MlpParams(eye, np.zeros(2), eye.copy(), np.zeros(2))
    y, (_, pre, _) = mlp_forward(params, np.array([[-1.0, 2.0]]))
    assert np.allclose(pre, [[-1.0, 2.0]])
    assert np.allclose(y, [[-0.01, 2.0]])


def test_forward_zero_params():
    params = MlpParams(np.zeros((3, 4)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))
    y, _ = mlp_forward(params, np.random.default_rng(0).standard_normal((5, 4)))
    assert not y.any()


def test_forward_matches_f64_oracle(rng):
    for _ in range(20):
        params = random_params(rng)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        y, _ = mlp_forward(params, x)
        assert np.allclose(y, forward_f64(params, x), atol=1e-6)


def test_leaky_positive_scaling():
    z = np.linspace(-3, 3, 13).astype(np.float32)
    leaky = lambda v: np.where(v >= 0, v, LEAKY_SLOPE * v)
    for c in (0.5, 2.0, 7.0):
        assert np.allclose(leaky(np.float32(c) * z), np.float32(c) * leaky(z), atol=1e-6)


def test_backward_zero_upstream(rng):
    params = random_params(rng)
    x = rng.standard_normal((3, 6)).astype(np.float32)
    _, tape = mlp_forward(params, x)
    grads = mlp_backward(params, tape, np.zeros((3, 2), dtype=np.float32))
    # one gradient per tensor, and none for the frozen input
    assert [g.shape for g in grads] == [t.shape for t in params.tensors().values()]
    for g in grads:
        assert not g.any()


def _clear_of_kink(params, x, margin=1e-3):
    _, (_, pre, _) = mlp_forward(params, x)
    return np.all(np.abs(pre) > margin)


def test_gradients_match_central_differences(rng):
    # finite differences cannot probe the LeakyReLU kink, so instances whose
    # pre-activations sit within the step size of zero are resampled
    checked = 0
    while checked < 100:
        params = random_params(rng)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        if not _clear_of_kink(params, x):
            continue
        checked += 1
        probe = rng.standard_normal((4, 2))
        y, tape = mlp_forward(params, x)
        dy = probe.astype(np.float32)
        dw1, db1, dw2, db2 = mlp_backward(params, tape, dy)

        def loss_at(p64: dict, xx: np.ndarray) -> float:
            return float(np.sum(forward_f64(p64, xx) * probe))

        h = 1e-5
        base64 = {k: v.astype(np.float64) for k, v in params.tensors().items()}
        for name, grad in (("w1", dw1), ("b1", db1), ("w2", dw2), ("b2", db2)):
            for idx in np.ndindex(base64[name].shape):
                plus = {k: v.copy() for k, v in base64.items()}
                plus[name][idx] += h
                minus = {k: v.copy() for k, v in base64.items()}
                minus[name][idx] -= h
                numeric = (loss_at(plus, x) - loss_at(minus, x)) / (2 * h)
                denom = max(abs(numeric), abs(float(grad[idx])), 1e-4)
                assert abs(numeric - grad[idx]) / denom <= 1e-3


def _head_grads(params, rng):
    """``params.backward`` and the per-side ``mlp_backward`` results it is built from."""
    xu = rng.standard_normal((3, 6)).astype(np.float32)
    xi = rng.standard_normal((5, 6)).astype(np.float32)
    dyu = rng.standard_normal((3, 2)).astype(np.float32)
    dyi = rng.standard_normal((5, 2)).astype(np.float32)
    _, _, tapes = params.forward(xu, xi)
    gu = mlp_backward(params.user_mlp, mlp_forward(params.user_mlp, xu)[1], dyu)
    gi = mlp_backward(params.item_mlp, mlp_forward(params.item_mlp, xi)[1], dyi)
    return params.backward(tapes, dyu, dyi), gu, gi


def test_one_tower_gradients_accumulate(rng):
    # shared-tower gradient is the user-side plus the item-side gradient
    params = TwoTowerParams.init(6, 2, mode="one", seed=4)
    grads, gu, gi = _head_grads(params, rng)
    assert list(grads) == list(params.named_tensors())
    for name, u, i in zip(TENSOR_NAMES, gu, gi):
        assert grads[f"shared.{name}"].tobytes() == (u + i).tobytes()


def test_two_tower_gradients_keyed_per_side(rng):
    params = TwoTowerParams.init(6, 2, mode="two", seed=4)
    grads, gu, gi = _head_grads(params, rng)
    assert list(grads) == list(params.named_tensors())
    for name, u, i in zip(TENSOR_NAMES, gu, gi):
        assert grads[f"user.{name}"].tobytes() == u.tobytes()
        assert grads[f"item.{name}"].tobytes() == i.tobytes()


class TestAdam:
    def test_zero_gradient_noop(self):
        tensors = {"w": np.array([1.5, -2.0], dtype=np.float32)}
        state = AdamState(tensors, lr=0.1)
        adam_step(tensors, {"w": np.zeros(2, dtype=np.float32)}, state)
        assert tensors["w"].tolist() == [1.5, -2.0]
        assert state.step == 1

    def test_scalar_hand_trace(self):
        # m=0.1, v=0.001 after one step; bias correction gives m_hat=v_hat=1,
        # so the update is -lr / (1 + eps) ~ -0.1
        tensors = {"w": np.zeros(1, dtype=np.float32)}
        state = AdamState(tensors, lr=0.1)
        adam_step(tensors, {"w": np.ones(1, dtype=np.float32)}, state)
        assert abs(tensors["w"][0] + 0.1) < 1e-6

    def test_deterministic_ten_steps(self, rng):
        runs = []
        grads = [rng.standard_normal((3, 4)).astype(np.float32) for _ in range(10)]
        for _ in range(2):
            tensors = {"w": np.ones((3, 4), dtype=np.float32)}
            state = AdamState(tensors, lr=1e-3)
            for g in grads:
                adam_step(tensors, {"w": g}, state)
            runs.append(tensors["w"].tobytes())
        assert runs[0] == runs[1]

    def test_nonfinite_gradient_names_tensor(self):
        tensors = {"user.w1": np.zeros(2, dtype=np.float32)}
        state = AdamState(tensors, lr=0.1)
        bad = {"user.w1": np.array([1.0, np.nan], dtype=np.float32)}
        with pytest.raises(DataError, match="user.w1"):
            adam_step(tensors, bad, state)


class TestCheckpoint:
    def test_roundtrip_two_tower(self, tmp_path, rng):
        params = TwoTowerParams.init(6, 2, mode="two", seed=3)
        adam = AdamState(params.named_tensors(), lr=5e-4)
        adam.step = 17
        adam.m["user.w1"] += 0.25
        save_checkpoint(params, adam, {"note": "probe"}, tmp_path / "ck")
        loaded, adam2, meta = load_checkpoint(tmp_path / "ck")
        assert meta == {"note": "probe"}
        assert adam2.step == 17
        assert np.array_equal(adam2.m["user.w1"], adam.m["user.w1"])
        x = rng.standard_normal((4, 6)).astype(np.float32)
        y1, _ = mlp_forward(params.user_mlp, x)
        y2, _ = mlp_forward(loaded.user_mlp, x)
        assert y1.tobytes() == y2.tobytes()

    def test_wrong_d_in_errors(self, tmp_path):
        params = TwoTowerParams.init(6, 2, mode="two", seed=0)
        save_checkpoint(params, None, {}, tmp_path / "ck")
        with pytest.raises(DataError, match="checkpoint dimension mismatch"):
            load_checkpoint(tmp_path / "ck", expected_d_in=8)

    def test_one_tower_aliasing_survives_load(self, tmp_path):
        params = TwoTowerParams.init(6, 2, mode="one", seed=0)
        assert params.mode == "one"
        adam = AdamState(params.named_tensors(), lr=5e-4)
        adam.v["shared.b2"] += 0.5
        save_checkpoint(params, adam, {}, tmp_path / "ck")
        loaded, adam2, _ = load_checkpoint(tmp_path / "ck")
        assert list(adam2.v) == list(loaded.named_tensors()) == list(params.named_tensors())
        assert np.array_equal(adam2.v["shared.b2"], adam.v["shared.b2"])
        assert loaded.user_mlp is loaded.item_mlp
        loaded.user_mlp.w1[0, 0] = 123.0
        assert loaded.item_mlp.w1[0, 0] == 123.0
        copied = loaded.copy()
        assert copied.mode == "one" and copied.user_mlp is not loaded.user_mlp
        assert copied.user_mlp.w1.tobytes() == loaded.user_mlp.w1.tobytes()

    def test_unknown_mode_errors(self, tmp_path):
        save_checkpoint(TwoTowerParams.init(6, 2, mode="two", seed=0), None, {}, tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"two"', '"three"'))
        with pytest.raises(DataError, match="unknown tower mode 'three'"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("edit, match", [
        (lambda m: m["tensors"].pop("user.w2"), "no entry for tensor 'user.w2'"),
        (lambda m: m.pop("tensors"), "no 'tensors' entry"),
        (lambda m: m.pop("d_in"), "no 'd_in' entry"),
        (lambda m: m.pop("mode"), "no 'mode' entry"),
        (lambda m: m.pop("adam"), "no 'adam' entry"),
        (lambda m: m.pop("meta"), "no 'meta' entry"),
        (lambda m: m["tensors"]["item.w1"].update(shape=[6, 3]), "tensor 'item.w1' of shape"),
        (lambda m: m["tensors"]["user.b1"].update(shape=[4]), "tensor 'user.b1' of shape"),
        (lambda m: m["tensors"]["item.b2"].pop("file"), "tensor 'item.b2' has no 'file'"),
        (lambda m: m["tensors"]["user.w1"].pop("shape"), "tensor 'user.w1' has no 'shape'"),
        (lambda m: m.pop("format_version"), "no 'format_version' entry"),
    ], ids=["tensor-entry", "tensors", "d_in", "mode", "adam", "meta", "transposed",
            "bias-length", "tensor-file", "tensor-shape", "format-version"])
    def test_malformed_manifest_errors(self, tmp_path, edit, match):
        save_checkpoint(TwoTowerParams.init(6, 2, mode="two", seed=0), None, {}, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=match):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("key", ["lr", "beta1", "beta2", "eps", "step"])
    def test_adam_entry_without_a_field_errors(self, tmp_path, key):
        params = TwoTowerParams.init(6, 2, mode="two", seed=0)
        save_checkpoint(params, AdamState(params.named_tensors(), lr=1e-3), {}, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["adam"][key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=f'"adam" object has no {key!r} entry'):
            load_checkpoint(tmp_path)

    def test_torn_manifest_errors(self, tmp_path):
        save_checkpoint(TwoTowerParams.init(6, 2, mode="two", seed=0), None, {}, tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(path.read_text()[:200])
        with pytest.raises(DataError, match="manifest.json: not valid JSON"):
            load_checkpoint(tmp_path)


def test_init_shapes_and_hidden_default():
    params = init_mlp(10, 3)
    assert params.d_in == 10
    assert params.d_hidden == 5
    assert params.d_out == 3
    two = TwoTowerParams.init(10, 3, mode="two", seed=1)
    assert not np.array_equal(two.user_mlp.w1, two.item_mlp.w1)
