import threading
import warnings

import numpy as np
import pytest

from telempose import nn
from telempose.nn import (
    AdamState,
    CheckpointError,
    Conv2d,
    LayerNorm,
    ShapeError,
    Tensor,
    adam_step,
    bce_with_logits,
    conv2d,
    layer_norm,
    load_checkpoint,
    relu,
    save_checkpoint,
    zero_grads,
)


def numeric_grad(loss_fn, x: Tensor, h=1e-5):
    """Central finite differences of a scalar loss wrt one tensor."""
    g = np.zeros_like(x.data)
    flat, gf = x.data.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(loss_fn().data)
        flat[i] = orig - h
        fm = float(loss_fn().data)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_grad(loss_fn, *tensors, h=1e-5):
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    loss.backward()
    for t in tensors:
        num = numeric_grad(loss_fn, t, h=h)
        assert np.allclose(t.grad, num, rtol=1e-4, atol=1e-6), (
            f"gradient mismatch: max abs diff {np.max(np.abs(t.grad - num))}"
        )


def t64(rng, shape, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_relu_values():
    out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    assert out.data.tolist() == [0.0, 0.0, 2.0]


def test_conv2d_identity_kernel(rng):
    x = Tensor(rng.standard_normal((2, 1, 5, 7)))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    out = conv2d(x, Tensor(k))
    assert np.allclose(out.data, x.data)


def test_conv2d_layer_adds_its_bias_in_the_conv(rng):
    layer = Conv2d(3, 4, np.random.default_rng(0), dtype=np.float64)
    layer.b.data = rng.standard_normal(layer.b.data.shape)
    x = Tensor(rng.standard_normal((2, 3, 5, 7)))
    out = layer(x)
    assert out._parents == (x, layer.k, layer.b)
    assert np.array_equal(out.data, conv2d(x, layer.k).data + layer.b.data)


def _conv_naive(x, k):
    B, C, H, W = x.shape
    Co, Ci, kh, kw = k.shape
    out = np.zeros((B, Co, H, W))
    for b in range(B):
        for co in range(Co):
            for i in range(H):
                for j in range(W):
                    acc = 0.0
                    for ci in range(Ci):
                        for di in range(kh):
                            for dj in range(kw):
                                ii, jj = i + di - kh // 2, j + dj - kw // 2
                                if 0 <= ii < H and 0 <= jj < W:
                                    acc += x[b, ci, ii, jj] * k[co, ci, di, dj]
                    out[b, co, i, j] = acc
    return out


def test_conv2d_matches_naive_reference(rng):
    x = rng.standard_normal((2, 3, 5, 7))
    k = rng.standard_normal((4, 3, 3, 3))
    out = conv2d(Tensor(x), Tensor(k))
    assert np.max(np.abs(out.data - _conv_naive(x, k))) < 1e-10


def test_bce_with_logits_at_chance():
    out = bce_with_logits(Tensor(np.zeros((3, 4))), Tensor(np.ones((3, 4))))
    assert float(out.data) == pytest.approx(np.log(2.0), rel=1e-12)


def test_bce_with_logits_stable_at_large_logits():
    out = bce_with_logits(
        Tensor(np.array([1000.0, -1000.0])), Tensor(np.array([1.0, 0.0]))
    )
    assert float(out.data) == 0.0
    out = bce_with_logits(
        Tensor(np.array([-1000.0])), Tensor(np.array([1.0]))
    )
    assert np.isfinite(out.data)
    assert float(out.data) == pytest.approx(1000.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bce_gradient_is_finite_and_silent_at_extreme_logits(dtype):
    z = Tensor(np.array([1e4, 1e4, -1e4, -1e4], dtype=dtype), requires_grad=True)
    t = Tensor(np.array([1.0, 0.0, 1.0, 0.0], dtype=dtype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bce_with_logits(z, t).backward()
    assert z.grad.dtype == dtype
    assert z.grad.tolist() == [0.0, 0.25, -0.25, 0.0]


def test_bce_hand_value_on_toy_grid():
    # mean over 2 elements of -[t ln s(z) + (1-t) ln (1-s(z))]
    z = np.array([0.3, -1.2])
    t = np.array([1.0, 0.0])
    expected = np.mean(
        -(t * np.log(1 / (1 + np.exp(-z))) + (1 - t) * np.log(1 - 1 / (1 + np.exp(-z))))
    )
    out = bce_with_logits(Tensor(z), Tensor(t))
    assert float(out.data) == pytest.approx(expected, abs=1e-10)


def test_layer_norm_standardizes(rng):
    x = Tensor(rng.standard_normal((3, 4, 5, 6)) * 3 + 1.5)
    ln = LayerNorm(4, dtype=np.float64)
    out = ln(x)
    m = out.data.mean(axis=(1, 2, 3))
    v = out.data.var(axis=(1, 2, 3))
    assert np.all(np.abs(m) < 1e-6)
    assert np.all(np.abs(v - 1) < 1e-5)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        nn.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError, match=r"\(4, 3\).*\(3,\)"):
        nn.add(Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))  # no broadcasting
    with pytest.raises(ShapeError):
        bce_with_logits(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 5, 3, 3))))


# ---------------------------------------------------------------------------
# gradients vs central finite differences (float64)
# ---------------------------------------------------------------------------


def _binary(rng, shape):
    return Tensor((rng.uniform(size=shape) > 0.5).astype(float))


def test_grad_add(rng):
    a = t64(rng, (4, 3))
    b = t64(rng, (4, 3))
    t = _binary(rng, (4, 3))
    check_grad(lambda: bce_with_logits(nn.add(a, b), t), a, b)


def test_grad_relu(rng):
    x_data = rng.standard_normal((5, 4))
    x_data += np.sign(x_data) * 0.2  # keep clear of the kink
    x = Tensor(x_data, requires_grad=True)
    t = _binary(rng, (5, 4))
    check_grad(lambda: bce_with_logits(relu(x), t), x)


def test_grad_conv2d(rng):
    x = t64(rng, (2, 3, 5, 7))
    k = t64(rng, (2, 3, 3, 3), scale=0.5)
    t = _binary(rng, (2, 2, 5, 7))
    check_grad(lambda: bce_with_logits(conv2d(x, k), t), x, k)


def test_grad_layer_norm(rng):
    x = t64(rng, (2, 3, 4, 5))
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(3), requires_grad=True)
    beta = Tensor(0.1 * rng.standard_normal(3), requires_grad=True)
    t = _binary(rng, (2, 3, 4, 5))
    check_grad(lambda: bce_with_logits(layer_norm(x, gamma, beta), t), x, gamma, beta)


def test_grad_bce_with_logits(rng):
    z = t64(rng, (4, 6))
    t = Tensor((rng.uniform(size=(4, 6)) > 0.5).astype(float))
    check_grad(lambda: bce_with_logits(z, t), z)


def test_grad_bce_with_mask(rng):
    z = t64(rng, (4, 6))
    t = Tensor((rng.uniform(size=(4, 6)) > 0.5).astype(float))
    mask = (rng.uniform(size=(4, 6)) > 0.4).astype(float)
    check_grad(lambda: bce_with_logits(z, t, mask=mask), z)


def test_grad_two_block_residual_network(rng):
    """Composed network: conv stem, two residual blocks with layer norm."""
    gen = np.random.default_rng(0)
    stem = Conv2d(2, 3, gen, dtype=np.float64)
    ln1 = LayerNorm(3, dtype=np.float64)
    c1 = Conv2d(3, 3, gen, dtype=np.float64)
    ln2 = LayerNorm(3, dtype=np.float64)
    c2 = Conv2d(3, 3, gen, dtype=np.float64)
    out_conv = Conv2d(3, 1, gen, dtype=np.float64)
    x = Tensor(rng.standard_normal((2, 2, 4, 6)), requires_grad=True)
    targets = Tensor((rng.uniform(size=(2, 1, 4, 6)) > 0.5).astype(float))

    def forward():
        h = stem(x)
        for ln_a, conv_a in ((ln1, c1), (ln2, c2)):
            t = relu(conv_a(ln_a(h)))
            h = nn.add(h, t)
        return bce_with_logits(out_conv(h), targets)

    params = [stem.k, stem.b, ln1.gamma, ln1.beta, c1.k, c1.b]
    params += [ln2.gamma, ln2.beta, c2.k, c2.b, out_conv.k, out_conv.b, x]
    check_grad(forward, *params)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_first_step_magnitude():
    # with g = 1 the bias-corrected first update is lr/(1+eps) ~ lr
    p = Tensor(np.array([0.5]), requires_grad=True)
    state = AdamState([p], lr=0.001)
    p.grad = np.array([1.0])
    adam_step([p], state)
    assert p.data[0] == pytest.approx(0.5 - 0.001, abs=1e-9)


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([3.0]), requires_grad=True)
    state = AdamState([p], lr=0.05)
    for _ in range(500):
        p.grad = 2 * (p.data - 1.0)
        adam_step([p], state)
    assert p.data[0] == pytest.approx(1.0, abs=1e-3)


def test_training_determinism():
    def run():
        layer = Conv2d(2, 3, np.random.default_rng(11))
        params = [layer.k, layer.b]
        state = AdamState(params, lr=1e-3)
        data_rng = np.random.default_rng(12)
        for _ in range(20):
            x = Tensor(data_rng.standard_normal((4, 2, 5, 6)).astype(np.float32))
            t = Tensor((data_rng.uniform(size=(4, 3, 5, 6)) > 0.5).astype(np.float32))
            zero_grads(params)
            loss = bce_with_logits(layer(x), t)
            loss.backward()
            adam_step(params, state)
        return [p.data.copy() for p in params]

    a, b = run(), run()
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, rng):
    layer = Conv2d(5, 2, np.random.default_rng(3))
    layer.b.data = rng.standard_normal(layer.b.data.shape).astype(np.float32)
    h = nn.config_hash("conv 5->2")
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "b": layer.b}, h)
    fresh = Conv2d(5, 2, np.random.default_rng(99))
    load_checkpoint(path, {"k": fresh.k, "b": fresh.b}, h)
    assert np.array_equal(fresh.k.data, layer.k.data)
    assert np.array_equal(fresh.b.data, layer.b.data)


def test_checkpoint_rejects_config_mismatch(tmp_path):
    layer = Conv2d(5, 2, np.random.default_rng(3))
    named = {"k": layer.k, "b": layer.b}
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, named, nn.config_hash("config A"))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(path, named, nn.config_hash("config B"))


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    layer = Conv2d(5, 2, np.random.default_rng(3))
    h = nn.config_hash("cfg")
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "b": layer.b}, h)
    other = Conv2d(5, 3, np.random.default_rng(4))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path, {"k": other.k, "b": other.b}, h)


def test_checkpoint_rejects_repeated_tensor(tmp_path):
    layer = Conv2d(5, 2, np.random.default_rng(3))
    h = nn.config_hash("cfg")
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "v": layer.b}, h)
    blob = path.read_bytes()
    assert blob.count(b"\x01\x00v") == 1
    path.write_bytes(blob.replace(b"\x01\x00v", b"\x01\x00k"))
    fresh = Conv2d(5, 2, np.random.default_rng(4))
    before = fresh.k.data.copy()
    with pytest.raises(CheckpointError, match="repeated"):
        load_checkpoint(path, {"k": fresh.k, "v": fresh.b}, h)
    assert np.array_equal(fresh.k.data, before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_a_non_finite_weight(tmp_path, bad):
    layer = Conv2d(5, 2, np.random.default_rng(3))
    layer.b.data[0, 1, 0, 0] = bad
    h = nn.config_hash("cfg")
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "b": layer.b}, h)
    fresh = Conv2d(5, 2, np.random.default_rng(4))
    before = fresh.k.data.copy()
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path, {"k": fresh.k, "b": fresh.b}, h)
    assert np.array_equal(fresh.k.data, before)


def test_backward_keeps_leaf_grads_and_drops_the_others(rng):
    x = t64(rng, (2, 3, 4, 5))
    k = t64(rng, (3, 3, 3, 3), scale=0.5)
    h = relu(conv2d(x, k))
    loss = bce_with_logits(h, _binary(rng, (2, 3, 4, 5)))
    loss.backward()
    assert x.grad is not None and k.grad is not None
    assert h.grad is None and loss.grad is None


def test_no_grad_records_nothing_and_computes_the_same(rng):
    x = t64(rng, (2, 3, 4, 5))
    k = t64(rng, (3, 3, 3, 3), scale=0.5)
    recorded = relu(conv2d(x, k))
    with nn.no_grad():
        out = relu(conv2d(x, k))
        with nn.no_grad():
            pass
        inner = nn.add(out, out)
    assert np.array_equal(out.data, recorded.data)
    for t in (out, inner):
        assert not t.requires_grad and t._parents == () and t._backward is None
    assert recorded.requires_grad and relu(x).requires_grad


def test_no_grad_leaves_other_threads_recording(rng):
    x = t64(rng, (3, 3))
    seen = []
    worker = threading.Thread(target=lambda: seen.append(relu(x).requires_grad))
    with nn.no_grad():
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive() and seen == [True]


def test_backward_requires_scalar(rng):
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    with pytest.raises(ShapeError):
        relu(x).backward()
