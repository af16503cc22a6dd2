import tracemalloc
import warnings
import weakref

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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 5, 7, 3), (2, 4, 8)], ids=["315-elements", "64-elements"])
def test_relu_backward_is_g_times_the_positive_mask_bit_for_bit(rng, dtype, shape):
    # the packed mask multiplies by the same 0s and 1s as a bool mask, so
    # negative g at x <= 0 gives -0.0 and signed zeros keep their sign
    x_data = rng.standard_normal(shape).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    x_data.reshape(-1)[:4] = 0.0, -0.0, 0.0, -0.0
    g.reshape(-1)[:6] = 0.0, -0.0, -0.0, 0.0, -0.0, 0.0
    expected = g * (x_data > 0)
    x = Tensor(x_data, requires_grad=True)
    relu(x)._node.backward(g.copy())
    assert x.grad.dtype == dtype
    assert x.grad.tobytes() == expected.tobytes()


def test_a_recorded_relu_keeps_one_bit_per_element(rng):
    x = Tensor(rng.standard_normal((2, 16, 14, 32)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = relu(x)
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept <= x.data.size / 8 + 1024, kept


def test_conv2d_identity_kernel(rng):
    x = Tensor(rng.standard_normal((2, 1, 5, 7)))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    out = conv2d(x, Tensor(k))
    assert np.allclose(out.data, x.data)


def test_conv2d_layer_adds_its_bias_in_the_conv(rng):
    layer = Conv2d(3, 4, np.random.default_rng(0))
    layer.b.data = rng.standard_normal(layer.b.data.shape).astype(np.float32)
    x = Tensor(rng.standard_normal((2, 3, 5, 7)))
    out = layer(x)
    # the bias is a parent of the conv's own node, not of a separate add
    assert out._node.parents == (layer.k._node, layer.b._node)
    assert np.array_equal(out.data, conv2d(x, layer.k).data + layer.b.data)


def test_layers_build_float32_leaves_and_take_no_dtype():
    conv, ln = Conv2d(3, 4, np.random.default_rng(0)), LayerNorm(4)
    zero = Conv2d(3, 4, None, zero_init=True)
    leaves = {"k": conv.k, "b": conv.b, "zero k": zero.k, "gamma": ln.gamma, "beta": ln.beta}
    for name, t in leaves.items():
        assert t.data.dtype == np.float32 and t.requires_grad, name
    assert conv.k.shape == (4, 3, 3, 3) and conv.b.shape == (1, 4, 1, 1)
    assert ln.gamma.shape == ln.beta.shape == (4,)
    drawn = nn.kaiming_uniform(np.random.default_rng(0), (4, 3, 3, 3), 27)
    assert np.array_equal(conv.k.data, drawn)
    assert np.abs(conv.k.data).max() <= np.sqrt(6 / 27) and not zero.k.data.any()
    assert np.array_equal(ln.gamma.data, np.ones(4)) and not ln.beta.data.any()
    for build in (lambda: Conv2d(3, 4, np.random.default_rng(0), dtype=np.float64),
                  lambda: LayerNorm(4, dtype=np.float64),
                  lambda: nn.kaiming_uniform(np.random.default_rng(0), (2,), 1, dtype=np.float64)):
        with pytest.raises(TypeError, match="dtype"):
            build()


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


@pytest.mark.parametrize("H", [1, 2, 5])
@pytest.mark.parametrize("W", [1, 2, 7])
def test_conv2d_matches_naive_reference_at_edge_sizes(rng, H, W):
    x = rng.standard_normal((3, 2, H, W))
    k = rng.standard_normal((5, 2, 3, 3))
    out = conv2d(Tensor(x), Tensor(k))
    assert out.data.flags.c_contiguous
    assert np.max(np.abs(out.data - _conv_naive(x, k))) < 1e-10


@pytest.mark.parametrize("size", [1, 5])
def test_conv2d_accepts_only_3x3_kernels(size):
    with pytest.raises(ShapeError, match="3x3"):
        conv2d(Tensor(np.zeros((1, 2, 6, 6))), Tensor(np.zeros((3, 2, size, size))))


def test_recorded_conv2d_keeps_about_its_output_alive(rng):
    # backward rebuilds the row taps from x, so the node holds no patch buffer
    x = Tensor(rng.standard_normal((2, 16, 14, 32)).astype(np.float32), requires_grad=True)
    layer = Conv2d(16, 16, np.random.default_rng(0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = layer(x)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept <= 1.1 * out.data.nbytes, kept / out.data.nbytes


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
    out = LayerNorm(4)(x)
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
    x, k = Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((4, 2, 3, 3)))
    with pytest.raises(ShapeError, match=r"\(1, 1, 1, 1\).*4 values"):
        conv2d(x, k, Tensor(np.zeros((1, 1, 1, 1))))
    # a 1-element gamma or beta would scale or shift every channel alike
    ones, one = Tensor(np.ones(2)), Tensor(np.ones(1))
    for gamma, beta in ((one, ones), (ones, one), (ones, Tensor(np.ones((1, 2, 1, 1))))):
        with pytest.raises(ShapeError, match=r"\(1, 2, 4, 4\).*gamma and beta"):
            layer_norm(x, gamma, beta)


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


@pytest.mark.parametrize("shape", [(2, 3, 1, 6), (2, 3, 5, 1), (3, 2, 4, 6)])
def test_grad_conv2d_with_bias(rng, shape):
    B, c_in, H, W = shape
    x = t64(rng, shape)
    k = t64(rng, (4, c_in, 3, 3), scale=0.5)
    b = t64(rng, (1, 4, 1, 1))
    t = _binary(rng, (B, 4, H, W))
    check_grad(lambda: bce_with_logits(conv2d(x, k, b), t), x, k, b)


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
    def conv(c_in, c_out):  # float64 leaves at the layers' kaiming scale
        k = t64(rng, (c_out, c_in, 3, 3), (2 / (9 * c_in)) ** 0.5)
        return k, t64(rng, (1, c_out, 1, 1), 0.1)

    def norm():
        return Tensor(1 + 0.1 * rng.standard_normal(3), requires_grad=True), t64(rng, (3,), 0.1)

    stem, c1, c2, out_conv = conv(2, 3), conv(3, 3), conv(3, 3), conv(3, 1)
    ln1, ln2 = norm(), norm()
    x = Tensor(rng.standard_normal((2, 2, 4, 6)), requires_grad=True)
    targets = Tensor((rng.uniform(size=(2, 1, 4, 6)) > 0.5).astype(float))

    def forward():
        h = conv2d(x, *stem)
        for ln_a, conv_a in ((ln1, c1), (ln2, c2)):
            t = relu(conv2d(layer_norm(h, *ln_a), *conv_a))
            h = nn.add(h, t)
        return bce_with_logits(conv2d(h, *out_conv), targets)

    check_grad(forward, *stem, *ln1, *c1, *ln2, *c2, *out_conv, x)


@pytest.mark.parametrize("c_in", [3, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_conv_batch_equals_its_samples_run_one_at_a_time(rng, dtype, c_in):
    B = 4  # a power of two, so a sample's loss is B times its share of the batch's exactly
    x0 = rng.standard_normal((B, c_in, 6, 7)).astype(dtype)
    k0 = (0.5 * rng.standard_normal((4, c_in, 3, 3))).astype(dtype)
    b0 = rng.standard_normal((1, 4, 1, 1)).astype(dtype)
    t = (rng.uniform(size=(B, 4, 6, 7)) > 0.5).astype(dtype)

    def run(s):
        x, k, b = (Tensor(a.copy(), requires_grad=True) for a in (x0[s], k0, b0))
        out = conv2d(x, k, b)
        bce_with_logits(out, Tensor(t[s])).backward()
        return out.data, x.grad, k.grad, b.grad

    out, dx, dk, db = run(slice(None))
    samples = [run(slice(i, i + 1)) for i in range(B)]
    assert np.concatenate([a[0] for a in samples]).tobytes() == out.tobytes()
    assert (np.concatenate([a[1] for a in samples]) / B).tobytes() == dx.tobytes()
    total = samples[0][2] / B
    for a in samples[1:]:
        total += a[2] / B  # in batch order
    assert total.tobytes() == dk.tobytes()
    # the bias gradient sums the batch axis before the spatial ones, so the
    # per-sample sums agree to rounding only
    np.testing.assert_allclose(sum(a[3] for a in samples) / B, db, rtol=1e-5)


def test_conv_backward_keeps_one_sample_of_gradient_taps_at_a_time(rng):
    # one [3, C, H+2, W] tap buffer is refilled for each sample; building the
    # next sample's taps while the last ones were alive doubled the transient
    B, C, H, W = 4, 16, 14, 32
    x = Tensor(rng.standard_normal((B, C, H, W)).astype(np.float32), requires_grad=True)
    out = Conv2d(C, C, np.random.default_rng(0))(x)
    g = rng.standard_normal(out.shape).astype(np.float32)
    taps = 3 * C * (H + 2) * W * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out._node.backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak < 2 * taps, peak / taps


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_conv_reading_a_layer_norm_rebuild_gets_the_plain_kernel_gradient(rng, dtype):
    x = Tensor(rng.standard_normal((3, 4, 5, 6)).astype(dtype), requires_grad=True)
    gamma = Tensor((1 + 0.1 * rng.standard_normal(4)).astype(dtype), requires_grad=True)
    beta = Tensor((0.1 * rng.standard_normal(4)).astype(dtype), requires_grad=True)
    k0 = (0.5 * rng.standard_normal((2, 4, 3, 3))).astype(dtype)
    t = Tensor((rng.uniform(size=(3, 2, 5, 6)) > 0.5).astype(dtype))
    grads = []
    for plain in (False, True):
        k = Tensor(k0.copy(), requires_grad=True)
        h = layer_norm(x, gamma, beta)
        if plain:
            h = Tensor(h.data.copy())
        bce_with_logits(conv2d(h, k), t).backward()
        grads.append(k.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_a_recorded_layer_norm_conv_pair_keeps_one_activation(rng):
    # the LayerNorm keeps xhat; the conv reads its input back through the
    # LayerNorm's rebuild instead of keeping a second copy
    x = Tensor(rng.standard_normal((2, 16, 14, 32)).astype(np.float32), requires_grad=True)
    ln, layer = LayerNorm(16), Conv2d(16, 16, np.random.default_rng(0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = layer(ln(x))
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept <= 1.1 * x.data.nbytes, kept / x.data.nbytes


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


def test_adam_update_does_not_depend_on_the_lr_type(rng):
    # a numpy lr must give the float32 update of the equal Python float
    g = rng.standard_normal(1000).astype(np.float32)
    start = rng.standard_normal(1000).astype(np.float32)
    out = []
    for lr in (1e-3, np.float64(1e-3)):
        p = Tensor(start.copy(), requires_grad=True)
        state = AdamState([p], lr=lr)
        for _ in range(3):
            p.grad = g.copy()
            adam_step([p], state)
        out.append(p.data)
    np.testing.assert_array_equal(out[0], out[1])


def test_adam_state_makes_its_moments_at_the_first_step():
    p = Tensor(np.zeros((64, 64), np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = AdamState([p])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert state.m is None and state.v is None
    assert kept < p.data.nbytes, kept
    p.grad = np.ones_like(p.data)
    adam_step([p], state)
    assert [m.shape for m in state.m] == [v.shape for v in state.v] == [(64, 64)]


def _eager_adam(start, grads, lr):
    """Adam as plain expressions, with zero moments made before the first step."""
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    ps = [s.copy() for s in start]
    m = [np.zeros_like(s) for s in start]
    v = [np.zeros_like(s) for s in start]
    for t, step_grads in enumerate(grads, start=1):
        c1, c2 = 1 - b1**t, 1 - b2**t
        for i, g in enumerate(step_grads):
            m[i] = m[i] * b1 + g * (1 - b1)
            v[i] = v[i] * b2 + g * (1 - b2) * g
            ps[i] = ps[i] - m[i] / c1 * lr / (np.sqrt(v[i] / c2) + nn.ADAM_EPS)
    return ps, m, v


def test_adam_with_moments_made_at_the_first_step_equals_eager_moments(rng):
    start = [rng.standard_normal(s).astype(np.float32) for s in ((3, 4), (5,))]
    grads = [[rng.standard_normal(s.shape).astype(np.float32) for s in start] for _ in range(3)]
    params = [Tensor(s.copy(), requires_grad=True) for s in start]
    state = AdamState(params, lr=1e-3)
    for step_grads in grads:
        for p, g in zip(params, step_grads):
            p.grad = g.copy()
        adam_step(params, state)
    ps, m, v = _eager_adam(start, grads, 1e-3)
    for i, p in enumerate(params):
        assert p.data.tobytes() == ps[i].tobytes()
        assert state.m[i].tobytes() == m[i].tobytes()
        assert state.v[i].tobytes() == v[i].tobytes()


@pytest.mark.parametrize("steps_before", [0, 1], ids=["moments-unmade", "moments-made"])
@pytest.mark.parametrize("case", ["extra-param", "missing-param", "other-shape"])
def test_adam_step_rejects_params_the_state_was_not_built_for(rng, case, steps_before):
    # a zip over mismatched lists would update a prefix and skip the rest
    a, b, c = (Tensor(rng.standard_normal(n).astype(np.float32), requires_grad=True)
               for n in (3, 4, 5))
    for p in (a, b, c):
        p.grad = np.ones_like(p.data)
    built, called = {
        "extra-param": ([a], [a, b]),
        "missing-param": ([a, b], [a]),
        "other-shape": ([a, b], [a, c]),
    }[case]
    state = AdamState(built)
    for _ in range(steps_before):
        adam_step(built, state)

    def snapshot():
        moments = None if state.m is None else [s.tobytes() for s in state.m + state.v]
        return [p.data.tobytes() for p in (a, b, c)], state.step_count, moments

    before = snapshot()
    with pytest.raises(ValueError, match="state holds"):
        adam_step(called, state)
    assert snapshot() == before


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
    h = nn.config_hash("cfg")
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "b": layer.b}, h)
    # the bias is written last, so its second value is the file's last 4 bytes
    path.write_bytes(path.read_bytes()[:-4] + np.array(bad, "<f4").tobytes())
    fresh = Conv2d(5, 2, np.random.default_rng(4))
    before = fresh.k.data.copy()
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path, {"k": fresh.k, "b": fresh.b}, h)
    assert np.array_equal(fresh.k.data, before)


@pytest.mark.parametrize("read_only", ["k", "b"])
def test_a_read_only_target_is_rejected_and_no_weight_changes(tmp_path, read_only):
    layer = Conv2d(5, 2, np.random.default_rng(3))
    layer.b.data += 0.5
    h = nn.config_hash("cfg")
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "b": layer.b}, h)
    fresh = Conv2d(5, 2, np.random.default_rng(4))
    named = {"k": fresh.k, "b": fresh.b}
    named[read_only].data.flags.writeable = False
    before = {name: p.data.copy() for name, p in named.items()}
    with pytest.raises(CheckpointError, match=f"'{read_only}' is read-only"):
        load_checkpoint(path, named, h)
    for name, p in named.items():
        assert np.array_equal(p.data, before[name]), name


def test_float64_leaves_load_the_float32_values(tmp_path):
    layer = Conv2d(5, 2, np.random.default_rng(3))
    layer.b.data += 0.1
    h = nn.config_hash("cfg")
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "b": layer.b}, h)
    fresh = Conv2d(5, 2, np.random.default_rng(4))
    for t in (fresh.k, fresh.b):
        t.data = t.data.astype(np.float64)
    load_checkpoint(path, {"k": fresh.k, "b": fresh.b}, h)
    for loaded, saved in [(fresh.k, layer.k), (fresh.b, layer.b)]:
        assert loaded.data.dtype == np.float64
        assert np.array_equal(loaded.data, saved.data.astype(np.float64))


#: 65536 UTF-8 bytes in 32768 characters: one byte over the format's u16 length
TOO_LONG = "\u00e9" * 32768


@pytest.mark.parametrize(
    "cfg_hash, name, field",
    [(TOO_LONG, "k", "config hash"), ("cfg", TOO_LONG, "name")],
    ids=["config-hash", "tensor-name"],
)
def test_save_checkpoint_rejects_an_overlong_hash_or_name_and_keeps_the_old_file(
    tmp_path, cfg_hash, name, field
):
    layer = Conv2d(5, 2, np.random.default_rng(3))
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "b": layer.b}, "cfg")
    blob = path.read_bytes()
    with pytest.raises(CheckpointError, match=f"{field} .*is 65536 UTF-8 bytes"):
        save_checkpoint(path, {name: layer.k, "b": layer.b}, cfg_hash)
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["weights.ckpt"]


@pytest.mark.parametrize(
    "bad, dtype",
    [(np.nan, np.float32), (np.inf, np.float32), (-np.inf, np.float32), (1e39, np.float64)],
    ids=["nan", "inf", "-inf", "beyond-float32"],
)
def test_save_checkpoint_rejects_a_non_finite_weight_and_keeps_the_old_file(
    tmp_path, bad, dtype
):
    layer = Conv2d(5, 2, np.random.default_rng(3))
    layer.k.data = layer.k.data.astype(dtype)
    h = nn.config_hash("cfg")
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "b": layer.b}, h)
    blob = path.read_bytes()
    layer.k.data[1, 4, 2, 0] = bad
    with pytest.raises(CheckpointError, match="'k' holds a non-finite value"):
        save_checkpoint(path, {"k": layer.k, "b": layer.b}, h)
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["weights.ckpt"]


def test_save_checkpoint_rejects_a_dimension_over_u32_and_keeps_the_old_file(tmp_path):
    # a zero-size array can have a dimension the format's u32 cannot hold
    layer = Conv2d(5, 2, np.random.default_rng(3))
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"k": layer.k, "b": layer.b}, "cfg")
    blob = path.read_bytes()
    huge = Tensor(np.empty((2**32, 0), np.float32))
    with pytest.raises(CheckpointError, match=r"'huge' has shape \(4294967296, 0\)"):
        save_checkpoint(path, {"k": layer.k, "huge": huge}, "cfg")
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["weights.ckpt"]


def test_backward_keeps_leaf_grads_and_drops_the_others(rng):
    x = t64(rng, (2, 3, 4, 5))
    k = t64(rng, (3, 3, 3, 3), scale=0.5)
    h = relu(conv2d(x, k))
    loss = bce_with_logits(h, _binary(rng, (2, 3, 4, 5)))
    loss.backward()
    assert x.grad is not None and k.grad is not None
    assert h.grad is None and loss.grad is None


# ---------------------------------------------------------------------------
# gradient ownership: closures hand arrays over instead of copying them
# ---------------------------------------------------------------------------


def test_add_of_a_tensor_to_itself_gives_twice_the_gradient(rng):
    x = t64(rng, (3, 4))
    t = _binary(rng, (3, 4))
    bce_with_logits(nn.add(x, x), t).backward()
    z = Tensor(x.data + x.data, requires_grad=True)
    bce_with_logits(z, t).backward()
    assert np.array_equal(x.grad, 2 * z.grad)


def test_add_gives_two_leaves_separate_gradients(rng):
    a, b = t64(rng, (3, 4)), t64(rng, (3, 4))
    bce_with_logits(nn.add(a, b), _binary(rng, (3, 4))).backward()
    assert a.grad is not b.grad
    assert not np.shares_memory(a.grad, b.grad)
    assert np.array_equal(a.grad, b.grad)


def test_a_tensor_read_by_two_ops_sums_both_gradients(rng):
    # h feeds relu and layer_norm, whose closures both write their g in place
    x = t64(rng, (2, 3, 4, 5))
    k = t64(rng, (3, 3, 3, 3), scale=0.5)
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(3), requires_grad=True)
    beta = Tensor(0.1 * rng.standard_normal(3), requires_grad=True)
    t = _binary(rng, (2, 3, 4, 5))

    def forward():
        h = conv2d(x, k)
        return bce_with_logits(nn.add(relu(h), layer_norm(h, gamma, beta)), t)

    check_grad(forward, x, k, gamma, beta)


def test_a_later_backward_leaves_earlier_leaf_grads_alone(rng):
    x = t64(rng, (2, 3, 4, 5))
    k, b = t64(rng, (3, 3, 3, 3)), t64(rng, (1, 3, 1, 1))
    gamma, beta = t64(rng, (3,)), t64(rng, (3,))
    leaves = [x, k, b, gamma, beta]

    def loss():
        h = relu(conv2d(layer_norm(x, gamma, beta), k, b))
        return bce_with_logits(nn.add(h, x), _binary(rng, (2, 3, 4, 5)))

    loss().backward()
    first = [p.grad for p in leaves]
    saved = [g.copy() for g in first]
    zero_grads(leaves)
    loss().backward()
    for p, g, kept in zip(leaves, first, saved):
        assert p.grad is not g
        assert np.array_equal(g, kept)


def test_backward_requires_scalar(rng):
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    with pytest.raises(ShapeError):
        relu(x).backward()


def test_backward_without_a_graph_raises(rng):
    with pytest.raises(RuntimeError, match="nothing upstream takes a gradient"):
        bce_with_logits(Tensor(rng.standard_normal(3)), Tensor(np.ones(3))).backward()


def test_backward_consumes_its_graph(rng):
    x = t64(rng, (2, 3, 4, 5))
    loss = bce_with_logits(relu(x), _binary(rng, (2, 3, 4, 5)))
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    assert np.array_equal(x.grad, first)


def test_backward_through_a_node_another_backward_consumed_raises(rng):
    x = t64(rng, (3, 4))
    h = relu(x)
    t = _binary(rng, (3, 4))
    bce_with_logits(h, t).backward()
    with pytest.raises(RuntimeError, match="consumed"):
        bce_with_logits(nn.add(h, x), t).backward()


def test_backward_frees_what_a_closure_read_before_the_next_closure_runs(rng):
    # the relu output reaches the conv's kernel-gradient closure as its
    # array (it has no LayerNorm rebuild), and once the caller drops it,
    # that closure is its only holder
    x, k = t64(rng, (2, 3, 4, 5)), t64(rng, (3, 3, 3, 3))
    h = relu(x)
    loss = bce_with_logits(conv2d(h, k), _binary(rng, (2, 3, 4, 5)))
    held, relu_node = weakref.ref(h.data), h._node
    del h
    assert held() is not None
    relu_bw, seen = relu_node.backward, []

    def spy(g):
        seen.append(held() is None)
        relu_bw(g)

    relu_node.backward = spy
    loss.backward()
    assert seen == [True]
    assert x.grad is not None and k.grad is not None


def test_grad_is_set_only_on_a_tensor_that_takes_one(rng):
    with pytest.raises(AttributeError, match="requires a gradient"):
        Tensor(rng.standard_normal(3)).grad = np.ones(3)


def test_bce_rejects_a_mask_of_another_shape():
    # it used to broadcast: 4 ln 2 for zero logits, where the masked mean is ln 2
    z = Tensor(np.zeros((2, 2, 3, 4)))
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(2, 2, 3, 4\)"):
        bce_with_logits(z, Tensor(np.zeros(z.shape)), mask=np.ones((3, 4)))


@pytest.mark.parametrize("fill", [0.0, -1.0, np.nan])
def test_bce_rejects_a_mask_without_positive_weight(fill):
    with pytest.raises(ValueError, match="no positive weight"):
        bce_with_logits(Tensor(np.zeros((3, 4))), Tensor(np.ones((3, 4))),
                        mask=np.full((3, 4), fill))
