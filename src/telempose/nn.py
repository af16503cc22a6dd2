"""Minimal reverse-mode differentiable tensor core for the neural receiver.

Just the ops its residual CNN uses: 3x3 same-padded convolution with a
folded bias, layer normalization over (C, T, F), ReLU, equal-shape
residual addition, the fused sigmoid-BCE loss, and Adam. Tensors wrap
numpy arrays; an op whose output needs a gradient records its parents
and a closure that accumulates gradients into them, and
``Tensor.backward`` replays the closures in reverse topological order.

Graphs are freed by reference counting alone. A closure receives its
output's gradient as an argument (``node._backward(node.grad)``) and
never refers to its own output Tensor, so no graph is a reference cycle
and it dies with its last user. ``backward`` drops each non-leaf node's
``grad`` as soon as that node's closure has run; leaf grads (parameters,
inputs) stay. Inside ``with no_grad():`` ops in that thread record
nothing, so each intermediate array is freed once the next op has read
it.

float32 is the training precision; gradient checks build the same graphs
in float64.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import struct
import threading

import numpy as np

from ._reader import Reader


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class CheckpointError(ValueError):
    """Weight file does not match the requesting model."""


class _Recording(threading.local):
    on = True  # per thread, so one thread's no_grad leaves another's training alone


_recording = _Recording()


@contextlib.contextmanager
def no_grad():
    """Run ops in this thread without recording a graph."""
    previous, _recording.on = _recording.on, False
    try:
        yield
    finally:
        _recording.on = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or (
            _recording.on and any(p.requires_grad for p in parents)
        )
        self._backward = None
        self._parents = parents if self.requires_grad else ()

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        if self.grad is None:
            # copy: closures may hand us views of arrays they still own
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self):
        """Populate ``grad`` on every upstream leaf tensor that requires it.

        Each non-leaf node's ``grad`` is dropped once its closure has run.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError("backward needs a recorded graph; none was built under no_grad")
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"


def _result(data, parents, backward) -> Tensor:
    """Wrap an op's output, recording ``backward`` only if a gradient flows."""
    out = Tensor(data, parents=parents)
    if out.requires_grad:
        out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two equal-shaped tensors (the residual adds)."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _result(a.data + b.data, (a, b), _bw)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * (data > 0))

    return _result(data, (x,), _bw)


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """[B,C,H,W] -> [C*kh*kw, B*H*W] patch matrix with zero same-padding."""
    B, C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    s = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(C, kh, kw, B, H, W),
        strides=(s[1], s[2], s[3], s[0], s[2], s[3]),
    )
    return win.reshape(C * kh * kw, B * H * W)


def _conv_raw(x: np.ndarray, k: np.ndarray, bias=None):
    c_out, c_in, kh, kw = k.shape
    B, C, H, W = x.shape
    cols = _im2col(np.ascontiguousarray(x), kh, kw)
    flat = k.reshape(c_out, -1) @ cols
    if bias is not None:
        flat += bias.reshape(c_out, 1)
    out = flat.reshape(c_out, B, H, W)
    # materialize batch-major so downstream ops see a contiguous array
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3)), cols


def conv2d(x: Tensor, k: Tensor, bias: Tensor | None = None) -> Tensor:
    """Stride-1 zero-padded convolution preserving the spatial size.

    ``x`` is [batch, c_in, h, w], ``k`` is [c_out, c_in, kh, kw] with odd
    kernel dims; the optional per-output-channel ``bias`` is folded into
    the same pass. The patch matrix from the forward pass is kept on the
    node for gradient reuse.
    """
    if x.data.ndim != 4 or k.data.ndim != 4 or x.data.shape[1] != k.data.shape[1]:
        raise ShapeError(f"cannot convolve input {x.shape} with kernel {k.shape}")
    parents = (x, k) if bias is None else (x, k, bias)
    data, cols = _conv_raw(x.data, k.data, None if bias is None else bias.data)

    def _bw(g):
        B, c_out, H, W = g.shape
        if bias is not None and bias.requires_grad:
            # one axis at a time: the order fixes the float32 rounding of
            # the bias gradient, so changing it changes trained weights
            gb = g.sum(axis=0).sum(axis=1).sum(axis=1)
            bias._accumulate(gb.reshape(bias.data.shape))
        if k.requires_grad:
            gm = g.transpose(1, 0, 2, 3).reshape(c_out, -1)
            k._accumulate((gm @ cols.T).reshape(k.data.shape))
        if x.requires_grad:
            # full correlation with the flipped, in/out-swapped kernel
            kf = np.ascontiguousarray(
                k.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            )
            x._accumulate(_conv_raw(g, kf)[0])

    return _result(data, parents, _bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each sample of [batch, c, h, w] over (c, h, w) jointly.

    eps is 1e-5. The affine is per channel: gamma and beta are [c]-shaped
    and broadcast along axis 1.
    """
    axes = (1, 2, 3)
    mu = x.data.mean(axis=axes, keepdims=True)
    xhat = x.data - mu
    var = np.mean(xhat * xhat, axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv  # in place: only the normalized values are kept for backward
    gb = gamma.data.reshape(1, -1, 1, 1)
    data = xhat * gb
    data += beta.data.reshape(1, -1, 1, 1)

    def _bw(g):
        reduce_axes = (0, 2, 3)  # all but the channel axis
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=reduce_axes))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=reduce_axes))
        if x.requires_grad:
            dxhat = g * gb
            m1 = dxhat.mean(axis=axes, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
            dxhat -= m1
            dxhat -= xhat * m2
            dxhat *= inv
            x._accumulate(dxhat)

    return _result(data, (x, gamma, beta), _bw)


def bce_with_logits(logits: Tensor, targets: Tensor, mask=None) -> Tensor:
    """Mean sigmoid binary cross entropy, fused for stability.

    Uses max(z,0) - z*t + log1p(exp(-|z|)) so large logits never reach an
    exp overflow. ``mask`` (same shape, not differentiated) selects which
    elements enter the mean.
    """
    z, t = logits.data, targets.data
    if z.shape != t.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    e = np.exp(-np.abs(z))
    elem = np.maximum(z, 0) - z * t + np.log1p(e)
    if mask is None:
        weight = np.ones_like(z) / z.size
    else:
        mask = np.asarray(mask)
        weight = mask / mask.sum()

    def _bw(g):
        if logits.requires_grad:
            sigmoid = np.where(z >= 0, 1, e) / (1 + e)  # exp(-|z|) never overflows
            logits._accumulate(g * (sigmoid - t) * weight)

    return _result(np.array((elem * weight).sum()), (logits,), _bw)


# ---------------------------------------------------------------------------
# parameters, layers, optimizer
# ---------------------------------------------------------------------------


def kaiming_uniform(rng, shape, fan_in, dtype=np.float32) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv2d:
    """3x3 same-padding convolution plus per-channel bias."""

    def __init__(self, c_in, c_out, rng, dtype=np.float32, zero_init=False):
        shape = (c_out, c_in, 3, 3)
        if zero_init:
            k = np.zeros(shape, dtype=dtype)
        else:
            k = kaiming_uniform(rng, shape, c_in * 9, dtype)
        self.k = Tensor(k, requires_grad=True)
        self.b = Tensor(np.zeros((1, c_out, 1, 1), dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.k, self.b)


class LayerNorm:
    def __init__(self, n_channels, dtype=np.float32):
        self.gamma = Tensor(np.ones(n_channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(n_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params, state: AdamState):
    """One bias-corrected Adam update from the grads stored on ``params``."""
    state.step_count += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1 - b1**state.step_count
    correction2 = 1 - b2**state.step_count
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / correction1
        vhat = v / correction2
        p.data -= (state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.data.dtype)


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# checkpoints
#
# Little-endian layout: magic "TPWT", u32 version, u16 config-hash length +
# hash bytes, u32 tensor count; per tensor u16 name length + name, u8 ndim,
# u32 dims, float32 data.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"TPWT"
_CKPT_VERSION = 1


def config_hash(description: str) -> str:
    return hashlib.sha256(description.encode()).hexdigest()


def save_checkpoint(path, named_params: dict, cfg_hash: str):
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", _CKPT_VERSION))
        hb = cfg_hash.encode()
        f.write(struct.pack("<H", len(hb)))
        f.write(hb)
        f.write(struct.pack("<I", len(named_params)))
        for name, p in named_params.items():
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", p.data.ndim))
            f.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            f.write(p.data.astype("<f4").tobytes())


def load_checkpoint(path, named_params: dict, cfg_hash: str):
    """Load weights in place; reject any name/shape/config mismatch and
    any NaN or infinite weight.

    Every tensor is read and checked before any is assigned, so a file
    that is rejected leaves the model unchanged.
    """
    with open(path, "rb") as f:
        rd = Reader(f.read(), CheckpointError, "checkpoint")
    magic = rd.take(4, "magic")
    if magic != _CKPT_MAGIC:
        raise CheckpointError(f"not a checkpoint: bad magic {bytes(magic)!r}")
    (version,) = struct.unpack("<I", rd.take(4, "version"))
    if version != _CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<H", rd.take(2, "config-hash length"))
    stored_hash = bytes(rd.take(hlen, "config hash")).decode(errors="replace")
    if stored_hash != cfg_hash:
        raise CheckpointError(
            f"config hash mismatch: checkpoint {stored_hash[:12]}.., "
            f"model {cfg_hash[:12]}.."
        )
    (count,) = struct.unpack("<I", rd.take(4, "tensor count"))
    if count != len(named_params):
        raise CheckpointError(
            f"checkpoint has {count} tensors, model expects {len(named_params)}"
        )
    staged = {}
    for i in range(count):
        (nlen,) = struct.unpack("<H", rd.take(2, f"name length of tensor {i}"))
        name = bytes(rd.take(nlen, f"name of tensor {i}")).decode(errors="replace")
        if name not in named_params or name in staged:
            raise CheckpointError(f"unexpected or repeated tensor {name!r} in checkpoint")
        (ndim,) = struct.unpack("<B", rd.take(1, f"rank of {name!r}"))
        shape = struct.unpack(f"<{ndim}I", rd.take(4 * ndim, f"shape of {name!r}"))
        p = named_params[name]
        if shape != p.data.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {shape}, model expects {p.data.shape}"
            )
        values = np.frombuffer(rd.take(4 * math.prod(shape), f"data of {name!r}"), "<f4")
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"tensor {name!r} holds a non-finite value")
        staged[name] = values.reshape(shape).astype(p.data.dtype)
    rd.done()
    for name, values in staged.items():
        named_params[name].data = values
