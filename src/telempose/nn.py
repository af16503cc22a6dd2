"""Minimal reverse-mode differentiable tensor core for the neural receiver.

Just the ops its residual CNN uses: 3x3 same-padded convolution with a
folded bias, layer normalization over (C, T, F), ReLU, equal-shape
residual addition, the fused sigmoid-BCE loss, and Adam.

A ``Tensor`` is a numpy array plus, when a gradient flows to it, a graph
node (``_Node``) that holds its ``grad``. An op whose output needs a
gradient gives that output a node with a backward closure and links to
the parent *nodes*, never to the parent tensors, and the closure keeps
only the arrays it reads:

- conv: its kernel and, only when the kernel takes a gradient, its input:
  the input's LayerNorm rebuild if it carries one, else its array;
- LayerNorm: the normalized input xhat, the per-sample 1/std and gamma;
- ReLU: its positive outputs as packed bits, one bit per element;
- add: nothing;
- BCE: the logits, targets, weights and exp(-|z|).

A recorded LayerNorm output carries a rebuild of itself: the same
``xhat * gamma + beta`` ops that forward ran, applied to one sample of
the xhat that its node keeps anyway. A conv fed that output keeps the
rebuild, not the array, and calls it in backward, one sample at a time,
for its kernel gradient. The values are the forward output's bit for bit,
and the LayerNorm → conv pair keeps one activation instead of two.
(Rebuilding by inverting the affine, as In-Place ABN does, would need
gamma ≠ 0; rebuilding from xhat needs nothing.) An output that no
gradient flows through has no node and no rebuild. A LayerNorm output
that the caller still holds keeps its rebuild, and with it xhat, until it
is dropped.

So a recorded graph holds no conv output, LayerNorm output, ReLU output
or residual sum: each is freed as soon as the caller drops its tensor.
Graphs are freed by reference counting alone, since a closure never
refers to its own node.

An op records whenever one of its operands takes a gradient; nothing
switches recording off. Inference does not run the ops at all:
``Conv2d.infer`` and ``LayerNorm.infer`` apply the same layers to plain
arrays, in place, with buffers that the caller makes once and passes to
every layer (``tap_buffer`` and a GEMM scratch). The conv, normalization
and affine formulas are each written once (``_conv_batch``,
``_normalize``, ``_affine``) and both paths call them, so the plain-array
forward equals the recorded one bit for bit.

``Tensor.backward`` consumes its graph as it runs it. It sorts the whole
graph first, so a second ``backward`` through a consumed node raises
``RuntimeError`` before any closure runs. Then, in reverse topological
order, each node drops its closure and parent links just before the
closure runs, so the arrays that closure captured (a conv's input or
rebuild, a LayerNorm's xhat, a ReLU's mask) are freed before the next
closure runs: the graph shrinks as backward goes, and holds only what
the closures still to run read. Gradients are handed over, not copied:
each non-leaf node's ``grad`` is taken off the node before its closure
runs, so the closure owns that array. It may write it in place (ReLU
and LayerNorm do) and hands it, or an array it made itself, to at most
one parent. Every array passed to ``_Node.accumulate`` is the parent's
to keep. Leaf grads (parameters, inputs) stay on their tensors after
``backward``.

The 3x3-only convolution runs, one sample at a time, as three GEMMs over
row taps of that sample (see ``conv2d``), in forward and in backward. One
tap buffer, its zero border written once, is refilled for each sample, so
it is one sample's whatever the batch. Backward builds the row taps of
each sample's output gradient once and reads them for both the input and
the kernel gradient. The kernel gradient adds the samples in batch order.

``AdamState`` makes its moments in the first ``adam_step``, after that
step's ``backward`` has freed its graph, so the first forward and backward
run without them.

``Conv2d``, ``LayerNorm`` and ``kaiming_uniform`` make float32 tensors,
the training precision. The ops keep their operands' precision, so
gradient checks call them on float64 leaves.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from ._checks import check_positive
from ._reader import Reader, replacing


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class CheckpointError(ValueError):
    """Weight file does not match the requesting model."""


class _Node:
    """Gradient slot of one tensor in a recorded graph.

    A leaf's node has no closure and no parents. An op's node holds the
    closure that sends its gradient to the parent nodes, and those nodes.
    ``parents`` is None once ``backward`` has run the node's closure: the
    node is consumed.
    """

    __slots__ = ("grad", "dtype", "backward", "parents")

    def __init__(self, dtype, backward=None, parents=()):
        self.grad = None
        self.dtype = dtype
        self.backward = backward
        self.parents = parents

    def accumulate(self, g):
        """Add ``g`` into ``grad``; the first ``g`` is kept, not copied.

        The caller hands ``g`` over: no one else holds it or writes it again.
        """
        if self.grad is None:
            self.grad = g.astype(self.dtype, copy=False)
        else:
            self.grad += g


class Tensor:
    """A numpy array and, when a gradient flows to it, its graph node."""

    __slots__ = ("data", "_node", "_rebuild")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self._node = _Node(self.data.dtype) if requires_grad else None
        self._rebuild = None  # a recorded LayerNorm output's affine, by sample

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        if self._node is None:
            raise AttributeError("grad is set only on a tensor that requires a gradient")
        self._node.grad = g

    def backward(self):
        """Populate ``grad`` on every upstream leaf tensor that requires it.

        Consumes the graph as it goes: each node drops its closure and
        parent links just before the closure runs, so the arrays the
        closure captured are freed before the next one runs. The whole
        graph is sorted before any closure runs, so a second ``backward``
        through a consumed node raises ``RuntimeError`` and changes no
        gradient.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.shape}")
        if self._node is None:
            raise RuntimeError("backward needs a graph: nothing upstream takes a gradient")
        topo, visited, stack = [], set(), [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node.parents is None:
                raise RuntimeError("graph already consumed by an earlier backward")
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
        self._node.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.backward is not None:
                g, node.grad = node.grad, None
                bw, node.backward, node.parents = node.backward, None, None
                bw(g)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"


def _result(data, parents, backward) -> Tensor:
    """Wrap an op's output, recording ``backward`` only if a gradient flows.

    ``parents`` are the operands' nodes, None where none flows.
    """
    out = Tensor(data)
    nodes = tuple(p for p in parents if p is not None)
    if nodes:
        out._node = _Node(out.data.dtype, backward, nodes)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two equal-shaped tensors (the residual adds)."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}")
    na, nb = a._node, b._node

    def _bw(g):
        # g goes to a; b gets a copy, unless a takes no gradient
        if na is not None:
            na.accumulate(g)
        if nb is not None:
            nb.accumulate(g.copy() if na is not None else g)

    return _result(a.data + b.data, (na, nb), _bw)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)
    nx = x._node
    if nx is None:
        return Tensor(data)
    packed = np.packbits(data > 0)  # a recorded ReLU keeps one bit per element

    def _bw(g):
        g *= np.unpackbits(packed, count=g.size).reshape(g.shape)
        nx.accumulate(g)

    return _result(data, (nx,), _bw)


def tap_buffer(channels: int, h: int, w: int, dtype=np.float32) -> np.ndarray:
    """A [3, channels, h+2, w] tap buffer for [channels, h, w] samples, its zero border written.

    ``_tap_rows`` fills its interior and never writes the border, so one
    buffer serves any number of samples and layers of that size.
    """
    taps = np.empty((3, channels, h + 2, w), dtype=dtype)
    taps[:, :, 0] = 0
    taps[:, :, -1] = 0
    taps[0, :, 1:-1, 0] = 0
    taps[2, :, 1:-1, -1] = 0
    return taps


def _tap_rows(x: np.ndarray, taps: np.ndarray) -> list:
    """Copy one [C,H,W] sample into column taps; return one [3C, H*W] span per kernel row.

    ``taps`` is a ``tap_buffer(C, H, W)``. Tap j holds the input shifted
    so that column w reads column w+j-1, with one zero row above and
    below. Flattened to [3C, (H+2)*W], the span of kernel row i for output
    row h starts at row h+i, so each kernel row reads one contiguous range
    of every tap.
    """
    C, H, W = x.shape
    taps[0, :, 1:-1, 1:] = x[..., :-1]
    taps[1, :, 1:-1] = x
    taps[2, :, 1:-1, :-1] = x[..., 1:]
    flat = taps.reshape(3 * C, (H + 2) * W)
    return [flat[:, i * W : (i + H) * W] for i in range(3)]


def _kernel_rows(k: np.ndarray) -> np.ndarray:
    """[Co, C, 3, 3] kernel as one [Co, 3C] matrix per kernel row, columns by (tap, channel)."""
    return k.transpose(2, 0, 3, 1).reshape(3, k.shape[0], -1)


def _conv_taps(spans: list, rows: np.ndarray, out: np.ndarray, part: np.ndarray):
    """3x3 same convolution of one sample: three [Co, 3C] @ [3C, H*W] GEMMs summed into ``out``.

    ``part`` is scratch of ``out``'s shape.
    """
    np.matmul(rows[0], spans[0], out=out)
    for i in (1, 2):
        out += np.matmul(rows[i], spans[i], out=part)


def _conv_batch(x, rows, bias, out, taps, part):
    """3x3 same convolution of [B, C, H, W] ``x`` into ``out`` [B, Co, H*W], plus ``bias``.

    ``rows`` are ``_kernel_rows`` of the kernel, ``bias`` has Co values or
    is None. ``taps`` is a ``tap_buffer(C, H, W)`` and ``part`` scratch of
    ``out[0]``'s shape. ``out`` may share ``x``'s memory when C == Co: each
    sample is copied into the taps before its output is written.
    """
    for b in range(x.shape[0]):
        _conv_taps(_tap_rows(x[b], taps), rows, out[b], part)
    if bias is not None:
        out += bias.reshape(1, -1, 1)


def conv2d(x: Tensor, k: Tensor, bias: Tensor | None = None) -> Tensor:
    """Stride-1 zero-padded 3x3 convolution preserving the spatial size.

    ``x`` is [batch, c_in, h, w], ``k`` is [c_out, c_in, 3, 3]; any other
    kernel size raises ``ShapeError``. The optional ``bias`` holds one
    value per output channel and is added after the three kernel-row sums.
    Each sample is copied into three column taps (w-1, w, w+1) zero-padded
    by one row, so each kernel row is one GEMM over a contiguous span of
    the taps and the output is batch-major without a transpose. Backward
    builds the taps of each sample's output gradient once: the input
    gradient convolves them with the flipped, in/out-swapped kernel, and
    the kernel gradient multiplies them by the input.
    """
    if (
        x.data.ndim != 4
        or k.data.ndim != 4
        or x.data.shape[1] != k.data.shape[1]
        or k.data.shape[2:] != (3, 3)
    ):
        raise ShapeError(f"cannot convolve input {x.shape} with 3x3 kernel {k.shape}")
    B, c_in, H, W = x.data.shape
    c_out = k.data.shape[0]
    if bias is not None and bias.data.size != c_out:
        raise ShapeError(f"bias {bias.shape} needs {c_out} values, one per output channel")
    nx, nk = x._node, k._node
    nb = None if bias is None else bias._node
    b_shape = None if nb is None else bias.data.shape
    # only the kernel gradient reads the input, a sample at a time: through
    # its LayerNorm rebuild if it has one, so no second copy is kept
    x_at = None if nk is None else x._rebuild or x.data.__getitem__
    kd = k.data
    data = np.empty((B, c_out, H * W), dtype=np.result_type(x.data, kd))
    _conv_batch(x.data, _kernel_rows(kd), None if bias is None else bias.data, data,
                tap_buffer(c_in, H, W, x.data.dtype), np.empty_like(data[0]))
    data = data.reshape(B, c_out, H, W)

    def _bw(g):
        if nb is not None:
            # one axis at a time: the order fixes the float32 rounding of
            # the bias gradient, so changing it changes trained weights
            nb.accumulate(g.sum(axis=0).sum(axis=1).sum(axis=1).reshape(b_shape))
        if nx is not None:
            # full correlation with the flipped, in/out-swapped kernel; the
            # taps are a copy of g, so the result can take g's memory
            rows_f = _kernel_rows(kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            if c_in == c_out:
                dx = g.reshape(B, c_out, H * W)
            else:
                dx = np.empty((B, c_in, H * W), dtype=np.result_type(kd, g))
            part = np.empty_like(dx[0])
        if nk is not None:
            # per kernel row i: [3 c_out, c_in], summed over the samples
            dk = np.zeros((3, 3 * c_out, c_in), dtype=g.dtype)
            prod = np.empty_like(dk[0])
        taps = tap_buffer(c_out, H, W, g.dtype)  # one sample's at a time
        for b in range(B):
            spans = _tap_rows(g[b], taps)
            if nk is not None:
                # dk[co, c, i, j] = sum over b, h, w of g[b, co, h+1-i, w+1-j] x[b, c, h, w]:
                # span 2-i, tap 2-j of g times x transposed, added in batch order
                xt = x_at(b).reshape(c_in, H * W).T
                for i in range(3):
                    dk[i] += np.matmul(spans[2 - i], xt, out=prod)
            if nx is not None:
                _conv_taps(spans, rows_f, dx[b], part)
        if nk is not None:
            dk = dk.reshape(3, 3, c_out, c_in)[:, ::-1].transpose(2, 3, 0, 1)
            nk.accumulate(np.ascontiguousarray(dk))
        if nx is not None:
            nx.accumulate(dx.reshape(B, c_in, H, W))

    return _result(data, (nx, nk, nb), _bw)


def _normalize(x, out=None):
    """Each sample of [B, C, H, W] ``x`` less its mean, over its standard deviation (eps 1e-5).

    The statistics run over (C, H, W) jointly. The result is written into
    ``out``, which may be ``x``, or into a new array. Returns the result
    and the per-sample 1/std, [B, 1, 1, 1].
    """
    B = x.shape[0]
    xhat = np.subtract(x, x.mean(axis=(1, 2, 3), keepdims=True), out=out)
    flat = xhat.reshape(B, 1, -1)
    var = (flat @ flat.transpose(0, 2, 1)).reshape(B, 1, 1, 1) / flat.shape[2]
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    return xhat, inv


def _affine(xhat, gamma, beta, out=None):
    """``xhat * gamma + beta``, [C]-shaped gamma and beta broadcast along axis 1 of
    [B, C, H, W], into ``out`` (which may be ``xhat``) or a new array."""
    out = np.multiply(xhat, gamma.reshape(1, -1, 1, 1), out=out)
    out += beta.reshape(1, -1, 1, 1)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each sample of [batch, c, h, w] over (c, h, w) jointly.

    eps is 1e-5. The affine is per channel: gamma and beta are [c]-shaped
    and broadcast along axis 1. A recorded output carries its rebuild
    (see the module docstring).
    """
    if x.data.ndim != 4 or gamma.shape != x.shape[1:2] or beta.shape != x.shape[1:2]:
        raise ShapeError(
            f"layer norm of {x.shape} needs [c]-shaped gamma and beta, "
            f"got {gamma.shape} and {beta.shape}"
        )
    B, C = x.data.shape[:2]
    nx, ngamma, nbeta = x._node, gamma._node, beta._node
    xhat, inv = _normalize(x.data)  # only the normalized values are kept for backward
    gd, bd = gamma.data, beta.data
    gb = gd.reshape(1, -1, 1, 1)

    def affine(s):
        """xhat * gamma + beta for the samples ``s``: the output, or one sample of it again."""
        return _affine(xhat[s], gd, bd)

    def _bw(g):
        # per-sample, per-channel sums of g and of g * xhat, as batched dots
        gs, xs = g.reshape(B, C, -1), xhat.reshape(B, C, -1)
        s1 = gs.sum(axis=2)
        s2 = np.einsum("bcn,bcn->bc", gs, xs)
        if nbeta is not None:
            nbeta.accumulate(s1.sum(axis=0))
        if ngamma is not None:
            ngamma.accumulate(s2.sum(axis=0))
        if nx is not None:
            # dx = inv (dxhat - mean(dxhat) - xhat mean(dxhat xhat)), dxhat = gamma g
            n = gs[0].size
            m1 = (s1 @ gb.reshape(C) / n).reshape(B, 1, 1, 1)
            m2 = (s2 @ gb.reshape(C) / n).reshape(B, 1, 1, 1)
            g *= gb
            g -= m1
            g -= xhat * m2
            g *= inv
            nx.accumulate(g)

    out = _result(affine(slice(None)), (nx, ngamma, nbeta), _bw)
    if out._node is not None:
        out._rebuild = affine
    return out


def bce_with_logits(logits: Tensor, targets: Tensor, mask=None) -> Tensor:
    """Mean sigmoid binary cross entropy, fused for stability.

    Uses max(z,0) - z*t + log1p(exp(-|z|)) so large logits never reach an
    exp overflow. ``mask`` (same shape, not differentiated, positive sum)
    weights the elements that enter the mean.
    """
    z, t = logits.data, targets.data
    if z.shape != t.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    if mask is None:
        weight = np.ones_like(z) / z.size
    else:
        mask = np.asarray(mask)
        if mask.shape != z.shape:  # a broadcast mask would change the mean's divisor
            raise ShapeError(f"mask {mask.shape} vs logits {logits.shape}")
        total = mask.sum()
        if not total > 0:  # NaN fails too
            raise ValueError(f"mask has no positive weight (sum {total})")
        weight = mask / total
    e = np.exp(-np.abs(z))
    elem = np.maximum(z, 0) - z * t + np.log1p(e)

    nz = logits._node

    def _bw(g):
        sigmoid = np.where(z >= 0, 1, e) / (1 + e)  # exp(-|z|) never overflows
        nz.accumulate(g * (sigmoid - t) * weight)

    return _result(np.array((elem * weight).sum()), (nz,), _bw)


# ---------------------------------------------------------------------------
# parameters, layers, optimizer
# ---------------------------------------------------------------------------


def kaiming_uniform(rng, shape, fan_in) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Conv2d:
    """3x3 same-padding convolution plus per-channel bias."""

    def __init__(self, c_in, c_out, rng, zero_init=False):
        shape = (c_out, c_in, 3, 3)
        k = np.zeros(shape, np.float32) if zero_init else kaiming_uniform(rng, shape, c_in * 9)
        self.k = Tensor(k, requires_grad=True)
        self.b = Tensor(np.zeros((1, c_out, 1, 1), dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.k, self.b)

    def infer(self, x: np.ndarray, out: np.ndarray, taps: np.ndarray, part: np.ndarray):
        """This layer on a plain [B, C, H, W] array, into C-contiguous ``out`` [B, Co, H, W].

        ``out`` may be ``x`` when C == Co. ``taps`` is a ``tap_buffer(C, H, W)``
        and ``part`` scratch of at least [Co, H*W]. Returns ``out``.
        """
        B, _, H, W = x.shape
        c_out = self.k.data.shape[0]
        _conv_batch(x, _kernel_rows(self.k.data), self.b.data, out.reshape(B, c_out, H * W),
                    taps, part[:c_out])
        return out


class LayerNorm:
    def __init__(self, n_channels):
        self.gamma = Tensor(np.ones(n_channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(n_channels, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)

    def infer(self, x: np.ndarray, out: np.ndarray):
        """This layer on a plain [B, C, H, W] array, into ``out``, which may be ``x``."""
        xhat, _ = _normalize(x, out)
        return _affine(xhat, self.gamma.data, self.beta.data, out=xhat)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Step count and moments for ``params``; ``m`` and ``v`` stay None until the first step."""

    def __init__(self, params, lr=1e-3):
        self.lr = check_positive("lr", lr)
        self.step_count = 0
        self.shapes = [p.data.shape for p in params]
        self.m = self.v = None


def adam_step(params, state: AdamState):
    """One bias-corrected Adam update from the grads stored on ``params``.

    Raises ``ValueError`` before any change unless ``state`` was built for their shapes.
    """
    if len(params) != len(state.shapes):
        raise ValueError(f"adam_step got {len(params)} params, state holds {len(state.shapes)}")
    for i, (p, shape) in enumerate(zip(params, state.shapes)):
        if p.data.shape != shape:
            raise ValueError(f"param {i} has shape {p.data.shape}, state holds {shape}")
    if state.m is None:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    state.step_count += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1 - b1**state.step_count
    correction2 = 1 - b2**state.step_count
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        # m += (1-b1) g; v += (1-b2) g g; p -= lr (m/c1) / (sqrt(v/c2) + eps),
        # computed in place in two scratch arrays, operation for operation,
        # so the result equals these expressions bit for bit
        step = np.multiply(g, 1 - b1)
        m *= b1
        m += step
        np.multiply(g, 1 - b2, out=step)
        step *= g
        v *= b2
        v += step
        denom = np.divide(v, correction2)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, correction1, out=step)
        step *= state.lr
        step /= denom
        p.data -= step


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
    """Write the named weights; a failed write keeps the old file.

    A weight that is NaN or infinite in float32, a tensor dimension over
    4294967295, or a config hash or tensor name over 65535 UTF-8 bytes,
    raises ``CheckpointError`` before the file is opened, as
    ``load_checkpoint`` would reject the first.
    """
    with np.errstate(over="ignore"):  # a float64 beyond float32's range becomes inf
        values = {name: p.data.astype("<f4", copy=False) for name, p in named_params.items()}
    for name, v in values.items():
        if not np.isfinite(v).all():
            raise CheckpointError(f"tensor {name!r} holds a non-finite value")
        if max(v.shape, default=0) > 0xFFFFFFFF:  # each dimension is written as a u32
            raise CheckpointError(
                f"tensor {name!r} has shape {v.shape}; a dimension over 4294967295 does not fit"
            )
    hb = cfg_hash.encode()
    names = {name: name.encode() for name in values}
    fields = [("config hash", hb)] + [(f"name {n[:20]!r}", nb) for n, nb in names.items()]
    for field, b in fields:  # each length is written as a u16
        if len(b) > 0xFFFF:
            raise CheckpointError(f"{field} is {len(b)} UTF-8 bytes; at most 65535 fit")
    with replacing(path) as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", _CKPT_VERSION))
        f.write(struct.pack("<H", len(hb)))
        f.write(hb)
        f.write(struct.pack("<I", len(named_params)))
        for name, v in values.items():
            nb = names[name]
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", v.ndim))
            f.write(struct.pack(f"<{v.ndim}I", *v.shape))
            f.write(v.tobytes())


def load_checkpoint(path, named_params: dict, cfg_hash: str):
    """Load weights in place; reject any name/shape/config mismatch and
    any NaN or infinite weight.

    The file's values are copied into each parameter's own array, so every
    array keeps its identity and dtype (a float64 array takes the float32
    values). Every tensor is checked, as a read-only view of the file's
    bytes, and every target array must be writeable before any value is
    copied, so a file that is rejected, or a read-only target, leaves the
    model unchanged.
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
    views = {}
    for i in range(count):
        (nlen,) = struct.unpack("<H", rd.take(2, f"name length of tensor {i}"))
        name = bytes(rd.take(nlen, f"name of tensor {i}")).decode(errors="replace")
        if name not in named_params or name in views:
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
        views[name] = values.reshape(shape)
    rd.done()
    for name in views:
        if not named_params[name].data.flags.writeable:
            raise CheckpointError(f"tensor {name!r} is read-only; nothing was loaded")
    for name, values in views.items():
        np.copyto(named_params[name].data, values)
