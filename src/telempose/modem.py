"""Uniform quantization of sensor features and QAM mapping / soft demapping.

All functions are pure and operate on immutable inputs; they are safe to
call concurrently. :func:`llr_maxlog` is the one max-log demapper entry;
the classical receivers call it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._checks import check_int

#: Features per sensor frame (17 sensors x 12 features each).
FEATURES_PER_FRAME = 204


class FramingError(ValueError):
    """Bit-stream length does not match the expected framing."""


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform scalar quantizer over [-1, 1] with 2**q levels.

    Both interval endpoints are representable levels, so there are
    2**q levels and 2**q - 1 gaps of width 2 / (2**q - 1).
    """

    q: int

    def __post_init__(self):
        check_int("q", self.q, 1, 16)

    @property
    def n_levels(self) -> int:
        return 1 << self.q

    @property
    def step(self) -> float:
        """Width of one quantization gap."""
        return 2.0 / (self.n_levels - 1)


def _levels(x: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Clamp finite values into [-1, 1] and map them to integer level indices,
    rounding half away from zero: floor(v + 0.5), as v is non-negative."""
    v = np.maximum(x, -1.0)  # clamp into [-1, 1], then scale in place
    np.minimum(v, 1.0, out=v)
    v += 1.0
    v /= 2.0
    v *= cfg.n_levels - 1
    v += 0.5
    return np.floor(v, out=v).astype(np.int64)


def _real_features(x) -> np.ndarray:
    """``x`` as a finite float array; ``ValueError`` for a non-finite value, which has no
    level, and for a complex one, whose cast would drop the imaginary part with a warning."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError("cannot quantize a complex value")
    x = x.astype(float, copy=False)
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize a non-finite value")
    return x


def saturation_count(x, cfg: QuantizerConfig) -> int:
    """Number of inputs outside [-1, 1], which get clamped; rejects what quantize_frame does."""
    x = _real_features(x)
    return int(np.count_nonzero((x < -1.0) | (x > 1.0)))


@lru_cache(maxsize=None)
def _place_values(q: int) -> np.ndarray:
    """Big-endian bit weights [2**(q-1), ..., 2, 1], int64, cached per width, read-only."""
    weights = 1 << np.arange(q - 1, -1, -1, dtype=np.int64)
    weights.flags.writeable = False
    return weights


def _levels_to_bits(levels: np.ndarray, q: int) -> np.ndarray:
    """Big-endian q-bit expansion, shape (..., q)."""
    return ((levels[..., None] & _place_values(q)) != 0).astype(np.uint8)


def _bits_to_levels(bits: np.ndarray, q: int) -> np.ndarray:
    """Big-endian q-bit words (..., q) of 0s and 1s to int64 levels.

    Any other value would code a wrong level, so it raises ``ValueError``.
    A float product runs on BLAS; the int64 one does not. It is exact:
    each level is a sum of at most q powers of two.
    """
    # bool and unsigned values are never negative, so the maximum decides,
    # in about a third of the time of the two comparisons
    if bits.dtype.kind in "bu":
        ok = bits.max(initial=0) <= 1
    else:
        ok = ((bits == 0) | (bits == 1)).all()
    if not ok:
        raise ValueError("bits must be 0 or 1")
    return (bits @ _place_values(q).astype(np.float64)).astype(np.int64)


def quantize_frame(x, cfg: QuantizerConfig) -> np.ndarray:
    """Quantize a 204-feature frame into a flat bit vector of length 204*q.

    Each feature becomes the big-endian q-bit index of its level. Finite
    out-of-range features are clamped, never rejected; use
    :func:`saturation_count` to track how often that happens. NaN,
    infinities and complex values raise ``ValueError``.
    """
    x = _real_features(x)
    if x.shape != (FEATURES_PER_FRAME,):
        raise FramingError(
            f"expected frame of {FEATURES_PER_FRAME} features, got shape {x.shape}"
        )
    return _levels_to_bits(_levels(x, cfg), cfg.q).reshape(-1)


def dequantize_frame(bits, cfg: QuantizerConfig) -> np.ndarray:
    """Invert :func:`quantize_frame` on 0/1 bits; each feature is its coded level."""
    bits = np.asarray(bits)
    if bits.shape != (FEATURES_PER_FRAME * cfg.q,):
        raise FramingError(
            f"expected {FEATURES_PER_FRAME * cfg.q} bits, got shape {bits.shape}"
        )
    levels = _bits_to_levels(bits.reshape(FEATURES_PER_FRAME, cfg.q), cfg.q)
    values = levels / (cfg.n_levels - 1)
    values *= 2.0
    values -= 1.0
    return values


def _gray_decode(codes: np.ndarray) -> np.ndarray:
    out = codes.copy()
    shift = 1
    while (out >> shift).any():
        out = out ^ (out >> shift)
        shift <<= 1
    return out


@dataclass(frozen=True, eq=False)
class Constellation:
    """Gray-labelled constellation with unit average energy.

    The point order is the labelling: ``points[i]`` carries the B-bit
    big-endian label of ``i``. ``order``, ``bit_labels`` and the demapping
    metric's factors are derived from it. Equality and hashing are by identity.
    """

    points: np.ndarray

    def __post_init__(self):
        points = np.array(self.points, dtype=complex)
        n = points.size
        if points.ndim != 1 or n < 2 or n & (n - 1):
            raise ValueError(f"point count {n} is not a power of two >= 2")
        if not abs(np.mean(np.abs(points) ** 2) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("constellation is not normalized to unit energy")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        self._check_gray()

    @property
    def order(self) -> int:
        return self.points.size

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    @cached_property
    def bit_labels(self) -> np.ndarray:
        """[order, B] uint8: row i is the big-endian label of point i."""
        labels = _levels_to_bits(np.arange(self.order), self.bits_per_symbol)
        labels.flags.writeable = False
        return labels

    @cached_property
    def _metric_terms(self):
        """The metric's factors: ``-2 [Re p, Im p]`` [order, 2] and ``|p|^2`` [order, 1]."""
        p = self.points
        return -2.0 * np.stack([p.real, p.imag], axis=1), (p.real**2 + p.imag**2)[:, None]

    def _check_gray(self):
        """Nearest-neighbour points must differ in exactly one label bit."""
        d = np.abs(self.points[:, None] - self.points[None, :])
        np.fill_diagonal(d, np.inf)
        dmin = d.min()
        for i, j in zip(*np.nonzero(d < dmin * (1 + 1e-9))):
            if np.sum(self.bit_labels[i] != self.bit_labels[j]) != 1:
                raise ValueError("labelling violates the Gray property")


def qam(order: int = 4) -> Constellation:
    """Build a Gray-coded square QAM constellation.

    For order 4 the labelling is (b0, b1) -> ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2):
    the first bit selects the in-phase sign, the second the quadrature sign.
    """
    check_int("order", order, 4)
    b = int(round(np.log2(order)))
    if 2**b != order or b % 2 != 0:
        raise ValueError(f"order {order} is not a square QAM order (4, 16, 64, ...)")
    m = b // 2  # bits per axis
    labels_int = np.arange(order)
    axis_bits_i = labels_int >> m
    axis_bits_q = labels_int & ((1 << m) - 1)
    # Gray-decode each axis word, then map rank k to amplitude (2^m-1) - 2k
    # so the all-zeros label lands on the most positive amplitude.
    amp_i = (2**m - 1) - 2 * _gray_decode(axis_bits_i)
    amp_q = (2**m - 1) - 2 * _gray_decode(axis_bits_q)
    raw = amp_i + 1j * amp_q
    points = raw / np.sqrt(np.mean(np.abs(raw) ** 2))
    return Constellation(points)


def map_symbols(bits, constellation: Constellation) -> np.ndarray:
    """Map a vector of 0/1 bits onto constellation symbols, B bits per symbol."""
    bits = np.asarray(bits)
    B = constellation.bits_per_symbol
    if bits.size % B != 0:
        raise FramingError(f"bit count {bits.size} not divisible by {B}")
    return constellation.points[_bits_to_levels(bits.reshape(-1, B), B)]


def _demap_inputs(y_eq, noise_var):
    """Validate, and broadcast ``y_eq`` to the shape of the output LLRs."""
    y_eq = np.asarray(y_eq, dtype=complex)
    noise_var = np.asarray(noise_var, dtype=float)
    if not (np.isfinite(noise_var) & (noise_var > 0)).all():
        raise ValueError("noise_var must be finite and positive")
    if not np.isfinite(y_eq).all():
        raise ValueError("y_eq must be finite")
    # only a noise_var that enlarges y_eq needs a broadcast view; a receiver's never does
    shape = np.broadcast(y_eq, noise_var).shape
    if shape != y_eq.shape:
        y_eq = np.broadcast_to(y_eq, shape)
    return y_eq, noise_var


def _distance_metric(y_eq: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Points-first metric ``|y - p|^2 - |y|^2``, shape [order, *y_eq.shape].

    ``|y|^2`` is the same for every point of an element, so it cancels in
    every LLR; what is left, ``|p|^2 - 2 Re(y conj(p))``, is one real
    [order, 2] @ [2, N] product.
    """
    scaled, norms = constellation._metric_terms
    yf = np.ascontiguousarray(y_eq).reshape(-1).view(np.float64).reshape(-1, 2)
    d = scaled @ yf.T
    d += norms
    return d.reshape(constellation.order, *y_eq.shape)


def _bit_halves(d: np.ndarray, l: int) -> np.ndarray:
    """View of points-first ``d`` as [2**l, 2, -1, N]; axis 1 is bit l.

    Row i of ``d`` belongs to point i, which carries the big-endian label
    i, so bit l of the label selects axis 1 of this view.
    """
    return d.reshape(1 << l, 2, -1, d[0].size)


def llr_exact(y_eq, noise_var, constellation: Constellation) -> np.ndarray:
    """Exact per-bit log-likelihood ratios, positive means bit 0 more likely.

    ``y_eq`` may be a scalar or any-shaped array; ``noise_var`` must be
    finite, positive and broadcastable against it. Output gains a trailing axis of
    length B.
    """
    y_eq, noise_var = _demap_inputs(y_eq, noise_var)
    metric = _distance_metric(y_eq, constellation)
    metric /= -noise_var
    B = constellation.bits_per_symbol
    llrs = np.empty(y_eq.shape + (B,))
    flat = llrs.reshape(-1, B)
    for l in range(B):
        halves = _bit_halves(metric, l)
        n = halves.shape[-1]
        lse0 = np.logaddexp.reduce(halves[:, 0].reshape(-1, n), axis=0)
        lse1 = np.logaddexp.reduce(halves[:, 1].reshape(-1, n), axis=0)
        np.subtract(lse0, lse1, out=flat[:, l])
    return llrs


def llr_maxlog(y_eq, noise_var, constellation: Constellation) -> np.ndarray:
    """Max-log approximation of :func:`llr_exact` (same inputs and sign convention)."""
    y_eq, noise_var = _demap_inputs(y_eq, noise_var)
    d = _distance_metric(y_eq, constellation)
    B = constellation.bits_per_symbol
    llrs = np.empty(y_eq.shape + (B,))
    flat = llrs.reshape(-1, B)
    for l in range(B):
        dmin = _bit_halves(d, l).min(axis=(0, 2))  # [bit value, N]
        np.subtract(dmin[1], dmin[0], out=flat[:, l])
    llrs /= noise_var[..., None]
    return llrs


def hard_decide(llrs) -> np.ndarray:
    """LLR -> bit decision: 0 when the LLR is >= 0 (ties decide 0).

    ±inf are certain decisions; a NaN LLR raises ``ValueError``.
    """
    llrs = np.asarray(llrs)
    if np.isnan(llrs).any():
        raise ValueError("cannot decide a NaN LLR")
    return (llrs < 0).astype(np.uint8)
