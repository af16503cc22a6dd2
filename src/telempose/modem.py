"""Uniform quantization of sensor features and QAM mapping / soft demapping.

All functions are pure and operate on immutable inputs; they are safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Features per sensor frame (17 sensors x 12 features each).
FEATURES_PER_FRAME = 204


class FramingError(ValueError):
    """Bit-stream length does not match the expected framing."""


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform scalar quantizer over [lo, hi] with 2**q levels.

    Both interval endpoints are representable levels, so there are
    2**q levels and 2**q - 1 gaps of width (hi - lo) / (2**q - 1).
    """

    q: int
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if not 1 <= self.q <= 16:
            raise ValueError(f"bit width q={self.q} outside 1..16")
        # an infinite or NaN endpoint, or an overflowing width, leaves no finite step
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ValueError(f"invalid clamp interval [{self.lo}, {self.hi}]")

    @property
    def n_levels(self) -> int:
        return 1 << self.q

    @property
    def step(self) -> float:
        """Width of one quantization gap."""
        return (self.hi - self.lo) / (self.n_levels - 1)


def _levels(x: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Clamp and map values to integer level indices.

    Rounding is half-away-from-zero; since the scaled argument is
    non-negative this is floor(v + 0.5). Non-finite values have no level
    and are rejected.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize a non-finite value")
    xc = np.clip(x, cfg.lo, cfg.hi)
    v = (xc - cfg.lo) / (cfg.hi - cfg.lo) * (cfg.n_levels - 1)
    return np.floor(v + 0.5).astype(np.int64)


def saturation_count(x, cfg: QuantizerConfig) -> int:
    """Number of inputs that fall outside [lo, hi] and get clamped."""
    x = np.asarray(x, dtype=float)
    return int(np.count_nonzero((x < cfg.lo) | (x > cfg.hi)))


def _levels_to_bits(levels: np.ndarray, q: int) -> np.ndarray:
    """Big-endian q-bit expansion, shape (..., q)."""
    shifts = np.arange(q - 1, -1, -1)
    return ((levels[..., None] >> shifts) & 1).astype(np.uint8)


def _bits_to_levels(bits: np.ndarray, q: int) -> np.ndarray:
    weights = 1 << np.arange(q - 1, -1, -1, dtype=np.int64)
    return bits.astype(np.int64) @ weights


def quantize_frame(x, cfg: QuantizerConfig) -> np.ndarray:
    """Quantize a 204-feature frame into a flat bit vector of length 204*q.

    Each feature becomes the big-endian q-bit index of its level. Finite
    out-of-range features are clamped, never rejected; use
    :func:`saturation_count` to track how often that happens. NaN and
    infinities raise ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (FEATURES_PER_FRAME,):
        raise FramingError(
            f"expected frame of {FEATURES_PER_FRAME} features, got shape {x.shape}"
        )
    return _levels_to_bits(_levels(x, cfg), cfg.q).reshape(-1)


def dequantize_frame(bits, cfg: QuantizerConfig) -> np.ndarray:
    """Invert :func:`quantize_frame`; each feature is its coded level."""
    bits = np.asarray(bits)
    if bits.shape != (FEATURES_PER_FRAME * cfg.q,):
        raise FramingError(
            f"expected {FEATURES_PER_FRAME * cfg.q} bits, got shape {bits.shape}"
        )
    levels = _bits_to_levels(bits.reshape(FEATURES_PER_FRAME, cfg.q), cfg.q)
    return cfg.lo + levels / (cfg.n_levels - 1) * (cfg.hi - cfg.lo)


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
    big-endian label of ``i``. ``order``, ``bit_labels`` and the per-bit
    masks are derived from it. Equality and hashing are by identity.
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
    def _bit0_masks(self) -> np.ndarray:
        """[B, order]: per bit position, the points whose bit is 0."""
        return self.bit_labels.T == 0

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
    b = int(round(np.log2(order)))
    if order < 4 or 2**b != order or b % 2 != 0:
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
    """Map a bit vector onto constellation symbols, B bits per symbol."""
    bits = np.asarray(bits)
    B = constellation.bits_per_symbol
    if bits.size % B != 0:
        raise FramingError(f"bit count {bits.size} not divisible by {B}")
    idx = _bits_to_levels(bits.reshape(-1, B), B)
    return constellation.points[idx]


def _sq_distances(y_eq: np.ndarray, constellation: Constellation) -> np.ndarray:
    return np.abs(y_eq[..., None] - constellation.points) ** 2


def llr_exact(y_eq, noise_var, constellation: Constellation) -> np.ndarray:
    """Exact per-bit log-likelihood ratios, positive means bit 0 more likely.

    ``y_eq`` may be a scalar or any-shaped array; ``noise_var`` must be
    finite, positive and broadcastable against it. Output gains a trailing axis of
    length B.
    """
    y_eq = np.asarray(y_eq, dtype=complex)
    noise_var = np.asarray(noise_var, dtype=float)
    if not np.all(np.isfinite(noise_var) & (noise_var > 0)):
        raise ValueError("noise_var must be finite and positive")
    metric = -_sq_distances(y_eq, constellation) / noise_var[..., None]
    llrs = np.empty(y_eq.shape + (constellation.bits_per_symbol,))
    for l, mask0 in enumerate(constellation._bit0_masks):
        llrs[..., l] = np.logaddexp.reduce(
            metric[..., mask0], axis=-1
        ) - np.logaddexp.reduce(metric[..., ~mask0], axis=-1)
    return llrs


def llr_maxlog(y_eq, noise_var, constellation: Constellation) -> np.ndarray:
    """Max-log approximation of :func:`llr_exact` (same sign convention)."""
    y_eq = np.asarray(y_eq, dtype=complex)
    noise_var = np.asarray(noise_var, dtype=float)
    if not np.all(np.isfinite(noise_var) & (noise_var > 0)):
        raise ValueError("noise_var must be finite and positive")
    d2 = _sq_distances(y_eq, constellation)
    llrs = np.empty(y_eq.shape + (constellation.bits_per_symbol,))
    for l, mask0 in enumerate(constellation._bit0_masks):
        llrs[..., l] = d2[..., ~mask0].min(axis=-1) - d2[..., mask0].min(axis=-1)
    return llrs / noise_var[..., None]


def hard_decide(llrs) -> np.ndarray:
    """LLR -> bit decision: 0 when the LLR is >= 0 (ties decide 0)."""
    return (np.asarray(llrs) < 0).astype(np.uint8)
