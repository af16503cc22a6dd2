"""Uniform quantization of sensor features and Gray QPSK mapping / soft demapping.

All functions are pure and operate on immutable inputs; they are safe to
call concurrently. :func:`llr_maxlog` is the one demapper; the classical
receivers call it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import check_bits, check_finite, check_int, check_real_array

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
    level, and for a bool, str, bytes, complex or object one, which is no sensor value."""
    x = check_real_array("features", x)
    check_finite("features", x)
    return x


def saturation_count(x, cfg: QuantizerConfig) -> int:
    """Number of inputs outside [-1, 1], which get clamped. Any shape is taken, a frame
    or a stack of them; the values :func:`quantize_frame` rejects raise here too."""
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
    check_bits(bits)
    return (bits @ _place_values(q).astype(np.float64)).astype(np.int64)


def quantize_frame(x, cfg: QuantizerConfig) -> np.ndarray:
    """Quantize a 204-feature frame into a flat bit vector of length 204*q.

    Each feature becomes the big-endian q-bit index of its level. Finite
    out-of-range features are clamped, never rejected; use
    :func:`saturation_count` to track how often that happens. NaN,
    infinities and bool, str, bytes, complex or object values raise ``ValueError``.
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


class Constellation:
    """Gray QPSK at unit energy, the package's one constellation; :func:`qam` returns it.

    ``points[i]`` carries the 2-bit big-endian label of ``i``: the first bit
    selects the in-phase sign, the second the quadrature sign, so
    (b0, b1) -> ((1 - 2 b0) + 1j (1 - 2 b1)) / sqrt(2).
    """

    bits_per_symbol = 2
    points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
    points.flags.writeable = False


_QPSK = Constellation()


def qam(order: int = 4) -> Constellation:
    """The Gray QPSK constellation; ``order`` must be 4."""
    check_int("order", order, 4, 4)
    return _QPSK


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
    noise_var = check_real_array("noise_var", noise_var)
    if not (np.isfinite(noise_var) & (noise_var > 0)).all():
        raise ValueError("noise_var must be finite and positive")
    check_finite("y_eq", y_eq)
    # only a noise_var that enlarges y_eq needs a broadcast view; a receiver's never does
    shape = np.broadcast(y_eq, noise_var).shape
    if shape != y_eq.shape:
        y_eq = np.broadcast_to(y_eq, shape)
    return y_eq, noise_var


def llr_maxlog(y_eq, noise_var, constellation: Constellation) -> np.ndarray:
    """Per-bit log-likelihood ratios of Gray QPSK, positive means bit 0 more likely.

    ``y_eq`` may be a scalar or any-shaped array; ``noise_var`` must be
    finite, positive and broadcastable against it. Output gains a trailing
    axis of length 2: ``2 sqrt(2) (Re y, Im y) / noise_var``. Each bit sets
    the sign of one axis, so the sums over the in-phase and quadrature
    points factor, and this max-log value is also the exact LLR.
    """
    y_eq, noise_var = _demap_inputs(y_eq, noise_var)
    llrs = np.stack((y_eq.real, y_eq.imag), axis=-1)
    llrs *= 2 * np.sqrt(2)
    llrs /= noise_var[..., None]
    return llrs


def hard_decide(llrs) -> np.ndarray:
    """LLR -> bit decision: 0 when the LLR is >= 0 (ties decide 0).

    ±inf are certain decisions; a NaN, complex, bool or str LLR raises ``ValueError``.
    """
    llrs = check_real_array("llrs", llrs)
    if np.isnan(llrs).any():
        raise ValueError("cannot decide a NaN LLR")
    return (llrs < 0).astype(np.uint8)
