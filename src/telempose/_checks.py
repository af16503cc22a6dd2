"""The integer, real-number, finiteness and bit rules of every setting, argument and payload.

It imports nothing from the package, so ``modem`` can use it as well as
``grid``: a rule kept in ``grid``, which imports ``modem``, would need an
import cycle to reach it.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def check_int(name: str, value, lo: int, hi: int | None = None):
    """Raise ``ValueError``, naming ``name``, unless ``value`` is an integer in lo..hi."""
    # bool is an Integral, but True as a size, an index or a seed is a mistake
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {bounds}, got {value}")


def check_bits(bits: np.ndarray):
    """Raise ``ValueError`` unless ``bits`` is bool, integer or real and every entry is 0 or 1."""
    # bool and unsigned values are never negative, so the maximum decides,
    # in about a third of the time of the two comparisons
    if bits.dtype.kind in "bu":
        ok = bits.max(initial=0) <= 1
    else:
        # a complex 1+0j equals 1, yet casting it to a bit drops a part
        ok = bits.dtype.kind in "if" and ((bits == 0) | (bits == 1)).all()
    if not ok:
        raise ValueError("bits must be 0 or 1")


def check_real(name: str, value) -> float:
    """``value`` as a float; ``ValueError``, naming ``name``, unless a finite real number."""
    # bool is a Real, but True as a rate, a level or a frequency is a mistake
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def check_positive(name: str, value) -> float:
    """:func:`check_real` of a value that must also be above zero."""
    if (value := check_real(name, value)) <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, scalar or not; ``ValueError``, naming ``name``,
    for bool, str, bytes, complex or object entries. Finiteness is :func:`check_finite`'s rule."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got {array.dtype} {value!r:.40}")
    return array.astype(float, copy=False)


def check_finite(name: str, array: np.ndarray):
    """Raise ``ValueError``, naming ``name``, unless every entry of ``array`` is finite."""
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a non-finite value")
