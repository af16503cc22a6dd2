"""The integer rule of every config field and size argument.

It imports nothing from the package, so ``modem`` can use it as well as
``grid``: a rule kept in ``grid``, which imports ``modem``, would need an
import cycle to reach it.
"""

from __future__ import annotations

import numbers


def check_int(name: str, value, lo: int, hi: int | None = None):
    """Raise ``ValueError``, naming ``name``, unless ``value`` is an integer in lo..hi."""
    # bool is an Integral, but True as a size, an index or a seed is a mistake
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {bounds}, got {value}")
