"""OFDM resource-grid framing on one fixed numerology.

Every transmit grid is a complex array [N_SYMBOLS, N_SUBCARRIERS] =
[14, 128] at SUBCARRIER_SPACING_HZ = 30 kHz, with GUARD_LEFT = 5 and
GUARD_RIGHT = 6 guard subcarriers: the grid of the neural-receiver setup
the paper follows. A :class:`GridConfig` holds only the pilot layout:
1P or 2P. Every element is data, pilot, or guard. Pilot columns
span all effective (non-guard) subcarriers; payload bits stream across
grids in row-major (symbol-major) order with zero-bit padding in the
final grid. The layout and the pilot values are functions of the config
alone, so transmitter and receiver derive them independently; besides the
symbols, only the payload bit count travels, and it fixes the grid count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import check_int
from .modem import Constellation, FramingError, map_symbols

N_SYMBOLS = 14
N_SUBCARRIERS = 128
#: Subcarrier spacing of every grid (30 kHz numerology); OFDM symbol i
#: starts at i / SUBCARRIER_SPACING_HZ.
SUBCARRIER_SPACING_HZ = 30e3
GUARD_LEFT = 5
GUARD_RIGHT = 6
#: Seed of the pilot values, agreed between transmitter and receiver.
PILOT_SEED = 0x5EED
#: Symbol indices of the pilot columns: 1P uses the first, 2P both.
PILOT_SYMBOLS = (2, 12)

DATA = np.int8(0)
PILOT = np.int8(1)
GUARD = np.int8(2)


@dataclass(frozen=True)
class GridConfig:
    """A pilot layout: 1P, a pilot column at symbol 2, or 2P, columns at symbols 2 and 12.

    ``n_pilot_symbols`` is the one field; ``pilot_symbol_indices``, derived
    from it, are the first that many of :data:`PILOT_SYMBOLS`. The
    numerology is read from the config as class attributes, not fields.
    """

    n_pilot_symbols: int = 2

    n_symbols = N_SYMBOLS
    n_subcarriers = N_SUBCARRIERS
    n_effective = N_SUBCARRIERS - GUARD_LEFT - GUARD_RIGHT
    effective_slice = slice(GUARD_LEFT, N_SUBCARRIERS - GUARD_RIGHT)

    def __post_init__(self):
        check_int("n_pilot_symbols", self.n_pilot_symbols, 1, len(PILOT_SYMBOLS))
        object.__setattr__(self, "pilot_symbol_indices", PILOT_SYMBOLS[: self.n_pilot_symbols])


def two_pilot_config() -> GridConfig:
    """Two pilot columns at symbol indices 2 and 12 ("2P")."""
    return GridConfig(2)


def one_pilot_config() -> GridConfig:
    """Single pilot column at symbol index 2 ("1P")."""
    return GridConfig(1)


@lru_cache(maxsize=None)
def build_mask(cfg: GridConfig) -> np.ndarray:
    """Role of every grid element, shape [n_symbols, n_subcarriers].

    The array is cached per config and read-only; copy before mutating.
    """
    mask = np.full((N_SYMBOLS, N_SUBCARRIERS), DATA, dtype=np.int8)
    mask[:, :GUARD_LEFT] = GUARD
    mask[:, N_SUBCARRIERS - GUARD_RIGHT :] = GUARD
    mask[list(cfg.pilot_symbol_indices), cfg.effective_slice] = PILOT
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def _data_index(cfg: GridConfig) -> np.ndarray:
    """Row-major flat index of the DATA elements, cached per config, read-only."""
    index = np.flatnonzero(build_mask(cfg) == DATA)
    index.flags.writeable = False
    return index


@lru_cache(maxsize=None)
def pilot_value_grid(cfg: GridConfig) -> np.ndarray:
    """Pilot values placed at their grid positions (zeros elsewhere).

    The values are unit-modulus QPSK drawn from :data:`PILOT_SEED` in
    row-major order of the PILOT elements, so the transmitter and the
    receiver reproduce them from the config alone. Cached per config; the
    returned array is read-only.
    """
    mask = build_mask(cfg)
    rng = np.random.default_rng(PILOT_SEED)
    quadrants = rng.integers(0, 4, size=cfg.n_pilot_symbols * cfg.n_effective)
    out = np.zeros((N_SYMBOLS, N_SUBCARRIERS), dtype=complex)
    out[mask == PILOT] = np.exp(1j * (np.pi / 4 + np.pi / 2 * quadrants))
    out.flags.writeable = False
    return out


def grid_capacity_bits(cfg: GridConfig, constellation: Constellation) -> int:
    return _data_index(cfg).size * constellation.bits_per_symbol


def pack_bits(bits, cfg: GridConfig, constellation: Constellation):
    """Pack a bit stream into transmit grids.

    ``bits`` holds 0s and 1s. Data elements fill grid by grid in row-major
    order; the last grid is padded with zero bits. Returns (symbols
    [n_grids, n_symbols, n_subcarriers] complex, payload bit count), the
    count that :func:`unpack_llrs` needs to drop the padding.
    """
    bits = np.asarray(bits).reshape(-1)
    data_index = _data_index(cfg)
    capacity = grid_capacity_bits(cfg, constellation)
    n_grids = -(-bits.size // capacity)
    # in the caller's dtype: map_symbols must see a non-bit before a cast wraps it
    padded = np.zeros(n_grids * capacity, dtype=bits.dtype)
    padded[: bits.size] = bits
    symbols = np.empty((n_grids, N_SYMBOLS * N_SUBCARRIERS), dtype=complex)
    symbols[:] = pilot_value_grid(cfg).reshape(-1)
    symbols[:, data_index] = map_symbols(padded, constellation).reshape(-1, data_index.size)
    return symbols.reshape(n_grids, N_SYMBOLS, N_SUBCARRIERS), int(bits.size)


def unpack_llrs(grid_llrs, payload_bits: int, cfg: GridConfig) -> np.ndarray:
    """Invert :func:`pack_bits` on per-element LLRs.

    ``grid_llrs`` is a sequence of arrays shaped
    [n_symbols, n_subcarriers, bits_per_symbol], one per grid of a
    ``payload_bits`` payload: ceil(payload_bits / capacity) of them, or
    ``FramingError``. Padding positions are dropped so the result has
    exactly ``payload_bits`` entries.
    """
    check_int("payload_bits", payload_bits, 0)
    B = Constellation.bits_per_symbol
    n_grids = -(-payload_bits // (_data_index(cfg).size * B))
    if len(grid_llrs) != n_grids:
        raise FramingError(
            f"a payload of {payload_bits} bits takes {n_grids} grid(s), got {len(grid_llrs)}"
        )
    if n_grids == 0:
        return np.empty(0)
    grid_llrs = [np.asarray(llrs) for llrs in grid_llrs]
    shape = (N_SYMBOLS, N_SUBCARRIERS, B)
    if any(llrs.shape != shape for llrs in grid_llrs):
        raise FramingError(
            f"grid LLRs need shape {list(shape)}, "
            f"got {sorted({llrs.shape for llrs in grid_llrs})}"
        )
    stacked = np.stack(grid_llrs).reshape(n_grids, -1, B)
    return stacked.take(_data_index(cfg), axis=1).reshape(-1)[:payload_bits]
