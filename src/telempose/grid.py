"""OFDM resource-grid framing.

A resource grid is a (symbol x subcarrier) lattice of complex values in
which every element is data, pilot, or guard. Pilot columns span all
effective (non-guard) subcarriers; payload bits stream across grids in
row-major (symbol-major) order with zero-bit padding in the final grid.
The layout and the pilot values are functions of the config alone, so
transmitter and receiver derive them independently and nothing but the
symbols needs to travel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modem import Constellation, FramingError, map_symbols

DATA = np.int8(0)
PILOT = np.int8(1)
GUARD = np.int8(2)


@dataclass(frozen=True)
class GridConfig:
    n_subcarriers: int = 128
    n_symbols: int = 14
    guard_left: int = 5
    guard_right: int = 6
    pilot_symbol_indices: tuple = (2, 12)
    subcarrier_spacing_hz: float = 30e3
    pilot_seed: int = 0x5EED  # agreed between transmitter and receiver

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ValueError(f"need at least one OFDM symbol, got {self.n_symbols}")
        if min(self.guard_left, self.guard_right) < 0:
            raise ValueError(f"negative guard in {self.guard_left}, {self.guard_right}")
        if self.guard_left + self.guard_right >= self.n_subcarriers:
            raise ValueError("guards leave no effective subcarriers")
        for i in self.pilot_symbol_indices:
            if not 0 <= i < self.n_symbols:
                raise ValueError(f"pilot symbol index {i} out of range")
        if len(set(self.pilot_symbol_indices)) != len(self.pilot_symbol_indices):
            raise ValueError(f"repeated pilot symbol index in {self.pilot_symbol_indices}")
        df = self.subcarrier_spacing_hz
        if not 0 < df < math.inf:  # NaN fails too
            raise ValueError(f"subcarrier spacing must be finite and positive, got {df}")

    @property
    def n_effective(self) -> int:
        return self.n_subcarriers - self.guard_left - self.guard_right

    @property
    def effective_slice(self) -> slice:
        return slice(self.guard_left, self.n_subcarriers - self.guard_right)

    @property
    def symbol_duration_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz


def two_pilot_config(**kwargs) -> GridConfig:
    """Two pilot columns at symbol indices 2 and 12 ("2P")."""
    return GridConfig(pilot_symbol_indices=(2, 12), **kwargs)


def one_pilot_config(**kwargs) -> GridConfig:
    """Single pilot column at symbol index 2 ("1P")."""
    return GridConfig(pilot_symbol_indices=(2,), **kwargs)


@lru_cache(maxsize=None)
def build_mask(cfg: GridConfig) -> np.ndarray:
    """Role of every grid element, shape [n_symbols, n_subcarriers].

    The array is cached per config and read-only; copy before mutating.
    """
    mask = np.full((cfg.n_symbols, cfg.n_subcarriers), DATA, dtype=np.int8)
    mask[:, : cfg.guard_left] = GUARD
    mask[:, cfg.n_subcarriers - cfg.guard_right :] = GUARD
    for i in cfg.pilot_symbol_indices:
        mask[i, cfg.effective_slice] = PILOT
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def pilot_value_grid(cfg: GridConfig) -> np.ndarray:
    """Pilot values placed at their grid positions (zeros elsewhere).

    The values are unit-modulus QPSK drawn from ``cfg.pilot_seed`` in
    row-major order of the PILOT elements, so the transmitter and the
    receiver reproduce them from the config alone. Cached per config; the
    returned array is read-only.
    """
    mask = build_mask(cfg)
    rng = np.random.default_rng(cfg.pilot_seed)
    quadrants = rng.integers(0, 4, size=len(cfg.pilot_symbol_indices) * cfg.n_effective)
    out = np.zeros((cfg.n_symbols, cfg.n_subcarriers), dtype=complex)
    out[mask == PILOT] = np.exp(1j * (np.pi / 4 + np.pi / 2 * quadrants))
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ResourceGrid:
    """Immutable transmit grid: complex symbols laid out by ``cfg``.

    The role of each element is a property of the config, not of the
    grid: ``mask`` is the cached, read-only :func:`build_mask` of ``cfg``.
    Equality and hashing are by identity.
    """

    symbols: np.ndarray
    cfg: GridConfig

    def __post_init__(self):
        if self.symbols.shape != (self.cfg.n_symbols, self.cfg.n_subcarriers):
            raise ValueError(f"grid shape {self.symbols.shape} does not match config")
        self.symbols.flags.writeable = False

    @property
    def mask(self) -> np.ndarray:
        return build_mask(self.cfg)


@dataclass(frozen=True)
class FramingRecord:
    """Bookkeeping needed to invert stream packing."""

    payload_bits: int
    n_grids: int
    bits_per_symbol: int


def grid_capacity_bits(cfg: GridConfig, constellation: Constellation) -> int:
    return int(np.count_nonzero(build_mask(cfg) == DATA)) * constellation.bits_per_symbol


def pack_bits(bits, cfg: GridConfig, constellation: Constellation):
    """Pack a bit stream into resource grids.

    Data elements fill grid by grid in row-major order; the last grid is
    padded with zero bits. Returns (grids, framing record).
    """
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    data_pos = build_mask(cfg) == DATA
    capacity = int(np.count_nonzero(data_pos)) * constellation.bits_per_symbol
    n_grids = -(-bits.size // capacity) if bits.size else 0
    record = FramingRecord(
        payload_bits=int(bits.size),
        n_grids=n_grids,
        bits_per_symbol=constellation.bits_per_symbol,
    )
    padded = np.zeros(n_grids * capacity, dtype=np.uint8)
    padded[: bits.size] = bits
    grids = []
    for g in range(n_grids):
        symbols = pilot_value_grid(cfg).copy()
        symbols[data_pos] = map_symbols(
            padded[g * capacity : (g + 1) * capacity], constellation
        )
        grids.append(ResourceGrid(symbols=symbols, cfg=cfg))
    return grids, record


def unpack_llrs(grid_llrs, record: FramingRecord, cfg: GridConfig) -> np.ndarray:
    """Invert :func:`pack_bits` on per-element LLRs.

    ``grid_llrs`` is a sequence of arrays shaped
    [n_symbols, n_subcarriers, record.bits_per_symbol]; padding positions
    are dropped so the result has exactly ``record.payload_bits`` entries.
    """
    if len(grid_llrs) != record.n_grids:
        raise FramingError(
            f"framing record expects {record.n_grids} grids, got {len(grid_llrs)}"
        )
    if record.n_grids == 0:
        return np.empty(0)
    grid_llrs = [np.asarray(llrs) for llrs in grid_llrs]
    shape = (cfg.n_symbols, cfg.n_subcarriers, record.bits_per_symbol)
    if any(llrs.shape != shape for llrs in grid_llrs):
        raise FramingError(
            f"grid LLRs need shape {list(shape)}, "
            f"got {sorted({llrs.shape for llrs in grid_llrs})}"
        )
    data_pos = build_mask(cfg) == DATA
    stream = np.concatenate([llrs[data_pos].reshape(-1) for llrs in grid_llrs])
    if stream.size < record.payload_bits:
        raise FramingError(
            f"grids carry {stream.size} LLRs, framing record expects {record.payload_bits}"
        )
    return stream[: record.payload_bits]
