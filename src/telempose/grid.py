"""OFDM resource-grid framing.

A resource grid is a (symbol x subcarrier) lattice of complex values in
which every element is data, pilot, or guard. Pilot columns span all
effective (non-guard) subcarriers; payload bits stream across grids in
row-major (symbol-major) order with zero-bit padding in the final grid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._reader import Reader
from .modem import Constellation, FramingError, map_symbols

DATA = np.int8(0)
PILOT = np.int8(1)
GUARD = np.int8(2)

_GRID_MAGIC = b"TPRG"
_GRID_VERSION = 1


@dataclass(frozen=True)
class GridConfig:
    n_subcarriers: int = 128
    n_symbols: int = 14
    guard_left: int = 5
    guard_right: int = 6
    pilot_symbol_indices: tuple = (2, 12)
    subcarrier_spacing_hz: float = 30e3
    carrier_hz: float = 3.5e9
    pilot_seed: int = 0x5EED  # agreed between transmitter and receiver

    def __post_init__(self):
        if self.guard_left + self.guard_right >= self.n_subcarriers:
            raise ValueError("guards leave no effective subcarriers")
        for i in self.pilot_symbol_indices:
            if not 0 <= i < self.n_symbols:
                raise ValueError(f"pilot symbol index {i} out of range")
        if len(set(self.pilot_symbol_indices)) != len(self.pilot_symbol_indices):
            raise ValueError(f"repeated pilot symbol index in {self.pilot_symbol_indices}")

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
def pilot_sequence(cfg: GridConfig, seed: int) -> np.ndarray:
    """Deterministic unit-modulus QPSK pilot values for all PILOT elements.

    Values follow row-major traversal of the pilot positions, so the
    transmitter and receiver reproduce the same sequence from the seed.
    The array is cached per (config, seed) and read-only.
    """
    n_pilots = len(cfg.pilot_symbol_indices) * cfg.n_effective
    rng = np.random.default_rng(seed)
    quadrants = rng.integers(0, 4, size=n_pilots)
    seq = np.exp(1j * (np.pi / 4 + np.pi / 2 * quadrants))
    seq.flags.writeable = False
    return seq


@lru_cache(maxsize=None)
def pilot_value_grid(cfg: GridConfig) -> np.ndarray:
    """Pilot values placed at their grid positions (zeros elsewhere).

    Cached per config; the returned array is read-only.
    """
    mask = build_mask(cfg)
    out = np.zeros((cfg.n_symbols, cfg.n_subcarriers), dtype=complex)
    out[mask == PILOT] = pilot_sequence(cfg, cfg.pilot_seed)
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
    bits_per_grid: int


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
        payload_bits=int(bits.size), n_grids=n_grids, bits_per_grid=capacity
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
    [n_symbols, n_subcarriers, bits_per_symbol]; padding positions are
    dropped so the result has exactly ``record.payload_bits`` entries.
    """
    if len(grid_llrs) != record.n_grids:
        raise FramingError(
            f"framing record expects {record.n_grids} grids, got {len(grid_llrs)}"
        )
    if record.n_grids == 0:
        return np.empty(0)
    data_pos = build_mask(cfg) == DATA
    streams = [np.asarray(llrs)[data_pos].reshape(-1) for llrs in grid_llrs]
    return np.concatenate(streams)[: record.payload_bits]


def dump_grid(grid: ResourceGrid, path):
    """Write a grid to the debug dump format.

    Layout (little-endian): magic ``TPRG``, u32 version, u32 n_symbols,
    u32 n_subcarriers, mask as int8 row-major, then per element float32
    (re, im) pairs in row-major order.
    """
    n_sym, n_sc = grid.symbols.shape
    with open(path, "wb") as f:
        f.write(_GRID_MAGIC)
        f.write(struct.pack("<III", _GRID_VERSION, n_sym, n_sc))
        f.write(grid.mask.astype(np.int8).tobytes())
        inter = np.empty((n_sym, n_sc, 2), dtype="<f4")
        inter[..., 0] = grid.symbols.real
        inter[..., 1] = grid.symbols.imag
        f.write(inter.tobytes())


def load_grid(path, cfg: GridConfig) -> ResourceGrid:
    """Read a grid written by :func:`dump_grid`; its mask must be ``cfg``'s."""
    with open(path, "rb") as f:
        rd = Reader(f.read(), FramingError, "grid dump")
    magic = rd.take(4, "magic")
    if magic != _GRID_MAGIC:
        raise FramingError(f"not a grid dump: bad magic {bytes(magic)!r}")
    version, n_sym, n_sc = struct.unpack("<III", rd.take(12, "header"))
    if version != _GRID_VERSION:
        raise FramingError(f"unsupported grid dump version {version}")
    mask = np.frombuffer(rd.take(n_sym * n_sc, "mask"), dtype=np.int8)
    body = np.frombuffer(rd.take(n_sym * n_sc * 8, "symbols"), dtype="<f4")
    rd.done()
    if not np.array_equal(mask.reshape(n_sym, n_sc), build_mask(cfg)):
        raise FramingError(
            f"grid dump mask ({n_sym}x{n_sc}) does not match the config's layout"
        )
    body = body.reshape(n_sym, n_sc, 2)
    symbols = body[..., 0].astype(complex) + 1j * body[..., 1]
    return ResourceGrid(symbols=symbols, cfg=cfg)
