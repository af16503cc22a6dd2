"""Multipath MIMO channel synthesis and application.

A channel realization is a channel impulse response held as per-path
arrays: a complex gain per path and RX antenna, a delay and a Doppler
shift per path. The grid-facing operations evaluate the frequency
response per OFDM symbol (block fading within a symbol, Doppler advancing
phase between symbols) and add circular complex Gaussian noise at a
configured Eb/N0.

Carrier-phase terms are folded into the stored gains at synthesis or
import time, so the per-path gain is the only spatial/attenuation state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._reader import Reader
from .grid import GridConfig, ResourceGrid

SPEED_OF_LIGHT = 299_792_458.0
MAX_PATHS = 75

_CIR_MAGIC = b"TPCR"
_CIR_VERSION = 1


class ChannelFileError(ValueError):
    """Malformed channel-realization file."""


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One multipath realization.

    ``gains`` is [L, n_rx] complex, ``delays`` (seconds) and ``dopplers``
    (Hz) are [L]. The constructor stores its own contiguous, read-only
    copies. Equality and hashing are by identity.
    """

    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    meta: str = "synthetic"

    def __post_init__(self):
        gains = np.array(self.gains, dtype=complex, order="C")
        delays = np.array(self.delays, dtype=float, order="C")
        dopplers = np.array(self.dopplers, dtype=float, order="C")
        if gains.ndim != 2:
            raise ValueError(f"gains must be [paths, n_rx], got shape {gains.shape}")
        L, n_rx = gains.shape
        if not 1 <= L <= MAX_PATHS:
            raise ValueError(f"path count {L} outside 1..{MAX_PATHS}")
        if n_rx < 1:
            raise ValueError("need at least one RX antenna")
        if delays.shape != (L,) or dopplers.shape != (L,):
            raise ValueError(
                f"{L} path gains but delays {delays.shape} and dopplers {dopplers.shape}"
            )
        if not np.all(np.isfinite(gains)):
            raise ValueError("path gains must be finite")
        if not np.all(np.isfinite(delays) & (delays >= 0)):
            raise ValueError("path delays must be finite and non-negative")
        if not np.all(np.isfinite(dopplers)):
            raise ValueError("path Doppler shifts must be finite")
        for name, values in (("gains", gains), ("delays", delays), ("dopplers", dopplers)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def n_rx(self) -> int:
        return self.gains.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level derived from Eb/N0 for unit-energy symbols, uncoded."""

    ebn0_db: float
    bits_per_symbol: int = 2

    def __post_init__(self):
        if self.bits_per_symbol < 1:
            raise ValueError(f"bits_per_symbol must be >= 1, got {self.bits_per_symbol}")
        # a Python float overflows with an exception; a numpy scalar would warn first
        object.__setattr__(self, "ebn0_db", float(self.ebn0_db))
        try:
            nv = self.noise_variance
        except (OverflowError, ZeroDivisionError):
            nv = 0.0
        if not 0 < nv < math.inf:  # NaN fails too
            raise ValueError(
                f"Eb/N0 of {self.ebn0_db} dB gives no finite positive noise variance"
            )

    @property
    def noise_variance(self) -> float:
        return 1.0 / (self.bits_per_symbol * 10 ** (self.ebn0_db / 10))


@dataclass(frozen=True)
class SynthParams:
    """Knobs for the synthetic tapped-delay-line generator."""

    l_max: int = 8
    delay_spread_s: float = 1e-6
    speed_range_mps: tuple = (13.6, 18.8)
    n_rx: int = 2
    carrier_hz: float = 3.5e9

    def __post_init__(self):
        if not 1 <= self.l_max <= MAX_PATHS:
            raise ValueError(f"l_max must be in 1..{MAX_PATHS}")
        if self.delay_spread_s <= 0:
            raise ValueError("delay spread must be positive")
        lo, hi = self.speed_range_mps
        if lo < 0 or hi < lo:
            raise ValueError("invalid speed range")
        if self.n_rx < 1:
            raise ValueError("need at least one RX antenna")


def flat_unit_channel(n_rx: int = 1) -> ChannelRealization:
    """Single path, zero delay, zero Doppler, unit gain on every antenna."""
    return ChannelRealization(np.ones((1, n_rx), complex), np.zeros(1), np.zeros(1))


def synth_channel(rng: np.random.Generator, params: SynthParams) -> ChannelRealization:
    """Draw one random multipath realization.

    Path count is uniform on 1..l_max; delays follow an exponential
    profile truncated to the delay spread; per-path Rayleigh gains decay
    exponentially in delay and are normalized so the expected total power
    per antenna is one. Antenna phases come from a half-wavelength
    uniform-linear-array response at a random angle of arrival.
    """
    L = int(rng.integers(1, params.l_max + 1))
    scale = params.delay_spread_s / 3.0
    delays = np.minimum(rng.exponential(scale=scale, size=L), params.delay_spread_s)
    delays.sort()
    weights = np.exp(-delays / scale)
    power = weights / weights.sum()
    fading = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)
    aoa = rng.uniform(0, 2 * np.pi, size=L)
    steering = np.exp(
        1j * np.pi * np.outer(np.sin(aoa), np.arange(params.n_rx))
    )  # [L, n_rx]
    gains = np.sqrt(power)[:, None] * fading[:, None] * steering
    speed = rng.uniform(*params.speed_range_mps)
    wavelength = SPEED_OF_LIGHT / params.carrier_hz
    dopplers = (speed / wavelength) * np.cos(rng.uniform(0, 2 * np.pi, size=L))
    return ChannelRealization(gains, delays, dopplers, meta="synthetic")


def _centered_freq_offsets(cfg: GridConfig) -> np.ndarray:
    n = np.arange(cfg.n_subcarriers) - cfg.n_subcarriers // 2
    return n * cfg.subcarrier_spacing_hz


def freq_response_grid(ch: ChannelRealization, cfg: GridConfig) -> np.ndarray:
    """Frequency response at every OFDM symbol, shape [n_rx, n_symbols, n_sc].

    Subcarrier n runs over centered indices -N/2 .. N/2-1; symbol i sits at
    time i / subcarrier_spacing (no cyclic prefix is modelled).
    """
    t = np.arange(cfg.n_symbols) * cfg.symbol_duration_s
    rotation = np.exp(2j * np.pi * np.outer(ch.dopplers, t))  # [L, n_sym]
    delay_ramp = np.exp(
        -2j * np.pi * np.outer(ch.delays, _centered_freq_offsets(cfg))
    )  # [L, n_sc]
    return np.einsum("lk,li,ln->kin", ch.gains, rotation, delay_ramp)


def apply(
    ch: ChannelRealization,
    grid: ResourceGrid,
    noise: NoiseSpec | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pass a grid through the channel, adding complex AWGN.

    Returns the received array [n_rx, n_symbols, n_subcarriers]. The total
    complex noise variance per element is ``noise.noise_variance``; guard
    elements come out as noise only. ``noise=None`` means noiseless.
    """
    h = freq_response_grid(ch, grid.cfg)
    y = h * grid.symbols[None, :, :]
    if noise is not None:
        sigma = np.sqrt(noise.noise_variance / 2.0)
        y = y + sigma * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
    return y


# ---------------------------------------------------------------------------
# channel-realization files
#
# Little-endian layout: magic "TPCR", u32 version, u32 realization count,
# u32 n_rx; then per realization a u32 path count L followed by an [L,
# 2 + 2 n_rx] f64 record block whose rows are delay, doppler and n_rx
# (re, im) gain pairs.
# ---------------------------------------------------------------------------


def export_cirs(realizations, path):
    realizations = list(realizations)
    n_rx = realizations[0].n_rx if realizations else 0
    with open(path, "wb") as f:
        f.write(_CIR_MAGIC)
        f.write(struct.pack("<III", _CIR_VERSION, len(realizations), n_rx))
        for r, ch in enumerate(realizations):
            if ch.n_rx != n_rx:
                raise ChannelFileError(
                    f"realization {r} has n_rx={ch.n_rx}, file uses {n_rx}"
                )
            records = np.empty((len(ch.delays), 2 + 2 * n_rx), dtype="<f8")
            records[:, 0] = ch.delays
            records[:, 1] = ch.dopplers
            records[:, 2::2] = ch.gains.real
            records[:, 3::2] = ch.gains.imag
            f.write(struct.pack("<I", len(records)))
            f.write(records.tobytes())


def import_cirs(path):
    """Read realizations written by :func:`export_cirs`."""
    with open(path, "rb") as f:
        rd = Reader(f.read(), ChannelFileError, "channel file")
    magic = rd.take(4, "magic")
    if magic != _CIR_MAGIC:
        raise ChannelFileError(f"not a channel file: bad magic {bytes(magic)!r}")
    version, count, n_rx = struct.unpack("<III", rd.take(12, "header"))
    if version != _CIR_VERSION:
        raise ChannelFileError(f"unsupported channel file version {version}")
    width = 2 + 2 * n_rx
    out = []
    for r in range(count):
        (n_paths,) = struct.unpack("<I", rd.take(4, f"path count of realization {r}"))
        block = rd.take(8 * width * n_paths, f"paths of realization {r}")
        records = np.frombuffer(block, dtype="<f8").reshape(n_paths, width)
        try:
            out.append(ChannelRealization(
                gains=records[:, 2:].view("<c16"),  # (re, im) pairs are complex128
                delays=records[:, 0],
                dopplers=records[:, 1],
                meta="imported",
            ))
        except ValueError as e:
            raise ChannelFileError(f"realization {r}: {e}") from e
    rd.done()
    return out
