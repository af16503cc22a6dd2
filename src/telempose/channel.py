"""Multipath single-TX / N_RX-antenna channel synthesis and application.

A channel realization is a channel impulse response held as per-path
arrays: a complex gain per path and each of the :data:`N_RX` = 2 RX
antennas, a delay and a Doppler shift per path. A transmit grid is a
complex array [grid.N_SYMBOLS, grid.N_SUBCARRIERS] = [14, 128] at
``grid.SUBCARRIER_SPACING_HZ``, the one lattice every grid shares. The
grid-facing operations evaluate the frequency response on it (block
fading within a symbol, Doppler advancing phase between symbols) and add
circular complex Gaussian noise at a configured Eb/N0.

Carrier-phase terms are folded into the stored gains at synthesis or
import time, so the per-path gain is the only spatial/attenuation state.

The synthetic scenario is fixed: up to :data:`L_MAX` paths, a
:data:`DELAY_SPREAD_S` delay spread and a receiver moving at a speed
uniform in :data:`SPEED_RANGE_MPS` at a :data:`CARRIER_HZ` carrier.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import check_finite, check_int, check_real, check_real_array
from ._reader import Reader, replacing
from .grid import N_SUBCARRIERS, N_SYMBOLS, SUBCARRIER_SPACING_HZ, GridConfig

SPEED_OF_LIGHT = 299_792_458.0
N_RX = 2
#: Most paths a realization has, drawn or imported.
L_MAX = 8
DELAY_SPREAD_S = 1e-6
SPEED_RANGE_MPS = (13.6, 18.8)
CARRIER_HZ = 3.5e9

_CIR_MAGIC = b"TPCR"
_CIR_VERSION = 1


class ChannelFileError(ValueError):
    """Malformed channel-realization file."""


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One multipath realization.

    ``gains`` is [L, N_RX] complex, ``delays`` (seconds) and ``dopplers``
    (Hz) are [L] real, 1 <= L <= :data:`L_MAX`. The constructor stores its
    own contiguous, read-only copies. Equality and hashing are by identity.
    """

    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains)
        if gains.dtype.kind not in "iufc":
            raise ValueError(f"gains must be numbers, got {gains.dtype} {self.gains!r:.40}")
        gains = np.array(gains, dtype=complex, order="C")
        delays = np.array(check_real_array("delays", self.delays), order="C")
        dopplers = np.array(check_real_array("dopplers", self.dopplers), order="C")
        if gains.ndim != 2 or gains.shape[1] != N_RX:
            raise ValueError(f"gains must be [paths, {N_RX}], got shape {gains.shape}")
        L = len(gains)
        if not 1 <= L <= L_MAX:
            raise ValueError(f"path count {L} outside 1..{L_MAX}")
        if delays.shape != (L,) or dopplers.shape != (L,):
            raise ValueError(
                f"{L} path gains but delays {delays.shape} and dopplers {dopplers.shape}"
            )
        check_finite("gains", gains)
        if not np.all(np.isfinite(delays) & (delays >= 0)):
            raise ValueError("path delays must be finite and non-negative")
        check_finite("dopplers", dopplers)
        for name, values in (("gains", gains), ("delays", delays), ("dopplers", dopplers)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def __reduce__(self):
        # pickle and deepcopy rebuild through the validating constructor, which
        # stores read-only copies; the response memo relies on that immutability
        return type(self), (self.gains, self.delays, self.dopplers)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level derived from Eb/N0 for unit-energy Gray QPSK (2-bit) symbols, uncoded."""

    ebn0_db: float
    bits_per_symbol: int = 2

    def __post_init__(self):
        check_int("bits_per_symbol", self.bits_per_symbol, 2, 2)
        # a Python float overflows with an exception; a numpy scalar would warn first
        object.__setattr__(self, "ebn0_db", check_real("ebn0_db", self.ebn0_db))
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
    """A tapped-delay-line draw's path budget and antenna count; each accepts only its constant."""

    l_max: int = L_MAX
    n_rx: int = N_RX

    def __post_init__(self):
        check_int("l_max", self.l_max, L_MAX, L_MAX)
        check_int("n_rx", self.n_rx, N_RX, N_RX)


def check_realizations(realizations) -> list:
    """``realizations`` as a list; ``ValueError``, naming its index and type,
    for the first entry that is not a :class:`ChannelRealization`."""
    realizations = list(realizations)
    for i, ch in enumerate(realizations):
        if not isinstance(ch, ChannelRealization):
            raise ValueError(
                f"channel set entry {i} is a {type(ch).__name__}, not a ChannelRealization"
            )
    return realizations


def flat_unit_channel(n_rx: int = N_RX) -> ChannelRealization:
    """Single path, zero delay, zero Doppler, unit gain; ``n_rx`` must be :data:`N_RX`."""
    check_int("n_rx", n_rx, N_RX, N_RX)
    return ChannelRealization(np.ones((1, N_RX), complex), np.zeros(1), np.zeros(1))


def synth_channel(rng: np.random.Generator, params: SynthParams) -> ChannelRealization:
    """Draw one random multipath realization.

    Path count is uniform on 1..L_MAX; delays follow an exponential
    profile truncated to :data:`DELAY_SPREAD_S`; per-path Rayleigh gains decay
    exponentially in delay and are normalized so the expected total power
    per antenna is one. Antenna phases come from a half-wavelength
    uniform-linear-array response at a random angle of arrival.
    """
    L = int(rng.integers(1, L_MAX + 1))
    scale = DELAY_SPREAD_S / 3.0
    delays = np.minimum(rng.exponential(scale=scale, size=L), DELAY_SPREAD_S)
    delays.sort()
    weights = np.exp(-delays / scale)
    power = weights / weights.sum()
    fading = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)
    aoa = rng.uniform(0, 2 * np.pi, size=L)
    steering = np.exp(1j * np.pi * np.outer(np.sin(aoa), np.arange(N_RX)))  # [L, N_RX]
    gains = np.sqrt(power)[:, None] * fading[:, None] * steering
    speed = rng.uniform(*SPEED_RANGE_MPS)
    wavelength = SPEED_OF_LIGHT / CARRIER_HZ
    dopplers = (speed / wavelength) * np.cos(rng.uniform(0, 2 * np.pi, size=L))
    return ChannelRealization(gains, delays, dopplers)


def freq_response_grid(ch: ChannelRealization, cfg: GridConfig) -> np.ndarray:
    """Frequency response at every OFDM symbol, shape [N_RX, N_SYMBOLS, N_SUBCARRIERS].

    Subcarrier n runs over centered indices -N/2 .. N/2-1; symbol i sits at
    time i / SUBCARRIER_SPACING_HZ (no cyclic prefix is modelled). The sum
    over paths is one [N_RX * N_SYMBOLS, L] @ [L, N_SUBCARRIERS] product.

    Every grid shares one lattice, so ``cfg`` is unused and the last
    response computed is memoized by realization identity alone: every grid
    of a link, and a perfect-CSI receiver on the same channel, share one
    evaluation. The returned array is read-only.
    """
    return _memo_response(ch)


# One entry: a link walks one channel at a time, and a larger memo would keep
# a 56 KiB response alive for every realization of a training set.
@lru_cache(maxsize=1)
def _memo_response(ch) -> np.ndarray:
    t = np.arange(N_SYMBOLS) * (1.0 / SUBCARRIER_SPACING_HZ)
    offsets = (np.arange(N_SUBCARRIERS) - N_SUBCARRIERS // 2) * SUBCARRIER_SPACING_HZ
    rotation = np.exp(2j * np.pi * np.outer(t, ch.dopplers))  # [n_sym, L]
    delay_ramp = np.exp(-2j * np.pi * np.outer(ch.delays, offsets))  # [L, n_sc]
    weights = ch.gains.T[:, None, :] * rotation  # [N_RX, n_sym, L]
    h = weights.reshape(-1, len(ch.delays)) @ delay_ramp
    h = h.reshape(N_RX, N_SYMBOLS, N_SUBCARRIERS)
    h.flags.writeable = False
    return h


def apply(
    ch: ChannelRealization,
    symbols: np.ndarray,
    noise: NoiseSpec | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pass one transmit grid through the channel, adding complex AWGN.

    ``symbols`` is one grid [N_SYMBOLS, N_SUBCARRIERS]; any other shape
    raises ``ValueError``. Returns a fresh, writeable received array
    [N_RX, N_SYMBOLS, N_SUBCARRIERS]; the channel response
    comes from the memo of :func:`freq_response_grid` and is not modified.
    The total complex noise variance per element is
    ``noise.noise_variance``; guard elements come out as noise only.
    ``noise=None`` means noiseless. The generator draws every real part of
    the noise, then every imaginary part.
    """
    if symbols.shape != (N_SYMBOLS, N_SUBCARRIERS):
        raise ValueError(f"need one grid [{N_SYMBOLS}, {N_SUBCARRIERS}], got {symbols.shape}")
    y = _memo_response(ch) * symbols
    if noise is not None:
        n = rng.standard_normal((2,) + y.shape)
        n *= math.sqrt(noise.noise_variance / 2.0)
        y.real += n[0]
        y.imag += n[1]
    return y


# ---------------------------------------------------------------------------
# channel-realization files
#
# Little-endian layout: magic "TPCR", u32 version, u32 realization count,
# u32 antenna count (always N_RX); then per realization a u32 path count L
# followed by an [L, 2 + 2 N_RX] f64 record block whose rows are delay,
# doppler and N_RX (re, im) gain pairs.
# ---------------------------------------------------------------------------


def export_cirs(realizations, path):
    """Write :class:`ChannelRealization` entries; a failed write keeps the old file."""
    realizations = check_realizations(realizations)
    with replacing(path) as f:
        f.write(_CIR_MAGIC)
        f.write(struct.pack("<III", _CIR_VERSION, len(realizations), N_RX))
        for ch in realizations:
            records = np.empty((len(ch.delays), 2 + 2 * N_RX), dtype="<f8")
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
    if n_rx != N_RX:
        raise ChannelFileError(f"channel file has {n_rx} RX antennas, need {N_RX}")
    width = 2 + 2 * N_RX
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
            ))
        except ValueError as e:
            raise ChannelFileError(f"realization {r}: {e}") from e
    rd.done()
    return out
