import struct

import numpy as np
import pytest

from telempose.channel import (
    MAX_PATHS,
    ChannelFileError,
    ChannelRealization,
    NoiseSpec,
    SynthParams,
    apply,
    export_cirs,
    flat_unit_channel,
    freq_response_grid,
    import_cirs,
    synth_channel,
)
from telempose.grid import GridConfig, ResourceGrid, pack_bits


def _grid_with(symbols, cfg):
    return ResourceGrid(symbols=np.array(symbols, complex), cfg=cfg)


def test_flat_unit_channel_response(cfg_2p):
    h_all = freq_response_grid(flat_unit_channel(n_rx=1), cfg_2p)
    for i in (0, 7, 13):
        h = h_all[:, i, :]
        assert h.shape == (1, 128)
        assert np.allclose(h, 1.0)


def test_single_path_delay_phase_ramp(cfg_2p):
    # delay of one sample period gives exp(-2j pi n / N) across subcarriers
    N = cfg_2p.n_subcarriers
    tau = 1.0 / (N * cfg_2p.subcarrier_spacing_hz)
    ch = ChannelRealization(gains=[[1.0 + 0j]], delays=[tau], dopplers=[0.0])
    h = freq_response_grid(ch, cfg_2p)[0, 0, :]
    assert np.allclose(np.abs(h), 1.0)
    centered = np.arange(N) - N // 2
    # spot values at n=0 and n=N/4
    assert h[N // 2] == pytest.approx(1.0 + 0j)
    assert h[N // 2 + N // 4] == pytest.approx(np.exp(-2j * np.pi * (N // 4) / N))
    assert np.allclose(h, np.exp(-2j * np.pi * centered / N))


def test_two_path_comb_nulls(cfg_2p):
    # equal paths spaced 1/(4 df) apart null every fourth subcarrier
    df = cfg_2p.subcarrier_spacing_hz
    ch = ChannelRealization(
        gains=[[1.0 + 0j], [1.0 + 0j]], delays=[0.0, 1.0 / (4 * df)], dopplers=[0.0, 0.0]
    )
    h = freq_response_grid(ch, cfg_2p)[0, 0, :]
    centered = np.arange(128) - 64
    nulls = (centered % 4 == 2) | (centered % 4 == -2)
    assert np.allclose(np.abs(h[nulls]), 0.0, atol=1e-12)
    assert np.allclose(np.abs(h[centered % 4 == 0]), 2.0, atol=1e-12)


def test_freq_response_matches_dft_oracle():
    # taps on the sample grid of an 8-subcarrier system vs. a direct DFT
    cfg8 = GridConfig(
        n_subcarriers=8, n_symbols=2, guard_left=0, guard_right=0,
        pilot_symbol_indices=(0,),
    )
    N, df = 8, cfg8.subcarrier_spacing_hz
    rng = np.random.default_rng(5)
    tap_positions = [0, 2, 5]
    tap_gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ch = ChannelRealization(
        gains=tap_gains[:, None],
        delays=np.array(tap_positions) / (N * df),
        dopplers=np.zeros(3),
    )
    h = freq_response_grid(ch, cfg8)[0, 0, :]
    centered = np.arange(N) - N // 2
    dft = np.zeros(N, complex)
    for g, m in zip(tap_gains, tap_positions):
        dft += g * np.exp(-2j * np.pi * centered * m / N)
    assert np.max(np.abs(h - dft)) < 1e-10


def test_synth_determinism():
    params = SynthParams()
    a = synth_channel(np.random.default_rng(77), params)
    b = synth_channel(np.random.default_rng(77), params)
    assert len(a.delays) == len(b.delays)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.delays, b.delays)
    assert np.array_equal(a.dopplers, b.dopplers)


def test_synth_shapes_and_limits(rng):
    params = SynthParams(l_max=8, n_rx=4)
    for _ in range(50):
        ch = synth_channel(rng, params)
        assert 1 <= len(ch.delays) <= 8
        assert ch.gains.shape == (len(ch.delays), 4)
        assert ch.dopplers.shape == ch.delays.shape
        assert np.all(ch.delays >= 0) and np.all(ch.delays <= params.delay_spread_s)


def test_synth_power_normalization(rng):
    # Monte-Carlo: mean total path power per antenna is one
    params = SynthParams(n_rx=2)
    totals = np.empty(10_000)
    for i in range(totals.size):
        ch = synth_channel(rng, params)
        totals[i] = np.mean(np.sum(np.abs(ch.gains) ** 2, axis=0))
    assert 0.95 <= totals.mean() <= 1.05


def test_noise_spec_variance():
    assert NoiseSpec(0.0, 2).noise_variance == pytest.approx(0.5)
    assert NoiseSpec(10.0, 2).noise_variance == pytest.approx(0.05)


@pytest.mark.parametrize("ebn0_db", [np.nan, np.inf, -np.inf])
def test_noise_spec_rejects_a_non_finite_ebn0(ebn0_db):
    with pytest.raises(ValueError, match="Eb/N0"):
        NoiseSpec(ebn0_db)


@pytest.mark.parametrize(
    "ebn0_db",
    [4000.0, -4000.0]
    + [pytest.param(np.float64(e), id=f"np.float64({e})") for e in (4000.0, -4000.0)],
)
def test_noise_spec_rejects_an_ebn0_beyond_float_range(ebn0_db):
    with pytest.raises(ValueError, match="Eb/N0"):
        NoiseSpec(ebn0_db)


def test_noise_spec_rejects_no_bits_per_symbol():
    with pytest.raises(ValueError, match="bits_per_symbol"):
        NoiseSpec(10.0, 0)


def test_apply_noiseless_flat_is_identity(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    grids, _ = pack_bits(bits, cfg_2p, qpsk)
    y = apply(flat_unit_channel(1), grids[0], noise=None, rng=rng)
    assert np.array_equal(y[0], grids[0].symbols)


def test_apply_noise_variance(cfg_2p, qpsk, rng):
    zero = _grid_with(np.zeros((14, 128)), cfg_2p)
    spec = NoiseSpec(ebn0_db=0.0, bits_per_symbol=2)  # variance 0.5
    draws = []
    for _ in range(60):  # 60 * 14 * 128 > 1e5 complex draws per antenna
        y = apply(flat_unit_channel(2), zero, spec, rng)
        draws.append(y)
    var = np.mean(np.abs(np.concatenate(draws)) ** 2)
    assert var == pytest.approx(0.5, rel=0.02)


def test_apply_linearity(cfg_2p, qpsk, rng):
    params = SynthParams()
    ch = synth_channel(rng, params)
    a = rng.standard_normal((14, 128)) + 1j * rng.standard_normal((14, 128))
    b = rng.standard_normal((14, 128)) + 1j * rng.standard_normal((14, 128))
    ga, gb = _grid_with(a, cfg_2p), _grid_with(b, cfg_2p)
    combo = _grid_with(2.0 * a - 0.5j * b, cfg_2p)
    ya = apply(ch, ga, None, rng)
    yb = apply(ch, gb, None, rng)
    yc = apply(ch, combo, None, rng)
    assert np.allclose(yc, 2.0 * ya - 0.5j * yb, atol=1e-12)


def test_received_energy_tracks_noise(cfg_2p, qpsk, rng):
    # E|y|^2 on data elements = signal power (1) + noise variance
    spec = NoiseSpec(ebn0_db=3.0, bits_per_symbol=2)
    params = SynthParams(n_rx=2)
    bits = rng.integers(0, 2, size=2808)
    grids, _ = pack_bits(bits, cfg_2p, qpsk)
    data = grids[0].mask == 0
    acc, n = 0.0, 0
    for _ in range(2000):
        ch = synth_channel(rng, params)
        y = apply(ch, grids[0], spec, rng)
        vals = y[:, data]
        acc += np.sum(np.abs(vals) ** 2)
        n += vals.size
    assert n >= 1e5
    assert acc / n == pytest.approx(1.0 + spec.noise_variance, rel=0.03)


def test_time_invariance_iff_zero_doppler(cfg_2p, rng):
    params = SynthParams()
    ch = synth_channel(rng, params)
    static = ChannelRealization(ch.gains, ch.delays, np.zeros_like(ch.dopplers))
    h_static = freq_response_grid(static, cfg_2p)
    assert np.max(np.abs(h_static - h_static[:, :1, :])) == 0.0
    h_moving = freq_response_grid(ch, cfg_2p)
    assert np.max(np.abs(h_moving - h_moving[:, :1, :])) > 0.0


def test_doppler_free_pilot_columns_match_data_columns(cfg_2p, rng):
    params = SynthParams(speed_range_mps=(0.0, 0.0))
    ch = synth_channel(rng, params)
    h = freq_response_grid(ch, cfg_2p)
    assert np.allclose(h[:, 2, :], h[:, 7, :])
    assert np.allclose(h[:, 12, :], h[:, 0, :])


def test_cir_round_trip(tmp_path, rng):
    params = SynthParams(n_rx=3)
    chans = [synth_channel(rng, params) for _ in range(7)]
    path = tmp_path / "set.cir"
    export_cirs(chans, path)
    back = import_cirs(path)
    assert len(back) == 7
    for a, b in zip(chans, back):
        assert b.meta == "imported"
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.delays, b.delays)
        assert np.array_equal(a.dopplers, b.dopplers)


def test_cir_empty_file(tmp_path):
    path = tmp_path / "empty.cir"
    export_cirs([], path)
    assert import_cirs(path) == []


def test_cir_truncation_names_offset(tmp_path, rng):
    chans = [synth_channel(rng, SynthParams(n_rx=2)) for _ in range(3)]
    path = tmp_path / "set.cir"
    export_cirs(chans, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 11])
    with pytest.raises(ChannelFileError, match=rf"byte {len(blob) - 11}"):
        import_cirs(path)


def test_cir_bad_magic(tmp_path):
    path = tmp_path / "junk.cir"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ChannelFileError, match="magic"):
        import_cirs(path)


def test_realization_validation():
    with pytest.raises(ValueError):
        ChannelRealization(gains=np.empty((0, 1)), delays=[], dopplers=[])
    with pytest.raises(ValueError):
        ChannelRealization(gains=[[np.inf]], delays=[0.0], dopplers=[0.0])
    with pytest.raises(ValueError):
        ChannelRealization(gains=[[1.0]], delays=[-1e-9], dopplers=[0.0])


@pytest.mark.parametrize(
    "gains, delays, dopplers, match",
    [
        ([1.0], [0.0], [0.0], "paths, n_rx"),
        (np.empty((0, 2)), [], [], "path count 0"),
        (np.ones((MAX_PATHS + 1, 1)), np.zeros(MAX_PATHS + 1), np.zeros(MAX_PATHS + 1),
         f"path count {MAX_PATHS + 1}"),
        (np.empty((1, 0)), [0.0], [0.0], "RX antenna"),
        ([[1.0], [1.0]], [0.0], [0.0, 0.0], "delays"),
        ([[1.0], [1.0]], [0.0, 0.0], [0.0], "dopplers"),
        ([[1.0, np.nan]], [0.0], [0.0], "gains must be finite"),
        ([[1.0]], [-1e-9], [0.0], "non-negative"),
        ([[1.0]], [np.nan], [0.0], "non-negative"),
        ([[1.0]], [0.0], [np.inf], "Doppler"),
    ],
    ids=["not-2d", "no-paths", "too-many-paths", "no-antennas", "delay-count",
         "doppler-count", "nan-gain", "negative-delay", "nan-delay", "inf-doppler"],
)
def test_realization_rejects_each_invalid_field(gains, delays, dopplers, match):
    with pytest.raises(ValueError, match=match):
        ChannelRealization(gains=gains, delays=delays, dopplers=dopplers)


def test_realization_equality_is_identity():
    a, b = flat_unit_channel(2), flat_unit_channel(2)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_realization_owns_read_only_arrays():
    gains = np.ones((2, 3), complex)
    delays = np.array([0.0, 1e-7])
    ch = ChannelRealization(gains=gains, delays=delays, dopplers=[5.0, -5.0])
    gains[0, 0] = 7.0
    delays[1] = 9.0
    assert ch.gains[0, 0] == 1.0 and ch.delays[1] == 1e-7
    assert ch.n_rx == 3
    for a in (ch.gains, ch.delays, ch.dopplers):
        assert a.flags.c_contiguous and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_cir_export_import_export_is_byte_identical(tmp_path, rng):
    chans = [synth_channel(rng, SynthParams(n_rx=2)) for _ in range(9)]
    first, second = tmp_path / "a.cir", tmp_path / "b.cir"
    export_cirs(chans, first)
    export_cirs(import_cirs(first), second)
    assert first.read_bytes() == second.read_bytes()


def _tpcr(n_rx, path_counts):
    """A TPCR file body with the given header n_rx and per-realization L."""
    out = b"TPCR" + struct.pack("<III", 1, len(path_counts), n_rx)
    for L in path_counts:
        out += struct.pack("<I", L) + np.zeros((L, 2 + 2 * n_rx), "<f8").tobytes()
    return out


@pytest.mark.parametrize(
    "n_rx, path_counts, match",
    [(1, [1, 0], "realization 1: path count 0"), (0, [1], "realization 0: .*RX antenna")],
    ids=["zero-paths", "zero-antennas"],
)
def test_cir_invalid_realization_is_a_file_error(tmp_path, n_rx, path_counts, match):
    path = tmp_path / "bad.cir"
    path.write_bytes(_tpcr(n_rx, path_counts))
    with pytest.raises(ChannelFileError, match=match):
        import_cirs(path)
