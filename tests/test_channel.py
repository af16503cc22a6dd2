import copy
import hashlib
import pickle
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from telempose import channel
from telempose.channel import (
    L_MAX,
    N_RX,
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
from telempose.grid import (
    SUBCARRIER_SPACING_HZ,
    build_mask,
    one_pilot_config,
    pack_bits,
    pilot_value_grid,
    two_pilot_config,
)
from telempose.rx_classic import receive_perfect_csi


def test_flat_unit_channel_response(cfg_2p):
    h_all = freq_response_grid(flat_unit_channel(), cfg_2p)
    for i in (0, 7, 13):
        h = h_all[:, i, :]
        assert h.shape == (2, 128)
        assert np.allclose(h, 1.0)


def test_single_path_delay_phase_ramp(cfg_2p):
    # delay of one sample period gives exp(-2j pi n / N) across subcarriers
    N = cfg_2p.n_subcarriers
    tau = 1.0 / (N * SUBCARRIER_SPACING_HZ)
    ch = ChannelRealization(gains=[[1.0 + 0j, 1.0 + 0j]], delays=[tau], dopplers=[0.0])
    h = freq_response_grid(ch, cfg_2p)[0, 0, :]
    assert np.allclose(np.abs(h), 1.0)
    centered = np.arange(N) - N // 2
    # spot values at n=0 and n=N/4
    assert h[N // 2] == pytest.approx(1.0 + 0j)
    assert h[N // 2 + N // 4] == pytest.approx(np.exp(-2j * np.pi * (N // 4) / N))
    assert np.allclose(h, np.exp(-2j * np.pi * centered / N))


def test_two_path_comb_nulls(cfg_2p):
    # equal paths spaced 1/(4 df) apart null every fourth subcarrier
    df = SUBCARRIER_SPACING_HZ
    ch = ChannelRealization(
        gains=np.ones((2, 2), complex), delays=[0.0, 1.0 / (4 * df)], dopplers=[0.0, 0.0]
    )
    h = freq_response_grid(ch, cfg_2p)[0, 0, :]
    centered = np.arange(128) - 64
    nulls = (centered % 4 == 2) | (centered % 4 == -2)
    assert np.allclose(np.abs(h[nulls]), 0.0, atol=1e-12)
    assert np.allclose(np.abs(h[centered % 4 == 0]), 2.0, atol=1e-12)


def test_freq_response_matches_dft_oracle():
    # taps on the sample grid of the 128-subcarrier lattice vs. a direct DFT,
    # read through apply on an all-ones grid, on each antenna
    N, df = 128, SUBCARRIER_SPACING_HZ
    rng = np.random.default_rng(5)
    tap_positions = [0, 2, 5, 37]
    tap_gains = rng.standard_normal((4, N_RX)) + 1j * rng.standard_normal((4, N_RX))
    ch = ChannelRealization(
        gains=tap_gains,
        delays=np.array(tap_positions) / (N * df),
        dopplers=np.zeros(4),
    )
    h = apply(ch, np.ones((14, N), complex), None, rng)[:, 0, :]
    centered = np.arange(N) - N // 2
    dft = np.zeros((N_RX, N), complex)
    for g, m in zip(tap_gains, tap_positions):
        dft += g[:, None] * np.exp(-2j * np.pi * centered * m / N)
    assert np.max(np.abs(h - dft)) < 1e-10


def test_freq_response_matches_per_path_loop(cfg_2p):
    rng = np.random.default_rng(11)
    # two synthetic draws and a realization at the path limit
    L = L_MAX
    most = ChannelRealization(
        rng.standard_normal((L, N_RX)) + 1j * rng.standard_normal((L, N_RX)),
        rng.uniform(0, 1e-6, L), rng.uniform(-200, 200, L),
    )
    for ch in (synth_channel(rng, SynthParams()), synth_channel(rng, SynthParams()), most):
        t = np.arange(cfg_2p.n_symbols) / SUBCARRIER_SPACING_HZ
        f = (np.arange(cfg_2p.n_subcarriers) - 64) * SUBCARRIER_SPACING_HZ
        ref = np.zeros((N_RX, cfg_2p.n_symbols, cfg_2p.n_subcarriers), complex)
        for g, tau, nu in zip(ch.gains, ch.delays, ch.dopplers):
            ref += (
                g[:, None, None]
                * np.exp(2j * np.pi * nu * t)[None, :, None]
                * np.exp(-2j * np.pi * tau * f)[None, None, :]
            )
        h = freq_response_grid(ch, cfg_2p)
        assert h.shape == ref.shape
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_synth_determinism():
    params = SynthParams()
    a = synth_channel(np.random.default_rng(77), params)
    b = synth_channel(np.random.default_rng(77), params)
    assert len(a.delays) == len(b.delays)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.delays, b.delays)
    assert np.array_equal(a.dopplers, b.dopplers)


def _digest(arrays):
    """sha256 of ``arrays`` cast to single precision, so that a last-ulp
    difference between two libms' exp or sin does not count as a change."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.astype(np.complex64 if np.iscomplexobj(a) else np.float32).tobytes())
    return h.hexdigest()


def test_the_scenario_constants_give_the_pinned_draws_and_pilots():
    # delay spread, speed range, carrier, grid shape, guards and pilot seed:
    # changing any of them changes these digests, so it must be deliberate
    draws = [synth_channel(np.random.default_rng(seed), SynthParams()) for seed in range(8)]
    assert _digest(a for ch in draws for a in (ch.gains, ch.delays, ch.dopplers)) == (
        "b749696e9cb441027bc01205a65ab9c0548ac3d845feb436783c692874e04be7"
    )
    pilots = [pilot_value_grid(cfg) for cfg in (one_pilot_config(), two_pilot_config())]
    assert _digest(pilots) == (
        "c0a333041ca23f3687027848db11ebadc338d81657353e739ce78ede1d115211"
    )


def test_synth_shapes_and_limits(rng):
    params = SynthParams()
    path_counts = set()
    for _ in range(200):
        ch = synth_channel(rng, params)
        path_counts.add(len(ch.delays))
        assert ch.gains.shape == (len(ch.delays), N_RX)
        assert ch.dopplers.shape == ch.delays.shape
        assert np.all(ch.delays >= 0) and np.all(ch.delays <= channel.DELAY_SPREAD_S)
    # every path count of the budget, and no other
    assert path_counts == set(range(1, L_MAX + 1))


def test_synth_power_normalization(rng):
    # Monte-Carlo: mean total path power per antenna is one
    params = SynthParams(n_rx=2)
    totals = np.empty(10_000)
    for i in range(totals.size):
        ch = synth_channel(rng, params)
        totals[i] = np.mean(np.sum(np.abs(ch.gains) ** 2, axis=0))
    assert 0.95 <= totals.mean() <= 1.05


@pytest.mark.parametrize(
    "field",
    [
        {"n_rx": 1.5},
        {"n_rx": True},
        {"l_max": 2.5},
        # each accepts only its constant: 2 antennas, up to 8 paths
        {"n_rx": 1},
        {"n_rx": 3},
        {"l_max": 3},
        {"l_max": L_MAX + 1},
    ],
    ids=["float-antennas", "bool-antennas", "float-path-count", "1-antenna", "3-antennas",
         "3-paths", "9-paths"],
)
def test_synth_params_reject_each_invalid_field(field):
    assert (SynthParams().n_rx, SynthParams().l_max) == (N_RX, L_MAX) == (2, 8)
    [name] = field
    with pytest.raises(ValueError, match=f"^{name} must be"):
        SynthParams(**field)


@pytest.mark.parametrize("n_rx", [1, 3])
def test_flat_unit_channel_takes_only_the_constant_antenna_count(n_rx):
    assert flat_unit_channel(2).gains.shape == flat_unit_channel().gains.shape == (1, 2)
    with pytest.raises(ValueError, match=f"n_rx must be in 2..2, got {n_rx}"):
        flat_unit_channel(n_rx)


def test_noise_spec_variance():
    assert NoiseSpec(0.0, 2).noise_variance == pytest.approx(0.5)
    assert NoiseSpec(10.0, 2).noise_variance == pytest.approx(0.05)


@pytest.mark.parametrize("ebn0_db", [np.nan, np.inf, -np.inf])
def test_noise_spec_rejects_a_non_finite_ebn0(ebn0_db):
    with pytest.raises(ValueError, match="^ebn0_db must be a finite real number"):
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


@pytest.mark.parametrize("bits_per_symbol", [2.5, 2.0, True])
def test_noise_spec_rejects_a_non_integer_bits_per_symbol(bits_per_symbol):
    with pytest.raises(ValueError, match="bits_per_symbol"):
        NoiseSpec(10.0, bits_per_symbol)


def test_apply_noiseless_flat_is_identity(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    grids, _ = pack_bits(bits, cfg_2p, qpsk)
    y = apply(flat_unit_channel(), grids[0], noise=None, rng=rng)
    assert np.array_equal(y, np.stack([grids[0]] * N_RX))


def test_apply_adds_noise_from_the_generator_in_order(cfg_2p, qpsk, rng):
    # all real parts are drawn first, then all imaginary parts
    ch = synth_channel(rng, SynthParams())
    grid = pack_bits(rng.integers(0, 2, size=2808), cfg_2p, qpsk)[0][0]
    spec = NoiseSpec(ebn0_db=3.0, bits_per_symbol=2)
    clone = copy.deepcopy(rng)
    y = apply(ch, grid, spec, rng)
    h = freq_response_grid(ch, cfg_2p)
    sigma = np.sqrt(spec.noise_variance / 2.0)
    n_re, n_im = clone.standard_normal(h.shape), clone.standard_normal(h.shape)
    assert np.array_equal(y, h * grid + sigma * (n_re + 1j * n_im))
    assert rng.bit_generator.state == clone.bit_generator.state


def test_apply_noise_variance(cfg_2p, qpsk, rng):
    zero = np.zeros((14, 128), complex)
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
    ya = apply(ch, a, None, rng)
    yb = apply(ch, b, None, rng)
    yc = apply(ch, 2.0 * a - 0.5j * b, None, rng)
    assert np.allclose(yc, 2.0 * ya - 0.5j * yb, atol=1e-12)


@pytest.mark.parametrize(
    "shape",
    [(2, 14, 128), (1, 14, 128), (14 * 128,), (1, 1, 14, 128), (7, 128), (14, 64), (128, 14)],
    ids=["stack-of-n_rx-grids", "stack-of-one", "flat", "4-d", "7x128", "14x64", "transposed"],
)
def test_apply_rejects_anything_but_one_14_by_128_grid(rng, shape):
    # a [G, S, N] stack with G == N_RX would otherwise broadcast silently,
    # and every grid shares the one 14 x 128 lattice
    with pytest.raises(ValueError, match=re.escape(f"one grid [14, 128], got {shape}")):
        apply(flat_unit_channel(2), np.ones(shape, complex), None, rng)


def test_received_energy_tracks_noise(cfg_2p, qpsk, rng):
    # E|y|^2 on data elements = signal power (1) + noise variance
    spec = NoiseSpec(ebn0_db=3.0, bits_per_symbol=2)
    params = SynthParams(n_rx=2)
    bits = rng.integers(0, 2, size=2808)
    grids, _ = pack_bits(bits, cfg_2p, qpsk)
    data = build_mask(cfg_2p) == 0
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
    ch = synth_channel(rng, SynthParams())
    ch = ChannelRealization(ch.gains, ch.delays, np.zeros_like(ch.dopplers))
    h = freq_response_grid(ch, cfg_2p)
    assert np.allclose(h[:, 2, :], h[:, 7, :])
    assert np.allclose(h[:, 12, :], h[:, 0, :])


def test_cir_round_trip(tmp_path, rng):
    params = SynthParams()
    chans = [synth_channel(rng, params) for _ in range(7)]
    path = tmp_path / "set.cir"
    export_cirs(chans, path)
    back = import_cirs(path)
    assert len(back) == 7
    for a, b in zip(chans, back):
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.delays, b.delays)
        assert np.array_equal(a.dopplers, b.dopplers)


def test_cir_empty_file(tmp_path):
    path = tmp_path / "empty.cir"
    export_cirs([], path)
    # version 1, no realizations, and still the antenna count
    assert path.read_bytes() == b"TPCR" + struct.pack("<III", 1, 0, N_RX)
    assert import_cirs(path) == []


@pytest.mark.parametrize("entry", [None, "lookalike"])
def test_cir_export_of_an_entry_that_is_not_a_realization_writes_nothing(tmp_path, rng, entry):
    ch = synth_channel(rng, SynthParams())
    if entry == "lookalike":  # the fields of a realization, none of its checks
        entry = SimpleNamespace(gains=ch.gains, delays=ch.delays, dopplers=ch.dopplers)
    with pytest.raises(ValueError, match=f"entry 1 is a {type(entry).__name__}, not a"):
        export_cirs([ch, entry], tmp_path / "set.cir")
    assert list(tmp_path.iterdir()) == []


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
        ChannelRealization(gains=np.empty((0, 2)), delays=[], dopplers=[])
    with pytest.raises(ValueError):
        ChannelRealization(gains=[[np.inf, 1.0]], delays=[0.0], dopplers=[0.0])
    with pytest.raises(ValueError):
        ChannelRealization(gains=[[1.0, 1.0]], delays=[-1e-9], dopplers=[0.0])


@pytest.mark.parametrize(
    "gains, delays, dopplers, match",
    [
        ([1.0, 1.0], [0.0], [0.0], r"paths, 2\], got shape \(2,\)"),
        (np.empty((0, 2)), [], [], "path count 0"),
        (np.ones((L_MAX + 1, 2)), np.zeros(L_MAX + 1), np.zeros(L_MAX + 1),
         f"path count {L_MAX + 1} outside 1..{L_MAX}"),
        (np.empty((1, 0)), [0.0], [0.0], r"paths, 2\], got shape \(1, 0\)"),
        (np.ones((1, 1)), [0.0], [0.0], r"paths, 2\], got shape \(1, 1\)"),
        (np.ones((1, 3)), [0.0], [0.0], r"paths, 2\], got shape \(1, 3\)"),
        ([[1.0, 1.0], [1.0, 1.0]], [0.0], [0.0, 0.0], "delays"),
        ([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], [0.0], "dopplers"),
        ([[1.0, np.nan]], [0.0], [0.0], "gains holds a non-finite value"),
        ([[1.0, 1.0]], [-1e-9], [0.0], "non-negative"),
        ([[1.0, 1.0]], [np.nan], [0.0], "non-negative"),
        ([[1.0, 1.0]], [0.0], [np.inf], "dopplers holds a non-finite value"),
    ],
    ids=["not-2d", "no-paths", "too-many-paths", "no-antennas", "one-antenna",
         "three-antennas", "delay-count", "doppler-count", "nan-gain", "negative-delay",
         "nan-delay", "inf-doppler"],
)
def test_realization_rejects_each_invalid_field(gains, delays, dopplers, match):
    with pytest.raises(ValueError, match=match):
        ChannelRealization(gains=gains, delays=delays, dopplers=dopplers)


@pytest.mark.parametrize(
    "field, value",
    [("delays", [1e-7 + 1e-9j]), ("dopplers", np.array([5.0 + 0j])),
     ("delays", np.array(["0"])), ("delays", [True]), ("dopplers", [b"0"]),
     ("dopplers", np.array([0.0], dtype=object)),
     ("gains", [[True, False]]), ("gains", [["1", "1"]]), ("gains", [[b"1", b"1"]]),
     ("gains", np.array([[1.0, 1.0]], dtype=object))],
    ids=["complex-delay", "complex-doppler", "str-delay", "bool-delay", "bytes-doppler",
         "object-doppler", "bool-gains", "str-gains", "bytes-gains", "object-gains"],
)
def test_realization_rejects_a_field_of_the_wrong_number_type(field, value):
    # a complex delay or Doppler used to lose its imaginary part with only a
    # ComplexWarning; a str, bool or object field used to be cast silently
    fields = {"gains": [[1.0, 1.0]], "delays": [0.0], "dopplers": [0.0], field: value}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ChannelRealization(**fields)


def test_realization_equality_is_identity():
    a, b = flat_unit_channel(2), flat_unit_channel(2)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_realization_owns_read_only_arrays():
    gains = np.ones((2, 2), complex)
    delays = np.array([0.0, 1e-7])
    ch = ChannelRealization(gains=gains, delays=delays, dopplers=[5.0, -5.0])
    gains[0, 0] = 7.0
    delays[1] = 9.0
    assert ch.gains[0, 0] == 1.0 and ch.delays[1] == 1e-7
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


def test_cir_invalid_realization_is_a_file_error(tmp_path):
    path = tmp_path / "bad.cir"
    # no path, and one path beyond the budget
    for path_counts in ([1, 0], [1, L_MAX + 1]):
        path.write_bytes(_tpcr(2, path_counts))
        with pytest.raises(ChannelFileError, match=f"realization 1: path count {path_counts[1]}"):
            import_cirs(path)


@pytest.mark.parametrize("n_rx", [0, 1, 3])
@pytest.mark.parametrize("path_counts", [[], [1]], ids=["empty", "one-realization"])
def test_cir_header_of_another_antenna_count_is_a_file_error(tmp_path, n_rx, path_counts):
    path = tmp_path / "other.cir"
    path.write_bytes(_tpcr(n_rx, path_counts))
    with pytest.raises(ChannelFileError, match=f"channel file has {n_rx} RX antennas, need 2"):
        import_cirs(path)


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda ch: pickle.loads(pickle.dumps(ch))],
    ids=["deepcopy", "pickle"],
)
def test_copied_realization_is_read_only_and_equal(clone, rng):
    ch = synth_channel(rng, SynthParams(n_rx=2))
    twin = clone(ch)
    assert twin is not ch
    for name in ("gains", "delays", "dopplers"):
        a, b = getattr(ch, name), getattr(twin, name)
        assert np.array_equal(a, b)
        assert b.flags.c_contiguous and not b.flags.writeable


# ---------------------------------------------------------------------------
# response memo
# ---------------------------------------------------------------------------


@pytest.fixture
def evaluations():
    """Count of response evaluations (memo misses) since the test began."""
    channel._memo_response.cache_clear()
    return lambda: channel._memo_response.cache_info().misses


def test_response_is_read_only(cfg_2p, rng):
    h = freq_response_grid(synth_channel(rng, SynthParams()), cfg_2p)
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0, 0, 0] = 0


def test_response_memo_is_shared_by_configs_on_one_lattice(
    cfg_2p, cfg_1p, rng, evaluations
):
    ch = synth_channel(rng, SynthParams())
    h = freq_response_grid(ch, cfg_2p)
    assert freq_response_grid(ch, cfg_1p) is h
    assert evaluations() == 1


def test_response_memo_misses_on_another_realization_only(cfg_2p, rng, evaluations):
    ch = synth_channel(rng, SynthParams())
    h = freq_response_grid(ch, cfg_2p)
    twin = ChannelRealization(ch.gains, ch.delays, ch.dopplers)
    h_twin = freq_response_grid(twin, cfg_2p)
    assert np.array_equal(h_twin, h)
    # apply on the twin reads the twin's entry
    assert np.array_equal(apply(twin, np.ones((14, 128), complex), None, rng), h_twin)
    assert freq_response_grid(twin, cfg_2p) is h_twin
    assert freq_response_grid(ch, cfg_2p) is not h
    assert evaluations() == 3
    assert np.array_equal(freq_response_grid(ch, cfg_2p), h)


def test_apply_returns_a_fresh_writeable_array(cfg_2p, qpsk, rng):
    ch = synth_channel(rng, SynthParams())
    grid = pack_bits(rng.integers(0, 2, size=2808), cfg_2p, qpsk)[0][0]
    h = freq_response_grid(ch, cfg_2p)
    before = h.copy()
    y = apply(ch, grid, NoiseSpec(3.0), rng)
    assert y.flags.writeable and not np.shares_memory(y, h)
    y[...] = 0
    assert freq_response_grid(ch, cfg_2p) is h
    assert np.array_equal(h, before)


def test_link_evaluates_each_response_once(cfg_2p, qpsk, rng, evaluations):
    ch = synth_channel(rng, SynthParams())
    grids, _ = pack_bits(rng.integers(0, 2, size=3 * 2808), cfg_2p, qpsk)
    spec = NoiseSpec(5.0)
    h = freq_response_grid(ch, cfg_2p)
    for g in grids:
        y = apply(ch, g, spec, rng)
        receive_perfect_csi(y, cfg_2p, spec.noise_variance, qpsk, h)
    assert len(grids) == 3 and evaluations() == 1
