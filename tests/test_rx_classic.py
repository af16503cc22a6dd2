import math
import re

import numpy as np
import pytest

from telempose.channel import (
    ChannelRealization,
    NoiseSpec,
    SynthParams,
    apply,
    flat_unit_channel,
    freq_response_grid,
    synth_channel,
)
from telempose.grid import (
    DATA,
    GridConfig,
    build_mask,
    pack_bits,
    pilot_value_grid,
    unpack_llrs,
)
from telempose.modem import hard_decide, llr_maxlog
from telempose.rx_classic import (
    _interp_weights,
    interpolate,
    lmmse_equalize,
    ls_estimate,
    receive_classic,
    receive_perfect_csi,
)


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2))


# ---------------------------------------------------------------------------
# LS estimation
# ---------------------------------------------------------------------------


def test_ls_exact_on_noiseless_pilots(rng):
    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = np.exp(1j * rng.uniform(0, 2 * np.pi))
    y = h * c
    assert np.allclose(ls_estimate(y, c), h, atol=1e-14)


def test_ls_unit_pilot_passthrough():
    y = np.array([2 - 1j, 0.5j])
    assert np.allclose(ls_estimate(y, 1 + 0j), y)


def test_ls_rejects_unnormalized_pilots():
    with pytest.raises(ValueError):
        ls_estimate(np.array([1.0 + 0j]), np.array([2.0 + 0j]))


@pytest.mark.parametrize("magnitude", [1 + 1e-8, 1 - 1e-8, 1.000009])
def test_ls_pilot_power_check_is_absolute(magnitude):
    y = np.array([1.0 + 0j])
    with pytest.raises(ValueError, match="unit power"):
        ls_estimate(y, magnitude * np.exp(0.3j))
    ls_estimate(y, (1 + 1e-10) * np.exp(0.3j))


def test_ls_error_power_matches_noise(rng):
    # E||Hhat - H||^2 = n_rx * sigma^2 under unit pilots
    n_rx, n_trials, sigma2 = 2, 100_000, 0.3
    h = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
    c = np.exp(1j * rng.uniform(0, 2 * np.pi, size=n_trials))
    noise = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((n_rx, n_trials)) + 1j * rng.standard_normal((n_rx, n_trials))
    )
    y = h[:, None] * c + noise
    err = ls_estimate(y, c) - h[:, None]
    power = np.mean(np.sum(np.abs(err) ** 2, axis=0))
    assert power == pytest.approx(n_rx * sigma2, rel=0.03)
    # and the estimate is unbiased
    assert np.all(np.abs(err.mean(axis=1)) < 4 * np.sqrt(sigma2 / n_trials))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolate_constant_channel_2p(cfg_2p, rng):
    h = rng.standard_normal((2, 1, 117)) + 1j * rng.standard_normal((2, 1, 117))
    est = np.repeat(h, 2, axis=1)  # both pilot columns see the same channel
    full = interpolate(est, cfg_2p)
    assert full.shape == (2, 14, 117)
    assert np.allclose(full, h, atol=1e-14)


def test_interpolate_1p_copies_single_column(cfg_1p, rng):
    est = rng.standard_normal((2, 1, 117)) + 1j * rng.standard_normal((2, 1, 117))
    full = interpolate(est, cfg_1p)
    for i in range(14):
        assert np.array_equal(full[:, i, :], est[:, 0, :])


def test_interpolate_linear_in_time_2p(cfg_2p, rng):
    # H[i] = H0 * (1 + eps*i) is recovered exactly between the pilot
    # columns; outside, the end values extend as constants
    h0 = rng.standard_normal((1, 117)) + 1j * rng.standard_normal((1, 117))
    eps = 0.03
    est = np.stack([h0 * (1 + eps * 2), h0 * (1 + eps * 12)], axis=1)
    full = interpolate(est, cfg_2p)
    for i in range(2, 13):
        assert np.allclose(full[:, i, :], h0 * (1 + eps * i), atol=1e-12)
    assert np.allclose(full[:, 0, :], h0 * (1 + eps * 2), atol=1e-12)
    assert np.allclose(full[:, 13, :], h0 * (1 + eps * 12), atol=1e-12)


@pytest.mark.parametrize("n_pilots", [1, 2])
def test_interpolate_matches_np_interp_per_element(n_pilots, rng):
    cfg = GridConfig(n_pilots)
    est = rng.standard_normal((2, n_pilots, 117)) + 1j * rng.standard_normal((2, n_pilots, 117))
    full = interpolate(est, cfg)
    xs = np.asarray(cfg.pilot_symbol_indices, float)
    for k in range(2):
        for n in (0, 58, 116):
            for part in (np.real, np.imag):
                ref = np.interp(np.arange(14), xs, part(est[k, :, n]))
                assert np.allclose(part(full[k, :, n]), ref, rtol=0, atol=1e-14)


def test_the_interpolation_weights_of_both_layouts(cfg_1p, cfg_2p):
    assert np.array_equal(_interp_weights(cfg_1p), np.ones((14, 1)))
    weights = _interp_weights(cfg_2p)
    assert weights.shape == (14, 2) and not weights.flags.writeable
    assert np.array_equal(weights[:3], [[1.0, 0.0]] * 3)
    assert np.array_equal(weights[7], [0.5, 0.5])
    assert np.array_equal(weights[12:], [[0.0, 1.0]] * 2)


@pytest.mark.parametrize(
    "n_pilots, shape",
    [(2, (2, 3, 117)), (1, (2, 2, 117)), (2, (2, 117)), (2, (2, 2, 116))],
    ids=["3-columns-on-2P", "2-columns-on-1P", "2-D", "116-subcarriers"],
)
def test_interpolate_names_the_shape_it_needs(n_pilots, shape):
    expected = f"[n_rx, {n_pilots}, 117], got {list(shape)}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        interpolate(np.ones(shape, complex), GridConfig(n_pilots))


# ---------------------------------------------------------------------------
# LMMSE equalization
# ---------------------------------------------------------------------------


def test_lmmse_noiseless_single_tap():
    c_hat, post, bias = lmmse_equalize(
        np.array([[2.0 + 0j]]), np.array([[2.0 + 0j]]), noise_var=0.0
    )
    assert c_hat[0] == pytest.approx(1.0)
    assert post[0] == 0.0
    assert bias[0] == pytest.approx(1.0)


def test_lmmse_scalar_hand_value():
    # H=2, y=2, sigma^2=4 -> c_hat = 4/(4+4) = 0.5
    c_hat, post, bias = lmmse_equalize(
        np.array([[2.0 + 0j]]), np.array([[2.0 + 0j]]), noise_var=4.0
    )
    assert c_hat[0] == pytest.approx(0.5)
    assert bias[0] == pytest.approx(0.5)
    assert post[0] == pytest.approx(4.0 * 4.0 / 64.0)


def test_lmmse_two_antenna_matched_filter():
    h = np.array([[1.0 + 0j], [1j]])
    c = (1 + 1j) / np.sqrt(2)
    c_hat, _, bias = lmmse_equalize(h * c, h, noise_var=0.0)
    assert c_hat[0] == pytest.approx(c)
    assert bias[0] == pytest.approx(1.0)


def test_lmmse_zero_channel_flags_erasure():
    c_hat, post, bias = lmmse_equalize(
        np.array([[1.0 + 0j]]), np.array([[0.0 + 0j]]), noise_var=0.5
    )
    assert bias[0] == 0.0
    assert c_hat[0] == 0.0


@pytest.mark.parametrize("noise_var", [0.0, 0.3])
def test_lmmse_matches_docstring_formulas(noise_var, rng):
    shape = (3, 14, 117)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c_hat, post, bias = lmmse_equalize(y, h, noise_var)
    norm2 = np.sum(np.abs(h) ** 2, axis=0)
    denom = norm2 + noise_var
    assert np.allclose(c_hat, np.sum(np.conj(h) * y, axis=0) / denom, rtol=1e-13, atol=0)
    assert np.allclose(bias, norm2 / denom, rtol=1e-13, atol=0)
    assert np.allclose(post, noise_var * norm2 / denom**2, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "h_shape", [(1, 14, 117), (2, 14, 1), (2, 1, 117), (14, 117)],
    ids=["one-antenna", "one-subcarrier", "one-symbol", "no-antenna-axis"],
)
def test_lmmse_rejects_an_estimate_of_another_shape(rng, h_shape):
    # a [1, ...] estimate against a 2-antenna y used to broadcast to a wrong
    # c_hat (1.82 where two-antenna MRC gives about 0.95)
    y = rng.standard_normal((2, 14, 117)) + 0j
    with pytest.raises(ValueError, match=r"\(2, 14, 117\)") as err:
        lmmse_equalize(y, np.ones(h_shape, complex), 0.1)
    assert str(h_shape) in str(err.value)


@pytest.mark.parametrize(
    "noise_var", [np.array([0.1, 0.2]), [0.1, 0.1], np.full((2, 1, 1), 0.1)],
    ids=["vector", "list", "per-antenna"],
)
def test_lmmse_rejects_more_than_one_noise_variance(rng, noise_var):
    y = rng.standard_normal((2, 14, 117)) + 0j
    with pytest.raises(ValueError, match="^noise_var must be one"):
        lmmse_equalize(y, y, noise_var)


def test_lmmse_takes_a_numpy_scalar_or_a_0d_noise_variance(rng):
    y = rng.standard_normal((2, 14, 117)) + 0j
    h = rng.standard_normal((2, 14, 117)) + 0j
    expected = lmmse_equalize(y, h, 0.1)
    for noise_var in (np.float64(0.1), np.array(0.1)):
        for got, want in zip(lmmse_equalize(y, h, noise_var), expected):
            assert np.array_equal(got, want)


def test_equalizer_phase_correctness(rng):
    # noiseless random single-tap channels leave no residual rotation
    for _ in range(200):
        h = (rng.standard_normal(2) + 1j * rng.standard_normal(2)).reshape(2, 1)
        c = np.exp(1j * rng.uniform(0, 2 * np.pi))
        c_hat, _, bias = lmmse_equalize(h * c, h, noise_var=0.0)
        assert abs(np.angle(c_hat[0] / bias[0] / c)) < 1e-9


# ---------------------------------------------------------------------------
# full receiver
# ---------------------------------------------------------------------------


def _run_link(bits, cfg, qpsk, ch, ebn0_db, rng, receiver):
    grids, payload = pack_bits(bits, cfg, qpsk)
    spec = NoiseSpec(ebn0_db, qpsk.bits_per_symbol)
    llr_grids = []
    for g in grids:
        y = apply(ch, g, spec, rng)
        if receiver == "perfect-csi":
            h = freq_response_grid(ch, cfg)
            llr = receive_perfect_csi(y, cfg, spec.noise_variance, qpsk, h)
        else:
            llr = receive_classic(y, cfg, spec.noise_variance, qpsk)
        llr_grids.append(llr)
    llrs = unpack_llrs(llr_grids, payload, cfg)
    return hard_decide(llrs)


def test_receive_classic_high_snr_flat_is_error_free(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    out = _run_link(bits, cfg_2p, qpsk, flat_unit_channel(), 16.0, rng, "classic")
    assert np.array_equal(out, bits)


def test_perfect_csi_matches_qpsk_closed_form(cfg_2p, qpsk):
    # Eb/N0 = 4 dB on one unit branch: Q(sqrt(2*10^0.4)) = 0.0125. The second
    # antenna's gain is 0, so it receives noise only and combining ignores it.
    rng = np.random.default_rng(42)
    target = qfunc(np.sqrt(2 * 10 ** (4.0 / 10)))
    n_bits = 1_200_000
    errors = 0
    sent = 0
    ch = ChannelRealization([[1.0, 0.0]], [0.0], [0.0])
    while sent < n_bits:
        bits = rng.integers(0, 2, size=2808 * 10)
        out = _run_link(bits, cfg_2p, qpsk, ch, 4.0, rng, "perfect-csi")
        errors += int(np.count_nonzero(out != bits))
        sent += bits.size
    ber = errors / sent
    assert ber == pytest.approx(target, rel=0.10)


def test_receive_classic_accepts_zero_noise_variance(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    grids, payload = pack_bits(bits, cfg_2p, qpsk)
    y = apply(flat_unit_channel(2), grids[0], None, rng)
    llr = receive_classic(y, cfg_2p, 0.0, qpsk)
    assert np.all(np.isfinite(llr))
    assert np.array_equal(hard_decide(unpack_llrs([llr], payload, cfg_2p)), bits)


@pytest.mark.parametrize("noise_var", [np.nan, np.inf, -np.inf, -0.5])
def test_non_finite_or_negative_noise_variance_is_rejected(cfg_2p, qpsk, rng, noise_var):
    grids, _ = pack_bits(rng.integers(0, 2, size=2808), cfg_2p, qpsk)
    y = apply(flat_unit_channel(2), grids[0], None, rng)
    with pytest.raises(ValueError, match="noise_var"):
        receive_classic(y, cfg_2p, noise_var, qpsk)
    with pytest.raises(ValueError, match="noise_var"):
        lmmse_equalize(y, np.ones_like(y), noise_var)


def test_erasure_path_yields_zero_llrs(cfg_2p, qpsk):
    y = np.zeros((1, 14, 128), complex)
    llr = receive_classic(y, cfg_2p, 0.5, qpsk)
    assert np.all(llr == 0.0)
    assert np.all(hard_decide(llr) == 0)


def test_erased_elements_yield_zero_llrs_among_live_ones(cfg_2p, qpsk, rng):
    # perfect CSI with a dead subcarrier band: bias == 0 there, and only there
    h = np.ones((2, 14, 128), complex)
    h[:, :, 40:50] = 0.0
    y = h * (rng.standard_normal((14, 128)) + 1j * rng.standard_normal((14, 128)))
    llr = receive_perfect_csi(y, cfg_2p, 0.1, qpsk, h)
    data = build_mask(cfg_2p) == DATA
    dead = np.zeros_like(data)
    dead[:, 40:50] = True
    assert np.all(llr[dead] == 0.0)
    assert np.all(llr[~data] == 0.0)
    assert np.all(llr[data & ~dead] != 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "where", [(0, 2, 60), (1, 7, 0), (1, 5, 64)], ids=["pilot", "guard", "data"]
)
def test_non_finite_received_grid_is_rejected(cfg_2p, qpsk, bad, where):
    y = np.ones((2, 14, 128), complex)
    h = np.ones((2, 14, 128), complex)
    for value in (complex(bad, 0.0), complex(0.0, bad)):
        y_bad = y.copy()
        y_bad[where] = value
        with pytest.raises(ValueError, match="non-finite"):
            receive_classic(y_bad, cfg_2p, 0.1, qpsk)
        with pytest.raises(ValueError, match="non-finite"):
            receive_perfect_csi(y_bad, cfg_2p, 0.1, qpsk, h)
        h_bad = h.copy()
        h_bad[where] = value
        with pytest.raises(ValueError, match="non-finite"):
            receive_perfect_csi(y, cfg_2p, 0.1, qpsk, h_bad)


def test_perfect_csi_not_worse_than_ls_lmmse(cfg_2p, qpsk):
    # paired Monte-Carlo on common received grids
    params = SynthParams(n_rx=2)
    for ebn0 in (0.0, 6.0):
        rng_ch = np.random.default_rng(7)
        rng_noise = np.random.default_rng(8)
        rng_bits = np.random.default_rng(9)
        err_p, err_c, total = 0, 0, 0
        spec = NoiseSpec(ebn0, 2)
        for _ in range(40):
            bits = rng_bits.integers(0, 2, size=2808)
            grids, payload = pack_bits(bits, cfg_2p, qpsk)
            ch = synth_channel(rng_ch, params)
            y = apply(ch, grids[0], spec, rng_noise)
            h = freq_response_grid(ch, cfg_2p)
            for which, llr in (
                ("p", receive_perfect_csi(y, cfg_2p, spec.noise_variance, qpsk, h)),
                ("c", receive_classic(y, cfg_2p, spec.noise_variance, qpsk)),
            ):
                out = hard_decide(unpack_llrs([llr], payload, cfg_2p))
                errs = int(np.count_nonzero(out != bits))
                if which == "p":
                    err_p += errs
                else:
                    err_c += errs
            total += bits.size
        assert err_p <= err_c


def test_2p_beats_1p_under_doppler(cfg_2p, cfg_1p, qpsk):
    # common channel and noise realizations for both pilot configurations
    params = SynthParams(n_rx=2)
    for ebn0 in (2.0, 8.0):
        errors = {}
        for cfg in (cfg_2p, cfg_1p):
            rng_ch = np.random.default_rng(21)
            rng_noise = np.random.default_rng(22)
            rng_bits = np.random.default_rng(23)
            spec = NoiseSpec(ebn0, 2)
            err, total = 0, 0
            for _ in range(60):
                capacity = int(np.count_nonzero(build_mask(cfg) == DATA)) * 2
                bits = rng_bits.integers(0, 2, size=capacity)
                grids, payload = pack_bits(bits, cfg, qpsk)
                ch = synth_channel(rng_ch, params)
                y = apply(ch, grids[0], spec, rng_noise)
                llr = receive_classic(y, cfg, spec.noise_variance, qpsk)
                out = hard_decide(unpack_llrs([llr], payload, cfg))
                err += int(np.count_nonzero(out != bits))
                total += bits.size
            errors[len(cfg.pilot_symbol_indices)] = err / total
        assert errors[2] <= errors[1]


# ---------------------------------------------------------------------------
# the receivers against their public stages
# ---------------------------------------------------------------------------


def _composed(y, cfg, noise_var, const, h_true=None):
    """A receiver composed from the public stages, with its unbias/demap glue.

    LS -> interpolate (or the true response) -> LMMSE -> unbias -> max-log,
    as the traced benchmark run composes ``receive_classic``.
    """
    eff = cfg.effective_slice
    if h_true is None:
        idx = list(cfg.pilot_symbol_indices)
        h_p = ls_estimate(y[:, idx, eff], pilot_value_grid(cfg)[idx, eff])
        h_full = interpolate(h_p, cfg)
    else:
        h_full = h_true[:, :, eff]
    c_hat, post_var, bias = lmmse_equalize(y[:, :, eff], h_full, noise_var)
    live = bias > 0
    c_unbiased = np.zeros_like(c_hat)
    var_eff = np.ones_like(post_var)
    c_unbiased[live] = c_hat[live] / bias[live]
    var_eff[live] = np.maximum(post_var[live] / bias[live] ** 2, 1e-30)
    llr_eff = llr_maxlog(c_unbiased, var_eff, const)
    llr_eff[~live] = 0.0
    llr = np.zeros((cfg.n_symbols, cfg.n_subcarriers, const.bits_per_symbol))
    llr[:, eff] = llr_eff
    llr[build_mask(cfg) != DATA] = 0.0
    return llr, int(np.count_nonzero(~live))


@pytest.mark.parametrize("erased", [False, True], ids=["live", "erased"])
@pytest.mark.parametrize("layout", ["cfg_1p", "cfg_2p"])
def test_receivers_equal_their_public_stages_bit_for_bit(layout, erased, qpsk, request):
    cfg = request.getfixturevalue(layout)
    rng = np.random.default_rng([4, len(cfg.pilot_symbol_indices)])
    ch = synth_channel(rng, SynthParams(n_rx=2))
    grids, _ = pack_bits(rng.integers(0, 2, size=6000), cfg, qpsk)
    spec = NoiseSpec(6.0)
    y = apply(ch, grids[0], spec, rng)
    h = np.array(freq_response_grid(ch, cfg))
    if erased:
        # pilots lost on a band of subcarriers, a dead response on another
        y[:, list(cfg.pilot_symbol_indices), 10:30] = 0.0
        h[:, 3:6, 40:50] = 0.0
    nv = spec.noise_variance
    ref, n_erased = _composed(y, cfg, nv, qpsk)
    assert (n_erased > 0) == erased
    assert np.array_equal(receive_classic(y, cfg, nv, qpsk), ref)
    ref, n_erased = _composed(y, cfg, nv, qpsk, h)
    assert (n_erased > 0) == erased
    assert np.array_equal(receive_perfect_csi(y, cfg, nv, qpsk, h), ref)


def test_perfect_csi_rejects_a_response_for_fewer_antennas(cfg_2p, qpsk):
    y, h = np.ones((2, 14, 128), complex), np.ones((1, 14, 128), complex)
    match = r"\(1, 14, 128\) does not match received grid \(2, 14, 128\)"
    with pytest.raises(ValueError, match=match):
        receive_perfect_csi(y, cfg_2p, 0.1, qpsk, h)


def test_perfect_csi_rejects_a_response_without_an_antenna_axis(cfg_2p, qpsk):
    y, h = np.ones((2, 14, 128), complex), np.ones((14, 128), complex)
    match = r"\(14, 128\) does not match received grid \(2, 14, 128\)"
    with pytest.raises(ValueError, match=match):
        receive_perfect_csi(y, cfg_2p, 0.1, qpsk, h)


@pytest.mark.parametrize(
    "shape",
    [(2, 14, 256), (2, 14, 64), (2, 7, 128), (14, 128), (1, 2, 14, 128)],
    ids=["more-subcarriers", "fewer-subcarriers", "fewer-symbols", "no-antenna-axis",
         "batched"],
)
def test_receivers_reject_a_grid_of_another_shape(cfg_2p, qpsk, shape):
    y = np.ones(shape, complex)
    with pytest.raises(ValueError, match="14x128"):
        receive_classic(y, cfg_2p, 0.1, qpsk)
    with pytest.raises(ValueError, match="14x128"):
        receive_perfect_csi(y, cfg_2p, 0.1, qpsk, np.ones(shape, complex))


def test_overflowing_equalizer_output_is_rejected(cfg_1p, qpsk):
    # finite inputs whose unbiased estimate h^H y / ||h||^2 overflows: the
    # demapper's finiteness check still runs (one pilot column keeps |h| fixed)
    y = np.full((2, 14, 128), 1e250 + 0j)
    h = np.full((2, 14, 128), 1e-70 + 0j)
    y[:, list(cfg_1p.pilot_symbol_indices)] = 1e-70
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="y_eq holds a non-finite value"):
            receive_perfect_csi(y, cfg_1p, 1.0, qpsk, h)
        with pytest.raises(ValueError, match="y_eq holds a non-finite value"):
            receive_classic(y, cfg_1p, 1.0, qpsk)


def test_overflowing_effective_noise_variance_is_rejected(cfg_2p, qpsk):
    # bias ** 2 underflows to zero on a live element, so var_eff is infinite
    y = np.ones((2, 14, 128), complex)
    h = np.full((2, 14, 128), 1e-100 + 0j)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="noise_var must be finite and positive"):
            receive_perfect_csi(y, cfg_2p, 1.0, qpsk, h)
