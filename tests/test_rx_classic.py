import math

import numpy as np
import pytest

from telempose.channel import (
    NoiseSpec,
    SynthParams,
    apply,
    flat_unit_channel,
    freq_response_grid,
    synth_channel,
)
from telempose.grid import DATA, build_mask, pack_bits, unpack_llrs
from telempose.modem import hard_decide
from telempose.rx_classic import (
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


def test_interpolate_requires_pilots(cfg_2p):
    import dataclasses

    no_pilots = dataclasses.replace(cfg_2p, pilot_symbol_indices=())
    with pytest.raises(ValueError):
        interpolate(np.zeros((1, 0, 117), complex), no_pilots)


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
    grids, record = pack_bits(bits, cfg, qpsk)
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
    llrs = unpack_llrs(llr_grids, record, cfg)
    return hard_decide(llrs)


def test_receive_classic_high_snr_flat_is_error_free(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    out = _run_link(bits, cfg_2p, qpsk, flat_unit_channel(1), 16.0, rng, "classic")
    assert np.array_equal(out, bits)


def test_perfect_csi_matches_qpsk_closed_form(cfg_2p, qpsk):
    # Eb/N0 = 4 dB: Q(sqrt(2*10^0.4)) = 0.0125
    rng = np.random.default_rng(42)
    target = qfunc(np.sqrt(2 * 10 ** (4.0 / 10)))
    n_bits = 1_200_000
    errors = 0
    sent = 0
    ch = flat_unit_channel(1)
    while sent < n_bits:
        bits = rng.integers(0, 2, size=2808 * 10)
        out = _run_link(bits, cfg_2p, qpsk, ch, 4.0, rng, "perfect-csi")
        errors += int(np.count_nonzero(out != bits))
        sent += bits.size
    ber = errors / sent
    assert ber == pytest.approx(target, rel=0.10)


def test_receive_classic_accepts_zero_noise_variance(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    grids, record = pack_bits(bits, cfg_2p, qpsk)
    y = apply(flat_unit_channel(2), grids[0], None, rng)
    llr = receive_classic(y, cfg_2p, 0.0, qpsk)
    assert np.all(np.isfinite(llr))
    assert np.array_equal(hard_decide(unpack_llrs([llr], record, cfg_2p)), bits)


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
            grids, record = pack_bits(bits, cfg_2p, qpsk)
            ch = synth_channel(rng_ch, params)
            y = apply(ch, grids[0], spec, rng_noise)
            h = freq_response_grid(ch, cfg_2p)
            for which, llr in (
                ("p", receive_perfect_csi(y, cfg_2p, spec.noise_variance, qpsk, h)),
                ("c", receive_classic(y, cfg_2p, spec.noise_variance, qpsk)),
            ):
                out = hard_decide(unpack_llrs([llr], record, cfg_2p))
                errs = int(np.count_nonzero(out != bits))
                if which == "p":
                    err_p += errs
                else:
                    err_c += errs
            total += bits.size
        assert err_p <= err_c


def test_2p_beats_1p_under_doppler(cfg_2p, cfg_1p, qpsk):
    # common channel and noise realizations for both pilot configurations
    params = SynthParams(n_rx=2, speed_range_mps=(13.6, 18.8))
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
                grids, record = pack_bits(bits, cfg, qpsk)
                ch = synth_channel(rng_ch, params)
                y = apply(ch, grids[0], spec, rng_noise)
                llr = receive_classic(y, cfg, spec.noise_variance, qpsk)
                out = hard_decide(unpack_llrs([llr], record, cfg))
                err += int(np.count_nonzero(out != bits))
                total += bits.size
            errors[len(cfg.pilot_symbol_indices)] = err / total
        assert errors[2] <= errors[1]
