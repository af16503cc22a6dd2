"""Fixed-seed statistical oracles for the link model.

Each test compares a Monte-Carlo mean with its closed form. The tolerance
is five standard errors of that mean, from a variance (or a bound on it)
stated with the test and the test's own sample count, so a wrong model
fails and a correct one passes at any seed.
"""

import math

import numpy as np
import pytest

from telempose.channel import (
    N_RX,
    ChannelRealization,
    NoiseSpec,
    SynthParams,
    apply,
    flat_unit_channel,
    freq_response_grid,
    synth_channel,
)
from telempose.grid import (
    GridConfig,
    grid_capacity_bits,
    pack_bits,
    pilot_value_grid,
    unpack_llrs,
)
from telempose.modem import hard_decide
from telempose.rx_classic import interpolate, ls_estimate, receive_perfect_csi


def bessel_j0(x: float) -> float:
    """J0(x) = (1/pi) * integral over [0, pi] of cos(x sin t) dt, by the midpoint rule.

    The integrand is smooth and periodic, so 4096 nodes are exact to
    rounding.
    """
    t = (np.arange(4096) + 0.5) * (math.pi / 4096)
    return float(np.mean(np.cos(x * np.sin(t))))


def test_bessel_j0_quadrature():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j0(math.pi) == pytest.approx(-0.3042421776440939, abs=1e-15)
    assert bessel_j0(2.404825557695773) == pytest.approx(0.0, abs=1e-15)  # first zero


def test_response_power_is_one_at_every_element(cfg_2p):
    # Given the path delays, Dopplers and angles, every element of the
    # response is a sum of independent circular Gaussian gains whose
    # powers add to one, so |h|^2 is Exp(1) there: mean 1, variance 1.
    n = 3000
    rng = np.random.default_rng(20250307)
    params = SynthParams()
    power = np.zeros((params.n_rx, cfg_2p.n_symbols, cfg_2p.n_subcarriers))
    for _ in range(n):
        h = freq_response_grid(synth_channel(rng, params), cfg_2p)
        power += h.real**2 + h.imag**2
    power /= n
    assert np.max(np.abs(power - 1)) <= 5 / math.sqrt(n)


def test_two_antenna_correlation_is_j0_of_pi():
    # Half-wavelength spacing under a uniform angle of arrival: the mean of
    # exp(-j pi sin(aoa)) is J0(pi). h0 h1* at the first symbol and the
    # centre subcarrier is sum_l g_l0 * sum_l conj(g_l1); its second moment
    # is at most 1 + sum_l p_l^2 <= 2, so each part's standard error is at
    # most sqrt(2 / n).
    n = 10_000
    rng = np.random.default_rng(20250308)
    params = SynthParams(n_rx=2)
    total = 0j
    for _ in range(n):
        h = synth_channel(rng, params).gains.sum(axis=0)
        total += h[0] * np.conj(h[1])
    corr = total / n
    tol = 5 * math.sqrt(2 / n)
    assert abs(corr.real - bessel_j0(math.pi)) <= tol
    assert abs(corr.imag) <= tol


@pytest.mark.parametrize("n_pilots", [2, 1], ids=["2P", "1P"])
def test_ls_interpolation_error_variance(qpsk, n_pilots):
    # LS at a unit-power pilot leaves an error of the noise variance s2,
    # independent between pilot columns, so linear interpolation with
    # weight w leaves ((1 - w)^2 + w^2) s2. |error|^2 is s2 times Exp(1), so
    # its mean over m samples has a relative standard error of 1/sqrt(m).
    cfg = GridConfig(n_pilots)
    n_grids = 200
    rng = np.random.default_rng(20250309)
    ch, spec = flat_unit_channel(2), NoiseSpec(5.0, qpsk.bits_per_symbol)
    rows, eff = list(cfg.pilot_symbol_indices), cfg.effective_slice
    pilot_values = pilot_value_grid(cfg)[rows, eff]
    err2 = np.zeros(cfg.n_symbols)
    for _ in range(n_grids):
        bits = rng.integers(0, 2, size=grid_capacity_bits(cfg, qpsk), dtype=np.uint8)
        symbols, _ = pack_bits(bits, cfg, qpsk)
        y = apply(ch, symbols[0], spec, rng)
        h_hat = interpolate(ls_estimate(y[:, rows, eff], pilot_values), cfg)
        err = h_hat - 1  # the flat channel's response is 1 everywhere
        err2 += (err.real**2 + err.imag**2).sum(axis=(0, 2))
    m = n_grids * N_RX * (eff.stop - eff.start)
    measured = err2 / m / spec.noise_variance
    s = np.arange(cfg.n_symbols)
    if n_pilots == 1:
        w = np.zeros(cfg.n_symbols)
    else:
        w = np.clip((s - 2) / (12 - 2), 0, 1)  # the 2P columns are symbols 2 and 12
    expected = (1 - w) ** 2 + w**2
    assert np.all(np.abs(measured / expected - 1) <= 5 / math.sqrt(m)), measured / expected


def mrc_ber(ebn0: float, n_rx: int) -> float:
    """Bit error rate of Gray QPSK with maximal-ratio combining over n_rx i.i.d. Rayleigh branches.

    Simon & Alouini, ch. 9: at mean Eb/N0 ``ebn0`` per branch (linear),
    mu = sqrt(ebn0 / (1 + ebn0)) and, with L = n_rx,
    P = ((1 - mu) / 2)^L * sum over k < L of C(L - 1 + k, k) ((1 + mu) / 2)^k.
    """
    mu = math.sqrt(ebn0 / (1 + ebn0))
    return ((1 - mu) / 2) ** n_rx * sum(
        math.comb(n_rx - 1 + k, k) * ((1 + mu) / 2) ** k for k in range(n_rx)
    )


def fade_error_moments(ebn0: float, n_rx: int) -> tuple:
    """E[p] and E[p^2] over the fade of a bit's error probability p given the gains h.

    After maximal-ratio combining, a Gray QPSK bit errs with
    p = Q(sqrt(2 ebn0 |h|^2)) = erfc(sqrt(ebn0) |h|) / 2, and |h|^2 is a sum
    of n_rx Exp(1). By the midpoint rule in u = |h| on [0, 8], where the
    density 2 u^(2 n_rx - 1) exp(-u^2) / (n_rx - 1)! is smooth.
    """
    du = 8 / 4096
    u = (np.arange(4096) + 0.5) * du
    p = np.array([math.erfc(math.sqrt(ebn0) * x) / 2 for x in u])
    weight = 2 * u ** (2 * n_rx - 1) * np.exp(-u * u) / math.factorial(n_rx - 1) * du
    return float(p @ weight), float(p * p @ weight)


@pytest.mark.parametrize("n_rx", [1, 2])
@pytest.mark.parametrize("ebn0", [1.0, 4.0, 10.0])
def test_mrc_ber_closed_form_matches_quadrature(ebn0, n_rx):
    assert fade_error_moments(ebn0, n_rx)[0] == pytest.approx(mrc_ber(ebn0, n_rx), abs=1e-6)


@pytest.mark.parametrize("n_rx", [1, 2])
def test_perfect_csi_ber_on_flat_rayleigh_is_the_mrc_closed_form(qpsk, n_rx):
    # Each grid draws one CN(0, 1) gain per branch on a single path with no
    # delay and no Doppler, so the grids are the independent fades. One
    # branch is the 2-antenna link with a second gain of 0: that antenna
    # receives noise only, which combining weights by its zero gain. Given
    # the fade, a grid's n_bits errors are independent with probability p,
    # so its error fraction has variance
    # E[p^2] - P^2 + (P - E[p^2]) / n_bits over the fades.
    cfg = GridConfig()
    n_grids = 1500
    n_bits = grid_capacity_bits(cfg, qpsk)
    rng = np.random.default_rng(20250310 + n_rx)
    for ebn0_db in (0.0, 6.0):
        spec = NoiseSpec(ebn0_db, qpsk.bits_per_symbol)
        bits = rng.integers(0, 2, size=n_grids * n_bits, dtype=np.uint8)
        symbols, payload = pack_bits(bits, cfg, qpsk)
        llrs = []
        for grid_symbols in symbols:
            gains = np.zeros((1, N_RX), complex)
            gains[:, :n_rx] = rng.standard_normal((1, n_rx)) + 1j * rng.standard_normal((1, n_rx))
            ch = ChannelRealization(gains / math.sqrt(2), np.zeros(1), np.zeros(1))
            y = apply(ch, grid_symbols, spec, rng)
            h = freq_response_grid(ch, cfg)
            llrs.append(receive_perfect_csi(y, cfg, spec.noise_variance, qpsk, h))
        measured = np.mean(hard_decide(unpack_llrs(llrs, payload, cfg)) != bits)
        g = 10 ** (ebn0_db / 10)
        expected = mrc_ber(g, n_rx)
        p2 = fade_error_moments(g, n_rx)[1]
        var = p2 - expected**2 + (expected - p2) / n_bits
        assert abs(measured - expected) <= 5 * math.sqrt(var / n_grids), (
            ebn0_db, measured, expected,
        )
