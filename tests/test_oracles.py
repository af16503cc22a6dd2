"""Fixed-seed statistical oracles for the link model.

Each test compares a Monte-Carlo mean with its closed form. The tolerance
is five standard errors of that mean, from a variance bound stated with
the test and the test's own sample count, so a wrong model fails and a
correct one passes at any seed.
"""

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
from telempose.grid import GridConfig, grid_capacity_bits, pack_bits, pilot_value_grid
from telempose.rx_classic import interpolate, ls_estimate


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


@pytest.mark.parametrize("pilots", [(2, 12), (2,)], ids=["2P", "1P"])
def test_ls_interpolation_error_variance(qpsk, pilots):
    # LS at a unit-power pilot leaves an error of the noise variance s2,
    # independent between pilot columns, so linear interpolation with
    # weight w leaves ((1 - w)^2 + w^2) s2. |error|^2 is s2 times Exp(1), so
    # its mean over m samples has a relative standard error of 1/sqrt(m).
    cfg = GridConfig(pilot_symbol_indices=pilots)
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
    m = n_grids * ch.n_rx * (eff.stop - eff.start)
    measured = err2 / m / spec.noise_variance
    s = np.arange(cfg.n_symbols)
    if len(pilots) == 1:
        w = np.zeros(cfg.n_symbols)
    else:
        w = np.clip((s - pilots[0]) / (pilots[1] - pilots[0]), 0, 1)
    expected = (1 - w) ** 2 + w**2
    assert np.all(np.abs(measured / expected - 1) <= 5 / math.sqrt(m)), measured / expected
