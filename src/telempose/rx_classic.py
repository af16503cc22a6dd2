"""Baseline receiver: LS channel estimation at pilots, time interpolation
across the grid, per-element LMMSE equalization, max-log soft demapping.

The noise variance is taken as known at the receiver; no blind estimator
is provided.
"""

from __future__ import annotations

import numpy as np

from .grid import DATA, GridConfig, build_mask, pilot_value_grid
from .modem import Constellation, llr_maxlog


def ls_estimate(y_pilots: np.ndarray, pilot_values: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate at pilot elements.

    ``y_pilots`` has the antenna axis first ([n_rx, ...]); ``pilot_values``
    broadcasts against the remaining axes and must be unit-power.
    """
    pilot_values = np.asarray(pilot_values)
    if not np.allclose(np.abs(pilot_values), 1.0, atol=1e-9):
        raise ValueError("pilot values must have unit power")
    return y_pilots * np.conj(pilot_values)


def interpolate(pilot_estimates: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Fill the time axis from per-pilot-column estimates.

    ``pilot_estimates`` is [n_rx, n_pilot_columns, n_effective], ordered
    like ``cfg.pilot_symbol_indices``. Pilot columns cover every effective
    subcarrier, so only time interpolation is needed: linear between pilot
    columns, constant extrapolation outside, plain copy for a single
    column.
    """
    times = np.asarray(cfg.pilot_symbol_indices, dtype=float)
    if times.size == 0:
        raise ValueError("no pilot columns to interpolate from")
    order = np.argsort(times)
    times = times[order]
    est = pilot_estimates[:, order, :]
    targets = np.arange(cfg.n_symbols, dtype=float)
    if times.size == 1:
        return np.repeat(est, cfg.n_symbols, axis=1)
    # piecewise-linear weights in time, clamped at the ends
    idx = np.clip(np.searchsorted(times, targets, side="right"), 1, times.size - 1)
    t0, t1 = times[idx - 1], times[idx]
    w = np.clip((targets - t0) / (t1 - t0), 0.0, 1.0)
    lo = est[:, idx - 1, :]
    hi = est[:, idx, :]
    return lo * (1.0 - w)[None, :, None] + hi * w[None, :, None]


def lmmse_equalize(y: np.ndarray, h_est: np.ndarray, noise_var: float):
    """Per-element LMMSE symbol estimate.

    ``y`` and ``h_est`` are [n_rx, ...]. Returns ``(c_hat, post_noise_var,
    bias)`` where ``c_hat = h^H y / (||h||^2 + noise_var)`` carries the
    LMMSE bias ``||h||^2 / (||h||^2 + noise_var)`` and ``post_noise_var``
    is the variance of its noise part, ``noise_var * ||h||^2 /
    (||h||^2 + noise_var)^2``. Dividing ``c_hat`` by the bias and
    ``post_noise_var`` by its square gives the unbiased pair used for
    demapping. Elements with a zero-norm estimate are flagged by
    bias == 0 and must be treated as erasures.
    """
    if not (np.isfinite(noise_var) and noise_var >= 0):
        raise ValueError(f"noise_var must be finite and non-negative, got {noise_var}")
    h_norm2 = np.sum(np.abs(h_est) ** 2, axis=0)
    denom = h_norm2 + noise_var
    with np.errstate(invalid="ignore", divide="ignore"):
        c_hat = np.where(denom > 0, np.sum(np.conj(h_est) * y, axis=0) / denom, 0.0)
    post_var = noise_var * h_norm2 / np.maximum(denom, np.finfo(float).tiny) ** 2
    bias = h_norm2 / np.maximum(denom, np.finfo(float).tiny)
    return c_hat, post_var, bias


def _demap(c_hat, post_var, bias, constellation, cfg):
    """Unbias the equalizer output and produce the LLR grid over DATA."""
    B = constellation.bits_per_symbol
    llr_grid = np.zeros((cfg.n_symbols, cfg.n_subcarriers, B))
    live = bias > 0
    c_unbiased = np.zeros_like(c_hat)
    var_eff = np.ones_like(post_var)
    c_unbiased[live] = c_hat[live] / bias[live]
    # floor keeps the demapper finite when called on noiseless input
    var_eff[live] = np.maximum(post_var[live] / bias[live] ** 2, 1e-30)
    llr_eff = llr_maxlog(c_unbiased, var_eff, constellation)
    llr_eff[~live] = 0.0  # erasures carry no information
    llr_grid[:, cfg.effective_slice, :] = llr_eff
    llr_grid[build_mask(cfg) != DATA] = 0.0
    return llr_grid


def receive_classic(
    y: np.ndarray, cfg: GridConfig, noise_var: float, constellation: Constellation
) -> np.ndarray:
    """LS + interpolate + LMMSE + max-log demap.

    ``y`` is the received array [n_rx, n_symbols, n_subcarriers]; the
    result is an LLR grid [n_symbols, n_subcarriers, B], zero outside
    DATA elements.
    """
    eff = cfg.effective_slice
    pilot_idx = list(cfg.pilot_symbol_indices)
    pilots = pilot_value_grid(cfg)[pilot_idx, eff]
    h_p = ls_estimate(y[:, pilot_idx, eff], pilots)
    h_full = interpolate(h_p, cfg)
    c_hat, post_var, bias = lmmse_equalize(y[:, :, eff], h_full, noise_var)
    return _demap(c_hat, post_var, bias, constellation, cfg)


def receive_perfect_csi(
    y: np.ndarray,
    cfg: GridConfig,
    noise_var: float,
    constellation: Constellation,
    h_true: np.ndarray,
) -> np.ndarray:
    """Same equalize/demap chain but fed the true channel response.

    ``h_true`` is [n_rx, n_symbols, n_subcarriers] as produced by
    ``channel.freq_response_grid``.
    """
    eff = cfg.effective_slice
    c_hat, post_var, bias = lmmse_equalize(y[:, :, eff], h_true[:, :, eff], noise_var)
    return _demap(c_hat, post_var, bias, constellation, cfg)
