"""Baseline receiver: LS channel estimation at pilots, time interpolation
across the grid, per-element LMMSE equalization, max-log soft demapping.

The noise variance is taken as known at the receiver; no blind estimator
is provided.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._checks import check_finite, check_real_array
from .grid import GridConfig, pilot_value_grid
from .modem import Constellation, llr_maxlog

_TINY = np.finfo(float).tiny


def _check_unit_power(pilot_values: np.ndarray):
    if not np.all(np.abs(np.abs(pilot_values) - 1.0) <= 1e-9):  # NaN fails too
        raise ValueError("pilot values must have unit power")


def ls_estimate(y_pilots: np.ndarray, pilot_values: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate at pilot elements.

    ``y_pilots`` has the antenna axis first ([n_rx, ...]); ``pilot_values``
    broadcasts against the remaining axes and must be unit-power: every
    magnitude within 1e-9 of one.
    """
    pilot_values = np.asarray(pilot_values)
    _check_unit_power(pilot_values)
    return y_pilots * np.conj(pilot_values)


@lru_cache(maxsize=None)
def _pilot_conj(cfg: GridConfig) -> np.ndarray:
    """Conjugate pilot values [n_pilot_symbols, n_effective], cached per config, read-only.

    Rows follow ``cfg.pilot_symbol_indices``; multiplying the received pilot
    columns by it is :func:`ls_estimate`, with the unit-power check made once.
    """
    pilots = pilot_value_grid(cfg)[list(cfg.pilot_symbol_indices), cfg.effective_slice]
    _check_unit_power(pilots)
    conj = np.conj(pilots)
    conj.flags.writeable = False
    return conj


@lru_cache(maxsize=None)
def _interp_weights(cfg: GridConfig) -> np.ndarray:
    """[n_symbols, n_pilot_symbols] time-interpolation weights, read-only.

    Columns follow ``cfg.pilot_symbol_indices``. 1P copies its one column
    to every symbol: all ones. 2P weighs its columns at symbols 2 and 12
    by (1 - w, w), w = (s - 2) / 10 clipped to [0, 1]: linear between
    them, constant outside.
    """
    if cfg.n_pilot_symbols == 1:
        weights = np.ones((cfg.n_symbols, 1))
    else:
        first, last = cfg.pilot_symbol_indices
        w = np.clip((np.arange(cfg.n_symbols) - first) / (last - first), 0.0, 1.0)
        weights = np.stack([1.0 - w, w], axis=1)
    weights.flags.writeable = False
    return weights


def interpolate(pilot_estimates: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Fill the time axis from per-pilot-column estimates.

    ``pilot_estimates`` is [n_rx, n_pilot_symbols, n_effective], ordered
    like ``cfg.pilot_symbol_indices``; any other shape raises
    ``ValueError``. Pilot columns cover every effective subcarrier, so
    only time interpolation is needed: linear between the 2P columns,
    constant extrapolation outside, plain copy of the 1P column.
    """
    weights = _interp_weights(cfg)
    est = np.ascontiguousarray(pilot_estimates, dtype=complex)
    if est.ndim != 3 or est.shape[1:] != (cfg.n_pilot_symbols, cfg.n_effective):
        need = f"[n_rx, {cfg.n_pilot_symbols}, {cfg.n_effective}]"
        raise ValueError(f"pilot estimates need shape {need}, got {list(est.shape)}")
    # real and imaginary parts interpolate alike: one real product per antenna
    n_rx, n_cols, n_eff = est.shape
    out = weights @ est.view(np.float64).reshape(n_rx, n_cols, 2 * n_eff)
    return out.view(complex)


def lmmse_equalize(y: np.ndarray, h_est: np.ndarray, noise_var: float):
    """Per-element LMMSE symbol estimate.

    ``y`` and ``h_est`` are [n_rx, ...], of one shape. Returns ``(c_hat,
    post_noise_var, bias)`` where ``c_hat = h^H y / (||h||^2 + noise_var)`` carries the
    LMMSE bias ``||h||^2 / (||h||^2 + noise_var)`` and ``post_noise_var``
    is the variance of its noise part, ``noise_var * ||h||^2 /
    (||h||^2 + noise_var)^2``. Dividing ``c_hat`` by the bias and
    ``post_noise_var`` by its square gives the unbiased pair used for
    demapping. Elements with a zero-norm estimate are flagged by
    bias == 0 and must be treated as erasures. ``noise_var`` is one
    finite, non-negative real value: a number, a numpy scalar or a 0-d array.
    """
    if h_est.shape != y.shape:
        # a broadcast would equalize against the wrong antennas or elements
        raise ValueError(f"channel estimate {h_est.shape} does not match received {y.shape}")
    nv = check_real_array("noise_var", noise_var)
    # an array's truth value would be ambiguous, and one value per element is not supported
    if nv.ndim != 0 or not (np.isfinite(nv) and nv >= 0):
        raise ValueError(f"noise_var must be one finite, non-negative value, got {noise_var}")
    noise_var = float(nv)
    sq = np.square(h_est.real)
    sq += np.square(h_est.imag)
    h_norm2 = sq.sum(axis=0)
    # a zero norm without noise leaves h^H y = 0 as well, so c_hat comes out 0
    denom = h_norm2 + noise_var
    np.maximum(denom, _TINY, out=denom)
    c_hat = (np.conj(h_est) * y).sum(axis=0)
    c_hat /= denom
    post_var = noise_var * h_norm2
    post_var /= np.square(denom)
    return c_hat, post_var, h_norm2 / denom


def _demap(c_hat, post_var, bias, constellation, cfg):
    """Unbias the equalizer output and produce the LLR grid over DATA."""
    live = bias > 0
    all_live = live.all()
    if all_live:  # the usual case: masked divides and the erasure scatter are no-ops
        c_unbiased = c_hat / bias
        var_eff = post_var / np.square(bias)
    else:
        c_unbiased = np.divide(c_hat, bias, out=np.zeros_like(c_hat), where=live)
        var_eff = np.divide(
            post_var, np.square(bias), out=np.ones_like(post_var), where=live
        )
    # floor keeps the demapper finite when called on noiseless input
    np.maximum(var_eff, 1e-30, out=var_eff)
    # var_eff has c_unbiased's shape, so llr_maxlog checks both and builds no broadcast
    llr_eff = llr_maxlog(c_unbiased, var_eff, constellation)
    if not all_live:
        llr_eff[~live] = 0.0  # erasures carry no information
    llr_grid = np.zeros((cfg.n_symbols, cfg.n_subcarriers, constellation.bits_per_symbol))
    llr_grid[:, cfg.effective_slice] = llr_eff
    # guard elements are still zero; the pilot rows are PILOT over the effective band
    llr_grid[list(cfg.pilot_symbol_indices)] = 0.0
    return llr_grid


def _check_received(y: np.ndarray, cfg: GridConfig):
    """Raise ``ValueError`` unless ``y`` is a finite [n_rx, n_symbols, n_sc] grid."""
    if y.shape[1:] != (cfg.n_symbols, cfg.n_subcarriers):
        raise ValueError(
            f"received grid {y.shape} does not match the "
            f"{cfg.n_symbols}x{cfg.n_subcarriers} config"
        )
    check_finite("received grid", y)


def receive_classic(
    y: np.ndarray, cfg: GridConfig, noise_var: float, constellation: Constellation
) -> np.ndarray:
    """LS + interpolate + LMMSE + max-log demap.

    ``y`` is the received array [n_rx, n_symbols, n_subcarriers], finite;
    the result is an LLR grid [n_symbols, n_subcarriers, B], zero outside
    DATA elements.
    """
    _check_received(y, cfg)
    eff = cfg.effective_slice
    h_p = y[:, list(cfg.pilot_symbol_indices), eff] * _pilot_conj(cfg)
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
    ``channel.freq_response_grid``; it and ``y`` must be finite.
    """
    _check_received(y, cfg)
    # before slicing, where a response of another rank raises a bare IndexError
    if h_true.shape != y.shape:
        raise ValueError(
            f"channel response {h_true.shape} does not match received grid {y.shape}"
        )
    check_finite("channel response", h_true)
    eff = cfg.effective_slice
    c_hat, post_var, bias = lmmse_equalize(y[:, :, eff], h_true[:, :, eff], noise_var)
    return _demap(c_hat, post_var, bias, constellation, cfg)
