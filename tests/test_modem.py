import numpy as np
import pytest

from telempose import modem
from telempose.modem import (
    Constellation,
    FramingError,
    QuantizerConfig,
    dequantize_frame,
    hard_decide,
    llr_exact,
    llr_maxlog,
    map_symbols,
    qam,
    quantize_frame,
    saturation_count,
)

S2 = 1 / np.sqrt(2)


# ---------------------------------------------------------------------------
# quantizer
# ---------------------------------------------------------------------------


def _frame(*values):
    """A 204-feature frame that starts with ``values`` and is zero after."""
    frame = np.zeros(204)
    frame[: len(values)] = values
    return frame


def _first_words(frame, cfg, n):
    """The q-bit words of the first ``n`` features of the quantized frame."""
    return quantize_frame(frame, cfg).reshape(204, cfg.q)[:n].tolist()


def test_quantize_endpoints():
    cfg = QuantizerConfig(q=8)
    assert _first_words(_frame(-1.0, 1.0), cfg, 2) == [[0] * 8, [1] * 8]


def test_quantize_midpoint_rounds_half_away_from_zero():
    # (0 - (-1))/2 * 255 = 127.5 -> level 128 -> 10000000
    cfg = QuantizerConfig(q=8)
    assert _first_words(_frame(0.0), cfg, 1) == [[1, 0, 0, 0, 0, 0, 0, 0]]


def test_dequantize_endpoints_and_mid_level():
    cfg = QuantizerConfig(q=8)
    words = np.zeros((204, 8), dtype=np.uint8)
    words[1] = 1  # 11111111
    words[2, 0] = 1  # 10000000
    values = dequantize_frame(words.reshape(-1), cfg)
    assert values[0] == -1.0
    assert values[1] == 1.0
    assert values[2] == pytest.approx(2 * 128 / 255 - 1, abs=1e-12)


def test_dequantize_length_mismatch():
    with pytest.raises(FramingError):
        dequantize_frame(np.zeros(204 * 8 - 1, dtype=np.uint8), QuantizerConfig(q=8))


def test_quantize_frame_all_zero_features():
    cfg = QuantizerConfig(q=4)
    bits = quantize_frame(np.zeros(204), cfg)
    assert bits.shape == (816,)
    # round(0.5 * 15) = 8 -> 1000 for every feature
    assert bits.reshape(204, 4).tolist() == [[1, 0, 0, 0]] * 204


def test_quantize_frame_all_minus_one():
    for q in (1, 3, 8, 16):
        bits = quantize_frame(np.full(204, -1.0), QuantizerConfig(q=q))
        assert bits.shape == (204 * q,)
        assert not bits.any()


def test_quantize_frame_wrong_dimension():
    with pytest.raises(FramingError):
        quantize_frame(np.zeros(203), QuantizerConfig(q=4))


def test_round_trip_bound_all_widths(rng):
    # half-step bound: |x - round_trip(x)| <= 1/(2^q - 1)
    x = rng.uniform(-1, 1, size=204)
    for q in range(1, 17):
        cfg = QuantizerConfig(q=q)
        back = dequantize_frame(quantize_frame(x, cfg), cfg)
        assert np.max(np.abs(back - x)) <= 1 / (2**q - 1) + 1e-12


def test_round_trip_q8_error_bound(rng):
    cfg = QuantizerConfig(q=8)
    x = rng.uniform(-1, 1, size=204)
    back = dequantize_frame(quantize_frame(x, cfg), cfg)
    assert np.max(np.abs(back - x)) <= 1 / 255 + 1e-12


def test_quantizer_noise_floor(rng):
    # empirical round-trip MSE should sit at the uniform-quantizer floor
    n = 200_000
    x = rng.uniform(-1, 1, size=n)
    for q in (4, 8, 12):
        cfg = QuantizerConfig(q=q)
        levels = modem._levels(x, cfg)
        back = cfg.lo + levels / (cfg.n_levels - 1) * (cfg.hi - cfg.lo)
        mse = np.mean((back - x) ** 2)
        delta = 2 / (2**q - 1)
        assert 0.8 * delta**2 / 12 <= mse <= 1.2 * delta**2 / 12


def test_saturation_counting():
    cfg = QuantizerConfig(q=6)
    assert saturation_count([0.0, 1.0, -1.0], cfg) == 0
    assert saturation_count([1.5, -2.0, 0.1], cfg) == 2
    # clamped values map to the endpoint codes
    assert _first_words(_frame(3.7, -3.7), cfg, 2) == [[1] * 6, [0] * 6]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_rejected(bad):
    cfg = QuantizerConfig(q=8)
    for position in (0, 17, 203):
        frame = np.zeros(204)
        frame[position] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quantize_frame(frame, cfg)


def test_invalid_quantizer_configs():
    with pytest.raises(ValueError):
        QuantizerConfig(q=0)
    with pytest.raises(ValueError):
        QuantizerConfig(q=17)
    with pytest.raises(ValueError):
        QuantizerConfig(q=4, lo=1.0, hi=-1.0)


@pytest.mark.parametrize(
    "lo, hi",
    [(-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0), (-1e308, 1e308)],
    ids=["-inf-lo", "inf-hi", "nan-lo", "width-overflows"],
)
def test_quantizer_rejects_an_interval_without_a_finite_width(lo, hi):
    with pytest.raises(ValueError, match="clamp interval"):
        QuantizerConfig(q=4, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# constellation and mapping
# ---------------------------------------------------------------------------


def test_qpsk_points_unit_energy(qpsk):
    assert qpsk.order == 4
    assert qpsk.bits_per_symbol == 2
    assert np.mean(np.abs(qpsk.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(qpsk.points), 1.0)


def test_gray_property_checked_at_construction(qpsk):
    # label 00 would sit diagonally opposite 01, next to 11
    with pytest.raises(ValueError, match="Gray"):
        Constellation(qpsk.points[[0, 3, 1, 2]])


def test_point_order_is_the_labelling(qpsk):
    swapped = Constellation(qpsk.points[[0, 2, 1, 3]])
    assert swapped.order == 4
    assert np.array_equal(swapped.bit_labels, qpsk.bit_labels)
    bits = np.array([0, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
    symbols = map_symbols(bits, swapped)
    assert symbols[0] == pytest.approx(qpsk.points[2])
    llrs = llr_maxlog(symbols, 0.1, swapped)
    assert np.array_equal(hard_decide(llrs).reshape(-1), bits)


@pytest.mark.parametrize(
    "points, match",
    [
        (np.ones(1), "power of two"),
        (np.exp(2j * np.pi * np.arange(3) / 3), "power of two"),
        (np.exp(2j * np.pi * np.arange(6) / 6), "power of two"),
        (np.array([1, -1, np.nan, 1j]), "unit energy"),
        (2 * qam(4).points, "unit energy"),
    ],
    ids=["one", "three", "six", "nan", "scaled"],
)
def test_invalid_points_are_rejected(points, match):
    with pytest.raises(ValueError, match=match):
        Constellation(points)


def test_constellation_equality_is_identity(qpsk):
    a, b = qam(4), qam(4)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_higher_order_qam_constructs():
    for order in (16, 64):
        c = qam(order)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_map_symbols_examples(qpsk):
    assert map_symbols([0, 0], qpsk)[0] == pytest.approx(S2 + S2 * 1j)
    assert map_symbols([1, 1], qpsk)[0] == pytest.approx(-S2 - S2 * 1j)
    out = map_symbols([0, 1, 1, 0], qpsk)
    assert out[0] == pytest.approx(S2 - S2 * 1j)
    assert out[1] == pytest.approx(-S2 + S2 * 1j)


def test_map_symbols_rejects_ragged_input(qpsk):
    with pytest.raises(FramingError):
        map_symbols([0, 1, 1], qpsk)


def test_map_then_min_distance_decision_is_identity(qpsk, rng):
    bits = rng.integers(0, 2, size=2000)
    symbols = map_symbols(bits, qpsk)
    nearest = np.argmin(np.abs(symbols[:, None] - qpsk.points), axis=1)
    recovered = qpsk.bit_labels[nearest].reshape(-1)
    assert np.array_equal(recovered, bits)


# ---------------------------------------------------------------------------
# LLRs. The oracle below sums true posterior probabilities over the
# constellation, independent of the vectorized implementation under test.
# ---------------------------------------------------------------------------


def _llr_oracle_exact(y, noise_var, constellation):
    B = constellation.bits_per_symbol
    out = []
    for l in range(B):
        p0 = sum(
            np.exp(-abs(y - c) ** 2 / noise_var)
            for c, lab in zip(constellation.points, constellation.bit_labels)
            if lab[l] == 0
        )
        p1 = sum(
            np.exp(-abs(y - c) ** 2 / noise_var)
            for c, lab in zip(constellation.points, constellation.bit_labels)
            if lab[l] == 1
        )
        out.append(np.log(p0 / p1))
    return np.array(out)


def _llr_oracle_maxlog(y, noise_var, constellation):
    B = constellation.bits_per_symbol
    out = []
    for l in range(B):
        d0 = min(
            abs(y - c) ** 2
            for c, lab in zip(constellation.points, constellation.bit_labels)
            if lab[l] == 0
        )
        d1 = min(
            abs(y - c) ** 2
            for c, lab in zip(constellation.points, constellation.bit_labels)
            if lab[l] == 1
        )
        out.append((d1 - d0) / noise_var)
    return np.array(out)


def test_llr_exact_origin_is_zero(qpsk):
    for nv in (0.1, 1.0, 10.0):
        assert np.allclose(llr_exact(0j, nv, qpsk), [0.0, 0.0], atol=1e-12)


def test_llr_exact_first_quadrant_symmetry(qpsk):
    llrs = llr_exact((1 + 1j) / np.sqrt(2), 0.5, qpsk)
    assert llrs[0] > 0 and llrs[1] > 0
    assert llrs[0] == pytest.approx(llrs[1], rel=1e-12)
    assert np.allclose(llrs, _llr_oracle_exact((1 + 1j) / np.sqrt(2), 0.5, qpsk))


def test_llr_exact_second_quadrant_signs(qpsk):
    llrs = llr_exact((-1 + 1j) / np.sqrt(2), 0.5, qpsk)
    assert llrs[0] < 0 and llrs[1] > 0


def test_llr_exact_matches_oracle_on_random_points(qpsk, rng):
    ys = rng.normal(size=50) + 1j * rng.normal(size=50)
    for y in ys:
        for nv in (0.05, 0.7, 3.0):
            assert np.allclose(
                llr_exact(y, nv, qpsk), _llr_oracle_exact(y, nv, qpsk), rtol=1e-10
            )


def test_llr_maxlog_origin_and_oracle(qpsk, rng):
    assert np.allclose(llr_maxlog(0j, 1.0, qpsk), [0.0, 0.0], atol=1e-12)
    ys = rng.normal(size=50) + 1j * rng.normal(size=50)
    for y in ys:
        assert np.allclose(
            llr_maxlog(y, 0.4, qpsk), _llr_oracle_maxlog(y, 0.4, qpsk), rtol=1e-12
        )


def test_llr_maxlog_first_quadrant_value(qpsk):
    y = (1 + 1j) / np.sqrt(2)
    llrs = llr_maxlog(y, 1.0, qpsk)
    assert np.allclose(llrs, _llr_oracle_maxlog(y, 1.0, qpsk), rtol=1e-12)
    assert llrs[0] == pytest.approx(llrs[1], rel=1e-12)
    assert llrs[0] > 0


def test_maxlog_sign_agreement_with_exact(qpsk, rng):
    ys = rng.normal(scale=1.0, size=1000) + 1j * rng.normal(scale=1.0, size=1000)
    exact = llr_exact(ys, 0.05, qpsk)
    approx = llr_maxlog(ys, 0.05, qpsk)
    significant = np.abs(exact) > 1e-6
    assert np.all(np.sign(approx[significant]) == np.sign(exact[significant]))


def test_maxlog_equals_exact_for_gray_qpsk(qpsk):
    # with Gray QPSK the I/Q axes decouple, so max-log is not an
    # approximation at all; the quadrature factors cancel exactly
    re, im = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9))
    ys = (re + 1j * im).ravel()
    for nv in (1.0, 0.3, 0.1, 0.03):
        assert np.allclose(
            llr_maxlog(ys, nv, qpsk), llr_exact(ys, nv, qpsk), rtol=1e-10, atol=1e-12
        )


def test_maxlog_converges_to_exact_as_noise_vanishes():
    # the gap is non-trivial from 16-QAM upward; it must shrink with the noise
    c16 = qam(16)
    re, im = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9))
    ys = (re + 1j * im).ravel()
    gaps = []
    for nv in (1.0, 0.3, 0.1, 0.03):
        exact = llr_exact(ys, nv, c16)
        approx = llr_maxlog(ys, nv, c16)
        denom = np.maximum(np.abs(exact), 1e-9)
        gaps.append(np.max(np.abs(approx - exact) / denom))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_llr_rejects_bad_noise_var(qpsk):
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf, [0.5, np.nan]):
        with pytest.raises(ValueError, match="noise_var"):
            llr_exact([1 + 1j, 0j], bad, qpsk)
        with pytest.raises(ValueError, match="noise_var"):
            llr_maxlog([1 + 1j, 0j], bad, qpsk)


def test_hard_decide_rules():
    assert hard_decide([3.2]).tolist() == [0]
    assert hard_decide([-0.1]).tolist() == [1]
    assert hard_decide([0.0]).tolist() == [0]
