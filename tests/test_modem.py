import dataclasses

import numpy as np
import pytest

from telempose import modem
from telempose.modem import (
    Constellation,
    FramingError,
    QuantizerConfig,
    dequantize_frame,
    hard_decide,
    llr_maxlog,
    map_symbols,
    qam,
    quantize_frame,
    saturation_count,
)

S2 = 1 / np.sqrt(2)

#: Row i is the big-endian label of Gray QPSK point i.
LABELS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])


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


@pytest.mark.parametrize("everywhere", [False, True], ids=["one-bit", "every-bit"])
@pytest.mark.parametrize(
    "value, dtype",
    [(2, np.uint8), (2, np.int64), (-1, np.int64), (0.5, float), (np.nan, float),
     (1, complex)],
    ids=["uint8-two", "int-two", "minus-one", "half", "nan", "complex-one"],
)
def test_dequantize_rejects_a_value_that_is_not_a_bit(value, dtype, everywhere):
    # all-2 bits used to decode to 3.0, outside [lo, hi]
    bits = np.full(204 * 8, value if everywhere else 0, dtype=dtype)
    bits[17] = value
    with pytest.raises(ValueError, match="0 or 1"):
        dequantize_frame(bits, QuantizerConfig(q=8))


def test_dequantize_accepts_bits_of_any_dtype():
    cfg = QuantizerConfig(q=4)
    bits = np.tile([1, 0, 1, 1], 204)
    expected = dequantize_frame(bits.astype(np.uint8), cfg)
    assert np.all(expected == -1.0 + 2.0 * 11 / 15)
    for dtype in (bool, np.int64, float):
        assert np.array_equal(dequantize_frame(bits.astype(dtype), cfg), expected)


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
        back = -1 + levels / (cfg.n_levels - 1) * 2
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


def test_complex_features_are_rejected():
    # a cast to float would keep 0.5 of 0.5+0.7j and count 2j as in range
    cfg = QuantizerConfig(q=8)
    with pytest.raises(ValueError, match="complex"):
        quantize_frame(np.full(204, 0.5 + 0.7j), cfg)
    with pytest.raises(ValueError, match="complex"):
        saturation_count([2j, 0.1], cfg)


@pytest.mark.parametrize(
    "frame",
    [np.full(204, True), np.full(204, "0.5"), np.full(204, b"1"),
     np.full(204, 0.5, dtype=object), [0.5] * 203 + ["0.5"]],
    ids=["bool", "str", "bytes", "object", "list-with-a-str"],
)
def test_a_frame_that_is_not_real_numbers_is_rejected_by_name(frame):
    # bool, bytes and object frames were coded (b"1" as 1.0) and str ones parsed
    cfg = QuantizerConfig(q=8)
    with pytest.raises(ValueError, match="^features must be real numbers, got "):
        quantize_frame(frame, cfg)
    with pytest.raises(ValueError, match="^features must be real numbers, got "):
        saturation_count(frame, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_saturation_count_rejects_a_non_finite_feature(bad):
    # a NaN compares false with both ends, so it used to count as in range
    with pytest.raises(ValueError, match="non-finite"):
        saturation_count([0.1, bad, 2.0], QuantizerConfig(q=8))


@pytest.mark.parametrize("order", [8, 16, 32, 64, 5, 2, 0])
def test_qam_rejects_every_order_but_4(order):
    with pytest.raises(ValueError, match="^order must be in 4..4, got "):
        qam(order)


def test_invalid_quantizer_configs():
    with pytest.raises(ValueError):
        QuantizerConfig(q=0)
    with pytest.raises(ValueError):
        QuantizerConfig(q=17)


def test_the_quantizer_range_is_fixed_to_minus_one_to_one():
    cfg = QuantizerConfig(3)
    assert [f.name for f in dataclasses.fields(QuantizerConfig)] == ["q"]
    assert cfg.step == 2 / 7
    assert _first_words(_frame(-1.0, 1.0), cfg, 2) == [[0, 0, 0], [1, 1, 1]]
    values = dequantize_frame(quantize_frame(np.linspace(-1, 1, 204), cfg), cfg)
    assert np.array_equal(np.unique(values), np.arange(8) / 7 * 2 - 1)


# ---------------------------------------------------------------------------
# constellation and mapping
# ---------------------------------------------------------------------------


def test_qam_returns_the_one_gray_qpsk_constellation(qpsk):
    assert qam() is qam(4) is qpsk
    assert qpsk.bits_per_symbol == 2
    # bit for bit the points the square-QAM builder gave; np.sqrt(0.5) is an ulp off
    expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
    assert qpsk.points.tobytes() == expected.tobytes()
    assert not qpsk.points.flags.writeable
    assert np.mean(np.abs(qpsk.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(TypeError):
        Constellation(2 * qpsk.points)


def test_map_symbols_examples(qpsk):
    assert map_symbols([0, 0], qpsk)[0] == pytest.approx(S2 + S2 * 1j)
    assert map_symbols([1, 1], qpsk)[0] == pytest.approx(-S2 - S2 * 1j)
    out = map_symbols([0, 1, 1, 0], qpsk)
    assert out[0] == pytest.approx(S2 - S2 * 1j)
    assert out[1] == pytest.approx(-S2 + S2 * 1j)


def test_map_symbols_rejects_ragged_input(qpsk):
    with pytest.raises(FramingError):
        map_symbols([0, 1, 1], qpsk)


@pytest.mark.parametrize(
    "bits", [[0, 2], [0.7, 1.0], [-1, 0], [2, 0], np.array([0, 9], np.uint8), [1 + 0j, 0j]],
    ids=["two", "fraction", "minus-one", "leading-two", "uint8-nine", "complex"],
)
def test_map_symbols_rejects_a_value_that_is_not_a_bit(qpsk, bits):
    # these used to map to a point ([0, 2] and [0.7, 1] both to point 2,
    # [-1, 0] to points[-2]) or raise a bare IndexError
    with pytest.raises(ValueError, match="0 or 1"):
        map_symbols(bits, qpsk)


def test_map_then_min_distance_decision_is_identity(qpsk, rng):
    bits = rng.integers(0, 2, size=2000)
    symbols = map_symbols(bits, qpsk)
    nearest = np.argmin(np.abs(symbols[:, None] - qpsk.points), axis=1)
    recovered = LABELS[nearest].reshape(-1)
    assert np.array_equal(recovered, bits)


# ---------------------------------------------------------------------------
# LLRs. The oracles below sum true posterior probabilities, or take the
# nearest point, over the constellation, independent of the closed form
# under test.
# ---------------------------------------------------------------------------


def _llr_oracle_exact(y, noise_var, constellation):
    """Exact LLRs [..., 2] by log-sum-exp over the points of each bit value."""
    y, nv = np.broadcast_arrays(np.asarray(y, dtype=complex), noise_var)
    metrics = [-abs(y - c) ** 2 / nv for c in constellation.points]
    out = []
    for l in range(constellation.bits_per_symbol):
        lse0 = np.logaddexp.reduce([m for m, lab in zip(metrics, LABELS) if lab[l] == 0])
        lse1 = np.logaddexp.reduce([m for m, lab in zip(metrics, LABELS) if lab[l] == 1])
        out.append(lse0 - lse1)
    return np.stack(out, axis=-1)


def _llr_oracle_maxlog(y, noise_var, constellation):
    B = constellation.bits_per_symbol
    out = []
    for l in range(B):
        d0 = min(abs(y - c) ** 2 for c, lab in zip(constellation.points, LABELS) if lab[l] == 0)
        d1 = min(abs(y - c) ** 2 for c, lab in zip(constellation.points, LABELS) if lab[l] == 1)
        out.append((d1 - d0) / noise_var)
    return np.array(out)


def test_llr_second_quadrant_signs(qpsk):
    llrs = llr_maxlog((-1 + 1j) / np.sqrt(2), 0.5, qpsk)
    assert llrs[0] < 0 and llrs[1] > 0


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


def test_llr_maxlog_is_the_exact_llr_on_random_points(qpsk, rng):
    # Gray QPSK's in-phase and quadrature sums factor, so max-log is exact
    ys = 1.5 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
    per_element = rng.uniform(0.02, 5.0, size=ys.size)
    for nv in (0.02, 0.5, 5.0, per_element):
        np.testing.assert_allclose(
            llr_maxlog(ys, nv, qpsk), _llr_oracle_exact(ys, nv, qpsk), rtol=1e-12, atol=0
        )


def test_llr_maxlog_is_the_exact_llr_at_the_variance_floor_and_at_exact_zeros(qpsk, rng):
    # the receivers floor the effective variance at 1e-30; erasures demap 0
    ys = np.concatenate([
        rng.standard_normal(100) + 1j * rng.standard_normal(100),
        [0j, 0.3 + 0j, -0.7 + 0j, 0.4j, -1.2j, complex(-0.0, 0.0)],
    ])
    for nv in (1e-30, 1.0):
        llrs = llr_maxlog(ys, nv, qpsk)
        np.testing.assert_allclose(llrs, _llr_oracle_exact(ys, nv, qpsk), rtol=1e-12, atol=0)
        assert np.array_equal(llrs[-6:] == 0, [[1, 1], [0, 1], [0, 1], [1, 0], [1, 0], [1, 1]])


def test_llrs_broadcast_noise_variance_against_symbols(qpsk):
    ys = np.array([[0.3 - 0.8j, -1.1 + 0.2j]])  # [1, 2]
    nv = np.array([[0.5], [2.0], [4.0]])  # [3, 1]
    out = llr_maxlog(ys, nv, qpsk)
    assert out.shape == (3, 2, 2)
    for i in range(3):
        for j in range(2):
            assert np.allclose(out[i, j], llr_maxlog(ys[0, j], nv[i, 0], qpsk), rtol=1e-12)


def test_llr_rejects_bad_noise_var(qpsk):
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf, [0.5, np.nan]):
        with pytest.raises(ValueError, match="noise_var"):
            llr_maxlog([1 + 1j, 0j], bad, qpsk)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_llr_rejects_a_non_finite_symbol(qpsk, bad):
    for y in ([complex(bad, 0.0), 1 + 1j], [1 + 1j, complex(0.0, bad)]):
        with pytest.raises(ValueError, match="y_eq"):
            llr_maxlog(y, 1.0, qpsk)


def test_hard_decide_rules():
    assert hard_decide([3.2]).tolist() == [0]
    assert hard_decide([-0.1]).tolist() == [1]
    assert hard_decide([0.0]).tolist() == [0]


def test_hard_decide_takes_infinities_as_certain_decisions():
    assert hard_decide([np.inf, -np.inf, -0.0]).tolist() == [0, 1, 0]


@pytest.mark.parametrize("llrs", [[np.nan], [1.0, np.nan, -1.0], np.full((2, 3), np.nan)])
def test_hard_decide_rejects_a_nan_llr(llrs):
    with pytest.raises(ValueError, match="NaN LLR"):
        hard_decide(llrs)
