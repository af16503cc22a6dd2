import hashlib
import math

import numpy as np
import pytest

from telempose.grid import (
    DATA,
    GUARD,
    PILOT,
    PILOT_SEED,
    FramingError,
    GridConfig,
    build_mask,
    grid_capacity_bits,
    pack_bits,
    pilot_value_grid,
    unpack_llrs,
)
from test_modem import LABELS


def test_mask_counts_2p(cfg_2p):
    mask = build_mask(cfg_2p)
    assert np.count_nonzero(mask == PILOT) == 2 * 117
    assert np.count_nonzero(mask == DATA) == 12 * 117
    assert np.count_nonzero(mask == GUARD) == 14 * 11


def test_mask_counts_1p(cfg_1p):
    mask = build_mask(cfg_1p)
    assert np.count_nonzero(mask == PILOT) == 117
    assert np.count_nonzero(mask == DATA) == 13 * 117


def test_mask_partition_covers_grid(cfg_2p):
    mask = build_mask(cfg_2p)
    assert mask.shape == (14, 128)
    assert np.all(np.isin(mask, [DATA, PILOT, GUARD]))


def test_guard_columns_are_guard_everywhere(cfg_2p):
    mask = build_mask(cfg_2p)
    assert np.all(mask[:, :5] == GUARD)
    assert np.all(mask[:, -6:] == GUARD)


def test_pilot_columns_are_full_columns(cfg_2p):
    mask = build_mask(cfg_2p)
    for i in (2, 12):
        assert np.all(mask[i, 5:-6] == PILOT)


def test_a_config_is_1p_or_2p(cfg_1p, cfg_2p):
    assert (GridConfig(), GridConfig(1), GridConfig(2)) == (cfg_2p, cfg_1p, cfg_2p)
    assert cfg_1p.pilot_symbol_indices == (2,) and cfg_2p.pilot_symbol_indices == (2, 12)
    # a numpy integer spells the same config, so it shares the per-config caches
    assert build_mask(GridConfig(np.int32(1))) is build_mask(cfg_1p)


def _pilots(cfg):
    """The pilot values, in row-major pilot order."""
    return pilot_value_grid(cfg)[build_mask(cfg) == PILOT]


def test_pilot_sequence_is_qpsk_drawn_from_the_pilot_seed(cfg_2p):
    quadrants = np.random.default_rng(PILOT_SEED).integers(0, 4, size=234)
    expected = np.exp(1j * (np.pi / 4 + np.pi / 2 * quadrants))
    assert np.array_equal(_pilots(cfg_2p), expected)


def test_pilot_sequence_unit_modulus(cfg_2p):
    assert np.allclose(np.abs(_pilots(cfg_2p)), 1.0)


def test_capacity_arithmetic(cfg_2p, cfg_1p, qpsk):
    assert grid_capacity_bits(cfg_2p, qpsk) == 1404 * 2
    assert grid_capacity_bits(cfg_1p, qpsk) == 1521 * 2


def test_pack_exactly_one_grid(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    grids, payload = pack_bits(bits, cfg_2p, qpsk)
    assert len(grids) == 1
    assert payload == 2808 and type(payload) is int
    assert grid_capacity_bits(cfg_2p, qpsk) == 2808


def test_pack_overflow_spills_to_second_grid(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2809)
    grids, payload = pack_bits(bits, cfg_2p, qpsk)
    assert len(grids) == 2
    assert payload == 2809
    # 2 * 2808 - 2809 = 2807 zero padding bits live in grid 2
    capacity = grid_capacity_bits(cfg_2p, qpsk)
    assert len(grids) * capacity - payload == 2807


def test_pack_empty_stream(cfg_2p, qpsk):
    grids, payload = pack_bits(np.empty(0, dtype=np.uint8), cfg_2p, qpsk)
    assert grids.shape == (0, 14, 128) and grids.dtype == complex
    assert payload == 0
    assert unpack_llrs([], payload, cfg_2p).size == 0


def test_grid_contents(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=100)
    grids, _ = pack_bits(bits, cfg_2p, qpsk)
    g, mask = grids[0], build_mask(cfg_2p)
    assert grids.shape == (1, 14, 128)
    assert np.all(g[mask == GUARD] == 0)
    assert np.allclose(np.abs(g[mask == PILOT]), 1.0)
    assert np.array_equal(g[mask == PILOT], _pilots(cfg_2p))


def _identity_llrs(grids, qpsk):
    """Noiseless loopback: +inf-like LLR magnitude straight from the symbols."""
    out = []
    for g in grids:
        d2 = np.abs(g[..., None] - qpsk.points) ** 2
        llr = np.empty(g.shape + (2,))
        for l, labels in enumerate(LABELS.T):
            mask0 = labels == 0
            llr[..., l] = d2[..., ~mask0].min(-1) - d2[..., mask0].min(-1)
        out.append(llr)
    return out


def test_pack_unpack_loopback(cfg_2p, qpsk, rng):
    for n in (1, 2807, 2808, 2809, 10_000):
        bits = rng.integers(0, 2, size=n)
        grids, payload = pack_bits(bits, cfg_2p, qpsk)
        llrs = unpack_llrs(_identity_llrs(grids, qpsk), payload, cfg_2p)
        assert llrs.shape == (n,)
        assert np.array_equal((llrs < 0).astype(np.uint8), bits)


def test_pack_unpack_loopback_random_lengths(cfg_1p, qpsk, rng):
    # dense sweep of payload lengths around the grid boundary plus random ones
    capacity = grid_capacity_bits(cfg_1p, qpsk)
    lengths = list(range(capacity - 3, capacity + 4)) + list(
        rng.integers(1, 4 * capacity, size=50)
    )
    for n in lengths:
        bits = rng.integers(0, 2, size=int(n))
        grids, payload = pack_bits(bits, cfg_1p, qpsk)
        llrs = unpack_llrs(_identity_llrs(grids, qpsk), payload, cfg_1p)
        assert np.array_equal((llrs < 0).astype(np.uint8), bits)


#: Payload lengths at and beside the grid boundaries, from one grid's capacity.
BOUNDARY_PAYLOADS = {
    "empty": lambda cap: 0,
    "one-bit": lambda cap: 1,
    "one-short": lambda cap: cap - 1,
    "one-grid": lambda cap: cap,
    "one-over": lambda cap: cap + 1,
    "two-short": lambda cap: 2 * cap - 1,
    "two-grids": lambda cap: 2 * cap,
    "two-over": lambda cap: 2 * cap + 1,
}


@pytest.mark.parametrize("payload", list(BOUNDARY_PAYLOADS))
@pytest.mark.parametrize("pilots", ["1p", "2p"])
def test_pack_returns_the_bit_count_and_one_grid_per_started_capacity(
    cfg_1p, cfg_2p, qpsk, rng, pilots, payload
):
    cfg = cfg_1p if pilots == "1p" else cfg_2p
    capacity = grid_capacity_bits(cfg, qpsk)
    n = BOUNDARY_PAYLOADS[payload](capacity)
    bits = rng.integers(0, 2, size=n)
    grids, count = pack_bits(bits, cfg, qpsk)
    assert type(count) is int and count == n
    assert len(grids) == math.ceil(n / capacity)
    llrs = _identity_llrs(grids, qpsk)
    assert np.array_equal((unpack_llrs(llrs, count, cfg) < 0).astype(np.uint8), bits)
    # the whole of the last grid, read as payload: the bits, then zero-bit padding
    padded = unpack_llrs(llrs, len(grids) * capacity, cfg)
    assert np.array_equal((padded < 0).astype(np.uint8)[:n], bits)
    assert not np.any(padded[n:] < 0)


@pytest.mark.parametrize("payload", list(BOUNDARY_PAYLOADS))
@pytest.mark.parametrize("pilots", ["1p", "2p"])
def test_unpack_rejects_one_grid_too_few_or_too_many(cfg_1p, cfg_2p, qpsk, rng, pilots, payload):
    cfg = cfg_1p if pilots == "1p" else cfg_2p
    n = BOUNDARY_PAYLOADS[payload](grid_capacity_bits(cfg, qpsk))
    grids, count = pack_bits(rng.integers(0, 2, size=n), cfg, qpsk)
    llrs, k = _identity_llrs(grids, qpsk), len(grids)
    extra = np.zeros((14, 128, 2))
    with pytest.raises(FramingError, match=rf"^a payload of {n} bits takes {k} grid\(s\), got {k + 1}$"):
        unpack_llrs(llrs + [extra], count, cfg)
    if k:
        with pytest.raises(FramingError, match=rf"takes {k} grid\(s\), got {k - 1}$"):
            unpack_llrs(llrs[:-1], count, cfg)


def test_unpack_grid_count_mismatch(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    grids, payload = pack_bits(bits, cfg_2p, qpsk)
    llrs = _identity_llrs(grids, qpsk)
    with pytest.raises(FramingError):
        unpack_llrs([], payload, cfg_2p)
    with pytest.raises(FramingError, match=r"2808 bits takes 1 grid\(s\), got 2"):
        unpack_llrs(llrs + llrs, payload, cfg_2p)
    # one bit beyond a grid's capacity needs a second grid
    with pytest.raises(FramingError, match=r"2809 bits takes 2 grid\(s\), got 1"):
        unpack_llrs(llrs, payload + 1, cfg_2p)


@pytest.mark.parametrize(
    "reshape",
    [
        lambda llrs: [l[..., 0] for l in llrs],
        lambda llrs: [l[..., :1] for l in llrs],
        lambda llrs: [llrs[0], np.concatenate([llrs[1], llrs[1]], axis=-1)],
        lambda llrs: [l[:, :-1] for l in llrs],
        lambda llrs: [l[..., None] for l in llrs],
        lambda llrs: [np.concatenate([l, l], axis=-1) for l in llrs],
    ],
    ids=["no-bit-axis", "one-bit-per-symbol", "bits-differ-between-grids",
         "subcarrier-short", "extra-axis", "four-bits-per-symbol"],
)
def test_unpack_rejects_misshaped_llrs(cfg_2p, qpsk, rng, reshape):
    grids, payload = pack_bits(rng.integers(0, 2, size=2809), cfg_2p, qpsk)
    with pytest.raises(FramingError):
        unpack_llrs(reshape(_identity_llrs(grids, qpsk)), payload, cfg_2p)


@pytest.mark.parametrize("pilots", ["1p", "2p"])
def test_unpack_matches_a_per_grid_mask_gather(cfg_1p, cfg_2p, qpsk, rng, pilots):
    cfg = cfg_1p if pilots == "1p" else cfg_2p
    grids, payload = pack_bits(rng.integers(0, 2, size=9000), cfg, qpsk)
    assert len(grids) > 1
    llrs = [rng.standard_normal(g.shape + (2,)) for g in grids]
    data_pos = build_mask(cfg) == DATA
    expected = np.concatenate([l[data_pos].reshape(-1) for l in llrs])[:payload]
    assert np.array_equal(unpack_llrs(llrs, payload, cfg), expected)


@pytest.mark.parametrize("pilots", ["1p", "2p"])
def test_pack_matches_integer_labels_scattered_through_the_mask(cfg_1p, cfg_2p, qpsk, rng, pilots):
    cfg = cfg_1p if pilots == "1p" else cfg_2p
    capacity = grid_capacity_bits(cfg, qpsk)
    bits = rng.integers(0, 2, size=2 * capacity - 5, dtype=np.uint8)
    grids, _ = pack_bits(bits, cfg, qpsk)
    padded = np.zeros(2 * capacity, dtype=np.uint8)
    padded[: bits.size] = bits
    data_pos = build_mask(cfg) == DATA
    assert len(grids) == 2
    for g, chunk in zip(grids, padded.reshape(2, capacity)):
        expected = pilot_value_grid(cfg).copy()
        expected[data_pos] = qpsk.points[chunk.reshape(-1, 2).astype(np.int64) @ [2, 1]]
        assert np.array_equal(g, expected)


def test_seeded_payloads_pack_to_the_pinned_grids(cfg_1p, cfg_2p, qpsk):
    # the symbol mapping, the DATA layout and the padding: a change to any of
    # them moves the benchmark's BER reference and LLR fingerprint, so it must
    # be deliberate. DATA elements hash at full precision (QPSK points are
    # correctly rounded), the rest in single precision, so that a last-ulp
    # difference between two libms' pilot exp does not count as a change.
    h = hashlib.sha256()
    for cfg in (cfg_1p, cfg_2p):
        size = 5 * grid_capacity_bits(cfg, qpsk) // 2
        bits = np.random.default_rng(0x9A1D).integers(0, 2, size=size, dtype=np.uint8)
        grids, _ = pack_bits(bits, cfg, qpsk)
        data = build_mask(cfg) == DATA
        h.update(grids[:, data].tobytes())
        h.update(grids[:, ~data].astype(np.complex64).tobytes())
    assert h.hexdigest() == "3039e9d05ba5ba606faa74efccd9da6cd728eeccc8bdae47c47c2678f1edf8e9"



@pytest.mark.parametrize(
    "bits",
    [[0, 2], [0.7, 1.0], [-1, 0], [2, 0], [0, 256], np.array([0, 255], np.uint8), [1 + 0j, 0j]],
    ids=["two", "fraction", "minus-one", "leading-two", "wraps-to-zero", "uint8-255", "complex"],
)
def test_pack_rejects_a_value_that_is_not_a_bit(cfg_2p, qpsk, bits):
    # the check runs before the uint8 cast, which would wrap or truncate these
    with pytest.raises(ValueError, match="0 or 1"):
        pack_bits(bits, cfg_2p, qpsk)
