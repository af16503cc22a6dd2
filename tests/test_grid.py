import dataclasses

import numpy as np
import pytest

from telempose.grid import (
    DATA,
    GUARD,
    PILOT,
    FramingError,
    GridConfig,
    build_mask,
    grid_capacity_bits,
    pack_bits,
    pilot_value_grid,
    unpack_llrs,
)


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


def test_config_validation():
    with pytest.raises(ValueError):
        GridConfig(guard_left=64, guard_right=64)
    with pytest.raises(ValueError):
        GridConfig(pilot_symbol_indices=(14,))
    with pytest.raises(ValueError, match="repeated"):
        GridConfig(pilot_symbol_indices=(2, 2))


def test_config_rejects_a_negative_guard():
    with pytest.raises(ValueError, match="negative guard"):
        GridConfig(guard_left=-3)
    with pytest.raises(ValueError, match="negative guard"):
        GridConfig(guard_right=-1)


def test_config_rejects_no_symbols():
    with pytest.raises(ValueError, match="OFDM symbol"):
        GridConfig(n_symbols=0, pilot_symbol_indices=())


@pytest.mark.parametrize("spacing", [0.0, -30e3, np.nan, np.inf])
def test_config_rejects_a_bad_subcarrier_spacing(spacing):
    with pytest.raises(ValueError, match="subcarrier spacing"):
        GridConfig(subcarrier_spacing_hz=spacing)


def test_grid_equality_is_identity(cfg_2p, qpsk):
    grids, _ = pack_bits(np.zeros(10, dtype=np.uint8), cfg_2p, qpsk)
    again, _ = pack_bits(np.zeros(10, dtype=np.uint8), cfg_2p, qpsk)
    assert grids[0] == grids[0] and grids[0] != again[0]
    assert len({grids[0], again[0]}) == 2


def _pilots(cfg, seed):
    """The pilot values drawn from ``seed``, in row-major pilot order."""
    values = pilot_value_grid(dataclasses.replace(cfg, pilot_seed=seed))
    return values[build_mask(cfg) == PILOT]


def test_pilot_sequence_deterministic(cfg_2p):
    a = _pilots(cfg_2p, 9)
    b = _pilots(cfg_2p, 9)
    assert np.array_equal(a, b)
    assert a.shape == (234,)


def test_pilot_sequence_unit_modulus(cfg_2p):
    assert np.allclose(np.abs(_pilots(cfg_2p, 3)), 1.0)


def test_pilot_sequence_seed_sensitivity(cfg_2p):
    a = _pilots(cfg_2p, 1)
    b = _pilots(cfg_2p, 2)
    assert np.any(a != b)


def test_capacity_arithmetic(cfg_2p, cfg_1p, qpsk):
    assert grid_capacity_bits(cfg_2p, qpsk) == 1404 * 2
    assert grid_capacity_bits(cfg_1p, qpsk) == 1521 * 2


def test_pack_exactly_one_grid(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    grids, record = pack_bits(bits, cfg_2p, qpsk)
    assert len(grids) == 1
    assert record.payload_bits == 2808
    assert record.n_grids == 1
    assert grid_capacity_bits(cfg_2p, qpsk) == 2808


def test_pack_overflow_spills_to_second_grid(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2809)
    grids, record = pack_bits(bits, cfg_2p, qpsk)
    assert len(grids) == 2
    assert record.payload_bits == 2809
    # 2 * 2808 - 2809 = 2807 zero padding bits live in grid 2
    capacity = grid_capacity_bits(cfg_2p, qpsk)
    assert record.n_grids * capacity - record.payload_bits == 2807


def test_pack_empty_stream(cfg_2p, qpsk):
    grids, record = pack_bits(np.empty(0, dtype=np.uint8), cfg_2p, qpsk)
    assert grids == []
    assert record.n_grids == 0
    assert unpack_llrs([], record, cfg_2p).size == 0


def test_grid_contents(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=100)
    grids, _ = pack_bits(bits, cfg_2p, qpsk)
    g = grids[0]
    assert np.all(g.symbols[g.mask == GUARD] == 0)
    assert np.allclose(np.abs(g.symbols[g.mask == PILOT]), 1.0)
    assert np.array_equal(g.symbols[g.mask == PILOT], _pilots(cfg_2p, cfg_2p.pilot_seed))


def test_grids_are_immutable(cfg_2p, qpsk):
    grids, _ = pack_bits(np.zeros(10, dtype=np.uint8), cfg_2p, qpsk)
    with pytest.raises(ValueError):
        grids[0].symbols[0, 0] = 1.0


def _identity_llrs(grids, qpsk):
    """Noiseless loopback: +inf-like LLR magnitude straight from the symbols."""
    out = []
    for g in grids:
        d2 = np.abs(g.symbols[..., None] - qpsk.points) ** 2
        llr = np.empty(g.symbols.shape + (2,))
        for l, mask0 in enumerate(qpsk._bit0_masks):
            llr[..., l] = d2[..., ~mask0].min(-1) - d2[..., mask0].min(-1)
        out.append(llr)
    return out


def test_pack_unpack_loopback(cfg_2p, qpsk, rng):
    for n in (1, 2807, 2808, 2809, 10_000):
        bits = rng.integers(0, 2, size=n)
        grids, record = pack_bits(bits, cfg_2p, qpsk)
        llrs = unpack_llrs(_identity_llrs(grids, qpsk), record, cfg_2p)
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
        grids, record = pack_bits(bits, cfg_1p, qpsk)
        llrs = unpack_llrs(_identity_llrs(grids, qpsk), record, cfg_1p)
        assert np.array_equal((llrs < 0).astype(np.uint8), bits)


def test_unpack_grid_count_mismatch(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=2808)
    grids, record = pack_bits(bits, cfg_2p, qpsk)
    with pytest.raises(FramingError):
        unpack_llrs([], record, cfg_2p)


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
    grids, record = pack_bits(rng.integers(0, 2, size=2809), cfg_2p, qpsk)
    assert record.bits_per_symbol == 2
    with pytest.raises(FramingError):
        unpack_llrs(reshape(_identity_llrs(grids, qpsk)), record, cfg_2p)


def test_grids_share_the_config_mask(cfg_2p, qpsk):
    grids, _ = pack_bits(np.zeros(6000, dtype=np.uint8), cfg_2p, qpsk)
    assert all(g.mask is build_mask(cfg_2p) for g in grids)
