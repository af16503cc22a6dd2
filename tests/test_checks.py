"""Every integer and real setting follows one rule, and no module reaches
into a sibling's private names."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import telempose
from telempose.channel import MAX_PATHS, NoiseSpec, SynthParams, flat_unit_channel
from telempose.grid import GridConfig, two_pilot_config
from telempose.modem import QuantizerConfig, qam
from telempose.rx_neural import NeuralReceiver, NeuralRxConfig, TrainConfig, train

#: Every config whose fields the tables below must cover.
CONFIGS = [GridConfig, SynthParams, NoiseSpec, QuantizerConfig, NeuralRxConfig, TrainConfig]


def _train(checkpoint_every):
    rx = NeuralReceiver(NeuralRxConfig(n_blocks=0, filters=2), np.random.default_rng(0))
    hyper = TrainConfig(iterations=1, batch=1)
    return train(rx, two_pilot_config(), qam(4), [flat_unit_channel(2)], hyper,
                 np.random.default_rng(1), checkpoint_every=checkpoint_every)


def _field(cls, field, *rest, **fixed):
    """A table row for ``cls.field``: its name, its key, a build from one value, then ``rest``."""
    return (field, (cls, field), lambda v: cls(**fixed, **{field: v}), *rest)


# (name in the message, (config, field) or None for an argument, build from
# one value, lo, hi or None, a valid value)
SETTINGS = [
    *[_field(GridConfig, name, lo, None, ok)
      for name, lo, ok in (("n_subcarriers", 1, 128), ("n_symbols", 1, 14),
                           ("guard_left", 0, 5), ("guard_right", 0, 6), ("pilot_seed", 0, 7))],
    ("pilot symbol index", (GridConfig, "pilot_symbol_indices"),
     lambda v: GridConfig(pilot_symbol_indices=(v,)), 0, 13, 2),
    _field(NoiseSpec, "bits_per_symbol", 1, None, 2, ebn0_db=10.0),
    _field(SynthParams, "l_max", 1, MAX_PATHS, 8),
    _field(SynthParams, "n_rx", 1, None, 2),
    _field(QuantizerConfig, "q", 1, 16, 8),
    ("order", None, qam, 4, None, 4),
    *[_field(NeuralRxConfig, name, lo, None, 2)
      for name, lo in (("n_blocks", 0), ("n_rx", 1), ("filters", 1),
                       ("bits_per_symbol", 1), ("n_symbols", 1), ("n_subcarriers", 1))],
    *[_field(TrainConfig, name, 1, None, 3) for name in ("iterations", "batch", "log_every")],
    ("checkpoint_every", None, _train, 1, None, 1),
    ("n_rx", None, flat_unit_channel, 1, None, 2),
]

# (name, (config, field), build from one value, values below its bound, a valid value)
REALS = [
    _field(SynthParams, "delay_spread_s", (0, -1e-6), 2),
    _field(SynthParams, "carrier_hz", (0, -3.5e9), 2),
    _field(NoiseSpec, "ebn0_db", (), 2),
    _field(TrainConfig, "lr", (0, -1e-3), 2),
]

# (name, (config, field), build from one (low, high) value, the lowest low or None)
RANGES = [
    _field(SynthParams, "speed_range_mps", 0),
    _field(TrainConfig, "ebn0_range_db", None),
]

#: Not a finite real number, each of them; ±10**400 overflow a float.
NOT_REAL = [True, "1", None, 1j, math.nan, math.inf, -math.inf, 10**400, -(10**400)]


def _bad_values(lo, hi, ok):
    yield True
    yield 2.5
    yield float(ok)  # integral, but a float: QuantizerConfig(q=8.0), qam(4.0)
    yield lo - 1
    if hi is not None:
        yield hi + 1


@pytest.mark.parametrize(
    "name, build, lo, hi, bad",
    [pytest.param(name, build, lo, hi, bad, id=f"{name}-{bad!r}-{i}")
     for i, (name, _, build, lo, hi, ok) in enumerate(SETTINGS)
     for bad in _bad_values(lo, hi, ok)],
)
def test_an_integer_setting_rejects_a_bool_a_float_and_out_of_range(name, build, lo, hi, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        build(bad)


@pytest.mark.parametrize(
    "build, ok", [pytest.param(build, ok, id=f"{name}-{i}")
                  for i, (name, _, build, _, _, ok) in enumerate(SETTINGS)],
)
def test_an_integer_setting_takes_a_numpy_integer(build, ok):
    build(np.int32(ok))


@pytest.mark.parametrize(
    "name, build, bad",
    [pytest.param(name, build, bad, id=f"{name}-{bad!r:.30}")
     for name, _, build, too_low, _ in REALS for bad in NOT_REAL + list(too_low)],
)
def test_a_real_setting_rejects_a_non_real_a_non_finite_and_out_of_range(name, build, bad):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build(bad)


@pytest.mark.parametrize("kind", [int, np.float32, np.float64])
@pytest.mark.parametrize(
    "name, build, ok", [pytest.param(name, build, ok, id=name) for name, _, build, _, ok in REALS]
)
def test_a_real_setting_takes_an_int_or_a_numpy_float_and_stores_a_float(name, build, ok, kind):
    stored = getattr(build(kind(ok)), name)
    assert type(stored) is float and stored == ok


def _bad_ranges(lo):
    yield 5.0
    yield (5.0,)
    yield (1.0, 2.0, 3.0)
    yield (6.0, 5.0)
    for bad in NOT_REAL:
        yield (bad, 5.0)
        yield (5.0, bad)
    if lo is not None:
        yield (lo - 1.0, 5.0)


@pytest.mark.parametrize(
    "name, build, bad",
    [pytest.param(name, build, bad, id=f"{name}-{bad!r:.30}")
     for name, _, build, lo in RANGES for bad in _bad_ranges(lo)],
)
def test_a_range_rejects_anything_but_a_pair_of_finite_reals_low_to_high(name, build, bad):
    with pytest.raises(ValueError, match=f"^{name} must"):
        build(bad)


@pytest.mark.parametrize(
    "name, build", [pytest.param(name, build, id=name) for name, _, build, _ in RANGES]
)
def test_a_range_takes_low_equal_to_high_and_a_list_equal_to_its_tuple(name, build):
    assert getattr(build((3, np.float32(3))), name) == (3.0, 3.0)
    stored = getattr(build([np.float32(1), 2]), name)
    assert type(stored) is tuple and list(map(type, stored)) == [float, float]
    assert build([1, 2]) == build((1.0, 2.0))
    assert hash(build([1, 2])) == hash(build((1.0, 2.0)))


def test_every_config_field_has_a_row_in_a_settings_table():
    covered = {key for _, key, *_ in SETTINGS + REALS + RANGES}
    missing = [f"{cls.__name__}.{f.name}" for cls in CONFIGS
               for f in dataclasses.fields(cls) if (cls, f.name) not in covered]
    assert missing == []


def test_no_module_imports_a_private_name_of_a_sibling():
    package = Path(telempose.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("telempose")
            )
            if sibling:
                found += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
