"""Every integer and real setting follows one rule, no module reaches into
a sibling's private names, and no module imports a name it never uses."""

import ast
import dataclasses
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import telempose
from telempose._checks import (
    check_finite, check_int, check_positive, check_real, check_real_array,
)
from telempose.channel import L_MAX, N_RX, NoiseSpec, SynthParams, flat_unit_channel
from telempose.grid import GridConfig, two_pilot_config, unpack_llrs
from telempose.modem import QuantizerConfig, hard_decide, llr_maxlog, qam
from telempose.nn import AdamState
from telempose.rx_classic import lmmse_equalize, receive_classic, receive_perfect_csi
from telempose.rx_neural import (
    NeuralReceiver, NeuralRxConfig, TrainConfig, bits_to_target_grid, build_input_planes,
)

#: Every config whose fields the tables below must cover.
CONFIGS = [GridConfig, SynthParams, NoiseSpec, QuantizerConfig, NeuralRxConfig, TrainConfig]


def _field(cls, field, *rest, **fixed):
    """A table row for ``cls.field``: its name, its key, a build from one value, then ``rest``."""
    return (field, (cls, field), lambda v: cls(**fixed, **{field: v}), *rest)


# (name in the message, (config, field) or None for an argument, build from
# one value, lo, hi or None, a valid value)
SETTINGS = [
    _field(GridConfig, "n_pilot_symbols", 1, 2, 2),
    _field(NoiseSpec, "bits_per_symbol", 2, 2, 2, ebn0_db=10.0),
    _field(SynthParams, "l_max", L_MAX, L_MAX, L_MAX),
    _field(SynthParams, "n_rx", N_RX, N_RX, N_RX),
    _field(QuantizerConfig, "q", 1, 16, 8),
    ("order", None, qam, 4, 4, 4),
    *[_field(NeuralRxConfig, name, lo, None, 2)
      for name, lo in (("n_blocks", 0), ("filters", 1))],
    *[_field(TrainConfig, name, 1, None, 3) for name in ("iterations", "batch", "log_every")],
    ("n_rx", None, flat_unit_channel, N_RX, N_RX, N_RX),
    ("B", None, lambda v: bits_to_target_grid(np.zeros(2808), two_pilot_config(), v), 2, 2, 2),
    ("payload_bits", None, lambda v: unpack_llrs([], v, two_pilot_config()), 0, None, 0),
]

# (name, (config, field), build from one value, values below its bound, a valid value)
REALS = [
    _field(NoiseSpec, "ebn0_db", (), 2),
    _field(AdamState, "lr", (0, -1e-3), 2, params=[]),
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
    [pytest.param(name, build, bad, id=f"{cls.__name__}.{name}-{bad!r:.30}")
     for name, (cls, _), build, too_low, _ in REALS for bad in NOT_REAL + list(too_low)],
)
def test_a_real_setting_rejects_a_non_real_a_non_finite_and_out_of_range(name, build, bad):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build(bad)


@pytest.mark.parametrize("kind", [int, np.float32, np.float64])
@pytest.mark.parametrize(
    "name, build, ok", [pytest.param(name, build, ok, id=f"{cls.__name__}.{name}")
                        for name, (cls, _), build, _, ok in REALS]
)
def test_a_real_setting_takes_an_int_or_a_numpy_float_and_stores_a_float(name, build, ok, kind):
    stored = getattr(build(kind(ok)), name)
    assert type(stored) is float and stored == ok


# The rules themselves, called directly: each stays pinned whichever fields
# use it, now that the numerology and the channel physics are constants.

#: (lo, hi) of every check_int call in the package
INT_BOUNDS = [(0, None), (1, None), (2, 2), (4, 4), (1, 16), (0, 13), (8, 8)]


@pytest.mark.parametrize(
    "bad",
    [True, False, np.bool_(True), 2.5, 8.0, np.float64(8), Fraction(3), Decimal(3),
     "3", None, 1j],
    ids=repr,
)
def test_check_int_rejects_anything_but_an_integer(bad):
    with pytest.raises(ValueError, match=r"^size must be an integer, got "):
        check_int("size", bad, 0)


@pytest.mark.parametrize(
    "lo, hi, bad, bounds",
    [pytest.param(lo, hi, bad, bounds, id=f"{lo}..{hi}-{bad}")
     for lo, hi in INT_BOUNDS
     for bad, bounds in [(lo - 1, f">= {lo}" if hi is None else f"in {lo}..{hi}")]
     + ([] if hi is None else [(hi + 1, f"in {lo}..{hi}")])]
    + [pytest.param(0, 13, 10**400, "in 0..13", id="0..13-10**400")],
)
def test_check_int_rejects_a_value_out_of_its_bounds(lo, hi, bad, bounds):
    with pytest.raises(ValueError, match=f"^size must be {re.escape(bounds)}, got {bad}$"):
        check_int("size", bad, lo, hi)


@pytest.mark.parametrize(
    "kind", [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
             np.uint64],
)
def test_check_int_takes_every_integer_type_at_both_bounds(kind):
    for lo, hi in INT_BOUNDS:
        for value in (lo, lo + 1 if hi is None else hi):
            assert check_int("size", kind(value), lo, hi) is None


#: Not finite real numbers beyond NOT_REAL: numpy scalars, containers, Decimal.
NOT_REAL_EITHER = [np.bool_(True), np.float64(math.nan), np.float32(math.inf),
                   np.complex128(1), b"1", [1.0], Decimal(1)]


@pytest.mark.parametrize("bad", NOT_REAL + NOT_REAL_EITHER, ids=lambda v: f"{v!r:.30}")
def test_check_real_rejects_a_non_real_and_a_non_finite(bad):
    with pytest.raises(ValueError, match=r"^level must be a finite real number, got "):
        check_real("level", bad)


@pytest.mark.parametrize(
    "ok",
    [0, -7, 10**300, np.int64(-3), np.uint8(200), np.float16(0.5), np.float32(-1.5),
     np.float64(2.25), Fraction(1, 4), -0.0, 5e-324, sys.float_info.max],
    ids=lambda v: f"{type(v).__name__}-{v!r:.20}",
)
def test_check_real_takes_any_finite_real_and_returns_a_float(ok):
    stored = check_real("level", ok)
    assert type(stored) is float and stored == float(ok)


@pytest.mark.parametrize(
    "bad, message",
    [pytest.param(bad, "a finite real number", id=f"{bad!r:.30}") for bad in NOT_REAL]
    + [pytest.param(bad, "> 0", id=f"{bad!r}")
       for bad in (0, -0.0, -5e-324, -1, np.float32(-1e-3))],
)
def test_check_positive_rejects_a_non_real_zero_and_below(bad, message):
    with pytest.raises(ValueError, match=f"^rate must be {re.escape(message)}, got "):
        check_positive("rate", bad)


@pytest.mark.parametrize("ok", [5e-324, 1, np.float32(0.5)], ids=repr)
def test_check_positive_takes_any_value_above_zero_and_returns_a_float(ok):
    stored = check_positive("rate", ok)
    assert type(stored) is float and stored == float(ok)


#: A noise variance or an LLR that is not a real number, each of them: a
#: bool, a str, bytes or a complex, as a scalar, a 0-d array or a vector.
NOT_REAL_SCALARS = [True, np.bool_(True), "1", b"1", 1j, np.complex128(1 + 1j),
                    np.array(True), np.array("1"), np.array(1 + 1j)]
NOT_REAL_VECTORS = [np.array([True, True]), np.array(["1", "2"]), np.array([1 + 1j, 2 + 0j])]

_GRID = np.ones((2, 14, 128), complex)
_NOISE_TAKERS = [
    ("llr_maxlog", lambda v: llr_maxlog([0.5 + 0.5j, -1j], v, qam(4)), True),
    ("lmmse_equalize", lambda v: lmmse_equalize(_GRID, _GRID, v), False),
    ("receive_classic", lambda v: receive_classic(_GRID, two_pilot_config(), v, qam(4)), False),
    ("receive_perfect_csi",
     lambda v: receive_perfect_csi(_GRID, two_pilot_config(), v, qam(4), _GRID), False),
    ("build_input_planes", lambda v: build_input_planes(np.stack([_GRID, _GRID]), v), True),
    ("receive", lambda v: NeuralReceiver(NeuralRxConfig(n_blocks=0, filters=2),
                                         np.random.default_rng(0)).receive(_GRID, v), False),
]
NOT_REAL_ARGUMENTS = [
    *[(f"{name}-{bad!r}", "noise_var", call, bad) for name, call, vectors in _NOISE_TAKERS
      for bad in NOT_REAL_SCALARS + (NOT_REAL_VECTORS if vectors else [])],
    *[(f"hard_decide-{bad!r}", "llrs", hard_decide, bad)
      for bad in ([1 + 1j], np.array([1 + 1j, -1 + 0j]), [True, False], ["1"])],
]


@pytest.mark.parametrize(
    "name, call, bad",
    [pytest.param(name, call, bad, id=row_id) for row_id, name, call, bad in NOT_REAL_ARGUMENTS],
)
def test_a_noise_variance_or_llr_that_is_not_real_is_rejected_by_name(name, call, bad):
    # bools and strs were taken as numbers and complex values raised a bare TypeError
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(bad)


@pytest.mark.parametrize(
    "ok", [0.25, np.float64(0.25), np.float32(0.25), np.array([0.5, 2.0]), 3, np.int8(3)],
    ids=repr,
)
def test_check_real_array_returns_a_float_array_and_leaves_a_float64_array_alone(ok):
    array = check_real_array("noise_var", ok)
    assert array.dtype == np.float64 and np.array_equal(array, np.asarray(ok, dtype=float))
    if isinstance(ok, np.ndarray):
        assert array is ok


@pytest.mark.parametrize(
    "bad",
    [np.array([0.0, np.nan]), np.array([[np.inf]]), np.array(-np.inf), np.float32(np.inf),
     np.array([1j, complex(np.nan, 0)]), np.array([complex(0, np.inf)], np.complex64)],
    ids=["nan", "inf", "-inf-0d", "inf-float32", "complex-nan", "complex-imag-inf"],
)
def test_check_finite_rejects_a_non_finite_entry_by_name(bad):
    with pytest.raises(ValueError, match="^y_eq holds a non-finite value$"):
        check_finite("y_eq", bad)


@pytest.mark.parametrize(
    "ok", [np.zeros(0), np.array(5e-324), np.array([-1.0, 1e308]), np.array([1j, -2 + 0j]),
           np.arange(3)],
    ids=["empty", "subnormal", "large", "complex", "int"],
)
def test_check_finite_takes_a_finite_array(ok):
    assert check_finite("y_eq", ok) is None


#: The settings that became module constants, or are derived from one, and
#: the config that held each.
REMOVED = [
    *[(GridConfig, name) for name in ("n_symbols", "n_subcarriers", "guard_left",
                                      "guard_right", "pilot_seed", "pilot_symbol_indices")],
    *[(SynthParams, name) for name in ("delay_spread_s", "speed_range_mps", "carrier_hz")],
    *[(NeuralRxConfig, name)
      for name in ("n_rx", "n_symbols", "n_subcarriers", "bits_per_symbol")],
    (TrainConfig, "ebn0_range_db"),
    (TrainConfig, "lr"),
]


@pytest.mark.parametrize(
    "cls, name", [pytest.param(cls, name, id=f"{cls.__name__}.{name}") for cls, name in REMOVED]
)
def test_a_setting_fixed_as_a_constant_is_no_longer_a_keyword(cls, name):
    with pytest.raises(TypeError, match=name):
        cls(**{name: 1})
    assert name not in {f.name for f in dataclasses.fields(cls)}


def test_every_config_field_has_a_row_in_a_settings_table():
    covered = {key for _, key, *_ in SETTINGS + REALS}
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


def test_no_module_imports_a_name_it_never_uses():
    package = Path(telempose.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        # an attribute chain such as np.float32 starts at a Name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}: {name}" for name in imported if name not in used]
    assert found == []
