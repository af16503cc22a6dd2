"""Every integer setting follows one rule, and no module reaches into a
sibling's private names."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import telempose
from telempose.channel import MAX_PATHS, NoiseSpec, SynthParams, flat_unit_channel
from telempose.grid import GridConfig, two_pilot_config
from telempose.modem import QuantizerConfig, qam
from telempose.rx_neural import NeuralReceiver, NeuralRxConfig, TrainConfig, train


def _train(checkpoint_every):
    rx = NeuralReceiver(NeuralRxConfig(n_blocks=0, filters=2), np.random.default_rng(0))
    hyper = TrainConfig(iterations=1, batch=1)
    return train(rx, two_pilot_config(), qam(4), [flat_unit_channel(2)], hyper,
                 np.random.default_rng(1), checkpoint_every=checkpoint_every)


# (name in the message, build from one value, lo, hi or None, a valid value)
SETTINGS = [
    ("n_subcarriers", lambda v: GridConfig(n_subcarriers=v), 1, None, 128),
    ("n_symbols", lambda v: GridConfig(n_symbols=v), 1, None, 14),
    ("guard_left", lambda v: GridConfig(guard_left=v), 0, None, 5),
    ("guard_right", lambda v: GridConfig(guard_right=v), 0, None, 6),
    ("pilot_seed", lambda v: GridConfig(pilot_seed=v), 0, None, 7),
    ("pilot symbol index", lambda v: GridConfig(pilot_symbol_indices=(v,)), 0, 13, 2),
    ("bits_per_symbol", lambda v: NoiseSpec(10.0, v), 1, None, 2),
    ("l_max", lambda v: SynthParams(l_max=v), 1, MAX_PATHS, 8),
    ("n_rx", lambda v: SynthParams(n_rx=v), 1, None, 2),
    ("q", lambda v: QuantizerConfig(q=v), 1, 16, 8),
    ("order", qam, 4, None, 4),
    *[(name, lambda v, name=name: NeuralRxConfig(**{name: v}), lo, None, 2)
      for name, lo in (("n_blocks", 0), ("n_rx", 1), ("filters", 1),
                       ("bits_per_symbol", 1), ("n_symbols", 1), ("n_subcarriers", 1))],
    *[(name, lambda v, name=name: TrainConfig(**{name: v}), 1, None, 3)
      for name in ("iterations", "batch", "log_every")],
    ("checkpoint_every", _train, 1, None, 1),
]


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
     for i, (name, build, lo, hi, ok) in enumerate(SETTINGS)
     for bad in _bad_values(lo, hi, ok)],
)
def test_an_integer_setting_rejects_a_bool_a_float_and_out_of_range(name, build, lo, hi, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        build(bad)


@pytest.mark.parametrize(
    "build, ok", [pytest.param(build, ok, id=f"{name}-{i}")
                  for i, (name, build, _, _, ok) in enumerate(SETTINGS)],
)
def test_an_integer_setting_takes_a_numpy_integer(build, ok):
    build(np.int32(ok))


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
