"""Malformed binary files raise the owning module's error, never a bare
``struct.error``, and a rejected checkpoint leaves the model unchanged."""

import numpy as np
import pytest

from telempose import nn
from telempose.channel import (
    ChannelFileError,
    SynthParams,
    export_cirs,
    import_cirs,
    synth_channel,
)

CKPT_HASH = nn.config_hash("format test")


def _small_model(seed):
    conv = nn.Conv2d(1, 2, np.random.default_rng(seed))
    ln = nn.LayerNorm(2)
    ln.gamma.data += seed
    return {"conv.k": conv.k, "conv.b": conv.b, "ln.gamma": ln.gamma, "ln.beta": ln.beta}


def _tpcr(path):
    rng = np.random.default_rng(8)
    export_cirs([synth_channel(rng, SynthParams(l_max=3, n_rx=2)) for _ in range(2)], path)
    return lambda: import_cirs(path), {}


def _tpwt(path):
    nn.save_checkpoint(path, _small_model(1), CKPT_HASH)
    target = _small_model(2)
    return lambda: nn.load_checkpoint(path, target, CKPT_HASH), target


FORMATS = {
    "tpcr": (_tpcr, ChannelFileError),
    "tpwt": (_tpwt, nn.CheckpointError),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_truncation_raises_the_typed_error(tmp_path, fmt):
    make, error = FORMATS[fmt]
    path = tmp_path / fmt
    load, model = make(path)
    blob = path.read_bytes()
    before = {k: p.data.copy() for k, p in model.items()}
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(error):
            load()
        for k, p in model.items():
            assert np.array_equal(p.data, before[k]), (n, k)
    path.write_bytes(blob)
    load()


@pytest.mark.parametrize("fmt", FORMATS)
def test_trailing_bytes_are_rejected(tmp_path, fmt):
    make, error = FORMATS[fmt]
    path = tmp_path / fmt
    load, _ = make(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(error, match="trailing"):
        load()


@pytest.mark.parametrize("fmt", FORMATS)
def test_bit_flips_load_finite_values_or_raise_the_typed_error(tmp_path, fmt):
    make, error = FORMATS[fmt]
    path = tmp_path / fmt
    load, model = make(path)
    blob = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    rng = np.random.default_rng(20)
    loaded = rejected = 0
    for _ in range(300):
        flipped = blob.copy()
        for bit in rng.choice(8 * blob.size, size=rng.integers(1, 4), replace=False):
            flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(flipped.tobytes())
        try:
            out = load()
        except error:
            rejected += 1
            continue
        loaded += 1
        arrays = [p.data for p in model.values()]
        arrays += [a for ch in out or () for a in (ch.gains, ch.delays, ch.dopplers)]
        assert all(np.all(np.isfinite(a)) for a in arrays)
    assert loaded and rejected
