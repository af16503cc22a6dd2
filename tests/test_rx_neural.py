import gc
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from telempose import nn
from telempose.grid import DATA, build_mask, grid_capacity_bits, pack_bits
from telempose.modem import FramingError
from telempose.channel import (
    ChannelRealization,
    NoiseSpec,
    SynthParams,
    apply,
    flat_unit_channel,
    synth_channel,
)
from telempose.rx_neural import (
    NeuralReceiver,
    NeuralRxConfig,
    TrainConfig,
    TrainingDiverged,
    _Block,
    bits_to_target_grid,
    build_input_planes,
    train,
)

TINY = NeuralRxConfig(n_blocks=1, filters=4)


def _received(rng, n_rx=2, batch=None):
    shape = (n_rx, 14, 128) if batch is None else (batch, n_rx, 14, 128)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _channels(n=4):
    rng = np.random.default_rng(31)
    return [synth_channel(rng, SynthParams()) for _ in range(n)]


def _trained_log(cfg_2p, qpsk, iterations=3):
    rx = NeuralReceiver(TINY, np.random.default_rng(2))
    hyper = TrainConfig(iterations=iterations, batch=2, log_every=1)
    log = train(rx, cfg_2p, qpsk, _channels(), hyper, np.random.default_rng(3))
    return log, rx


def test_untrained_receiver_gives_zero_llrs(rng):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    llr = rx.receive(_received(rng), 0.1)
    assert llr.shape == (14, 128, 2)
    assert np.all(llr == 0.0)


def test_save_load_round_trip_gives_identical_llrs(tmp_path, rng):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    rx.out.k.data = nn.kaiming_uniform(rng, rx.out.k.data.shape, 36)
    rx.out.b.data += 0.25
    path = tmp_path / "rx.tpwt"
    rx.save(path)
    fresh = NeuralReceiver(TINY, np.random.default_rng(1))
    fresh.load(path)
    y = _received(rng)
    expected = rx.receive(y, 0.3)
    assert np.any(expected != 0.0)
    assert np.array_equal(fresh.receive(y, 0.3), expected)


def test_load_copies_into_every_parameter_array_and_keeps_its_dtype(tmp_path):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    rx.out.b.data += 0.25
    path = tmp_path / "rx.tpwt"
    rx.save(path)
    fresh = NeuralReceiver(TINY, np.random.default_rng(1))
    arrays = {name: p.data for name, p in fresh.named_params().items()}
    fresh.load(path)
    for name, p in fresh.named_params().items():
        assert p.data is arrays[name], name
        assert p.data.dtype == np.float32, name
        assert np.array_equal(p.data, rx.named_params()[name].data), name


def test_a_paper_config_load_holds_no_second_copy_of_the_weights(tmp_path):
    rx = NeuralReceiver(NeuralRxConfig(), np.random.default_rng(0))
    path = tmp_path / "rx.tpwt"
    rx.save(path)
    tracemalloc.start()
    try:
        rx.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the file's bytes (4.54 MiB) and little else: a second copy of the weights makes it 2x
    assert peak < 1.5 * path.stat().st_size, (peak, path.stat().st_size)


#: The paper network's checkpoint names in optimizer order; saved
#: checkpoints and the benchmark's training step depend on both.
PAPER_PARAM_NAMES = ["stem.k", "stem.b"] + [
    f"block{i}.{layer}.{t}" for i in range(4) for layer, tensors in
    (("ln1", "gamma beta"), ("conv1", "k b"), ("ln2", "gamma beta"), ("conv2", "k b"))
    for t in tensors.split()
] + ["out.k", "out.b"]


def test_the_paper_network_keeps_its_parameter_names_order_and_checkpoint_bytes(tmp_path):
    rx = NeuralReceiver(NeuralRxConfig(), np.random.default_rng(0))
    assert list(rx.named_params()) == PAPER_PARAM_NAMES
    assert rx.params() == list(rx.named_params().values())
    rx.save(tmp_path / "rx.tpwt")
    digest = hashlib.sha256((tmp_path / "rx.tpwt").read_bytes()).hexdigest()
    assert digest == "da08793525c9685c828c63e9b6c45d066ab8e4f04e71578fcc1417494eeb501d"


def test_paper_config_hash_is_stable():
    assert nn.config_hash(NeuralRxConfig().describe()) == (
        "45c4c69e9cb921c83d9867f3634bd6d8b2e8c576521382e0829988cb302b60f0"
    )


@pytest.mark.parametrize(
    "field, value",
    [("n_blocks", -1), ("filters", 0), ("filters", 4.5), ("n_blocks", 2.5)],
)
def test_config_rejects_an_empty_or_fractional_network(field, value):
    with pytest.raises(ValueError, match=field):
        NeuralRxConfig(**{field: value})


def test_config_allows_no_residual_blocks():
    rx = NeuralReceiver(NeuralRxConfig(n_blocks=0, filters=4), np.random.default_rng(0))
    assert rx.receive(_received(np.random.default_rng(1)), 0.1).shape == (14, 128, 2)


def test_the_receiver_reads_two_antennas_and_five_input_planes():
    assert (TINY.n_rx, TINY.input_channels) == (NeuralRxConfig.n_rx, 5) == (2, 5)
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    assert rx.stem.k.data.shape[1] == 5
    assert "rx=2 " in TINY.describe()


@pytest.mark.parametrize("n_rx", [1, 3])
def test_a_received_grid_of_another_antenna_count_is_rejected(rng, n_rx):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    with pytest.raises(nn.ShapeError, match=r"receiver grid \(2, 14, 128\)"):
        rx.forward_logits(_received(rng, n_rx=n_rx, batch=1), 0.1)
    with pytest.raises(nn.ShapeError, match=r"receiver grid \(2, 14, 128\)"):
        rx.receive(_received(rng, n_rx=n_rx), 0.1)


@pytest.mark.parametrize("shape", [(1, 2, 12, 128), (1, 2, 14, 64)])
def test_forward_rejects_a_grid_of_another_shape(shape):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    with pytest.raises(nn.ShapeError, match=r"receiver grid \(2, 14, 128\)"):
        rx.forward_logits(np.ones(shape, complex), 0.1)


@pytest.mark.parametrize(
    "shape", [(3, 1, 14, 128), (3, 3, 14, 128), (3, 2, 7, 128), (2, 14, 128)],
    ids=["1-antenna", "3-antennas", "7-symbols", "3-d"],
)
def test_input_planes_reject_a_batch_of_another_shape(shape):
    # the planes are read only by a receiver of N_RX antennas on the one grid
    with pytest.raises(nn.ShapeError, match=r"receiver grid \(2, 14, 128\)"):
        build_input_planes(np.ones(shape, complex), 0.1)


@pytest.mark.parametrize(
    "bad",
    [
        {"iterations": 0}, {"batch": 0}, {"log_every": 0}, {"batch": 2.5},
        {"iterations": 1.5}, {"log_every": True},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_invalid_training_settings_change_nothing(tmp_path, cfg_2p, qpsk, bad):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    before = {name: p.data.copy() for name, p in rx.named_params().items()}
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    settings = {"iterations": 1, "batch": 1, **bad}
    # the message names the setting, and nothing is drawn or stepped first
    with pytest.raises(ValueError, match=f"^{next(iter(bad))}"):
        train(rx, cfg_2p, qpsk, _channels(), TrainConfig(**settings), rng,
              checkpoint_path=tmp_path / "rx.tpwt")
    assert rng.bit_generator.state == state
    for name, p in rx.named_params().items():
        assert np.array_equal(p.data, before[name]), name
    assert not (tmp_path / "rx.tpwt").exists()


@pytest.mark.parametrize("entry", [None, "lookalike"])
def test_a_channel_set_entry_that_is_not_a_realization_changes_nothing(cfg_2p, qpsk, entry):
    ch = _channels(1)[0]
    if entry == "lookalike":  # the fields of a realization, none of its checks
        entry = SimpleNamespace(gains=ch.gains, delays=ch.delays, dopplers=ch.dopplers)
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    before = {name: p.data.copy() for name, p in rx.named_params().items()}
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"entry 1 is a {type(entry).__name__}, not a"):
        train(rx, cfg_2p, qpsk, [ch, entry], TrainConfig(iterations=20, batch=1), rng)
    assert rng.bit_generator.state == state
    for name, p in rx.named_params().items():
        assert np.array_equal(p.data, before[name]), name


def test_an_empty_channel_set_is_rejected(cfg_2p, qpsk, rng):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty channel"):
        train(rx, cfg_2p, qpsk, [], TrainConfig(iterations=1, batch=1), rng)


def test_first_training_loss_is_ln2(cfg_2p, qpsk):
    log, _ = _trained_log(cfg_2p, qpsk, iterations=1)
    assert abs(log[0].loss - math.log(2.0)) <= 1e-6


def test_five_tiny_training_steps_give_the_pinned_losses(cfg_2p, qpsk):
    # Losses of the tape engine that copied every gradient. Reductions may
    # sum in another order, which moves float32 results in the last bits
    # (measured: none of the five moved); rtol is about 100 float32 eps.
    log, _ = _trained_log(cfg_2p, qpsk, iterations=5)
    expected = [0.6931471824645996, 0.6930056214332581, 0.6938062906265259,
                0.6913648843765259, 0.6909058094024658]
    assert [e.iteration for e in log] == [1, 2, 3, 4, 5]
    np.testing.assert_allclose([e.loss for e in log], expected, rtol=1e-5, atol=0)


def test_training_lowers_the_loss_on_a_flat_channel(cfg_2p, qpsk):
    rx = NeuralReceiver(NeuralRxConfig(filters=8, n_blocks=1), np.random.default_rng(2))
    # at the constant lr = 1e-3; 30 iterations reach only a loss of about 0.53
    hyper = TrainConfig(iterations=150, batch=2, log_every=50)
    log = train(rx, cfg_2p, qpsk, [flat_unit_channel(2)], hyper, np.random.default_rng(3))
    assert [e.iteration for e in log] == [50, 100, 150]
    assert log[-1].loss < 0.2  # ln 2 ~ 0.693 before training


@pytest.mark.parametrize(
    "ebn0_db, noise_variance", [(-5.0, 1.5811388300841898), (16.0, 0.012559432157547901)],
    ids=["low-end", "high-end"],
)
def test_each_end_of_the_training_range_gives_its_qpsk_noise_variance(ebn0_db, noise_variance):
    # train draws from the constant and checks neither end before its first draw
    assert ebn0_db in TrainConfig.ebn0_range_db
    assert NoiseSpec(ebn0_db).noise_variance == pytest.approx(noise_variance, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_training_draws_each_eb_n0_uniform_over_the_constant_range(cfg_2p, qpsk, seed, monkeypatch):
    specs = []

    def recording_spec(*args):
        specs.append(NoiseSpec(*args))
        return specs[-1]

    monkeypatch.setattr("telempose.rx_neural.NoiseSpec", recording_spec)
    hyper = TrainConfig(iterations=2, batch=4)
    assert hyper.ebn0_range_db == TrainConfig.ebn0_range_db == (-5.0, 16.0)
    rx = NeuralReceiver(TINY, np.random.default_rng(seed))
    train(rx, cfg_2p, qpsk, _channels(), hyper, np.random.default_rng(seed))
    assert len(specs) == hyper.iterations * hyper.batch
    assert all(s.bits_per_symbol == 2 and -5.0 <= s.ebn0_db < 16.0 for s in specs)
    assert len({s.ebn0_db for s in specs}) == len(specs)


def test_training_is_deterministic_under_a_seed(cfg_2p, qpsk):
    log_a, rx_a = _trained_log(cfg_2p, qpsk)
    log_b, rx_b = _trained_log(cfg_2p, qpsk)
    assert len(log_a) == 3
    assert log_a == log_b
    for pa, pb in zip(rx_a.params(), rx_b.params()):
        assert np.array_equal(pa.data, pb.data)


def test_training_checkpoint_holds_the_trained_weights(tmp_path, cfg_2p, qpsk):
    path = tmp_path / "rx.tpwt"
    rx = NeuralReceiver(TINY, np.random.default_rng(2))
    hyper = TrainConfig(iterations=3, batch=2, log_every=2)
    train(rx, cfg_2p, qpsk, _channels(), hyper, np.random.default_rng(3), checkpoint_path=path)
    fresh = NeuralReceiver(TINY, np.random.default_rng(4))
    fresh.load(path)
    trained, loaded = rx.named_params(), fresh.named_params()
    assert list(loaded) == list(trained)
    for name, p in trained.items():
        assert np.array_equal(loaded[name].data, p.data), name


def test_the_checkpoint_is_written_with_each_log_record(tmp_path, cfg_2p, qpsk, monkeypatch):
    # records at iterations 2, 4 and 5, and a checkpoint of that step's weights with each
    saved = []
    monkeypatch.setattr(NeuralReceiver, "save", lambda rx, path: saved.append(
        [p.data.copy() for p in rx.params()]))
    rx = NeuralReceiver(TINY, np.random.default_rng(2))
    log = train(rx, cfg_2p, qpsk, _channels(), TrainConfig(iterations=5, batch=2, log_every=2),
                np.random.default_rng(3), checkpoint_path=tmp_path / "rx.tpwt")
    assert [e.iteration for e in log] == [2, 4, 5] and len(saved) == 3
    for record, weights in zip(log, saved):
        # the same seeds, stopped at the record's iteration
        short = NeuralReceiver(TINY, np.random.default_rng(2))
        hyper = TrainConfig(iterations=record.iteration, batch=2, log_every=2)
        short_log = train(short, cfg_2p, qpsk, _channels(), hyper, np.random.default_rng(3))
        assert short_log[-1] == record
        for p, w in zip(short.params(), weights):
            assert np.array_equal(p.data, w)


def test_checkpoint_every_is_no_longer_a_keyword(tmp_path, cfg_2p, qpsk):
    rx = NeuralReceiver(TINY, np.random.default_rng(2))
    with pytest.raises(TypeError, match="checkpoint_every"):
        train(rx, cfg_2p, qpsk, _channels(), TrainConfig(iterations=1, batch=1),
              np.random.default_rng(3), checkpoint_path=tmp_path / "rx.tpwt", checkpoint_every=1)
    assert not (tmp_path / "rx.tpwt").exists()


@pytest.mark.parametrize("length", [2, 4])
def test_a_noise_variance_vector_of_another_length_than_the_batch_is_rejected(rng, length):
    # numpy's bare "operands could not be broadcast" used to escape
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    noise_var = np.full(length, 0.1)
    message = rf"^noise_var must be a scalar or one value per grid, got shape \({length},\) for "
    with pytest.raises(ValueError, match=message + r"3 grid\(s\)"):
        build_input_planes(_received(rng, batch=3), noise_var)
    with pytest.raises(ValueError, match=message + r"3 grid\(s\)"):
        rx.forward_logits(_received(rng, batch=3), noise_var)
    with pytest.raises(ValueError, match=message + r"1 grid\(s\)"):
        rx.receive(_received(rng), noise_var)
    with pytest.raises(ValueError, match=r"got shape \(3, 1\)"):
        build_input_planes(_received(rng, batch=3), np.full((3, 1), 0.1))


def test_a_noise_variance_scalar_one_value_or_one_per_grid_gives_the_same_planes(rng):
    y = _received(rng, batch=3)
    expected = build_input_planes(y, 0.1)
    for noise_var in (np.float32(0.1), [0.1], np.full(3, 0.1)):
        assert np.array_equal(build_input_planes(y, noise_var), expected)


def test_non_finite_loss_raises_training_diverged(cfg_2p, qpsk):
    # the received planes are finite in float32, but the stem conv's sums overflow
    huge = ChannelRealization(gains=[[1e37, 1e37]], delays=[0.0], dopplers=[0.0])
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    hyper = TrainConfig(iterations=2, batch=1)
    with pytest.raises(TrainingDiverged, match="iteration 1"), np.errstate(all="ignore"):
        train(rx, cfg_2p, qpsk, [huge], hyper, np.random.default_rng(1))


def test_target_grid_puts_each_data_element_s_bits_on_the_bit_axis(cfg_2p, qpsk, rng):
    bits = rng.integers(0, 2, size=grid_capacity_bits(cfg_2p, qpsk), dtype=np.uint8)
    target = bits_to_target_grid(bits, cfg_2p, 2)
    data = build_mask(cfg_2p) == DATA
    assert target.shape == (2, 14, 128)
    assert np.array_equal(target[:, data].T.reshape(-1), bits)
    assert not target[:, ~data].any()


@pytest.mark.parametrize(
    "size", [2, 2807, 2809, 2 * 2808], ids=["two", "short", "long", "two-grids"]
)
def test_target_grid_needs_exactly_one_grid_of_bits(cfg_2p, size):
    with pytest.raises(FramingError, match=f"payload of {size} bits does not fill 1404"):
        bits_to_target_grid(np.zeros(size, np.uint8), cfg_2p, 2)


@pytest.mark.parametrize(
    "bits",
    [np.full(2808, 0.5), np.full(2808, 7), np.full(2808, -1), np.full(2808, 2, np.uint8),
     np.full(2808, 1 + 0j)],
    ids=["half", "seven", "minus-one", "uint8-two", "complex-one"],
)
def test_target_grid_takes_only_bits(cfg_2p, bits):
    # a BCE target of 0.5 or 7 trains towards no bit at all
    with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
        bits_to_target_grid(bits, cfg_2p, 2)


def test_a_symbol_of_other_than_two_bits_is_rejected(cfg_2p):
    # NoiseSpec(10.0, 4) gave a noise variance of 0.025, 3 dB below 10 dB's 0.05
    # for the QPSK symbols every grid carries
    with pytest.raises(ValueError, match="^bits_per_symbol must be in 2..2"):
        NoiseSpec(10.0, 4)
    with pytest.raises(ValueError, match="^B must be in 2..2"):
        bits_to_target_grid(np.zeros(1404 * 4, np.uint8), cfg_2p, 4)


@pytest.mark.parametrize(
    "noise_var",
    [0.0, -0.5, np.nan, np.inf, 1e-60, [0.1, 0.0]],
    ids=["zero", "negative", "nan", "inf", "float32-underflow", "one-zero-in-batch"],
)
def test_input_planes_reject_invalid_noise_variance(rng, noise_var):
    with pytest.raises(ValueError, match="noise_var"):
        build_input_planes(_received(rng, batch=2), noise_var)


def test_receive_rejects_zero_noise_variance(rng):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    with pytest.raises(ValueError, match="noise_var"):
        rx.receive(_received(rng), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39], ids=["nan", "inf", "beyond-float32"])
def test_receive_rejects_a_non_finite_grid(rng, bad):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    y = _received(rng)
    y[1, 3, 40] = bad
    with pytest.raises(ValueError, match="received grid"):
        rx.receive(y, 0.1)
    y[1, 3, 40] = 1j * bad
    with pytest.raises(ValueError, match="received grid"):
        rx.receive(y, 0.1)


def _live_tensors():
    return sum(isinstance(o, nn.Tensor) for o in gc.get_objects())


def test_train_and_receive_free_their_graphs_without_the_collector(cfg_2p, qpsk, rng):
    rx = NeuralReceiver(TINY, np.random.default_rng(2))
    channels, y = _channels(), _received(rng)
    hyper = TrainConfig(iterations=1, batch=2)
    gc.collect()
    gc.disable()
    try:
        before = _live_tensors()
        train(rx, cfg_2p, qpsk, channels, hyper, np.random.default_rng(3))
        after_train = _live_tensors()
        rx.receive(y, 0.1)
        after_receive = _live_tensors()
    finally:
        gc.enable()
    assert after_train == before
    assert after_receive == before


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_receive_peak_memory_does_not_grow_with_depth(rng):
    # each activation is freed once the next layer has read it, so the
    # peak is a few layers' arrays however many blocks there are
    y = _received(rng)
    peaks = [
        _peak_bytes(lambda: NeuralReceiver(NeuralRxConfig(n_blocks=n, filters=4),
                                           np.random.default_rng(0)).receive(y, 0.1))
        for n in (1, 3)
    ]
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_training_peak_memory_does_not_grow_after_the_first_step(cfg_2p, qpsk):
    # each step's graph is freed before the next forward builds one
    def run(iterations):
        rx = NeuralReceiver(TINY, np.random.default_rng(2))
        hyper = TrainConfig(iterations=iterations, batch=2)
        train(rx, cfg_2p, qpsk, [flat_unit_channel(2)], hyper, np.random.default_rng(3))

    one, three = _peak_bytes(lambda: run(1)), _peak_bytes(lambda: run(3))
    assert three < 1.1 * one, (one, three)


def test_training_drops_the_last_step_s_gradients_before_the_next_forward(cfg_2p, qpsk):
    rx = NeuralReceiver(TINY, np.random.default_rng(2))
    forward, seen = rx.forward_logits, []

    def spy(*args):
        seen.append([p.grad is None for p in rx.params()])
        return forward(*args)

    rx.forward_logits = spy
    train(rx, cfg_2p, qpsk, _channels(), TrainConfig(iterations=2, batch=2),
          np.random.default_rng(3))
    assert len(seen) == 2 and all(seen[1]), seen


def test_a_two_step_paper_batch_4_run_peaks_below_16_5_activations(cfg_2p, qpsk):
    # An activation is one [4, 128, 14, 128] float32 array, 3.5 MiB. The
    # peak counts the gradients and Adam's moments (about 3.9 activations),
    # the block outputs and LayerNorm xhats the graph keeps, and what one
    # op adds on top. It read 17.57 activations when backward freed the
    # graph only at its end, the gradients lived through the next forward
    # and a block held its first ReLU output while its second conv ran.
    rx = NeuralReceiver(NeuralRxConfig(), np.random.default_rng(0))
    hyper = TrainConfig(iterations=2, batch=4, log_every=1)
    rng = np.random.default_rng(0)
    peak = _peak_bytes(
        lambda: train(rx, cfg_2p, qpsk, [flat_unit_channel(2)], hyper, rng))
    activation = 4 * 128 * 14 * 128 * 4
    assert peak < 16.5 * activation, peak / activation


def test_a_recorded_block_keeps_only_what_its_backward_reads():
    # per block: two LayerNorm xhats, two packed ReLU masks (one bit per
    # element, a 32nd each) and the output; each conv reads its input back
    # through its LayerNorm's rebuild, and conv, ReLU and LayerNorm outputs
    # are freed
    block = _Block(16, np.random.default_rng(0))
    h = nn.Tensor(np.random.default_rng(1).standard_normal((2, 16, 14, 32)).astype(np.float32),
                  requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = block(h)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept <= 3.5 * h.data.nbytes, kept / h.data.nbytes


def test_a_recorded_block_frees_its_first_relu_output_before_its_second_conv():
    # the second conv holds its input, its output, one sample's taps and
    # the graph kept so far; the first ReLU output, which only ln2 reads,
    # is gone by then (it read 8.04 inputs while it was held)
    block = _Block(16, np.random.default_rng(0))
    h = nn.Tensor(np.random.default_rng(1).standard_normal((2, 16, 14, 32)).astype(np.float32),
                  requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        block(h)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * h.data.nbytes, peak / h.data.nbytes


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_a_batch_16_paper_step_peaks_below_320_mib():
    # A fresh interpreter, so the peaks of other tests do not count. Its
    # address space is capped at 528 MiB before numpy loads: 400 MiB is the
    # least that passed on a 2-core OpenBLAS box, so the cap leaves 128 MiB
    # of headroom. The run starts at the chance loss ln 2 and stays finite.
    src = str(Path(nn.__file__).resolve().parents[1])
    code = (
        "import resource\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (528 << 20, hard))\n"
        "import numpy as np\n"
        "from telempose import channel, grid, modem, rx_neural\n"
        "rng = np.random.default_rng(0)\n"
        "rx = rx_neural.NeuralReceiver(rx_neural.NeuralRxConfig(), rng)\n"
        "hyper = rx_neural.TrainConfig(iterations=2, batch=16, log_every=1)\n"
        "log = rx_neural.train(rx, grid.two_pilot_config(), modem.qam(4),\n"
        "                      [channel.flat_unit_channel(2)], hyper, rng)\n"
        "print(*(entry.loss for entry in log))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    losses, peak = out.stdout.splitlines()
    losses = [float(v) for v in losses.split()]
    peak_kib = int(peak)
    assert peak_kib < 320 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"
    assert len(losses) == 2 and abs(losses[0] - math.log(2)) <= 1e-6, losses
    assert all(math.isfinite(v) for v in losses), losses


def _randomized(cfg, rng):
    """A receiver with every weight, bias and LayerNorm affine random, so each formula counts."""
    rx = NeuralReceiver(cfg, np.random.default_rng(0))
    for name, p in rx.named_params().items():
        if name.endswith(".k"):
            p.data = nn.kaiming_uniform(rng, p.data.shape, p.data[0].size)
        else:
            centre = 1.0 if name.endswith(".gamma") else 0.0
            p.data = (centre + 0.1 * rng.standard_normal(p.data.shape)).astype(np.float32)
    return rx


def _recorded_llrs(rx, y, noise_var):
    logits = rx.forward_logits(y[None], noise_var)
    return np.moveaxis(-logits.data[0].astype(float), 0, -1)


@pytest.mark.parametrize("filters", [1, 4, 8])
@pytest.mark.parametrize("n_blocks", [0, 1, 2])
def test_receive_equals_the_recorded_forward(rng, n_blocks, filters):
    rx = _randomized(NeuralRxConfig(n_blocks=n_blocks, filters=filters), rng)
    for noise_var in (0.3, 2.0):
        y = _received(rng)
        expected = _recorded_llrs(rx, y, noise_var)
        assert np.all(expected != 0.0)
        assert np.array_equal(rx.receive(y, noise_var), expected)


def test_receive_equals_the_recorded_forward_at_the_paper_size(cfg_2p, qpsk, rng):
    rx = _randomized(NeuralRxConfig(), rng)
    bits = rng.integers(0, 2, size=grid_capacity_bits(cfg_2p, qpsk), dtype=np.uint8)
    symbols, _ = pack_bits(bits, cfg_2p, qpsk)
    spec = NoiseSpec(5.0, 2)
    y = apply(_channels(1)[0], symbols[0], spec, rng)
    expected = _recorded_llrs(rx, y, spec.noise_variance)
    assert np.any(expected != 0.0)
    assert np.array_equal(rx.receive(y, spec.noise_variance), expected)


def test_receive_changes_neither_its_inputs_nor_a_weight(rng):
    rx = _randomized(NeuralRxConfig(n_blocks=2, filters=8), rng)
    y, noise_var = _received(rng), np.array(0.3)
    y0, params = y.copy(), {name: (p.data, p.data.copy()) for name, p in rx.named_params().items()}
    rx.receive(y, noise_var)
    assert np.array_equal(y, y0) and noise_var == 0.3
    for name, p in rx.named_params().items():
        array, before = params[name]
        assert p.data is array and np.array_equal(array, before), name
        assert p.grad is None, name


def test_threads_receiving_on_one_receiver_get_the_serial_llrs(rng):
    # every buffer belongs to one call, so concurrent calls cannot mix;
    # more threads than cores and a short switch interval make them overlap
    rx = _randomized(NeuralRxConfig(n_blocks=2, filters=8), rng)
    n_threads = min(os.cpu_count() or 1, 7) + 1
    grids = [[(_received(rng), 0.5 + i) for i in range(4)] for _ in range(n_threads)]
    serial = [[rx.receive(y, v) for y, v in grid] for grid in grids]
    start = threading.Barrier(n_threads)
    got = [None] * n_threads

    def run(i):
        start.wait()
        got[i] = [rx.receive(y, v) for _ in range(3) for y, v in grids[i]]

    workers = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for i in range(n_threads):
        assert len(got[i]) == 12
        for n, llr in enumerate(got[i]):
            assert np.array_equal(llr, serial[i][n % 4]), (i, n)


def _loss_and_grads(rx, logits, targets):
    nn.zero_grads(rx.params())
    loss = nn.bce_with_logits(logits, nn.Tensor(targets))
    loss.backward()
    return float(loss.data), [p.grad.copy() for p in rx.params()]


@pytest.mark.parametrize("n_blocks", [0, 1, 2])
def test_forward_logits_equals_its_layers_composed_with_recording_on(rng, n_blocks):
    rx = NeuralReceiver(NeuralRxConfig(n_blocks=n_blocks, filters=4), np.random.default_rng(0))
    rx.out.k.data = nn.kaiming_uniform(rng, rx.out.k.data.shape, 36)
    y, noise_var = _received(rng, batch=2), np.array([0.3, 1.5])
    h = rx.stem(nn.Tensor(build_input_planes(y, noise_var)))
    for block in rx.blocks:
        t = h
        for ln, conv in ((block.ln1, block.conv1), (block.ln2, block.conv2)):
            t = nn.relu(conv(ln(t)))
        h = nn.add(h, t)
    composed = rx.out(h)
    logits = rx.forward_logits(y, noise_var)
    assert np.any(composed.data != 0.0)
    assert np.array_equal(logits.data, composed.data)
    targets = (rng.random(logits.shape) < 0.5).astype(np.float32)
    loss, grads = _loss_and_grads(rx, logits, targets)
    expected_loss, expected_grads = _loss_and_grads(rx, composed, targets)
    assert loss == expected_loss
    for g, expected in zip(grads, expected_grads):
        assert np.array_equal(g, expected)


@pytest.mark.parametrize("layout", ["cfg_1p", "cfg_2p"])
def test_one_training_iteration_equals_its_public_calls(qpsk, layout, request):
    cfg, channels = request.getfixturevalue(layout), _channels()
    hyper = TrainConfig(iterations=1, batch=3)
    trained = NeuralReceiver(TINY, np.random.default_rng(2))
    log = train(trained, cfg, qpsk, channels, hyper, np.random.default_rng(3))

    rx, rng, B = NeuralReceiver(TINY, np.random.default_rng(2)), np.random.default_rng(3), 2
    data_mask = (build_mask(cfg) == DATA).astype(np.float32)
    y = np.empty((hyper.batch, TINY.n_rx, 14, 128), complex)
    targets = np.empty((hyper.batch, B) + data_mask.shape, np.float32)
    noise_vars = np.empty(hyper.batch)
    for s in range(hyper.batch):
        bits = rng.integers(0, 2, size=grid_capacity_bits(cfg, qpsk), dtype=np.uint8)
        symbols, _ = pack_bits(bits, cfg, qpsk)
        ch = channels[rng.integers(len(channels))]
        spec = NoiseSpec(rng.uniform(*hyper.ebn0_range_db), B)
        y[s] = apply(ch, symbols[0], spec, rng)
        targets[s] = bits_to_target_grid(bits, cfg, B)
        noise_vars[s] = spec.noise_variance
    params = rx.params()
    before = [p.data.copy() for p in params]
    mask = np.broadcast_to(data_mask, targets.shape)
    loss = nn.bce_with_logits(rx.forward_logits(y, noise_vars), nn.Tensor(targets), mask=mask)
    nn.zero_grads(params)
    loss.backward()
    nn.adam_step(params, nn.AdamState(params, lr=hyper.lr))

    assert log[-1].loss == float(loss.data)
    assert any(np.any(p.data != b) for p, b in zip(params, before))
    for (name, p), q in zip(trained.named_params().items(), params):
        assert np.array_equal(p.data, q.data), name


def test_failed_receive_leaves_recording_on(cfg_2p, qpsk, rng):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    with pytest.raises(ValueError, match="noise_var"):
        rx.receive(_received(rng), 0.0)
    train(rx, cfg_2p, qpsk, _channels(), TrainConfig(iterations=1, batch=1), rng)
    for name, p in rx.named_params().items():
        assert p.grad is not None and p.grad.shape == p.data.shape, name
