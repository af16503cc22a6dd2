import gc
import math
import tracemalloc

import numpy as np
import pytest

from telempose import nn
from telempose.channel import (
    ChannelRealization,
    SynthParams,
    flat_unit_channel,
    synth_channel,
)
from telempose.rx_neural import (
    NeuralReceiver,
    NeuralRxConfig,
    TrainConfig,
    TrainingDiverged,
    build_input_planes,
    train,
)

TINY = NeuralRxConfig(n_blocks=1, filters=4)


def _received(rng, n_rx=2, batch=None):
    shape = (n_rx, 14, 128) if batch is None else (batch, n_rx, 14, 128)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _channels(n_rx=2, n=4):
    rng = np.random.default_rng(31)
    return [synth_channel(rng, SynthParams(n_rx=n_rx)) for _ in range(n)]


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


def test_paper_config_hash_is_stable():
    assert nn.config_hash(NeuralRxConfig().describe()) == (
        "45c4c69e9cb921c83d9867f3634bd6d8b2e8c576521382e0829988cb302b60f0"
    )


def test_antenna_count_mismatch_is_rejected(cfg_2p, qpsk, rng):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    hyper = TrainConfig(iterations=1, batch=1)
    with pytest.raises(ValueError, match="antennas"):
        train(rx, cfg_2p, qpsk, _channels(n_rx=1), hyper, rng)
    with pytest.raises(nn.ShapeError):
        rx.forward_logits(_received(rng, n_rx=1, batch=1), 0.1)


@pytest.mark.parametrize(
    "bad",
    [
        {"iterations": 0}, {"batch": 0}, {"log_every": 0}, {"lr": 0.0}, {"lr": -1e-3},
        {"lr": np.nan}, {"lr": np.inf}, {"ebn0_range_db": (5.0, -5.0)},
        {"ebn0_range_db": (-5.0, np.inf)}, {"ebn0_range_db": (np.nan, 5.0)},
        {"ebn0_range_db": (1.0, 2.0, 3.0)}, {"checkpoint_every": 0},
        {"checkpoint_every": -1},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_invalid_training_settings_change_nothing(tmp_path, cfg_2p, qpsk, bad):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    before = {name: p.data.copy() for name, p in rx.named_params().items()}
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    settings = {"iterations": 1, "batch": 1, **bad}
    every = settings.pop("checkpoint_every", 1)
    with pytest.raises(ValueError):
        train(rx, cfg_2p, qpsk, _channels(), TrainConfig(**settings), rng,
              checkpoint_path=tmp_path / "rx.tpwt", checkpoint_every=every)
    assert rng.bit_generator.state == state
    for name, p in rx.named_params().items():
        assert np.array_equal(p.data, before[name]), name
    assert not (tmp_path / "rx.tpwt").exists()


def test_first_training_loss_is_ln2(cfg_2p, qpsk):
    log, _ = _trained_log(cfg_2p, qpsk, iterations=1)
    assert abs(log[0].loss - math.log(2.0)) <= 1e-6


def test_training_lowers_the_loss_on_a_flat_channel(cfg_2p, qpsk):
    rx = NeuralReceiver(NeuralRxConfig(filters=8, n_blocks=1), np.random.default_rng(2))
    hyper = TrainConfig(iterations=30, batch=2, lr=1e-2, ebn0_range_db=(10.0, 10.0),
                        log_every=10)
    log = train(rx, cfg_2p, qpsk, [flat_unit_channel(2)], hyper, np.random.default_rng(3))
    assert [e.iteration for e in log] == [10, 20, 30]
    assert log[-1].loss < 0.2  # ln 2 ~ 0.693 before training


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
    hyper = TrainConfig(iterations=3, batch=2)
    train(rx, cfg_2p, qpsk, _channels(), hyper, np.random.default_rng(3),
          checkpoint_path=path, checkpoint_every=2)
    fresh = NeuralReceiver(TINY, np.random.default_rng(4))
    fresh.load(path)
    trained, loaded = rx.named_params(), fresh.named_params()
    assert list(loaded) == list(trained)
    for name, p in trained.items():
        assert np.array_equal(loaded[name].data, p.data), name


def test_non_finite_loss_raises_training_diverged(cfg_2p, qpsk):
    # the received planes are finite in float32, but the stem conv's sums overflow
    huge = ChannelRealization(gains=[[1e37, 1e37]], delays=[0.0], dopplers=[0.0])
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    hyper = TrainConfig(iterations=2, batch=1)
    with pytest.raises(TrainingDiverged, match="iteration 1"), np.errstate(all="ignore"):
        train(rx, cfg_2p, qpsk, [huge], hyper, np.random.default_rng(1))


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


def test_receive_equals_the_recorded_forward(rng):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    rx.out.k.data = nn.kaiming_uniform(rng, rx.out.k.data.shape, 36)
    y = _received(rng)
    logits = rx.forward_logits(y[None], 0.3)
    expected = np.moveaxis(-logits.data[0].astype(float), 0, -1)
    assert np.any(expected != 0.0)
    assert np.array_equal(rx.receive(y, 0.3), expected)


def test_training_under_no_grad_raises_instead_of_not_learning(cfg_2p, qpsk):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    before = {name: p.data.copy() for name, p in rx.named_params().items()}
    with pytest.raises(RuntimeError, match="no_grad"), nn.no_grad():
        train(rx, cfg_2p, qpsk, _channels(), TrainConfig(iterations=1, batch=1),
              np.random.default_rng(1))
    for name, p in rx.named_params().items():
        assert np.array_equal(p.data, before[name]), name


def test_failed_receive_leaves_recording_on(cfg_2p, qpsk, rng):
    rx = NeuralReceiver(TINY, np.random.default_rng(0))
    with pytest.raises(ValueError, match="noise_var"):
        rx.receive(_received(rng), 0.0)
    train(rx, cfg_2p, qpsk, _channels(), TrainConfig(iterations=1, batch=1), rng)
    for name, p in rx.named_params().items():
        assert p.grad is not None and p.grad.shape == p.data.shape, name
