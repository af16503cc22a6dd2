"""Seeded invariant sweep over the quantizer, the link and the neural receiver.

Most tests pin the paper's layout: 2 RX antennas and 2 pilot columns on
the fixed 14x128 grid, which carries Gray QPSK. This module runs seeded
(layout, payload, channel) cases that alternate the two pilot layouts,
1P and 2P, and checks on each one, at the 2 antennas of every link,
invariants that hold whatever the layout. It also round-trips the
quantizer at every bit width, runs tiny neural receivers on drawn grids,
and checks the gradients of the receiver's layer chain at drawn shapes.
"""

import math

import numpy as np
import pytest

from telempose import nn
from telempose.channel import (
    NoiseSpec,
    SynthParams,
    apply,
    flat_unit_channel,
    freq_response_grid,
    synth_channel,
)
from telempose.grid import (
    GridConfig,
    _data_index,
    grid_capacity_bits,
    pack_bits,
    unpack_llrs,
)
from telempose.modem import (
    FEATURES_PER_FRAME,
    QuantizerConfig,
    dequantize_frame,
    hard_decide,
    qam,
    quantize_frame,
)
from telempose.rx_classic import receive_classic, receive_perfect_csi
from telempose.rx_neural import NeuralReceiver, NeuralRxConfig, TrainConfig, train
from test_modem import LABELS
from test_nn import check_grad

SEED = 20_250_306
N_COMBOS = 40


#: Case i runs 1P when i is even and 2P when it is odd.
COMBOS = [GridConfig(1 + case % 2) for case in range(N_COMBOS)]
IDS = [f"{case}-{cfg.n_pilot_symbols}p" for case, cfg in enumerate(COMBOS)]
QPSK = qam(4)


def test_the_sweep_covers_every_axis():
    assert {cfg.pilot_symbol_indices for cfg in COMBOS} == {(2,), (2, 12)}


def _payload(case, cfg, n_grids=2.5):
    """Seeded bits for about ``n_grids`` grids, so the last grid is padded."""
    rng = np.random.default_rng([SEED, case])
    n = int(n_grids * grid_capacity_bits(cfg, QPSK))
    return rng, rng.integers(0, 2, size=n, dtype=np.uint8)


@pytest.mark.parametrize("case", range(N_COMBOS), ids=IDS)
def test_unpack_inverts_pack(case):
    cfg = COMBOS[case]
    _, bits = _payload(case, cfg)
    symbols, payload = pack_bits(bits, cfg, QPSK)
    # 2.5 grids of bits fill three grids, the last one padded
    assert symbols.shape == (3, cfg.n_symbols, cfg.n_subcarriers) and payload == bits.size
    # +-1 LLRs of the nearest point's label at every element; pilot and guard
    # elements decide whatever their value is nearest to, and must be dropped
    nearest = np.abs(symbols[..., None] - QPSK.points).argmin(axis=-1)
    llrs = 1.0 - 2.0 * LABELS[nearest]
    assert np.array_equal(hard_decide(unpack_llrs(llrs, payload, cfg)), bits)


@pytest.mark.parametrize("case", range(N_COMBOS), ids=IDS)
def test_both_receivers_decode_a_noiseless_flat_channel(case):
    cfg = COMBOS[case]
    rng, bits = _payload(case, cfg)
    symbols, payload = pack_bits(bits, cfg, QPSK)
    ch = flat_unit_channel()
    h = freq_response_grid(ch, cfg)
    ys = [apply(ch, s, None, rng) for s in symbols]
    for receive in (
        lambda y: receive_classic(y, cfg, 0.0, QPSK),
        lambda y: receive_perfect_csi(y, cfg, 0.0, QPSK, h),
    ):
        llrs = [receive(y) for y in ys]
        assert np.array_equal(hard_decide(unpack_llrs(llrs, payload, cfg)), bits)


@pytest.mark.parametrize("case", range(N_COMBOS), ids=IDS)
def test_noiseless_apply_is_the_response_times_the_grid(case):
    cfg = COMBOS[case]
    rng, bits = _payload(case, cfg)
    symbols, _ = pack_bits(bits, cfg, QPSK)
    ch = synth_channel(rng, SynthParams())
    for s in symbols:
        assert np.array_equal(apply(ch, s, None, rng), freq_response_grid(ch, cfg) * s)


@pytest.mark.parametrize("case", range(N_COMBOS), ids=IDS)
def test_perfect_csi_at_60_db_decodes_every_bit_the_channel_carries(case):
    cfg = COMBOS[case]
    rng, bits = _payload(case, cfg)
    symbols, payload = pack_bits(bits, cfg, QPSK)
    ch = synth_channel(rng, SynthParams())
    h = freq_response_grid(ch, cfg)
    spec = NoiseSpec(60.0)
    llrs = [
        receive_perfect_csi(apply(ch, s, spec, rng), cfg, spec.noise_variance, QPSK, h)
        for s in symbols
    ]
    decided = hard_decide(unpack_llrs(llrs, payload, cfg))
    # |h|^2 summed over the antennas, per payload bit
    gain = np.square(np.abs(h)).sum(axis=0).reshape(-1)[_data_index(cfg)]
    strong = np.tile(np.repeat(gain, 2), len(symbols)) > 1e-3
    strong = strong[: bits.size]
    assert strong.mean() > 0.5
    assert np.array_equal(decided[strong], bits[strong])


# ---------------------------------------------------------------------------
# quantizer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", range(1, 17))
def test_dequantize_is_within_half_a_step_of_the_quantized_frame(q):
    rng = np.random.default_rng([SEED, 1, q])
    cfg = QuantizerConfig(q=q)
    x = rng.uniform(-1, 1, size=FEATURES_PER_FRAME)
    x[:2] = -1.0, 1.0
    back = dequantize_frame(quantize_frame(x, cfg), cfg)
    # rounding: a few ulps of the endpoints in the scale and the shift
    assert np.max(np.abs(back - x)) <= cfg.step / 2 + 8 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# neural receiver
# ---------------------------------------------------------------------------

N_NEURAL = 10
NEURAL = COMBOS[:N_NEURAL]


@pytest.mark.parametrize("case", range(N_NEURAL), ids=IDS[:N_NEURAL])
def test_neural_receiver_shape_and_first_loss_at_chance(case):
    cfg = NEURAL[case]
    rng = np.random.default_rng([SEED, 2, case])
    net = NeuralRxConfig(n_blocks=int(rng.integers(0, 3)), filters=int(rng.integers(1, 5)))
    rx = NeuralReceiver(net, rng)
    ch = synth_channel(rng, SynthParams())
    y = apply(ch, np.zeros((cfg.n_symbols, cfg.n_subcarriers), complex), NoiseSpec(10.0), rng)
    llr = rx.receive(y, 0.1)
    assert llr.shape == (cfg.n_symbols, cfg.n_subcarriers, 2)
    # the zero-initialised output conv emits logit 0, whose BCE is ln 2
    log = train(rx, cfg, QPSK, [ch], TrainConfig(iterations=1, batch=2), rng)
    assert abs(log[0].loss - math.log(2)) <= 1e-6


def test_the_neural_sweep_covers_every_pilot_count():
    assert {cfg.pilot_symbol_indices for cfg in NEURAL} == {(2,), (2, 12)}


@pytest.mark.parametrize("draw", range(3))
def test_layer_chain_gradients_match_finite_differences(draw):
    # conv -> LayerNorm -> ReLU -> residual add -> BCE, in float64
    rng = np.random.default_rng([SEED, 3, draw])
    B, c_in, c_out = (int(n) for n in rng.integers(1, 4, size=3))
    H, W = int(rng.integers(1, 6)), int(rng.integers(1, 8))

    def leaf(*shape, scale=1.0):
        return nn.Tensor(scale * rng.standard_normal(shape), requires_grad=True)

    x, k, b = leaf(B, c_in, H, W), leaf(c_out, c_in, 3, 3, scale=0.5), leaf(1, c_out, 1, 1)
    gamma = nn.Tensor(1.0 + 0.1 * rng.standard_normal(c_out), requires_grad=True)
    beta = leaf(c_out, scale=0.1)
    targets = nn.Tensor((rng.uniform(size=(B, c_out, H, W)) > 0.5).astype(float))

    def loss():
        h = nn.conv2d(x, k, b)
        return nn.bce_with_logits(nn.add(h, nn.relu(nn.layer_norm(h, gamma, beta))), targets)

    check_grad(loss, x, k, b, gamma, beta)
