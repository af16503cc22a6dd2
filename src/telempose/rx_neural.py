"""Trainable neural receiver.

A residual convolutional network maps the received resource grid (real
and imaginary planes per antenna plus a log noise-variance plane)
directly to per-bit logits over the whole grid. Internally the logits
follow the training convention sigmoid(logit) = P(bit = 1); the demapper
hand-off negates them so that, like the classical receiver, positive
LLR means bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from ._checks import check_bits, check_finite, check_int, check_real_array
from .channel import N_RX, NoiseSpec, apply, check_realizations
from .grid import (
    DATA, N_SUBCARRIERS, N_SYMBOLS, GridConfig, build_mask, grid_capacity_bits, pack_bits,
)
from .modem import Constellation, FramingError


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class NeuralRxConfig:
    """The network's size; it reads N_RX = 2 antenna grids of the fixed ``grid`` numerology."""

    n_blocks: int = 4
    filters: int = 128

    # class attributes, not fields: every link has N_RX antennas, every grid
    # this shape, every symbol is Gray QPSK
    n_rx = N_RX
    input_channels = 2 * N_RX + 1  # re/im per antenna plus the noise plane
    n_symbols = N_SYMBOLS
    n_subcarriers = N_SUBCARRIERS
    bits_per_symbol = Constellation.bits_per_symbol

    def __post_init__(self):
        check_int("n_blocks", self.n_blocks, 0)
        check_int("filters", self.filters, 1)

    def describe(self) -> str:
        # every conv is 3x3; "kernel=3" stays so existing checkpoints still match
        return (
            f"neural-rx v1 rx={self.n_rx} blocks={self.n_blocks} "
            f"filters={self.filters} kernel=3 "
            f"bits={self.bits_per_symbol} grid={self.n_symbols}x{self.n_subcarriers}"
        )


@dataclass(frozen=True)
class TrainConfig:
    """Training settings. Every draw's Eb/N0 is uniform over the class attribute
    ``ebn0_range_db`` = (-5, 16) dB, and Adam steps at the class attribute ``lr`` =
    1e-3, the neural-receiver protocol of ROADMAP item 9."""

    iterations: int = 20_000
    batch: int = 16
    log_every: int = 100
    ebn0_range_db = (-5.0, 16.0)
    lr = 1e-3

    def __post_init__(self):
        for name in ("iterations", "batch", "log_every"):
            check_int(name, getattr(self, name), 1)


class LogEntry(NamedTuple):
    iteration: int
    loss: float
    ber: float


def build_input_planes(y: np.ndarray, noise_var) -> np.ndarray:
    """Stack [re..., im..., log noise] planes for a batch of received grids.

    ``y`` is [batch, N_RX, N_SYMBOLS, N_SUBCARRIERS] complex (any other
    shape raises ``nn.ShapeError``) and must be finite in float32;
    ``noise_var`` is a real scalar or a vector of one value per grid,
    positive and finite in float32 so that its log plane is finite.
    """
    if y.shape[1:] != (N_RX, N_SYMBOLS, N_SUBCARRIERS):
        raise nn.ShapeError(
            f"received batch {y.shape} does not match receiver grid "
            f"({N_RX}, {N_SYMBOLS}, {N_SUBCARRIERS})"
        )
    batch = len(y)
    nv = check_real_array("noise_var", noise_var).astype(np.float32)
    if nv.shape not in ((), (1,), (batch,)):
        raise ValueError(
            f"noise_var must be a scalar or one value per grid, got shape {nv.shape} "
            f"for {batch} grid(s)"
        )
    nv = np.broadcast_to(nv, (batch,))
    if not np.all(np.isfinite(nv) & (nv > 0)):
        raise ValueError(f"noise_var must be positive and finite, got {noise_var}")
    planes = np.empty((batch, 2 * N_RX + 1, N_SYMBOLS, N_SUBCARRIERS), dtype=np.float32)
    with np.errstate(over="ignore"):  # out-of-range values become inf, rejected below
        planes[:, :N_RX] = y.real
        planes[:, N_RX : 2 * N_RX] = y.imag
    check_finite("received grid in float32", planes[:, : 2 * N_RX])
    planes[:, 2 * N_RX] = np.log(nv)[:, None, None]
    return planes


def _named_tensors(prefix: str, layer):
    """``layer``'s tensors by dotted name, in the order its attributes (tensors
    and layers, nothing else) were set."""
    for name, value in vars(layer).items():
        if isinstance(value, nn.Tensor):
            yield f"{prefix}.{name}", value
        else:
            yield from _named_tensors(f"{prefix}.{name}", value)


class _Block:
    def __init__(self, filters, rng):
        self.ln1 = nn.LayerNorm(filters)
        self.conv1 = nn.Conv2d(filters, filters, rng)
        self.ln2 = nn.LayerNorm(filters)
        self.conv2 = nn.Conv2d(filters, filters, rng)

    def __call__(self, h):
        # t is rebound at each step, so the first ReLU output is freed once
        # ln2 has read it, before conv2 runs
        t = self.ln2(nn.relu(self.conv1(self.ln1(h))))
        t = nn.relu(self.conv2(t))
        return nn.add(h, t)

    def infer(self, h, t, taps, part):
        """``__call__`` on plain arrays, in place: the branch is computed in ``t``, then
        added to ``h``."""
        self.conv1.infer(self.ln1.infer(h, t), t, taps, part)
        np.maximum(t, 0, out=t)
        self.conv2.infer(self.ln2.infer(t, t), t, taps, part)
        np.maximum(t, 0, out=t)
        np.add(h, t, out=h)


class NeuralReceiver:
    """Stem conv, n_blocks residual blocks, linear output conv.

    The output conv starts at zero so an untrained receiver emits exactly
    uninformative logits.
    """

    def __init__(self, cfg: NeuralRxConfig, rng):
        self.cfg = cfg
        self.stem = nn.Conv2d(cfg.input_channels, cfg.filters, rng)
        self.blocks = [_Block(cfg.filters, rng) for _ in range(cfg.n_blocks)]
        self.out = nn.Conv2d(cfg.filters, cfg.bits_per_symbol, rng, zero_init=True)

    def named_params(self) -> dict:
        """Every trainable tensor by checkpoint name, in construction (and optimizer) order."""
        layers = {"stem": self.stem, **{f"block{i}": b for i, b in enumerate(self.blocks)},
                  "out": self.out}
        return dict(kv for prefix, layer in layers.items() for kv in _named_tensors(prefix, layer))

    def params(self) -> list:
        return list(self.named_params().values())

    def forward_logits(self, y_batch: np.ndarray, noise_var) -> nn.Tensor:
        """Batched raw logits, sigmoid(logit) = P(bit = 1), recorded for training.

        ``y_batch`` is [batch, n_rx, n_symbols, n_subcarriers] complex.
        """
        h = self.stem(nn.Tensor(build_input_planes(y_batch, noise_var)))
        for block in self.blocks:
            h = block(h)
        return self.out(h)

    def receive(self, y: np.ndarray, noise_var: float) -> np.ndarray:
        """Per-bit LLRs for one received grid, positive means bit 0.

        ``y`` is [n_rx, n_symbols, n_subcarriers]; the result is
        [n_symbols, n_subcarriers, bits_per_symbol], ready for unpacking.
        The network runs as a batch of one on plain float32 arrays, with no
        ``Tensor`` and no graph. One tap buffer, one GEMM scratch and two
        activations are made per call, and every layer works in them in
        place, so calls share nothing. The logits equal ``forward_logits``'
        bit for bit.
        """
        x = build_input_planes(y[None], noise_var)
        cfg = self.cfg
        F, H, W = cfg.filters, cfg.n_symbols, cfg.n_subcarriers
        taps = nn.tap_buffer(F, H, W)
        part = np.empty((max(F, cfg.bits_per_symbol), H * W), np.float32)
        h = self.stem.infer(x, np.empty((1, F, H, W), np.float32),
                            nn.tap_buffer(cfg.input_channels, H, W), part)
        t = np.empty_like(h)
        for block in self.blocks:
            block.infer(h, t, taps, part)
        logits = self.out.infer(h, np.empty((1, cfg.bits_per_symbol, H, W), np.float32),
                                taps, part)
        return np.moveaxis(-logits[0].astype(float), 0, -1)

    def save(self, path):
        nn.save_checkpoint(path, self.named_params(), nn.config_hash(self.cfg.describe()))

    def load(self, path):
        nn.load_checkpoint(path, self.named_params(), nn.config_hash(self.cfg.describe()))


def bits_to_target_grid(bits: np.ndarray, cfg: GridConfig, B: int) -> np.ndarray:
    """Scatter one grid's payload bits to their [B, n_symbols, n_subcarriers] positions.

    ``B`` must be 2 (Gray QPSK). ``bits`` must be B bits of 0 or 1 per DATA
    element: another count raises ``FramingError``, another value ``ValueError``.
    """
    check_int("B", B, 2, 2)
    data = build_mask(cfg) == DATA
    n_data = np.count_nonzero(data)
    bits = np.asarray(bits)
    if bits.size != n_data * B:
        raise FramingError(
            f"payload of {bits.size} bits does not fill {n_data} DATA elements at {B} bits each"
        )
    check_bits(bits)
    target = np.zeros((B, cfg.n_symbols, cfg.n_subcarriers), dtype=np.float32)
    target[:, data] = bits.reshape(-1, B).T
    return target


def train(
    receiver: NeuralReceiver,
    grid_cfg: GridConfig,
    constellation: Constellation,
    channels,
    hyper: TrainConfig,
    rng: np.random.Generator,
    checkpoint_path=None,
):
    """Joint detection training loop.

    Every iteration draws fresh payload bits, a channel realization from
    the training set, and an Eb/N0 uniform in dB across
    ``TrainConfig.ebn0_range_db``; the masked binary cross entropy over
    data elements is followed by one Adam step. The previous step's
    gradients are dropped before each forward, so they do not live
    through it. A log record is written
    every ``hyper.log_every`` iterations and at the last one; with a
    ``checkpoint_path``, the weights are saved alongside each record, so
    the file and the last record describe the same step. Returns the
    training log.
    """
    # before the first draw, so a rejected set changes no weight and no generator
    channels = check_realizations(channels)
    if not channels:
        raise ValueError("empty channel training set")
    B = constellation.bits_per_symbol
    capacity = grid_capacity_bits(grid_cfg, constellation)
    data_mask = (build_mask(grid_cfg) == DATA).astype(np.float32)
    mask = np.broadcast_to(data_mask, (hyper.batch, B) + data_mask.shape)
    params = receiver.params()
    state = nn.AdamState(params, lr=hyper.lr)
    log: list[LogEntry] = []
    loss_acc, ber_acc, acc_n = 0.0, 0.0, 0

    for it in range(1, hyper.iterations + 1):
        y_batch = np.empty(
            (hyper.batch, receiver.cfg.n_rx, grid_cfg.n_symbols, grid_cfg.n_subcarriers),
            dtype=complex,
        )
        targets = np.empty((hyper.batch, B) + data_mask.shape, dtype=np.float32)
        noise_vars = np.empty(hyper.batch)
        for s in range(hyper.batch):
            bits = rng.integers(0, 2, size=capacity, dtype=np.uint8)
            symbols, _ = pack_bits(bits, grid_cfg, constellation)
            ch = channels[rng.integers(len(channels))]
            ebn0 = rng.uniform(*hyper.ebn0_range_db)
            spec = NoiseSpec(ebn0, B)
            y_batch[s] = apply(ch, symbols[0], spec, rng)
            targets[s] = bits_to_target_grid(bits, grid_cfg, B)
            noise_vars[s] = spec.noise_variance

        nn.zero_grads(params)
        logits = receiver.forward_logits(y_batch, noise_vars)
        loss = nn.bce_with_logits(logits, nn.Tensor(targets), mask=mask)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingDiverged(f"non-finite loss at iteration {it}")
        loss.backward()
        nn.adam_step(params, state)
        hard = logits.data > 0
        del logits, loss  # backward released the graph; this frees the logits array

        live = mask > 0
        ber = float(np.mean(hard[live] != (targets[live] > 0.5)))
        loss_acc += loss_value
        ber_acc += ber
        acc_n += 1
        if it % hyper.log_every == 0 or it == hyper.iterations:
            log.append(LogEntry(it, loss_acc / acc_n, ber_acc / acc_n))
            loss_acc = ber_acc = 0.0
            acc_n = 0
            if checkpoint_path is not None:
                receiver.save(checkpoint_path)
    return log
