"""Trainable neural receiver.

A residual convolutional network maps the received resource grid (real
and imaginary planes per antenna plus a log noise-variance plane)
directly to per-bit logits over the whole grid. Internally the logits
follow the training convention sigmoid(logit) = P(bit = 1); the demapper
hand-off negates them so that, like the classical receiver, positive
LLR means bit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from .channel import NoiseSpec, apply
from .grid import DATA, GridConfig, build_mask, grid_capacity_bits, pack_bits
from .modem import Constellation


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class NeuralRxConfig:
    n_rx: int = 2
    n_blocks: int = 4
    filters: int = 128
    bits_per_symbol: int = 2
    n_symbols: int = 14
    n_subcarriers: int = 128

    @property
    def input_channels(self) -> int:
        # re/im per antenna plus the noise plane
        return 2 * self.n_rx + 1

    def describe(self) -> str:
        # every conv is 3x3; "kernel=3" stays so existing checkpoints still match
        return (
            f"neural-rx v1 rx={self.n_rx} blocks={self.n_blocks} "
            f"filters={self.filters} kernel=3 "
            f"bits={self.bits_per_symbol} grid={self.n_symbols}x{self.n_subcarriers}"
        )


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 20_000
    batch: int = 16
    lr: float = 1e-3
    ebn0_range_db: tuple = (-5.0, 16.0)
    log_every: int = 100

    def __post_init__(self):
        for name in ("iterations", "batch", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.lr < math.inf:  # NaN fails too
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")
        r = self.ebn0_range_db
        if not (len(r) == 2 and all(map(math.isfinite, r)) and r[0] <= r[1]):
            raise ValueError(f"Eb/N0 range must be two finite values lo <= hi, got {r}")


class LogEntry(NamedTuple):
    iteration: int
    loss: float
    ber: float


def build_input_planes(y: np.ndarray, noise_var) -> np.ndarray:
    """Stack [re..., im..., log noise] planes for a batch of received grids.

    ``y`` is [batch, n_rx, n_symbols, n_subcarriers] complex and must be
    finite in float32; ``noise_var`` is a scalar or per-sample vector,
    positive and finite in float32 so that its log plane is finite.
    """
    batch, n_rx, n_sym, n_sc = y.shape
    nv = np.broadcast_to(np.asarray(noise_var, dtype=np.float32), (batch,))
    if not np.all(np.isfinite(nv) & (nv > 0)):
        raise ValueError(f"noise_var must be positive and finite, got {noise_var}")
    planes = np.empty((batch, 2 * n_rx + 1, n_sym, n_sc), dtype=np.float32)
    with np.errstate(over="ignore"):  # out-of-range values become inf, rejected below
        planes[:, :n_rx] = y.real
        planes[:, n_rx : 2 * n_rx] = y.imag
    if not np.all(np.isfinite(planes[:, : 2 * n_rx])):
        raise ValueError("received grid is not finite in float32")
    planes[:, 2 * n_rx] = np.log(nv)[:, None, None]
    return planes


class _Block:
    def __init__(self, filters, rng):
        self.ln1 = nn.LayerNorm(filters)
        self.conv1 = nn.Conv2d(filters, filters, rng)
        self.ln2 = nn.LayerNorm(filters)
        self.conv2 = nn.Conv2d(filters, filters, rng)

    def __call__(self, h):
        t = nn.relu(self.conv1(self.ln1(h)))
        t = nn.relu(self.conv2(self.ln2(t)))
        return nn.add(h, t)


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
        """Every trainable tensor by checkpoint name, in optimizer order."""
        named = {"stem.k": self.stem.k, "stem.b": self.stem.b}
        for i, b in enumerate(self.blocks):
            named[f"block{i}.ln1.gamma"] = b.ln1.gamma
            named[f"block{i}.ln1.beta"] = b.ln1.beta
            named[f"block{i}.conv1.k"] = b.conv1.k
            named[f"block{i}.conv1.b"] = b.conv1.b
            named[f"block{i}.ln2.gamma"] = b.ln2.gamma
            named[f"block{i}.ln2.beta"] = b.ln2.beta
            named[f"block{i}.conv2.k"] = b.conv2.k
            named[f"block{i}.conv2.b"] = b.conv2.b
        named["out.k"] = self.out.k
        named["out.b"] = self.out.b
        return named

    def params(self) -> list:
        return list(self.named_params().values())

    def forward_logits(self, y_batch: np.ndarray, noise_var) -> nn.Tensor:
        """Batched raw logits, sigmoid(logit) = P(bit = 1).

        ``y_batch`` is [batch, n_rx, n_symbols, n_subcarriers] complex.
        """
        cfg = self.cfg
        if y_batch.shape[1:] != (cfg.n_rx, cfg.n_symbols, cfg.n_subcarriers):
            raise nn.ShapeError(
                f"received batch {y_batch.shape} does not match receiver grid "
                f"({cfg.n_rx}, {cfg.n_symbols}, {cfg.n_subcarriers})"
            )
        x = nn.Tensor(build_input_planes(y_batch, noise_var))
        h = self.stem(x)
        for block in self.blocks:
            h = block(h)
        return self.out(h)

    def receive(self, y: np.ndarray, noise_var: float) -> np.ndarray:
        """Per-bit LLRs for one received grid, positive means bit 0.

        ``y`` is [n_rx, n_symbols, n_subcarriers]; the result is
        [n_symbols, n_subcarriers, bits_per_symbol], ready for unpacking.
        No graph is recorded, so each activation is freed once read.
        """
        with nn.no_grad():
            logits = self.forward_logits(y[None], noise_var)
        return np.moveaxis(-logits.data[0].astype(float), 0, -1)

    def save(self, path):
        nn.save_checkpoint(path, self.named_params(), nn.config_hash(self.cfg.describe()))

    def load(self, path):
        nn.load_checkpoint(path, self.named_params(), nn.config_hash(self.cfg.describe()))


def bits_to_target_grid(bits: np.ndarray, cfg: GridConfig, B: int) -> np.ndarray:
    """Scatter payload bits to their [B, n_symbols, n_subcarriers] positions."""
    data_pos = build_mask(cfg) == DATA
    target = np.zeros((B, cfg.n_symbols, cfg.n_subcarriers), dtype=np.float32)
    target[:, data_pos] = bits.reshape(-1, B).T
    return target


def train(
    receiver: NeuralReceiver,
    grid_cfg: GridConfig,
    constellation: Constellation,
    channels,
    hyper: TrainConfig,
    rng: np.random.Generator,
    checkpoint_path=None,
    checkpoint_every: int = 5000,
):
    """Joint detection training loop.

    Every iteration draws fresh payload bits, a channel realization from
    the training set, and an Eb/N0 uniform in dB across the configured
    range; the masked binary cross entropy over data elements is followed
    by one Adam step. Returns the training log.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    channels = list(channels)
    if not channels:
        raise ValueError("empty channel training set")
    for ch in channels:
        if ch.n_rx != receiver.cfg.n_rx:
            raise ValueError(
                f"channel has {ch.n_rx} antennas, receiver expects {receiver.cfg.n_rx}"
            )
    B = constellation.bits_per_symbol
    capacity = grid_capacity_bits(grid_cfg, constellation)
    data_mask = (build_mask(grid_cfg) == DATA).astype(np.float32)
    mask = np.broadcast_to(
        data_mask, (hyper.batch, B) + data_mask.shape
    )
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
            grids, _ = pack_bits(bits, grid_cfg, constellation)
            ch = channels[rng.integers(len(channels))]
            ebn0 = rng.uniform(*hyper.ebn0_range_db)
            spec = NoiseSpec(ebn0, B)
            y_batch[s] = apply(ch, grids[0], spec, rng)
            targets[s] = bits_to_target_grid(bits, grid_cfg, B)
            noise_vars[s] = spec.noise_variance

        logits = receiver.forward_logits(y_batch, noise_vars)
        loss = nn.bce_with_logits(logits, nn.Tensor(targets), mask=mask)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingDiverged(f"non-finite loss at iteration {it}")
        nn.zero_grads(params)
        loss.backward()
        nn.adam_step(params, state)
        hard = logits.data > 0
        del logits, loss  # free this step's graph before the next one is built

        live = mask > 0
        ber = float(np.mean(hard[live] != (targets[live] > 0.5)))
        loss_acc += loss_value
        ber_acc += ber
        acc_n += 1
        if it % hyper.log_every == 0 or it == hyper.iterations:
            log.append(LogEntry(it, loss_acc / acc_n, ber_acc / acc_n))
            loss_acc = ber_acc = 0.0
            acc_n = 0
        if checkpoint_path is not None and (
            it % checkpoint_every == 0 or it == hyper.iterations
        ):
            receiver.save(checkpoint_path)
    return log
