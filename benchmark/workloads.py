"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one caller: it builds its inputs from
the seed, makes one unit call, waits for it, and makes the next. Only
public functions of ``telempose`` are called; the traced variant of each
unit call composes the same public functions with a span around each one.

- ``sweep_classic``: one link call quantizes 8 sensor frames, packs them
  into about 5 resource grids, passes them through a TPCR channel at an
  Eb/N0 taken in turn from -5..15 dB, and decodes them with the LS-LMMSE
  and the perfect-CSI receivers.
- ``train_neural``: one call is ``rx_neural.train`` for one Adam step at
  the paper network (128 filters, 4 blocks), batch 4.
- ``infer_neural``: one call is ``NeuralReceiver.receive`` on one grid,
  with weights loaded from a checkpoint.
"""

from __future__ import annotations

import math
import os
import resource
import time
from contextlib import nullcontext
from statistics import NormalDist, median

import numpy as np

from telempose import channel, grid, modem, nn, rx_classic, rx_neural

EBN0_DB = tuple(float(e) for e in range(-5, 16))
QUANT_BITS = 8
FRAMES_PER_CALL = 8
N_FRAME_SETS = 16
N_CHANNELS = 32
N_INFER_GRIDS = 64

#: Inputs of the output checks come from this seed, never from ``--seed``,
#: so the committed reference applies to every run.
CHECK_SEED = 250304860
CHANNEL_SEED = 2009_05261
CHECK_CHANNELS = 8
CHECK_CALLS_PER_POINT = 8
#: Family-wise 95% over every (receiver, Eb/N0) point of the BER table.
BER_Z = NormalDist().inv_cdf(1 - 0.05 / (2 * 2 * len(EBN0_DB)))
FP_GRIDS = 2
FP_STRIDE = 37
#: Fingerprint tolerance: float32 rounding of a reordered accumulation,
#: as a share of the largest reference LLR.
FP_RTOL = 1e-4
LN2 = math.log(2.0)
#: Input index of the warm-up call, outside the range the timed loop uses.
WARM_UP_CALL = 1 << 30

PAPER_NET = dict(filters=128, n_blocks=4)
TINY_NET = dict(filters=8, n_blocks=1)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _no_span(name):
    return nullcontext()


SELF, INCLUSIVE = 2, 1


def per_span(totals, span, per, scale, field=SELF):
    """Time of ``span`` (self or inclusive) times ``scale`` divided by
    ``per``, or per span when ``per`` is None; None when no such span ran."""
    rec = totals.get(span)
    if rec is None:
        return None
    return rec[field] * scale / (rec[0] if per is None else per)


def present(metrics: dict) -> dict:
    """Drop the metrics of layers that did not run."""
    return {k: float(v) for k, v in metrics.items() if v is not None}


def wilson(errors: int, n: int, z: float):
    """Wilson score interval for a binomial proportion."""
    p = errors / n
    d = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / d
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / d
    return centre - half, centre + half


def sensor_frames(rng, n_sets: int, per_set: int) -> np.ndarray:
    """Smooth synthetic 204-feature frames, shape [n_sets, per_set, 204].

    Each feature is a slow sinusoid plus jitter; amplitudes reach 1.1 so
    that some values saturate the [-1, 1] quantizer.
    """
    n_feat = modem.FEATURES_PER_FRAME
    t = np.arange(n_sets * per_set)[:, None]
    amp = rng.uniform(0.2, 1.1, size=n_feat)
    freq = rng.uniform(0.005, 0.05, size=n_feat)
    phase = rng.uniform(0, 2 * np.pi, size=n_feat)
    x = amp * np.sin(2 * np.pi * freq * t + phase)
    x += 0.02 * rng.standard_normal(x.shape)
    return x.reshape(n_sets, per_set, n_feat)


def channel_set(n: int, workdir: str, tr):
    """Draw ``n`` channels, round-trip them through a TPCR file.

    The set is the same for every seed: its path count sets how many
    objects set-up leaves to the garbage collector, and with it when the
    collector runs in the timed loop and how many graphs it holds.
    """
    rng = np.random.default_rng(CHANNEL_SEED)
    params = channel.SynthParams(l_max=8, n_rx=2)
    drawn = []
    for _ in range(n):
        with tr.span("channel.synth_channel"):
            drawn.append(channel.synth_channel(rng, params))
    path = os.path.join(workdir, "channels.tpcr")
    with tr.span("channel.export_cirs"):
        channel.export_cirs(drawn, path)
    with tr.span("channel.import_cirs"):
        imported = channel.import_cirs(path)
    return imported, os.path.getsize(path)


def check_channels():
    params = channel.SynthParams(l_max=8, n_rx=2)
    return [channel.synth_channel(np.random.default_rng([CHECK_SEED, c]), params)
            for c in range(CHECK_CHANNELS)]


# ---------------------------------------------------------------------------
# sweep_classic
# ---------------------------------------------------------------------------


class LinkResult:
    def __init__(self, bits, n_grids, decoded, split_equal=True, erasures=0):
        self.bits = bits
        self.n_grids = n_grids
        self.decoded = decoded  # receiver -> (soft llrs, hard bits, frames)
        self.split_equal = split_equal
        self.erasures = erasures

    def errors(self, receiver: str) -> int:
        return int(np.count_nonzero(self.decoded[receiver][1] != self.bits))

    @property
    def finite(self) -> bool:
        return all(np.isfinite(soft).all() for soft, _, _ in self.decoded.values())


def _classic_split(y, cfg, noise_var, const, tr):
    """``receive_classic`` composed from its public stages, one span each.

    The unbias/demap glue between them mirrors the receiver's own.
    """
    mask = grid.build_mask(cfg)
    eff = cfg.effective_slice
    idx = list(cfg.pilot_symbol_indices)
    pilots = grid.pilot_value_grid(cfg)[idx, eff]
    with tr.span("rx_classic.ls_estimate"):
        h_p = rx_classic.ls_estimate(y[:, idx, eff], pilots)
    with tr.span("rx_classic.interpolate"):
        h_full = rx_classic.interpolate(h_p, cfg)
    with tr.span("rx_classic.lmmse_equalize"):
        c_hat, post_var, bias = rx_classic.lmmse_equalize(y[:, :, eff], h_full, noise_var)
    with tr.span("rx_classic.demap"):
        live = bias > 0
        c_unbiased = np.zeros_like(c_hat)
        var_eff = np.ones_like(post_var)
        c_unbiased[live] = c_hat[live] / bias[live]
        var_eff[live] = np.maximum(post_var[live] / bias[live] ** 2, 1e-30)
        with tr.span("modem.llr_maxlog"):
            llr_eff = modem.llr_maxlog(c_unbiased, var_eff, const)
        llr_eff[~live] = 0.0
        llr = np.zeros((cfg.n_symbols, cfg.n_subcarriers, const.bits_per_symbol))
        llr[:, eff, :] = llr_eff
        llr[mask != grid.DATA] = 0.0
    return llr, int(np.count_nonzero(~live))


def link(frames, cfg, ch, ebn0, rng, quant, const, tr=None) -> LinkResult:
    """One link call; ``ebn0=None`` is noiseless.

    With a tracer the LS receiver runs as its composed stages and the
    public ``receive_classic`` runs under a verify span to check them.
    """
    span = _no_span if tr is None else tr.span
    parts = []
    for f in frames:
        with span("modem.quantize_frame"):
            parts.append(modem.quantize_frame(f, quant))
    bits = np.concatenate(parts)
    with span("grid.pack_bits"):
        grids, record = grid.pack_bits(bits, cfg, const)
    spec = None if ebn0 is None else channel.NoiseSpec(ebn0, const.bits_per_symbol)
    noise_var = 0.0 if spec is None else spec.noise_variance
    with span("channel.freq_response_grid"):
        h = channel.freq_response_grid(ch, cfg)
    ys = []
    for g in grids:
        with span("channel.apply"):
            ys.append(channel.apply(ch, g, spec, rng))
    ls, perfect = [], []
    split_equal, erasures = True, 0
    for y in ys:
        if tr is None:
            ls.append(rx_classic.receive_classic(y, cfg, noise_var, const))
        else:
            llr, n_erased = _classic_split(y, cfg, noise_var, const, tr)
            with tr.span("verify.receive_classic"), tr.span("rx_classic.receive_classic"):
                ref = rx_classic.receive_classic(y, cfg, noise_var, const)
            split_equal &= bool(np.array_equal(llr, ref))
            erasures += n_erased
            ls.append(llr)
        with span("rx_classic.receive_perfect_csi"):
            perfect.append(rx_classic.receive_perfect_csi(y, cfg, noise_var, const, h))
    decoded = {}
    for name, llrs in (("ls", ls), ("perfect", perfect)):
        with span("grid.unpack_llrs"):
            soft = grid.unpack_llrs(llrs, record, cfg)
        with span("modem.hard_decide"):
            hard = modem.hard_decide(soft)
        out = []
        for b in hard.reshape(len(frames), -1):
            with span("modem.dequantize_frame"):
                out.append(modem.dequantize_frame(b, quant))
        decoded[name] = (soft, hard, out)
    return LinkResult(bits, len(grids), decoded, split_equal, erasures)


def ber_counts(calls_per_point: int, first_call: int = 0):
    """Bit errors per receiver and bits per Eb/N0 on the fixed check set.

    Call j at every point uses check channel j mod 8 with its own frames
    and pilot layout, so the check and the reference differ only in bits
    of noise.
    """
    quant, const = modem.QuantizerConfig(QUANT_BITS), modem.qam(4)
    layouts = (grid.two_pilot_config(), grid.one_pilot_config())
    channels = check_channels()
    frames = sensor_frames(np.random.default_rng([CHECK_SEED, 99]), CHECK_CHANNELS,
                           FRAMES_PER_CALL)
    errors = {"ls": [0] * len(EBN0_DB), "perfect": [0] * len(EBN0_DB)}
    bits = [0] * len(EBN0_DB)
    finite = True
    for p, ebn0 in enumerate(EBN0_DB):
        for j in range(first_call, first_call + calls_per_point):
            c = j % CHECK_CHANNELS
            res = link(frames[c], layouts[c % 2], channels[c], ebn0,
                       np.random.default_rng([CHECK_SEED, p, j]), quant, const)
            finite &= res.finite
            bits[p] += res.bits.size
            for name in errors:
                errors[name][p] += res.errors(name)
    return errors, bits, finite


class Workload:
    """Common shape: ``inputs(i)`` is built outside the timed region and
    ``call(inputs)`` returns (grids processed, output ok)."""

    #: Timed calls after which ``peak_rss_mb`` is read, so that it is
    #: compared at a fixed amount of work rather than a fixed time.
    mem_calls: int
    #: In a traced run, every this-many inputs also run untraced.
    untraced_every = 1

    def warm_up(self) -> bool:
        return self.call(self.inputs(WARM_UP_CALL))[1]

    def checks(self, reference) -> dict:
        """Output checks run after the timed loop: name -> (calls, failed, detail)."""
        return {}

    def setup_metrics(self, setup_tr) -> dict:
        t = setup_tr.totals()
        return present({
            "channel.synth_channel.us_per_call": per_span(t, "channel.synth_channel", None, 1e6),
            "channel.import_cirs.ms": per_span(t, "channel.import_cirs", 1, 1e3, INCLUSIVE),
            "nn.load_checkpoint.ms": per_span(t, "nn.load_checkpoint", 1, 1e3, INCLUSIVE),
            "channel.cir_file.bytes": float(self.cir_bytes),
            "nn.checkpoint_file.bytes": getattr(self, "ckpt_bytes", None),
        })


class SweepClassic(Workload):
    name = "sweep_classic"
    mem_calls = 500
    #: Counts are summed over this many traced calls so they repeat exactly
    #: under a seed, whatever the speed.
    COUNTED_CALLS = 64

    def __init__(self, seed, tiny, workdir, tr):
        self.seed = seed
        self.quant = modem.QuantizerConfig(QUANT_BITS)
        self.const = modem.qam(4)
        self.layouts = (grid.two_pilot_config(), grid.one_pilot_config())
        rng = np.random.default_rng([seed, 0])
        self.channels, self.cir_bytes = channel_set(N_CHANNELS, workdir, tr)
        self.frame_sets = sensor_frames(rng, N_FRAME_SETS, FRAMES_PER_CALL)
        self.order = rng.integers(len(self.channels), size=4096)
        self.counts = dict.fromkeys(
            ["link.grids", "link.bits", "link.bit_errors.ls", "link.bit_errors.perfect",
             "modem.saturations", "rx_classic.erasures"], 0)
        self.counted_calls = 0
        if tiny:
            self.mem_calls = 20

    def inputs(self, i):
        return (self.frame_sets[i % N_FRAME_SETS], self.layouts[i % 2],
                self.channels[self.order[i % len(self.order)]], EBN0_DB[i % len(EBN0_DB)],
                np.random.default_rng([self.seed, 1, i]))

    def call(self, inp):
        res = link(*inp, self.quant, self.const)
        return res.n_grids, res.finite

    def traced_call(self, inp, tr):
        res = link(*inp, self.quant, self.const, tr)
        if self.counted_calls < self.COUNTED_CALLS:
            self.counted_calls += 1
            c = self.counts
            c["link.grids"] += res.n_grids
            c["link.bits"] += res.bits.size
            c["link.bit_errors.ls"] += res.errors("ls")
            c["link.bit_errors.perfect"] += res.errors("perfect")
            c["modem.saturations"] += modem.saturation_count(inp[0], self.quant)
            c["rx_classic.erasures"] += res.erasures
        return res.n_grids, res.finite and res.split_equal

    def checks(self, reference):
        out = {}
        frames = self.frame_sets[0]
        expect = [modem.dequantize_frame(modem.quantize_frame(f, self.quant), self.quant)
                  for f in frames]
        for cfg in self.layouts:
            res = link(frames, cfg, channel.flat_unit_channel(2), None, None,
                       self.quant, self.const)
            ok = res.finite and all(
                res.errors(r) == 0
                and all(np.array_equal(a, b) for a, b in zip(res.decoded[r][2], expect))
                for r in res.decoded)
            out[f"noiseless_flat_{len(cfg.pilot_symbol_indices)}p"] = (1, 0 if ok else 1, None)
        errors, bits, finite = ber_counts(CHECK_CALLS_PER_POINT)
        ref = reference["ber"]
        bad = []
        for name in errors:
            for p, ebn0 in enumerate(EBN0_DB):
                lo, hi = wilson(errors[name][p], bits[p], BER_Z)
                rlo, rhi = wilson(ref[name]["errors"][p], ref["bits"][p], BER_Z)
                if not (finite and lo <= rhi and rlo <= hi):
                    bad.append((name, ebn0))
        n_bad = len({e for _, e in bad})
        out["ber_vs_reference"] = (len(EBN0_DB) * CHECK_CALLS_PER_POINT,
                                   n_bad * CHECK_CALLS_PER_POINT, bad or None)
        return out

    def layer_metrics(self, tr, n_calls, n_grids):
        t = tr.totals(verify=False)
        v = tr.totals(verify=True)
        n_frames = n_calls * FRAMES_PER_CALL

        def self_us(name, per, table=t):
            return per_span(table, name, per, 1e6)

        frg_us = self_us("channel.freq_response_grid", None)
        apply_us = self_us("channel.apply", n_grids)
        out = present({
            "grid.pack_bits.us_per_grid": self_us("grid.pack_bits", n_grids),
            "grid.unpack_llrs.us_per_grid": self_us("grid.unpack_llrs", n_grids),
            "channel.freq_response_grid.us_per_grid": frg_us,
            "channel.apply.us_per_grid": apply_us,
            "channel.noise.us_per_grid":
                None if frg_us is None or apply_us is None else apply_us - frg_us,
            "rx_classic.receive_classic.us_per_grid":
                self_us("rx_classic.receive_classic", n_grids, v),
            "rx_classic.ls_estimate.us_per_grid": self_us("rx_classic.ls_estimate", n_grids),
            "rx_classic.interpolate.us_per_grid": self_us("rx_classic.interpolate", n_grids),
            "rx_classic.lmmse_equalize.us_per_grid":
                self_us("rx_classic.lmmse_equalize", n_grids),
            "modem.llr_maxlog.us_per_grid": self_us("modem.llr_maxlog", n_grids),
            "rx_classic.receive_perfect_csi.us_per_grid":
                self_us("rx_classic.receive_perfect_csi", n_grids),
            "modem.quantize_frame.us_per_frame": self_us("modem.quantize_frame", n_frames),
            "modem.dequantize_frame.us_per_frame":
                self_us("modem.dequantize_frame", 2 * n_frames),
        })
        out.update({k: float(v) for k, v in self.counts.items()})
        return out


# ---------------------------------------------------------------------------
# neural workloads
# ---------------------------------------------------------------------------


def forward_split(rx, y_batch, noise_var, tr):
    """``forward_logits`` composed layer by layer, one span per layer."""
    with tr.span("rx_neural.build_input_planes"):
        planes = rx_neural.build_input_planes(y_batch, noise_var)
    with tr.span("nn.conv2d.stem"):
        h = rx.stem(nn.Tensor(planes))
    for block in rx.blocks:
        t = h
        for ln, conv in ((block.ln1, block.conv1), (block.ln2, block.conv2)):
            with tr.span("nn.layer_norm"):
                t = ln(t)
            with tr.span("nn.conv2d.block"):
                t = conv(t)
            with tr.span("nn.relu"):
                t = nn.relu(t)
        with tr.span("nn.add"):
            h = nn.add(h, t)
    with tr.span("nn.conv2d.out"):
        return rx.out(h)


class NeuralWorkload(Workload):
    def __init__(self, seed, tiny, workdir, tr):
        self.seed = seed
        self.net = rx_neural.NeuralRxConfig(**(TINY_NET if tiny else PAPER_NET))
        self.cfg = grid.two_pilot_config()
        self.const = modem.qam(4)
        self.rng = np.random.default_rng([seed, 0])
        self.channels, self.cir_bytes = channel_set(N_CHANNELS, workdir, tr)
        self.ckpt_path = os.path.join(workdir, "receiver.tpwt")

    def _round_trip(self, rx, tr):
        """Save ``rx`` and load the file into a fresh receiver."""
        with tr.span("nn.save_checkpoint"):
            rx.save(self.ckpt_path)
        self.ckpt_bytes = os.path.getsize(self.ckpt_path)
        loaded = rx_neural.NeuralReceiver(self.net, np.random.default_rng(0))
        with tr.span("nn.load_checkpoint"):
            loaded.load(self.ckpt_path)
        return loaded

    def _layer_common(self, tr, n_calls, batch):
        t = tr.totals(verify=False)
        v = tr.totals(verify=True)

        def ms(name, table=t, field=SELF):
            return per_span(table, name, n_calls, 1e3, field)

        f, n_sym, n_sc = self.net.filters, self.net.n_symbols, self.net.n_subcarriers
        conv_s = per_span(t, "nn.conv2d.block", None, 1.0)
        flops = 2.0 * batch * n_sym * n_sc * f * f * 9
        return present({
            "rx_neural.build_input_planes.ms": ms("rx_neural.build_input_planes"),
            "nn.conv2d.stem.fwd_ms": ms("nn.conv2d.stem"),
            "nn.conv2d.block.fwd_ms": ms("nn.conv2d.block"),
            "nn.conv2d.out.fwd_ms": ms("nn.conv2d.out"),
            "nn.layer_norm.fwd_ms": ms("nn.layer_norm"),
            "nn.relu.fwd_ms": ms("nn.relu"),
            "nn.add.fwd_ms": ms("nn.add"),
            "rx_neural.forward_logits.ms":
                per_span(v, "rx_neural.forward_logits", None, 1e3, INCLUSIVE),
            "nn.conv2d.block.gflops": None if conv_s is None else flops / conv_s / 1e9,
            "nn.conv2d.block.im2col_mb": f * 9 * batch * n_sym * n_sc * 4 / 2**20,
        })


class TrainNeural(NeuralWorkload):
    name = "train_neural"
    mem_calls = 24
    # Two retained training graphs per input would pass the address-space cap.
    untraced_every = 4

    def __init__(self, seed, tiny, workdir, tr):
        super().__init__(seed, tiny, workdir, tr)
        self.batch = 2 if tiny else 4
        self.hyper = rx_neural.TrainConfig(iterations=1, batch=self.batch, log_every=1)
        rx = rx_neural.NeuralReceiver(self.net, np.random.default_rng([seed, 2]))
        self.rx = self._round_trip(rx, tr)
        self.first_loss = None
        self.verified = None
        if tiny:
            self.mem_calls = 2

    def inputs(self, i):
        return np.random.default_rng([self.seed, 1, i])

    def call(self, rng):
        log = rx_neural.train(self.rx, self.cfg, self.const, self.channels, self.hyper, rng)
        loss = log[-1].loss
        if self.first_loss is None:
            self.first_loss = loss
        return self.batch, math.isfinite(loss)

    def warm_up(self):
        ok = super().warm_up()
        return ok and abs(self.first_loss - LN2) <= 1e-6

    def _step_split(self, rng, tr):
        """One iteration of ``rx_neural.train`` composed from public calls."""
        rx, cfg, hyper = self.rx, self.cfg, self.hyper
        B = self.const.bits_per_symbol
        capacity = grid.grid_capacity_bits(cfg, self.const)
        data_mask = (grid.build_mask(cfg) == grid.DATA).astype(np.float32)
        mask = np.broadcast_to(data_mask, (hyper.batch, B) + data_mask.shape)
        params = rx.params()
        state = nn.AdamState(params, lr=hyper.lr)
        with tr.span("train.data"):
            y_batch = np.empty((hyper.batch, rx.cfg.n_rx, cfg.n_symbols, cfg.n_subcarriers),
                               dtype=complex)
            targets = np.empty((hyper.batch, B) + data_mask.shape, dtype=np.float32)
            noise_vars = np.empty(hyper.batch)
            for s in range(hyper.batch):
                bits = rng.integers(0, 2, size=capacity, dtype=np.uint8)
                with tr.span("grid.pack_bits"):
                    grids, _ = grid.pack_bits(bits, cfg, self.const)
                ch = self.channels[rng.integers(len(self.channels))]
                spec = channel.NoiseSpec(rng.uniform(*hyper.ebn0_range_db), B)
                with tr.span("channel.apply"):
                    y_batch[s] = channel.apply(ch, grids[0], spec, rng)
                with tr.span("rx_neural.bits_to_target_grid"):
                    targets[s] = rx_neural.bits_to_target_grid(bits, cfg, B)
                noise_vars[s] = spec.noise_variance
        logits = forward_split(rx, y_batch, noise_vars, tr)
        with tr.span("nn.bce_with_logits"):
            loss = nn.bce_with_logits(logits, nn.Tensor(targets), mask=mask)
        with tr.span("nn.zero_grads"):
            nn.zero_grads(params)
        with tr.span("nn.Tensor.backward"):
            loss.backward()
        with tr.span("nn.adam_step"):
            nn.adam_step(params, state)
        return float(loss.data)

    def traced_call(self, rng, tr):
        if self.verified is not None:
            return self.batch, math.isfinite(self._step_split(rng, tr))
        # First traced call: the composed step and ``train`` start from the
        # same weights and generator state and must agree bit for bit.
        params = self.rx.params()
        before = [p.data.copy() for p in params]
        state = rng.bit_generator.state
        loss = self._step_split(rng, tr)
        after = [p.data.copy() for p in params]
        for p, b in zip(params, before):
            p.data = b
        rng.bit_generator.state = state
        with tr.span("verify.train"), tr.span("rx_neural.train"):
            log = rx_neural.train(self.rx, self.cfg, self.const, self.channels, self.hyper,
                                  rng)
        self.verified = log[-1].loss == loss and all(
            np.array_equal(p.data, a) for p, a in zip(params, after))
        return self.batch, math.isfinite(loss) and self.verified

    def isolated_backward_ms(self, reps):
        """Backward time of single-op graphs at the network's shapes.

        Each graph is x -> op -> mean BCE; the time of the BCE-only graph is
        subtracted.
        """
        rng = np.random.default_rng([self.seed, 3])
        shape = (self.batch, self.net.filters, self.net.n_symbols, self.net.n_subcarriers)
        block = self.rx.blocks[0]
        k = nn.Tensor(block.conv1.k.data.copy(), requires_grad=True)
        gamma = nn.Tensor(block.ln1.gamma.data.copy(), requires_grad=True)
        beta = nn.Tensor(block.ln1.beta.data.copy(), requires_grad=True)

        def backward_s(op):
            times = []
            for _ in range(reps):
                x = nn.Tensor(rng.standard_normal(shape, dtype=np.float32), requires_grad=True)
                out = op(x)
                loss = nn.bce_with_logits(out, nn.Tensor(np.zeros(out.shape, np.float32)))
                t0 = time.perf_counter()
                loss.backward()
                times.append(time.perf_counter() - t0)
            return median(times)

        base = backward_s(lambda x: x)
        return {
            "nn.conv2d.block.bwd_ms": (backward_s(lambda x: nn.conv2d(x, k)) - base) * 1e3,
            "nn.layer_norm.bwd_ms":
                (backward_s(lambda x: nn.layer_norm(x, gamma, beta)) - base) * 1e3,
            "nn.relu.bwd_ms": (backward_s(nn.relu) - base) * 1e3,
        }

    def layer_metrics(self, tr, n_calls, n_grids):
        t = tr.totals(verify=False)

        def ms(name, field=SELF):
            return per_span(t, name, n_calls, 1e3, field)

        out = self._layer_common(tr, n_calls, self.batch)
        out.update(present({
            "nn.bce_with_logits.ms": ms("nn.bce_with_logits"),
            "nn.Tensor.backward.ms": ms("nn.Tensor.backward"),
            "nn.adam_step.ms": ms("nn.adam_step"),
            "train.data.ms": ms("train.data", INCLUSIVE),
            "grid.pack_bits.us_per_grid": per_span(t, "grid.pack_bits", n_grids, 1e6),
            "channel.apply.us_per_grid": per_span(t, "channel.apply", n_grids, 1e6),
        }))
        return out


class InferNeural(NeuralWorkload):
    name = "infer_neural"
    mem_calls = 200
    # Three retained graphs per input (untraced, composed, verified), and the
    # probes after the loop, would come close to the address-space cap; the
    # composed forward is checked against ``forward_logits`` on these inputs.
    untraced_every = 4

    def __init__(self, seed, tiny, workdir, tr):
        super().__init__(seed, tiny, workdir, tr)
        self.rx = self._round_trip(shipped_receiver(self.net), tr)
        self.grids = received_grids(self.rng, self.channels, self.cfg, self.const,
                                    N_INFER_GRIDS)
        if tiny:
            self.mem_calls = 5

    def inputs(self, i):
        return self.grids[i % len(self.grids)]

    def _ok(self, llr):
        shape = (self.net.n_symbols, self.net.n_subcarriers, self.net.bits_per_symbol)
        return llr.shape == shape and bool(np.isfinite(llr).all())

    def call(self, inp):
        return 1, self._ok(self.rx.receive(*inp))

    def traced_call(self, inp, tr):
        y, noise_var = inp
        logits = forward_split(self.rx, y[None], noise_var, tr)
        llr = np.moveaxis(-logits.data[0].astype(float), 0, -1)
        if tr.call % self.untraced_every:
            return 1, self._ok(llr)
        with tr.span("verify.forward_logits"), tr.span("rx_neural.forward_logits"):
            ref = self.rx.forward_logits(y[None], noise_var)
        return 1, self._ok(llr) and np.array_equal(ref.data, logits.data)

    def checks(self, reference):
        fp = reference["fingerprint"].get(self.net.describe())
        got = fingerprint(self.rx)
        ok = fp is not None and all(
            np.max(np.abs(np.asarray(g) - r)) <= FP_RTOL * np.max(np.abs(r))
            for g, r in zip(got, map(np.asarray, fp)))
        return {"llr_fingerprint": (FP_GRIDS, 0 if ok else FP_GRIDS, None)}

    def layer_metrics(self, tr, n_calls, n_grids):
        return self._layer_common(tr, n_calls, 1)


def shipped_receiver(net):
    """A receiver with fixed, seeded non-zero weights, output layer included."""
    rng = np.random.default_rng([CHECK_SEED, 5])
    rx = rx_neural.NeuralReceiver(net, rng)
    k = rx.out.k.data
    rx.out.k.data = nn.kaiming_uniform(rng, k.shape, k[0].size)
    return rx


def received_grids(rng, channels, cfg, const, n):
    """``n`` received 2P grids as (y, noise variance), Eb/N0 in turn."""
    out = []
    capacity = grid.grid_capacity_bits(cfg, const)
    for g in range(n):
        bits = rng.integers(0, 2, size=capacity, dtype=np.uint8)
        grids, _ = grid.pack_bits(bits, cfg, const)
        spec = channel.NoiseSpec(EBN0_DB[g % len(EBN0_DB)], const.bits_per_symbol)
        ch = channels[rng.integers(len(channels))]
        out.append((channel.apply(ch, grids[0], spec, rng), spec.noise_variance))
    return out


def fingerprint(rx):
    """Strided LLR samples of ``rx`` on the fixed check grids."""
    cfg, const = grid.two_pilot_config(), modem.qam(4)
    grids = received_grids(np.random.default_rng([CHECK_SEED, 7]), check_channels(), cfg,
                           const, FP_GRIDS)
    return [rx.receive(y, nv).reshape(-1)[::FP_STRIDE].tolist() for y, nv in grids]


WORKLOADS = {w.name: w for w in (SweepClassic, TrainNeural, InferNeural)}
