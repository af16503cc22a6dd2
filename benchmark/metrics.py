"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-test checks that the two agree.
"""

#: (name, unit, better, bound): seen by a user, measured untraced.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("grids_per_s", "1/s", "higher", 0.25),
    ("call_p50_ms", "ms", "lower", 0.25),
    ("call_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("ops_ok_frac", "frac", "higher", 0.01),
]

MODULES = ("grid", "channel", "modem", "rx_classic", "nn", "rx_neural")

#: (name, unit, better): single layers, from the traced run.
PER_LAYER = [
    ("grid.pack_bits.us_per_grid", "us", "lower"),
    ("grid.unpack_llrs.us_per_grid", "us", "lower"),
    ("channel.synth_channel.us_per_call", "us", "lower"),
    ("channel.freq_response_grid.us_per_grid", "us", "lower"),
    ("channel.apply.us_per_grid", "us", "lower"),
    ("channel.noise.us_per_grid", "us", "lower"),
    ("rx_classic.receive_classic.us_per_grid", "us", "lower"),
    ("rx_classic.ls_estimate.us_per_grid", "us", "lower"),
    ("rx_classic.interpolate.us_per_grid", "us", "lower"),
    ("rx_classic.lmmse_equalize.us_per_grid", "us", "lower"),
    ("modem.llr_maxlog.us_per_grid", "us", "lower"),
    ("rx_classic.receive_perfect_csi.us_per_grid", "us", "lower"),
    ("modem.quantize_frame.us_per_frame", "us", "lower"),
    ("modem.dequantize_frame.us_per_frame", "us", "lower"),
    ("link.grids", "count", "higher"),
    ("link.bits", "count", "higher"),
    ("link.bit_errors.ls", "count", "lower"),
    ("link.bit_errors.perfect", "count", "lower"),
    ("modem.saturations", "count", "lower"),
    ("rx_classic.erasures", "count", "lower"),
    ("rx_neural.build_input_planes.ms", "ms", "lower"),
    ("nn.conv2d.stem.fwd_ms", "ms", "lower"),
    ("nn.conv2d.block.fwd_ms", "ms", "lower"),
    ("nn.conv2d.out.fwd_ms", "ms", "lower"),
    ("nn.layer_norm.fwd_ms", "ms", "lower"),
    ("nn.relu.fwd_ms", "ms", "lower"),
    ("nn.add.fwd_ms", "ms", "lower"),
    ("rx_neural.forward_logits.ms", "ms", "lower"),
    ("nn.bce_with_logits.ms", "ms", "lower"),
    ("nn.Tensor.backward.ms", "ms", "lower"),
    ("nn.adam_step.ms", "ms", "lower"),
    ("train.data.ms", "ms", "lower"),
    ("nn.conv2d.block.bwd_ms", "ms", "lower"),
    ("nn.layer_norm.bwd_ms", "ms", "lower"),
    ("nn.relu.bwd_ms", "ms", "lower"),
    ("nn.conv2d.block.gflops", "GFLOP/s", "higher"),
    ("nn.conv2d.block.im2col_mb", "MiB", "lower"),
    ("nn.rss_first_call_mb", "MiB", "lower"),
    ("nn.retained_mb", "MiB", "lower"),
    ("channel.import_cirs.ms", "ms", "lower"),
    ("nn.load_checkpoint.ms", "ms", "lower"),
    ("channel.cir_file.bytes", "bytes", "lower"),
    ("nn.checkpoint_file.bytes", "bytes", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]

#: Metrics the benchmark specification names that are reported under
#: another name, with the reason.
RENAMED = {
    "ops_failed_frac": "ops_ok_frac: a metric here must never read 0, so the "
                       "complement (1 - failed/attempted) is reported; the "
                       "result line's 'failed' and 'attempted' give the fraction",
}
