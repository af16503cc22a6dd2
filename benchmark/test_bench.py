"""Self-test of the benchmark at tiny sizes; runs in well under a minute.

Run from the repository root: python3 -m pytest -q benchmark/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

#: Every metric the benchmark's specification names.
SPECIFIED = [
    "setup_s", "grids_per_s", "call_p50_ms", "call_tail_ms", "peak_rss_mb", "ops_failed_frac",
    "grid.pack_bits.us_per_grid", "grid.unpack_llrs.us_per_grid",
    "channel.synth_channel.us_per_call", "channel.freq_response_grid.us_per_grid",
    "channel.apply.us_per_grid", "channel.noise.us_per_grid",
    "rx_classic.receive_classic.us_per_grid", "rx_classic.ls_estimate.us_per_grid",
    "rx_classic.interpolate.us_per_grid", "rx_classic.lmmse_equalize.us_per_grid",
    "modem.llr_maxlog.us_per_grid", "rx_classic.receive_perfect_csi.us_per_grid",
    "modem.quantize_frame.us_per_frame", "modem.dequantize_frame.us_per_frame",
    "link.grids", "link.bits", "link.bit_errors.ls", "link.bit_errors.perfect",
    "modem.saturations", "rx_classic.erasures",
    "rx_neural.build_input_planes.ms", "nn.conv2d.stem.fwd_ms", "nn.conv2d.block.fwd_ms",
    "nn.conv2d.out.fwd_ms", "nn.layer_norm.fwd_ms", "nn.relu.fwd_ms", "nn.add.fwd_ms",
    "rx_neural.forward_logits.ms", "nn.bce_with_logits.ms", "nn.Tensor.backward.ms",
    "nn.adam_step.ms", "train.data.ms", "nn.conv2d.block.bwd_ms", "nn.layer_norm.bwd_ms",
    "nn.relu.bwd_ms", "nn.conv2d.block.gflops", "nn.conv2d.block.im2col_mb",
    "nn.rss_first_call_mb", "nn.retained_mb", "channel.import_cirs.ms",
    "nn.load_checkpoint.ms", "channel.cir_file.bytes", "nn.checkpoint_file.bytes",
    "trace.overhead_ms",
]
WORKLOADS = ["sweep_classic", "train_neural", "infer_neural"]


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [tuple(m.values()) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == metrics.PER_LAYER


def test_every_specified_metric_is_reported_or_renamed():
    reported = {m[0] for m in metrics.END_TO_END + metrics.PER_LAYER}
    missing = [m for m in SPECIFIED if m not in reported and m not in metrics.RENAMED]
    assert not missing


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    expected = {m[0]: m[1] for m in table}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "sweep_classic", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
