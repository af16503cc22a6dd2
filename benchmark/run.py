"""Benchmark of ``telempose``: one workload, one seed, one result line.

Usage, from the repository root:

    python3 benchmark/run.py --workload sweep_classic|train_neural|infer_neural \
        --seed N --seconds S --trace 0|1 [--tiny]

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` is a
separate run that records spans and reports the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds sample counts, check results and the environment. ``--tiny`` shrinks
the neural network so that the self-test runs in seconds.

Each process runs one caller and at most ``nproc`` (capped at 2) BLAS
threads under an address-space cap. ``setup_s`` is the median over
several fresh processes of the time from process start to the first timed
call.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

#: Fresh processes that only set up, besides the measuring one.
SETUP_ONLY_RUNS = 3
#: Address-space cap per workload process, MiB. It sits above the peak
#: measured at the benchmark's sizes and below the 8 GiB of the machine
#: the benchmark was written on.
CAP_MIB = {"sweep_classic": 3072, "train_neural": 6144, "infer_neural": 4096}
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
#: The whole run ends within this many seconds.
BUDGET_S = 170


def spawn(args, mode, deadline):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # String hashing shifts when the cyclic collector runs, and so how many
    # autodiff graphs are alive at a time; one fixed value makes memory and
    # latency repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode,
           "--cap-mib", str(CAP_MIB[args.workload])]
    if args.tiny:
        cmd.append("--tiny")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark: {args.workload} {mode} process ran out of time")
    if proc.returncode != 0:
        sys.exit(f"benchmark: {args.workload} {mode} process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    return out


#: Calls per block of the tail estimate.
TAIL_BLOCK_CALLS = 100


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    The calls are cut into consecutive blocks of 100 (one block when there
    are fewer than 200), and the result is the median over blocks, so that
    a few seconds of a slower shared machine do not set it. Returns
    (latency, percentile, blocks).
    """
    k = max(1, len(latencies) // TAIL_BLOCK_CALLS)
    size = len(latencies) // k
    values, pcts = [], []
    for b in range(k):
        s = sorted(latencies[b * size:(b + 1) * size])
        n = len(s)
        values.append(s[-1] if n <= 10 else s[n - 11])
        pcts.append(100.0 * max(n - 10, 0) / n)
    return median(values), median(pcts), k


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CAP_MIB))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    deadline = time.monotonic() + BUDGET_S

    setups = []
    if not args.trace:
        setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    res = spawn(args, "measure", deadline)
    setups.append(res["setup_s"])
    correct = res["failed"] == 0  # failed checks are counted in it

    lat = res["latencies_ms"]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "calls_timed": len(lat), "setup_samples": setups,
              "checks": res["checks"], "errors": res["errors"], "env": res["env"]}
    if args.trace:
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        found = {name: res["layers"][name] for name in units}
        detail["module_split_ms"] = res["module_split_ms"]
    else:
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        tail_ms, tail_pct, tail_blocks = tail(lat) if lat else (float("nan"), 0.0, 0)
        detail.update({"tail_percentile": tail_pct, "tail_blocks": tail_blocks,
                       "grids": res["grids"], "wall_s": res["wall_s"]})
        found = {
            "setup_s": median(setups),
            "grids_per_s": res["grids"] / res["wall_s"],
            "call_p50_ms": median(lat) if lat else float("nan"),
            "call_tail_ms": tail_ms,
            "peak_rss_mb": res["peak_rss_mib"],
            "ops_ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in found.items()},
    }))


if __name__ == "__main__":
    main()
