"""Runs one workload in this process and prints one JSON line.

``run.py`` starts this script once per set-up sample and once to measure,
each time under an address-space cap, so that memory growth past the cap
raises ``MemoryError`` in a counted call instead of drawing the kernel's
OOM killer. Nothing here calls ``gc.collect()`` or frees autodiff graphs:
the memory they hold is part of what is measured.

Usage: python3 benchmark/child.py --workload NAME --seed N --seconds S
       --trace 0|1 --mode setup|measure --cap-mib M [--tiny]
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: The timed loop never runs longer than this many times ``--seconds``,
#: even when it has not reached the workload's memory read-out point.
MAX_LOOP_FACTOR = 3
MAX_ERRORS_KEPT = 5


def blas_runtime():
    """(configuration string, thread count) of the OpenBLAS numpy loaded."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            so = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(so, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(so, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return None, None


def environment(cap_mib):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    config, threads = blas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime": config,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "as_cap_mib": cap_mib,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def timed_loop(wl, seconds, tracer, maxrss_mib):
    """Closed loop of unit calls for ``seconds``, and at least until
    ``wl.mem_calls`` calls have run. With a tracer every input runs traced,
    and every ``wl.untraced_every``-th also untraced just before, for the
    tracing overhead."""
    res = {"lat": [], "traced_calls": 0, "grids": 0, "traced_grids": 0, "attempted": 0,
           "failed": 0, "errors": [], "peak_rss_mib": None, "paired_ms": {}}
    t0 = time.perf_counter()
    deadline, hard_stop = t0 + seconds, t0 + MAX_LOOP_FACTOR * seconds
    i = 0
    while True:
        now = time.perf_counter()
        if now >= hard_stop or (now >= deadline and i >= wl.mem_calls):
            break
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if i % wl.untraced_every == 0 else (True,)
        for traced in modes:
            inp = wl.inputs(i)
            if traced:
                tracer.call = i
            s = time.perf_counter()
            try:
                with tracer.span("call") if traced else nullcontext():
                    grids, ok = wl.traced_call(inp, tracer) if traced else wl.call(inp)
            except Exception:  # MemoryError included: counted, and the loop goes on
                grids, ok = 0, False
                if len(res["errors"]) < MAX_ERRORS_KEPT:
                    res["errors"].append(traceback.format_exc())
            e = time.perf_counter()
            res["attempted"] += 1
            if not ok:
                res["failed"] += 1
                continue
            if traced:
                res["traced_calls"] += 1
                res["traced_grids"] += grids
            else:
                res["lat"].append((e - s) * 1e3)
                res["grids"] += grids
            if tracer is not None:
                res["paired_ms"].setdefault(i, {})[traced] = (e - s) * 1e3
        i += 1
        if i == wl.mem_calls:
            res["peak_rss_mib"] = maxrss_mib()
    res["wall_s"] = time.perf_counter() - t0
    if res["peak_rss_mib"] is None:
        res["peak_rss_mib"] = maxrss_mib()
    return res


def module_split(tracer, n_calls):
    """Self time per unit call of each package module, and of the
    benchmark's own glue, outside verification spans."""
    import metrics

    split = dict.fromkeys(metrics.MODULES + ("bench",), 0.0)
    for name, (_, _, own) in tracer.totals(verify=False).items():
        module = name.split(".", 1)[0]
        split[module if module in split else "bench"] += own * 1e3 / n_calls
    return split


def layer_metrics(wl, setup_tr, tracer, loop, rss_first, isolated):
    from tracing import VERIFY

    n_calls = max(loop["traced_calls"], 1)
    out = wl.setup_metrics(setup_tr)
    out.update(wl.layer_metrics(tracer, n_calls, max(loop["traced_grids"], 1)))
    out.update(isolated)
    out["nn.rss_first_call_mb"] = rss_first
    out["nn.retained_mb"] = loop["peak_rss_mib"] - rss_first
    verify_ms = {}
    for call, name, start, end, parent in tracer.spans:
        if name.startswith(VERIFY):
            verify_ms[call] = verify_ms.get(call, 0.0) + (end - start) * 1e3
    # Each input that ran both ways gives one difference, taken at the same
    # point of the run, so memory growth and collector pauses cancel.
    diffs = [ms[True] - verify_ms.get(i, 0.0) - ms[False]
             for i, ms in loop["paired_ms"].items() if len(ms) == 2]
    if diffs:
        out["trace.overhead_ms"] = median(diffs)
    return out


#: Traced calls of each other workload in a traced run.
PROBE_CALLS = 2


def probe_other_workloads(wl, args, workdir, layers):
    """Time the layers the workload's own loop does not call.

    Each other workload runs ``PROBE_CALLS`` traced calls, and its numbers
    fill the metrics still missing, so that every per-layer metric is
    measured on every run. Returns (calls attempted, calls failed).
    """
    import workloads
    from tracing import Tracer

    attempted = failed = 0
    for cls in workloads.WORKLOADS.values():
        if isinstance(wl, cls):
            continue
        setup_tr, tracer = Tracer(), Tracer()
        probe = cls(args.seed, args.tiny, workdir, setup_tr)
        grids = 0
        for i in range(PROBE_CALLS):
            tracer.call = i
            try:
                with tracer.span("call"):
                    g, ok = probe.traced_call(probe.inputs(i), tracer)
            except Exception:
                traceback.print_exc()
                g, ok = 0, False
            attempted += 1
            failed += not ok
            grids += g
        found = probe.setup_metrics(setup_tr)
        found.update(probe.layer_metrics(tracer, PROBE_CALLS, max(grids, 1)))
        if hasattr(probe, "isolated_backward_ms"):
            found.update(probe.isolated_backward_ms(reps=1))
        for name, value in found.items():
            layers.setdefault(name, value)
    return attempted, failed


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--cap-mib", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    cap = args.cap_mib * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "telempose", "__init__.py")):
        sys.exit(f"benchmark: no telempose package under {src}")
    sys.path.insert(0, src)

    import workloads
    from tracing import Tracer

    if os.path.dirname(os.path.abspath(workloads.rx_neural.__file__)) != os.path.join(src, "telempose"):
        sys.exit("benchmark: telempose was not imported from this checkout")
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setup_tr = Tracer()
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir, setup_tr)
        checks = {}
        try:
            warm_ok = wl.warm_up()
        except Exception:
            warm_ok = False
            traceback.print_exc()
        checks["warm_up"] = (1, 0 if warm_ok else 1, None)
        rss_first = workloads.maxrss_mib()
        isolated = {}
        if args.trace and hasattr(wl, "isolated_backward_ms"):
            isolated = wl.isolated_backward_ms(reps=1 if args.tiny else 3)
        t_ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"t_ready": t_ready}))
            return
        tracer = Tracer() if args.trace else None
        loop = timed_loop(wl, args.seconds, tracer, workloads.maxrss_mib)
        with open(workloads.REFERENCE_PATH) as f:
            reference = json.load(f)
        try:
            checks.update(wl.checks(reference))
        except Exception:
            checks["checks_raised"] = (1, 1, traceback.format_exc())
        result = {
            "t_ready": t_ready,
            "latencies_ms": loop["lat"],
            "grids": loop["grids"],
            "wall_s": loop["wall_s"],
            "attempted": loop["attempted"] + sum(c[0] for c in checks.values()),
            "failed": loop["failed"] + sum(c[1] for c in checks.values()),
            "errors": loop["errors"],
            "checks": {k: {"calls": a, "failed": f, "detail": d}
                       for k, (a, f, d) in checks.items()},
            "peak_rss_mib": loop["peak_rss_mib"],
            "env": environment(args.cap_mib),
        }
        if tracer is not None:
            layers = layer_metrics(wl, setup_tr, tracer, loop, rss_first, isolated)
            result["module_split_ms"] = module_split(tracer, max(loop["traced_calls"], 1))
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
            attempted, failed = probe_other_workloads(wl, args, workdir, layers)
            result["layers"] = layers
            result["attempted"] += attempted
            result["failed"] += failed
            result["checks"]["probes"] = {"calls": attempted, "failed": failed, "detail": None}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
