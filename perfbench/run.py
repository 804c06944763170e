#!/usr/bin/env python3
"""treepack benchmark: one workload in this process, metrics on the last line.

    python3 perfbench/run.py --workload {sweep,family,analyze} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 the run measures the end-to-end metrics, its times scaled
to a fixed host speed (hostspeed.py).  With --trace 1
every item runs twice, untraced and traced, and the run reports the
per-layer metrics.  The line before the result holds the environment and
the details behind the metrics.  perfbench/README.md describes the
workloads, the metrics and which layer should move which metric.
"""

import os

# one BLAS/OpenMP thread, set before numpy is loaded
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from hostspeed import HostSpeed
from tracer import LAYER_FUNCTIONS, Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 15


def import_treepack() -> SimpleNamespace:
    """Import every treepack module afresh; numpy stays loaded."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "treepack" or m.startswith("treepack.")]:
        del sys.modules[name]
    importlib.import_module("treepack.cli")
    return SimpleNamespace(**{
        name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
        if name == "treepack" or name.startswith("treepack.")})


def set_up(workload, workdir: Path):
    """Import treepack and build the inputs SETUP_REPEATS times; return the
    last import, the median set-up time at the reporting speed and the raw
    median."""
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        tp = import_treepack()
        workload.setup(tp, workdir)
        times.append(time.perf_counter() - t0)
        speed.sample()
    raw = statistics.median(times)
    return tp, raw * speed.scale(0), raw


@dataclass
class Run:
    latencies: list = field(default_factory=list)   # untraced item times, s
    scaled: list = field(default_factory=list)      # the same at the reporting speed
    speed: HostSpeed = field(default_factory=HostSpeed)
    pass_walls: list = field(default_factory=list)  # wall time of each pass, s
    attempted: int = 0                               # program calls made
    failures: list = field(default_factory=list)
    traced_s: float = 0.0
    untraced_s: float = 0.0


def run_item(run: Run, workload, tp, item, tracer) -> float:
    """Call the program for one item, check the output, return its time."""
    run.attempted += 1
    reason = None
    with tracer or nullcontext():
        t0 = time.perf_counter()
        try:
            out = workload.run(tp, item)
        except Exception as exc:    # a raising item is a failed item
            reason = f"{item!r} raised {exc!r}"
        dt = time.perf_counter() - t0
    if reason is None:
        try:
            reason = workload.check(item, out)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            reason = f"{item!r}: malformed output ({exc!r})"
    if reason is not None:
        run.failures.append(reason)
    return dt


def measure(workload, tp, seconds: float, tracer: Tracer | None = None) -> Run:
    """Closed loop, one caller: run whole passes back to back while the next
    pass is expected to end within `seconds`; the first pass always runs.
    Untraced, the host-speed kernel runs at the start of each pass and
    after any item that leaves it below its share of the program's time,
    and a pass's item times are scaled by that pass's kernel samples."""
    run = Run()
    start = time.perf_counter()
    for items in workload.passes():
        if run.pass_walls and \
                time.perf_counter() - start + statistics.median(run.pass_walls) > seconds:
            break
        p0 = time.perf_counter()
        first_sample, first_item = len(run.speed.samples), len(run.latencies)
        if tracer is None:
            run.speed.sample()
        for item in items:
            if tracer is None:
                dt = run_item(run, workload, tp, item, None)
                run.speed.top_up(dt)
            else:
                # the same item untraced and traced, alternating which runs
                # first so that warm-up effects cancel in the overhead ratio
                first_traced = len(run.latencies) % 2 == 1
                times = {}
                for traced in (first_traced, not first_traced):
                    times[traced] = run_item(run, workload, tp, item, tracer if traced else None)
                dt = times[False]
                run.untraced_s += times[False]
                run.traced_s += times[True]
            run.latencies.append(dt)
        if tracer is None:
            scale = run.speed.scale(first_sample)
            run.scaled.extend(dt * scale for dt in run.latencies[first_item:])
        run.pass_walls.append(time.perf_counter() - p0)
    return run


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(lat: list, percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted `lat` and the samples beyond it."""
    i = max(0, math.ceil(percentile * len(lat) / 100) - 1)
    return lat[i], len(lat) - 1 - i


def end_to_end(run: Run, workload, setup_s: float, raw_setup_s: float) -> tuple[dict, dict]:
    metrics, raw = {}, {}
    for out, lat, setup in ((metrics, sorted(run.scaled), setup_s),
                            (raw, sorted(run.latencies), raw_setup_s)):
        out.update(
            setup_s=metric(setup, "s"),
            items_per_s=metric(len(lat) / sum(lat), "1/s"),
            item_p50_ms=metric(1000 * statistics.median(lat), "ms"),
            item_tail_ms=metric(1000 * tail(lat, workload.TAIL_PERCENTILE)[0], "ms"))
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    speed = run.speed.samples
    return metrics, {
        "item_tail": {"percentile": workload.TAIL_PERCENTILE, "samples": len(run.scaled),
                      "samples_beyond": tail(run.scaled, workload.TAIL_PERCENTILE)[1]},
        "unscaled": {k: round(v["value"], 6) for k, v in raw.items()},
        "host_speed": {"samples": len(speed), "kernel_share": round(
                           run.speed.kernel_s / run.speed.program_s, 4),
                       "kernel_ms_min": round(1000 * min(speed), 4),
                       "kernel_ms_median": round(1000 * statistics.median(speed), 4),
                       "kernel_ms_max": round(1000 * max(speed), 4)}}


def per_layer(run: Run, tracer: Tracer) -> tuple[dict, dict]:
    items = len(run.latencies)
    metrics, share = {}, {}
    for key in LAYER_FUNCTIONS:
        self_s = tracer.self_ns[key] / 1e9
        metrics[f"{key}.calls"] = metric(tracer.calls[key] / items, "calls/item")
        metrics[f"{key}.self_s"] = metric(self_s / items, "s/item")
        share[key] = round(self_s / run.traced_s, 4)
    packs = tracer.calls["packing.pack_trees"]
    metrics["packing.pack_trees.success_ratio"] = metric(
        tracer.packs_ok / packs if packs else 0.0, "ratio")
    metrics["trace.uncovered_share"] = metric(1 - tracer.top_ns / 1e9 / run.traced_s, "ratio")
    metrics["trace.overhead_ratio"] = metric(run.traced_s / run.untraced_s, "ratio")
    return metrics, {"self_share_of_traced_time": share}


def environment() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def result_line(run: Run, metrics: dict) -> dict:
    return {"correct": run.attempted > 0 and not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "treepack" / "__init__.py").is_file():
        print(f"error: treepack sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        tp, setup_s, raw_setup_s = set_up(workload, Path(workdir))
        tracer = Tracer(tp) if args.trace else None
        run = measure(workload, tp, args.seconds, tracer)

    if tracer is None:
        metrics, details = end_to_end(run, workload, setup_s, raw_setup_s)
    else:
        metrics, details = per_layer(run, tracer)
    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace, env=environment(),
        items=len(run.latencies), passes=len(run.pass_walls),
        fail_frac=len(run.failures) / run.attempted, failures=run.failures[:5])
    print(json.dumps({"details": details}))
    print(json.dumps(result_line(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
