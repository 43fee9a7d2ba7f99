#!/usr/bin/env python3
"""mmflow benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload train_decay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced and traced

Run it from the root of a checkout. It sets up its workload several times
(``setup_s`` is the median), then issues whole rounds of the workload's
requests back to back until ``--seconds`` have passed. With ``--trace 0``
the last line of stdout is a JSON object holding the end-to-end metrics;
with ``--trace 1`` untraced and traced rounds alternate, a reference probe
follows, and the JSON holds the per-layer metrics. Every round's outputs
are checked against computations made apart from mmflow (``oracles.py``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: at the reference shape two threads gained about 4 % on
# a 2-core VM but doubled the run-to-run spread (0.17 against 0.07 over
# eight interleaved pairs of train_decay runs), as each matmul waits for
# the slower core.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("train_decay", "ablation_point_mass", "sample_eval")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def describe(values):
    """Median, sample count and, from 40 samples on, the highest percentile
    that leaves at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n}"
    if n >= 40:
        q = int(100 * (1 - 10 / n))
        text += f", p{q} {layers.percentile(values, q):.6g}"
    return text + ")"


def run_rounds(wl, seconds, trace):
    """Whole rounds until ``seconds`` pass; in trace mode they alternate
    untraced (even) and traced (odd), with at least one of each."""
    from oracles import CheckFailed
    from spans import Tracer

    out = {"times": {}, "traced_walls": [], "untraced_walls": [], "spans": [],
           "traced_spans": [], "attempted": 0, "failed": 0, "error": None}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1
        tracer = Tracer() if traced else Tracer(names=set(wl.timed_spans))
        tracer.request = index
        try:
            with tracer:
                times, failed = wl.round(index)
        except CheckFailed as err:
            out["error"] = str(err)
            out["attempted"] += wl.ops_per_round
            return out
        out["attempted"] += wl.ops_per_round
        out["failed"] += failed
        (out["traced_walls"] if traced else out["untraced_walls"]).extend(times["wall"])
        if traced:
            out["traced_spans"].extend(tracer.spans)
        else:
            out["spans"].extend(tracer.spans)
            for key, values in times.items():
                out["times"].setdefault(key, []).extend(values)
        index += 1
        if time.perf_counter() >= deadline and (not trace or index >= 2):
            return out


def run_workload(args):
    import numpy as np

    import workloads
    from spans import Tracer

    machine = machine_block(np)
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    res = run_rounds(wl, args.seconds, args.trace)
    correct = res["error"] is None
    if not correct:
        print(f"check failed: {res['error']}", file=sys.stderr)

    print(f"workload {wl.name}: seed {args.seed}, {res['attempted']} operations attempted, "
          f"{res['failed']} failed")
    if wl.name == "sample_eval":
        print(f"  failed = concurrent one-step requests that left nodes on the main "
              f"thread's open Tape (module-global tape state in autodiff); "
              f"foreign nodes per request: {sorted(set(wl.foreign_nodes))}")
    print(f"  setup_s {describe(setup_times)} s")
    metrics = {}
    if res["untraced_walls"]:
        rate, rate_name, rate_unit = wl.throughput(res["spans"], res["times"])
        print(f"  wall_s {describe(res['untraced_walls'])} s per round")
        print(f"  {rate_name} {describe(rate)} {rate_unit}")
        for key, name in (("sample", "sample_s"), ("eval", "eval_s"),
                          ("oracle_eval", "oracle_eval_s"), ("diagnose", "diagnose_s")):
            if key in res["times"]:
                print(f"  {name} {describe(res['times'][key])} s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"  peak_rss_mb {peak:.1f} MB")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(res["untraced_walls"]), "s"),
            "items_per_s": (statistics.median(rate), "1/s"),
            "peak_rss_mb": (peak, "MB"),
        }

    if args.trace and correct:
        tracer = Tracer()
        tracer.request = "probe"
        with tracer:
            counts = workloads.probe(ROOT, args.seed, wl.work)
        if wl.name == "sample_eval":
            counts["foreign_nodes"] = wl.foreign_nodes
        else:
            counts["foreign_nodes"] = [counts["foreign_nodes"]]
        spans = res["traced_spans"] + tracer.spans
        samples = layers.layer_samples(spans, counts)
        metrics = {}
        for name, (unit, desc) in layers.LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = (statistics.median(res["traced_walls"])
                         - statistics.median(res["untraced_walls"]))
                print(f"  {name} {value:.6g} {unit}: {desc} "
                      f"({len(res['traced_walls'])} traced, "
                      f"{len(res['untraced_walls'])} untraced rounds)")
            else:
                values = samples[name]
                if not values:
                    raise RuntimeError(f"no samples for {name}")
                value = layers.reduce(name, values)
                print(f"  {name} {value:.6g} {unit}: {desc}, {len(values)} samples")
            metrics[name] = (value, unit)
        if wl.name in ("train_decay", "ablation_point_mass"):
            print("  trainlog.csv bytes identical in traced and untraced rounds")
        tracer.spans = spans
        tracer.dump(os.path.join(wl.work, "spans.jsonl"))

    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, untraced and then traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1]) if lines else {"correct": False}
            summary["correct"] &= proc.returncode == 0 and result.get("correct", False)
            if not trace:
                summary["attempted"] += result.get("attempted", 0)
                summary["failed"] += result.get("failed", 0)
            for metric, v in result.get("metrics", {}).items():
                summary["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(ROOT, "src", "mmflow", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        print(f"perfbench: no mmflow source tree (src/mmflow, configs) under {ROOT}",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("MMF_THREADS", None)  # mmf ablation runs its variants serially
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
