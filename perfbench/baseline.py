"""Run the benchmark repeatedly and write the baseline record.

    python3 perfbench/baseline.py

First rewrites the ``workloads`` and ``per_layer`` sections of
``BENCHMARK.json`` from ``workloads.WORKLOADS`` and ``tracer.METRICS``,
the one place each is defined.  Then, for each workload, makes ten
untraced runs on seeds 0-9 and one traced run on seed 0.  Prints each
end-to-end metric's median, quartiles and spread (quartile distance over
median, the figure ``BENCHMARK.json`` bounds) and writes ``record.json``
next to this file: workload configs, the map from layer metrics to the
end-to-end metric each should move, the baseline figures, the traced
run's layers and tracing overhead, and the machine they were taken on.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(10)
OVERHEAD = re.compile(r"tracing overhead ([-+][0-9.]+) s .* of (\d+) passes")


def generated_sections() -> dict:
    """The parts of BENCHMARK.json that other files of the benchmark define."""
    return {
        "workloads": [{"name": n, "why": w.why} for n, w in WORKLOADS.items()],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in METRICS],
    }


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "runs": len(values), "values": values}


def _getconf(name: str) -> str:
    try:
        return subprocess.run(["getconf", name], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def _machine() -> dict:
    model = "unknown"
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
        model = next(l.split(":", 1)[1].strip() for l in out.splitlines() if l.startswith("Model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> None:
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    bench.update(generated_sections())
    with open(BENCHMARK, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    baseline, traced_runs = {}, {}
    for name in WORKLOADS:
        runs = [_run(name, seed, seconds, 0)[0] for seed in SEEDS]
        entry = baseline[name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        for metric, bound in bounds.items():
            s = entry[metric] = _summary([r["metrics"][metric]["value"] for r in runs])
            flag = "" if s["spread"] <= bound else "  UNRESOLVED: spread above bound"
            print(f"{name:12s} {metric:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {s['spread']:.3f} (bound {bound}){flag}", flush=True)
        print(f"{name:12s} error_rate {entry['failed']}/{entry['attempted']}", flush=True)
        result, text = _run(name, SEEDS[0], seconds, 1)
        overhead, pairs = OVERHEAD.search(text).groups()
        traced_runs[name] = {
            "layers": {k: v["value"] for k, v in result["metrics"].items()},
            "overhead_s": {"median": float(overhead), "passes": int(pairs),
                           "note": "traced minus untraced time on the same inputs; indicative only"},
        }

    record = {
        "seeds": [SEEDS[0], SEEDS[-1]],
        "workloads": {n: w.describe() for n, w in WORKLOADS.items()},
        "error_rate": {"unit": "fraction", "better": "lower",
                       "note": "failed / attempted operations; carried by the result's failed and "
                               "attempted fields, not listed in BENCHMARK.json, whose "
                               "end-to-end metrics must be nonzero"},
        "should_move": {n: m for n, _, _, m in METRICS},
        "baseline": baseline,
        "traced_run": traced_runs,
        "machine": _machine(),
    }
    with open(os.path.join(HERE, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
