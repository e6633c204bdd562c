"""Benchmark for multifreq: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vq-suite --seed 0 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another.  Each run
starts fresh interpreters, one thread each, one after another:

* ``SETUPS - 1`` set-up-only processes, then the measuring process.  Each
  imports ``multifreq`` from ``src/`` and makes one untimed warm-up pass;
  ``setup_s`` is the median time from spawning one to its being ready.
* The measuring process then runs timed passes back to back (a closed
  loop) until ``--seconds`` have passed, each on inputs of its own seed.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_s`` (the
median time of one pass) and ``peak_rss_mb`` (peak resident set of the
measuring process).  ``--trace 1`` runs each pass seed untraced and then
traced from outside the library, and reports the per-layer metrics.
Either way ``error_rate`` is printed, and the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workload names and metric units come from ``BENCHMARK.json``
in the parent of this directory.  A run that cannot import the library, or
whose processes fail, prints no such line and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
SETUPS = 5
DEADLINE_S = 170.0
WORKER = os.path.join(HERE, "worker.py")
# one thread per process: BLAS pools would otherwise contend for the cores
ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunFailed(Exception):
    pass


def _spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result, if any."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, env=ENV, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed(f"worker {args} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"worker {args} exited with code {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        if key == "ready":
            ready = float(value)
        elif key == "result":
            result = json.loads(value)
    if ready is None:
        raise RunFailed(f"worker {args} never became ready")
    return ready - t0, result


def _quantity(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    setups = [_spawn(common + ["--setup-only"], deadline)[0] for _ in range(SETUPS - 1)]
    ready, res = _spawn(common + ["--trace", str(trace)], deadline)
    setups.append(ready)
    if res is None:
        raise RunFailed("the measuring worker printed no result")

    walls = res["pass_seconds"]
    rate = res["failed"] / res["attempted"]
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print(f"  setup_s      {statistics.median(setups):.4f} s  (median of {len(setups)} set-ups)")
    print(f"  wall_s       {statistics.median(walls):.4f} s  (median of {len(walls)} untraced passes)")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MiB  (1 process)")
    print(f"  error_rate   {rate:.4g} fraction  ({res['failed']} failed of {res['attempted']} operations)")
    for problem in res["problems"]:
        print(f"  failed: {problem}")
    if trace:
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        traced, overhead = res["traced_seconds"], res["overhead_seconds"]
        print(f"  traced wall_s {statistics.median(traced):.4f} s  (median of {len(traced)} traced passes)")
        print(f"  tracing overhead {statistics.median(overhead):+.4f} s  (median traced minus untraced "
              f"time of {len(overhead)} passes on the same inputs; indicative only)")
        for name, value in res["layers"].items():
            print(f"  {name:32s} {value:.6g} {units[name]}")
        print(f"  spans written to {res['trace_file']}")
        metrics = {name: _quantity(v, units[name]) for name, v in res["layers"].items()}
    else:
        metrics = {
            "setup_s": _quantity(statistics.median(setups), "s"),
            "wall_s": _quantity(statistics.median(walls), "s"),
            "peak_rss_mb": _quantity(res["peak_rss_mb"], "MiB"),
        }
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="multifreq benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join("src", "multifreq", "__init__.py")):
        print("run from the root of a multifreq checkout: src/multifreq is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            summary = run_one(name, args.seed, args.seconds, args.trace)
            print(json.dumps(summary), flush=True)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
