"""One benchmark process: import, warm up, then time passes in a closed loop.

Started by ``run.py`` from the root of a checkout; imports ``multifreq``
from ``src/`` of that checkout and nothing else.  It prints ``ready <t>``
once set-up is done, where ``t`` is ``time.monotonic()`` (one clock for
every process on the machine), and, unless ``--setup-only``, ``result
<json>`` when the run ends.

With ``--trace 1`` every pass seed runs twice, untraced and then traced,
so each pair's time difference is the tracing overhead on the same
inputs, and the counts reported, those of the first traced pass, have the
same seed in every run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from typing import NamedTuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

import multifreq  # noqa: E402
from tracer import Stopwatch, Tracer  # noqa: E402
from workloads import WORKLOADS, load_references, pass_seed, warmup_seed  # noqa: E402


class Pass(NamedTuple):
    traced: bool
    seconds: float
    attempted: int
    failed: int
    detail: str


def _passes(workload, seed, until, tmp, references, tracer=None) -> list[Pass]:
    """Run pass seeds 0, 1, ... until ``until`` (a perf_counter time).  With
    a tracer, each seed runs untraced and then traced."""
    out = []
    index = 0
    while True:
        for traced in (False, True) if tracer is not None else (False,):
            watch = Stopwatch(tracer if traced else None, index)
            pass_dir = os.path.join(tmp, f"pass-{index}-{int(traced)}")
            with tracer.installed() if traced else contextlib.nullcontext():
                attempted, failed, detail = workload.run_pass(
                    pass_seed(seed, index), pass_dir, references, watch
                )
            shutil.rmtree(pass_dir, ignore_errors=True)
            out.append(Pass(traced, watch.seconds, attempted, failed, detail))
        index += 1
        if time.perf_counter() >= until:
            return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.abspath(multifreq.__file__).startswith(SRC + os.sep):
        raise ImportError(f"multifreq was imported from {multifreq.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload]
    references = load_references()
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        workload.run_pass(
            warmup_seed(args.seed), os.path.join(tmp, "warmup"), references, Stopwatch(), small=True
        )
        print(f"ready {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0

        tracer = Tracer() if args.trace else None
        passes = _passes(workload, args.seed, time.perf_counter() + args.seconds, tmp, references, tracer)
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        result = {}
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["overhead_seconds"] = [t.seconds - p.seconds for p, t in zip(plain, traced)]
            result["traced_seconds"] = [p.seconds for p in traced]
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
            result["trace_file"] = os.path.relpath(trace_path, ROOT)
        result.update(
            pass_seconds=[p.seconds for p in plain],
            attempted=sum(p.attempted for p in passes),
            failed=sum(p.failed for p in passes),
            problems=[p.detail for p in passes if p.detail][:5],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print("result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
