"""Regenerate ``references.json``: the suite rows the library gives today.

    python3 perfbench/make_references.py

Stores, for run seeds 0-9 and the first passes of each run, every
``run_suite`` row (N, estimate, argmax label) under the pass seed.  The
benchmark compares later code against these rows to a relative 1e-9, so
regenerate them only when a change to the estimates is intended.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import multifreq.experiments as mx  # noqa: E402
from workloads import REFERENCES, WORKLOADS, Suite, pass_seed, suite_rows  # noqa: E402

RUN_SEEDS = range(10)
# more passes than one run of --seconds 20 gets through on a 2-core machine
PASSES = {"vq-suite": 10, "rvar-suite": 10, "rough-suite": 16}


def main() -> None:
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            if not isinstance(workload, Suite):
                continue
            rows = refs[name] = {}
            for seed in RUN_SEEDS:
                for index in range(PASSES[name]):
                    ps = pass_seed(seed, index)
                    rows[str(ps)] = suite_rows(mx.run_suite(workload.config(ps, tmp)))
                print(f"{name} seed {seed} done", flush=True)
    write(refs)


def write(refs: dict) -> None:
    # one line per pass seed keeps diffs of this file readable
    blocks = []
    for name, rows in refs.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items())
        blocks.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    with open(REFERENCES, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
