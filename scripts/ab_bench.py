"""A/B benchmark of the checkout against a git revision.

Exports ``--base`` with ``git archive`` into a temporary directory and
runs ``perfbench/run.py --trace 0`` alternately in that tree and in this
checkout's working tree, ``--pairs`` times, each run for ``--seconds``.
Pair i uses run seed i in both trees, and the tree that goes first
alternates from pair to pair, so a drift of the host over the
session falls on both trees alike.  ``--base HEAD`` on a clean working
tree is an A/A run, which shows how far two runs of one tree spread.

    python3 scripts/ab_bench.py --base HEAD~1 --workload decompose --pairs 10 --seconds 6

It writes ``BENCH_<workload>.json`` (or ``--out``): every run's metrics,
the share of operations that failed in each tree, and per end-to-end
metric of ``BENCHMARK.json`` the medians and quartiles of both trees, the
base's interquartile range (IQR), in how many pairs the checkout was
better, and a verdict by ``RULE`` against the metric's bound.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULE = (
    "worse when the checkout's median is worse than the base's by more than "
    "the metric's bound (a share of the base's median); otherwise "
    "unresolved when the base's IQR exceeds the bound's share of its median, "
    "unless every checkout run is better than every base run; otherwise "
    "better when the checkout is better in at least 9 of every 10 pairs, its "
    "median is better by more than the base's IQR, and no larger share of "
    "its operations failed; otherwise within bound"
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    base: list[float], head: list[float], better: str, bound: float, fails_more: bool = False
) -> dict:
    """Summary of one metric over paired runs by ``RULE``: ``base[i]`` and
    ``head[i]`` come from pair i, ``better`` is "lower" or "higher",
    ``bound`` is the metric's bound as a share of the base's median, and
    ``fails_more`` says that a larger share of the checkout's operations
    failed."""
    if len(base) != len(head) or not base:
        raise ValueError("need one base and one head value per pair")
    sign = 1.0 if better == "lower" else -1.0
    b1, b2, b3 = quartiles(base)
    h1, h2, h3 = quartiles(head)
    iqr = b3 - b1
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    gain = sign * (b2 - h2)
    apart = min(sign * b for b in base) > max(sign * h for h in head)
    if -gain > bound * abs(b2):
        call = "worse"
    elif iqr > bound * abs(b2) and not apart:
        call = "unresolved"
    elif wins >= 0.9 * len(base) and gain > iqr and not fails_more:
        call = "better"
    else:
        call = "within bound"
    return {
        "better": better,
        "bound": bound,
        "base": {"median": b2, "q1": b1, "q3": b3, "iqr": iqr},
        "head": {"median": h2, "q1": h1, "q3": h3},
        "median_change": (h2 - b2) / b2 if b2 else None,
        "head_better_in": f"{wins} of {len(base)}",
        "head_better_than_every_base_run": apart,
        "verdict": call,
    }


def failed_shares(runs: list[dict]) -> dict:
    """Per tree, the share of its runs' operations that failed."""
    shares = {}
    for tree in ("base", "head"):
        mine = [r for r in runs if r["tree"] == tree]
        attempted = sum(r["attempted"] for r in mine)
        shares[tree] = sum(r["failed"] for r in mine) / attempted if attempted else 0.0
    return shares


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, ``verdict`` over the runs of both trees,
    paired by their "pair" field, against the metric's bound."""
    pairs = sorted({r["pair"] for r in runs})
    by_tree = {
        tree: {r["pair"]: r for r in runs if r["tree"] == tree} for tree in ("base", "head")
    }
    shares = failed_shares(runs)
    fails_more = shares["head"] > shares["base"]
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        base = [by_tree["base"][p]["metrics"][name] for p in pairs]
        head = [by_tree["head"][p]["metrics"][name] for p in pairs]
        call = verdict(base, head, metric["better"], metric["bound"], fails_more)
        out[name] = {"unit": metric["unit"], **call}
    return out


def export(rev: str, dest: str) -> str:
    """Write the tree of ``rev`` into ``dest``; return its commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, capture_output=True, check=True)
    # the "data" filter exists from Python 3.12 and some 3.10/3.11 patch
    # releases; the archive is this repository's own, so older ones may
    # extract it without one
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, **safe)
    return sha


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its metric
    values, operation counts and the host time it took."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run in {tree} failed ({proc.returncode}): {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    return {
        "metrics": {name: q["value"] for name, q in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against, e.g. HEAD~1")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--out", help="default: BENCH_<workload>.json in the checkout")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    runs = []
    with tempfile.TemporaryDirectory() as base_tree:
        sha = export(args.base, base_tree)
        trees = {"base": base_tree, "head": ROOT}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for tree in order:
                run = run_once(trees[tree], args.workload, pair, args.seconds)
                runs.append({"pair": pair, "seed": pair, "tree": tree, **run})
                print(f"pair {pair} {tree:4s} {json.dumps(run['metrics'])}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "base": args.base,
        "base_commit": sha,
        "head": "working tree",
        "pairs": args.pairs,
        "seconds": args.seconds,
        "rule": RULE,
        "failed_share": failed_shares(runs),
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, s in report["summary"].items():
        change = s["median_change"]
        print(
            f"{name:12s} base {s['base']['median']:.4g} head {s['head']['median']:.4g} "
            f"({change:+.1%}), head better in {s['head_better_in']}, "
            f"base IQR {s['base']['iqr']:.3g}, bound {s['bound']:.0%}: {s['verdict']}"
        )
    shares = report["failed_share"]
    print(f"failed share: base {shares['base']:.3g}, head {shares['head']:.3g}")


if __name__ == "__main__":
    main()
