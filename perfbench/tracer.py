"""Outside-in tracing of ``multifreq`` for the benchmark's traced runs.

``Tracer.installed()`` replaces each traced function under every name a
``multifreq`` module bound it to (``multifreq.operators.forward_transform``
as well as ``multifreq.grid.forward_transform``), so calls between modules
and within one module both pass through the wrapper.  Every name is put
back when the block exits.  Nothing under ``src/`` is changed.

A span records name, start, end, parent span and pass id.  Spans stay in
memory until ``dump``.  Calls are recorded only inside a ``Stopwatch``
section, that is, inside the timed part of a pass, so the benchmark's
input generation and correctness checks never show up in the trace.  A
span's self time is its duration minus its children's and minus the time
the tracer spent counting its children's results.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# traced function -> the per-layer metric that receives its self time
TIMED = {
    "grid.forward_transform": "grid.fft_ms",
    "grid.inverse_transform": "grid.fft_ms",
    "bumps.build_dk_symbol": "bumps.symbol_ms",
    "fluctuation.variation_norm": "fluctuation.vnorm_ms",
    "fluctuation.symbol_vr_norm": "fluctuation.vnorm_ms",
    "operators.vq_dk": "operators.vq_dk_ms",
    "operators.rvar_M": "operators.rvar_M_ms",
    "operators.rough_T": "operators.rough_T_ms",
    "symbols.vr_layer_decompose": "symbols.layer_ms",
    "symbols.whitney_decompose": "symbols.window_ms",
    "symbols.window_system": "symbols.window_ms",
    "symbols.windowed_expand": "symbols.expand_ms",
    "mfcz.select_intervals": "mfcz.select_ms",
    "mfcz.moment_match": "mfcz.moment_ms",
    "mfcz.mfcz_decompose": "mfcz.build_ms",
    "mfcz.verify_mfcz": "mfcz.verify_ms",
    "experiments.run_suite": "experiments.self_ms",
    "experiments.sample_rough_spec": "experiments.spec_ms",
    "experiments.weak_lambda_scan": "experiments.scan_ms",
}

VNORM = ("fluctuation.variation_norm", "fluctuation.symbol_vr_norm")

# (name, unit, better, the end-to-end metric and workload it should move)
METRICS = (
    ("grid.fft_ms", "ms", "lower", "wall_s on rough-suite; on vq-suite when trials are batched"),
    ("grid.fft_calls", "count", "lower", "wall_s on rough-suite; on vq-suite when trials are batched"),
    ("bumps.symbol_ms", "ms", "lower", "wall_s on vq-suite (plan once)"),
    ("bumps.symbol_calls", "count", "lower", "wall_s on vq-suite (plan once)"),
    ("bumps.symbol_unique_ratio", "ratio", "higher", "wall_s on vq-suite (plan once)"),
    ("fluctuation.vnorm_ms", "ms", "lower", "wall_s and peak_rss_mb on rvar-suite and decompose"),
    ("fluctuation.vnorm_calls", "count", "lower", "wall_s and peak_rss_mb on rvar-suite and decompose"),
    ("fluctuation.vnorm_points", "count", "lower", "wall_s and peak_rss_mb on rvar-suite and decompose"),
    ("fluctuation.vnorm_unique_ratio", "ratio", "higher", "wall_s and peak_rss_mb on rvar-suite and decompose"),
    ("operators.vq_dk_ms", "ms", "lower", "wall_s on vq-suite"),
    ("operators.vq_dk_calls", "count", "lower", "wall_s on vq-suite"),
    ("operators.rvar_M_ms", "ms", "lower", "wall_s on rvar-suite and decompose"),
    ("operators.rough_T_ms", "ms", "lower", "wall_s on rough-suite"),
    ("symbols.layer_ms", "ms", "lower", "wall_s on decompose"),
    ("symbols.layer_pieces", "count", "lower", "wall_s on decompose"),
    ("symbols.window_ms", "ms", "lower", "wall_s on decompose"),
    ("symbols.window_pieces", "count", "lower", "wall_s on decompose"),
    ("symbols.expand_ms", "ms", "lower", "wall_s on decompose"),
    ("mfcz.select_ms", "ms", "lower", "wall_s on decompose"),
    ("mfcz.moment_ms", "ms", "lower", "wall_s on decompose"),
    ("mfcz.build_ms", "ms", "lower", "wall_s on decompose"),
    ("mfcz.verify_ms", "ms", "lower", "wall_s on decompose"),
    ("mfcz.atoms", "count", "lower", "wall_s on decompose"),
    ("experiments.self_ms", "ms", "lower", "wall_s on all three suites"),
    ("experiments.spec_ms", "ms", "lower", "wall_s on rvar-suite"),
    ("experiments.scan_ms", "ms", "lower", "wall_s on rough-suite"),
)

def _count_fft(tr, args, result):
    tr.count("grid.fft_calls")


def _count_symbol(tr, args, result):
    tr.count("bumps.symbol_calls")
    key = (args["sigma"].indices.tobytes(), args["k"], args["variant"])
    tr.distinct("bumps.symbol_unique_ratio", key)


def _count_vnorm(tr, args, result):
    arr = np.ascontiguousarray(args["seq"] if "seq" in args else args["values"])
    tr.count("fluctuation.vnorm_calls")
    tr.count("fluctuation.vnorm_points", arr.shape[0])
    key = hashlib.blake2b(arr.tobytes(), digest_size=16).digest()
    tr.distinct("fluctuation.vnorm_unique_ratio", key)


COUNTERS = {
    "grid.forward_transform": _count_fft,
    "grid.inverse_transform": _count_fft,
    "bumps.build_dk_symbol": _count_symbol,
    "fluctuation.variation_norm": _count_vnorm,
    "fluctuation.symbol_vr_norm": _count_vnorm,
    "operators.vq_dk": lambda tr, a, r: tr.count("operators.vq_dk_calls"),
    "symbols.vr_layer_decompose": lambda tr, a, r: tr.count("symbols.layer_pieces", sum(r.piece_counts)),
    "symbols.window_system": lambda tr, a, r: tr.count("symbols.window_pieces", len(r.windows)),
    "mfcz.mfcz_decompose": lambda tr, a, r: tr.count("mfcz.atoms", len(r.atoms)),
}

# ratio metric -> the call count it divides by
RATIOS = {
    "bumps.symbol_unique_ratio": "bumps.symbol_calls",
    "fluctuation.vnorm_unique_ratio": "fluctuation.vnorm_calls",
}


def _modules():
    return [m for n, m in list(sys.modules.items()) if n == "multifreq" or n.startswith("multifreq.")]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, pass_id]
        self.overhead: defaultdict = defaultdict(float)  # span -> counting time inside it
        self.counts: dict[int, Counter] = {}
        self._keys: dict[int, defaultdict] = {}
        self._stack: list[int] = []
        self._pass: int | None = None
        self._saved: list = []

    @contextmanager
    def installed(self):
        """Wrap every traced function under all its names; restore on exit."""
        targets = {}
        for mod in _modules():
            short = mod.__name__.partition(".")[2]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if name in TIMED and getattr(fn, "__module__", None) == mod.__name__:
                    targets[id(fn)] = self._wrap(name, fn)
        try:
            for mod in _modules():
                for attr, val in list(vars(mod).items()):
                    wrapper = targets.get(id(val))
                    if wrapper is not None:
                        self._saved.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            while self._saved:
                mod, attr, val = self._saved.pop()
                setattr(mod, attr, val)

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if self._pass is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            idx = self._open(name, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._close(idx)
            outer = not (name in VNORM and self.spans[parent][0] in VNORM)
            if counter is not None and outer:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
                self.overhead[parent] += time.perf_counter() - end
            return result

        return functools.wraps(fn)(traced)

    def _open(self, name, parent):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self._pass])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self.spans[idx][2] = end
        self._stack.pop()
        return end

    @contextmanager
    def root(self, pass_id: int):
        """A timed section of pass ``pass_id``: calls inside it are recorded."""
        if pass_id not in self.counts:
            self.counts[pass_id] = Counter()
            self._keys[pass_id] = defaultdict(set)
        self._pass = pass_id
        idx = self._open("pass", None)
        try:
            yield
        finally:
            self._close(idx)
            self._pass = None

    def count(self, metric: str, n: int = 1) -> None:
        self.counts[self._pass][metric] += n

    def distinct(self, metric: str, key) -> None:
        self._keys[self._pass][metric].add(key)

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, indexed like ``spans``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (end - start) - child[i] - self.overhead.get(i, 0.0)
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def metrics(self) -> dict[str, float]:
        """Per-pass layer metrics: self times are medians over the traced
        passes; counts and ratios are those of the first traced pass, which
        a given seed fixes."""
        passes = sorted(self.counts)
        if not passes:
            raise ValueError("no traced pass")
        per_pass = {p: Counter() for p in passes}
        for (name, _, _, _, pid), self_s in zip(self.spans, self.self_times()):
            metric = TIMED.get(name)
            if metric is not None:
                per_pass[pid][metric] += 1e3 * self_s
        first = self.counts[passes[0]]
        out = {}
        for name, unit, _, _ in METRICS:
            if unit == "ms":
                out[name] = statistics.median(per_pass[p][name] for p in passes)
            elif name in RATIOS:
                calls = first[RATIOS[name]]
                out[name] = len(self._keys[passes[0]][name]) / calls if calls else 0.0
            else:
                out[name] = first[name]
        return out

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")


class Stopwatch:
    """Sums the time of a pass's timed sections.  With a tracer, each
    section is also a root span of the pass."""

    def __init__(self, tracer: Tracer | None = None, pass_id: int = 0):
        self.seconds = 0.0
        self.tracer = tracer
        self.pass_id = pass_id

    @contextmanager
    def section(self):
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.root(self.pass_id):
                    yield
        finally:
            self.seconds += time.perf_counter() - t0
