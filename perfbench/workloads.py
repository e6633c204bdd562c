"""The benchmark's workloads: one timed pass each, plus its correctness check.

A pass returns ``(attempted, failed, detail)`` and adds the time of its
calls into ``multifreq`` to a ``tracer.Stopwatch``; input generation and
the checks run outside the stopwatch's sections.  Every library name is
looked up on its module at call time, so the outside-in tracer in
``tracer.py`` sees the calls it wraps.

Seeds: pass ``i`` of a run with seed ``s`` uses ``pass_seed(s, i)``, and
the warm-up uses ``warmup_seed(s)``, which no timed pass uses.  Inputs are
therefore distinct in every pass, and a cache keyed on inputs cannot move
work out of the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import multifreq
import multifreq.experiments as mx

GRID_PERIOD = 128
GRID_SAMPLES = 2**15
N_LIST = (2, 4, 8, 16, 32, 64, 128)
# passes per run seed; the warm-up takes slot 0
SEED_STRIDE = 1000

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
REL_TOL = 1e-9


def warmup_seed(seed: int) -> int:
    return seed * SEED_STRIDE


def pass_seed(seed: int, index: int) -> int:
    if not 0 <= index < SEED_STRIDE - 1:
        raise ValueError(f"pass index {index} outside the per-seed range")
    return seed * SEED_STRIDE + 1 + index


@dataclass(frozen=True)
class Suite:
    """One ``run_suite`` call per pass; an operation is one row (one N)."""

    name: str
    experiment: str
    trials: int
    why: str

    def config(self, seed: int, out_dir: str, small: bool = False):
        # the smallest call run_suite accepts: the four smallest N, one trial
        return mx.ExperimentConfig(
            self.experiment,
            grid_period=GRID_PERIOD,
            grid_samples=GRID_SAMPLES,
            n_list=N_LIST[:4] if small else N_LIST,
            trials=1 if small else self.trials,
            seed=seed,
            out_dir=out_dir,
        )

    def describe(self) -> dict:
        return {
            "call": "run_suite",
            "experiment": self.experiment,
            "grid_period": GRID_PERIOD,
            "grid_samples": GRID_SAMPLES,
            "n_list": list(N_LIST),
            "trials": self.trials,
            "workers": 1,
            "warmup": {"n_list": list(N_LIST[:4]), "trials": 1},
        }

    def run_pass(self, seed: int, out_dir: str, references: dict, watch, small: bool = False):
        config = self.config(seed, out_dir, small)
        ops = len(config.n_list)
        try:
            with watch.section():
                report = mx.run_suite(config, workers=1)
        except Exception as exc:  # a raising pass fails every row and the run goes on
            return ops, ops, f"run_suite raised {exc!r}"
        ref = None if small else references.get(self.name, {}).get(str(seed))
        bad = check_suite_rows(report, config, ref)
        return ops, len(bad), "; ".join(bad)


def suite_rows(report) -> list:
    return [[r.n, r.estimate, r.argmax] for r in report.rows]


def check_suite_rows(report, config, reference) -> list[str]:
    """Messages for the rows that fail; one operation fails per bad row.

    Each row must be a finite positive estimate with a well-formed argmax
    label, agree with the CSV that run_suite wrote, and, where a stored
    reference exists for this seed, match it to a relative 1e-9 with the
    same argmax label.
    """
    bad = []
    path = os.path.join(config.out_dir, config.experiment + ".csv")
    try:
        with open(path, newline="") as fh:
            written = {int(r["n"]): r for r in csv.DictReader(fh)}
    except (OSError, KeyError, ValueError):
        written = {}
    ref_rows = {int(n): (est, label) for n, est, label in reference} if reference else {}
    rows = {r.n: r for r in report.rows}
    for n in config.n_list:
        row = rows.get(n)
        problem = None
        if row is None:
            problem = "missing row"
        elif not (math.isfinite(row.estimate) and row.estimate > 0.0):
            problem = f"estimate {row.estimate!r}"
        elif not _label_ok(row.argmax, config.trials):
            problem = f"argmax label {row.argmax!r}"
        elif n not in written:
            problem = f"no row in {path}"
        elif float(written[n]["estimate"]) != row.estimate:
            problem = "CSV estimate differs from the report"
        elif written[n]["argmax"] != row.argmax:
            problem = "CSV argmax differs from the report"
        elif n in ref_rows:
            est, label = ref_rows[n]
            if abs(row.estimate - est) > REL_TOL * abs(est):
                problem = f"estimate {row.estimate!r} vs reference {est!r}"
            elif row.argmax != label:
                problem = f"argmax {row.argmax!r} vs reference {label!r}"
        if problem:
            bad.append(f"N={n}: {problem}")
    return bad


def _label_ok(label: str, trials: int) -> bool:
    family, _, rest = label.partition("[")
    if family not in ("gaussian", "signs", "atom", "delta-or-atom") or not rest.endswith("]"):
        return False
    idx = rest[:-1]
    return idx.isdigit() and int(idx) < trials


@dataclass(frozen=True)
class Decompose:
    """The four call groups that reach ``symbols`` and ``mfcz``.

    An operation is one library call.  A call that raises fails every call
    of its group, and the pass goes on with the next group.
    """

    name: str
    why: str
    # constants of the workload, not fields: no caller sets them
    SPEC_N = 8
    LAYER_TOL = 1e-3
    MFCZ_N = 64
    SPIKES = 128
    SPIKE_HEIGHT = 3.0
    NOISE = 0.01
    OMEGA_HALF = 8192
    OMEGA_JITTER = 256
    EXPAND_K = 4
    EXPAND_M = 3

    def describe(self) -> dict:
        return {
            "calls": [
                f"sample_rough_spec(grid, {self.SPEC_N}, rng, with_symbols=True); "
                f"rvar_M(f, spec, 'layered', tol={self.LAYER_TOL})",
                f"mfcz_decompose(g, 0.5*sqrt({self.MFCZ_N}), sigma); verify_mfcz(dec)",
                f"whitney_decompose(grid, -{self.OMEGA_HALF}+d, {self.OMEGA_HALF}+d); "
                "window_system(skeleton)",
                f"windowed_expand(f, DyadicFreqInterval(grid, {self.EXPAND_K}, {self.EXPAND_M}))",
            ],
            "grid_period": GRID_PERIOD,
            "grid_samples": GRID_SAMPLES,
            "f": "complex Gaussian samples",
            "g": f"{self.SPIKES} spikes of modulus {self.SPIKE_HEIGHT} plus "
            f"complex Gaussian noise of rms {self.NOISE}",
            "sigma": f"{self.MFCZ_N} separated frequencies",
            "d": f"seeded integer shift in [-{self.OMEGA_JITTER}, {self.OMEGA_JITTER}]",
            "warmup": "one full pass",
        }

    def inputs(self, seed: int):
        grid = multifreq.TorusGrid(period=GRID_PERIOD, samples=GRID_SAMPLES)
        rng = np.random.default_rng(seed)
        m = grid.samples
        f = multifreq.Signal(grid, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        noise = self.NOISE / math.sqrt(2.0)
        g_vals = noise * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        spots = rng.choice(m, size=self.SPIKES, replace=False)
        g_vals[spots] += self.SPIKE_HEIGHT * np.exp(2j * np.pi * rng.random(self.SPIKES))
        g = multifreq.Signal(grid, g_vals)
        sigma = mx.sample_separated_set(grid, self.MFCZ_N, rng)
        shift = int(rng.integers(-self.OMEGA_JITTER, self.OMEGA_JITTER + 1))
        member = int(rng.integers(self.SPEC_N))
        return grid, rng, f, g, sigma, shift, member

    def run_pass(self, seed: int, out_dir: str, references: dict, watch, small: bool = False):
        grid, rng, f, g, sigma, shift, member = self.inputs(seed)
        steps = [
            (2, lambda: self._rough(grid, rng, f, member)),
            (2, lambda: self._mfcz(grid, g, sigma)),
            (2, lambda: self._windows(grid, shift)),
            (1, lambda: self._expand(grid, f)),
        ]
        attempted = failed = 0
        problems = []
        for ops, step in steps:
            attempted += ops
            try:
                with watch.section():
                    check = step()
            except Exception as exc:  # the group fails and the pass goes on
                failed += ops
                problems.append(f"raised {exc!r}")
                continue
            bad = check()
            failed += len(bad)
            problems.extend(bad)
        return attempted, failed, "; ".join(problems)

    # Each step makes its calls and returns a check; only the calls are timed.

    def _rough(self, grid, rng, f, member):
        spec = mx.sample_rough_spec(grid, self.SPEC_N, rng, with_symbols=True)
        out = multifreq.rvar_M(f, spec, "layered", tol=self.LAYER_TOL)

        def check():
            bad = []
            # the layered path drops each member's remainder, so it agrees
            # with the directly assembled multiplier within 10 * tol * |f|
            gap = (multifreq.rvar_M(f, spec, "direct") - out).norm2()
            if not gap <= 10.0 * self.LAYER_TOL * f.norm2():
                bad.append(f"layered rvar_M is {gap!r} from the direct path")
            sym = spec.symbols[member]
            layered = multifreq.vr_layer_decompose(
                multifreq.Spectrum(grid, sym), spec.r, self.LAYER_TOL
            )
            v = layered.source_norm
            # the DP's r-variation lies between the sum over the partition
            # (start, farthest point from the start, end) and the total
            # variation, each plus sup |g|
            top = float(np.max(np.abs(sym)))
            far = int(np.argmax(np.abs(sym - sym[0])))
            jumps = np.abs([sym[far] - sym[0], sym[-1] - sym[far]]) ** spec.r
            lower = top + float(np.sum(jumps)) ** (1.0 / spec.r)
            upper = top + float(np.sum(np.abs(np.diff(sym))))
            if not lower * (1 - 1e-12) <= v <= upper * (1 + 1e-12):
                bad.append(f"r-variation {v!r} outside [{lower!r}, {upper!r}]")
            rest = float(np.max(np.abs(layered.remainder.values)))
            if not rest <= layered.tol * v + 1e-15:
                bad.append(f"layer remainder {rest!r} above tol times the r-variation")
            for j, layer in enumerate(layered.layers):
                cap = 3.0 * 2.0 ** (-j / layered.r) * v + 1e-12 * max(v, 1.0)
                if len(layer) > 2 ** (j + 1) + 2 or any(abs(p.coeff) > cap for p in layer):
                    bad.append(f"layer {j} breaks its piece-count or coefficient bound")
                    break
            err = float(np.max(np.abs(layered.reconstruct().values - sym)))
            if not err <= 1e-12 * float(np.max(np.abs(sym))):
                bad.append(f"LayeredSymbol.reconstruct error {err!r}")
            if not np.all(np.isfinite(out.values)):
                bad.append("rvar_M output is not finite")
            return bad

        return check

    def _mfcz(self, grid, g, sigma):
        dec = multifreq.mfcz_decompose(g, 0.5 * math.sqrt(self.MFCZ_N), sigma)
        report = multifreq.verify_mfcz(dec)

        def check():
            bad = []
            bad_part = np.zeros(grid.samples, dtype=np.complex128)
            for atom in dec.atoms:
                bad_part[atom.triple_cells] += atom.b_values
            err = float(np.max(np.abs(dec.good.values + bad_part - g.values)))
            if not err <= 1e-12 * float(np.max(np.abs(g.values))):
                bad.append(f"good + sum b_J differs from f by {err!r}")
            if not report.c6 <= multifreq.mfcz.TOL_ORTH:
                bad.append(f"verify_mfcz c6 {report.c6!r} above TOL_ORTH")
            return bad

        return check

    def _windows(self, grid, shift):
        skeleton = multifreq.whitney_decompose(
            grid, -self.OMEGA_HALF + shift, self.OMEGA_HALF + shift
        )
        system = multifreq.window_system(skeleton)

        def check():
            if not np.array_equal(system.sum_phi(), skeleton.indicator()):
                return ["sum_phi differs from the indicator"]
            return []

        return check

    def _expand(self, grid, f):
        omega = multifreq.DyadicFreqInterval(grid, self.EXPAND_K, self.EXPAND_M)
        expansion = multifreq.windowed_expand(f, omega)

        def check():
            if not expansion.rel_error <= 1e-10:
                return [f"windowed_expand rel_error {expansion.rel_error!r}"]
            return []

        return check


WORKLOADS = {
    w.name: w
    for w in (
        Suite(
            "vq-suite",
            "vq-l2-scaling",
            8,
            "the pointwise DP in vq_dk and the FFT dominate, and every trial "
            "rebuilds its symbols, so kernel and plan-once changes both show",
        ),
        Suite(
            "rvar-suite",
            "rvar-mult",
            8,
            "the 1-D variation_norm DP in RoughMultiplierSpec construction does "
            "most of the work and sets peak memory; trials bypass the pointwise DP",
        ),
        Suite(
            "rough-suite",
            "rough-mult-scaling",
            64,
            "the FFT pair and weak_lambda_scan with no DP and no symbol building, "
            "so a DP change must read no change and an FFT change must show",
        ),
        Decompose(
            "decompose",
            "the only workload that reaches symbols and mfcz: layered rvar_M, "
            "mfcz atoms, Whitney window systems and the windowed expansion",
        ),
    )
}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
