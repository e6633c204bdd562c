"""Seeded operator-norm estimation and scaling-law fitting.

The variational composites are sublinear, so their norms are estimated
from below by maxima over structured input families rather than by power
iteration.  An N's plan and trials take their generators from (master
seed, N) and (master seed, N, trial index) alone, so ``run_suite`` can
hand whole N's to its workers in any order and write the same bytes; the
trials of one N run serially.

Work is split in two.  An experiment's plan builder makes one frozen
plan per N: the sampled frequency set and its scale-window symbols, or
the interval spec and its assembled symbol.  The trials then run in
blocks of ``TRIAL_BLOCK``, through one complex
(``TRIAL_BLOCK``, samples) buffer that every block of the N reuses,
``TRIAL_BLOCK * samples * 16`` bytes, the only copy of a block's inputs.
Each input is made in its trial's row; sign trials compute each shared
exponential once and accumulate in their rows.  The plan maps the rows
to their outputs in place: multiplier plans put the whole block through
one transform pair instead of calling ``rough_T``/``rvar_M`` per trial,
and ``vq_dk`` plans apply it row by row.  Plans and blocks share work but
never change a bit: every trial does the same arithmetic, in the same
order, as it would alone.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .bumps import build_dk_symbol, plateau_profile
from .grid import (
    FrequencySet,
    Signal,
    Spectrum,
    TorusGrid,
    _cell,
    _multiply_rows,
    inverse_transform,
    write_csv,
)
from .operators import (
    RoughMultiplierSpec,
    _IntervalSymbols,
    _as_int,
    _check_q,
    default_scale_range,
    vq_dk,
)

__all__ = [
    "ExperimentConfig",
    "FitResult",
    "ScalingRow",
    "ScalingReport",
    "weak_lambda_scan",
    "fit_scaling",
    "run_suite",
]

# trials whose inputs are made together; bounds the memory of a block's
# sign inputs for any trial count
TRIAL_BLOCK = 8

_WEAK_ATOM_LOG2 = 8  # log2 of the widest weak-family atom


def _setup_rng(seed: int, n: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, n, 0]))


def _trial_rng(seed: int, n: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, n, 1, trial]))


def _separated_slots(grid: TorusGrid, n: int) -> np.ndarray:
    # the samples/period - 1 unit-spaced lattice indices strictly inside the band
    slots = np.arange(grid.period - grid.samples // 2, grid.samples // 2, grid.period)
    if n > slots.size:
        raise ValueError(f"cannot place {n} separated frequencies on this grid")
    return slots


def _lane_width(grid: TorusGrid, n: int) -> int:
    lane = grid.samples // n
    if lane < 8:  # cells in the narrowest lane
        raise ValueError(f"cannot place {n} disjoint intervals on this grid")
    return lane


def sample_separated_set(grid: TorusGrid, n: int, rng: np.random.Generator) -> FrequencySet:
    """n frequencies on unit-spaced slots, so the set is 1-separated."""
    slots = _separated_slots(grid, n)
    pick = rng.choice(slots.size, size=n, replace=False)
    return FrequencySet(grid, np.sort(slots[pick]))


def sample_rough_spec(
    grid: TorusGrid,
    n: int,
    rng: np.random.Generator,
    with_symbols: bool = False,
    r: float = 2.0,
) -> RoughMultiplierSpec:
    """n disjoint intervals in disjoint lanes, with unimodular
    coefficients or smooth dome symbols."""
    half = grid.samples // 2
    lane = _lane_width(grid, n)
    ivs = []
    for i in range(n):
        base = -half + i * lane
        w = int(rng.integers(max(lane // 4, 4), lane // 2 + 1))
        off = int(rng.integers(0, lane - w + 1))
        ivs.append((base + off, base + off + w))
    if not with_symbols:
        phases = np.exp(2j * np.pi * rng.random(n))
        return RoughMultiplierSpec(grid, tuple(ivs), coefficients=phases)
    domes = []
    for lo, hi in ivs:
        w = hi - lo
        cells = np.arange(lo, hi) - 0.5 * (lo + hi)
        domes.append(plateau_profile(cells, 0.25 * w, 0.499 * w))
    # the domes go in on their intervals: no zero full-lattice arrays
    return RoughMultiplierSpec(
        grid, tuple(ivs), symbols=_IntervalSymbols(grid, ivs, domes), r=r
    )


@dataclass(frozen=True)
class _Plan:
    """What every trial of one N shares: the operator, which maps a block
    of input rows to their outputs in place, the frequency zones the
    gaussian family paints, and the representative frequencies the sign
    family combines."""

    apply: Callable[[np.ndarray], None]
    zones: tuple[tuple[int, int], ...]
    reps: np.ndarray


def _frequency_set_limits(grid: TorusGrid, n: int, q: float) -> None:
    _check_q(q)
    _separated_slots(grid, n)
    default_scale_range(grid)  # raises ValueError at grid_period 1


def _frequency_set_plan(grid: TorusGrid, n: int, q: float, rng) -> _Plan:
    sigma = sample_separated_set(grid, n, rng)
    stack = tuple(build_dk_symbol(sigma, k) for k in default_scale_range(grid).scales())
    halfw = grid.tile_cells(1) // 2
    half = grid.samples // 2
    zones = tuple(
        (max(int(c) - halfw, -half), min(int(c) + halfw + 1, half)) for c in sigma.indices
    )

    def apply(rows):
        # vq_dk is not linear, so it takes one row at a time, through
        # this module's binding so that wrappers installed on it see
        # every call; Signal freezes the view it is given, so each row
        # is indexed afresh for the write
        for i in range(len(rows)):
            rows[i] = vq_dk(Signal(grid, rows[i]), sigma, q, symbols=stack).values

    return _Plan(apply, zones, sigma.indices)


def _interval_spec_limits(grid: TorusGrid, n: int, q: float) -> None:
    _lane_width(grid, n)  # q is free: no variation is taken


def _interval_spec_plan(grid: TorusGrid, n: int, q: float, rng, with_symbols=False) -> _Plan:
    spec = sample_rough_spec(grid, n, rng, with_symbols=with_symbols)
    # rough_T and rvar_M (direct path) put the whole block through one
    # transform pair, with the bits of one call per trial
    symbol = spec.assembled_symbol().values
    reps = np.array([(lo + hi) // 2 for lo, hi in spec.intervals])
    return _Plan(lambda rows: _multiply_rows(rows, symbol, grid.h), spec.intervals, reps)


def _gaussian_zone_input(grid: TorusGrid, zones, rng, row: np.ndarray) -> None:
    # paint a random block of one zone; narrow blocks probe the symbol
    # pointwise, wide ones probe it in the mean
    lo, hi = zones[int(rng.integers(len(zones)))]
    zw = hi - lo
    w = min(2 ** int(rng.integers(0, int(np.log2(zw)) + 1)), zw)
    start = lo + int(rng.integers(0, zw - w + 1))
    spec = np.zeros(grid.samples, dtype=np.complex128)
    block = rng.standard_normal(w) + 1j * rng.standard_normal(w)
    spec[grid.slot(start) : grid.slot(start + w)] = block
    row[:] = inverse_transform(Spectrum(grid, spec)).values


def _sign_combo_block(grid: TorusGrid, reps, rngs, rows) -> None:
    """One enveloped random-sign combination of e(n x), n in ``reps``, per
    generator, accumulated in its row of ``rows``.  Each exponential is
    computed once for the whole block and added into every row in rep
    order, so each row has the bits it would have if made alone."""
    if not rngs:
        return
    x = grid.positions()
    dist = np.minimum(x, grid.period - x)
    env = plateau_profile(dist, grid.period / 4.0, grid.period / 2.0 - 0.5)
    signs = [rng.choice(np.array([-1.0, 1.0]), size=len(reps)) for rng in rngs]
    for row in rows:
        row[:] = 0
    for j, n in enumerate(reps):
        e = np.exp(2j * np.pi * (int(n) / grid.period) * x)
        for row, s in zip(rows, signs):
            row += s[j] * e
    for row in rows:
        np.multiply(env, row, out=row)  # env * row, the order of the input made alone


def _atom_input(grid: TorusGrid, rng, row: np.ndarray) -> None:
    m = grid.samples
    w = int(2 ** rng.integers(0, 4))
    start = int(rng.integers(0, m - w + 1))
    row[:] = 0
    row[start : start + w] = np.exp(2j * np.pi * rng.random())


def _weak_input(grid: TorusGrid, rng, row: np.ndarray) -> None:
    m = grid.samples
    row[:] = 0
    phase = np.exp(2j * np.pi * rng.random())
    if int(rng.integers(2)) == 0:
        row[int(rng.integers(m))] = phase
    else:
        w = 2 ** int(rng.integers(1, _WEAK_ATOM_LOG2 + 1))
        start = int(rng.integers(0, m - w + 1))
        row[start : start + w // 2] = phase
        row[start + w // 2 : start + w] = -phase


def weak_lambda_scan(values, h: float, norm1: float, n_lambda: int = 64) -> float:
    """Largest lambda * h * #{|values| >= lambda} / norm1 over a log grid.

    The tail count is evaluated with >= at each level so the supremum of
    the piecewise-constant tail functional is attained on the grid.
    """
    if n_lambda < 1:
        raise ValueError("n_lambda must be at least 1")
    a = np.abs(np.asarray(values)).ravel()
    amax = float(a.max()) if a.size else 0.0
    if amax <= 0.0 or norm1 <= 0.0:
        return 0.0
    lam = np.geomspace(amax * 1e-5, amax, n_lambda)
    srt = np.sort(a)
    counts = a.size - np.searchsorted(srt, lam, side="left")
    return float(np.max(lam * h * counts) / norm1)


def _run_trials(config: ExperimentConfig, n: int) -> ScalingRow:
    """N's row: build its plan, run its trials in blocks, keep the best."""
    (_, input_norm, ratio), build, _ = _EXPERIMENTS[config.experiment]
    grid, trials, seed, label_of = config.grid(), config.trials, config.seed, config._family_of
    plan = build(grid, n, float(config.q), _setup_rng(seed, n))
    gaussian = partial(_gaussian_zone_input, zones=plan.zones)
    make = {"delta-or-atom": _weak_input, "gaussian": gaussian, "atom": _atom_input}
    # one buffer for every block of this N; a block's rows are its inputs,
    # their only copy, until the plan maps them to its outputs.  A row
    # holds an earlier block's values, so each maker overwrites all of it
    buf = np.empty((min(trials, TRIAL_BLOCK), grid.samples), dtype=np.complex128)
    values = []
    for start in range(0, trials, TRIAL_BLOCK):
        block = range(start, min(start + TRIAL_BLOCK, trials))
        rows = buf[: len(block)]
        rngs = [_trial_rng(seed, n, t) for t in block]
        signed = [i for i, t in enumerate(block) if label_of(t) == "signs"]
        _sign_combo_block(grid, plan.reps, [rngs[i] for i in signed], [rows[i] for i in signed])
        for t, rng, row in zip(block, rngs, rows):
            if label_of(t) != "signs":
                make[label_of(t)](grid, rng=rng, row=row)
        denoms = [input_norm(Signal(grid, row)) for row in rows]
        plan.apply(rows)
        values.extend(ratio(Signal(grid, row), denom) for row, denom in zip(rows, denoms))
    best = max(range(trials), key=lambda i: (values[i], -i))
    return ScalingRow(n, values[best], trials, f"{label_of(best)}[{best}]")


class FitResult(NamedTuple):
    alpha: float
    r2_power: float
    beta: float
    r2_log: float
    preferred: str
    degenerate: bool


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, min(max(r2, 0.0), 1.0)


def fit_scaling(rows) -> FitResult:
    """Least squares of log(estimate) on log(N) and on log(log(N)), from
    ``(N, estimate)`` pairs."""
    pts = sorted((int(n), float(est)) for n, est in rows)
    ns = np.array([n for n, _ in pts], dtype=np.float64)
    ests = np.array([est for _, est in pts], dtype=np.float64)
    if ns.size < 4:
        raise ValueError("scaling fits need at least 4 rows")
    if np.any(ests <= 0.0):
        raise ValueError("estimates must be positive to fit in log coordinates")
    if np.any(ns < 2):
        raise ValueError("point sizes must be at least 2")
    y = np.log(ests)
    if float(np.max(y) - np.min(y)) == 0.0:
        return FitResult(0.0, 0.0, 0.0, 0.0, "none", True)
    alpha, _, r2p = _ols(np.log(ns), y)
    beta, _, r2l = _ols(np.log(np.log(ns)), y)
    preferred = "power" if r2p >= r2l else "log-power"
    return FitResult(alpha, r2p, beta, r2l, preferred, False)


# experiment id -> (norm, plan builder, the plan's limits at (grid, n, q),
# which a config checks without sampling).  A norm is the input families
# its trials cycle through, the norm d of an input, and the ratio of an
# output y to d, 0 when d is.
_WEAK = (("delta-or-atom",), Signal.norm1, lambda y, d: weak_lambda_scan(y.values, y.grid.h, d))
_STRONG = (("gaussian", "signs", "atom"), Signal.norm2, lambda y, d: y.norm2() / d if d else 0.0)
_EXPERIMENTS = {
    "vq-l2-scaling": (_STRONG, _frequency_set_plan, _frequency_set_limits),
    "weak11-scaling": (_WEAK, _frequency_set_plan, _frequency_set_limits),
    "rough-mult-scaling": (_WEAK, _interval_spec_plan, _interval_spec_limits),
    "rvar-mult": (_STRONG, partial(_interval_spec_plan, with_symbols=True), _interval_spec_limits),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scaling run depends on; hashing the fields pins the
    outputs byte for byte.  ``manifest.txt`` echoes every field except
    ``out_dir``, so a field added here is recorded with no other edit.
    A config that constructs is one ``run_suite`` can run."""

    experiment: str
    grid_period: int = 128
    grid_samples: int = 2**15
    n_list: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128)
    q: float = 3.0
    trials: int = 64
    seed: int = 0
    family: str = "all"
    out_dir: str = "."

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment id {self.experiment!r}")
        (families, _, _), _, limits = _EXPERIMENTS[self.experiment]
        ns = tuple(sorted(set(_as_int("every N", n) for n in self.n_list)))
        if len(ns) < 4:
            raise ValueError("scaling fits need at least 4 points in n_list")
        if ns[0] < 2:
            raise ValueError("point sizes start at 2")
        object.__setattr__(self, "n_list", ns)
        if _as_int("trials", self.trials) < 1:
            raise ValueError("trials must be at least 1")
        if _as_int("seed", self.seed) < 0:
            raise ValueError("seed must be nonnegative")
        grid = self.grid()  # raises ValueError for a grid TorusGrid rejects
        if not isinstance(self.q, numbers.Real):
            raise ValueError(f"q must be a real number, got {self.q!r}")
        if self.family != "all" and self.family not in families:
            raise ValueError(f"unknown input family {self.family!r} for {self.experiment}")
        limits(grid, ns[-1], self.q)
        drawn = {self._family_of(t) for t in range(min(self.trials, len(families)))}
        if "delta-or-atom" in drawn and self.grid_samples < 2**_WEAK_ATOM_LOG2:
            raise ValueError(f"weak inputs need grid_samples >= {2**_WEAK_ATOM_LOG2}")
        # the sign envelope needs its plateau period/4 below period/2 - 1/2
        if "signs" in drawn and self.grid_period <= 2:
            raise ValueError("sign inputs need grid_period > 2")

    def grid(self) -> TorusGrid:
        return TorusGrid(period=self.grid_period, samples=self.grid_samples)

    def _family_of(self, trial: int) -> str:
        (families, _, _), _, _ = _EXPERIMENTS[self.experiment]
        return self.family if self.family != "all" else families[trial % len(families)]


@dataclass(frozen=True)
class ScalingRow:
    n: int
    estimate: float
    trials: int
    argmax: str

    def __post_init__(self):
        if self.estimate < 0:
            raise ValueError("estimates are nonnegative by construction")


@dataclass(frozen=True)
class ScalingReport:
    experiment: str
    rows: tuple[ScalingRow, ...]
    fit: FitResult

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if ns != sorted(ns):
            raise ValueError("rows must be sorted by N")


def run_suite(config: ExperimentConfig, workers: int = 1) -> ScalingReport:
    """Run one named experiment over the N list and write the estimates,
    the fit and a manifest into the output directory.

    Each of ``workers`` threads takes whole N's, and rows depend only on
    (seed, N), so every worker count writes the same bytes; one worker
    starts no thread.  Up to ``workers`` plans and (``TRIAL_BLOCK``,
    samples) block buffers, 4 MiB each on the default grid, are alive at
    once; a buffer is the only copy of its block's inputs, and sign
    trials accumulate in their rows."""
    if _as_int("workers", workers) < 1:
        raise ValueError("workers must be at least 1")
    # each plan dies with its _run_trials call, before its worker's next N
    if workers == 1:
        rows = [_run_trials(config, n) for n in config.n_list]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_trials, [config] * len(config.n_list), config.n_list))
    if any(r.estimate <= 0.0 for r in rows):
        fit = FitResult(0.0, 0.0, 0.0, 0.0, "none", True)
    else:
        fit = fit_scaling([(r.n, r.estimate) for r in rows])
    report = ScalingReport(config.experiment, tuple(rows), fit)
    _write_report(config, report)
    return report


def _write_report(config: ExperimentConfig, report: ScalingReport) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    base = os.path.join(config.out_dir, report.experiment)
    rows = ((report.experiment, r.n, r.estimate, r.trials, r.argmax) for r in report.rows)
    write_csv(base + ".csv", "experiment,n,estimate,trials,argmax", rows)
    write_csv(base + "_fit.csv", ",".join(FitResult._fields), [report.fit])
    # the config echo plus library versions; no timestamps, so reruns of
    # the same configuration produce identical bytes
    lines = []
    for f in fields(config):
        if f.name != "out_dir":
            value = getattr(config, f.name)
            cells = value if isinstance(value, tuple) else (value,)
            lines.append(f"{f.name}=" + ",".join(_cell(v) for v in cells))
    lines.append("trial_seed_scheme=SeedSequence([seed, n, 1, trial])")
    from importlib.metadata import PackageNotFoundError, version

    try:
        pkg_version = version("multifreq")
    except PackageNotFoundError:
        pkg_version = "unknown"
    lines.append(f"package_version={pkg_version}")
    lines.append(f"numpy_version={np.__version__}")
    with open(os.path.join(config.out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
