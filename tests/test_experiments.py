"""Seeded norm estimation, scaling fits and the run_suite outputs."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import multifreq.experiments as mx
from multifreq.bumps import plateau_profile
from multifreq.experiments import (
    ExperimentConfig,
    FitResult,
    fit_scaling,
    run_suite,
    weak_lambda_scan,
)
from multifreq.grid import Signal, TorusGrid
from multifreq.operators import rough_T, rvar_M, vq_dk

N_LIST = (2, 4, 8, 16)
SMALL = TorusGrid(16, 2**10)
# experiment -> (norm, operator), stated here so that the oracle does not
# read the table it checks
NORM_AND_OPERATOR = {
    "vq-l2-scaling": ("strong", "vq_dk"),
    "weak11-scaling": ("weak", "vq_dk"),
    "rough-mult-scaling": ("weak", "rough_T"),
    "rvar-mult": ("strong", "rvar_M"),
}
EXPERIMENTS = list(NORM_AND_OPERATOR)


# ---------------------------------------------------------------------------
# oracles

def sign_combo_input(grid, reps, rng):
    """One sign trial's input made alone: random signs on e(n x), n in
    reps, summed in rep order and enveloped."""
    x = grid.positions()
    dist = np.minimum(x, grid.period - x)
    env = plateau_profile(dist, grid.period / 4.0, grid.period / 2.0 - 0.5)
    acc = np.zeros(grid.samples, dtype=np.complex128)
    signs = rng.choice(np.array([-1.0, 1.0]), size=len(reps))
    for s, n in zip(signs, reps):
        acc += s * np.exp(2j * np.pi * (int(n) / grid.period) * x)
    return Signal(grid, env * acc)


def nan_row(grid):
    # a row that still holds garbage, as a reused block row does
    return np.full(grid.samples, np.nan, dtype=np.complex128)


def per_trial_rows(config):
    """(n, estimate, argmax) per N from a plain loop: a fresh generator per
    trial, each input made alone in a fresh NaN-filled row, and the
    operators applied with no plan."""
    kind, op_id = NORM_AND_OPERATOR[config.experiment]
    grid = config.grid()
    half = grid.samples // 2
    rows = []
    for n in config.n_list:
        setup = mx._setup_rng(config.seed, n)
        if op_id == "vq_dk":
            sigma = mx.sample_separated_set(grid, n, setup)
            op = lambda f: vq_dk(f, sigma, config.q)
            halfw = grid.tile_cells(1) // 2
            zones = [
                (max(int(c) - halfw, -half), min(int(c) + halfw + 1, half))
                for c in sigma.indices
            ]
            reps = sigma.indices
        else:
            spec = mx.sample_rough_spec(grid, n, setup, with_symbols=(op_id == "rvar_M"))
            op = (lambda f: rough_T(f, spec)) if op_id == "rough_T" else (lambda f: rvar_M(f, spec))
            zones = spec.intervals
            reps = [(lo + hi) // 2 for lo, hi in spec.intervals]
        best = None
        for trial in range(config.trials):
            rng = mx._trial_rng(config.seed, n, trial)
            row = nan_row(grid)
            if kind == "weak":
                label = "delta-or-atom"
                mx._weak_input(grid, rng, row)
            else:
                label = config.family
                if label == "all":
                    label = ("gaussian", "signs", "atom")[trial % 3]
                if label == "gaussian":
                    mx._gaussian_zone_input(grid, zones, rng, row)
                elif label == "signs":
                    row = sign_combo_input(grid, reps, rng).values
                else:
                    mx._atom_input(grid, rng, row)
            # a maker that leaves a NaN cell fails here, not by losing the max
            assert np.isfinite(row).all(), f"{label}[{trial}] left cells of its row"
            f = Signal(grid, row)
            denom = f.norm1() if kind == "weak" else f.norm2()
            if denom == 0.0:
                value = 0.0
            elif kind == "weak":
                value = weak_lambda_scan(op(f).values, grid.h, denom)
            else:
                value = op(f).norm2() / denom
            if best is None or value > best[0]:
                best = (value, f"{label}[{trial}]")
        rows.append((n, *best))
    return rows


# ---------------------------------------------------------------------------
# the trial plan reproduces every bit of the per-trial loop

@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-512, 511), min_size=1, max_size=12, unique=True),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_sign_block_matches_inputs_made_alone(reps, count, seed):
    # the block accumulates in rows that hold garbage, as reused rows do
    reps = np.array(reps)
    rows = [nan_row(SMALL) for _ in range(count)]
    mx._sign_combo_block(SMALL, reps, [mx._trial_rng(seed, 7, t) for t in range(count)], rows)
    alone = [sign_combo_input(SMALL, reps, mx._trial_rng(seed, 7, t)) for t in range(count)]
    assert [row.tobytes() for row in rows] == [f.values.tobytes() for f in alone]


@pytest.mark.parametrize(
    "experiment, family, trials",
    [
        pytest.param(
            experiment, family, trials,
            id=f"{experiment}-{family}" + ("" if trials == 20 else f"-{trials}"),
        )
        for experiment in EXPERIMENTS
        for trials in (20, 1, 9)
        for family in ("all", "signs")
        # a weak experiment draws only delta-or-atom inputs
        if family == "all" or NORM_AND_OPERATOR[experiment][0] == "strong"
    ],
)
def test_run_suite_rows_match_a_per_trial_loop(tmp_path, experiment, family, trials):
    # 1 trial is a single partial block; 9 trials reuse the block buffer
    # for one row, over a stale one; 20 trials make three blocks, each
    # holding several sign trials
    config = ExperimentConfig(
        experiment,
        grid_period=SMALL.period,
        grid_samples=SMALL.samples,
        n_list=N_LIST,
        trials=trials,
        seed=11,
        family=family,
        out_dir=str(tmp_path),
    )
    report = run_suite(config)
    got = [(r.n, r.estimate.hex(), r.argmax) for r in report.rows]
    want = [(n, est.hex(), label) for n, est, label in per_trial_rows(config)]
    assert got == want


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="family"):
        ExperimentConfig("weak11-scaling", family="bogus")


@pytest.mark.parametrize(
    "change, match",
    [
        ({"experiment": "bogus"}, "experiment id"),
        ({"n_list": (2, 4, 8)}, "at least 4 points"),
        ({"grid_period": 3}, "power of two"),
        ({"q": 2.0}, "q must exceed 2"),
        ({"experiment": "weak11-scaling", "q": 2.0}, "q must exceed 2"),
        ({"q": math.inf}, "q must exceed 2 and be finite"),
        ({"q": math.nan}, "q must exceed 2 and be finite"),
        ({"grid_period": 2, "grid_samples": 64}, "sign inputs"),
        ({"experiment": "rvar-mult", "grid_period": 2, "grid_samples": 128}, "sign inputs"),
        (
            {"experiment": "rvar-mult", "grid_period": 2, "grid_samples": 64, "family": "atom"},
            "16 disjoint intervals",
        ),
        ({"experiment": "rough-mult-scaling", "grid_period": 4, "grid_samples": 128}, "256"),
        ({"experiment": "weak11-scaling", "grid_period": 1, "grid_samples": 512}, "scale range"),
        ({"n_list": (2, 4, 8, 64)}, "64 separated frequencies"),
        ({"experiment": "weak11-scaling", "n_list": (2, 4, 8, 64)}, "64 separated frequencies"),
        ({"experiment": "rough-mult-scaling", "n_list": (2, 4, 8, 256)}, "256 disjoint intervals"),
        ({"trials": 2.0}, "trials must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"n_list": (2.5, 4, 8, 16)}, "every N must be an integer"),
        ({"grid_period": 16.0}, "power of two"),
        ({"grid_samples": 1024.0}, "power of two"),
        ({"q": "abc"}, "q must be a real number"),
        ({"q": None}, "q must be a real number"),
        ({"experiment": "rough-mult-scaling", "q": "abc"}, "q must be a real number"),
        ({"experiment": "rvar-mult", "q": None}, "q must be a real number"),
        ({"experiment": "weak11-scaling", "family": "signs"}, "family"),
        ({"experiment": "rough-mult-scaling", "family": "gaussian"}, "family"),
    ],
    ids=[
        "unknown-experiment", "three-points", "period-3", "vq-l2-q-2", "weak11-q-2",
        "vq-l2-q-inf", "vq-l2-q-nan",
        "vq-l2-sign-envelope", "rvar-sign-envelope", "rvar-narrow-lanes",
        "rough-wide-weak-atoms", "weak11-no-scales",
        "vq-l2-no-slot-left", "weak11-no-slot-left", "rough-lane-too-narrow",
        "float-trials", "float-seed", "float-n", "float-period", "float-samples",
        "vq-l2-string-q", "vq-l2-none-q", "rough-string-q", "rvar-none-q",
        "weak11-signs-family", "rough-gaussian-family",
    ],
)
def test_config_rejects_what_run_suite_cannot_run(change, match):
    # each of these used to construct and fail only inside run_suite
    kw = {"experiment": "vq-l2-scaling", "grid_period": 16, "grid_samples": 2**10, "n_list": N_LIST}
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**{**kw, **change})


@pytest.mark.parametrize(
    "experiment, period, samples, n_max",
    [
        ("vq-l2-scaling", 16, 2**10, 63),
        ("weak11-scaling", 16, 2**10, 63),
        ("rough-mult-scaling", 16, 2**10, 128),
        ("rvar-mult", 16, 2**10, 128),
        ("rough-mult-scaling", 128, 2**15, 4096),
    ],
)
def test_config_accepts_every_n_its_generator_can_place(experiment, period, samples, n_max):
    # samples/period - 1 separated slots for vq_dk, lanes of 8 cells for
    # the rough specs; one more N is refused with the same message by the
    # config and by the experiment's sampler
    kw = {"grid_period": period, "grid_samples": samples}
    config = ExperimentConfig(experiment, n_list=(2, 4, 8, n_max), **kw)
    assert config.n_list[-1] == n_max
    with pytest.raises(ValueError, match="cannot place") as refused:
        ExperimentConfig(experiment, n_list=(2, 4, 8, n_max + 1), **kw)
    grid, rng, op_id = config.grid(), np.random.default_rng(0), NORM_AND_OPERATOR[experiment][1]
    with pytest.raises(ValueError) as sampled:
        if op_id == "vq_dk":
            mx.sample_separated_set(grid, n_max + 1, rng)
        else:
            mx.sample_rough_spec(grid, n_max + 1, rng, with_symbols=(op_id == "rvar_M"))
    what = "separated frequencies" if op_id == "vq_dk" else "disjoint intervals"
    message = f"cannot place {n_max + 1} {what} on this grid"
    assert str(sampled.value) == str(refused.value) == message


def test_config_and_run_suite_take_numpy_integers(tmp_path):
    config = ExperimentConfig(
        "rough-mult-scaling", grid_period=np.int64(16), grid_samples=np.int64(2**10),
        n_list=np.array(N_LIST), trials=np.int64(2), seed=np.uint32(3), out_dir=str(tmp_path),
    )
    assert config.n_list == N_LIST
    assert [r.n for r in run_suite(config, workers=np.int64(2)).rows] == list(N_LIST)


@pytest.mark.parametrize("workers", [0, -1, 2.0])
def test_run_suite_rejects_a_worker_count_it_cannot_use(tmp_path, workers):
    config = ExperimentConfig("rough-mult-scaling", n_list=N_LIST, out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="workers"):
        run_suite(config, workers=workers)


# a weak experiment refuses every family but "all", so it draws no other:
# a config that can never construct would only be filtered out
FAMILIES = {"weak": ["all"], "strong": ["all", "gaussian", "signs", "atom"]}


@settings(max_examples=280, deadline=None)
@given(
    st.sampled_from(EXPERIMENTS).flatmap(
        lambda e: st.tuples(st.just(e), st.sampled_from(FAMILIES[NORM_AND_OPERATOR[e][0]]))
    ),
    st.integers(0, 3),
    st.data(),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 1),
)
def test_a_config_that_constructs_runs(
    tmp_path_factory, experiment_family, log_period, data, trials, shrink, over
):
    # small grids near every generator's limit, at it and one past it:
    # samples/period - 1 separated slots for vq_dk, lanes of 8 cells for
    # the rough specs; each config is either rejected up front or runs to
    # the end.  A rejection is one of the two outcomes, so it passes
    # rather than being filtered out.  Every grid drawn puts the limit at
    # 16 or more, so that shrink and over, not the floor of 16, set N;
    # 40-47% of the drawn configs run (10 seeds), so 280 examples run
    # more than 100 configs
    experiment, family = experiment_family
    vq = NORM_AND_OPERATOR[experiment][1] == "vq_dk"
    log_samples = data.draw(st.integers(log_period + 5 if vq else 7, 10), label="log_samples")
    period, samples = 2**log_period, 2**log_samples
    limit = samples // period - 1 if vq else samples // 8
    n_max = max((limit >> shrink) + over, 16)
    try:
        config = ExperimentConfig(
            experiment,
            grid_period=period,
            grid_samples=samples,
            n_list=(2, 4, 8, n_max),
            trials=trials,
            family=family,
            out_dir=str(tmp_path_factory.mktemp("run")),
        )
    except ValueError:
        event("rejected up front")
        return
    event("ran")
    run_suite(config)


def test_one_trial_draws_no_sign_input(tmp_path):
    # family "all" starts with a gaussian trial, so period 2 is runnable
    config = ExperimentConfig(
        "vq-l2-scaling", grid_period=2, grid_samples=64, n_list=N_LIST, trials=1,
        out_dir=str(tmp_path),
    )
    assert [r.argmax for r in run_suite(config).rows] == ["gaussian[0]"] * 4


@pytest.mark.parametrize("experiment", ["rough-mult-scaling", "rvar-mult"])
def test_q_is_free_where_no_variation_is_taken(experiment):
    assert ExperimentConfig(experiment, n_list=N_LIST, q=2.0).q == 2.0


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_suite_bytes_do_not_depend_on_workers(tmp_path, experiment):
    # 5 workers are more than the N's
    written = []
    for workers in (1, 2, 5):
        out = tmp_path / f"workers{workers}"
        config = ExperimentConfig(
            experiment,
            grid_period=16,
            grid_samples=2**10,
            n_list=N_LIST,
            trials=6,
            seed=3,
            out_dir=str(out),
        )
        run_suite(config, workers=workers)
        names = (f"{experiment}.csv", f"{experiment}_fit.csv", "manifest.txt")
        written.append([(out / name).read_bytes() for name in names])
    assert written[0] == written[1] == written[2]


def test_workers_run_whole_ns_at_once(tmp_path, monkeypatch):
    # the first two N's each wait until the other has started, so the run
    # ends only if two N's run at the same time
    barrier = threading.Barrier(2, timeout=10)
    calls = itertools.count()
    run_trials = mx._run_trials

    def meet_then_run(*args, **kwargs):
        if next(calls) < 2:
            barrier.wait()
        return run_trials(*args, **kwargs)

    monkeypatch.setattr(mx, "_run_trials", meet_then_run)
    config = ExperimentConfig(
        "rough-mult-scaling", grid_period=16, grid_samples=2**10, n_list=N_LIST, trials=2,
        out_dir=str(tmp_path),
    )
    assert [r.n for r in run_suite(config, workers=2).rows] == list(N_LIST)


def test_fit_recovers_a_planted_power():
    fit = fit_scaling([(n, 3.0 * n**0.5) for n in N_LIST])
    assert fit.alpha == pytest.approx(0.5, rel=1e-12)
    assert fit.r2_power == pytest.approx(1.0, rel=1e-12)
    assert fit.preferred == "power"
    assert not fit.degenerate


def test_fit_recovers_a_planted_log_power():
    fit = fit_scaling([(n, np.log(n) ** 2) for n in N_LIST])
    assert fit.beta == pytest.approx(2.0, rel=1e-12)
    assert fit.r2_log == pytest.approx(1.0, rel=1e-12)
    assert fit.preferred == "log-power"
    assert not fit.degenerate


def test_fit_of_constant_estimates_is_degenerate():
    fit = fit_scaling([(n, 1.7) for n in N_LIST])
    assert fit == FitResult(0.0, 0.0, 0.0, 0.0, "none", True)


def test_weak_lambda_scan_on_step_data():
    # levels 1e-5 .. 1 at n_lambda=6; the tail count uses >=, so each step
    # is counted at its own level, and the sup sits at the third level
    lam = np.geomspace(1e-5, 1.0, 6)
    values = np.concatenate(([lam[5]], np.full(20, lam[4]), np.full(300, lam[3])))
    h, norm1 = 0.5, 2.0
    want = lam[3] * 321 * h / norm1
    assert weak_lambda_scan(values, h, norm1, n_lambda=6) == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError, match="n_lambda"):
        weak_lambda_scan(values, h, norm1, n_lambda=0)


@pytest.mark.parametrize(
    "experiment, family",
    [("rough-mult-scaling", "all"), ("rvar-mult", "signs"), ("rvar-mult", "all")],
)
def test_rough_suite_memory_is_one_block_buffer(tmp_path, experiment, family):
    # the (TRIAL_BLOCK, samples) complex buffer is 4 MiB on the default
    # grid; the bound leaves room for one trial's arrays beside it, but
    # not for a second buffer made while the first is still held, such
    # as a block of sign inputs made outside their rows
    config = ExperimentConfig(
        experiment, n_list=N_LIST, trials=16, family=family, out_dir=str(tmp_path)
    )
    tracemalloc.start()
    try:
        run_suite(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_symbol_spec_holds_its_members_on_their_intervals():
    # the members' intervals hold at most samples / 2 cells in all, and
    # each member is on the full lattice only while it is checked
    grid = TorusGrid()
    full = grid.samples * 16  # bytes of one full-lattice complex array
    mx.sample_rough_spec(grid, 128, np.random.default_rng(1), with_symbols=True)
    tracemalloc.start()
    try:
        spec = mx.sample_rough_spec(grid, 128, np.random.default_rng(0), with_symbols=True)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spec.symbols) == 128
    assert live < 2**20
    assert peak < live + 2 * full
