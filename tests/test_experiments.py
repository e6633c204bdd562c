"""Seeded norm estimation, scaling fits and the run_suite outputs."""

import numpy as np
import pytest

from multifreq.experiments import (
    ExperimentConfig,
    FitResult,
    fit_scaling,
    run_suite,
    weak_lambda_scan,
)

N_LIST = (2, 4, 8, 16)


@pytest.mark.parametrize(
    "experiment", ["vq-l2-scaling", "weak11-scaling", "rough-mult-scaling", "rvar-mult"]
)
def test_run_suite_bytes_do_not_depend_on_workers(tmp_path, experiment):
    written = []
    for workers in (1, 2):
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
    assert written[0] == written[1]


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
