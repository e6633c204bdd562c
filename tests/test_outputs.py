"""Byte-golden checks of every file the lab writes.

Each expectation is the exact text a writer produced for a small fixed
input, so a change to the cell format fails here: a ``True`` written for
``1``, a ``0.0`` for ``0``, or fewer than 17 significant digits.  The
``run_suite`` estimates come from NumPy's FFT, so their digits are those
of the NumPy this suite runs under.
"""

import hashlib

import numpy as np
import pytest

import multifreq.experiments as mx
from multifreq import (
    RoughMultiplierSpec,
    Signal,
    Spectrum,
    TorusGrid,
    cz_reports_to_csv,
    layered_to_csv,
    rvar_M,
    signal_to_csv,
    spectrum_to_csv,
    vr_layer_decompose,
    whitney_decompose,
    whitney_to_csv,
)
from multifreq.experiments import ExperimentConfig, run_suite
from multifreq.mfcz import CZReport


def written(tmp_path, writer, obj) -> str:
    path = tmp_path / "out.csv"
    writer(obj, path)
    return path.read_bytes().decode()


# ---------------------------------------------------------------------------
# diagnostic writers


def test_signal_csv_bytes(tmp_path):
    sig = Signal(TorusGrid(1, 4), [0.0, 1 / 3, -2.5 + 1e-300j, 1e22 - 0.1j])
    assert written(tmp_path, signal_to_csv, sig) == (
        "index,re,im\n"
        "0,0,0\n"
        "1,0.33333333333333331,0\n"
        "2,-2.5,1e-300\n"
        "3,1e+22,-0.10000000000000001\n"
    )


def test_spectrum_csv_bytes(tmp_path):
    spec = Spectrum(TorusGrid(1, 4), [1j, 0.1, -0.0, 2.0**60])
    assert written(tmp_path, spectrum_to_csv, spec) == (
        "freq_index,re,im\n"
        "-2,0,1\n"
        "-1,0.10000000000000001,0\n"
        "0,-0,0\n"
        "1,1.152921504606847e+18,0\n"
    )


def test_layered_csv_bytes(tmp_path):
    grid = TorusGrid(2, 16)
    vals = np.zeros(grid.samples, dtype=np.complex128)
    vals[3:7] = 1.0
    vals[7:10] = 0.5j
    vals[10:12] = -1 / 3
    layered = vr_layer_decompose(Spectrum(grid, vals), 2.0)
    assert written(tmp_path, layered_to_csv, layered) == (
        "j,interval_lo,interval_hi,re_d,im_d\n"
        "3,-5,-1,1,0\n"
        "3,-1,8,0,0.5\n"
        "5,2,8,-0.33333333333333331,-0.5\n"
        "7,4,8,0.33333333333333331,0\n"
    )


# sha256 of layered_to_csv for each member of the seed-0 spec below
LAYERED_SPEC_CSV = (
    "f27678ed81b0cd44d3956eb7d55c6faff63efd752c0be6801445c486e8d5e57d",
    "8ab5329ca795a1051c1c2b77db88c4bc06324613b2b1e86e3e77f93b02d36595",
    "a4ebfff642348b97911838b6b11c5117580c9caeefa2bf87a6c2679e2165b962",
    "8bfa1bec7ebaa50437d15b00b1454902a1106e3e30d77d67a8bb529566c89e0d",
    "8a9d4d547fddb7f89f33dc88752fc8622a04432c9829c7898218f0b100e6b0b4",
    "0604f75c9a8bffc7e9e1926736600d7506b5e0712aec5b4a6c176fa2ed0aa525",
    "ad3466b3a3bebc80832a4fa846ba5df544afd6f2be045f7d31510eb056d327ae",
    "1099d61f9d09c20f779416d805ad4d3f6f07947c793590e53802527c8c4855f8",
)


def test_layered_bytes_of_a_sampled_spec(tmp_path):
    # the dome symbols the decompose benchmark layers, on the full default
    # grid, so the stop scans run far past their first windows
    grid = TorusGrid(128, 2**15)
    rng = np.random.default_rng(0)
    spec = mx.sample_rough_spec(grid, 8, rng, with_symbols=True)
    for sym, expected in zip(spec.symbols, LAYERED_SPEC_CSV, strict=True):
        layered = vr_layer_decompose(Spectrum(grid, sym), spec.r, 1e-3)
        text = written(tmp_path, layered_to_csv, layered)
        assert hashlib.sha256(text.encode()).hexdigest() == expected
    f = Signal(grid, rng.standard_normal(grid.samples) + 1j * rng.standard_normal(grid.samples))
    out = rvar_M(f, spec, "layered", tol=1e-3).values
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "4ff6c257e37dc5fa72bc5b1287825e455f7d5bce20a92cc078c15f8d680e0235"
    )


def test_whitney_csv_bytes(tmp_path):
    # min_cells=32 leaves flagged pieces at both ends and unflagged ones
    # in the middle, so both flag values are written
    system = whitney_decompose(TorusGrid(1, 2**13), -2048, 2048, min_cells=32)
    text = written(tmp_path, whitney_to_csv, system)
    lines = text.splitlines()
    assert lines[:2] == [
        "piece_lo,piece_hi,cells,flagged,overlap_count,per_scale_max",
        "-2048,-2016,32,1,20,128",
    ]
    assert "-448,-416,32,0,20,128" in lines
    assert len(lines) == 129
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "60f48fce299780d17d1c6fa02bd76cdd029a3b4a9c5dd54fe43abadc73fe4c0d"


def test_cz_reports_csv_bytes(tmp_path):
    report = CZReport(
        lam=0.5,
        n_freq=np.int64(2),
        c1=1 / 3,
        c2=0.0,
        c3=1e-20,
        c4=2.0,
        c5=np.float64(0.1),
        c6=1.5e-16,
        min_gram_sv=1.0,
    )
    assert written(tmp_path, cz_reports_to_csv, [report]) == (
        "lambda,n_freq,c1,c2,c3,c4,c5,c6,min_gram_sv\n"
        "0.5,2,0.33333333333333331,0,9.9999999999999995e-21,2,0.10000000000000001,1.5e-16,1\n"
    )


# ---------------------------------------------------------------------------
# run_suite outputs

SUITE_CSV = {
    "vq-l2-scaling": (
        "vq-l2-scaling,2,1.1594260469532489,4,signs[1]\n"
        "vq-l2-scaling,4,1.1600209755899289,4,signs[1]\n"
        "vq-l2-scaling,8,1.1592945676300295,4,signs[1]\n"
        "vq-l2-scaling,16,1.1588474585726825,4,signs[1]\n"
    ),
    "weak11-scaling": (
        "weak11-scaling,2,1.3846722774334548,4,delta-or-atom[0]\n"
        "weak11-scaling,4,1.7205843586778238,4,delta-or-atom[0]\n"
        "weak11-scaling,8,2.2918225756744732,4,delta-or-atom[2]\n"
        "weak11-scaling,16,3.265042552837794,4,delta-or-atom[3]\n"
    ),
    "rough-mult-scaling": (
        "rough-mult-scaling,2,0.71796878867390168,4,delta-or-atom[2]\n"
        "rough-mult-scaling,4,1.2344845614080397,4,delta-or-atom[0]\n"
        "rough-mult-scaling,8,1.3759771747956788,4,delta-or-atom[2]\n"
        "rough-mult-scaling,16,1.8758262643654691,4,delta-or-atom[3]\n"
    ),
    "rvar-mult": (
        "rvar-mult,2,1.0000000000000002,4,gaussian[3]\n"
        "rvar-mult,4,1.0000000000000002,4,gaussian[3]\n"
        "rvar-mult,8,0.99999999999999989,4,gaussian[3]\n"
        "rvar-mult,16,0.99992298179450367,4,signs[1]\n"
    ),
}

SUITE_FIT = {
    "vq-l2-scaling": "-0.00030640855407624277,0.43149075958328054,"
    "-0.00035221770398848355,0.25732594141861276,power,0\n",
    "weak11-scaling": "0.41262684314898657,0.98870234276383229,"
    "0.58923118482315029,0.90994162889790131,power,0\n",
    "rough-mult-scaling": "0.43131472845633306,0.93003626217854218,"
    "0.65597139376685198,0.97089571467725666,log-power,0\n",
    "rvar-mult": "-3.3335418672001024e-05,0.60000000000345954,"
    "-4.2039608446832233e-05,0.43067357489784808,power,0\n",
}


def suite_files(tmp_path, experiment, **kw) -> tuple[str, str, str]:
    config = ExperimentConfig(
        experiment,
        grid_period=16,
        grid_samples=2**10,
        n_list=(2, 4, 8, 16),
        trials=4,
        seed=0,
        out_dir=str(tmp_path),
        **kw,
    )
    run_suite(config)
    names = (f"{experiment}.csv", f"{experiment}_fit.csv", "manifest.txt")
    return tuple((tmp_path / name).read_bytes().decode() for name in names)


def manifest_config_lines(text: str) -> str:
    """The manifest less its two version lines, which name the installed
    package and NumPy rather than the config."""
    lines = text.splitlines(keepends=True)
    assert lines[-2].startswith("package_version=")
    assert lines[-1] == f"numpy_version={np.__version__}\n"
    return "".join(lines[:-2])


@pytest.mark.parametrize("experiment", sorted(SUITE_CSV))
def test_run_suite_bytes(tmp_path, experiment):
    table, fit, manifest = suite_files(tmp_path, experiment)
    assert table == "experiment,n,estimate,trials,argmax\n" + SUITE_CSV[experiment]
    assert fit == "alpha,r2_power,beta,r2_log,preferred,degenerate\n" + SUITE_FIT[experiment]
    assert manifest_config_lines(manifest) == (
        f"experiment={experiment}\n"
        "grid_period=16\n"
        "grid_samples=1024\n"
        "n_list=2,4,8,16\n"
        "q=3\n"
        "trials=4\n"
        "seed=0\n"
        "family=all\n"
        "trial_seed_scheme=SeedSequence([seed, n, 1, trial])\n"
    )


def test_run_suite_bytes_of_a_degenerate_fit(tmp_path, monkeypatch):
    # a spec whose symbols are all zero annihilates every input, so each N
    # scores 0, the fit is degenerate and every float cell is an exact zero
    sample = mx.sample_rough_spec

    def annihilating_spec(grid, n, rng, with_symbols=False):
        spec = sample(grid, n, rng, with_symbols)
        return RoughMultiplierSpec(grid, spec.intervals, symbols=(np.zeros(grid.samples),) * n)

    monkeypatch.setattr(mx, "sample_rough_spec", annihilating_spec)
    table, fit, manifest = suite_files(tmp_path, "rvar-mult", family="atom", q=7 / 3)
    assert table == (
        "experiment,n,estimate,trials,argmax\n"
        "rvar-mult,2,0,4,atom[0]\n"
        "rvar-mult,4,0,4,atom[0]\n"
        "rvar-mult,8,0,4,atom[0]\n"
        "rvar-mult,16,0,4,atom[0]\n"
    )
    assert fit == "alpha,r2_power,beta,r2_log,preferred,degenerate\n0,0,0,0,none,1\n"
    assert manifest_config_lines(manifest) == (
        "experiment=rvar-mult\n"
        "grid_period=16\n"
        "grid_samples=1024\n"
        "n_list=2,4,8,16\n"
        "q=2.3333333333333335\n"
        "trials=4\n"
        "seed=0\n"
        "family=atom\n"
        "trial_seed_scheme=SeedSequence([seed, n, 1, trial])\n"
    )
