"""Tests of the benchmark's tracer and correctness checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import baseline
import multifreq
import tracer
import workloads
from conftest import BENCH, ROOT

SEED = 5


def _traced(name, tmp_path, small=False, seed=SEED):
    tr = tracer.Tracer()
    watch = tracer.Stopwatch(tr, 0)
    with tr.installed():
        result = workloads.WORKLOADS[name].run_pass(seed, str(tmp_path), {}, watch, small=small)
    return tr, watch, result


def _bindings():
    return {
        (name, attr): val
        for name, mod in sys.modules.items()
        if name == "multifreq" or name.startswith("multifreq.")
        for attr, val in vars(mod).items()
    }


@pytest.fixture(scope="module")
def decompose_runs(tmp_path_factory):
    return [_traced("decompose", tmp_path_factory.mktemp("d")) for _ in range(2)]


def test_every_wrapped_name_is_restored(tmp_path):
    before = _bindings()
    tr = tracer.Tracer()
    with tr.installed():
        assert multifreq.operators.forward_transform is not before[("multifreq.operators", "forward_transform")]
        assert multifreq.experiments.run_suite.__wrapped__ is before[("multifreq.experiments", "run_suite")]
        wrapped = {k for k, v in _bindings().items() if v is not before.get(k)}
        workloads.WORKLOADS["vq-suite"].run_pass(1, str(tmp_path), {}, tracer.Stopwatch(tr, 0), small=True)
    assert ("multifreq.symbols", "variation_norm") in wrapped
    assert ("multifreq", "rvar_M") in wrapped
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_children_nest_and_self_times_fit_the_pass(decompose_runs):
    tr, watch, (attempted, failed, _) = decompose_runs[0]
    assert (attempted, failed) == (7, 0)
    self_times = tr.self_times()
    roots = 0.0
    for (name, start, end, parent, _), self_s in zip(tr.spans, self_times):
        assert start <= end
        assert self_s >= -1e-9
        if parent is None:
            assert name == "pass"
            roots += end - start
        else:
            _, p_start, p_end, _, _ = tr.spans[parent]
            assert p_start <= start and end <= p_end
    assert sum(self_times) <= roots + 1e-9
    assert roots <= watch.seconds


def test_counts_repeat_for_one_seed(decompose_runs, tmp_path):
    first, second = (run[0].metrics() for run in decompose_runs)
    for name in ("mfcz.atoms", "symbols.window_pieces", "grid.fft_calls", "symbols.layer_pieces"):
        assert first[name] == second[name] > 0
    vq = [_traced("vq-suite", tmp_path / str(i), small=True)[0].metrics() for i in range(2)]
    for name in ("grid.fft_calls", "bumps.symbol_calls", "operators.vq_dk_calls"):
        assert vq[0][name] == vq[1][name] > 0


def test_benchmark_json_matches_its_sources(decompose_runs):
    assert set(decompose_runs[0][0].metrics()) == {m[0] for m in tracer.METRICS}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, section in baseline.generated_sections().items():
        assert bench[key] == section, f"rerun perfbench/baseline.py to refresh {key}"


def test_suite_check_is_relative_not_bitwise(tmp_path):
    suite = workloads.WORKLOADS["vq-suite"]
    config = suite.config(3, str(tmp_path), small=True)
    report = multifreq.experiments.run_suite(config)
    rows = workloads.suite_rows(report)
    assert workloads.check_suite_rows(report, config, rows) == []
    close = [[n, est * (1 + 1e-12), label] for n, est, label in rows]
    assert workloads.check_suite_rows(report, config, close) == []
    wrong = [list(r) for r in rows]
    wrong[0][1] *= 1 + 1e-6
    wrong[1][2] = "atom[0]" if wrong[1][2] != "atom[0]" else "signs[0]"
    assert len(workloads.check_suite_rows(report, config, wrong)) == 2
    bad_row = replace(report.rows[2], argmax="nonsense")
    broken = replace(report, rows=report.rows[:2] + (bad_row,) + report.rows[3:])
    assert len(workloads.check_suite_rows(broken, config, None)) == 1


def test_a_raising_call_fails_its_group_and_the_pass_goes_on(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(multifreq, "mfcz_decompose", boom)
    watch = tracer.Stopwatch()
    attempted, failed, detail = workloads.WORKLOADS["decompose"].run_pass(SEED, str(tmp_path), {}, watch)
    assert (attempted, failed) == (7, 2)
    assert "injected" in detail


def test_decompose_catches_a_wrong_layering(monkeypatch, tmp_path):
    real = multifreq.operators.vr_layer_decompose

    def drops_coarsest_layer(*args, **kwargs):
        layered = real(*args, **kwargs)
        layers = list(layered.layers)
        layers[next(j for j, layer in enumerate(layers) if layer)] = ()
        return replace(layered, layers=tuple(layers))

    monkeypatch.setattr(multifreq.operators, "vr_layer_decompose", drops_coarsest_layer)
    attempted, failed, detail = workloads.WORKLOADS["decompose"].run_pass(
        SEED, str(tmp_path), {}, tracer.Stopwatch()
    )
    assert (attempted, failed) == (7, 1)
    assert "from the direct path" in detail


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vq-suite", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
