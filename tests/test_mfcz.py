"""Height-threshold decomposition: stopping rule, moment matching, report.

The selection oracle enumerates every dyadic interval of the tree and
checks the maximality condition literally; moment residuals are recomputed
through full-length inner products rather than the compact atom storage.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from multifreq import (
    DegenerateInputError,
    FrequencySet,
    Signal,
    TorusGrid,
    cz_reports_to_csv,
    mfcz_decompose,
    moment_match,
    select_intervals,
    verify_mfcz,
)
from multifreq import mfcz
from multifreq.mfcz import TOL_ORTH


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(period=16, samples=256)


def spiky_signal(grid, rng, n_spikes=6):
    m = grid.samples
    vals = 0.05 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    cells = rng.choice(m, size=n_spikes, replace=False)
    vals[cells] += (1 + rng.uniform(0, 1, n_spikes)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, n_spikes)
    )
    return Signal(grid, vals)


def all_dyadic_intervals(m):
    size = 1
    while size <= m:
        for start in range(0, m, size):
            yield start, size
        size *= 2


def selection_oracle(f, lam, n_freq):
    """Literal maximality scan over every dyadic interval."""
    mags = np.abs(f.values)
    thr = lam / np.sqrt(n_freq)
    m = f.grid.samples

    def avg(start, size):
        return np.mean(mags[start:start + size])

    out = []
    for start, size in all_dyadic_intervals(m):
        if size == m or avg(start, size) <= thr:
            continue
        s, z = start, size
        dominated = False
        while z < m:
            s, z = s - s % (2 * z), 2 * z
            if avg(s, z) > thr:
                dominated = True
                break
        if not dominated:
            out.append((start, size))
    return sorted(out)


def stack_walk_selection(f, lam, n_freq):
    """The dyadic tree walked one node at a time with a stack, each
    average taken from the cumulative sums as select_intervals takes it."""
    mags = np.abs(f.values)
    threshold = lam / np.sqrt(n_freq)
    m = f.grid.samples
    cum = np.concatenate([[0.0], np.cumsum(mags)])

    def avg(start, size):
        return (cum[start + size] - cum[start]) / size

    selected = []
    stack = [(0, m)]
    while stack:
        start, size = stack.pop()
        half = size // 2
        for s in (start, start + half):
            if avg(s, half) > threshold:
                selected.append((s, half))
            elif half > 1:
                stack.append((s, half))
    return sorted(selected)


def full_moments(atom_signal, sigma):
    grid = sigma.grid
    x = grid.positions()
    out = []
    for xi in sigma.frequencies():
        out.append(grid.h * np.sum(atom_signal.values * np.exp(-2j * np.pi * xi * x)))
    return np.array(out)


def atom_cells(atom):
    return np.arange(atom.start_cell, atom.start_cell + atom.n_cells)


def full_signal(grid, cells, values):
    """Compact atom values placed on the full grid."""
    out = np.zeros(grid.samples, dtype=np.complex128)
    out[cells] = values
    return Signal(grid, out)


def local_l1(atom):
    """||f 1_J||_1 of the atom's interval."""
    return full_signal(atom.grid, atom_cells(atom), atom.f_values).norm1()


def b_signal(atom):
    return full_signal(atom.grid, atom.triple_cells, atom.b_values)


# --------------------------------------------------------------------------
# interval selection


def test_selection_matches_oracle(grid, rng):
    sigma_sizes = [1, 4, 16]
    for trial in range(12):
        f = spiky_signal(grid, rng)
        lam = f.norm_inf() / 3
        n_freq = sigma_sizes[trial % 3]
        got = select_intervals(f, lam, n_freq)
        assert got == selection_oracle(f, lam, n_freq)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 10),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 4, 16]),
    st.booleans(),
)
def test_level_scan_matches_the_stack_walk(log_samples, seed, n_freq, tie):
    grid = TorusGrid(period=1, samples=2**log_samples)
    m = grid.samples
    rng = np.random.default_rng(seed)
    # sparse small-integer magnitudes make many dyadic averages equal
    mags = rng.integers(0, 3, m) * (rng.random(m) < 0.4)
    assume(mags.any())
    if tie:
        # a threshold equal to one node's average probes the strict >
        size = 2 ** int(rng.integers(0, log_samples))
        start = size * int(rng.integers(m // size))
        height = float(np.mean(mags[start:start + size]))
    else:
        height = float(rng.uniform(0.05, 2.0))
    assume(np.mean(mags) <= height)
    f = Signal(grid, mags * rng.choice([-1.0, 1.0], m))
    lam = height * np.sqrt(n_freq)
    got = select_intervals(f, lam, n_freq)
    assert got == stack_walk_selection(f, lam, n_freq)
    assert all(type(start) is int and type(size) is int for start, size in got)


def test_selection_known_example():
    grid = TorusGrid(period=16, samples=128)
    vals = np.zeros(128)
    vals[:8] = 1.0  # indicator of [0, 1)
    f = Signal(grid, vals)
    assert select_intervals(f, 1.0, 4) == [(0, 8)]


def test_selection_empty_when_flat(grid):
    f = Signal(grid, np.full(grid.samples, 0.09 + 0.0j))
    # every dyadic average is 0.09, below the threshold 0.1
    assert select_intervals(f, 0.2, 4) == []


def test_selected_averages_in_band(grid, rng):
    for _ in range(8):
        f = spiky_signal(grid, rng)
        lam = f.norm_inf() / 3
        thr = lam / 4.0
        mags = np.abs(f.values)
        for start, size in select_intervals(f, lam, 16):
            a = np.mean(mags[start:start + size])
            assert thr < a <= 2 * thr + 1e-12


def test_selection_disjoint(grid, rng):
    f = spiky_signal(grid, rng, n_spikes=10)
    covered = np.zeros(grid.samples, dtype=bool)
    for start, size in select_intervals(f, f.norm_inf() / 4, 2):
        assert not covered[start:start + size].any()
        covered[start:start + size] = True


def test_selection_degenerate(grid):
    f = Signal(grid, np.ones(grid.samples))
    with pytest.raises(DegenerateInputError):
        select_intervals(f, 0.5, 1)


def test_selection_validation(grid):
    f = Signal(grid, np.ones(grid.samples))
    with pytest.raises(ValueError):
        select_intervals(f, -1.0, 4)
    with pytest.raises(ValueError):
        select_intervals(Signal(grid, np.zeros(grid.samples)), 1.0, 4)


def test_decomposition_refuses_a_nan_sample(grid, rng):
    # a NaN sample once gave a report with c3 = nan
    f = spiky_signal(grid, rng)
    vals = f.values.copy()
    vals[17] = complex(np.nan, 0.0)
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        mfcz_decompose(Signal(grid, vals), 1.0, sigma)
    vals = vals.copy()
    vals[17] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="finite"):
        select_intervals(Signal(grid, vals), 1.0, 2)


def test_decomposition_refuses_a_nan_height(grid, rng):
    # lam = nan once selected no interval and reported c3 = nan
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0])
    with pytest.raises(ValueError, match="lam"):
        mfcz_decompose(spiky_signal(grid, rng), float("nan"), sigma)


def test_decomposition_refuses_an_infinite_height(grid, rng):
    # lam = inf once selected no interval
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0])
    with pytest.raises(ValueError, match="lam"):
        mfcz_decompose(spiky_signal(grid, rng), float("inf"), sigma)


def test_total_measure_monotone_in_lam(grid, rng):
    for _ in range(6):
        f = spiky_signal(grid, rng)
        lam = f.norm_inf() / 4
        size_at = {}
        for factor in (1.0, 2.0):
            sel = select_intervals(f, lam * factor, 8)
            size_at[factor] = sum(size for _, size in sel)
        assert size_at[2.0] <= size_at[1.0]


# --------------------------------------------------------------------------
# moment matching


def test_constant_match_single_frequency():
    grid = TorusGrid(16, 128)
    sigma = FrequencySet.from_frequencies(grid, [0.0])
    triple = np.arange(-8, 16) % 128
    g, rel_sv, _ = moment_match(np.ones(8, dtype=complex), sigma, triple)
    assert np.allclose(g, 1.0 / 3.0, atol=1e-13)
    # g carries the zeroth moment of f_J
    assert grid.h * np.sum(g) == pytest.approx(8 * grid.h)
    assert rel_sv == pytest.approx(1.0)


def test_zero_moments_give_zero(grid):
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0])
    triple = np.arange(8, 32)
    g, _, resid = moment_match(np.zeros(8, dtype=complex), sigma, triple)
    assert np.all(g == 0)
    assert resid == 0


def test_residuals_tiny_for_separated_frequencies(grid, rng):
    sigma = FrequencySet.from_frequencies(grid, list(np.arange(8.0) - 4.0))
    triple = np.arange(0, 96)
    f_vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    g, _, _ = moment_match(f_vals, sigma, triple)
    # recheck the moments of f_J - g directly
    h = grid.h
    x3 = triple * h
    l1 = h * np.sum(np.abs(f_vals))
    b = -g.copy()
    b[32:64] += f_vals
    for j, xi in enumerate(sigma.frequencies()):
        resid = h * np.sum(b * np.exp(-2j * np.pi * xi * x3))
        assert abs(resid) <= 1e-8 * l1


def test_match_is_a_projection(grid, rng):
    # least-norm moment matching is the orthogonal projection of the local
    # signal onto the exponential span, so it never increases the L2 norm
    sigma = FrequencySet.from_frequencies(grid, [-2.0, 0.0, 3.0])
    triple = np.arange(32, 56)
    for _ in range(10):
        f_vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        g, _, _ = moment_match(f_vals, sigma, triple)
        assert np.sum(np.abs(g) ** 2) <= np.sum(np.abs(f_vals) ** 2) + 1e-12


def test_residual_tiny_when_frequencies_outnumber_cells():
    # 64 separated frequencies against 48 dilation cells: the Gram is
    # singular, and solving through it left a residual of 1.07e-8 * |f_J|_1
    grid = TorusGrid(period=128, samples=2**15)
    rng = np.random.default_rng(63)
    slots = np.arange(-grid.samples // 2 + 128, grid.samples // 2 - 127, 128)
    sigma = FrequencySet(grid, np.sort(rng.choice(slots, 64, replace=False)))
    start = int(rng.integers(0, grid.samples - 48))
    triple = np.arange(start, start + 48)
    f_vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    g, rel_sv, _ = moment_match(f_vals, sigma, triple)
    assert rel_sv < 1e-10
    b = -g.copy()
    b[16:32] += f_vals
    h = grid.h
    x3 = triple * h
    for xi in sigma.frequencies():
        resid = h * np.sum(b * np.exp(-2j * np.pi * xi * x3))
        assert abs(resid) <= 1e-8 * h * np.sum(np.abs(f_vals))


def test_no_moment_content_lost_to_a_cutoff():
    # a cutoff of 1e-5 * s_max on E dropped real moment content of this
    # atom and left c6 at 2.29e-6
    grid = TorusGrid(period=128, samples=2**15)
    rng = np.random.default_rng(208)
    slots = np.arange(-grid.samples // 2 + 128, grid.samples // 2 - 127, 128)
    sigma = FrequencySet(grid, np.sort(rng.choice(slots, 64, replace=False)))
    start = int(rng.integers(16, grid.samples - 32))
    triple = np.arange(start - 16, start + 32)
    f_vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    g = moment_match(f_vals, sigma, triple)[0]
    b = -g
    b[16:32] += f_vals
    h = grid.h
    l1 = h * np.sum(np.abs(f_vals))
    x3 = triple * h
    c6 = max(abs(h * np.sum(b * np.exp(-2j * np.pi * xi * x3))) for xi in sigma.frequencies())
    assert c6 / l1 <= TOL_ORTH


def test_rank_deficient_gram_reported(grid):
    # one-cell interval with many frequencies: Gram rank is at most 3
    sigma = FrequencySet.from_frequencies(grid, list(np.arange(8.0) - 4.0))
    triple = np.arange(99, 102)
    g, rel_sv, _ = moment_match(np.array([2.0 + 0j]), sigma, triple)
    assert rel_sv < 1e-10
    h = grid.h
    b = -g.copy()
    b[1:2] += np.array([2.0 + 0j])
    x3 = triple * h
    for xi in sigma.frequencies():
        resid = h * np.sum(b * np.exp(-2j * np.pi * xi * x3))
        assert abs(resid) <= 1e-8 * (2.0 * h)


def one_call_per_atom(f_vals, sigma, triple):
    return [moment_match(f_vals[k], sigma, triple[k]) for k in range(len(f_vals))]


def assert_stack_has_the_bytes_of_one_call_per_atom(f_vals, sigma, triple):
    g, rel_sv, resid = moment_match(f_vals, sigma, triple)
    assert g.shape == triple.shape and rel_sv.shape == resid.shape == (len(f_vals),)
    for k, (g1, rel_sv1, resid1) in enumerate(one_call_per_atom(f_vals, sigma, triple)):
        assert g[k].tobytes() == g1.tobytes()
        assert (float(rel_sv[k]).hex(), float(resid[k]).hex()) == (rel_sv1.hex(), resid1.hex())


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 4, 8, 16]),
    st.sampled_from([1, 3, 12, 40, 60]),
    st.integers(1, 7),
)
def test_stacked_moment_match_has_the_bytes_of_one_call_per_atom(seed, size, n_freq, count):
    # N below and above the 3|J| dilation cells, sizes from 1 to 16
    grid = TorusGrid(period=16, samples=256)
    rng = np.random.default_rng(seed)
    band = np.arange(-grid.samples // 2 + 1, grid.samples // 2)
    sigma = FrequencySet(grid, rng.choice(band, size=n_freq, replace=False))
    starts = rng.choice(grid.samples, size=count, replace=False)
    triple = (starts[:, None] + np.arange(-size, 2 * size)) % grid.samples
    f_vals = rng.standard_normal((count, size)) + 1j * rng.standard_normal((count, size))
    assert_stack_has_the_bytes_of_one_call_per_atom(f_vals, sigma, triple)


def test_stacked_moment_match_keeps_each_atom_rank():
    # cells that repeat lower an atom's rank: the stack groups its atoms
    # by the rank they keep and projects each group on its own
    grid = TorusGrid(period=16, samples=256)
    rng = np.random.default_rng(11)
    sigma = FrequencySet(grid, np.arange(-20, 20))
    triple = (np.array([[30], [90], [150], [210]]) + np.arange(-4, 8)) % grid.samples
    triple[1] = triple[1][np.arange(12) // 2 * 2]
    triple[3] = triple[3][np.arange(12) // 3 * 3]
    ranks = [np.linalg.matrix_rank(mfcz._cell_exponentials(grid, sigma, t[None])[0]) for t in triple]
    assert ranks == [12, 6, 12, 4]
    f_vals = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert_stack_has_the_bytes_of_one_call_per_atom(f_vals, sigma, triple)


def test_atoms_of_one_size_are_matched_in_stacks(monkeypatch, grid, rng):
    # mfcz_decompose hands moment_match one stack per size, of at most
    # _ATOM_STACK atoms, and keeps the atoms in start order
    stacks = []
    real = mfcz.moment_match

    def recording(f_vals, sigma, triple_cells):
        stacks.append(f_vals.shape)
        return real(f_vals, sigma, triple_cells)

    monkeypatch.setattr(mfcz, "moment_match", recording)
    monkeypatch.setattr(mfcz, "_ATOM_STACK", 3)
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0, 2.0])
    f = spiky_signal(grid, rng, n_spikes=12)
    dec = mfcz_decompose(f, f.norm_inf() / 3, sigma)
    sizes = [a.n_cells for a in dec.atoms]
    assert [a.start_cell for a in dec.atoms] == sorted(a.start_cell for a in dec.atoms)
    want = [
        (min(3, sizes.count(n) - i), n) for n in sorted(set(sizes)) for i in range(0, sizes.count(n), 3)
    ]
    assert stacks == want and len(dec.atoms) > 3


# --------------------------------------------------------------------------
# full decomposition


def test_decomposition_reconstructs_exactly(grid, rng):
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0, 2.0, 3.0])
    for _ in range(6):
        f = spiky_signal(grid, rng)
        dec = mfcz_decompose(f, f.norm_inf() / 3, sigma)
        assert len(dec.atoms) > 0
        total = np.array(dec.good.values, copy=True)
        for atom in dec.atoms:
            total[atom.triple_cells] += atom.b_values
        assert np.max(np.abs(total - f.values)) <= 1e-12 * f.norm_inf()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(1, 10),
    st.floats(0.15, 0.9),
)
def test_decomposition_properties(seed, n_freq, n_spikes, frac):
    # arbitrary, possibly clustered frequencies on a small grid, so some
    # atoms have more frequencies than dilation cells
    grid = TorusGrid(period=16, samples=256)
    rng = np.random.default_rng(seed)
    f = spiky_signal(grid, rng, n_spikes)
    band = np.arange(-grid.samples // 2 + 1, grid.samples // 2)
    sigma = FrequencySet(grid, rng.choice(band, size=n_freq, replace=False))
    try:
        dec = mfcz_decompose(f, frac * f.norm_inf(), sigma)
    except DegenerateInputError:
        assume(False)
    total = np.array(dec.good.values, copy=True)
    for atom in dec.atoms:
        total[atom.triple_cells] += atom.b_values
        # moment matching projects f_J, so it never adds L2 mass
        g2 = np.linalg.norm(atom.g_values)
        assert g2 <= np.linalg.norm(atom.f_values) * (1 + 1e-12)
        l1 = local_l1(atom)
        resid = np.max(np.abs(full_moments(b_signal(atom), sigma)))
        assert abs(atom.moment_residual - resid) <= 1e-12 * l1
    assert np.max(np.abs(total - f.values)) <= 1e-12 * f.norm_inf()
    assert verify_mfcz(dec).c6 <= TOL_ORTH


def test_atom_support_and_disjointness(grid, rng):
    sigma = FrequencySet.from_frequencies(grid, [0.0, 2.0])
    f = spiky_signal(grid, rng, n_spikes=8)
    dec = mfcz_decompose(f, f.norm_inf() / 3, sigma)
    seen = np.zeros(grid.samples, dtype=bool)
    for atom in dec.atoms:
        b_full = b_signal(atom).values
        outside = np.setdiff1d(np.arange(grid.samples), atom.triple_cells)
        assert np.all(b_full[outside] == 0)
        assert atom.triple_cells.size == 3 * atom.n_cells
        assert not seen[atom_cells(atom)].any()
        seen[atom_cells(atom)] = True


def test_single_indicator_example():
    grid = TorusGrid(16, 128)
    vals = np.zeros(128)
    vals[:8] = 1.0
    f = Signal(grid, vals)
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0, 2.0, 3.0])
    dec = mfcz_decompose(f, 1.0, sigma)
    assert len(dec.atoms) == 1
    atom = dec.atoms[0]
    assert (atom.start_cell, atom.n_cells) == (0, 8)
    resids = np.abs(full_moments(b_signal(atom), sigma))
    assert np.max(resids) <= 1e-8 * local_l1(atom)


def test_below_threshold_passthrough(grid):
    vals = np.full(grid.samples, 0.01 + 0j)
    f = Signal(grid, vals)
    sigma = FrequencySet.from_frequencies(grid, [0.0])
    dec = mfcz_decompose(f, 1.0, sigma)
    assert dec.atoms == ()
    assert np.array_equal(dec.good.values, f.values)


def test_oversized_interval_rejected():
    grid = TorusGrid(16, 256)
    vals = np.zeros(grid.samples)
    vals[: grid.samples // 2] = 1.0  # half-torus plateau
    f = Signal(grid, vals)
    sigma = FrequencySet.from_frequencies(grid, [0.0])
    # threshold between the root average (1/2) and the plateau average (1)
    with pytest.raises(DegenerateInputError):
        mfcz_decompose(f, 0.7, sigma)


# --------------------------------------------------------------------------
# verification report


def test_report_no_atoms(grid):
    f = Signal(grid, np.full(grid.samples, 0.01 + 0j))
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0])
    rep = verify_mfcz(mfcz_decompose(f, 1.0, sigma))
    assert rep.c1 == rep.c2 == rep.c4 == rep.c5 == rep.c6 == 0.0
    want_c3 = f.norm2() ** 2 / (np.sqrt(2) * 1.0 * f.norm1())
    assert rep.c3 == pytest.approx(want_c3)


def test_report_constants_on_corpus(grid, rng):
    reports = []
    for n_freq in (2, 4, 8, 16):
        freqs = np.arange(float(n_freq)) - n_freq / 2 + 0.5
        sigma = FrequencySet.from_frequencies(grid, list(freqs))
        for _ in range(3):
            f = spiky_signal(grid, rng)
            dec = mfcz_decompose(f, f.norm_inf() / 3, sigma)
            rep = verify_mfcz(dec)
            assert rep.c1 <= 2.0 + 1e-12
            assert rep.c6 <= 1e-6
            for c in (rep.c2, rep.c3, rep.c4, rep.c5):
                assert np.isfinite(c) and c >= 0
            reports.append(rep)
    assert max(r.c5 for r in reports) <= 16


def test_c6_is_the_stored_residual_over_the_local_mass(grid, rng):
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0])
    f = spiky_signal(grid, rng)
    dec = mfcz_decompose(f, f.norm_inf() / 3, sigma)
    atom = dec.atoms[0]
    worse = dataclasses.replace(atom, moment_residual=1e-3)
    rep = verify_mfcz(dataclasses.replace(dec, atoms=(worse,) + dec.atoms[1:]))
    assert rep.c6 == pytest.approx(1e-3 / local_l1(atom), rel=1e-12)


def test_reports_csv(tmp_path, grid, rng):
    sigma = FrequencySet.from_frequencies(grid, [0.0, 1.0])
    f = spiky_signal(grid, rng)
    reports = [verify_mfcz(mfcz_decompose(f, f.norm_inf() / 3, sigma))]
    path = tmp_path / "cz.csv"
    cz_reports_to_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,n_freq,c1,c2,c3,c4,c5,c6,min_gram_sv"
    row = lines[1].split(",")
    assert len(row) == 9
    assert int(row[1]) == 2
    assert float(row[2]) == pytest.approx(reports[0].c1)
