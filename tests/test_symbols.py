"""Layer decompositions, Whitney window systems, windowed expansions."""

import csv
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multifreq import bumps, symbols
from multifreq.bumps import bump_profile, plateau_profile, smoothstep
from multifreq.errors import ConstructionError, GridMismatchError, ResolutionError
from multifreq.experiments import sample_rough_spec
from multifreq.fluctuation import variation_norm
from multifreq.grid import (
    DyadicFreqInterval,
    Signal,
    Spectrum,
    TorusGrid,
    forward_transform,
    inverse_transform,
    write_csv,
)
from multifreq.operators import rvar_M
from multifreq.symbols import (
    _stop_positions,
    layered_to_csv,
    vr_layer_decompose,
    whitney_decompose,
    whitney_to_csv,
    window_system,
    windowed_expand,
)


# ---------------------------------------------------------------------------
# oracles

def scatter_reconstruct(layered):
    """Literal scatter of every piece plus the remainder."""
    half = layered.grid.samples // 2
    out = layered.remainder.values.copy()
    for layer in layered.layers:
        for p in layer:
            out[p.lo + half : p.hi + half] += p.coeff
    return out


def assert_layer_contract(layered, source_vals):
    v = layered.source_norm
    scale = max(v, 1.0)
    for j, layer in enumerate(layered.layers):
        assert len(layer) <= 2 ** (j + 1) + 2
        bound = 3.0 * 2.0 ** (-j / layered.r) * v + 1e-12 * scale
        spans = sorted((p.lo, p.hi) for p in layer)
        for (a, b), (c, _) in zip(spans, spans[1:]):
            assert b <= c
        for p in layer:
            assert p.lo < p.hi
            assert abs(p.coeff) <= bound
    rec = scatter_reconstruct(layered)
    assert np.max(np.abs(rec - source_vals)) <= 1e-12 * scale
    assert np.max(np.abs(layered.remainder.values)) <= layered.tol * v + 1e-15


def plain_stop_positions(vals, eps, block=64):
    """The plain stopping scan: from each stop, test the next cell, then
    the rest of the tail ``block`` cells at a time, and stop at the first
    cell that drifts more than eps.  The next cell's drift is one entry
    of the consecutive drifts, which are taken once, so a stop that
    follows a stop costs no array call.  It shares no code with the
    library's table, pointers or fallback."""
    n = vals.shape[0]
    steps = (np.abs(vals[1:] - vals[:-1]) > eps).tolist()
    stops = [0]
    pos = 0
    while pos + 1 < n:
        if steps[pos]:
            pos += 1
            stops.append(pos)
            continue
        lo = pos + 2
        while lo < n:
            over = np.abs(vals[lo : lo + block] - vals[pos]) > eps
            i = int(over.argmax())
            if over[i]:
                break
            lo += block
        if lo >= n:
            break
        pos = lo + i
        stops.append(pos)
    return np.asarray(stops, dtype=np.int64)


def plain_layer_decompose(vals, r, tol):
    """The layer decomposition as first written: every level rescans the
    full lattice with ``plain_stop_positions`` and differences full-lattice
    approximants.  Returns (source_norm, j_max, layers of (lo, hi, coeff)
    triples, remainder values)."""
    n = vals.shape[0]
    half = n // 2
    v = variation_norm(vals, r, mode="nonhomogeneous")
    if v == 0.0:
        return v, 0, [[(-half, half, 0j)]], np.zeros(n, dtype=np.complex128)
    j_max = max(0, math.ceil(-r * math.log2(tol)))
    while j_max > 0 and 2.0 ** (-(j_max - 1) / r) <= tol:
        j_max -= 1
    while 2.0 ** (-j_max / r) > tol:
        j_max += 1
    layers = []
    prev_stops = np.array([0], dtype=np.int64)
    prev_approx = np.zeros(n, dtype=np.complex128)
    converged = False
    for j in range(j_max + 1):
        if converged:
            layers.append([])
            continue
        stops = plain_stop_positions(vals, 2.0 ** (-j / r) * v)
        approx = np.repeat(vals[stops], np.diff(stops, append=n))
        breaks = np.union1d(prev_stops, stops)
        layer = []
        for a, b in zip(breaks, np.append(breaks[1:], n)):
            d = approx[a] - prev_approx[a]
            if d != 0:
                layer.append((int(a) - half, int(b) - half, d))
        layers.append(layer)
        prev_stops, prev_approx = stops, approx
        converged = np.array_equal(approx, vals)
    return v, j_max, layers, vals - prev_approx


def random_step_symbol(grid, rng, n_jumps, monotone=False):
    m_samp = grid.samples
    pos = np.sort(rng.choice(np.arange(1, m_samp), size=n_jumps, replace=False))
    vals = np.zeros(m_samp, dtype=np.complex128)
    if monotone:
        jumps = rng.uniform(0.1, 1.0, size=n_jumps).astype(np.complex128)
    else:
        jumps = rng.standard_normal(n_jumps) + 1j * rng.standard_normal(n_jumps)
    level = 0j
    prev = 0
    for p, jump in zip(pos, jumps):
        vals[prev:p] = level
        level = level + jump
        prev = p
    vals[prev:] = level
    return vals


def whitney_property_scan(system):
    grid = system.grid
    m_samp = grid.samples
    half = m_samp // 2
    a0 = system.omega_lo + half
    b0 = system.omega_hi + half
    cover = np.zeros(m_samp, dtype=np.int64)
    for p in system.pieces:
        a = p.lo + half
        b = p.hi + half
        n = b - a
        assert n >= 1 and (n & (n - 1)) == 0
        assert a % n == 0
        assert a0 <= a and b <= b0
        cover[a:b] += 1
        c = a + 0.5 * n
        dil_ok = c - 50.0 * n >= a0 and c + 50.0 * n <= b0
        if p.flagged:
            assert n == system.min_cells
            assert not dil_ok
        else:
            assert dil_ok
            pn = 2 * n
            pa = a - (a % pn)
            pc = pa + 0.5 * pn
            parent_ok = (
                pa >= a0
                and pa + pn <= b0
                and pc - 50.0 * pn >= a0
                and pc + 50.0 * pn <= b0
            )
            assert not parent_ok
    assert np.all(cover[a0:b0] == 1)
    assert np.all(cover[:a0] == 0)
    assert np.all(cover[b0:] == 0)
    # ascending, which window_system relies on to telescope its ramps
    assert all(p.hi == q.lo for p, q in zip(system.pieces, system.pieces[1:]))


def overlap_oracle(system):
    """Independent recount of the 20-fold dilation overlap."""
    m_samp = system.grid.samples
    half = m_samp // 2
    counts = np.zeros(m_samp, dtype=np.int64)
    for p in system.pieces:
        a = p.lo + half
        b = p.hi + half
        n = b - a
        lo = int(np.ceil(a - 9.5 * n))
        hi = int(np.ceil(b + 9.5 * n))
        counts[max(lo, 0) : min(hi, m_samp)] += 1
    return int(counts.max())


def pairing_oracle(f, omega, l, shift_cells):
    """Literal bilinear pairing against one modulated translate."""
    grid = f.grid
    scale = 2.0 ** omega.k
    xi_rep = omega.xi_rep_index
    if xi_rep is None:
        xi_rep = omega.index_range()[0]
    analysis = bump_profile("phi", grid.frequencies() * scale)
    window_space = inverse_transform(
        Spectrum(grid, analysis.astype(np.complex128))
    ).values
    x = grid.positions()
    mod = np.exp(-2j * np.pi * (xi_rep / grid.period) * x)
    shifted = np.roll(window_space, l * shift_cells)
    return grid.h * np.sum(f.values * mod * shifted)


# ---------------------------------------------------------------------------
# layer decomposition

LAYER_GRID = TorusGrid(period=128, samples=4096)


@pytest.fixture(scope="module")
def layer_grid():
    return LAYER_GRID


def test_layers_constant_symbol(layer_grid):
    c = 2.5 - 1.0j
    g = Spectrum(layer_grid, np.full(layer_grid.samples, c))
    ls = vr_layer_decompose(g, 2.0)
    half = layer_grid.samples // 2
    (piece,) = ls.layers[0]
    assert (piece.lo, piece.hi, piece.coeff) == (-half, half, c)
    assert all(len(layer) == 0 for layer in ls.layers[1:])
    assert np.all(ls.remainder.values == 0)
    assert ls.source_norm == pytest.approx(abs(c))


def test_layers_zero_symbol(layer_grid):
    g = Spectrum(layer_grid, np.zeros(layer_grid.samples, dtype=np.complex128))
    ls = vr_layer_decompose(g, 1.5)
    assert ls.source_norm == 0.0
    assert ls.j_max == 0
    assert len(ls.layers) == 1
    assert len(ls.layers[0]) == 1
    assert ls.layers[0][0].coeff == 0
    assert np.all(ls.remainder.values == 0)


def test_layers_interior_indicator(layer_grid):
    m_samp = layer_grid.samples
    half = m_samp // 2
    vals = np.zeros(m_samp, dtype=np.complex128)
    vals[half - 400 : half + 200] = 1.0
    ls = vr_layer_decompose(Spectrum(layer_grid, vals), 2.0)
    assert ls.source_norm == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-12)
    nonempty = [j for j, layer in enumerate(ls.layers) if layer]
    # threshold first drops below the unit jump at level 3
    assert nonempty == [3]
    (piece,) = ls.layers[3]
    assert piece.coeff == 1.0
    assert (piece.lo, piece.hi) == (-400, 200)
    assert abs(piece.coeff) <= 3.0 * 2.0 ** (-3 / 2.0) * ls.source_norm
    assert np.all(ls.remainder.values == 0)
    assert_layer_contract(ls, vals)


def test_layers_edge_indicator_lands_in_layer_zero(layer_grid):
    # an indicator anchored at the band edge is captured by the very
    # first scan, so its unit piece shows up at level 0
    m_samp = layer_grid.samples
    vals = np.zeros(m_samp, dtype=np.complex128)
    vals[:300] = 1.0
    ls = vr_layer_decompose(Spectrum(layer_grid, vals), 2.0)
    assert len(ls.layers[0]) == 1
    assert ls.layers[0][0].coeff == 1.0
    assert 1.0 <= 3.0 * ls.source_norm
    assert_layer_contract(ls, vals)


def test_layers_random_step_corpus(layer_grid):
    rng = np.random.default_rng(20240818)
    for trial in range(50):
        n_jumps = int(rng.integers(1, 13))
        vals = random_step_symbol(layer_grid, rng, n_jumps)
        r = float(rng.choice([1.5, 2.0, 3.0]))
        tol = float(rng.choice([1e-2, 1e-3]))
        ls = vr_layer_decompose(Spectrum(layer_grid, vals), r, tol)
        assert_layer_contract(ls, vals)
        assert np.max(np.abs(ls.reconstruct().values - vals)) <= 1e-12 * max(
            ls.source_norm, 1.0
        )


def test_layers_monotone_step_symbol(layer_grid):
    rng = np.random.default_rng(7)
    vals = random_step_symbol(layer_grid, rng, 12, monotone=True)
    ls = vr_layer_decompose(Spectrum(layer_grid, vals), 2.0)
    assert_layer_contract(ls, vals)
    assert np.all(ls.remainder.values == 0)


def test_layers_smooth_symbol(layer_grid):
    # a smooth ramp exercises nonzero remainders
    xi = layer_grid.frequencies()
    vals = bump_profile("phi", xi / 20.0).astype(np.complex128)
    ls = vr_layer_decompose(Spectrum(layer_grid, vals), 2.0, tol=1e-2)
    assert_layer_contract(ls, vals)
    assert np.max(np.abs(ls.remainder.values)) > 0


# run lengths on both sides of each galloping window edge
WINDOW_EDGES = [63, 64, 65, 255, 256, 257, 1023, 1024, 1025, 4095, 4096, 4097]


@st.composite
def stop_scan_input(draw):
    """A complex array of constant runs, short noisy runs, slow ramps and
    a zero tail, up to 20000 cells, with a seed for the noise.  Inside a
    ramp of unit rise the next stop can lie hundreds of run starts ahead,
    past the drift table, so the scan takes its fallback."""
    value = st.sampled_from([0.0, 1.0, -1.0, 0.5j, 1e-300, 0.25 + 0.25j, 2.0 - 1.5j])
    run = st.one_of(
        st.tuples(st.just("const"), st.integers(1, 6000) | st.sampled_from(WINDOW_EDGES), value),
        st.tuples(st.just("noise"), st.integers(1, 200), value),
        st.tuples(st.just("ramp"), st.integers(2, 6000) | st.sampled_from(WINDOW_EDGES), value),
    )
    runs = draw(st.lists(run, min_size=1, max_size=10))
    tail = draw(st.integers(0, 20000) | st.sampled_from(WINDOW_EDGES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind, length, v in runs:
        if kind == "const":
            parts.append(np.full(length, v, dtype=np.complex128))
        elif kind == "ramp":
            parts.append(v + np.linspace(0.0, 1.0, length, dtype=np.complex128))
        else:
            parts.append(v + rng.standard_normal(length) + 1j * rng.standard_normal(length))
    parts.append(np.zeros(tail, dtype=np.complex128))
    return np.concatenate(parts)[:20000]


@settings(max_examples=150, deadline=None)
@given(
    stop_scan_input(),
    st.sampled_from(["zero", "tiny", "inside", "above"]),
    st.floats(0.0, 1.0),
)
def test_galloping_stop_scan_equals_the_plain_scan(vals, kind, frac):
    span = float(np.max(np.abs(vals - vals[0])))
    eps = {
        "zero": 0.0,
        "tiny": 5e-324 + frac * 1e-300,
        "inside": frac * span,
        "above": span * (1.0 + frac) + 1.0,
    }[kind]
    got = _stop_positions(vals, eps)
    assert got.dtype == np.int64
    assert np.array_equal(got, plain_stop_positions(vals, eps))


def test_stop_scan_falls_back_past_the_drift_table(monkeypatch):
    # on a ramp of 1000 distinct values at threshold 0.3 each stop lies
    # about 300 run starts ahead, so every stop comes from the fallback,
    # which scans only past the run starts of the table
    found = []

    def recording(c, pos, start, stop):
        found.append((pos, start, stop))
        return real(c, pos, start, stop)

    real = symbols._tail_peaks
    monkeypatch.setattr(symbols, "_tail_peaks", recording)
    vals = np.linspace(0.0, 1.0, 1000).astype(np.complex128)
    stops = _stop_positions(vals, 0.3)
    assert np.array_equal(stops, plain_stop_positions(vals, 0.3))
    assert stops.tolist() == [0, 300, 600, 900]
    # each tail is scanned once at its first size, once at four times it
    # where no stop lies within the first, and never again
    past = symbols._DRIFT_WIDTH + 1
    first, grown = symbols._TAIL_SCAN, 4 * symbols._TAIL_SCAN
    assert first < 300 - past < grown
    want = []
    for pos in (0, 300, 600):
        want += [(pos, pos + past, pos + past + first), (pos, pos + past, min(pos + past + grown, 1000))]
    want.append((900, 900 + past, 1000))
    assert found == want


def test_stop_scan_reuses_a_scanned_tail_at_finer_levels(monkeypatch):
    # the fallback keeps the running drift of each tail it scanned, and a
    # finer level at that position reads its stop there instead of
    # scanning again
    found = []

    def recording(c, pos, start, stop):
        found.append(pos)
        return real(c, pos, start, stop)

    real = symbols._tail_peaks
    monkeypatch.setattr(symbols, "_tail_peaks", recording)
    vals = np.linspace(0.0, 1.0, 1000).astype(np.complex128)
    levels = [s for block in symbols._level_stops(vals, [0.9, 0.6, 0.3]) for s in block]
    want = [plain_stop_positions(vals, eps).tolist() for eps in (0.9, 0.6, 0.3)]
    assert [s.tolist() for s in levels] == want == [[0, 900], [0, 600], [0, 300, 600, 900]]
    # each position's scans come together, at its first fallback: 0 and
    # 900 at 0.9, 600 at 0.6, 300 at 0.3
    assert [pos for pos, _ in itertools.groupby(found)] == [0, 900, 600, 300]


def dome_symbol(grid, lo, hi, coeff):
    """A smooth dome on [lo, hi), as sample_rough_spec builds them."""
    vals = np.zeros(grid.samples, dtype=np.complex128)
    w = hi - lo
    cells = np.arange(lo, hi) - 0.5 * (lo + hi)
    vals[grid.slot(lo) : grid.slot(hi)] = coeff * plateau_profile(cells, 0.25 * w, 0.499 * w)
    return vals


@st.composite
def layer_symbol(draw):
    grid = LAYER_GRID
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_step_symbol(grid, rng, draw(st.integers(1, 16)), draw(st.booleans()))
    vals = np.zeros(grid.samples, dtype=np.complex128)
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(-2048, 2048 - 8))
        hi = draw(st.integers(lo + 8, min(lo + 2048, 2048)))
        vals += dome_symbol(grid, lo, hi, complex(rng.standard_normal(), rng.standard_normal()))
    return vals


@settings(max_examples=60, deadline=None)
@given(layer_symbol(), st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([1e-2, 1e-3]))
def test_layers_reconstruct_the_source(vals, r, tol):
    ls = vr_layer_decompose(Spectrum(LAYER_GRID, vals), r, tol)
    err = np.max(np.abs(ls.reconstruct().values - vals))
    assert err <= 1e-12 * max(ls.source_norm, 1.0)
    # piece-count, coefficient and remainder bounds
    assert_layer_contract(ls, vals)


ZEROS = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]


@st.composite
def layer_source(draw):
    """A full-lattice symbol of long constant runs, random-walk segments
    and cells of signed zeros, some with dome symbols written over it."""
    grid = LAYER_GRID
    n = grid.samples
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    value = st.sampled_from([1.0, -0.5, 0.25j, 1.5 - 2.0j, *ZEROS])
    segment = st.one_of(
        st.tuples(st.just("const"), st.integers(1, 3000), value),
        st.tuples(st.just("walk"), st.integers(1, 300), st.sampled_from([1e-3, 0.05, 1.0])),
        st.tuples(st.just("zeros"), st.integers(1, 40), st.none()),
    )
    parts = []
    for kind, length, arg in draw(st.lists(segment, min_size=1, max_size=8)):
        if kind == "const":
            parts.append(np.full(length, arg, dtype=np.complex128))
        elif kind == "walk":
            steps = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            parts.append(complex(rng.standard_normal()) + arg * np.cumsum(steps))
        else:
            parts.append(np.array(ZEROS)[rng.integers(0, 4, length)])
    parts.append(np.full(n, draw(st.sampled_from(ZEROS))))
    vals = np.concatenate(parts)[:n]
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.integers(-2048, 2048 - 8))
        hi = draw(st.integers(lo + 8, min(lo + 2048, 2048)))
        dome = dome_symbol(grid, lo, hi, complex(rng.standard_normal(), rng.standard_normal()))
        vals = np.where(dome != 0, dome, vals)
    return vals


def coeff_bits(z):
    return np.complex128(z).tobytes()


@settings(max_examples=60, deadline=None)
@given(layer_source(), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.sampled_from([1e-1, 1e-2, 1e-3]))
def test_layers_equal_the_plain_decomposition_bit_for_bit(tmp_path_factory, vals, r, tol):
    ls = vr_layer_decompose(Spectrum(LAYER_GRID, vals), r, tol)
    v, j_max, layers, remainder = plain_layer_decompose(vals, r, tol)
    assert repr(ls.source_norm) == repr(v)
    assert ls.j_max == j_max
    # read from the stored arrays, before any piece is built
    assert ls.piece_counts == tuple(len(layer) for layer in layers)
    got = [[(p.lo, p.hi, coeff_bits(p.coeff)) for p in layer] for layer in ls.layers]
    assert got == [[(lo, hi, coeff_bits(d)) for lo, hi, d in layer] for layer in layers]
    assert ls.remainder.values.tobytes() == remainder.tobytes()
    out = tmp_path_factory.mktemp("layers")
    layered_to_csv(ls, out / "got.csv")
    rows = ((j, lo, hi, d.real, d.imag) for j, layer in enumerate(layers) for lo, hi, d in layer)
    write_csv(out / "want.csv", "j,interval_lo,interval_hi,re_d,im_d", rows)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
    # the layers tabulate, signed zeros included, as a piece-by-piece
    # scatter into zeros does
    for j, layer in enumerate(ls.layers):
        want = np.zeros(LAYER_GRID.samples, dtype=np.complex128)
        for p in layer:
            want[LAYER_GRID.slot(p.lo) : LAYER_GRID.slot(p.hi)] += p.coeff
        assert ls.layer_values(j).tobytes() == want.tobytes()


@settings(max_examples=10, deadline=None)
@given(
    layer_source(),
    st.sampled_from([2.0, 3.0]),
    st.sampled_from([1e-10, 1e-14]),
    st.sampled_from([1, 2**10, 2**15]),
)
def test_layers_equal_the_plain_decomposition_over_many_levels(vals, r, tol, pass_cells):
    # 67 to 140 levels in passes of pass_cells // nc levels (at least
    # one), each pass's first layer taken against the last level of the
    # pass before
    with mock.patch.object(symbols, "_PASS_CELLS", pass_cells):
        ls = vr_layer_decompose(Spectrum(LAYER_GRID, vals), r, tol)
    v, j_max, layers, remainder = plain_layer_decompose(vals, r, tol)
    assert (repr(ls.source_norm), ls.j_max) == (repr(v), j_max)
    got = [[(p.lo, p.hi, coeff_bits(p.coeff)) for p in layer] for layer in ls.layers]
    assert got == [[(lo, hi, coeff_bits(d)) for lo, hi, d in layer] for layer in layers]
    assert ls.remainder.values.tobytes() == remainder.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    layer_source(),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.sampled_from(["homogeneous", "nonhomogeneous"]),
)
def test_variation_of_the_run_starts_equals_that_of_the_lattice(vals, r, mode):
    # the layers take v from the first cell of each run; the lattice's
    # duplicates reduce away to the same sequence, signed zeros included
    starts = vals[symbols._run_starts(vals)]
    assert variation_norm(starts, r, mode).hex() == variation_norm(vals, r, mode).hex()


DRIFTS = [0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 1.0 + 2**-52, 3.0]


@st.composite
def drift_table_and_thresholds(draw):
    """A table of drifts drawn from a few values, each column padded at
    its end with NaN or zeros, and thresholds drawn from the same values,
    so that ties and repeats occur, in any order."""
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.choice(DRIFTS, size=(rows, cols))
    pad = draw(st.sampled_from([np.nan, 0.0]))
    for p, keep in enumerate(rng.integers(0, rows + 1, cols)):
        table[keep:, p] = pad
    thresholds = draw(st.lists(st.sampled_from(DRIFTS), min_size=1, max_size=12))
    return table, thresholds


@settings(max_examples=200, deadline=None)
@given(drift_table_and_thresholds())
def test_all_level_pointers_equal_a_scan_per_level(case):
    table, thresholds = case
    got = symbols._first_over(table, thresholds)
    assert got.shape == (len(thresholds), table.shape[1])
    for i, eps in enumerate(thresholds):
        for p in range(table.shape[1]):
            # NaN > eps is False, so a NaN is never over
            over = np.flatnonzero(table[:, p] > eps)
            assert got[i, p] == (over[0] if over.size else -1)


def test_layered_rvar_m_builds_no_layer_piece(monkeypatch):
    grid = TorusGrid(period=16, samples=2**12)
    rng = np.random.default_rng(5)
    spec = sample_rough_spec(grid, 4, rng, with_symbols=True)
    f = Signal(grid, rng.standard_normal(grid.samples) + 1j * rng.standard_normal(grid.samples))
    built = []
    real = symbols.LayerPiece
    monkeypatch.setattr(symbols, "LayerPiece", lambda *args: built.append(args) or real(*args))
    rvar_M(f, spec, "layered")
    assert built == []
    # the pieces are built on the first read of the layers, and only then
    ls = vr_layer_decompose(Spectrum(grid, spec.symbols[0]), spec.r)
    assert built == []
    assert sum(map(len, ls.layers)) == sum(ls.piece_counts) == len(built) > 0


def test_layers_validation(layer_grid):
    g = Spectrum(layer_grid, np.zeros(layer_grid.samples, dtype=np.complex128))
    for r in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            vr_layer_decompose(g, r)
    with pytest.raises(ValueError):
        vr_layer_decompose(g, 2.0, tol=0.0)
    with pytest.raises(ValueError):
        vr_layer_decompose(g, 2.0, tol=1.0)
    # a symbol whose r-variation is not finite has no layers
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        vals = np.zeros(layer_grid.samples, dtype=np.complex128)
        vals[100:110] = 1.0
        vals[105] = bad
        with pytest.raises(ValueError, match="finite"):
            vr_layer_decompose(Spectrum(layer_grid, vals), 2.0)
    huge = np.zeros(layer_grid.samples, dtype=np.complex128)
    huge[100], huge[200] = 1.5e308, -1.5e308
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        vr_layer_decompose(Spectrum(layer_grid, huge), 2.0)


def test_layered_csv(layer_grid, tmp_path):
    rng = np.random.default_rng(99)
    vals = random_step_symbol(layer_grid, rng, 5)
    ls = vr_layer_decompose(Spectrum(layer_grid, vals), 2.0)
    path = tmp_path / "layers.csv"
    layered_to_csv(ls, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "interval_lo", "interval_hi", "re_d", "im_d"]
    total = sum(len(layer) for layer in ls.layers)
    assert len(rows) == total + 1
    levels = [int(r[0]) for r in rows[1:]]
    assert levels == sorted(levels)
    first = rows[1]
    piece = next(layer[0] for layer in ls.layers if layer)
    assert int(first[1]) == piece.lo and int(first[2]) == piece.hi
    assert float(first[3]) == piece.coeff.real


# ---------------------------------------------------------------------------
# Whitney skeletons

def test_whitney_full_band_2_14():
    grid = TorusGrid(period=8, samples=2**14)
    system = whitney_decompose(grid, -(2**13), 2**13, min_cells=1)
    whitney_property_scan(system)
    sizes = [p.cells for p in system.pieces]
    assert max(sizes) == 128  # central pieces reach 2^7 and no further
    assert len(system.pieces) == 828
    assert system.overlap_count == 25
    assert system.overlap_count == overlap_oracle(system)
    assert system.per_scale_max == 200
    flagged_cells = sum(p.cells for p in system.pieces if p.flagged)
    assert flagged_cells == 100
    assert flagged_cells / (system.omega_hi - system.omega_lo) < 0.01


def test_whitney_interior_interval(default_grid):
    system = whitney_decompose(default_grid, -8192, 8192, min_cells=1)
    whitney_property_scan(system)
    assert max(p.cells for p in system.pieces) == 128
    assert system.overlap_count == overlap_oracle(system)


def test_whitney_min_cells_4(default_grid):
    system = whitney_decompose(default_grid, 0, 8192, min_cells=4)
    whitney_property_scan(system)
    assert any(p.flagged for p in system.pieces)
    assert all(p.cells == 4 for p in system.pieces if p.flagged)


def test_whitney_corpus_overlap_constant(default_grid):
    # fifty deterministic intervals; the dilation overlap is measured,
    # not assumed, and comes out the same on every one of them
    rng = np.random.default_rng(777)
    m_samp = default_grid.samples
    seen = set()
    for _ in range(50):
        width = int(rng.choice([4096, 8192, 16384]))
        lo = int(rng.integers(-m_samp // 2, m_samp // 2 - width + 1))
        system = whitney_decompose(default_grid, lo, lo + width, min_cells=1)
        assert system.overlap_count == overlap_oracle(system)
        seen.add(system.overlap_count)
        assert system.per_scale_max <= 200
    assert seen == {25}


def test_whitney_validation(default_grid):
    with pytest.raises(ResolutionError):
        whitney_decompose(default_grid, 0, 2**11)
    with pytest.raises(ConstructionError):
        whitney_decompose(default_grid, 0, 8192, min_cells=3)
    with pytest.raises(ConstructionError):
        whitney_decompose(default_grid, 0, 8192, min_cells=2**14)
    with pytest.raises(ValueError):
        whitney_decompose(default_grid, -90000, 8192)


def test_whitney_refuses_bounds_that_are_not_integers(default_grid):
    # a one-cell node straddling -8192.5 split into itself forever
    for lo, hi in [(-8192.5, 8192), (-8192, 8192.0), (np.float64(-8192.0), 8192)]:
        with pytest.raises(ValueError, match="must be an integer"):
            whitney_decompose(default_grid, lo, hi)
    with pytest.raises(ValueError, match="must be an integer"):
        whitney_decompose(default_grid, -8192, 8192, min_cells=4.0)
    numpy_ints = whitney_decompose(default_grid, np.int64(-8192), np.int32(8192))
    assert numpy_ints.pieces == whitney_decompose(default_grid, -8192, 8192).pieces


def test_whitney_csv(default_grid, tmp_path):
    system = whitney_decompose(default_grid, 0, 4096)
    path = tmp_path / "whitney.csv"
    whitney_to_csv(system, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "piece_lo",
        "piece_hi",
        "cells",
        "flagged",
        "overlap_count",
        "per_scale_max",
    ]
    assert len(rows) == len(system.pieces) + 1
    assert int(rows[1][0]) == system.pieces[0].lo
    assert all(int(r[4]) == system.overlap_count for r in rows[1:])


# ---------------------------------------------------------------------------
# window systems

@pytest.fixture(scope="module")
def big_window_system():
    grid = TorusGrid()
    skeleton = whitney_decompose(grid, -8192, 8192, min_cells=1)
    return window_system(skeleton)


def test_partition_of_unity_exact(big_window_system):
    ws = big_window_system
    total = ws.sum_phi()
    assert np.array_equal(total, ws.skeleton.indicator())


def test_partition_members_bounded_and_supported(big_window_system):
    ws = big_window_system
    for w in ws.windows:
        vals = w.phi_values
        assert vals.min() >= -1e-13
        assert vals.max() <= 1.0 + 1e-13
        nz = np.flatnonzero(vals != 0)
        assert nz.size > 0
        assert w.phi_lo + nz[0] > w.envelope[0]
        assert w.phi_lo + nz[-1] < w.envelope[1]
        # envelope is the 4-fold concentric dilation
        assert w.envelope == (w.piece.lo - 1.5 * w.piece.cells, w.piece.hi + 1.5 * w.piece.cells)


def test_partition_covers_own_piece(big_window_system):
    # each member is 1 somewhere on big pieces and the family restricted
    # to any piece sums to 1 there
    ws = big_window_system
    grid = ws.grid
    half = grid.samples // 2
    total = ws.sum_phi()
    for w in ws.windows:
        a = w.piece.lo + half
        b = w.piece.hi + half
        assert np.all(total[a:b] == 1.0)


def test_plateau_windows(big_window_system):
    ws = big_window_system
    half = ws.grid.samples // 2
    for w in ws.windows[::7]:
        n = w.piece.cells
        c = 0.5 * (w.piece.lo + w.piece.hi)
        cells = np.arange(w.window_lo, w.window_lo + w.window_values.shape[0])
        inside = np.abs(cells - c) <= 5.0 * n
        assert np.all(w.window_values[inside] == 1.0)
        nz = np.flatnonzero(w.window_values != 0)
        assert np.all(np.abs(cells[nz] - c) < 7.5 * n)


def test_window_curvature_constants(big_window_system):
    ws = big_window_system
    assert ws.curvature_max <= 500.0
    assert ws.curvature_max == pytest.approx(279.5519213936641, abs=1e-6)
    assert ws.slope_max > 0
    half = ws.grid.samples // 2
    m_samp = ws.grid.samples
    for w in ws.windows[::11]:
        emb = np.zeros(m_samp)
        lo = w.phi_lo + half
        emb[lo : lo + w.phi_values.shape[0]] = w.phi_values
        d2 = np.max(np.abs(np.diff(emb, n=2)))
        envelope_cells = 4.0 * w.piece.cells
        assert w.curvature == pytest.approx(d2 * envelope_cells**2, rel=1e-12)


def test_window_curvature_corpus(default_grid):
    rng = np.random.default_rng(777)
    m_samp = default_grid.samples
    worst = 0.0
    for _ in range(6):
        width = int(rng.choice([4096, 8192]))
        lo = int(rng.integers(-m_samp // 2, m_samp // 2 - width + 1))
        ws = window_system(whitney_decompose(default_grid, lo, lo + width))
        assert np.array_equal(ws.sum_phi(), ws.skeleton.indicator())
        worst = max(worst, ws.curvature_max)
    assert worst <= 500.0


WHITNEY_GRID = TorusGrid(period=8, samples=2**13)


@st.composite
def whitney_interval(draw):
    # every interval of at least 4096 cells, the least whitney_decompose takes
    half = WHITNEY_GRID.samples // 2
    lo = draw(st.integers(-half, half - 4096))
    return lo, draw(st.integers(lo + 4096, half))


@settings(max_examples=25, deadline=None)
@given(whitney_interval())
def test_partition_of_unity_exact_on_any_interval(bounds):
    ws = window_system(whitney_decompose(WHITNEY_GRID, *bounds))
    assert np.array_equal(ws.sum_phi(), ws.skeleton.indicator())


def per_piece_window_system(skeleton):
    """``window_system`` as first written: every piece evaluates its own
    phi, slope, curvature and plateau window.  Returns one (phi_lo,
    window_lo, envelope, slope, curvature, phi bytes, window bytes) tuple
    per piece, then slope_max and curvature_max."""
    grid = skeleton.grid
    m_samp = grid.samples
    half = m_samp // 2
    pieces = skeleton.pieces
    last = len(pieces) - 1
    a0 = skeleton.omega_lo + half
    b0 = skeleton.omega_hi + half
    widths = [0.0, *(0.75 * min(p.cells, q.cells) for p, q in zip(pieces, pieces[1:])), 0.0]
    members = []
    slope_max = 0.0
    curvature_max = 0.0
    for i, piece in enumerate(pieces):
        n = piece.cells
        p_lo = piece.lo + half
        p_hi = piece.hi + half
        w_left = widths[i]
        w_right = widths[i + 1]
        lo = a0 if i == 0 else max(int(math.floor(p_lo - w_left)), a0)
        hi = b0 if i == last else min(int(math.ceil(p_hi + w_right)) + 1, b0)
        cells = np.arange(lo, hi, dtype=np.float64)
        if i == 0:
            left = np.ones_like(cells)
        else:
            left = smoothstep((cells - (p_lo - w_left)) / (2.0 * w_left))
        if i == last:
            right = np.zeros_like(cells)
        else:
            right = smoothstep((cells - (p_hi - w_right)) / (2.0 * w_right))
        phi = left - right

        padded = np.concatenate(([0.0], phi, [0.0]))
        d1 = padded[1:] - padded[:-1]
        d2 = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
        slope = float(np.max(np.abs(d1)) * 4.0 * n)
        curvature = float(np.max(np.abs(d2)) * 16.0 * n * n)
        slope_max = max(slope_max, slope)
        curvature_max = max(curvature_max, curvature)

        center = 0.5 * (p_lo + p_hi)
        w_lo = max(int(math.ceil(center - 7.5 * n)), 0)
        w_hi = min(int(math.floor(center + 7.5 * n)) + 1, m_samp)
        w_cells = np.arange(w_lo, w_hi, dtype=np.float64)
        w_vals = plateau_profile(w_cells - center, 5.0 * n, 7.5 * n)

        envelope = (piece.lo - 1.5 * n, piece.hi + 1.5 * n)
        members.append(
            (lo - half, w_lo - half, envelope, slope, curvature, phi.tobytes(), w_vals.tobytes())
        )
    return members, slope_max, curvature_max


@st.composite
def window_case(draw):
    # an interval that may touch either band edge, where the plateau
    # windows are clipped, and pieces down to 1 or 2 cells, whose ramps
    # are 0.75 and 1.5 cells wide
    half = WHITNEY_GRID.samples // 2
    lo, hi = draw(whitney_interval())
    edge = draw(st.sampled_from(["none", "left", "right", "both"]))
    if edge in ("left", "both"):
        lo = -half
    if edge in ("right", "both"):
        hi = half
    return lo, hi, draw(st.sampled_from([1, 2]))


@settings(max_examples=25, deadline=None)
@given(window_case())
@example((-(2**12), 2**12, 1))
@example((0, 2**12, 2))
def test_window_system_equals_a_per_piece_evaluation(case):
    lo, hi, min_cells = case
    skeleton = whitney_decompose(WHITNEY_GRID, lo, hi, min_cells)
    ws = window_system(skeleton)
    members, slope_max, curvature_max = per_piece_window_system(skeleton)
    got = [
        (
            w.phi_lo,
            w.window_lo,
            w.envelope,
            w.slope,
            w.curvature,
            w.phi_values.tobytes(),
            w.window_values.tobytes(),
        )
        for w in ws.windows
    ]
    assert got == members
    assert (repr(ws.slope_max), repr(ws.curvature_max)) == (repr(slope_max), repr(curvature_max))
    # members of one shape share its arrays, so none of them can be written
    for w in ws.windows:
        for values in (w.phi_values, w.window_values):
            with pytest.raises(ValueError):
                values[0] = 0.5


def test_window_system_evaluates_each_shape_once(monkeypatch):
    # the 828 pieces of the full default band have 25 phi shapes and 8
    # plateau shapes (56 smoothstep calls); one call per piece and ramp
    # would be 2482
    skeleton = whitney_decompose(TorusGrid(), -8192, 8192)
    calls = []

    def counted(t):
        calls.append(t)
        return smoothstep(t)

    monkeypatch.setattr(symbols, "smoothstep", counted)
    monkeypatch.setattr(bumps, "smoothstep", counted)
    ws = window_system(skeleton)
    assert len(ws.windows) == len(skeleton.pieces)
    assert len(calls) <= 64


# where the ramps at breakpoints i and i + 1 meet, ramp i reads at least
# S_MEET and ramp i + 1 at most T_MEET
S_MEET = float(smoothstep(2.0 / 3.0))
T_MEET = float(smoothstep(1.0 / 3.0))


@settings(max_examples=2000, deadline=None)
@given(st.floats(S_MEET, 1.0), st.floats(0.0, T_MEET, allow_subnormal=True))
@example(S_MEET, T_MEET)
@example(1.0 - 2.0**-53, 2.0**-1074)
def test_three_members_sum_to_one(s, t):
    # a cell in two ramps adds 1 - s, s - t and t, in piece order from 0.0
    assert ((0.0 + (1.0 - s)) + (s - t)) + t == 1.0


@settings(max_examples=2000, deadline=None)
@given(st.floats(0.0, 1.0, allow_subnormal=True))
@example(2.0**-1074)
@example(0.5 - 2.0**-54)
def test_two_members_sum_to_one(s):
    # a cell in one ramp adds 1 - s and s
    assert (0.0 + (1.0 - s)) + s == 1.0


def test_mollifier_diagnostics(big_window_system):
    ws = big_window_system
    assert len(ws.mollifier_diags) == len(ws.skeleton.scale_counts)
    for diag in ws.mollifier_diags:
        assert diag.mollifier_cells == pytest.approx(0.008 * diag.piece_cells)
        assert diag.degenerate  # every scale here is far below 1000 cells


# ---------------------------------------------------------------------------
# windowed expansion

def band_limited_signal(grid, rng, omega, pad=40):
    half = grid.samples // 2
    lo_i, hi_i = omega.index_range()
    spec = np.zeros(grid.samples, dtype=np.complex128)
    span = np.arange(lo_i - pad, hi_i + pad) + half
    spec[span] = rng.standard_normal(span.size) + 1j * rng.standard_normal(span.size)
    return inverse_transform(Spectrum(grid, spec))


def test_windowed_identity_across_scales(default_grid):
    rng = np.random.default_rng(31)
    for k in [0, 1, 3, 5, 7]:
        omega = DyadicFreqInterval(default_grid, k, 3)
        f = band_limited_signal(default_grid, rng, omega)
        we = windowed_expand(f, omega)
        assert we.rel_error <= 1e-8
        assert we.shift_count == 4 * default_grid.period // 2**k
        diff = (we.reconstruction - we.target).norm2()
        assert diff <= 1e-8 * f.norm2()


def test_windowed_identity_20_signals(default_grid):
    rng = np.random.default_rng(414)
    for trial in range(20):
        k = int(rng.integers(0, 8))
        m = int(rng.integers(-100, 100))
        omega = DyadicFreqInterval(default_grid, k, m)
        f = band_limited_signal(default_grid, rng, omega)
        we = windowed_expand(f, omega)
        assert we.rel_error <= 1e-8


EXPAND_GRID = TorusGrid(period=16, samples=1024)


@st.composite
def expand_interval(draw):
    # every scale whose translate spacing is a whole number of cells
    grid = EXPAND_GRID
    k = draw(st.integers(-4, grid.finest_scale))
    count = grid.samples // 2 // grid.tile_cells(k)
    return DyadicFreqInterval(grid, k, draw(st.integers(-count, count - 1)))


@settings(max_examples=60, deadline=None)
@given(expand_interval(), st.integers(0, 2**32 - 1))
def test_windowed_identity_on_any_interval(omega, seed):
    rng = np.random.default_rng(seed)
    m = EXPAND_GRID.samples
    f = Signal(EXPAND_GRID, rng.standard_normal(m) + 1j * rng.standard_normal(m))
    assert windowed_expand(f, omega).rel_error <= 1e-10


@settings(max_examples=20, deadline=None)
@given(expand_interval(), st.integers(0, 2**32 - 1))
def test_windowed_reconstruction_has_the_bytes_of_the_transform_pair(omega, seed):
    # the comb of kept coefficients, its spectrum times the synthesis
    # window, transformed back, scaled and modulated
    grid = EXPAND_GRID
    rng = np.random.default_rng(seed)
    m = grid.samples
    f = Signal(grid, rng.standard_normal(m) + 1j * rng.standard_normal(m))
    we = windowed_expand(f, omega, l_trunc=int(rng.integers(0, 4)))
    synth, _ = symbols._synthesis_window(grid, 2.0**omega.k)
    phase = np.exp(2j * np.pi * (we.xi_rep_index / grid.period) * grid.positions())
    truncated = np.where(np.abs(we.l_offsets) <= we.l_trunc, we.coefficients, 0.0)
    for got, kept in ((we.reconstruction, we.coefficients), (we.trunc_reconstruction, truncated)):
        comb = np.zeros(m, dtype=np.complex128)
        comb[(we.l_offsets * we.shift_cells) % m] = kept
        comb_hat = forward_transform(Signal(grid, comb)).values
        conv = inverse_transform(Spectrum(grid, comb_hat * synth)).values
        assert got.values.tobytes() == (we.shift_cells * conv * phase).tobytes()


def test_windowed_coefficients_match_pairing(default_grid):
    rng = np.random.default_rng(5150)
    omega = DyadicFreqInterval(default_grid, 2, 5)
    f = band_limited_signal(default_grid, rng, omega)
    we = windowed_expand(f, omega)
    scale = f.norm2()
    for pos in [0, 1, we.shift_count // 2, we.shift_count - 1]:
        l = int(we.l_offsets[pos])
        expected = pairing_oracle(f, omega, l, we.shift_cells)
        assert abs(we.coefficients[pos] - expected) <= 1e-10 * max(scale, 1.0)


def test_windowed_respects_representative(default_grid):
    rng = np.random.default_rng(88)
    lo_i, _ = DyadicFreqInterval(default_grid, 3, 4).index_range()
    omega = DyadicFreqInterval(default_grid, 3, 4, xi_rep_index=lo_i + 7)
    f = band_limited_signal(default_grid, rng, omega)
    we = windowed_expand(f, omega)
    assert we.xi_rep_index == lo_i + 7
    assert we.rel_error <= 1e-8


def test_windowed_disjoint_spectrum(default_grid):
    half = default_grid.samples // 2
    spec = np.zeros(default_grid.samples, dtype=np.complex128)
    spec[half + 4000 : half + 4100] = 1.0
    f = inverse_transform(Spectrum(default_grid, spec))
    omega = DyadicFreqInterval(default_grid, 2, 10)
    we = windowed_expand(f, omega)
    scale = f.norm2()
    assert we.target.norm2() <= 1e-12 * scale
    assert we.reconstruction.norm2() <= 1e-12 * scale
    assert (we.reconstruction - we.target).norm2() <= 1e-12 * scale


def test_windowed_truncation_monotone(default_grid):
    rng = np.random.default_rng(246)
    omega = DyadicFreqInterval(default_grid, 2, 3)
    x = default_grid.positions()
    dist = np.minimum(x, default_grid.period - x)
    xi_c = omega.lo
    levels = [0, 1, 2, 4, 8, 16, 32]
    for trial in range(10):
        width = float(rng.uniform(1.0, 4.0))
        env = plateau_profile(dist, width, 2.0 * width)
        f = Signal(default_grid, env * np.exp(2j * np.pi * xi_c * x))
        errors = []
        for lt in levels:
            we = windowed_expand(f, omega, l_trunc=lt)
            errors.append(we.trunc_error)
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-9
    full = windowed_expand(f, omega, l_trunc=we.shift_count // 2)
    assert full.trunc_error == 0.0


def test_windowed_validation(default_grid):
    other = TorusGrid(period=8, samples=64)
    omega = DyadicFreqInterval(default_grid, 2, 3)
    f = Signal(other, np.zeros(64, dtype=np.complex128))
    with pytest.raises(GridMismatchError):
        windowed_expand(f, omega)
    coarse = TorusGrid(period=8, samples=32)
    wide = DyadicFreqInterval(coarse, -1, 0)
    g = Signal(coarse, np.ones(32, dtype=np.complex128))
    with pytest.raises(ResolutionError):
        windowed_expand(g, wide)
    h = Signal(default_grid, np.ones(default_grid.samples, dtype=np.complex128))
    with pytest.raises(ValueError):
        windowed_expand(h, omega, l_trunc=-1)


def test_windowed_mollifier_resolution(default_grid):
    rng = np.random.default_rng(12)
    fine = windowed_expand(
        band_limited_signal(default_grid, rng, DyadicFreqInterval(default_grid, 0, 1)),
        DyadicFreqInterval(default_grid, 0, 1),
    )
    coarse = windowed_expand(
        band_limited_signal(default_grid, rng, DyadicFreqInterval(default_grid, 4, 1)),
        DyadicFreqInterval(default_grid, 4, 1),
    )
    assert not fine.mollifier_degenerate
    assert coarse.mollifier_degenerate
