"""Variation norms, enclosing balls, and entropy functionals.

Oracles used here, all implemented locally and independently of the
library internals:

* exhaustive maximum over all increasing subsequences (variation),
* a plain quadratic DP over all predecessors (variation, long inputs),
* enumeration of circumball candidates over all point subsets (balls),
* enumeration of all set partitions (exact covering numbers, n <= 5),
* midpoint Riemann sums on 1e5 nodes (entropy integrals),
* dense level grids with left-limit refinement (entropy suprema).
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multifreq import (
    EntropyProfile,
    TorusGrid,
    entropy_count,
    entropy_integral,
    entropy_profile,
    lambda_entropy_sup,
    min_enclosing_ball,
    profile_to_csv,
    symbol_vr_norm,
    variation_norm,
)
from multifreq.experiments import sample_rough_spec
from multifreq.fluctuation import _subset_ball_radii, variation_dp

# --------------------------------------------------------------------------
# local oracles

_COMBO_CACHE = {}


def _combos(n, m):
    key = (n, m)
    if key not in _COMBO_CACHE:
        _COMBO_CACHE[key] = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
    return _COMBO_CACHE[key]


def exhaustive_variation(seq, q, mode="homogeneous"):
    """Brute force; nonhomogeneous is the sum hom + sup, as in variation_norm."""
    pts = np.asarray(seq)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    best = 0.0
    for m in range(2, n + 1):
        idx = _combos(n, m)
        sub = pts[idx]  # (n_combos, m, d)
        steps = np.sqrt(np.sum(np.abs(np.diff(sub, axis=1)) ** 2, axis=2))
        best = max(best, float(np.max(np.sum(steps ** q, axis=1))))
    hom = best ** (1.0 / q)
    if mode == "homogeneous":
        return hom
    return hom + float(np.max(np.sqrt(np.sum(np.abs(pts) ** 2, axis=1))))


def reference_dp(seq, q, mode="homogeneous"):
    """Quadratic DP over every predecessor, with no reduction of the input."""
    pts = to_real(seq)
    best = [0.0]
    for i in range(1, len(pts)):
        best.append(max(b + np.linalg.norm(pts[i] - p) ** q for b, p in zip(best, pts)))
    hom = max(best) ** (1.0 / q)
    if mode == "homogeneous":
        return hom
    return hom + float(np.max(np.linalg.norm(pts, axis=1)))


def to_real(points):
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts[:, None]
    if np.iscomplexobj(pts):
        pts = np.concatenate([pts.real, pts.imag], axis=1)
    return pts.astype(float)


def ball_oracle(points):
    """Smallest enclosing ball radius by full circumball-candidate search."""
    pts = to_real(points)
    n = len(pts)
    best = np.inf
    for m in range(1, n + 1):
        for members in itertools.combinations(range(n), m):
            sub = pts[list(members)]
            p0 = sub[0]
            if m == 1:
                center = p0
            else:
                v = sub[1:] - p0
                w, *_ = np.linalg.lstsq(2.0 * v @ v.T, np.sum(v * v, axis=1), rcond=None)
                center = p0 + w @ v
            r = np.max(np.sqrt(np.sum((pts - center) ** 2, axis=1)))
            best = min(best, r)
    return float(best)


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def cover_oracle(points, lam):
    """Minimum number of radius-lam balls by set-partition enumeration."""
    pts = to_real(points)
    best = len(pts)
    for part in _partitions(list(range(len(pts)))):
        if len(part) >= best:
            continue
        if all(ball_oracle(pts[block]) <= lam * (1 + 1e-12) + 1e-15 for block in part):
            best = len(part)
    return best


def local_insertion_radii(points):
    pts = to_real(points)
    radii = []
    chosen = [0]
    dist = np.sqrt(np.sum((pts - pts[0]) ** 2, axis=1))
    for _ in range(len(pts) - 1):
        nxt = int(np.argmax(dist))
        radii.append(float(dist[nxt]))
        chosen.append(nxt)
        dist = np.minimum(dist, np.sqrt(np.sum((pts - pts[nxt]) ** 2, axis=1)))
    return np.array(radii)


def local_counts(points, levels):
    radii = np.sort(local_insertion_radii(points))
    n = len(radii)
    return 1 + (n - np.searchsorted(radii, levels, side="right"))


# --------------------------------------------------------------------------
# variation norm


def test_constant_sequence():
    assert variation_norm([2 - 1j, 2 - 1j, 2 - 1j], 3, mode="nonhomogeneous") == pytest.approx(
        np.sqrt(5)
    )
    assert variation_norm([5.0, 5.0], 3, mode="homogeneous") == 0.0


def test_alternating_sequence_total_variation():
    assert variation_norm([0, 1, 0, 1, 0], 1, mode="homogeneous") == pytest.approx(4.0)


def test_single_point_variation():
    assert variation_norm([3.0], 4, mode="homogeneous") == 0.0
    assert variation_norm([3.0], 4, mode="nonhomogeneous") == 3.0


def test_dp_matches_exhaustive_scalar(rng):
    for _ in range(60):
        n = int(rng.integers(2, 9))
        seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for q in (1.0, 2.5, 4.0):
            for mode in ("homogeneous", "nonhomogeneous"):
                got = variation_norm(seq, q, mode=mode)
                want = exhaustive_variation(seq, q, mode=mode)
                assert got == pytest.approx(want, abs=1e-12)


def test_dp_matches_exhaustive_vector(rng):
    for _ in range(30):
        n = int(rng.integers(2, 8))
        seq = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        got = variation_norm(seq, 2.5)
        assert got == pytest.approx(exhaustive_variation(seq, 2.5), abs=1e-12)


def test_variation_nonincreasing_in_q(rng):
    qs = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0]
    for _ in range(40):
        seq = rng.standard_normal(int(rng.integers(2, 10)))
        vals = [variation_norm(seq, q) for q in qs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_variation_input_validation():
    with pytest.raises(ValueError):
        variation_norm([], 2)
    for q in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            variation_norm([1.0, 2.0], q)
    with pytest.raises(ValueError):
        variation_norm([1.0, 2.0], 2, mode="mixed")


# plateaus are zero steps, ties are returns to an earlier level, and
# monotone runs are steps of one sign; scales stay clear of under- and
# overflow in the q-th powers of both DPs
_walks = st.builds(
    lambda steps, scale: scale * np.cumsum(steps, dtype=np.float64),
    st.lists(st.integers(-3, 3), min_size=1, max_size=40),
    st.sampled_from([1.0, 0.37, 1e-100, 1e100]),
)


@settings(max_examples=200, deadline=None)
@given(
    _walks,
    st.sampled_from(["real", "zero-imag", "constant-real"]),
    st.sampled_from([1.0, 2.0, 2.5, 3.0]),
)
def test_turning_point_reduction_matches_quadratic_dp(x, kind, q):
    seq = {"real": x, "zero-imag": x + 0j, "constant-real": -1.5 + 1j * x}[kind]
    for mode in ("homogeneous", "nonhomogeneous"):
        got = variation_norm(seq, q, mode=mode)
        want = reference_dp(seq, q, mode=mode)
        assert abs(got - want) <= 1e-12 * abs(want)


# small integer values give repeats, plateaus and purely real columns
_columns = arrays(
    np.int64,
    st.tuples(st.integers(1, 12), st.integers(1, 5), st.just(2)),
    elements=st.integers(-2, 2),
)


@settings(max_examples=100, deadline=None)
@given(_columns, st.booleans(), st.sampled_from([1.0, 2.5, 4.0]))
def test_batched_kernel_matches_variation_norm_per_column(vals, complex_valued, q):
    cols = vals[..., 0] + 1j * vals[..., 1] if complex_valued else vals[..., 0].astype(float)
    got = variation_dp(np.stack((cols.real, cols.imag), axis=1), q)
    for c in range(cols.shape[1]):
        want = variation_norm(cols[:, c], q)
        assert abs(got[c] - want) <= 1e-12 * want


def plain_variation_dp(pts, q):
    """variation_dp as one fresh set of temporaries per DP step: the
    reference its buffered kernel must match bit for bit."""
    cols = pts.reshape(len(pts), pts.shape[1], -1)
    best = np.zeros((len(pts), cols.shape[2]))
    for b in range(0, cols.shape[2], 2048):
        blk, acc = cols[..., b : b + 2048], best[:, b : b + 2048]
        for i in range(1, len(pts)):
            d = blk[:i] - blk[i]
            acc[i] = np.max(acc[:i] + np.sum(d * d, axis=1) ** (0.5 * q), axis=0)
    return (np.max(best, axis=0) ** (1.0 / q)).reshape(pts.shape[2:])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(1, 5000),
    st.floats(2.0, 6.0, exclude_min=True),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["rows", "coordinates-innermost", "one-column"]),
)
def test_buffered_kernel_equals_the_plain_loop_bit_for_bit(n, dim, m, q, seed, layout):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim, m)) * 10.0 ** rng.integers(-3, 4, size=(n, dim, m))
    if layout == "coordinates-innermost":  # as vq_dk views its complex stack
        pts = np.ascontiguousarray(pts.transpose(0, 2, 1)).transpose(0, 2, 1)
    elif layout == "one-column":
        pts = pts[..., 0]
    assert variation_dp(pts, q).tobytes() == plain_variation_dp(pts, q).tobytes()


def test_long_noncollinear_sequence_still_rejected():
    seq = np.exp(2j * np.pi * np.arange(8193) / 8193)
    with pytest.raises(ValueError):
        variation_norm(seq, 2.0)


def test_variation_memory_is_linear():
    rng = np.random.default_rng(3)
    seq = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    tracemalloc.start()
    try:
        variation_norm(seq, 2.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# --------------------------------------------------------------------------
# smallest enclosing balls


def test_ball_known_cases():
    _, r = min_enclosing_ball([0.0, 1j])
    assert r == pytest.approx(0.5)
    c, r = min_enclosing_ball(np.arange(10.0))
    assert r == pytest.approx(4.5)
    assert c[0] == pytest.approx(4.5)
    tri = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    _, r = min_enclosing_ball(tri)
    assert r == pytest.approx(1 / np.sqrt(3))
    _, r = min_enclosing_ball([7.0])
    assert r == 0.0
    _, r = min_enclosing_ball([2.0, 2.0, 2.0])
    assert r == 0.0


def test_ball_matches_candidate_enumeration(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        pts = rng.standard_normal((n, d))
        _, r = min_enclosing_ball(pts)
        want = ball_oracle(pts)
        assert r == pytest.approx(want, rel=1e-9, abs=1e-12)
        diam = max(
            np.linalg.norm(a - b) for a, b in itertools.combinations(pts, 2)
        )
        assert diam / 2 - 1e-12 <= r <= diam + 1e-12


def test_ball_center_encloses_everything(rng):
    for _ in range(20):
        pts = rng.standard_normal((12, 3))
        c, r = min_enclosing_ball(pts)
        dist = np.sqrt(np.sum((pts - c) ** 2, axis=1))
        assert np.max(dist) <= r * (1 + 1e-9)


def test_ball_of_many_points_does_not_recurse_per_point():
    # the recursive form raised RecursionError from about 1000 points on
    pts = np.random.default_rng(5).standard_normal((2000, 3))
    c, r = min_enclosing_ball(pts)
    dist = np.sqrt(np.sum((pts - c) ** 2, axis=1))
    assert np.max(dist) <= r * (1 + 1e-12)
    assert entropy_integral(pts, 4, 3.0) > 0.0


# small integer coordinates give repeats, collinear and cocircular sets;
# the reference is the library's exhaustive subset search behind
# entropy_count(method="exact")
_point_sets = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(1, 3)),
    elements=st.integers(-4, 4).map(float),
)


@settings(max_examples=30, deadline=None)
@given(_point_sets)
def test_ball_radius_matches_subset_enumeration(pts):
    _, r = min_enclosing_ball(pts)
    want = _subset_ball_radii(pts)[-1]
    assert abs(r - want) <= 1e-9 * want


# --------------------------------------------------------------------------
# covering numbers


def test_entropy_count_three_spaced_points():
    pts = [0.0, 3.0, 6.0]
    assert entropy_count(pts, 1.0, method="exact") == 3
    assert entropy_count(pts, 3.0, method="exact") == 1
    assert entropy_count(pts, 1.0, method="greedy") == 3
    assert entropy_count(pts, 1.5, method="exact") == 2


def test_entropy_count_validation():
    with pytest.raises(ValueError):
        entropy_count([0.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        entropy_count([0.0, 1.0], 1.0, method="annealed")
    with pytest.raises(ValueError):
        entropy_count(np.arange(13.0), 1.0, method="exact")


def test_exact_matches_partition_enumeration(rng):
    for _ in range(40):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        pts = rng.standard_normal((n, d))
        lam = float(rng.uniform(0.2, 2.5))
        assert entropy_count(pts, lam, method="exact") == cover_oracle(pts, lam)


def test_entropy_sandwich(rng):
    for _ in range(60):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        pts = rng.standard_normal((n, d))
        diam = max(np.linalg.norm(a - b) for a, b in itertools.combinations(pts, 2))
        lam = float(rng.uniform(0.05, 1.2) * diam)
        exact = entropy_count(pts, lam, method="exact")
        greedy = entropy_count(pts, lam, method="greedy")
        exact_half = entropy_count(pts, lam / 2, method="exact")
        assert exact <= greedy <= exact_half


# --------------------------------------------------------------------------
# profiles


def test_profile_two_points():
    prof = entropy_profile([0.0, 4.0])
    assert prof.rho == pytest.approx(2.0)
    assert np.array_equal(prof.breakpoints, [4.0])
    assert prof.count(1.0) == 2
    assert prof.count(2.0) == 1  # one ball suffices at the enclosing radius
    assert prof.count(1.99) == 2


def test_profile_counts_nonincreasing(rng):
    for _ in range(20):
        pts = rng.standard_normal((int(rng.integers(2, 12)), 2))
        prof = entropy_profile(pts)
        counts = [prof.count(float(b)) for b in prof.breakpoints]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1
        tiny = float(prof.breakpoints[0]) * 1e-6
        assert prof.count(tiny) == len(np.unique(pts, axis=0))


def test_profile_of_identical_points():
    prof = entropy_profile([1.0, 1.0, 1.0, 1.0])
    assert prof.rho == 0.0
    assert prof.breakpoints.size == 0
    assert prof.count(0.5) == 1


def test_profile_csv(tmp_path, rng):
    pts = rng.standard_normal((7, 2))
    prof = entropy_profile(pts)
    path = tmp_path / "profile.csv"
    profile_to_csv(prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,count"
    rows = [line.split(",") for line in lines[1:]]
    levels = [float(a) for a, _ in rows]
    counts = [int(b) for _, b in rows]
    assert levels == sorted(levels)
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 1
    assert levels[-1] == pytest.approx(prof.rho)


# --------------------------------------------------------------------------
# entropy integrals


def test_integral_single_point():
    assert entropy_integral([3.0 + 1j], 4, 3.0, kind="tech") == 0.0
    assert entropy_integral([3.0 + 1j], 4, 3.0, kind="b33") == 0.0


def test_integral_two_point_closed_form():
    # profile is 2 on (0, 2): integrand min(sqrt 2, sqrt 2 * 2^(1/4)) = sqrt 2
    got = entropy_integral([0.0, 4.0], 2, 4.0, kind="tech")
    assert got == pytest.approx(2 * np.sqrt(2))


def test_integral_validation():
    with pytest.raises(ValueError):
        entropy_integral([0.0, 1.0], 0, 3.0)
    for q in (2.0, math.nan):
        with pytest.raises(ValueError):
            entropy_integral([0.0, 1.0, 5.0], 2, q, kind="tech")
    with pytest.raises(ValueError):
        entropy_integral([0.0, 1.0], 2, 3.0, kind="exp")


def test_integral_matches_riemann_sum(rng):
    for trial in range(6):
        pts = rng.standard_normal((6, 2))
        rho = ball_oracle(pts)
        nodes = (np.arange(100_000) + 0.5) * (rho / 100_000)
        counts = local_counts(pts, nodes)
        for n_freq, q in ((1, 2.5), (2, 4.0), (4, 3.0)):
            integrand = np.minimum(np.sqrt(counts), np.sqrt(n_freq) * counts ** (1.0 / q))
            want = float(np.sum(integrand) * rho / 100_000)
            got = entropy_integral(pts, n_freq, q, kind="tech")
            assert got == pytest.approx(want, rel=1e-4)
            integrand = np.minimum(np.sqrt(counts), np.sqrt(n_freq))
            want = float(np.sum(integrand) * rho / 100_000)
            got = entropy_integral(pts, n_freq, q, kind="b33")
            assert got == pytest.approx(want, rel=1e-4)


def test_b33_never_exceeds_tech(rng):
    # min(sqrt M, sqrt N) <= min(sqrt M, sqrt N * M^(1/q)) pointwise for M >= 1
    for _ in range(25):
        pts = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(1, 4))))
        for n_freq in (1, 2, 4, 9):
            for q in (2.5, 3.0, 4.0):
                b33 = entropy_integral(pts, n_freq, q, kind="b33")
                tech = entropy_integral(pts, n_freq, q, kind="tech")
                assert b33 <= tech + 1e-12


# --------------------------------------------------------------------------
# level suprema


def test_sup_single_point():
    assert lambda_entropy_sup([5.0], 3.0) == 0.0


def test_sup_two_points_closed_form():
    d = 5.0
    assert lambda_entropy_sup([0.0, d], 3.0) == pytest.approx((d / 2) * 2 ** (1 / 3.0))


def test_sup_requires_r_above_two():
    for r in (2.0, math.nan):
        with pytest.raises(ValueError):
            lambda_entropy_sup([0.0, 1.0, 5.0], r)


def test_sup_matches_dense_grid(rng):
    for _ in range(8):
        pts = rng.standard_normal((6, 2))
        rho = ball_oracle(pts)
        radii = local_insertion_radii(pts)
        nodes = np.linspace(rho * 1e-6, rho * (1 - 1e-12), 200_000)
        refine = np.array([b * (1 - 1e-9) for b in radii if 0 < b < rho])
        nodes = np.concatenate([nodes, refine, [rho * (1 - 1e-9)]])
        counts = local_counts(pts, nodes)
        for r in (2.5, 4.0):
            want = float(np.max(nodes * counts ** (1.0 / r)))
            got = lambda_entropy_sup(pts, r)
            assert got == pytest.approx(want, rel=1e-6)


# --------------------------------------------------------------------------
# inequality linking levels to variation


def test_level_count_bounded_by_variation(rng):
    for _ in range(500):
        n = int(rng.integers(2, 11))
        style = rng.integers(0, 3)
        if style == 0:
            seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        elif style == 1:
            seq = rng.standard_normal((n, 2))
        else:
            seq = np.cumsum(rng.standard_normal(n))  # random walk, clustered
        prof = entropy_profile(seq)
        for q in (2.5, 4.0):
            v = variation_norm(seq, q, mode="homogeneous")
            for b in prof.breakpoints:
                # no ball is needed at or above the enclosing radius
                m = prof.count(float(b)) if b < prof.rho else 0
                assert b * m ** (1.0 / q) <= 2 * v + 1e-12


# --------------------------------------------------------------------------
# symbol variation


def test_indicator_symbol_norm():
    window = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    assert symbol_vr_norm(window, 2.0) == pytest.approx(1 + np.sqrt(2))


def test_constant_symbol_norm():
    c = 2.0 - 1.0j
    assert symbol_vr_norm(np.full(6, c), 2.5) == pytest.approx(abs(c))


def test_symbol_norm_matches_exhaustive(rng):
    for _ in range(40):
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        for r in (1.0, 2.0, 3.5):
            got = symbol_vr_norm(vals, r)
            want = exhaustive_variation(vals, r, mode="nonhomogeneous")
            assert got == pytest.approx(want, abs=1e-12)


def test_long_real_symbols_are_reduced_not_rejected():
    # N=2 domes on 2^17 samples have over 8192 distinct values each
    for r in (1.0, 2.0, 2.5):
        spec = sample_rough_spec(
            TorusGrid(128, 2**17), 2, np.random.default_rng(0), with_symbols=True, r=r
        )
        norms = tuple(symbol_vr_norm(s, spec.r) for s in spec.symbols)
        assert norms == (1 + 2 ** (1 / r),) * 2


def test_symbol_norm_validation():
    with pytest.raises(ValueError):
        symbol_vr_norm(np.zeros((2, 2)), 2.0)
    with pytest.raises(ValueError):
        symbol_vr_norm(np.array([]), 2.0)


def test_entropy_profile_type_is_exposed():
    prof = entropy_profile([0.0, 1.0, 5.0])
    assert isinstance(prof, EntropyProfile)
    assert prof.n_points == 3
