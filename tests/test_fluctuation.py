"""Variation norms of finite sequences.

Oracles used here, all implemented locally and independently of the
library internals:

* exhaustive maximum over all increasing subsequences (variation),
* a plain quadratic DP over all predecessors (variation, long inputs).
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multifreq import TorusGrid, symbol_vr_norm, variation_norm
from multifreq.experiments import sample_rough_spec
from multifreq.fluctuation import variation_dp

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


# squaring a coordinate near 1e200 overflows, and one near 1e-200 underflows
@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.booleans(),
    st.sampled_from([2.0**600, 2.0**-600, 1e200, 1e-200]),
    st.sampled_from([1.0, 2.5, 4.0]),
)
def test_variation_is_homogeneous_at_extreme_scales(seed, n, complex_valued, c, q):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    if complex_valued:
        x = x + 1j * rng.standard_normal(n)
    for mode in ("homogeneous", "nonhomogeneous"):
        want = c * variation_norm(x, q, mode=mode)
        assert abs(variation_norm(c * x, q, mode=mode) - want) <= 1e-13 * want


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

