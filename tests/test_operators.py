"""Scale-window operators, sharp maximal function, rough multipliers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifreq.bumps import build_dk_symbol
from multifreq.errors import GridMismatchError, ResolutionError, SymbolSupportError
from multifreq.fluctuation import symbol_vr_norm, variation_dp
from multifreq.grid import (
    FrequencySet,
    Signal,
    Spectrum,
    TorusGrid,
    apply_multiplier,
    forward_transform,
    inverse_transform,
)
from multifreq.bumps import plateau_profile
from multifreq.symbols import vr_layer_decompose
from multifreq.operators import (
    RoughMultiplierSpec,
    ScaleRange,
    default_scale_range,
    dk_apply,
    rough_T,
    rvar_M,
    sharp_maximal,
    vq_dk,
)


# ---------------------------------------------------------------------------
# oracles

def exhaustive_variation(seq, q, mode):
    """Brute force; nonhomogeneous is the max of hom and sup, as in vq_dk."""
    n = len(seq)
    best = 0.0
    for size in range(2, n + 1):
        for sub in itertools.combinations(range(n), size):
            s = sum(abs(seq[b] - seq[a]) ** q for a, b in zip(sub, sub[1:]))
            best = max(best, s)
    val = best ** (1.0 / q)
    if mode == "nonhomogeneous":
        val = max(val, max(abs(v) for v in seq))
    return val


def random_interval_symbol(grid, rng, lo, hi, kind):
    m = grid.samples
    half = m // 2
    arr = np.zeros(m, dtype=np.complex128)
    w = hi - lo
    if kind == 0:
        njump = int(rng.integers(1, 9))
        cuts = np.sort(rng.choice(np.arange(lo + 1, hi), njump, replace=False))
        level = 0
        prev = lo
        for c in cuts:
            arr[prev + half : c + half] = level
            level = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.3
            prev = c
        arr[prev + half : hi + half] = 0
    else:
        cells = np.arange(lo, hi)
        c = 0.5 * (lo + hi)
        arr[lo + half : hi + half] = plateau_profile(cells - c, 0.2 * w, 0.499 * w)
    return arr


# ---------------------------------------------------------------------------
# scale ranges and specs

def test_scale_range_basics(default_grid):
    r = ScaleRange(2, 5)
    assert list(r.scales()) == [2, 3, 4, 5]
    assert len(r) == 4
    assert default_scale_range(default_grid) == ScaleRange(1, 7)
    with pytest.raises(ValueError):
        ScaleRange(3, 2)


def test_spec_validation(default_grid):
    g = default_grid
    with pytest.raises(SymbolSupportError):
        RoughMultiplierSpec(g, ((0, 100), (50, 200)), coefficients=np.ones(2))
    with pytest.raises(ValueError):
        RoughMultiplierSpec(g, ((0, 100),), coefficients=np.array([1.5]))
    with pytest.raises(ValueError):
        RoughMultiplierSpec(g, ((0, 100),))
    for r in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="exponent r"):
            RoughMultiplierSpec(g, ((0, 100),), coefficients=np.ones(1), r=r)
    with pytest.raises(ValueError):
        RoughMultiplierSpec(g, ((0, 100_000),), coefficients=np.ones(1))
    # a bound that is not an integer is refused, not truncated; numpy
    # integers pass
    for bounds in ((0.5, 10.7), (0, 10.0), (np.float64(0.0), 10)):
        with pytest.raises(ValueError, match="must be an integer"):
            RoughMultiplierSpec(g, (bounds,), coefficients=[1])
    spec = RoughMultiplierSpec(g, ((np.int64(0), np.int32(10)),), coefficients=[1])
    assert spec.intervals == ((0, 10),) and type(spec.intervals[0][0]) is int
    leak = np.zeros(g.samples, dtype=np.complex128)
    leak[g.samples // 2 + 500] = 1.0
    with pytest.raises(SymbolSupportError):
        RoughMultiplierSpec(g, ((0, 100),), symbols=(leak,))
    # a member off the full lattice is refused as such, not as a leak
    for wrong in (np.ones(10), np.zeros(g.samples + 1)):
        with pytest.raises(ValueError, match="full lattice"):
            RoughMultiplierSpec(g, ((0, 10),), symbols=(wrong,))
    # coefficient count is checked before the sort reorders them
    for coef in (np.ones(3), np.ones(1), np.array([1.0, np.nan]), np.array([np.inf, 0.5])):
        with pytest.raises(ValueError):
            RoughMultiplierSpec(g, ((200, 300), (-400, -300)), coefficients=coef)
    # a non-finite member cell is refused, inside its interval or not
    for bad, cell in ((np.nan, 5), (np.inf, 5), (complex(0.0, -np.inf), 5), (np.nan, 500)):
        sym = np.zeros(g.samples, dtype=np.complex128)
        sym[g.slot(0) : g.slot(10)] = 0.5
        sym[g.slot(cell)] = bad
        with pytest.raises(ValueError, match="finite"):
            RoughMultiplierSpec(g, ((0, 10),), symbols=(sym,))


def test_spec_sorts_and_records_norms(default_grid):
    g = default_grid
    half = g.samples // 2
    s1 = np.zeros(g.samples, dtype=np.complex128)
    s1[half + 200 : half + 300] = 1.0
    s2 = np.zeros(g.samples, dtype=np.complex128)
    s2[half - 400 : half - 300] = 0.5
    spec = RoughMultiplierSpec(g, ((200, 300), (-400, -300)), symbols=(s1, s2))
    assert spec.intervals == ((-400, -300), (200, 300))
    # members read back bit for bit and read-only; the caller's arrays
    # stay the caller's, writable
    for member, source in zip(spec.symbols, (s2, s1)):
        assert member.tobytes() == source.tobytes()
        assert not member.flags.writeable
        assert source.flags.writeable
    assert [m.tobytes() for m in spec.symbols[::-1]] == [s1.tobytes(), s2.tobytes()]
    # interior indicator has r-variation 1 + 2^(1/r)
    norms = [symbol_vr_norm(s, spec.r) for s in spec.symbols]
    assert norms[1] == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-12)
    assert norms[0] == pytest.approx(0.5 * (1.0 + np.sqrt(2.0)), rel=1e-12)
    assert len(spec.intervals) == 2


def test_spec_coefficient_order_follows_sort(default_grid):
    g = default_grid
    spec = RoughMultiplierSpec(
        g, ((200, 300), (-400, -300)), coefficients=np.array([0.25j, -0.5])
    )
    assert spec.intervals == ((-400, -300), (200, 300))
    assert spec.coefficients[0] == -0.5
    assert spec.coefficients[1] == 0.25j


# ---------------------------------------------------------------------------
# dk_apply

def test_dk_apply_disjoint_spectrum_is_zero(default_grid):
    g = default_grid
    half = g.samples // 2
    spec = np.zeros(g.samples, dtype=np.complex128)
    spec[half + 6000 : half + 6100] = 1.0
    f = inverse_transform(Spectrum(g, spec))
    sigma = FrequencySet(g, np.array([-2048]))
    out = dk_apply(f, sigma, 4)
    # the transform roundtrip leaves dust at the 1e-19 level
    assert out.norm2() <= 1e-12 * f.norm2()


def test_dk_apply_plancherel_bound(default_grid, rng):
    g = default_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sigma = FrequencySet(g, np.array([-2048, -1920, 512]))
    for k in (1, 3, 6):
        sym = build_dk_symbol(sigma, k)
        out = dk_apply(f, sigma, k)
        assert out.norm2() <= float(np.max(np.abs(sym.values))) * f.norm2() * (1 + 1e-12)


def test_dk_apply_wide_envelope_projection(default_grid):
    # an exponential under a nearly full-circle smooth dome concentrates
    # its spectrum enough that even the scale-3 window returns it
    g = default_grid
    x = g.positions()
    dist = np.minimum(x, g.period - x)
    env = plateau_profile(dist, 2.0, 63.0)
    xi1 = -1024
    f = Signal(g, env * np.exp(2j * np.pi * (xi1 / g.period) * x))
    sigma = FrequencySet(g, np.array([xi1]))
    errs = [(dk_apply(f, sigma, k) - f).norm2() / f.norm2() for k in (1, 2, 3)]
    assert errs[2] <= 0.01
    assert errs[0] < errs[1] < errs[2]


def test_dk_apply_grid_mismatch(default_grid, small_grid):
    f = Signal(small_grid, np.zeros(small_grid.samples, dtype=np.complex128))
    sigma = FrequencySet(default_grid, np.array([0]))
    with pytest.raises(GridMismatchError):
        dk_apply(f, sigma, 2)


# ---------------------------------------------------------------------------
# vq_dk

def test_vq_dk_validation(default_grid):
    f = Signal(default_grid, np.zeros(default_grid.samples, dtype=np.complex128))
    sigma = FrequencySet(default_grid, np.array([0]))
    for q in (2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            vq_dk(f, sigma, q)
    with pytest.raises(ValueError):
        vq_dk(f, sigma, 3.0, mode="other")


def test_vq_dk_disjoint_spectrum(default_grid):
    g = default_grid
    half = g.samples // 2
    spec = np.zeros(g.samples, dtype=np.complex128)
    spec[half + 6000 : half + 6050] = 1.0
    f = inverse_transform(Spectrum(g, spec))
    sigma = FrequencySet(g, np.array([-2048]))
    out = vq_dk(f, sigma, 3.0)
    assert out.norm_inf() <= 1e-12 * f.norm_inf()


def test_vq_dk_dominates_sup(default_grid, rng):
    g = default_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sigma = FrequencySet(g, np.array([-512, 256, 257]))
    out = vq_dk(f, sigma, 2.5).values.real
    sup = np.zeros(g.samples)
    for k in range(1, 8):
        np.maximum(sup, np.abs(dk_apply(f, sigma, k).values), out=sup)
    assert np.all(out >= sup - 1e-12)
    assert np.all(out >= 0)
    assert np.all(vq_dk(f, sigma, 2.5).values.imag == 0)


def test_vq_dk_matches_exhaustive_oracle(default_grid, rng):
    g = default_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sigma = FrequencySet(g, np.array([-512, 256]))
    sr = ScaleRange(2, 7)
    for mode in ("homogeneous", "nonhomogeneous"):
        out = vq_dk(f, sigma, 4.0, scale_range=sr, mode=mode).values.real
        stack = np.stack(
            [dk_apply(f, sigma, k).values for k in sr.scales()]
        )
        points = rng.choice(g.samples, 16, replace=False)
        for x in points:
            oracle = exhaustive_variation(list(stack[:, x]), 4.0, mode)
            assert out[x] == pytest.approx(oracle, rel=1e-12, abs=1e-15)


def test_vq_dk_with_a_prebuilt_symbol_stack(default_grid, rng):
    g = default_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sigma = FrequencySet(g, np.array([-512, 256, 3000]))
    sr = ScaleRange(2, 5)
    stack = [build_dk_symbol(sigma, k) for k in sr.scales()]
    out = vq_dk(f, sigma, 3.0, scale_range=sr, symbols=stack)
    assert out.values.tobytes() == vq_dk(f, sigma, 3.0, scale_range=sr).values.tobytes()
    with pytest.raises(ValueError):
        vq_dk(f, sigma, 3.0, scale_range=sr, symbols=stack[:-1])
    other = FrequencySet(TorusGrid(128, 2**14), np.array([256]))
    foreign = [build_dk_symbol(other, k) for k in sr.scales()]
    with pytest.raises(GridMismatchError):
        vq_dk(f, sigma, 3.0, scale_range=sr, symbols=foreign)


def _vq_dk_oracle(f, sigma, q, scale_range, mode):
    """vq_dk through a shifted copy of the products and a stacked
    real/imaginary copy of the outputs (variation_dp is pinned bit for bit
    to its plain loop in test_fluctuation)."""
    fhat = forward_transform(f)
    prods = np.empty((len(scale_range), f.grid.samples), dtype=np.complex128)
    for row, k in enumerate(scale_range.scales()):
        np.multiply(fhat.values, build_dk_symbol(sigma, k).values, out=prods[row])
    stack = np.fft.ifftshift(prods, axes=-1)
    np.fft.ifft(stack, out=stack)
    stack /= f.grid.h
    out = variation_dp(np.stack((stack.real, stack.imag), axis=1), q)
    if mode == "nonhomogeneous":
        out = np.maximum(out, np.max(np.abs(stack), axis=0))
    return out.astype(np.complex128)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 4),
    st.floats(2.0, 6.0, exclude_min=True),
    st.integers(0, 2**32 - 1),
)
def test_vq_dk_equals_the_shifted_copy_path_bit_for_bit(log_period, extra, q, seed):
    g = TorusGrid(2**log_period, 2 ** (log_period + extra))
    rng = np.random.default_rng(seed)
    half = g.samples // 2
    idx = rng.choice(np.arange(-half + 1, half), int(rng.integers(1, 4)), replace=False)
    sigma = FrequencySet(g, idx)
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sr = ScaleRange(1, g.finest_scale)
    stack = [build_dk_symbol(sigma, k) for k in sr.scales()]
    for mode in ("homogeneous", "nonhomogeneous"):
        want = _vq_dk_oracle(f, sigma, q, sr, mode).tobytes()
        assert vq_dk(f, sigma, q, sr, mode).values.tobytes() == want
        assert vq_dk(f, sigma, q, sr, mode, symbols=stack).values.tobytes() == want


def test_vq_dk_peaks_under_twice_its_stack(default_grid, rng):
    # products go straight into the (K, samples) stack and variation_dp
    # reads it through a view, so no second stack-sized copy is made
    g = default_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sigma = FrequencySet(g, np.array([-512, 256, 3000]))
    sr = default_scale_range(g)
    stack = [build_dk_symbol(sigma, k) for k in sr.scales()]
    vq_dk(f, sigma, 3.0, symbols=stack)
    tracemalloc.start()
    try:
        vq_dk(f, sigma, 3.0, symbols=stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(sr) * g.samples * 16


def _small_case(log_period, extra, seed):
    """A small grid, a random frequency set of 1-3 points and a random signal."""
    g = TorusGrid(2**log_period, 2 ** (log_period + extra))
    rng = np.random.default_rng(seed)
    half = g.samples // 2
    idx = rng.choice(np.arange(-half + 1, half), int(rng.integers(1, 4)), replace=False)
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    return g, FrequencySet(g, idx), f


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 4),
    st.sampled_from([2.0**600, 2.0**-600, 1e160, 1e-160]),
    st.floats(2.0, 6.0, exclude_min=True),
    st.integers(0, 2**32 - 1),
)
def test_vq_dk_is_homogeneous_at_extreme_scales(log_period, extra, c, q, seed):
    # squares of the scaled stack would overflow or underflow without the
    # power-of-two rescale in variation_dp
    g, sigma, f = _small_case(log_period, extra, seed)
    for mode in ("homogeneous", "nonhomogeneous"):
        want = c * vq_dk(f, sigma, q, mode=mode).values.real
        got = vq_dk(f * c, sigma, q, mode=mode).values.real
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def test_vq_dk_monotone_in_range(default_grid, rng):
    g = default_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sigma = FrequencySet(g, np.array([-512, 256, 3000]))
    small = vq_dk(f, sigma, 3.0, scale_range=ScaleRange(2, 4)).values.real
    big = vq_dk(f, sigma, 3.0, scale_range=ScaleRange(1, 6)).values.real
    assert np.all(big >= small - 1e-13)


# ---------------------------------------------------------------------------
# sharp maximal

def test_sharp_maximal_identity_when_contained(default_grid):
    g = default_grid
    half = g.samples // 2
    spec = np.zeros(g.samples, dtype=np.complex128)
    for n in (0, 4000):
        spec[half + n - 1 : half + n + 2] = 1.0 + 0.5j
    f = inverse_transform(Spectrum(g, spec))
    sigma = FrequencySet(g, np.array([0, 4000]))
    out = sharp_maximal(f, sigma)
    assert np.max(np.abs(out.values.real - np.abs(f.values))) <= 1e-13 * f.norm_inf()


def test_sharp_maximal_full_band(small_grid, rng):
    g = small_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sigma = FrequencySet(g, np.arange(-31, 32, 2))
    out = sharp_maximal(f, sigma)
    assert np.max(np.abs(out.values.real - np.abs(f.values))) <= 1e-13 * f.norm_inf()


def test_sharp_maximal_matches_direct_recompute(default_grid, rng):
    g = default_grid
    half = g.samples // 2
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sigma = FrequencySet(g, np.array([-3000, 77, 2048]))
    sr = ScaleRange(2, 6)
    out = sharp_maximal(f, sigma, sr).values.real
    fhat = forward_transform(f)
    expect = np.zeros(g.samples)
    total = np.zeros(g.samples)
    for j in sr.scales():
        rad = 2 ** (7 - j)
        mask = np.zeros(g.samples, dtype=bool)
        for n in sigma.indices:
            mask[max(n - rad + half, 0) : n + rad + half + 1] = True
        proj = np.abs(inverse_transform(Spectrum(g, fhat.values * mask)).values)
        expect = np.maximum(expect, proj)
        total += proj
    assert np.max(np.abs(out - expect)) <= 1e-14 * max(expect.max(), 1.0)
    assert np.all(out <= total + 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_sharp_maximal_has_the_bytes_of_one_inverse_transform_per_scale(log_period, extra, seed):
    g, sigma, f = _small_case(log_period, extra, seed)
    sr = ScaleRange(seed % (g.finest_scale + 1), g.finest_scale)
    fhat = forward_transform(f)
    want = np.zeros(g.samples)
    for j in sr.scales():
        rad = g.tile_cells(j)
        mask = np.zeros(g.samples, dtype=bool)
        for n in sigma.indices:
            mask[max(g.slot(int(n) - rad), 0) : min(g.slot(int(n) + rad + 1), g.samples)] = True
        proj = inverse_transform(Spectrum(g, fhat.values * mask)).values
        np.maximum(want, np.abs(proj), out=want)
    assert sharp_maximal(f, sigma, sr).values.tobytes() == want.astype(np.complex128).tobytes()


def test_sharp_maximal_peaks_under_twice_its_stack(default_grid, rng):
    g = default_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sigma = FrequencySet(g, np.array([-512, 256, 3000]))
    sharp_maximal(f, sigma)
    tracemalloc.start()
    try:
        sharp_maximal(f, sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(default_scale_range(g)) * g.samples * 16


def test_sharp_maximal_resolution(default_grid):
    f = Signal(default_grid, np.zeros(default_grid.samples, dtype=np.complex128))
    sigma = FrequencySet(default_grid, np.array([0]))
    with pytest.raises(ResolutionError):
        sharp_maximal(f, sigma, ScaleRange(8, 9))


# ---------------------------------------------------------------------------
# rough_T and rvar_M

def test_rough_t_whole_band(default_grid, rng):
    g = default_grid
    half = g.samples // 2
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    spec = RoughMultiplierSpec(g, ((-half, half),), coefficients=np.array([1.0]))
    out = rough_T(f, spec)
    assert (out - f).norm2() <= 1e-13 * f.norm2()


def test_assembled_symbol_is_built_once(default_grid):
    g = default_grid
    half = g.samples // 2
    s = np.zeros(g.samples, dtype=np.complex128)
    s[half : half + 10] = 1.0
    specs = (
        RoughMultiplierSpec(g, ((0, 10),), symbols=(s,)),
        RoughMultiplierSpec(g, ((0, 10), (20, 30)), coefficients=np.array([1.0, 0.5j])),
    )
    for spec in specs:
        first = spec.assembled_symbol()
        assert spec.assembled_symbol() is first
        assert not first.values.flags.writeable


def test_rough_t_zero_coefficients(default_grid, rng):
    g = default_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    spec = RoughMultiplierSpec(g, ((0, 200), (300, 400)), coefficients=np.zeros(2))
    assert np.all(rough_T(f, spec).values == 0)


def test_rough_t_independent_assembly(default_grid, rng):
    g = default_grid
    half = g.samples // 2
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    ivs = ((-500, -100), (0, 64), (1000, 1500))
    coef = np.array([0.3 - 0.4j, -1.0, 0.25])
    spec = RoughMultiplierSpec(g, ivs, coefficients=coef)
    out = rough_T(f, spec)
    sym = np.zeros(g.samples, dtype=np.complex128)
    for (lo, hi), d in zip(ivs, coef):
        sym[lo + half : hi + half] = d
    fhat = g.h * np.fft.fftshift(np.fft.fft(f.values))
    expect = np.fft.ifft(np.fft.ifftshift(fhat * sym)) / g.h
    assert np.max(np.abs(out.values - expect)) <= 1e-12 * f.norm_inf()
    assert out.norm2() <= float(np.max(np.abs(coef))) * f.norm2() * (1 + 1e-12)


def test_rough_t_linearity(default_grid, rng):
    g = default_grid
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    h = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    spec = RoughMultiplierSpec(g, ((-100, 2000),), coefficients=np.array([0.7j]))
    lhs = rough_T(f * 2.5 + h, spec)
    rhs = rough_T(f, spec) * 2.5 + rough_T(h, spec)
    assert (lhs - rhs).norm2() <= 1e-12 * (f.norm2() + h.norm2())


def test_rough_t_requires_coefficients(default_grid, rng):
    g = default_grid
    half = g.samples // 2
    s = np.zeros(g.samples, dtype=np.complex128)
    s[half : half + 10] = 1.0
    spec = RoughMultiplierSpec(g, ((0, 10),), symbols=(s,))
    f = Signal(g, np.zeros(g.samples, dtype=np.complex128))
    with pytest.raises(ValueError):
        rough_T(f, spec)
    with pytest.raises(ValueError):
        rvar_M(f, RoughMultiplierSpec(g, ((0, 10),), coefficients=np.ones(1)))


def test_rvar_m_indicator_equals_rough_t(default_grid, rng):
    g = default_grid
    half = g.samples // 2
    s = np.zeros(g.samples, dtype=np.complex128)
    s[half - 300 : half + 500] = 1.0
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    sym_spec = RoughMultiplierSpec(g, ((-300, 500),), symbols=(s,))
    coef_spec = RoughMultiplierSpec(g, ((-300, 500),), coefficients=np.array([1.0]))
    assert np.array_equal(
        rvar_M(f, sym_spec, "direct").values, rough_T(f, coef_spec).values
    )


def test_rvar_m_zero_symbols(default_grid):
    g = default_grid
    z = np.zeros(g.samples, dtype=np.complex128)
    spec = RoughMultiplierSpec(g, ((0, 100),), symbols=(z,))
    f = Signal(g, np.ones(g.samples, dtype=np.complex128))
    assert np.all(rvar_M(f, spec, "direct").values == 0)
    assert np.all(rvar_M(f, spec, "layered").values == 0)


def test_rvar_m_unknown_path(default_grid):
    g = default_grid
    z = np.zeros(g.samples, dtype=np.complex128)
    spec = RoughMultiplierSpec(g, ((0, 100),), symbols=(z,))
    f = Signal(g, np.zeros(g.samples, dtype=np.complex128))
    with pytest.raises(ValueError):
        rvar_M(f, spec, "sideways")


def test_rvar_m_cross_path_corpus():
    # twenty random interval-symbol specs; the layered path drops only
    # the decomposition remainders, so the gap stays a small multiple of
    # the layer tolerance
    grid = TorusGrid(period=128, samples=4096)
    m = grid.samples
    half = m // 2
    rng = np.random.default_rng(20240820)
    worst = 0.0
    for trial in range(20):
        n_iv = int(rng.integers(1, 5))
        bounds = np.sort(rng.choice(np.arange(-half, half), 2 * n_iv, replace=False))
        ivs = []
        for i in range(n_iv):
            lo, hi = int(bounds[2 * i]), int(bounds[2 * i + 1])
            if hi - lo < 16:
                hi = lo + 16
            ivs.append((lo, min(hi, half)))
        ivs = [(a, b) for a, b in ivs if b - a >= 16 and b <= half]
        keep = []
        last = -half
        for a, b in ivs:
            if a >= last:
                keep.append((a, b))
                last = b
        ivs = keep
        syms = tuple(
            random_interval_symbol(grid, rng, a, b, int(rng.integers(0, 2)))
            for a, b in ivs
        )
        spec = RoughMultiplierSpec(grid, tuple(ivs), symbols=syms)
        f = Signal(grid, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        direct = rvar_M(f, spec, "direct")
        layered = rvar_M(f, spec, "layered", tol=1e-3)
        worst = max(worst, (direct - layered).norm2() / (1e-3 * f.norm2()))
    assert worst <= 10.0


def test_rvar_m_layered_applies_every_layer(rng):
    # the layered multiplier is each member symbol less its remainder
    grid = TorusGrid(period=128, samples=4096)
    half = grid.samples // 2
    syms = []
    for lo, hi in ((-900, -100), (40, 700)):
        s = np.zeros(grid.samples, dtype=np.complex128)
        cells = np.arange(lo, hi) - 0.5 * (lo + hi)
        s[half + lo : half + hi] = rng.uniform(0.5, 1) * plateau_profile(
            cells, 0.2 * (hi - lo), 0.499 * (hi - lo)
        )
        syms.append(s)
    spec = RoughMultiplierSpec(grid, ((-900, -100), (40, 700)), symbols=tuple(syms), r=2.5)
    f = Signal(grid, rng.standard_normal(grid.samples) + 1j * rng.standard_normal(grid.samples))
    want = np.zeros(grid.samples, dtype=np.complex128)
    for s in syms:
        want += s - vr_layer_decompose(Spectrum(grid, s), spec.r, 1e-2).remainder.values
    got = rvar_M(f, spec, "layered", tol=1e-2)
    assert (got - apply_multiplier(f, Spectrum(grid, want))).norm2() <= 1e-12 * f.norm2()


SPILL_GRID = TorusGrid(period=16, samples=1024)


@st.composite
def spilling_spec(draw):
    """Specs of one to four members: domes cut off inside or at their
    interval's edge, and random walks.  A member that ends on a value
    within a level's threshold of zero gets a piece running past its
    interval, over its neighbours' cells, to the end of the band."""
    grid = SPILL_GRID
    half = grid.samples // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = sorted(draw(st.sets(st.integers(-half, half), min_size=2, max_size=8)))
    ivs = [(a, b) for a, b in zip(cuts[::2], cuts[1::2])]
    syms = []
    for lo, hi in ivs:
        sym = np.zeros(grid.samples, dtype=np.complex128)
        w = hi - lo
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        if draw(st.booleans()):
            cells = np.arange(lo, hi) - 0.5 * (lo + hi)
            reach = draw(st.sampled_from([0.3, 0.499, 0.7, 2.0]))
            vals = coeff * plateau_profile(cells, 0.2 * w, reach * w)
        else:
            steps = rng.standard_normal(w) + 1j * rng.standard_normal(w)
            vals = coeff + draw(st.sampled_from([1e-3, 0.1])) * np.cumsum(steps)
        sym[grid.slot(lo) : grid.slot(hi)] = vals
        syms.append(sym)
    r = draw(st.sampled_from([1.0, 2.0, 3.0]))
    return RoughMultiplierSpec(grid, tuple(ivs), symbols=tuple(syms), r=r)


@settings(max_examples=40, deadline=None)
@given(spilling_spec(), st.sampled_from([1e-1, 1e-2, 1e-3]), st.integers(0, 2**32 - 1))
def test_rvar_m_layered_equals_a_per_piece_scatter(spec, tol, seed):
    grid = spec.grid
    rng = np.random.default_rng(seed)
    f = Signal(grid, rng.standard_normal(grid.samples) + 1j * rng.standard_normal(grid.samples))
    acc = np.zeros(grid.samples, dtype=np.complex128)
    for sym in spec.symbols:
        for layer in vr_layer_decompose(Spectrum(grid, sym), spec.r, tol).layers:
            for p in layer:
                acc[grid.slot(p.lo) : grid.slot(p.hi)] += p.coeff
    want = apply_multiplier(f, Spectrum(grid, acc))
    assert rvar_M(f, spec, "layered", tol=tol).values.tobytes() == want.values.tobytes()


def test_rvar_m_single_bump_cross_path(default_grid, rng):
    g = default_grid
    half = g.samples // 2
    cells = np.arange(-800, 800)
    s = np.zeros(g.samples, dtype=np.complex128)
    s[half - 800 : half + 800] = plateau_profile(cells, 200.0, 799.0)
    spec = RoughMultiplierSpec(g, ((-800, 800),), symbols=(s,))
    f = Signal(g, rng.standard_normal(g.samples) + 1j * rng.standard_normal(g.samples))
    direct = rvar_M(f, spec, "direct", tol=1e-2)
    layered = rvar_M(f, spec, "layered", tol=1e-2)
    assert (direct - layered).norm2() <= 10.0 * 1e-2 * f.norm2()
