"""Transform pair, grid bookkeeping, and serialization round-trips.

The brute-force oracles here evaluate the discrete transforms as explicit
O(M^2) kernel sums, independently of any FFT library code path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifreq import (
    DyadicFreqInterval,
    FrequencySet,
    GridMismatchError,
    ResolutionError,
    ScaleRange,
    Signal,
    Spectrum,
    TorusGrid,
    apply_multiplier,
    build_dk_symbol,
    dk_tiles,
    forward_transform,
    inverse_transform,
    sharp_maximal,
    signal_from_csv,
    signal_to_csv,
    spectrum_to_csv,
    vq_dk,
)
from multifreq.experiments import TRIAL_BLOCK
from multifreq.grid import _multiply_rows


def random_signal(grid, rng):
    vals = rng.standard_normal(grid.samples) + 1j * rng.standard_normal(grid.samples)
    return Signal(grid, vals)


def dft_oracle(grid, values):
    # F_n = h * sum_x f(x) exp(-2 pi i xi_n x), written out literally
    x = grid.positions()
    xi = grid.frequencies()
    kernel = np.exp(-2j * np.pi * np.outer(xi, x))
    return grid.h * (kernel @ values)


def idft_oracle(grid, values):
    x = grid.positions()
    xi = grid.frequencies()
    kernel = np.exp(2j * np.pi * np.outer(x, xi))
    return (kernel @ values) / grid.period


# --------------------------------------------------------------------------
# grid geometry


def test_grid_defaults(default_grid):
    assert default_grid.period == 128
    assert default_grid.samples == 2 ** 15
    assert default_grid.h == 128 / 2 ** 15
    assert default_grid.freq_step == 1 / 128


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(period=100, samples=1024)
    with pytest.raises(ValueError):
        TorusGrid(period=64, samples=1000)
    with pytest.raises(ValueError):
        TorusGrid(period=64, samples=128)  # fewer than 4 samples per unit cell


def test_positions_and_frequencies(small_grid):
    x = small_grid.positions()
    assert x[0] == 0.0
    assert x[-1] == small_grid.period - small_grid.h
    n = small_grid.freq_indices()
    assert n[0] == -32 and n[-1] == 31
    assert np.all(np.diff(small_grid.frequencies()) > 0)


def test_index_of_freq(small_grid):
    assert small_grid.index_of_freq(0.0) == 0
    assert small_grid.index_of_freq(1.0) == 8
    assert small_grid.index_of_freq(-0.125) == -1
    with pytest.raises(ValueError):
        small_grid.index_of_freq(0.3)  # off the lattice
    with pytest.raises(ValueError):
        small_grid.index_of_freq(4.0)  # band edge samples / (2 * period) excluded


# --------------------------------------------------------------------------
# transforms


def test_forward_matches_direct_sum(small_grid, rng):
    f = random_signal(small_grid, rng)
    expected = dft_oracle(small_grid, f.values)
    got = forward_transform(f).values
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_inverse_matches_direct_sum(small_grid, rng):
    spec = Spectrum(small_grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    expected = idft_oracle(small_grid, spec.values)
    got = inverse_transform(spec).values
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_roundtrip_identity(default_grid, rng):
    f = random_signal(default_grid, rng)
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-10


def test_unit_impulse_has_flat_spectrum(small_grid):
    vals = np.zeros(small_grid.samples, dtype=complex)
    vals[0] = 1.0 / small_grid.h
    spec = forward_transform(Signal(small_grid, vals))
    assert np.allclose(np.abs(spec.values), 1.0, atol=1e-12)


def test_plancherel(default_grid, rng):
    f = random_signal(default_grid, rng)
    assert forward_transform(f).norm2() == pytest.approx(f.norm2(), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1, 4), (8, 64), (16, 1024), (128, 2**15)]),
    st.integers(0, 2**32 - 1),
)
def test_parseval(shape, seed):
    # <f, g> = h sum f conj(g) on the samples equals
    # <F, G> = sum F conj(G) / period on the frequency lattice, both ways
    grid = TorusGrid(*shape)
    rng = np.random.default_rng(seed)
    f, g = random_signal(grid, rng), random_signal(grid, rng)
    fh, gh = forward_transform(f), forward_transform(g)
    inner_x = grid.h * np.vdot(g.values, f.values)
    inner_xi = np.vdot(gh.values, fh.values) / grid.period
    assert abs(inner_x - inner_xi) <= 1e-12 * f.norm2() * g.norm2()
    assert fh.norm2() == pytest.approx(f.norm2(), rel=1e-12)
    spec = Spectrum(grid, rng.standard_normal(grid.samples) + 1j * rng.standard_normal(grid.samples))
    assert inverse_transform(spec).norm2() == pytest.approx(spec.norm2(), rel=1e-12)


def test_transform_length_mismatch(small_grid):
    with pytest.raises(ValueError):
        Signal(small_grid, np.zeros(12))
    with pytest.raises(ValueError):
        Spectrum(small_grid, np.zeros(12))


# --------------------------------------------------------------------------
# multiplier application


def test_identity_symbol_is_identity(small_grid, rng):
    f = random_signal(small_grid, rng)
    one = Spectrum(small_grid, np.ones(small_grid.samples, dtype=complex))
    out = apply_multiplier(f, one)
    assert np.max(np.abs(out.values - f.values)) <= 1e-12


def test_zero_symbol_annihilates(small_grid, rng):
    f = random_signal(small_grid, rng)
    zero = Spectrum(small_grid, np.zeros(small_grid.samples, dtype=complex))
    assert apply_multiplier(f, zero).norm2() == 0.0


def test_multiplier_matches_direct_oracle(small_grid, rng):
    f = random_signal(small_grid, rng)
    s = Spectrum(small_grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    expected = idft_oracle(small_grid, dft_oracle(small_grid, f.values) * s.values)
    got = apply_multiplier(f, s).values
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_multiplier_norm_bound_many_random(small_grid, rng):
    # ||T_s f||_2 <= max|s| ||f||_2 must hold for every symbol
    for _ in range(1000):
        f = random_signal(small_grid, rng)
        s = Spectrum(small_grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        out = apply_multiplier(f, s)
        assert out.norm2() <= s.norm_inf() * f.norm2() * (1 + 1e-12)


def test_multiplier_grid_mismatch(small_grid, default_grid):
    f = Signal(small_grid, np.zeros(small_grid.samples))
    s = Spectrum(default_grid, np.zeros(default_grid.samples))
    with pytest.raises(GridMismatchError):
        apply_multiplier(f, s)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, TRIAL_BLOCK),
    st.sampled_from([(1, 4), (4, 64), (16, 1024), (128, 2**15)]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_row_kernel_has_the_bytes_of_one_transform_pair_per_row(count, shape, real, seed):
    grid = TorusGrid(*shape)
    rng = np.random.default_rng(seed)
    sigs = [random_signal(grid, rng) for _ in range(count)]
    # zeros and negative entries, as sharp and rough symbols have
    sym = rng.standard_normal(grid.samples)
    if not real:
        sym = sym + 1j * rng.standard_normal(grid.samples)
    sym[rng.random(grid.samples) < 0.3] = 0.0
    symbol = Spectrum(grid, sym)
    rows = np.array([f.values for f in sigs])
    _multiply_rows(rows, symbol.values, grid.h)
    for f, row in zip(sigs, rows):
        alone = inverse_transform(Spectrum(grid, forward_transform(f).values * symbol.values))
        assert row.tobytes() == alone.values.tobytes()
        assert apply_multiplier(f, symbol).values.tobytes() == alone.values.tobytes()


# --------------------------------------------------------------------------
# signal arithmetic and norms


def test_signal_norms(small_grid):
    vals = np.zeros(small_grid.samples, dtype=complex)
    vals[3] = 3.0 - 4.0j
    f = Signal(small_grid, vals)
    h = small_grid.h
    assert f.norm1() == pytest.approx(5 * h)
    assert f.norm2() == pytest.approx(5 * np.sqrt(h))
    assert f.norm_inf() == pytest.approx(5.0)


def test_signal_arithmetic(small_grid, rng):
    f = random_signal(small_grid, rng)
    g = random_signal(small_grid, rng)
    assert np.allclose((f + g).values, f.values + g.values)
    assert np.allclose((f - g).values, f.values - g.values)
    assert np.allclose((2.0 * f).values, 2.0 * f.values)
    other = Signal(TorusGrid(8, 128), np.zeros(128))
    with pytest.raises(GridMismatchError):
        f + other


def test_values_are_immutable(small_grid, rng):
    f = random_signal(small_grid, rng)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


# --------------------------------------------------------------------------
# frequency sets


def test_frequency_set_basic(default_grid):
    fs = FrequencySet.from_frequencies(default_grid, [0.0, 3.0, 7.0])
    assert fs.n == 3
    assert np.array_equal(fs.indices, [0, 384, 896])
    assert fs.min_gap == 3.0
    assert fs.separated


def test_frequency_set_orders_and_rejects_duplicates(default_grid):
    fs = FrequencySet.from_frequencies(default_grid, [5.0, -2.0])
    assert np.array_equal(fs.frequencies(), [-2.0, 5.0])
    with pytest.raises(ValueError):
        FrequencySet.from_frequencies(default_grid, [1.0, 1.0])


def test_frequency_set_band_and_lattice_checks(default_grid):
    with pytest.raises(ValueError):
        FrequencySet.from_frequencies(default_grid, [2 ** 15 / 256])  # band edge
    with pytest.raises(ValueError):
        FrequencySet.from_frequencies(default_grid, [0.33])
    with pytest.raises(ValueError):
        FrequencySet(default_grid, np.array([], dtype=np.int64))


def test_frequency_set_separation_flag(default_grid):
    close = FrequencySet.from_frequencies(default_grid, [0.0, 0.5])
    assert close.min_gap == 0.5
    assert not close.separated
    single = FrequencySet.from_frequencies(default_grid, [2.0])
    assert single.min_gap == float("inf")
    assert single.separated


# --------------------------------------------------------------------------
# dyadic intervals


def test_dyadic_interval_geometry(default_grid):
    iv = DyadicFreqInterval(default_grid, k=2, m=8)
    assert iv.width == 0.25
    assert iv.lo == 2.0 and iv.hi == 2.25
    lo_idx, hi_idx = iv.index_range()
    assert (lo_idx, hi_idx) == (256, 288)
    ind = iv.indicator()
    n = default_grid.freq_indices()
    assert np.array_equal(ind == 1.0, (n >= 256) & (n < 288))
    assert ind.sum() == 32


def test_dyadic_interval_too_fine(default_grid):
    with pytest.raises(ResolutionError):
        DyadicFreqInterval(default_grid, k=8, m=0)  # width below one lattice cell


def test_dyadic_interval_representative(default_grid):
    iv = DyadicFreqInterval(default_grid, k=0, m=3, xi_rep_index=400)
    assert iv.xi_rep == pytest.approx(400 / 128)
    with pytest.raises(ValueError):
        DyadicFreqInterval(default_grid, k=0, m=3, xi_rep_index=200)
    with pytest.raises(ValueError):
        DyadicFreqInterval(default_grid, k=0, m=3).xi_rep


# --------------------------------------------------------------------------
# lattice layout


def test_slot_and_tile_cells(small_grid):
    grid = small_grid
    assert np.array_equal(grid.slot(grid.freq_indices()), np.arange(grid.samples))
    assert grid.slot(0) == grid.samples // 2
    assert grid.finest_scale == 3
    assert [grid.tile_cells(k) for k in range(4)] == [8, 4, 2, 1]


_TOO_FINE = {
    "DyadicFreqInterval": lambda grid, sigma, f, k: DyadicFreqInterval(grid, k, 0),
    "dk_tiles": lambda grid, sigma, f, k: dk_tiles(sigma, k),
    "build_dk_symbol": lambda grid, sigma, f, k: build_dk_symbol(sigma, k),
    "vq_dk": lambda grid, sigma, f, k: vq_dk(f, sigma, 3.0, ScaleRange(1, k)),
    "sharp_maximal": lambda grid, sigma, f, k: sharp_maximal(f, sigma, ScaleRange(1, k)),
}


@pytest.mark.parametrize("site", sorted(_TOO_FINE))
def test_scale_below_the_lattice_step_is_rejected(small_grid, site):
    sigma = FrequencySet(small_grid, np.array([0]))
    f = Signal(small_grid, np.ones(small_grid.samples))
    with pytest.raises(ResolutionError):
        _TOO_FINE[site](small_grid, sigma, f, small_grid.finest_scale + 1)


# --------------------------------------------------------------------------
# serialization


def test_signal_csv_roundtrip(small_grid, rng, tmp_path):
    vals = random_signal(small_grid, rng).values.copy()
    # signed zeros and infinities in either part must keep their bits
    planted = (-0.0, 0.0, np.inf, -np.inf)
    for i, (re, im) in enumerate((re, im) for re in planted for im in planted):
        vals[i] = complex(re, im)
    f = Signal(small_grid, vals)
    path = tmp_path / "sig.csv"
    signal_to_csv(f, path)
    back = signal_from_csv(small_grid, path)
    assert back.values.tobytes() == f.values.tobytes()


def test_signal_csv_header_check(small_grid, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        signal_from_csv(small_grid, path)


@pytest.mark.parametrize("index", [0, -1, 64])
def test_signal_csv_index_check(small_grid, rng, tmp_path, index):
    # row 1 names a repeated or out-of-range index, so cell 1 has no row
    path = tmp_path / "sig.csv"
    signal_to_csv(random_signal(small_grid, rng), path)
    lines = path.read_text().splitlines()
    lines[2] = f"{index}," + lines[2].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        signal_from_csv(small_grid, path)
    lines[2] = "1," + lines[2].split(",", 1)[1]
    path.write_text("\n".join(lines[:-1]) + "\n")  # a row short
    with pytest.raises(ValueError):
        signal_from_csv(small_grid, path)


def test_spectrum_csv_format(small_grid, rng, tmp_path):
    spec = forward_transform(random_signal(small_grid, rng))
    path = tmp_path / "spec.csv"
    spectrum_to_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_index,re,im"
    assert len(lines) == small_grid.samples + 1
    assert lines[1].startswith("-32,")
