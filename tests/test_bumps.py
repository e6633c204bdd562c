"""Bump profiles and dyadic window symbols.

Smoothness is checked by a finite-difference scan: no closed form for the
second derivative is assumed anywhere, the bound is measured on the lattice.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifreq import (
    BUMP_SHAPES,
    FrequencySet,
    ResolutionError,
    TorusGrid,
    build_dk_symbol,
    bump_profile,
    dk_tiles,
    smoothstep,
)


def fd_second_derivative_max(values, step):
    d2 = (values[2:] - 2 * values[1:-1] + values[:-2]) / step ** 2
    return float(np.max(np.abs(d2)))


# --------------------------------------------------------------------------
# smoothstep and raw profiles


def test_smoothstep_endpoints():
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(2.0) == 1.0
    assert smoothstep(0.5) == pytest.approx(0.5)


def test_smoothstep_monotone_and_symmetric():
    t = np.linspace(0, 1, 1001)
    s = smoothstep(t)
    assert np.all(np.diff(s) >= 0)
    # S(t) + S(1-t) = 1 by construction
    assert np.allclose(s + smoothstep(1 - t), 1.0, atol=1e-15)


def test_profile_plateau_and_support():
    for kind, (plateau, support) in BUMP_SHAPES.items():
        assert bump_profile(kind, 0.0) == 1.0
        assert bump_profile(kind, plateau) == 1.0
        assert bump_profile(kind, -plateau) == 1.0
        assert bump_profile(kind, support) == 0.0
        assert bump_profile(kind, support + 0.5) == 0.0
        mid = (plateau + support) / 2
        assert 0.0 < bump_profile(kind, mid) < 1.0


def test_profile_values_at_reference_points():
    assert bump_profile("psi", 0.0) == 1.0
    assert bump_profile("phi", 0.75) == 0.0
    assert bump_profile("A", 1.4) == 1.0
    assert bump_profile("A", 1.6) == 0.0


def test_profile_even_and_bounded(rng):
    x = rng.uniform(-3, 3, size=2000)
    for kind in BUMP_SHAPES:
        v = bump_profile(kind, x)
        assert np.array_equal(v, bump_profile(kind, -x))
        assert np.all((0.0 <= v) & (v <= 1.0))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        bump_profile("box", 0.0)


def test_bump_second_difference_bound(default_grid):
    # measured curvature of the scale-1 profiles stays well under 400
    step = default_grid.freq_step
    xi = default_grid.frequencies()
    for kind in ("phi", "psi", "A"):
        m = fd_second_derivative_max(bump_profile(kind, xi), step)
        assert m <= 400.0, f"{kind}: measured second-difference max {m}"


# --------------------------------------------------------------------------
# dyadic window symbols


def tiled_symbol_oracle(sigma, k):
    """Literal sum over occupied tiles, evaluated at every lattice point."""
    grid = sigma.grid
    xi = grid.frequencies()
    span = 2 ** (int(np.log2(grid.period)) - k)
    reps = {}
    for n in sigma.indices:
        m = int(n) // span
        reps[m] = min(reps.get(m, int(n)), int(n))
    acc = np.zeros(grid.samples)
    for rep in reps.values():
        acc += bump_profile("phi", (xi - rep / grid.period) * 2.0 ** k)
    return acc


@pytest.fixture(scope="module")
def sigma_grid():
    # band is (-64, 64), wide enough for the frequency sets below
    return TorusGrid(period=128, samples=2 ** 14)


def test_tiled_symbol_matches_oracle(sigma_grid):
    sigma = FrequencySet.from_frequencies(sigma_grid, [-5.0, 0.0, 0.125, 3.0, 3.25, 40.0])
    for k in (0, 1, 3, 5, 7):
        got = build_dk_symbol(sigma, k, variant="tiled").values.real
        assert np.max(np.abs(got - tiled_symbol_oracle(sigma, k))) <= 1e-14


def test_single_frequency_symbol_peak(sigma_grid):
    sigma = FrequencySet.from_frequencies(sigma_grid, [0.0])
    for k in (0, 4):
        sym = build_dk_symbol(sigma, k)
        assert sym.values[sigma_grid.samples // 2].real == 1.0


def test_symbol_vanishes_away_from_windows(sigma_grid):
    sigma = FrequencySet.from_frequencies(sigma_grid, [0.0, 10.0])
    k = 1
    sym = build_dk_symbol(sigma, k, variant="separated")
    xi = sigma_grid.frequencies()
    dist = np.minimum(np.abs(xi - 0.0), np.abs(xi - 10.0))
    far = dist > 2.0 ** (-k - 1)
    assert np.all(sym.values[far] == 0.0)


def test_symbol_value_range(sigma_grid):
    sigma = FrequencySet.from_frequencies(sigma_grid, [0.0, 1.0, 2.0, 3.0])
    sym = build_dk_symbol(sigma, 0).values.real
    assert np.all(sym >= 0.0)
    assert np.all(sym <= sigma.n * 1.0 + 1e-15)


def test_variants_coincide_on_isolated_tiles(sigma_grid):
    # every tile holds exactly one frequency, so both forms give one
    # window per frequency centered at that frequency
    sigma = FrequencySet.from_frequencies(sigma_grid, [0.0, 3.0, 7.0, 20.0])
    for k in (0, 2, 5):
        sep = build_dk_symbol(sigma, k, variant="separated")
        til = build_dk_symbol(sigma, k, variant="tiled")
        assert np.array_equal(sep.values, til.values)


def test_tiled_merges_crowded_tiles(sigma_grid):
    # two frequencies in one width-1 tile produce a single window at the
    # smaller one; the separated variant refuses such a set
    sigma = FrequencySet.from_frequencies(sigma_grid, [3.0, 3.25])
    tiles = dk_tiles(sigma, 0)
    assert len(tiles) == 1
    assert tiles[0].xi_rep == 3.0
    with pytest.raises(ValueError):
        build_dk_symbol(sigma, 0, variant="separated")


def test_tiles_cover_and_represent(sigma_grid):
    sigma = FrequencySet.from_frequencies(sigma_grid, [-5.0, 0.5, 0.625, 12.0])
    for k in (1, 3):
        tiles = dk_tiles(sigma, k)
        # every frequency belongs to exactly one listed tile
        for n in sigma.indices:
            hits = [t for t in tiles if t.index_range()[0] <= n < t.index_range()[1]]
            assert len(hits) == 1
        for t in tiles:
            lo, hi = t.index_range()
            members = [n for n in sigma.indices if lo <= n < hi]
            assert t.xi_rep_index == min(members)


def test_symbol_scale_validation(sigma_grid):
    sigma = FrequencySet.from_frequencies(sigma_grid, [0.0])
    with pytest.raises(ResolutionError):
        build_dk_symbol(sigma, 8)
    with pytest.raises(ValueError):
        build_dk_symbol(sigma, 0, variant="boxcar")


def per_center_symbol(sigma, k, variant):
    """The symbol with phi evaluated afresh at every center, over that
    center's support clipped to the band."""
    grid = sigma.grid
    if variant == "separated":
        centers = [int(n) for n in sigma.indices]
    else:
        centers = [tile.xi_rep_index for tile in dk_tiles(sigma, k)]
    w = grid.tile_cells(k) // 2
    nyq = grid.samples // 2
    acc = np.zeros(grid.samples, dtype=np.float64)
    for c in centers:
        lo, hi = max(c - w, -nyq), min(c + w, nyq - 1)
        if lo > hi:
            continue
        n = np.arange(lo, hi + 1)
        acc[grid.slot(n)] += bump_profile("phi", (n - c) / grid.period * 2.0 ** k)
    return acc.astype(np.complex128)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(0, 5), st.integers(2, 4), st.sampled_from(["tiled", "separated"]))
def test_symbol_has_the_bytes_of_a_window_made_per_center(data, log_period, extra, variant):
    # centers near the band edges clip their window; in the separated
    # variant, k below 0 makes windows as wide as the band (tiles that
    # wide would leave it)
    grid = TorusGrid(period=2**log_period, samples=2 ** (log_period + extra))
    nyq = grid.samples // 2
    if variant == "separated":
        slots = range(-(nyq // grid.period) + 1, nyq // grid.period)
        picks = data.draw(st.lists(st.sampled_from(slots), min_size=1, max_size=8, unique=True))
        indices = [m * grid.period for m in picks]
    else:
        indices = data.draw(
            st.lists(st.integers(-nyq + 1, nyq - 1), min_size=1, max_size=12, unique=True)
        )
    sigma = FrequencySet(grid, np.array(indices))
    k = data.draw(st.integers(-2 if variant == "separated" else 0, grid.finest_scale))
    got = build_dk_symbol(sigma, k, variant).values
    assert got.tobytes() == per_center_symbol(sigma, k, variant).tobytes()
