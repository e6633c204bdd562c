"""Smooth compactly supported bump profiles and dyadic window symbols.

All bumps are built from one canonical smoothstep

    S(t) = s(t) / (s(t) + s(1-t)),   s(t) = exp(-1/t) for t > 0 else 0,

which rises from 0 at t=0 to 1 at t=1 with all derivatives vanishing at the
endpoints.  A profile is then flat 1 on [-plateau, plateau], 0 outside
[-support, support], and a rescaled smoothstep in between.
"""

from __future__ import annotations

import numpy as np

from .grid import DyadicFreqInterval, FrequencySet, Spectrum

__all__ = [
    "smoothstep",
    "plateau_profile",
    "bump_profile",
    "dk_tiles",
    "build_dk_symbol",
    "BUMP_SHAPES",
]

# kind -> (plateau half-width, support half-width) of the unit-scale profile
BUMP_SHAPES = {
    "phi": (0.25, 0.5),
    "psi": (0.25, 0.5),
    "A": (1.4, 1.6),
    "eta": (0.05, 0.1),
}


def smoothstep(t):
    """Canonical exp-based smoothstep, 0 for t<=0 and 1 for t>=1."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out if out.shape else float(out)


def plateau_profile(x, plateau: float, support: float):
    """Even profile equal to 1 on [-plateau, plateau], 0 outside
    (-support, support), smoothstep-interpolated in between."""
    if not 0.0 < plateau < support:
        raise ValueError("need 0 < plateau < support")
    ax = np.abs(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(ax)
    out[ax <= plateau] = 1.0
    mid = (ax > plateau) & (ax < support)
    out[mid] = smoothstep((support - ax[mid]) / (support - plateau))
    return out if out.shape else float(out)


def bump_profile(kind: str, x):
    """Evaluate the unit-scale profile of the given kind at points ``x``."""
    if kind not in BUMP_SHAPES:
        raise ValueError(f"unknown bump kind {kind!r}")
    plateau, support = BUMP_SHAPES[kind]
    return plateau_profile(x, plateau, support)


def dk_tiles(sigma: FrequencySet, k: int) -> list[DyadicFreqInterval]:
    """Dyadic tiles of width 2^-k meeting the frequency set.

    Each tile's representative is the smallest set frequency it contains.
    """
    span = sigma.grid.tile_cells(k)
    tiles: dict[int, int] = {}
    for n in sigma.indices:
        m = int(n) // span
        if m not in tiles or n < tiles[m]:
            tiles[m] = int(n)
    return [
        DyadicFreqInterval(sigma.grid, k, m, xi_rep_index=rep)
        for m, rep in sorted(tiles.items())
    ]


def build_dk_symbol(sigma: FrequencySet, k: int, variant: str = "tiled") -> Spectrum:
    """Symbol of the scale-k window sum over a frequency set.

    variant "separated": one width-2^-k window centered at each frequency;
    requires the set to be 1-separated.  variant "tiled": one window per
    dyadic tile of width 2^-k meeting the set, centered at the tile's
    smallest set frequency.
    """
    grid = sigma.grid
    w = grid.tile_cells(k) // 2  # raises ResolutionError below the lattice step
    if variant == "separated":
        if not sigma.separated:
            raise ValueError("separated variant requires a 1-separated frequency set")
        centers = [int(n) for n in sigma.indices]
    elif variant == "tiled":
        centers = [tile.xi_rep_index for tile in dk_tiles(sigma, k)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # phi((xi - xi_c) * 2^k) on its lattice support, half a tile either side
    # of a center; it is evaluated once and added at each center, clipped
    # to the band
    window = bump_profile("phi", np.arange(-w, w + 1) / grid.period * 2.0**k)
    nyq = grid.samples // 2
    acc = np.zeros(grid.samples, dtype=np.float64)
    for c in centers:
        lo, hi = max(c - w, -nyq), min(c + w + 1, nyq)
        acc[grid.slot(lo) : grid.slot(hi)] += window[lo - c + w : hi - c + w]
    return Spectrum(grid, acc.astype(np.complex128))
