"""Multiplier operators over scale windows and rough interval families.

Builds the projection-style operators out of the grid transforms: smooth
scale-window sums, their pointwise variation seminorm across scales, a
sharp maximal function over shrinking frequency neighborhoods, and rough
interval multipliers applied either directly or through their layer
decompositions.  Sharp cutoffs stay sharp on purpose; ringing in space
is part of the object being measured, not an artifact to smooth away.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bumps import build_dk_symbol
from .errors import SymbolSupportError
from .fluctuation import variation_dp
from .grid import (
    FrequencySet,
    Signal,
    Spectrum,
    TorusGrid,
    _check_same_grid,
    _freeze,
    _multiply_each,
    apply_multiplier,
    forward_transform,  # noqa: F401  unused; perfbench/tests wraps this binding
)
from .symbols import vr_layer_decompose

__all__ = [
    "ScaleRange",
    "RoughMultiplierSpec",
    "default_scale_range",
    "dk_apply",
    "vq_dk",
    "sharp_maximal",
    "rough_T",
    "rvar_M",
]


@dataclass(frozen=True)
class ScaleRange:
    """Inclusive range of dyadic scale exponents k (windows of width 2^-k)."""

    k_min: int
    k_max: int

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ValueError("empty scale range")

    def scales(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def __len__(self) -> int:
        return self.k_max - self.k_min + 1


def default_scale_range(grid: TorusGrid) -> ScaleRange:
    # every dyadic width from half a unit down to one lattice cell
    return ScaleRange(1, grid.finest_scale)


def _as_int(name: str, value) -> int:
    # numpy integers pass; a float is refused even when it is whole
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_q(q: float) -> None:
    # written so that NaN fails too
    if not 2 < q < math.inf:
        raise ValueError("variation exponent q must exceed 2 and be finite")


class _IntervalSymbols(Sequence):
    """Full-lattice symbols stored as their values on their intervals.

    Item i is built when accessed: a read-only complex array, zero off
    interval i and equal to ``values[i]`` on it.
    """

    def __init__(self, grid: TorusGrid, intervals, values):
        self._grid = grid
        self._intervals = tuple(intervals)
        self._values = tuple(values)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        start = self._grid.slot(self._intervals[i][0])
        vals = self._values[i]
        arr = np.zeros(self._grid.samples, dtype=np.complex128)
        arr[start : start + len(vals)] = vals
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class RoughMultiplierSpec:
    """Finite family of disjoint frequency intervals, each carrying either
    a bounded coefficient or a full symbol supported inside it.

    ``intervals`` are half-open lattice index pairs [lo, hi).  Exactly one
    of ``coefficients`` (complex, modulus at most 1) and ``symbols``
    (full-lattice arrays, one per interval) must be given.  The spec keeps
    a read-only copy of each symbol's values on its interval, and reads
    back ``symbols`` as a sequence of read-only full-lattice arrays, each
    built when accessed; the caller's arrays are left as they are.  ``r``
    is the variation exponent the layered ``rvar_M`` path decomposes with.
    """

    grid: TorusGrid
    intervals: tuple[tuple[int, int], ...]
    coefficients: np.ndarray | None = None
    symbols: Sequence[np.ndarray] | None = None
    r: float = 2.0

    def __post_init__(self):
        if len(self.intervals) == 0:
            raise ValueError("spec needs at least one interval")
        if (self.coefficients is None) == (self.symbols is None):
            raise ValueError("provide exactly one of coefficients or symbols")
        if not 1 <= self.r < math.inf:
            raise ValueError("variation exponent r must be finite and >= 1")
        grid = self.grid
        half = grid.samples // 2
        order = sorted(range(len(self.intervals)), key=lambda i: self.intervals[i][0])
        ivs = []
        for i in order:
            lo, hi = (_as_int("every interval bound", v) for v in self.intervals[i])
            if not (-half <= lo < hi <= half):
                raise ValueError("interval outside the resolvable band")
            ivs.append((lo, hi))
        for (_, b), (c, _) in zip(ivs, ivs[1:]):
            if b > c:
                raise SymbolSupportError("intervals overlap")
        object.__setattr__(self, "intervals", tuple(ivs))

        # the single multiplier, summed once for every application to share
        slot = grid.slot
        acc = np.zeros(grid.samples, dtype=np.complex128)
        if self.coefficients is not None:
            coef = np.asarray(self.coefficients, dtype=np.complex128)
            if coef.shape != (len(ivs),):
                raise ValueError("one coefficient per interval required")
            # written so that NaN fails too
            if not np.all(np.abs(coef) <= 1.0 + 1e-12):
                raise ValueError("coefficients must be finite with modulus at most 1")
            object.__setattr__(self, "coefficients", _freeze(coef[order]))
            for (lo, hi), d in zip(ivs, self.coefficients):
                acc[slot(lo) : slot(hi)] = d
        else:
            if len(self.symbols) != len(ivs):
                raise ValueError("one symbol per interval required")
            vals = []
            for i, (lo, hi) in zip(order, ivs):
                member = np.asarray(self.symbols[i], dtype=np.complex128)
                if member.shape != (grid.samples,):
                    raise ValueError("symbols must live on the full lattice")
                start, stop = slot(lo), slot(hi)
                if not np.isfinite(member[start:stop]).all():
                    raise ValueError("symbol values must be finite")
                if member[:start].any() or member[stop:].any():
                    # NaN and inf are nonzero too, and they are refused as such
                    if not np.isfinite(member).all():
                        raise ValueError("symbol values must be finite")
                    raise SymbolSupportError("symbol is supported outside its interval")
                vals.append(_freeze(member[start:stop].copy()))
                del member  # one member on the full lattice at a time
                # the bits of acc += member: off its interval the member is
                # +-0.0, and adding +-0.0 to a cell that is not -0.0 (acc
                # starts at +0.0, so no cell is) changes nothing
                acc[start:stop] += vals[-1]
            object.__setattr__(self, "symbols", _IntervalSymbols(grid, ivs, vals))
        object.__setattr__(self, "_assembled", Spectrum(grid, acc))

    def assembled_symbol(self) -> Spectrum:
        """Single multiplier: sum of coefficient indicators or of symbols.

        Built with the spec; every call returns the same read-only
        ``Spectrum``.
        """
        return self._assembled


def dk_apply(f: Signal, sigma: FrequencySet, k: int, variant: str = "tiled") -> Signal:
    """Apply the scale-k window sum over the frequency set to f."""
    _check_same_grid(f, sigma)
    return apply_multiplier(f, build_dk_symbol(sigma, k, variant))


def vq_dk(
    f: Signal,
    sigma: FrequencySet,
    q: float,
    scale_range: ScaleRange | None = None,
    mode: str = "nonhomogeneous",
    variant: str = "tiled",
    *,
    symbols: Sequence[Spectrum] | None = None,
) -> Signal:
    """Pointwise q-variation of the scale-window outputs across scales.

    At each grid point the finite sequence k -> (window sum at scale k
    applied to f)(x) is reduced to its q-variation; nonhomogeneous mode
    takes the maximum of that and the pointwise supremum over scales
    (``variation_norm`` adds the two instead).

    ``symbols``, if given, holds ``build_dk_symbol(sigma, k, variant)`` for
    each k of the scale range in order, so callers applying one operator
    many times build the stack once.
    """
    _check_q(q)
    if mode not in ("homogeneous", "nonhomogeneous"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_same_grid(f, sigma)
    if scale_range is None:
        scale_range = default_scale_range(f.grid)
    f.grid.tile_cells(scale_range.k_max)  # raises ResolutionError below the lattice step
    if symbols is None:
        symbols = (build_dk_symbol(sigma, k, variant) for k in scale_range.scales())
    elif len(symbols) != len(scale_range):
        raise ValueError(f"expected {len(scale_range)} symbols, one per scale")
    else:
        for sym in symbols:
            _check_same_grid(f, sym)
    stack = _multiply_each(f.values, (s.values for s in symbols), f.grid.h, len(scale_range))
    # the stack's real and imaginary parts as (K, 2, samples) points, a view
    pts = stack.view(np.float64).reshape(len(stack), f.grid.samples, 2).transpose(0, 2, 1)
    out = variation_dp(pts, q)
    if mode == "nonhomogeneous":
        out = np.maximum(out, np.max(np.abs(stack), axis=0))
    return Signal(f.grid, out.astype(np.complex128))


def sharp_maximal(
    f: Signal, sigma: FrequencySet, scale_range: ScaleRange | None = None
) -> Signal:
    """Pointwise maximum over scales of the sharp projection onto the
    closed 2^-j neighborhood of the frequency set."""
    _check_same_grid(f, sigma)
    grid = f.grid
    if scale_range is None:
        scale_range = default_scale_range(grid)

    def mask(j):
        rad = grid.tile_cells(j)
        out = np.zeros(grid.samples, dtype=bool)
        for n in sigma.indices:
            out[max(grid.slot(int(n) - rad), 0) : grid.slot(int(n) + rad + 1)] = True
        return out

    stack = _multiply_each(f.values, map(mask, scale_range.scales()), grid.h, len(scale_range))
    return Signal(grid, np.max(np.abs(stack), axis=0).astype(np.complex128))


def rough_T(f: Signal, spec: RoughMultiplierSpec) -> Signal:
    """Sharp indicator multiplier with one bounded coefficient per interval."""
    if spec.coefficients is None:
        raise ValueError("rough_T needs a coefficient spec")
    _check_same_grid(f, spec)
    return apply_multiplier(f, spec.assembled_symbol())


def rvar_M(
    f: Signal, spec: RoughMultiplierSpec, path: str = "direct", tol: float = 1e-3
) -> Signal:
    """Interval-symbol multiplier, either assembled directly or rebuilt
    from the layer decomposition of each member symbol.

    The layered path drops each member's decomposition remainder, so the
    two paths agree within the layer tolerance times the signal norm.
    """
    if spec.symbols is None:
        raise ValueError("rvar_M needs a symbol spec")
    _check_same_grid(f, spec)
    if path == "direct":
        return apply_multiplier(f, spec.assembled_symbol())
    if path != "layered":
        raise ValueError(f"unknown path {path!r}")
    grid = spec.grid
    acc = np.zeros(grid.samples, dtype=np.complex128)
    for sym in spec.symbols:
        layered = vr_layer_decompose(Spectrum(grid, sym), spec.r, tol)
        # linearity: accumulating every layer of every member into one
        # multiplier equals applying the layers one at a time.  Each cell
        # takes one addition per layer, in layer order; a cell between
        # two pieces adds +0.0, which changes nothing, since a sum that
        # starts at +0.0 never reads -0.0
        for j in range(len(layered.layers)):
            start, span = layered.layer_span(j)
            acc[start : start + span.shape[0]] += span
    return apply_multiplier(f, Spectrum(grid, acc))
