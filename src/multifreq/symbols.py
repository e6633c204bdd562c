"""Structural decompositions of frequency symbols.

Three constructions live here. ``vr_layer_decompose`` splits a bounded
variation symbol into dyadically refined step layers with controlled
piece counts and coefficient sizes. ``whitney_decompose`` partitions a
frequency interval into dyadic pieces that stay far from the boundary
relative to their own size, and ``window_system`` equips the partition
with a smooth partition of unity plus wide plateau windows. Finally
``windowed_expand`` expands a signal over modulated translates of a
scaled window and rebuilds the smoothly localized signal exactly from
the sampled coefficients.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bumps import bump_profile, plateau_profile, smoothstep
from .errors import ConstructionError, ResolutionError
from .fluctuation import variation_norm
from .grid import (
    DyadicFreqInterval,
    Signal,
    Spectrum,
    TorusGrid,
    _as_int,
    _check_same_grid,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    write_csv,
)

__all__ = [
    "LayerPiece",
    "LayeredSymbol",
    "vr_layer_decompose",
    "layered_to_csv",
    "WhitneyPiece",
    "WhitneySystem",
    "whitney_decompose",
    "whitney_to_csv",
    "WindowPiece",
    "WindowSystem",
    "window_system",
    "WindowExpansion",
    "windowed_expand",
]


# ---------------------------------------------------------------------------
# variation layers

@dataclass(frozen=True)
class LayerPiece:
    """One constant piece of a step layer, on lattice indices [lo, hi)."""

    lo: int
    hi: int
    coeff: complex

    @property
    def cells(self) -> int:
        return self.hi - self.lo


class _Layers(Sequence):
    """Step layers stored as arrays: level j is ``levels[j]``, the int64
    ``los`` and ``his`` and the complex ``coeffs`` of its pieces in
    ascending order.

    Item j is layer j's tuple of ``LayerPiece``.  The tuples are built on
    the first read of an item, so code that reads only the arrays builds
    none.
    """

    def __init__(self, levels):
        self.levels = tuple(levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, j):
        return self._pieces[j]

    @cached_property
    def _pieces(self) -> tuple[tuple[LayerPiece, ...], ...]:
        return tuple(
            tuple(map(LayerPiece, los.tolist(), his.tolist(), coeffs.tolist()))
            for los, his, coeffs in self.levels
        )


@dataclass(frozen=True)
class LayeredSymbol:
    """Step-layer expansion of a symbol of bounded r-variation.

    ``layers[j]`` holds disjoint constant pieces; adding every piece of
    every layer and then ``remainder`` reproduces the source symbol.
    Layer j uses at most 2^(j+1) + 2 pieces, each with coefficient
    modulus at most 3 * 2^(-j/r) * source_norm, and the remainder is
    uniformly below tol * source_norm.

    ``layers`` keeps each level's piece bounds and coefficients as
    arrays, which ``layer_span`` and ``piece_counts`` read; its items,
    tuples of ``LayerPiece``, are built on first read.  A sequence of
    such tuples may be passed instead, and is stored as arrays.
    """

    grid: TorusGrid
    r: float
    tol: float
    source_norm: float
    j_max: int
    layers: Sequence[tuple[LayerPiece, ...]]
    remainder: Spectrum

    def __post_init__(self):
        if not isinstance(self.layers, _Layers):
            levels = (
                (
                    np.array([p.lo for p in layer], dtype=np.int64),
                    np.array([p.hi for p in layer], dtype=np.int64),
                    np.array([p.coeff for p in layer], dtype=np.complex128),
                )
                for layer in self.layers
            )
            object.__setattr__(self, "layers", _Layers(levels))

    def layer_span(self, j: int) -> tuple[int, np.ndarray]:
        """Layer j as one dense run of cells: the array position of the
        first piece's lo, and the values from there to the last piece's
        hi, with +0.0 between pieces.  The pieces are taken in ascending
        order, as ``vr_layer_decompose`` builds them; an empty layer is
        an empty run."""
        los, his, coeffs = self.layers.levels[j]
        if not los.size:
            return 0, np.zeros(0, dtype=np.complex128)
        bounds = np.column_stack((los, his)).ravel()
        # piece, gap, piece, ..., piece: each gap ends where the next piece starts
        values = np.zeros(2 * los.size - 1, dtype=np.complex128)
        values[::2] = coeffs
        return self.grid.slot(int(los[0])), np.repeat(values, np.diff(bounds))

    def layer_values(self, j: int) -> np.ndarray:
        """Tabulate layer j on the full frequency lattice."""
        out = np.zeros(self.grid.samples, dtype=np.complex128)
        start, span = self.layer_span(j)
        # added, not assigned, so that each cell reads 0.0 + coeff, signed
        # zeros included
        out[start : start + span.shape[0]] += span
        return out

    def reconstruct(self) -> Spectrum:
        """Sum of all layers plus the remainder."""
        total = self.remainder.values.copy()
        for j in range(len(self.layers)):
            total += self.layer_values(j)
        return Spectrum(self.grid, total)

    @property
    def piece_counts(self) -> tuple[int, ...]:
        return tuple(los.size for los, _, _ in self.layers.levels)


# how many run starts after each run start the drift table covers, and
# how many (level, run start) pairs one pointer pass may take: as many
# levels as fit, at least one, so a pass's arrays stay this small (two
# levels of a 32768-run symbol; four raised its resident peak by 5 MiB)
_DRIFT_WIDTH = 16
_PASS_CELLS = 1 << 16

# how far past its table row the fallback first scans a position's tail,
# then grows the scan fourfold until it finds a stop or the end
_TAIL_SCAN = 256


def _tail_peaks(c: np.ndarray, pos: int, start: int, stop: int) -> np.ndarray:
    """Running max of |c[q] - c[pos]| over q in [start, stop): its first
    entry over eps marks the first cell there that drifts more than eps
    from ``c[pos]``.  The drifts have the bits of the drift table's."""
    return np.maximum.accumulate(np.abs(c[start:stop] - c[pos]))


def _run_starts(vals: np.ndarray) -> np.ndarray:
    """Index of the first cell of each run of equal values.  No other
    cell can be a stop: it is exactly as far from any value as the cell
    before it."""
    return np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])


def _drift_table(c: np.ndarray) -> np.ndarray:
    """(_DRIFT_WIDTH, len(c)) table of |c[p + 1 + t] - c[p]| in row t,
    NaN past the end, which no threshold test counts as a drift.  It
    holds the bits ``_tail_peaks`` reads for the same pairs."""
    padded = np.concatenate((c[1:], np.full(_DRIFT_WIDTH, np.nan, dtype=c.dtype)))
    later = np.lib.stride_tricks.sliding_window_view(padded, c.shape[0])
    return np.abs(later - c)


def _first_over(table: np.ndarray, thresholds) -> np.ndarray:
    """(len(thresholds), columns) array whose entry (i, p) is the first
    row t with table[t, p] > thresholds[i], or -1 where there is none;
    NaN never counts as over.

    One pass serves every threshold.  Down each column the running max
    is over a threshold from the first row over it on, so that row is
    the number of rows whose running max is at most the threshold.  One
    ``searchsorted`` against the sorted thresholds and one ``bincount``
    give those counts for all thresholds at once.
    """
    rows, cols = table.shape
    eps = np.asarray(thresholds, dtype=np.float64)
    order = np.argsort(eps, kind="stable")
    # running max down each column, a row at a time; fmax skips NaN, and
    # the -inf start makes a leading NaN never over
    peak = np.empty_like(table)
    np.fmax(table[0], -np.inf, out=peak[0])
    for t in range(1, rows):
        np.fmax(peak[t - 1], table[t], out=peak[t])
    # how many thresholds each running max exceeds, then one bin per
    # (count, column)
    exceeded = np.searchsorted(eps[order], peak)
    exceeded *= cols
    exceeded += np.arange(cols)
    counts = np.bincount(exceeded.ravel(), minlength=(eps.size + 1) * cols).reshape(-1, cols)
    np.cumsum(counts, axis=0, out=counts)
    first = counts[np.argsort(order)]
    first[first == rows] = -1
    return first


def _level_stops(c: np.ndarray, thresholds):
    """Yield the stops of ``c`` at each threshold in turn, one pass's
    levels at a time as a list of arrays: restart whenever the value
    drifts more than the threshold from the value at the previous stop.
    It ends early, after the first level that stops at every run start.

    Each level follows next-stop pointers from 0 in a plain loop.  The
    pointers of a pass's levels, ``_PASS_CELLS // len(c)`` of them or
    one, come from one ``_first_over`` call on the drift table.  A
    position with no stop in its table row falls back to the running max
    of its drift past the row, ``_tail_peaks``, which it keeps: a later
    level at that position, whose smaller threshold stops no later, reads
    its stop from it with one ``searchsorted``.
    """
    nc = c.shape[0]
    table = _drift_table(c)

    def fallback(pos: int, eps: float) -> int:
        start = pos + _DRIFT_WIDTH + 1
        tail = peaks.get(pos)
        while True:
            if tail is not None:
                i = int(tail.searchsorted(eps, "right"))
                if i < tail.shape[0] or start + i == nc:
                    return start + i
            size = _TAIL_SCAN if tail is None else 4 * tail.shape[0]
            tail = peaks[pos] = _tail_peaks(c, pos, start, min(start + size, nc))

    per_pass = max(1, _PASS_CELLS // nc)
    for lo in range(0, len(thresholds), per_pass):
        block = thresholds[lo:lo + per_pass]
        # the tails kept in one pass: within a level they do not overlap
        # and reach at most four times past the next stop
        peaks = {}
        nexts = _first_over(table, block)
        missing = nexts < 0
        nexts += np.arange(1, nc + 1)
        nexts[missing] = -1
        # a row that reaches the end and holds no stop ends the walk
        last_rows = nexts[:, max(nc - _DRIFT_WIDTH - 1, 0):]
        last_rows[last_rows < 0] = nc
        levels = []
        for eps, row in zip(block, nexts):
            # one level's pointers and stops as Python ints at a time
            row = row.tolist()
            stops = []
            append = stops.append
            pos = 0
            while pos < nc:
                append(pos)
                pos = row[pos]
                if pos < 0:
                    pos = fallback(stops[-1], eps)
            levels.append(np.array(stops, dtype=np.int64))
            if len(stops) == nc:
                break
        yield levels
        if len(stops) == nc:
            return


def _stop_positions(vals: np.ndarray, eps: float) -> np.ndarray:
    """Left-to-right stopping of ``vals`` at threshold eps, on the first
    cell of each run of equal values."""
    first = _run_starts(vals)
    return first[next(_level_stops(vals[first], [eps]))[0]]


def _layer_pieces(
    c: np.ndarray, bounds: np.ndarray, levels: list[np.ndarray], before: np.ndarray | None
) -> list:
    """Each level's pieces as (los, his, coefficients) arrays, the bounds
    read from ``bounds`` at the run indices where the pieces start and
    end.

    Layer j is the step approximant of ``levels[j]`` minus that of the
    level before (``before`` for the first; zero if it is None), on the
    breaks of either; a piece runs from one break to the next and is
    kept where the difference is nonzero.  All levels are formed at once
    from the stop that covers each run start at each level, one
    ``np.repeat``.
    """
    nc = c.shape[0]
    depth = len(levels)
    # with ``before``, row 0 of the arrays below is that level's
    skip = 0 if before is None else 1
    rows = levels if before is None else [before, *levels]
    # run indices: int32 halves the covering table below
    stops = np.concatenate(rows).astype(np.int32)
    counts = [s.shape[0] for s in rows]
    # covering[i * nc + p]: the stop of row i at or before run start p;
    # every row starts at 0 and runs to nc
    reach = np.append(stops[1:], nc)
    reach[np.cumsum(counts) - 1] = nc
    covering = np.repeat(stops, reach - stops)
    # the breaks of row i: its stops and those of row i - 1
    is_break = np.zeros(len(rows) * nc, dtype=bool)
    is_break[np.repeat(np.arange(0, len(rows) * nc, nc), counts) + stops] = True
    is_break[nc:] |= is_break[:-nc].copy()
    flat = np.flatnonzero(is_break[skip * nc:]) + skip * nc
    level, pos = np.divmod(flat, nc)
    level -= skip
    # the covering stop one row up; with no level before, level 0 reads
    # the appended 0j
    prev = np.where(flat >= nc, covering[flat - nc], nc)
    cz = np.append(c, 0j)
    d = cz[covering[flat]] - cz[prev]
    ends = np.append(pos[1:], nc)
    ends[np.flatnonzero(level[1:] != level[:-1])] = nc
    keep = np.flatnonzero(d != 0)
    cuts = [0, *np.searchsorted(level[keep], np.arange(1, depth)).tolist(), keep.shape[0]]
    los, his, coeffs = bounds[pos[keep]], bounds[ends[keep]], d[keep]
    return [(los[a:b], his[a:b], coeffs[a:b]) for a, b in zip(cuts, cuts[1:])]


def vr_layer_decompose(g: Spectrum, r: float, tol: float = 1e-3) -> LayeredSymbol:
    """Split a symbol into dyadic step layers by repeated stopping scans.

    Level j rescans the symbol with threshold 2^(-j/r) * v, where v is
    the symbol's nonhomogeneous r-variation; layer j is the difference
    of consecutive approximants. Scanning stops at the first level whose
    threshold is at most tol * v. A symbol whose approximant becomes
    exact early yields empty trailing layers and a zero remainder.

    Every level works on the first cell of each run of equal values,
    the only cells a scan can stop at, and the remainder is expanded to
    the full lattice once at the end.
    """
    if not 1 <= r < math.inf:
        raise ValueError("r must be finite and >= 1")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    grid = g.grid
    m_samp = grid.samples
    half = m_samp // 2
    vals = g.values
    first = _run_starts(vals)
    c = vals[first]
    # the run starts reduce to the sequence the full lattice reduces to
    v = variation_norm(c, r, mode="nonhomogeneous")
    if not math.isfinite(v):
        raise ValueError(
            f"symbol r-variation is {v!r}: a value is non-finite or the "
            "variation exceeds the float range"
        )
    if v == 0.0:
        zero = Spectrum(grid, np.zeros(m_samp, dtype=np.complex128))
        layer0 = (LayerPiece(-half, half, 0j),)
        return LayeredSymbol(grid, float(r), float(tol), 0.0, 0, (layer0,), zero)

    j_max = max(0, math.ceil(-r * math.log2(tol)))
    while j_max > 0 and 2.0 ** (-(j_max - 1) / r) <= tol:
        j_max -= 1
    while 2.0 ** (-j_max / r) > tol:
        j_max += 1

    # run k covers cells [bounds[k], bounds[k + 1]) and holds the value c[k]
    bounds = np.append(first, m_samp) - half
    levels = _level_stops(c, [2.0 ** (-j / r) * v for j in range(j_max + 1)])
    layers = []
    last = None
    for block in levels:
        layers += _layer_pieces(c, bounds, block, last)
        last = block[-1]
    no_bounds = np.zeros(0, dtype=np.int64)
    empty = (no_bounds, no_bounds, np.zeros(0, dtype=np.complex128))
    layers.extend([empty] * (j_max + 1 - len(layers)))
    # the remainder: the symbol minus the last level's approximant
    rest = np.repeat(c[last], np.diff(np.append(first[last], m_samp)))
    np.subtract(vals, rest, out=rest)
    return LayeredSymbol(
        grid, float(r), float(tol), float(v), int(j_max), _Layers(layers), Spectrum(grid, rest)
    )


def layered_to_csv(layered: LayeredSymbol, path) -> None:
    """Write one row per piece: level, lattice bounds, coefficient."""
    rows = (
        (j, p.lo, p.hi, p.coeff.real, p.coeff.imag)
        for j, layer in enumerate(layered.layers)
        for p in layer
    )
    write_csv(path, "j,interval_lo,interval_hi,re_d,im_d", rows)


# ---------------------------------------------------------------------------
# Whitney partitions

@dataclass(frozen=True)
class WhitneyPiece:
    """Dyadic piece [lo, hi) in lattice indices; flagged pieces sit so
    close to the boundary that the 100-fold dilation test failed at the
    minimum allowed size."""

    lo: int
    hi: int
    flagged: bool

    @property
    def cells(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class WhitneySystem:
    """Dyadic Whitney partition of a frequency interval.

    ``overlap_count`` is the measured maximum number of 20-fold dilated
    pieces covering a single lattice cell; ``per_scale_max`` the largest
    number of pieces sharing one size.
    """

    grid: TorusGrid
    omega_lo: int
    omega_hi: int
    min_cells: int
    pieces: tuple[WhitneyPiece, ...]
    overlap_count: int
    per_scale_max: int
    scale_counts: tuple[tuple[int, int], ...]

    def indicator(self) -> np.ndarray:
        n = self.grid.freq_indices()
        return ((n >= self.omega_lo) & (n < self.omega_hi)).astype(np.float64)


_MIN_OMEGA_CELLS = 4096


def whitney_decompose(
    grid: TorusGrid, omega_lo: int, omega_hi: int, min_cells: int = 1
) -> WhitneySystem:
    """Partition [omega_lo, omega_hi) into dyadic pieces u with the
    100-fold concentric dilation of every unflagged piece inside the
    interval. Pieces that would have to shrink below ``min_cells`` to
    satisfy the dilation test are emitted at size ``min_cells`` and
    flagged instead.
    """
    omega_lo = _as_int("omega_lo", omega_lo)
    omega_hi = _as_int("omega_hi", omega_hi)
    min_cells = _as_int("min_cells", min_cells)
    m_samp = grid.samples
    half = m_samp // 2
    if not (-half <= omega_lo < omega_hi <= half):
        raise ValueError("interval must lie inside the resolvable band")
    if omega_hi - omega_lo < _MIN_OMEGA_CELLS:
        raise ResolutionError(
            f"interval spans {omega_hi - omega_lo} cells; need at least {_MIN_OMEGA_CELLS}"
        )
    if min_cells < 1 or (min_cells & (min_cells - 1)) != 0:
        raise ConstructionError("min_cells must be a power of two")
    if min_cells > omega_hi - omega_lo:
        raise ConstructionError("min_cells exceeds the interval size")

    a0 = omega_lo + half
    b0 = omega_hi + half
    raw: list[tuple[int, int, bool]] = []
    stack = [(0, m_samp)]
    while stack:
        a, b = stack.pop()
        if b <= a0 or a >= b0:
            continue
        n = b - a
        if a >= a0 and b <= b0:
            if 2 * a - 99 * n >= 2 * a0 and 2 * b + 99 * n <= 2 * b0:
                raw.append((a, b, False))
                continue
            if n <= min_cells:
                raw.append((a, b, True))
                continue
        mid = a + n // 2
        stack.append((mid, b))
        stack.append((a, mid))
    # the left half is popped first, so the pieces come out in ascending order
    pieces = tuple(WhitneyPiece(a - half, b - half, fl) for a, b, fl in raw)

    # the 20-fold dilations, counted with one difference array: +1 where
    # each starts, -1 where it ends
    starts, ends = np.array([(a, b) for a, b, _ in raw], dtype=np.int64).T
    sizes = ends - starts
    steps = np.zeros(m_samp + 1, dtype=np.int64)
    np.add.at(steps, np.maximum(starts - (19 * sizes) // 2, 0), 1)
    np.add.at(steps, np.minimum(ends + (19 * sizes + 1) // 2, m_samp), -1)
    overlap = int(np.cumsum(steps).max())

    counts = Counter(b - a for a, b, _ in raw)
    scale_counts = tuple(sorted(counts.items()))
    per_scale = max(counts.values())
    return WhitneySystem(
        grid,
        omega_lo,
        omega_hi,
        min_cells,
        pieces,
        overlap,
        int(per_scale),
        scale_counts,
    )


def whitney_to_csv(system: WhitneySystem, path) -> None:
    """One row per piece plus the two measured partition constants."""
    rows = (
        (p.lo, p.hi, p.cells, p.flagged, system.overlap_count, system.per_scale_max)
        for p in system.pieces
    )
    write_csv(path, "piece_lo,piece_hi,cells,flagged,overlap_count,per_scale_max", rows)


# ---------------------------------------------------------------------------
# window families over a Whitney partition

@dataclass(frozen=True)
class WindowPiece:
    """Partition-of-unity member and plateau window for one piece.

    ``phi_values`` lives on lattice indices [phi_lo, phi_lo + len);
    ``window_values`` likewise from ``window_lo``. Both are read-only and
    may be shared with other members of the same shape. The envelope is
    the 4-fold concentric dilation of the piece, in lattice units.
    """

    piece: WhitneyPiece
    envelope: tuple[float, float]
    phi_lo: int
    phi_values: np.ndarray
    window_lo: int
    window_values: np.ndarray
    slope: float
    curvature: float


@dataclass(frozen=True)
class EtaScaleDiag:
    """Resolvability record for the unit-mass mollifier at one scale."""

    piece_cells: int
    mollifier_cells: float
    degenerate: bool


@dataclass(frozen=True)
class WindowSystem:
    """Whitney skeleton plus smooth windows.

    The ``phi`` family sums to the exact lattice indicator of the
    interval; each member is supported inside the envelope of its piece.
    ``curvature_max`` is the largest measured second difference of any
    member scaled by the square of its envelope length.
    """

    skeleton: WhitneySystem
    windows: tuple[WindowPiece, ...]
    slope_max: float
    curvature_max: float
    mollifier_diags: tuple[EtaScaleDiag, ...]

    @property
    def grid(self) -> TorusGrid:
        return self.skeleton.grid

    def sum_phi(self) -> np.ndarray:
        total = np.zeros(self.grid.samples, dtype=np.float64)
        for w in self.windows:
            lo = self.grid.slot(w.phi_lo)
            total[lo : lo + w.phi_values.shape[0]] += w.phi_values
        return total


def window_system(skeleton: WhitneySystem) -> WindowSystem:
    """Build the smooth partition of unity and plateau windows.

    Ascending ramps of half-width 0.75 * min(neighbor sizes) sit at each
    internal breakpoint; the interval's outer edges stay sharp.  Member i
    is the ramp at its left breakpoint minus the ramp at its right one,
    and ``sum_phi`` adds the members back up to the indicator bit for bit.
    Each distinct piece shape is evaluated once per call, and its members
    share the read-only arrays.
    """
    grid = skeleton.grid
    m_samp = grid.samples
    half = m_samp // 2
    pieces = skeleton.pieces
    last = len(pieces) - 1
    a0 = skeleton.omega_lo + half
    b0 = skeleton.omega_hi + half
    # ramp half-width at breakpoint i, between pieces i - 1 and i; the
    # outer edges 0 and last + 1 have no ramp
    widths = [0.0, *(0.75 * min(p.cells, q.cells) for p, q in zip(pieces, pieces[1:])), 0.0]

    # The members sum to exactly 1.0 with no repair.  No cell lies in three
    # ramps, and where ramps i and i + 1 meet, ramp i reads s >= smoothstep(2/3)
    # and ramp i + 1 reads t <= smoothstep(1/3).  sum_phi adds in piece order
    # from 0.0, so a cell gets (1 - s) + s or ((1 - s) + (s - t)) + t.  With
    # 1 - s exact (Sterbenz) and s - t in [1/2, 1], (1 - s) + fl(s - t) is
    # exact and within 2^-54 of 1 - t, so adding t rounds to 1.0; likewise
    # (1 - s) + s, since fl(1 - s) is within 2^-54 of 1 - s.
    #
    # Each shape is evaluated once.  cells - (p_lo - w_left),
    # cells - (p_hi - w_right) and w_cells - center are multiples of 1/4
    # far below 2^53, so they are exact and read the same bits at every
    # piece with the same size, ramp widths and bounds relative to p_lo.
    # Only the outer edges have a zero ramp width, so the widths also tell
    # the first and last pieces apart.  The members of one shape share its
    # read-only arrays.
    phis = {}
    plateaus = {}
    windows = []
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
        shape = (n, w_left, w_right, lo - p_lo, hi - p_lo)
        if shape not in phis:
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
            phi.setflags(write=False)

            padded = np.concatenate(([0.0], phi, [0.0]))
            d1 = padded[1:] - padded[:-1]
            d2 = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
            slope = float(np.max(np.abs(d1)) * 4.0 * n)
            curvature = float(np.max(np.abs(d2)) * 16.0 * n * n)
            slope_max = max(slope_max, slope)
            curvature_max = max(curvature_max, curvature)
            phis[shape] = phi, slope, curvature
        phi, slope, curvature = phis[shape]

        center = 0.5 * (p_lo + p_hi)
        w_lo = max(int(math.ceil(center - 7.5 * n)), 0)
        w_hi = min(int(math.floor(center + 7.5 * n)) + 1, m_samp)
        plateau = (n, w_lo - p_lo, w_hi - p_lo)
        if plateau not in plateaus:
            w_cells = np.arange(w_lo, w_hi, dtype=np.float64)
            w_vals = plateau_profile(w_cells - center, 5.0 * n, 7.5 * n)
            w_vals.setflags(write=False)
            plateaus[plateau] = w_vals

        envelope = (piece.lo - 1.5 * n, piece.hi + 1.5 * n)
        windows.append(
            WindowPiece(
                piece, envelope, lo - half, phi, w_lo - half, plateaus[plateau], slope, curvature
            )
        )

    diags = tuple(EtaScaleDiag(n, 0.008 * n, 0.008 * n < 8.0) for n, _ in skeleton.scale_counts)
    return WindowSystem(skeleton, tuple(windows), slope_max, curvature_max, diags)


# ---------------------------------------------------------------------------
# windowed expansion over modulated translates

@dataclass(frozen=True)
class WindowExpansion:
    """Coefficients and reconstruction of a smoothly localized signal.

    The reconstruction equals the action of the localized window symbol
    on the input, up to float roundoff, because the translate spacing is
    a quarter of the window length: every aliasing image of the analysis
    band lands where the synthesis window vanishes.
    """

    grid: TorusGrid
    omega: DyadicFreqInterval
    xi_rep_index: int
    shift_cells: int
    shift_count: int
    l_offsets: np.ndarray
    coefficients: np.ndarray
    reconstruction: Signal
    target: Signal
    rel_error: float
    mollifier_degenerate: bool
    l_trunc: int | None = None
    trunc_reconstruction: Signal | None = None
    trunc_error: float | None = None


def _synthesis_window(grid: TorusGrid, scale: float) -> tuple[np.ndarray, bool]:
    """Wide plateau window, mollified on the lattice when the mollifier
    support covers at least eight cells, else used directly."""
    freqs = grid.frequencies()
    base = bump_profile("A", freqs * scale)
    m_max = int(math.ceil(0.1 * grid.period / scale)) - 1
    if 2 * m_max + 1 < 8:
        return base, True
    m_range = np.arange(-m_max, m_max + 1)
    eta_raw = bump_profile("eta", m_range * scale / grid.period)
    # the sum includes eta(0) = 1, so it is positive
    total = float(np.sum(eta_raw))
    out = np.zeros_like(base)
    for m, weight in zip(m_range, eta_raw):
        out += np.roll(base, m) * weight
    return out / total, False


def windowed_expand(
    f: Signal, omega: DyadicFreqInterval, l_trunc: int | None = None
) -> WindowExpansion:
    """Expand f against modulated translates of a window at the scale of
    the dyadic interval and rebuild the localized signal.

    Coefficients are samples of the demodulated, window-filtered signal
    at translate spacing 2^k / 4. The reconstruction pairs them with a
    wide plateau synthesis window; the quarter spacing pushes all alias
    images outside its support, so the identity is exact on the lattice.
    """
    _check_same_grid(f, omega)
    grid = f.grid
    scale = 2.0 ** omega.k
    xi_rep = omega.xi_rep_index
    if xi_rep is None:
        xi_rep = omega.index_range()[0]
    m_samp = grid.samples
    cs_exact = m_samp * scale / (4.0 * grid.period)
    cs = int(round(cs_exact))
    if cs < 1 or abs(cs - cs_exact) > 1e-9:
        raise ResolutionError(
            "translate spacing is not a whole number of sample cells at this scale"
        )
    freqs = grid.frequencies()
    analysis = bump_profile("phi", freqs * scale)
    fhat = forward_transform(f)
    shifted = np.roll(fhat.values, -int(xi_rep)) * analysis
    u = inverse_transform(Spectrum(grid, shifted)).values

    shift_count = m_samp // cs
    l_offsets = np.arange(-(shift_count // 2), shift_count - shift_count // 2)
    sample_idx = (l_offsets * cs) % m_samp
    coeffs = u[sample_idx]

    synth, degenerate = _synthesis_window(grid, scale)
    phase = np.exp(2j * np.pi * (xi_rep / grid.period) * grid.positions())

    def rebuild(kept: np.ndarray) -> Signal:
        comb = np.zeros(m_samp, dtype=np.complex128)
        comb[sample_idx] = kept
        conv = apply_multiplier(Signal(grid, comb), Spectrum(grid, synth)).values
        return Signal(grid, cs * conv * phase)

    reconstruction = rebuild(coeffs)
    # window offsets wrap across the band edge, matching the torus
    # periodicity of the lattice transform
    half = m_samp // 2
    rel = ((grid.freq_indices() - int(xi_rep) + half) % m_samp) - half
    target_symbol = bump_profile("phi", (rel / grid.period) * scale)
    target = apply_multiplier(f, Spectrum(grid, target_symbol.astype(np.complex128)))
    denom = target.norm2()
    diff = (reconstruction - target).norm2()
    rel_error = diff / denom if denom > 0 else diff

    trunc_recon = None
    trunc_err = None
    if l_trunc is not None:
        if l_trunc < 0:
            raise ValueError("l_trunc must be nonnegative")
        kept = np.where(np.abs(l_offsets) <= l_trunc, coeffs, 0.0)
        trunc_recon = rebuild(kept)
        full_norm = reconstruction.norm2()
        tdiff = (trunc_recon - reconstruction).norm2()
        trunc_err = tdiff / full_norm if full_norm > 0 else tdiff

    return WindowExpansion(
        grid,
        omega,
        int(xi_rep),
        cs,
        shift_count,
        l_offsets,
        coeffs,
        reconstruction,
        target,
        rel_error,
        degenerate,
        l_trunc,
        trunc_recon,
        trunc_err,
    )
