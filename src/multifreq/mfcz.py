"""Height-threshold decomposition of a signal relative to a frequency set.

``f = good + sum_J b_J`` where the bad atoms ``b_J`` live on dilated
stopping intervals and are orthogonal, up to a reported residual, to every
exponential ``e(xi_j x)`` from the frequency set.  The stopping rule uses
dyadic averages against the height ``lam / sqrt(N)``; the good part on
each atom projects the local signal onto the exponentials on the dilated
interval, which gives the least-norm function matching all N moments.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import DegenerateInputError
from .grid import FrequencySet, Signal, TorusGrid, write_csv

__all__ = [
    "CZInterval",
    "CZDecomposition",
    "CZReport",
    "select_intervals",
    "moment_match",
    "mfcz_decompose",
    "verify_mfcz",
    "cz_reports_to_csv",
]

TOL_ORTH = 1e-8

# most atoms of one size matched as one stack, which bounds the stack's
# exponentials to _ATOM_STACK * N * 3 * size values
_ATOM_STACK = 32


def _cell_exponentials(grid: TorusGrid, sigma: FrequencySet, cells: np.ndarray) -> np.ndarray:
    """Matrices E[b, j, i] = e(-xi_j * x_i) over each row b of cells."""
    x = cells * grid.h
    xi = sigma.frequencies()
    e = -2j * np.pi * (xi[:, None] * x[:, None, :])
    return np.exp(e, out=e)


@dataclass(frozen=True)
class CZInterval:
    """One stopping interval with its atom.

    J is the dyadic interval of cells [start_cell, start_cell + n_cells)
    (never wrapping), ``triple_cells`` its concentric 3-fold dilation taken
    modulo the period.  ``g_values`` and ``b_values`` are stored compactly
    on ``triple_cells``.
    """

    grid: TorusGrid
    start_cell: int
    n_cells: int
    triple_cells: np.ndarray
    f_values: np.ndarray  # f restricted to J
    g_values: np.ndarray  # on `triple_cells`
    b_values: np.ndarray  # on `triple_cells`
    gram_min_sv: float  # smallest singular value of the Gram, relative to largest
    moment_residual: float  # max_j |h (E b)_j|, the worst moment of b

    @property
    def measure(self) -> float:
        return self.n_cells * self.grid.h


@dataclass(frozen=True)
class CZDecomposition:
    signal: Signal
    lam: float
    sigma: FrequencySet
    good: Signal
    atoms: tuple[CZInterval, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class CZReport:
    lam: float
    n_freq: int
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    min_gram_sv: float


def select_intervals(f: Signal, lam: float, n_freq: int) -> list[tuple[int, int]]:
    """Maximal dyadic intervals with |f|-average strictly above lam/sqrt(N).

    Returns (start_cell, n_cells) pairs, sorted by start.  The dyadic tree
    runs from the whole period down to single cells; selecting the root
    means the decomposition degenerates, which is an error.
    """
    # written so that NaN fails too
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    if n_freq < 1:
        raise ValueError("n_freq must be at least 1")
    if not np.all(np.isfinite(f.values)):
        raise ValueError("signal samples must be finite")
    mags = np.abs(f.values)
    if not np.any(mags > 0):
        raise ValueError("signal must be nonzero")
    threshold = lam / np.sqrt(n_freq)
    m = f.grid.samples
    cum = np.concatenate([[0.0], np.cumsum(mags)])
    if (cum[m] - cum[0]) / m > threshold:
        raise DegenerateInputError(
            "average height exceeds lam/sqrt(N) on the whole torus; decomposition degenerate"
        )
    # level by level: every average of one size at once, each computed as
    # (cum[start + size] - cum[start]) / size; a node is open while no
    # ancestor lies above the threshold
    selected: list[tuple[int, int]] = []
    open_nodes = np.ones(1, dtype=bool)
    size = m
    while size > 1 and open_nodes.any():
        size //= 2
        open_nodes = np.repeat(open_nodes, 2)
        above = (cum[size::size] - cum[:-size:size]) / size > threshold
        selected.extend((int(i) * size, size) for i in np.flatnonzero(open_nodes & above))
        open_nodes &= ~above
    selected.sort()
    return selected


def _triple_cells(grid: TorusGrid, starts: np.ndarray, size: int) -> np.ndarray:
    """(len(starts), 3 * size) cells of the concentric 3-fold dilations of
    the intervals [start, start + size), taken modulo the period."""
    if 3 * size * grid.h > grid.period:
        raise DegenerateInputError(
            f"dilated interval of {3 * size} cells does not fit in the torus"
        )
    return (starts[:, None] + np.arange(-size, 2 * size)) % grid.samples


def moment_match(f_vals: np.ndarray, sigma: FrequencySet, triple_cells: np.ndarray):
    """Least-norm g on the dilated interval whose moments against e(xi_j x)
    match those of f_J, which sits on the middle third of ``triple_cells``.

    Returns (g, relative smallest Gram singular value, residual
    max_j |h (E b)_j| of b = f_J - g).  f_J itself solves h E g = h E f_J,
    so g is its orthogonal projection onto the span of the e(xi_j x) on
    the dilation: one SVD of E, cut at numpy's rank tolerance (as ``lstsq``
    with ``rcond=None``).  A projection never increases the L2 norm.  The
    Gram h E E^* is singular when N exceeds the dilation's cells.

    A stack of B atoms of one size, f_vals (B, size) with triple_cells
    (B, 3 * size), shares one exponential, one stacked SVD and one stacked
    projection per kept rank, and returns (B, 3 * size) g with (B,)
    arrays of the two diagnostics; each row has the bits of its own call.
    """
    grid = sigma.grid
    h = grid.h
    f_rows = np.atleast_2d(f_vals)
    cells = np.atleast_2d(triple_cells)
    size = f_rows.shape[1]
    e_3j = _cell_exponentials(grid, sigma, cells)
    _, sv, vh = np.linalg.svd(e_3j, full_matrices=False)
    ranks = np.count_nonzero(
        sv > sv[:, :1] * max(e_3j.shape[1:]) * np.finfo(np.float64).eps, axis=1
    )
    f_pad = np.zeros(cells.shape + (1,), dtype=np.complex128)
    f_pad[:, size:2 * size, 0] = f_rows
    g_vals = np.empty_like(f_pad)
    for rank in np.unique(ranks).tolist():
        rows = np.flatnonzero(ranks == rank)
        v_k = vh[rows, :rank]
        g_vals[rows] = v_k.conj().transpose(0, 2, 1) @ (v_k @ f_pad[rows])
    full = sigma.n <= sv.shape[1]
    # row by row on NumPy scalars, the arithmetic of a call per atom
    rel_min_sv = np.array([float((s[-1] / s[0]) ** 2) if full else 0.0 for s in sv])
    resid = np.max(np.abs(h * (e_3j @ (f_pad - g_vals))), axis=(1, 2))
    g_vals = g_vals[..., 0]
    if np.ndim(f_vals) == 1:
        return g_vals[0], float(rel_min_sv[0]), float(resid[0])
    return g_vals, rel_min_sv, resid


def _build_atoms(f: Signal, sigma: FrequencySet, starts: np.ndarray, size: int) -> list[CZInterval]:
    """The atoms on [start, start + size) for each start, matched as one stack."""
    grid = f.grid
    triple = _triple_cells(grid, starts, size)
    f_vals = f.values[starts[:, None] + np.arange(size)]
    g_vals, rel_min_sv, resid = moment_match(f_vals, sigma, triple)
    # b = f_J - g on the dilation; J sits at offsets [size, 2*size) within it
    b_vals = -g_vals
    b_vals[:, size:2 * size] += f_vals
    return [
        CZInterval(
            grid=grid,
            start_cell=start,
            n_cells=size,
            triple_cells=triple[i],
            f_values=f.values[start:start + size],
            g_values=g_vals[i],
            b_values=b_vals[i],
            gram_min_sv=float(rel_min_sv[i]),
            moment_residual=float(resid[i]),
        )
        for i, start in enumerate(starts.tolist())
    ]


def mfcz_decompose(f: Signal, lam: float, sigma: FrequencySet) -> CZDecomposition:
    """Split f into a good part and moment-free atoms at height lam.

    The atoms of one size are matched in stacks of up to ``_ATOM_STACK``."""
    intervals = select_intervals(f, lam, sigma.n)
    by_start = {}
    for size in sorted({n for _, n in intervals}):
        starts = np.array([s for s, n in intervals if n == size], dtype=np.int64)
        for i in range(0, starts.shape[0], _ATOM_STACK):
            chunk = _build_atoms(f, sigma, starts[i:i + _ATOM_STACK], size)
            by_start.update((a.start_cell, a) for a in chunk)
    atoms = tuple(by_start[s] for s, _ in intervals)
    bad = np.zeros(f.grid.samples, dtype=np.complex128)
    for atom in atoms:
        bad[atom.triple_cells] += atom.b_values
    good = Signal(f.grid, f.values - bad)
    return CZDecomposition(signal=f, lam=lam, sigma=sigma, good=good, atoms=atoms)


def verify_mfcz(dec: CZDecomposition) -> CZReport:
    """Dimensionless constants of the decomposition contract.

    c1: max_J sqrt(N)||f 1_J||_1 / (lam |J|)        (height of selected averages)
    c2: max_J ||g_J||_2 / (|J|^(1/2) lam)           (good-atom size)
    c3: ||good||_2^2 / (sqrt(N) lam ||f||_1)        (global good part)
    c4: lam * sum |J| / (sqrt(N) ||f||_1)           (total selected measure)
    c5: max_J ||b_J||_1 / (lam |J|)                 (bad-atom mass)
    c6: max_{J,j} |moment residual| / ||f_J||_1     (orthogonality)
    """
    f = dec.signal
    lam = dec.lam
    n_freq = dec.sigma.n
    h = f.grid.h
    rt_n = np.sqrt(n_freq)
    norm1 = f.norm1()
    c1 = c2 = c5 = c6 = 0.0
    total_measure = 0.0
    min_sv = 1.0
    for atom in dec.atoms:
        meas = atom.measure
        total_measure += meas
        l1_local = h * float(np.sum(np.abs(atom.f_values)))
        c1 = max(c1, rt_n * l1_local / (lam * meas))
        g2 = np.sqrt(h * float(np.sum(np.abs(atom.g_values) ** 2)))
        c2 = max(c2, g2 / (np.sqrt(meas) * lam))
        b1 = h * float(np.sum(np.abs(atom.b_values)))
        c5 = max(c5, b1 / (lam * meas))
        c6 = max(c6, atom.moment_residual / l1_local)
        min_sv = min(min_sv, atom.gram_min_sv)
    c3 = dec.good.norm2() ** 2 / (rt_n * lam * norm1)
    c4 = lam * total_measure / (rt_n * norm1)
    return CZReport(
        lam=lam, n_freq=n_freq,
        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6,
        min_gram_sv=min_sv,
    )


def cz_reports_to_csv(reports, path) -> None:
    """One row per decomposition: lambda, N, C1..C6, worst Gram diagnostic."""
    header = "lambda,n_freq,c1,c2,c3,c4,c5,c6,min_gram_sv"
    write_csv(path, header, (astuple(r) for r in reports))
