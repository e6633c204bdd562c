"""Height-threshold decomposition of a signal relative to a frequency set.

``f = good + sum_J b_J`` where the bad atoms ``b_J`` live on dilated
stopping intervals and are orthogonal, up to a reported residual, to every
exponential ``e(xi_j x)`` from the frequency set.  The stopping rule uses
dyadic averages against the height ``lam / sqrt(N)``; the good part on
each atom projects the local signal onto the exponentials on the dilated
interval, which gives the least-norm function matching all N moments.
"""

from __future__ import annotations

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


def _cell_exponentials(grid: TorusGrid, sigma: FrequencySet, cells: np.ndarray) -> np.ndarray:
    """Matrix E[j, i] = e(-xi_j * x_i) over the given cells."""
    x = cells * grid.h
    xi = sigma.frequencies()
    return np.exp(-2j * np.pi * np.outer(xi, x))


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
    if lam <= 0:
        raise ValueError("lam must be positive")
    if n_freq < 1:
        raise ValueError("n_freq must be at least 1")
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


def _triple_cells(grid: TorusGrid, start: int, size: int) -> np.ndarray:
    if 3 * size * grid.h > grid.period:
        raise DegenerateInputError(
            f"dilated interval of {3 * size} cells does not fit in the torus"
        )
    return np.arange(start - size, start + 2 * size) % grid.samples


def moment_match(f_vals: np.ndarray, sigma: FrequencySet, triple_cells: np.ndarray):
    """Least-norm g on the dilated interval whose moments against e(xi_j x)
    match those of f_J, which sits on the middle third of ``triple_cells``.

    Returns (g, relative smallest Gram singular value, residual
    max_j |h (E b)_j| of b = f_J - g).  f_J itself solves h E g = h E f_J,
    so g is its orthogonal projection onto the span of the e(xi_j x) on
    the dilation: one SVD of E, cut at numpy's rank tolerance (as ``lstsq``
    with ``rcond=None``).  A projection never increases the L2 norm.  The
    Gram h E E^* is singular when N exceeds the dilation's cells.
    """
    grid = sigma.grid
    h = grid.h
    size = f_vals.shape[0]
    e_3j = _cell_exponentials(grid, sigma, triple_cells)
    _, sv, vh = np.linalg.svd(e_3j, full_matrices=False)
    v_k = vh[sv > sv[0] * max(e_3j.shape) * np.finfo(np.float64).eps]
    f_pad = np.zeros(triple_cells.shape[0], dtype=np.complex128)
    f_pad[size:2 * size] = f_vals
    g_vals = v_k.conj().T @ (v_k @ f_pad)
    rel_min_sv = float((sv[-1] / sv[0]) ** 2) if sigma.n <= sv.shape[0] else 0.0
    resid = float(np.max(np.abs(h * (e_3j @ (f_pad - g_vals)))))
    return g_vals, rel_min_sv, resid


def _build_atom(f: Signal, sigma: FrequencySet, start: int, size: int) -> CZInterval:
    grid = f.grid
    triple = _triple_cells(grid, start, size)
    f_vals = f.values[start:start + size]
    g_vals, rel_min_sv, resid = moment_match(f_vals, sigma, triple)
    # b = f_J - g on the dilation; J sits at offsets [size, 2*size) within it
    b_vals = -g_vals
    b_vals[size:2 * size] += f_vals
    return CZInterval(
        grid=grid,
        start_cell=start,
        n_cells=size,
        triple_cells=triple,
        f_values=f_vals,
        g_values=g_vals,
        b_values=b_vals,
        gram_min_sv=rel_min_sv,
        moment_residual=resid,
    )


def mfcz_decompose(f: Signal, lam: float, sigma: FrequencySet) -> CZDecomposition:
    """Split f into a good part and moment-free atoms at height lam."""
    intervals = select_intervals(f, lam, sigma.n)
    atoms = tuple(_build_atom(f, sigma, s, n) for s, n in intervals)
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
