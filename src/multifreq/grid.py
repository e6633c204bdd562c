"""Sampled torus, discrete Fourier pair, and frequency bookkeeping.

The spatial domain is a circle of circumference ``period`` sampled at
``samples`` equally spaced points.  The dual lattice carries frequencies
``n / period`` for integer ``n`` in ``[-samples/2, samples/2)``.  The
transform pair is normalized so that it is unitary between the measures

* space:     ``h = period / samples`` per sample,
* frequency: ``1 / period`` per lattice point,

which makes ``||spectrum||_2 == ||signal||_2`` hold exactly and keeps
multiplier operators honest isometries where they should be.

Storage layout: arrays over the lattice are in ascending index order, so
index ``n`` sits at position ``n + samples/2``, and a dyadic tile of
width ``2^-k`` spans ``period / 2^k`` lattice cells.  ``TorusGrid.slot``
and ``TorusGrid.tile_cells`` are the only owners of these two facts;
everything else asks them.  Likewise every CSV the package writes goes
through ``write_csv``, which alone decides how a cell is formatted.
FFT order is known only to the transform pair and to the two multiply
kernels every multiplier goes through, ``_multiply_rows`` and ``_multiply_each``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ResolutionError

__all__ = [
    "TorusGrid",
    "Signal",
    "Spectrum",
    "FrequencySet",
    "DyadicFreqInterval",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "write_csv",
    "signal_to_csv",
    "signal_from_csv",
    "spectrum_to_csv",
]


def _is_pow2(n) -> bool:
    return isinstance(n, numbers.Integral) and n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Sampling geometry: a period-``period`` circle with ``samples`` cells."""

    period: int = 128
    samples: int = 2 ** 15

    def __post_init__(self):
        if not _is_pow2(self.period):
            raise ValueError(f"period must be a power of two, got {self.period}")
        if not _is_pow2(self.samples):
            raise ValueError(f"samples must be a power of two, got {self.samples}")
        if self.samples < 4 * self.period:
            raise ValueError(
                f"samples must be at least 4*period ({4 * self.period}), got {self.samples}"
            )

    @property
    def h(self) -> float:
        """Spatial cell width."""
        return self.period / self.samples

    @property
    def freq_step(self) -> float:
        """Spacing of the frequency lattice."""
        return 1.0 / self.period

    @property
    def finest_scale(self) -> int:
        """Largest k whose 2^-k tiles still span a lattice cell: log2(period)."""
        return int(self.period).bit_length() - 1

    def tile_cells(self, k: int) -> int:
        """Lattice cells spanned by one dyadic tile of width 2^-k."""
        if k > self.finest_scale:
            raise ResolutionError(
                f"dyadic scale 2^-{k} is below the lattice step 1/{self.period}"
            )
        return 2 ** (self.finest_scale - k)

    def slot(self, n):
        """Array position of lattice index ``n`` (an int or an index array)."""
        return n + self.samples // 2

    def positions(self) -> np.ndarray:
        """Sample points x_i = i*h in [0, period)."""
        return np.arange(self.samples) * self.h

    def freq_indices(self) -> np.ndarray:
        """Integer frequency indices n in [-samples/2, samples/2)."""
        return np.arange(-(self.samples // 2), self.samples // 2)

    def frequencies(self) -> np.ndarray:
        """Physical frequencies n/period, ascending."""
        return self.freq_indices() / self.period

    def index_of_freq(self, xi: float) -> int:
        """Lattice index of a physical frequency; raises if off-lattice."""
        n = xi * self.period
        n_round = int(round(n))
        if abs(n - n_round) > 1e-9:
            raise ValueError(f"frequency {xi} is not on the lattice (step {self.freq_step})")
        if not (-self.samples // 2 <= n_round < self.samples // 2):
            raise ValueError(f"frequency {xi} outside the resolvable band")
        return n_round


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


def _freeze(values: np.ndarray) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.complex128)
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class Signal:
    """Complex samples over a TorusGrid, one value per spatial cell."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.grid.samples,):
            raise ValueError(f"expected {self.grid.samples} samples, got shape {vals.shape}")
        object.__setattr__(self, "values", _freeze(vals))

    def norm1(self) -> float:
        return float(self.grid.h * np.sum(np.abs(self.values)))

    def norm2(self) -> float:
        return float(np.sqrt(self.grid.h * np.sum(np.abs(self.values) ** 2)))

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other: "Signal") -> "Signal":
        _check_same_grid(self, other)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        _check_same_grid(self, other)
        return Signal(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Signal":
        return Signal(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Spectrum:
    """Complex values on the frequency lattice, ascending index order."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.grid.samples,):
            raise ValueError(f"expected {self.grid.samples} lattice values, got shape {vals.shape}")
        object.__setattr__(self, "values", _freeze(vals))

    def norm2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) / self.grid.period))

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other: "Spectrum") -> "Spectrum":
        _check_same_grid(self, other)
        return Spectrum(self.grid, self.values + other.values)

    def __sub__(self, other: "Spectrum") -> "Spectrum":
        _check_same_grid(self, other)
        return Spectrum(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Spectrum":
        return Spectrum(self.grid, self.values * scalar)

    __rmul__ = __mul__


def forward_transform(sig: Signal) -> Spectrum:
    """Spectrum values F_n = h * sum_i f(x_i) e(-n i / samples)."""
    vals = sig.grid.h * np.fft.fftshift(np.fft.fft(sig.values))
    return Spectrum(sig.grid, vals)


def inverse_transform(spec: Spectrum) -> Signal:
    """Inverse of :func:`forward_transform`; f(x_i) = (1/period) * sum_n F_n e(n i / samples)."""
    vals = np.fft.ifft(np.fft.ifftshift(spec.values)) / spec.grid.h
    return Signal(spec.grid, vals)


def _multiply_rows(rows: np.ndarray, symbol: np.ndarray, h: float) -> None:
    """Apply the ascending-order ``symbol`` in place to every row of
    ``rows``, a writable complex128 array of signals.  Position p of the
    symbol meets FFT bin (p - samples/2) mod samples, and numpy transforms
    each row as it would transform that row alone."""
    half = rows.shape[-1] // 2
    np.fft.fft(rows, out=rows)
    rows *= h
    rows[..., :half] *= symbol[half:]
    rows[..., half:] *= symbol[:half]
    np.fft.ifft(rows, out=rows)
    rows /= h


def _multiply_each(values: np.ndarray, symbols, h: float, count: int) -> np.ndarray:
    """The (count, samples) stack of ``values`` under each of the ``count``
    ascending symbols that ``symbols`` yields, one forward transform for
    all rows; row k has the bits of ``apply_multiplier`` with symbol k."""
    half = values.shape[-1] // 2
    spec = np.fft.fft(values)
    spec *= h
    stack = np.empty((count, values.shape[-1]), dtype=np.complex128)
    for row, symbol in zip(stack, symbols):
        np.multiply(spec[:half], symbol[half:], out=row[:half])
        np.multiply(spec[half:], symbol[:half], out=row[half:])
    del spec
    np.fft.ifft(stack, out=stack)
    stack /= h
    return stack


def apply_multiplier(sig: Signal, symbol: Spectrum) -> Signal:
    """Multiply the spectrum of ``sig`` by ``symbol`` and transform back."""
    _check_same_grid(sig, symbol)
    vals = sig.values.copy()
    _multiply_rows(vals, symbol.values, sig.grid.h)
    return Signal(sig.grid, vals)


@dataclass(frozen=True)
class FrequencySet:
    """A finite set of distinct frequency-lattice points inside the open
    Nyquist band, kept sorted.  ``indices`` are integer lattice indices."""

    grid: TorusGrid
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.size == 0:
            raise ValueError("frequency set must be nonempty")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("indices must be integers (lattice units)")
        idx = np.unique(idx.astype(np.int64))
        if idx.size != np.asarray(self.indices).size:
            raise ValueError("frequencies must be distinct")
        nyq_idx = self.grid.samples // 2
        if idx[0] <= -nyq_idx or idx[-1] >= nyq_idx:
            raise ValueError("frequencies must lie strictly inside the Nyquist band")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_frequencies(cls, grid: TorusGrid, freqs) -> "FrequencySet":
        """Build from physical frequencies; each must sit on the lattice."""
        idx = np.array([grid.index_of_freq(x) for x in np.atleast_1d(freqs)], dtype=np.int64)
        return cls(grid, idx)

    @property
    def n(self) -> int:
        return int(self.indices.size)

    def frequencies(self) -> np.ndarray:
        return self.indices / self.grid.period

    @property
    def min_gap(self) -> float:
        """Smallest physical gap between consecutive frequencies (inf for one point)."""
        if self.n < 2:
            return float("inf")
        return float(np.min(np.diff(self.indices)) / self.grid.period)

    @property
    def separated(self) -> bool:
        """True when the set is 1-separated."""
        return self.min_gap >= 1.0


@dataclass(frozen=True)
class DyadicFreqInterval:
    """Half-open dyadic frequency interval [m*2^-k, (m+1)*2^-k).

    ``xi_rep`` optionally pins a representative frequency (lattice units,
    as an integer index) used when the interval carries a modulation.
    """

    grid: TorusGrid
    k: int
    m: int
    xi_rep_index: int | None = field(default=None)

    def __post_init__(self):
        lo_idx, hi_idx = self.index_range()
        nyq = self.grid.samples // 2
        if lo_idx < -nyq or hi_idx > nyq:
            raise ValueError("interval exceeds the resolvable band")
        if self.xi_rep_index is not None:
            if not (lo_idx <= self.xi_rep_index < hi_idx):
                raise ValueError("representative frequency outside the interval")

    @property
    def width(self) -> float:
        return 2.0 ** (-self.k)

    @property
    def lo(self) -> float:
        return self.m * self.width

    @property
    def hi(self) -> float:
        return (self.m + 1) * self.width

    def index_range(self) -> tuple[int, int]:
        """Lattice index range [lo_idx, hi_idx) covered by the interval."""
        span = self.grid.tile_cells(self.k)
        return self.m * span, (self.m + 1) * span

    @property
    def xi_rep(self) -> float:
        if self.xi_rep_index is None:
            raise ValueError("no representative frequency set")
        return self.xi_rep_index / self.grid.period

    def indicator(self) -> np.ndarray:
        """Exact lattice indicator of the interval (ascending index order)."""
        lo_idx, hi_idx = self.index_range()
        n = self.grid.freq_indices()
        return ((n >= lo_idx) & (n < hi_idx)).astype(np.float64)


# ---------------------------------------------------------------------------
# serialization

def _cell(v) -> str:
    """One output cell: flags as 0/1, floats to 17 significant digits (so
    every non-NaN double reads back exactly; a NaN is written ``nan`` and
    loses its sign and payload bits), anything else as ``str``."""
    # bool before int: str(True) is "True"
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)


def write_csv(path, header: str, rows) -> None:
    """Write ``header``, then one comma-separated line per row of cells."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def signal_to_csv(sig: Signal, path) -> None:
    vals = sig.values
    write_csv(path, "index,re,im", zip(range(vals.size), vals.real, vals.imag))


def signal_from_csv(grid: TorusGrid, path) -> Signal:
    """Read ``signal_to_csv`` output; every index in [0, samples) must
    appear exactly once."""
    vals = np.zeros(grid.samples, dtype=np.complex128)
    seen = np.zeros(grid.samples, dtype=bool)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "index,re,im":
            raise ValueError(f"unexpected header {header!r}")
        for line in fh:
            i_s, re_s, im_s = line.strip().split(",")
            i = int(i_s)
            if not 0 <= i < grid.samples or seen[i]:
                raise ValueError(f"index {i} is outside [0, {grid.samples}) or repeated")
            seen[i] = True
            vals[i] = complex(float(re_s), float(im_s))
    if not seen.all():
        raise ValueError(f"expected {grid.samples} rows, got {int(seen.sum())}")
    return Signal(grid, vals)


def spectrum_to_csv(spec: Spectrum, path) -> None:
    vals = spec.values
    write_csv(path, "freq_index,re,im", zip(spec.grid.freq_indices(), vals.real, vals.imag))
