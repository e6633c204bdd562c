"""Variation norms of finite sequences.

Everything here works on finite sequences of points in a complex
inner-product space.  Points are flattened to real coordinates internally,
so a length-n sequence in C^d is treated as n points in R^(2d) with the
usual Euclidean metric.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["variation_norm", "variation_dp", "symbol_vr_norm"]

_DP_BLOCK = 4096  # columns per variation_dp block


def _as_real_points(seq) -> np.ndarray:
    """(n,) or (n, d) complex/real input -> (n, D) float64 points."""
    arr = np.asarray(seq)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"expected a sequence of points, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("sequence must be nonempty")
    if np.iscomplexobj(arr):
        return np.concatenate([arr.real, arr.imag], axis=1).astype(np.float64)
    return arr.astype(np.float64)


def _pow2_shift(big: float) -> int:
    """Exponent of the power of two that brings a largest coordinate
    ``big`` into [2^-500, 2^500], where squares neither overflow nor
    underflow; 0 inside that range and for 0, inf or NaN."""
    if 0 < big < 2.0**-500 or 2.0**500 < big < math.inf:
        return math.frexp(big)[1]
    return 0


def variation_dp(pts: np.ndarray, q: float) -> np.ndarray:
    """Homogeneous q-variation along axis 0 of real points (n, D[, M]), one
    result per trailing column, by exact DP over the pairs j < i only.
    It works in blocks of ``_DP_BLOCK`` columns, in O(n * _DP_BLOCK)
    memory beyond its M results.  Squared distances sum the coordinates in
    sequence, d_0^2 + d_1^2 + ..., whatever the memory layout of ``pts``.
    The turning-point reduction ``variation_norm`` runs first is exact
    only for q >= 1 and one moving coordinate.  Points outside the range
    of ``_pow2_shift`` are scaled by a power of two, as in
    ``variation_norm``; inside it no copy is made."""
    shift = _pow2_shift(max(-np.min(pts, initial=0.0), np.max(pts, initial=0.0)))
    if shift:
        pts = np.ldexp(pts, -shift)
    n = len(pts)
    cols = pts.reshape(n, pts.shape[1], -1)
    dim, m = cols.shape[1:]
    width = min(m, _DP_BLOCK)
    out = np.empty(m)
    # column blocks with preallocated step buffers: each step writes into
    # the same few pages instead of mapping fresh temporaries
    best = np.zeros((n, width))
    diff = np.empty((n - 1) * width)
    term = np.empty((n - 1) * width)
    for b in range(0, m, _DP_BLOCK):
        blk = cols[..., b : b + _DP_BLOCK]
        w = blk.shape[2]
        acc = best[:, :w]
        for i in range(1, n):
            d = diff[: i * w].reshape(i, w)
            s = term[: i * w].reshape(i, w)
            np.subtract(blk[:i, 0], blk[i, 0], out=d)
            np.multiply(d, d, out=s)
            for c in range(1, dim):
                np.subtract(blk[:i, c], blk[i, c], out=d)
                d *= d
                s += d
            # **= takes the scalar fast paths of ** (q = 4 squares), so the
            # bits are those of **
            s **= 0.5 * q
            s += acc[:i]
            np.max(s, axis=0, out=acc[i])
        np.max(acc, axis=0, out=out[b : b + w])
    out **= 1.0 / q
    if shift:
        np.ldexp(out, shift, out=out)
    return out.reshape(pts.shape[2:])


def variation_norm(seq, q: float, mode: str = "homogeneous") -> float:
    """q-variation of a finite sequence.

    homogeneous: sup over increasing subsequences k_1 < ... < k_m of
    (sum ||c_{k_j} - c_{k_{j-1}}||^q)^(1/q), by ``variation_dp`` after two
    exact reductions.  nonhomogeneous adds sup_k ||c_k|| (``vq_dk`` takes
    the maximum of the two instead).

    Points whose largest coordinate lies outside [2^-500, 2^500] are
    scaled by an exact power of two, so their squares neither overflow
    nor underflow; steps more than 2^500 times smaller than the largest
    coordinate can still underflow."""
    if not 1 <= q < math.inf:
        raise ValueError("q must be finite and >= 1")
    if mode not in ("homogeneous", "nonhomogeneous"):
        raise ValueError(f"unknown mode {mode!r}")
    # coordinate-major copy, so the O(n) passes reduce along the long axis
    xs = np.ascontiguousarray(_as_real_points(seq).T)
    shift = _pow2_shift(float(np.max(np.abs(xs))))
    if shift:
        xs = np.ldexp(xs, -shift)
    # np.ldexp overflows to inf where math.ldexp raises; by 0 it is exact
    sup_term = float(np.ldexp(np.sqrt(np.max(np.sum(xs * xs, axis=0))), shift))
    # consecutive duplicates contribute nothing; dropping them is exact
    xs = xs[:, np.r_[True, np.any(xs[:, 1:] != xs[:, :-1], axis=0)]]
    moving = xs[np.any(xs != xs[:, :1], axis=1)]
    if len(moving) == 1:
        # with q >= 1 and one moving coordinate only the endpoints and the
        # turns count (Butkus & Norvaisa, Lith. Math. J. 2018); turns come
        # from step signs, as products of tiny steps underflow
        up = np.diff(moving[0]) > 0
        xs = moving[:, np.r_[True, up[1:] != up[:-1], True]]
    if xs.shape[1] > 8192:
        raise ValueError(
            "sequence has too many distinct consecutive values for the "
            "exact quadratic variation computation"
        )
    hom = float(np.ldexp(variation_dp(xs.T, q), shift))
    if mode == "homogeneous":
        return hom
    return hom + sup_term


def symbol_vr_norm(values, r: float) -> float:
    """Nonhomogeneous r-variation norm of lattice symbol samples:
    sup |g| plus the homogeneous r-variation along the window."""
    vals = np.asarray(values)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("expected a nonempty 1-d array of symbol samples")
    return variation_norm(vals, r, mode="nonhomogeneous")

