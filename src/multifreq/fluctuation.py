"""Variation norms, covering numbers, and entropy functionals.

Everything here works on finite sequences of points in a complex
inner-product space.  Points are flattened to real coordinates internally,
so a length-n sequence in C^d is treated as n points in R^(2d) with the
usual Euclidean metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import write_csv

__all__ = [
    "variation_norm",
    "variation_dp",
    "min_enclosing_ball",
    "entropy_count",
    "EntropyProfile",
    "entropy_profile",
    "entropy_integral",
    "lambda_entropy_sup",
    "symbol_vr_norm",
    "profile_to_csv",
]

_EXACT_LIMIT = 12
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


def variation_dp(pts: np.ndarray, q: float) -> np.ndarray:
    """Homogeneous q-variation along axis 0 of real points (n, D[, M]), one
    result per trailing column, by exact DP over the pairs j < i only.
    It works in blocks of ``_DP_BLOCK`` columns, in O(n * _DP_BLOCK)
    memory beyond its M results.  Squared distances sum the coordinates in
    sequence, d_0^2 + d_1^2 + ..., whatever the memory layout of ``pts``.
    The turning-point reduction ``variation_norm`` runs first is exact
    only for q >= 1 and one moving coordinate."""
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
    return out.reshape(pts.shape[2:])


def variation_norm(seq, q: float, mode: str = "homogeneous") -> float:
    """q-variation of a finite sequence.

    homogeneous: sup over increasing subsequences k_1 < ... < k_m of
    (sum ||c_{k_j} - c_{k_{j-1}}||^q)^(1/q), by ``variation_dp`` after two
    exact reductions.  nonhomogeneous adds sup_k ||c_k|| (``vq_dk`` takes
    the maximum of the two instead)."""
    if not 1 <= q < math.inf:
        raise ValueError("q must be finite and >= 1")
    if mode not in ("homogeneous", "nonhomogeneous"):
        raise ValueError(f"unknown mode {mode!r}")
    # coordinate-major copy, so the O(n) passes reduce along the long axis
    xs = np.ascontiguousarray(_as_real_points(seq).T)
    sup_term = float(np.sqrt(np.max(np.sum(xs * xs, axis=0))))
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
    hom = float(variation_dp(xs.T, q))
    if mode == "homogeneous":
        return hom
    return hom + sup_term


# ---------------------------------------------------------------------------
# smallest enclosing balls

def _circumball(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Ball with all given points on its boundary and center in their
    affine hull (least-squares when the points are affinely dependent)."""
    p0 = pts[0]
    if pts.shape[0] == 1:
        return p0, 0.0
    v = pts[1:] - p0
    g = 2.0 * (v @ v.T)
    b = np.sum(v * v, axis=1)
    w, *_ = np.linalg.lstsq(g, b, rcond=None)
    center = p0 + w @ v
    radius = float(np.max(np.sqrt(np.sum((pts - center) ** 2, axis=1))))
    return center, radius


def _welzl(pts: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, float]:
    """Move-to-front Welzl (Gaertner, ESA 1999): each recursion level adds
    one boundary point, so the depth is at most dim + 1 for any n."""
    dim = pts.shape[1]
    order = list(order)

    def go(end: int, boundary: list[int]) -> tuple[np.ndarray, float]:
        if boundary:
            center, radius = _circumball(pts[boundary])
        else:
            center, radius = pts[0] * 0.0, -1.0
        if len(boundary) == dim + 1:
            return center, radius
        for i in range(end):
            idx = order[i]
            d = float(np.sqrt(np.sum((pts[idx] - center) ** 2)))
            if d > radius * (1 + 1e-12) + 1e-15:
                center, radius = go(i, boundary + [idx])
                order.insert(0, order.pop(i))
        return center, radius

    return go(len(order), [])


def min_enclosing_ball(points) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest ball containing all points."""
    pts = _as_real_points(points)
    order = np.random.default_rng(12345).permutation(pts.shape[0])
    center, radius = _welzl(pts, order)
    if radius < 0:
        return pts[0], 0.0
    return center, max(radius, 0.0)


def _subset_ball_radii(pts: np.ndarray) -> np.ndarray:
    """radii[mask] = smallest enclosing ball radius of the point subset.

    Exact for every subset: the optimal ball appears among circumballs of
    boundary subsets, and no enclosing candidate can beat the optimum.
    """
    n = pts.shape[0]
    cand_r = np.empty(1 << n)
    cand_cover = np.zeros(1 << n, dtype=np.int64)
    for t in range(1, 1 << n):
        members = [i for i in range(n) if t >> i & 1]
        center, r = _circumball(pts[members])
        d = np.sqrt(np.sum((pts - center) ** 2, axis=1))
        cover = 0
        tol = r * (1 + 1e-12) + 1e-15
        for i in range(n):
            if d[i] <= tol:
                cover |= 1 << i
        cand_r[t] = r
        cand_cover[t] = cover
    radii = np.full(1 << n, np.inf)
    radii[0] = 0.0
    for s in range(1, 1 << n):
        best = np.inf
        t = s
        while t:
            if cand_cover[t] & s == s and cand_r[t] < best:
                best = cand_r[t]
            t = (t - 1) & s
        radii[s] = best
    return radii


# ---------------------------------------------------------------------------
# covering numbers

def _insertion_radii(pts: np.ndarray) -> np.ndarray:
    """Farthest-point traversal radii r_2 >= r_3 >= ... starting from
    index 0; r_i is the distance of the i-th chosen point from the
    previously chosen set.  Ties pick the lowest index."""
    n = pts.shape[0]
    radii = np.empty(n - 1) if n > 1 else np.empty(0)
    min_dist = np.sqrt(np.sum((pts - pts[0]) ** 2, axis=1))
    for step in range(n - 1):
        nxt = int(np.argmax(min_dist))
        radii[step] = min_dist[nxt]
        d = np.sqrt(np.sum((pts - pts[nxt]) ** 2, axis=1))
        np.minimum(min_dist, d, out=min_dist)
    return radii


def entropy_count(points, lam: float, method: str = "greedy") -> int:
    """Number of radius-``lam`` balls needed to cover the points.

    greedy: size of a farthest-point packing with pairwise distances > lam
    (an upper bound on the exact covering number, and a valid cover by
    balls centered at the chosen points).  exact: true minimum over
    arbitrary centers, practical up to 12 points.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    pts = _as_real_points(points)
    n = pts.shape[0]
    if method == "greedy":
        radii = _insertion_radii(pts)
        return int(1 + np.sum(radii > lam))
    if method == "exact":
        if n > _EXACT_LIMIT:
            raise ValueError(f"exact method limited to {_EXACT_LIMIT} points, got {n}")
        radii = _subset_ball_radii(pts)
        tol = lam * (1 + 1e-12) + 1e-15
        full = (1 << n) - 1
        cover = np.full(1 << n, n + 1, dtype=np.int64)
        cover[0] = 0
        for s in range(1, 1 << n):
            low = s & -s
            t = s
            best = n + 1
            while t:
                if t & low and radii[t] <= tol:
                    c = cover[s ^ t] + 1
                    if c < best:
                        best = c
                t = (t - 1) & s
            cover[s] = best
        return int(cover[full])
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class EntropyProfile:
    """Covering-number profile of a point set under the greedy method.

    ``radii`` are the farthest-point insertion radii (descending); the
    greedy count at level lam is ``1 + #{radii > lam}``.  ``rho`` is the
    smallest enclosing ball radius: one ball suffices at lam >= rho, and
    the truncated convention used by the entropy functionals sets the
    effective count to 0 there.
    """

    radii: np.ndarray
    rho: float
    n_points: int

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=np.float64)
        r.setflags(write=False)
        object.__setattr__(self, "radii", r)

    @property
    def breakpoints(self) -> np.ndarray:
        """Ascending distinct positive levels where the count changes."""
        pos = self.radii[self.radii > 0]
        return np.unique(pos)

    def count(self, lam: float) -> int:
        if lam <= 0:
            raise ValueError("lam must be positive")
        if lam >= self.rho:
            return 1
        return int(1 + np.sum(self.radii > lam))


def entropy_profile(points) -> EntropyProfile:
    pts = _as_real_points(points)
    radii = _insertion_radii(pts)
    _, rho = min_enclosing_ball(pts)
    return EntropyProfile(radii, rho, pts.shape[0])


def _profile_segments(profile: EntropyProfile):
    """Yield (a, b, count) with count constant on [a, b), covering (0, rho)."""
    rho = profile.rho
    if rho <= 0:
        return
    nodes = [0.0]
    for r in profile.breakpoints:
        if 0.0 < r < rho:
            nodes.append(float(r))
    nodes.append(rho)
    radii = profile.radii
    for a, b in zip(nodes[:-1], nodes[1:]):
        # greedy count is constant on [a, b); evaluate it at the left edge
        count = int(1 + np.sum(radii > a))
        yield a, b, count


def entropy_integral(points, n_freq: int, q: float, kind: str = "tech") -> float:
    """Integral over lam in (0, rho) of an entropy-controlled integrand.

    kind "tech": min(M^(1/2), n_freq^(1/2) * M^(1/q)) with q > 2;
    kind "b33":  min(M^(1/2), n_freq^(1/2)).
    M is the (truncated) greedy covering count at level lam, piecewise
    constant, so the integral is a finite exact sum.
    """
    if n_freq < 1:
        raise ValueError("n_freq must be at least 1")
    if kind == "tech":
        if not q > 2:  # NaN fails too
            raise ValueError("kind 'tech' requires q > 2")
    elif kind != "b33":
        raise ValueError(f"unknown kind {kind!r}")
    profile = entropy_profile(points)
    total = 0.0
    for a, b, m in _profile_segments(profile):
        if kind == "tech":
            g = min(np.sqrt(m), np.sqrt(n_freq) * m ** (1.0 / q))
        else:
            g = min(np.sqrt(m), np.sqrt(n_freq))
        total += (b - a) * g
    return float(total)


def lambda_entropy_sup(points, r: float) -> float:
    """sup over lam in (0, rho) of lam * M_lam^(1/r), evaluated exactly
    at the left limits of the profile breakpoints.  Requires r > 2."""
    if not r > 2:  # NaN fails too
        raise ValueError("r must be > 2")
    profile = entropy_profile(points)
    best = 0.0
    for _, b, m in _profile_segments(profile):
        best = max(best, b * m ** (1.0 / r))
    return float(best)


def symbol_vr_norm(values, r: float) -> float:
    """Nonhomogeneous r-variation norm of lattice symbol samples:
    sup |g| plus the homogeneous r-variation along the window."""
    vals = np.asarray(values)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("expected a nonempty 1-d array of symbol samples")
    return variation_norm(vals, r, mode="nonhomogeneous")


def profile_to_csv(profile: EntropyProfile, path) -> None:
    """Rows (lambda, count) at each breakpoint; a leading row gives the
    count just above level zero and a trailing row the truncation radius."""
    rows = [(0, int(1 + np.sum(profile.radii > 0)))]
    rows += [(bp, profile.count(float(bp))) for bp in profile.breakpoints if bp < profile.rho]
    if profile.rho > 0:
        rows.append((profile.rho, 1))
    write_csv(path, "lambda,count", rows)
