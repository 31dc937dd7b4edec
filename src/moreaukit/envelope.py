"""Moreau envelope and proximal mapping via closed forms or a certified grid.

Every solve goes through prox_batch, which takes an (m, n) array of points
and a lam, either one for all rows or one per row, and answers with one
ProxBatch: numpy columns of the rows' envelope values, divergence flags and
radii, and their proximal representatives stored as in a CSR matrix.  It is
also the sequence of its rows as ProxResult views, and prox_map is its
batch of one.  A closed form is called once per batch, on the rows below
the certified threshold, each with its own lam: a catalog entry's, or the
exact one that parsing gives a separable sum of piecewise polynomials.
Other parsed functions, quadratic shifts, functions given by an evaluator
alone and grid views, replace(f, closed_form_prox=None), have none.  Every
other row is scanned with its own lam, by the grid oracle below it and by
an expanding divergence scan at or above it (_divergence_candidates), and
diverged when its scan leaves it no candidate.

The grid oracle evaluates the prox subproblem

    min_w  f(w) + ||w - x||^2 / (2 lam)

on a uniform grid of its own for each x.  The function's quadratic
lower-bound certificate and a feasible upper bound U on the envelope value
give a radius R certified to contain every proximal point, and the grid
spans x +- R; the bounds U of a whole batch come from one evaluator call,
and the grids of a whole batch are scanned together.  One rule reads every
grid, the coarse boxes that give U where x and the anchor are infeasible
too: _minima keeps its grid-local minima as blocks whose tensor product
they are, the least _MAX_CANDIDATES of each row and block.  When f is an
additively separable sum (FunctionSpec.terms, f(w) = sum_j g_j(w_j)), the
prox subproblem splits by coordinate (Parikh & Boyd, Proximal Algorithms,
2014, sec. 2.1): the grid's objective is the outer sum of one vector a_j =
g_j(w_j) + (w_j - x_j)^2 / (2 lam) per axis, so its grid-local minima are
the product of each axis's, found with O(n) term evaluations instead of
O(n^dim) rows (_axis_minima), one block per axis.  Every other function
takes the row scan, one x at a time, one block of width n (_row_minima).

A separable function in two dimensions or more then has one back end, its
closed form's: each axis's candidates of a row, its closed form's, or its
scan's refined once per axis (moreaukit.refine._axis_zoom), and a row's
candidates the product of its axes' near-best ones (_near_axes), never of
all (_solve_separable).  Other scanned rows zoom on the objective, in
1-D, or on the lattice of the whole space.  Each row's proximal points
are its candidates within VALUE_TOL of its best value, one mask over the
whole batch picks them (_pick), and only rows with more than one are
clustered, with a deterministic lexicographic tie-break.  The scans give
zoom points only, so each reported value is _objective at the row's first
representative, and an answer depends only on its own x and lam.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidFunctionValue,
    InvalidLambda,
    MultivaluedProx,
    NoFeasiblePoint,
    ThresholdExceeded,
)
from .functions import (
    FunctionSpec,
    QuadShift,
    _norms,
    _objective,
    _sq_norm,
    as_point,
    as_points,
    axis_product,
)
from .refine import _CHUNK_ROWS, _MAX_GRID_POINTS, _axis_zoom, _refine

_log = logging.getLogger(__name__)

_COARSE_INTERVALS = 16  # the coarse pass takes every s-th fine point, ~17 per axis
# the grid oracle's row scans of fewer rows skip the coarse pass: below
# about this size it cost more than the points it saved, timed when shifted
# catalog functions still took the row scan
_COARSE_MIN_ROWS = 40_000
# points per closed-form call, fewer where an axis's candidates would pass
# _CHUNK_ROWS: a batch of more than _CLOSED_FORM_PROBE points counts them at
# its first point, as many as at any other but the double well's 3, which fit
_CLOSED_FORM_ROWS = _CHUNK_ROWS // 16
_CLOSED_FORM_PROBE = _CHUNK_ROWS // 1024
_MAX_CANDIDATES = 50
# slots per term call of the batched per-axis scan (_axis_minima) but for
# a longer row, whose temporaries are a few blocks of this many slots per
# axis: in verify-catalog bench runs peak RSS was about 0.3 MB
# above that of one scan per row at 8,192 slots, as at 4,096, and 1.1 MB
# above at 16,384
_AXIS_CHUNK = 8_192
_EXPAND_STEPS = 6
# the largest lam a solve takes: 2 lam, the objective's denominator, is finite
_MAX_LAMBDA = float(np.finfo(float).max) / 2.0


# how far above the best objective value a candidate may lie and still
# count as a proximal point
VALUE_TOL = 1e-9
# proximal candidates closer than this many grid steps are one cluster
CLUSTER_STEPS = 10


@dataclass
class ProxResult:
    """Envelope value with clustered proximal representatives.

    diverged means the objective was detected to decrease without bound
    (envelope value -inf); minimizers is then empty and envelope_value is
    meaningless.  radius_used depends on the path that solved x: the
    certified search radius (search_radius) on the grid oracle, the
    distance from x to its farthest representative on a closed form, and
    at or above the threshold the radius of the divergence scan's grid that
    gave the candidates, or of its last grid where x diverged.
    """

    envelope_value: float
    minimizers: list
    diverged: bool
    radius_used: float


@dataclass(eq=False)
class ProxBatch(Sequence):
    """The answers of prox_batch for m points, as columns.

    Row i has the envelope value value[i], the divergence flag diverged[i]
    and the radius radius[i] (ProxResult's envelope_value, diverged and
    radius_used), and its proximal representatives are the rows
    points[offsets[i]:offsets[i + 1]] of the (k, n) array points, as in a
    CSR matrix: offsets has m + 1 entries, from 0 to k.  A diverged row has
    no points.  radius means what ProxResult.radius_used means on the path
    of its row: a certified search radius, the distance to the farthest
    closed-form representative, or a divergence scan's radius.
    The batch is also the sequence of its rows as ProxResult views, whose
    minimizers are views of points; a slice of it is the list of its rows,
    as list(batch)[i:j] is.
    """

    value: np.ndarray
    diverged: np.ndarray
    radius: np.ndarray
    points: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i) -> ProxResult | list[ProxResult]:
        i = range(len(self.value))[i]
        if isinstance(i, range):
            return [self[j] for j in i]
        P = self.points
        reps = [P[j] for j in range(self.offsets.item(i), self.offsets.item(i + 1))]
        return ProxResult(self.value.item(i), reps, self.diverged.item(i),
                          self.radius.item(i))


def _offsets(counts: np.ndarray) -> np.ndarray:
    """The CSR offsets of rows with counts[i] points each."""
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _gather(parts: list, rows: Optional[np.ndarray] = None) -> ProxBatch:
    """The rows of the batches parts stacked in order, or with stacked row
    j moved to position rows[j], rows a permutation of the stacked rows."""
    value, radius, diverged, points = (
        np.concatenate([getattr(p, a) for p in parts])
        for a in ("value", "radius", "diverged", "points"))
    counts = np.concatenate([np.diff(p.offsets) for p in parts])
    if rows is None:
        return ProxBatch(value, diverged, radius, points, _offsets(counts))
    order = np.argsort(rows)
    take = np.argsort(np.repeat(rows, counts), kind="stable")
    return ProxBatch(value[order], diverged[order], radius[order],
                     points[take], _offsets(counts[order]))


def _row_minima(f: FunctionSpec, lam: float, x: np.ndarray, offsets: np.ndarray,
                center: np.ndarray, coarse: bool = False):
    """The row scan, one x at a time: the points and objective values of
    the grid-local minima of f(w) + ||w - x||^2 / (2 lam) on the tensor
    grid whose j-th axis is center_j + offsets, all of them in C order, for
    _minima to cap.  With coarse, offsets are the grid oracle's
    +-R around x, and a grid of more than _COARSE_MIN_ROWS rows first finds
    the radius R1 on every s-th offset, then scans only the offsets within
    R1 plus one outward on each side."""
    def rows(o):
        axes = [o + c for c in center]
        vals = f.batch(axis_product(axes)).reshape((len(o),) * x.size)
        for j, a in enumerate(axes):
            d = a - x[j]
            vals += (d * d / (2.0 * lam)).reshape((-1,) + (1,) * (x.size - 1 - j))
        return vals

    if coarse and len(offsets) ** x.size > _COARSE_MIN_ROWS:
        stride = max(1, (len(offsets) - 1) // _COARSE_INTERVALS)
        U1 = float(np.min(rows(offsets[::stride])))
        if U1 < math.inf:
            inside = np.flatnonzero(np.abs(offsets) <= _radius_for(f, lam, x, U1))
            offsets = offsets[max(inside[0] - 1, 0):inside[-1] + 2]
    vals = rows(offsets)
    flat = _local_minima(vals)
    idx = np.unravel_index(flat, vals.shape)
    return (np.stack([offsets[i] + c for i, c in zip(idx, center)], axis=-1),
            vals.ravel()[flat])


def _axis_minima(f: FunctionSpec, lam: np.ndarray, X: np.ndarray, C: np.ndarray,
                 R: np.ndarray, n: np.ndarray):
    """The per-axis scan of a batch of a function with terms: row i's grid
    has the axes C[i, j] + linspace(-R[i], R[i], n[i]) and the objective
    the outer sum of a_ij = g_j(w_j) + (w_j - X[i, j])^2 / (2 lam[i]), NaN
    values +inf.  Term values that sum to -inf at a grid point, some -inf
    and none +inf or NaN, raise InvalidFunctionValue, as FunctionSpec.batch
    does, at the first such point in C order of the first such row: where
    the row scan of the same whole grids raises.

    Chunks of consecutive whole rows are scanned with one term call per
    axis each, as one (dim, rows, width) block, width one more than its
    longest grid, of at most _AXIS_CHUNK slots or one longer row.  A row's
    grid points are followed by copies of its end point, so the terms see
    grid points only, whose objective is +inf: no minimum, and the +inf
    neighbour of the row's end and of the next row's start, so that each
    axis's block is scanned flat.  A grid's local minima are the product of
    its axes', so those are returned, all of them, a block per axis."""
    m, dim = X.shape
    h, length = (R + R) / (n - 1), (n + 1).tolist()  # grid and end copy
    found, ra = [], 0  # per chunk: axes, rows, coordinates and values of minima
    # an overflowing square is +inf, and its sum with a -inf term NaN
    with np.errstate(over="ignore", invalid="ignore"):
        while ra < m:  # the chunk's rows: all that fit, at least one
            rb, width = ra + 1, length[ra]
            while rb < m and (rb + 1 - ra) * max(width, length[rb]) <= _AXIS_CHUNK:
                rb, width = rb + 1, max(width, length[rb])
            span = slice(ra, rb)
            T = np.arange(float(width)) * h[span, None] - R[span, None]
            T[np.arange(rb - ra), n[span] - 1] = R[span]  # as linspace ends
            # one (rows, width) block per axis; the padding, past R, repeats the end
            A = np.minimum(T, R[span, None]) + C[span].T[:, :, None]
            V = np.array([g(a.ravel()) for g, a in zip(f.terms, A)], dtype=float)
            V = V.reshape(A.shape)  # the term values, then the a_ij
            if not np.minimum.reduce(V, axis=None) > -math.inf:  # a NaN or a -inf
                neg, ok = V == -math.inf, V < math.inf  # ok: not +inf or NaN
                # the padding repeats an end, which changes no test here
                for i in np.flatnonzero(neg.any(axis=(0, 2))).tolist():
                    if ok[:, i].any(axis=1).all():  # then a -inf sum exists
                        point, seen = np.empty(dim), False
                        for j in range(dim):  # the first w_j that keeps one in reach
                            k = np.argmax(ok[j, i] if seen or neg[j + 1:, i].any()
                                          else neg[j, i])
                            point[j], seen = A[j, i, k], seen or neg[j, i, k]
                        raise InvalidFunctionValue(f"{f.name or 'function'} "
                                                   f"produced -inf at {point}")
                V[np.isnan(V)] = math.inf
            # a -inf term value left here, and its NaN sum with a +inf
            # square, lie in a row with an axis that is +inf throughout, so
            # the row has no minimum
            d = A - X[span].T[:, :, None]
            d *= d
            d /= 2.0 * lam[span, None]
            V += d
            np.copyto(V, math.inf, where=T > R[span, None])
            idx = _local_minima(V.reshape(dim, -1), axes=(1,))
            j, r, _ = np.unravel_index(idx, V.shape)
            found.append((j, r + ra, A.ravel()[idx], V.ravel()[idx]))
            ra = rb
            del T, A, V, d  # so the next chunk's arrays replace these, not join them
    axis, row, a, v = (np.concatenate(x) for x in zip(*found))
    blocks = []
    for j in range(dim):  # each row's minima, in row order, at its columns 0, 1, ...
        on = axis == j
        r = row[on]
        at = r, np.arange(len(r)) - np.searchsorted(r, r)
        P, V = np.full((2, m, 1 + at[1].max(initial=0)), math.nan)
        P[at], V[at] = a[on], v[on]
        blocks.append((P[..., None], V))
    return blocks


def _cap(P: np.ndarray, V: np.ndarray):
    """A block (_minima) cut to each row's least _MAX_CANDIDATES, ties in C order."""
    if V.shape[1] <= _MAX_CANDIDATES:
        return P, V
    keep = np.sort(np.argsort(V, axis=1, kind="stable")[:, :_MAX_CANDIDATES], axis=1)
    return (np.take_along_axis(P, keep[..., None], axis=1),
            np.take_along_axis(V, keep, axis=1))


def _minima(f: FunctionSpec, lam: np.ndarray, X: np.ndarray, C: np.ndarray,
            R: np.ndarray, n: np.ndarray, coarse: bool = False) -> list:
    """The grid-local minima of the objective f(w) + ||w - x||^2 / (2 lam)
    at each row x of X, with its own lam, on the tensor grid whose j-th
    axis is C[i, j] + linspace(-R[i], R[i], n[i]) for row i, as the blocks
    whose tensor product they are: pairs of an (m, k, w) array of points
    and an (m, k) array of the scan's values, in C order, NaN after a row's
    own.  A function with terms has a block of width 1 per axis
    (_axis_minima); the row scan, one row at a time, with its coarse pass
    where coarse (_row_minima), one of width n.  _cap keeps each row's least
    _MAX_CANDIDATES per block, the row scan's as each row is scanned."""
    if f.terms is not None:
        return [_cap(P, V) for P, V in _axis_minima(f, lam, X, C, R, n)]
    scans = [_cap(p[None], v[None]) for p, v in
             (_row_minima(f, l, x, np.linspace(-r, r, k), c, coarse)
              for l, x, c, r, k in zip(lam.tolist(), X, C, R.tolist(), n.tolist()))]
    return [tuple(_stack(len(X), list(enumerate(b))) for b in zip(*scans))]


def _stack(m: int, parts: list) -> np.ndarray:
    """Pairs (rows, block) stacked as one (m, k, ...) array, NaN after a block; k >= 1."""
    out = np.full((m, max(1, *(b.shape[1] for _, b in parts))) + parts[0][1].shape[2:],
                  math.nan)
    for rows, b in parts:
        out[rows, :b.shape[1]] = b
    return out


def _least(blocks: list):
    """Each grid's best value and first least point in C order, from its
    blocks (_minima) with no product: the left-to-right sum of the blocks'
    least values, +inf where one has none, is the least sum, as rounded
    addition is monotone; on each block the point takes the first minimum
    whose sum with the blocks fixed before and the least after is the best."""
    least = [np.fmin.reduce(V, 1, keepdims=True, initial=math.inf) for _, V in blocks]
    best, fixed, point = sum(least[1:], least[0]), 0.0, []
    rows = np.arange(len(best))[:, None]
    for j, (P, V) in enumerate(blocks):
        k = np.argmax(sum(least[j + 1:], fixed + V) == best, axis=1)[:, None]
        point.append(P[rows, k][:, 0])
        fixed = fixed + V[rows, k]
    return best[:, 0], np.concatenate(point, axis=1)


def _feasible_upper_bounds(f: FunctionSpec, lam, X: np.ndarray):
    """Finite upper bounds U on the envelope values at the rows of X, for
    lam or, given an (m,) array, each row's own lam, as an (m,) array U and
    an (m, n) array W of points whose objective values they are: the best
    of the feasible candidates x, the certificate's anchor and the known
    minimizers of every row, in one evaluator call.  Only the rows whose
    candidates are all infeasible scan boxes around x and the anchor, all
    in one _minima call, and raise NoFeasiblePoint if neither box of a row
    has a minimum.  Such a row takes the least objective value at every
    minimum of its boxes, per axis at the product of each box's near-best
    ones (_near_axes), of equal ones the lexicographically least point, in
    one evaluator call for all such rows, so that how a scan rounds its
    sums picks neither U nor W."""
    fixed = np.stack([f.certificate.anchor]
                     + [km.point for km in f.known_minimizers])
    cands = np.concatenate(
        [X[:, None, :], np.broadcast_to(fixed, (len(X),) + fixed.shape)], axis=1)
    lams = np.broadcast_to(lam, (len(X),))
    vals = _objective(f, lams[:, None], X[:, None, :], cands)
    best = np.arange(len(X)), np.argmin(vals, axis=1)
    U, W = vals[best], cands[best]
    boxed = np.flatnonzero(np.isinf(U))
    if boxed.size:
        # two boxes per row, around x and around the anchor
        x, lam2 = np.repeat(X[boxed], 2, axis=0), np.repeat(lams[boxed], 2)
        centers = np.stack([X[boxed], np.broadcast_to(
            f.certificate.anchor, (boxed.size, f.dim))], axis=1).reshape(-1, f.dim)
        blocks = _minima(f, lam2, x, centers, np.full(len(x), 10.0),
                         np.full(len(x), 10001 if f.dim == 1 else 101))
        P = blocks[0][0] if len(blocks) == 1 else axis_product(
            _near_axes(f, lam2, x, [B[..., 0] for B, _ in blocks]))
        real = ~np.isnan(P).any(axis=2)
        empty = ~real.reshape(boxed.size, -1).any(axis=1)
        if empty.any():
            i = boxed[np.argmax(empty)]
            raise NoFeasiblePoint(f"no finite objective value found for "
                                  f"{f.name or 'function'} at x={X[i]}")
        # each row's least objective value at a minimum of its boxes, of
        # equal ones the lexicographically least point
        row, P = np.nonzero(real)[0] // 2, P[real]
        vals = _objective(f, lams[boxed][row], X[boxed][row], P)
        order = np.lexsort((*P.T[::-1], vals, row))
        first = order[np.searchsorted(row[order], np.arange(boxed.size))]
        U[boxed], W[boxed] = vals[first], P[first]
    return U, W


def require_below_threshold(f: FunctionSpec, lam: float) -> None:
    """Raise ThresholdExceeded unless lam is below f's certified threshold."""
    if lam >= f.certificate.threshold:
        raise ThresholdExceeded(lam, f.certificate.threshold)


def search_radius(f: FunctionSpec, lam: float, x) -> float:
    """Radius R certified to contain every proximal point of f at x, from a
    feasible upper bound on the envelope value (see _radius_for): the grid
    oracle's radius for a batch of one."""
    lam = _lambdas(lam, 1)
    X = as_point(x, f.dim)[None, :]
    require_below_threshold(f, lam)
    U, _ = _feasible_upper_bounds(f, lam, X)
    return float(_radius_for(f, lam, X, U)[0])


def _radius_for(f: FunctionSpec, lam, X: np.ndarray, U) -> np.ndarray:
    """Radii certified to contain every proximal point of f at the points x
    along the last axis of X, each with its lam and a feasible objective
    value U >= its envelope value (lam and U broadcast against them), as
    an array of shape X.shape[:-1].

    For t = ||w - x|| > R the certificate gives
    f(w) + t^2/(2 lam) >= a*(t + D)^2 + beta + t^2/(2 lam) > U with
    a = min(alpha, 0) and D = ||x - anchor||.  R does not decrease with U,
    and it contains every point whose objective value is at most U.
    Raises InvalidArgument where a radius is not finite.
    """
    cert = f.certificate
    a = min(cert.alpha, 0.0)
    with np.errstate(all="ignore"):  # a radius that is not finite raises below
        D = _norms(X - cert.anchor)
        # (a + 1/(2 lam)) t^2 + 2 a D t + (a D^2 + beta - U) > 0 for t > root
        A = a + 1.0 / (2.0 * lam)
        B = 2.0 * a * D
        C = a * D * D + cert.beta - U
        disc = B * B - 4.0 * A * C
        if not np.isfinite(disc).all():
            # where disc overflows, one power of two per point scales A, B
            # and C below 1 in magnitude, which leaves the root as it is;
            # the other points keep theirs unscaled, so none underflows
            e = np.where(np.isfinite(disc), 0, np.frexp(
                np.maximum(np.maximum(np.abs(A), np.abs(B)), np.abs(C)))[1])
            A, B, C = np.ldexp(A, -e), np.ldexp(B, -e), np.ldexp(C, -e)
            disc = B * B - 4.0 * A * C
        # U is attained, so disc >= 0 up to rounding; at disc = 0 the bound
        # equals U at the vertex -B / (2 A) >= 0, which R must still contain
        root = (-B + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * A)
        R = np.maximum(root, 0.0) + np.maximum(0.1, 0.01 * root)
    if not np.isfinite(R).all():
        i = np.argmin(np.isfinite(R).ravel())
        raise InvalidArgument(f"no finite search radius for {f.name or 'function'}"
                              f" at x={np.reshape(X, (-1, f.dim))[i]}")
    return R


def _axis_points(R, h: float, dim: int) -> np.ndarray:
    """Odd points per axis for step h on [-R, R], for each radius of the
    array R; the step is coarsened, with a warning per radius, where the
    grid would exceed _MAX_GRID_POINTS points."""
    cap = int(_MAX_GRID_POINTS ** (1.0 / dim))
    n_cap = cap - 1 + cap % 2
    # counted in floats, exact up to 2^53, so that no count wraps
    n = 2.0 * np.ceil(R / h) + 1.0
    over = n > n_cap
    if over.any():
        for r in np.asarray(R)[over].tolist():
            _log.warning("grid coarsened by the %d-point cap: R=%g, step %g -> %g",
                         _MAX_GRID_POINTS, r, h, 2.0 * r / (n_cap - 1))
        n = np.where(over, n_cap, n)
    return n.astype(np.intp)


def _local_minima(vals: np.ndarray, axes=None) -> np.ndarray:
    """Flat indices of the finite entries of an n-D array that are <= each
    of their neighbours along axes, all n by default (missing ones +inf)."""
    ok = np.isfinite(vals)
    for ax in range(vals.ndim) if axes is None else axes:
        # along axis ax: each entry against its next neighbour, then
        # against its previous one
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        ok[lo] &= vals[lo] <= vals[hi]
        ok[hi] &= vals[hi] <= vals[lo]
    return np.flatnonzero(ok)


def _cluster(points: np.ndarray, values: np.ndarray, radius: float) -> list:
    """Indices of the cluster representatives among the rows of points, the
    proximal points of one x (several; _pick) with their objective values:
    in (value, lexicographic) order, each more than radius from every one
    kept before, so the first point left is kept and drops those within radius."""
    left, reps = np.lexsort(np.vstack([points.T[::-1], values])), []
    while len(left):
        reps.append(left[0])
        left = left[1:][_norms(points[left[1:]] - points[left[0]]) > radius]
    return reps


def _pick(C: np.ndarray, V: np.ndarray,
          radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The proximal representatives of a batch whose row i has the
    candidates C[i], an (m, k, n) array, with objective values V[i]; a NaN
    value is padding, never a candidate, and every row has a candidate.

    Returns each row's best value, the representatives, row after row, as
    a (count, n) array, and their CSR offsets.  A candidate within
    VALUE_TOL of its row's best is a proximal point.  One mask finds them
    for the whole batch, and a row with exactly one takes it; only the rows
    with more go through _cluster."""
    if V.shape[1] == 1:  # one candidate per row, as from most closed forms
        return V[:, 0], C[:, 0], np.arange(len(V) + 1)
    best = np.fmin.reduce(V, axis=1)
    near = V <= (best + VALUE_TOL)[:, None]
    reps = near.ravel().nonzero()[0]
    W = C.reshape(-1, C.shape[2])
    if len(reps) == len(V):  # one proximal point per row, the usual case
        return best, W.take(reps, axis=0), np.arange(len(V) + 1)
    counts = np.add.reduce(near, axis=1)
    V = V.ravel()
    first = (np.cumsum(counts) - counts).tolist()
    pieces, done = [], 0
    for i in np.flatnonzero(counts > 1).tolist():
        run = reps[first[i]:first[i] + counts[i]]
        pieces += [reps[done:first[i]],
                   run[_cluster(W[run], V[run], radius)]]
        done = first[i] + counts[i]
        counts[i] = len(pieces[-1])
    reps = np.concatenate(pieces + [reps[done:]])
    return best, W.take(reps, axis=0), _offsets(counts)


def _divergence_candidates(f: FunctionSpec, lam: np.ndarray, X: np.ndarray):
    """The expanding coarse search of the rows x of X, each with its lam,
    used at or above the certified threshold: expansion k = 0.._EXPAND_STEPS
    of a row is its grid of radius R = 8 max(1, ||x||) 2^k around x, and
    one _minima call reads every expansion of every row: grid K i + k is
    expansion k of row i (K = _EXPAND_STEPS + 1).  A row diverges where its
    best value (_least) fell at the last doubling, to its last grid's
    boundary.  Returns, as _grid_candidates does, each row's radius, step
    and candidates: the minima of its first grid whose best is within
    VALUE_TOL of its least, or its last grid and NaN where it diverged.
    Raises NoFeasiblePoint for the first row where no grid has a finite
    value."""
    m, K, n_axis = len(X), _EXPAND_STEPS + 1, 2001 if f.dim == 1 else 201
    R0 = 8.0 * np.maximum(1.0, _norms(X))
    Xk = np.repeat(X, K, axis=0)
    blocks = _minima(f, np.repeat(lam, K), Xk, Xk,
                     np.outer(R0, 2.0 ** np.arange(K)).ravel(), np.full(m * K, n_axis))
    # each grid's best value, +inf where it has no minimum, and first least point
    best, first = _least(blocks)
    best = best.reshape(m, K)
    least = np.minimum.reduce(best, axis=1)
    if (least == math.inf).any():
        raise NoFeasiblePoint(f"no finite objective value found for "
                              f"{f.name or 'function'} at "
                              f"x={X[np.argmax(least == math.inf)]}")
    # did each row's best value fall at the last doubling, and is the first
    # least point of its last grid on that grid's boundary, the box x +- R?
    # A last grid without a minimum has best +inf, so its values did not
    # fall.  Earlier grids may hold a local minimum near x that the far
    # slope undercuts only later
    diverged = ((best[:, -1] < best[:, -2] - 1e-12)
                & (np.abs(first[K - 1::K] - X).max(axis=1)
                   >= R0 * 2.0 ** _EXPAND_STEPS * (1.0 - 2.0 / n_axis) - 1e-12))
    # each row's grid: its first within VALUE_TOL of its least, or its last
    # where it diverged, which gives it no point
    pick = np.argmax(best <= (least + VALUE_TOL)[:, None], axis=1)
    R = R0 * 2.0 ** np.where(diverged, _EXPAND_STEPS, pick)
    return R, 2.0 * R / (n_axis - 1), [np.where(
        diverged[:, None, None], math.nan, P[np.arange(m) * K + pick]) for P, _ in blocks]


def _grid_candidates(f: FunctionSpec, lam: np.ndarray, X: np.ndarray):
    """The grid oracle's candidates at the rows x of X, each with its lam:
    the radius R certified from the feasible value U, attained at the point
    W (_feasible_upper_bounds, _radius_for), and the step of the grid whose
    axes span x +- R (step ~f.grid_step), as (m,) arrays, and each row's
    candidates, the blocks of one _minima call for the batch, or W, which
    lies within R, where a block's feasible set slips between its points."""
    U, W = _feasible_upper_bounds(f, lam, X)
    R = _radius_for(f, lam, X, U)
    n = _axis_points(R, f.grid_step, f.dim)
    cands = [P for P, _ in _minima(f, lam, X, X, R, n, True)]
    empty = np.logical_or.reduce([np.isnan(P[:, 0, 0]) for P in cands])
    for j, P in enumerate(cands if empty.any() else ()):
        P[empty] = math.nan
        P[empty, 0] = W[empty, j * P.shape[2]:(j + 1) * P.shape[2]]
    return R, 2.0 * R / (n - 1), cands


def _solve_scan(f: FunctionSpec, lam: np.ndarray, X: np.ndarray) -> ProxBatch:
    """The rows without a closed-form answer, each with its own lam: the
    rows below the certified threshold take the grid-local minima of their
    grids (_grid_candidates), and the rows at or above it those of their
    divergence scans (_divergence_candidates); each kind scans its rows
    together, and a row without a candidate diverged.  One _axis_zoom call
    and _solve_separable answer per axis, as for a closed form; otherwise
    one _refine call polishes every candidate and gives its value for _pick."""
    below = lam < f.certificate.threshold
    if f.dim > 2 and below.any():
        raise InvalidArgument("grid oracle supports dimensions 1 and 2 only")
    radii, steps, parts, m = np.empty(len(X)), np.empty(len(X)), [], len(X)
    for rows, candidates in ((np.flatnonzero(below), _grid_candidates),
                             (np.flatnonzero(~below), _divergence_candidates)):
        if rows.size:
            radii[rows], steps[rows], cands = candidates(f, lam[rows], X[rows])
            parts.append((rows, cands))
    rows, cands = zip(*parts)  # every row's candidates, block by block
    blocks = cands[0] if len(parts) == 1 else [
        _stack(m, list(zip(rows, b))) for b in zip(*cands)]
    found = ~np.isnan(blocks[0][:, 0, 0])
    kept = slice(None) if found.all() else np.flatnonzero(found)
    value, counts, P = np.full(m, math.nan), np.zeros(m, np.intp), np.empty((0, f.dim))
    if found.any():
        lam, X, steps = lam[kept], X[kept], steps[kept]
        if len(blocks) > 1:
            axes = _axis_zoom(f, lam, X, [B[kept, :, 0] for B in blocks], steps)
            done = _solve_separable(f, lam, X, axes, radii[kept])
            value[kept], P, offsets = done.value, done.points, done.offsets
        else:
            C = blocks[0][kept]
            real = ~np.isnan(C[..., 0])
            i, vals = np.nonzero(real)[0], np.full(real.shape, math.nan)
            C[real], vals[real] = _refine(f, lam[i], X[i], C[real], steps[i])
            value[kept], P, offsets = _pick(C, vals, CLUSTER_STEPS * f.grid_step)
        counts[kept] = np.diff(offsets)
    return ProxBatch(value, ~found, radii, P, _offsets(counts))


def _near_axes(f: FunctionSpec, lam, X: np.ndarray, axes: list) -> list:
    """The separable candidates of the rows of X, one (m, k_j) array per
    axis, cut on each axis with several to those, first in their row, NaN
    after, whose a_j(w) = g_j(w) + (w - x_j)^2 / (2 lam) (f.terms, NaN +inf)
    is within VALUE_TOL of the axis's least: every other axis adds at least
    its own least, so no proximal point is dropped."""
    L = lam if isinstance(lam, float) else lam[:, None]
    # the slack: 2^-40 of the sum over the axes of the row's largest
    # |g_j(w)| + (w - x_j)^2 / (2 lam), for how the terms' sum rounds
    A, slack = [], VALUE_TOL
    with np.errstate(invalid="ignore", over="ignore"):
        for g, W, x in zip(f.terms, axes, X.T):
            v = np.asarray(g(W.ravel()), dtype=float).reshape(W.shape)
            d = (W - x[:, None]) ** 2 / (2.0 * L)
            s = np.abs(v) + d
            slack = slack + 2.0 ** -40 * np.max(s, axis=1, initial=0.0, where=s < math.inf)
            A.append(np.where(np.isnan(v + d), math.inf, v + d))
    least = [a.min(axis=1) for a in A]
    # a row whose least on an axis is +inf has no finite product: it keeps all
    every = np.logical_or.reduce([b == math.inf for b in least])
    out = []
    for W, a, b in zip(axes, A, least):
        if W.shape[1] > 1:
            keep = a <= np.where(every, math.inf, b + slack)[:, None]
            order = np.argsort(~keep, axis=1, kind="stable")
            W = np.take_along_axis(np.where(keep, W, math.nan), order,
                                   axis=1)[:, :keep.sum(axis=1).max()]
        out.append(W)
    return out


def _solve_separable(f: FunctionSpec, lam, X: np.ndarray, axes: Optional[list] = None,
                     radius: Optional[np.ndarray] = None) -> ProxBatch:
    """The answers of separable rows, for lam or each row's own, whose axis
    j has the candidates axes[j], an (m, k_j) array, NaN padding: a scan's,
    with the rows' radii, or, where axes is None, the closed form's, in
    chunks of at most _CLOSED_FORM_ROWS points, fewer where an axis would
    pass _CHUNK_ROWS (_CLOSED_FORM_PROBE), a radius the distance to the
    farthest point.  A row's candidates are the product of its axes'
    near-best ones (_near_axes), never of all, halved by rows, each half cut
    again, until no cut product passes _CHUNK_ROWS but a row's own."""
    single = isinstance(lam, float)
    if axes is None:
        n = _CLOSED_FORM_ROWS
        if len(X) > _CLOSED_FORM_PROBE:
            first = f.closed_form_prox(lam if single else lam[:1], X[:1])
            n = max(1, min(n, _CHUNK_ROWS // max(W.shape[1] for W in first)))
        if len(X) > n:
            return _gather([_solve_separable(f, lam if single else lam[i:i + n],
                                             X[i:i + n]) for i in range(0, len(X), n)])
        axes = f.closed_form_prox(lam, X)
    if f.dim > 1 and sum([W.shape[1] > 1 for W in axes]) > 1:
        cut = _near_axes(f, lam, X, axes)
        if len(X) > 1 and len(X) * math.prod([W.shape[1] for W in cut]) > _CHUNK_ROWS:
            h = (len(X) + 1) // 2
            return _gather([_solve_separable(
                f, lam if single else lam[s], X[s], [W[s] for W in axes],
                None if radius is None else radius[s])
                for s in (slice(None, h), slice(h, None))])
        axes = cut
    C = axes[0][..., None] if f.dim == 1 else axis_product(axes)
    lams = lam if single else lam[:, None]
    # a lone candidate is never padding, and NaN padding makes the sum NaN
    if C.shape[1] == 1 or not math.isnan(np.add.reduce(C.ravel())):
        V = _objective(f, lams, X[:, None, :], C)
    else:  # _objective's sum, f evaluated only at the candidates without NaN
        V = _sq_norm(C, X[:, None, :]) / (2.0 * lams)
        real = V == V  # the padding's NaN values are never proximal points
        some = np.logical_or.reduce(real, axis=1)
        if not some.all():
            raise InvalidArgument(f"closed form of {f.name or 'function'} gave no "
                                  f"candidate at x={X[np.argmin(some)]}")
        V[real] = f.batch(C.reshape(-1, f.dim).compress(real.ravel(), axis=0)) + V[real]
    best, P, offsets = _pick(C, V, CLUSTER_STEPS * f.grid_step)
    if radius is None and len(P) == len(X):  # one representative per row
        radius = _norms(P - X)
    elif radius is None:
        radius = np.maximum.reduceat(_norms(
            P - np.repeat(X, np.diff(offsets), axis=0)), offsets[:-1])
    return ProxBatch(best, np.zeros(len(X), dtype=bool), radius, P, offsets)


def _lambdas(lam, m: int):
    """lam as a float, or as an (m,) array of one lam per point; raises
    InvalidArgument unless every lam is positive and at most _MAX_LAMBDA."""
    if isinstance(lam, float) or np.ndim(lam) == 0:
        lam = float(lam)
        valid = 0 < lam <= _MAX_LAMBDA
    else:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (m,):
            raise InvalidArgument(
                f"lambda must be one value or one per point, got shape {lam.shape}")
        valid = ((lam > 0) & (lam <= _MAX_LAMBDA)).all()
    if not valid:
        raise InvalidArgument(f"lambda must be positive and finite, at most "
                              f"{_MAX_LAMBDA!r}")
    return lam


def _solve(f: FunctionSpec, lam, X: np.ndarray) -> ProxBatch:
    lam = _lambdas(lam, len(X))
    if len(X) == 0:
        return ProxBatch(np.empty(0), np.empty(0, dtype=bool), np.empty(0),
                         np.empty((0, f.dim)), np.zeros(1, dtype=np.intp))
    th = f.certificate.threshold
    if isinstance(lam, float):
        if lam < th and f.closed_form_prox is not None:
            return _solve_separable(f, lam, X)  # prox_map's usual path
        lam = np.full(len(X), lam)
    # one closed-form call for the rows below the threshold, each with its
    # own lam, and one scan of the rest
    closed = (lam < th) & (f.closed_form_prox is not None)
    groups = [rows for rows in (np.flatnonzero(closed), np.flatnonzero(~closed))
              if rows.size]
    parts = [(_solve_separable if closed[rows[0]] else _solve_scan)(
        f, lam[rows], X[rows]) for rows in groups]
    return parts[0] if len(parts) == 1 else _gather(parts, np.concatenate(groups))


def prox_batch(f: FunctionSpec, lam, X) -> ProxBatch:
    """Envelope values and proximal points of f at the rows of an (m, n)
    array X, for the parameter lam or, given an (m,) array, for each row's
    own lam, as one ProxBatch: value, diverged and radius columns and the
    proximal representatives of each row (a sequence of ProxResult rows).

    A row below f's certified threshold uses f.closed_form_prox when it is
    set, in one call for all such rows, each with its own lam, and the
    certified grid oracle otherwise; a row at or above it runs an expanding
    divergence scan, and diverged when the scan leaves it no candidate.  The
    grid oracle of a function with a closed form is the solve of its view
    without one, dataclasses.replace(f, closed_form_prox=None), and
    f.grid_step is its step: replace(f, grid_step=h) solves at step h.
    Proximal points within CLUSTER_STEPS steps of each other are reported
    as one, on the closed form as on the grid.  Each row's answer is that
    of prox_map at its x and lam alone, bit for bit.  A grid row whose
    certified radius is not finite as a float raises InvalidArgument.
    """
    return _solve(f, lam, as_points(X, f.dim))


def prox_map(f: FunctionSpec, lam: float, x) -> ProxResult:
    """Envelope value and proximal points of f at the single point x: the
    batch of one of prox_batch."""
    return _solve(f, lam, as_point(x, f.dim)[None, :])[0]


def moreau_envelope(f: FunctionSpec, lam: float, x) -> float:
    """Envelope value at x; raises ThresholdExceeded when divergence is detected."""
    res = prox_map(f, lam, x)
    if res.diverged:
        raise ThresholdExceeded(lam, f.certificate.threshold)
    return res.envelope_value


def shift_arguments(s: QuadShift, lam: float, x: np.ndarray):
    """The arguments of the quadratic-shift identity of shift_envelope_via_f
    at lam and the point x, for the shift s = QuadShift(sigma, c): the
    parameter mu = lam / (1 - sigma lam) and the point
    v = (x - sigma lam c) / (1 - sigma lam) of the base function's envelope,
    and the offset sigma / (2 (1 - sigma lam)) ||x - c||^2 to subtract from
    it.  Raises InvalidLambda unless 0 < lam < 1/|sigma|."""
    sigma = s.sigma
    if not 0 < lam < 1.0 / abs(sigma):
        raise InvalidLambda(
            f"lambda = {lam} outside (0, {1.0 / abs(sigma)}) for sigma = {sigma}"
        )
    c = as_point(s.center, x.size)
    mu = lam / (1.0 - sigma * lam)
    v = (x - sigma * lam * c) / (1.0 - sigma * lam)
    offset = sigma / (2.0 * (1.0 - sigma * lam)) * float(np.sum((x - c) ** 2))
    return mu, v, offset


def shift_envelope_via_f(f: FunctionSpec, s: QuadShift, lam: float, x) -> float:
    """Envelope of the shift psi = f - (sigma/2)||. - c||^2 of f by
    s = QuadShift(sigma, c), evaluated through f's envelope by the
    quadratic-shift identity

        e_lam(g + (tau/2)||. - c||^2)(x)
            = e_{lam/(1 + tau lam)} g((x + tau lam c)/(1 + tau lam))
              + tau/(2 (1 + tau lam)) ||x - c||^2

    with (g, tau) = (f, -sigma), for 0 < lam < 1/|sigma| (shift_arguments).
    Its other use, (g, tau) = (psi, sigma), is e_lam f(x) =
    shift_envelope_via_f(psi, QuadShift(-sigma, c), lam, x).
    """
    mu, v, offset = shift_arguments(s, lam, as_point(x, f.dim))
    require_below_threshold(f, mu)
    return moreau_envelope(f, mu, v) - offset


def envelope_gradient(f: FunctionSpec, lam: float, x) -> np.ndarray:
    """Gradient (x - p)/lam of the envelope where the prox is single-valued."""
    x = as_point(x, f.dim)
    res = prox_map(f, lam, x)
    if res.diverged:
        raise ThresholdExceeded(lam, f.certificate.threshold)
    if len(res.minimizers) != 1:
        raise MultivaluedProx(
            f"proximal mapping has {len(res.minimizers)} clusters at x={x}"
        )
    return (x - res.minimizers[0]) / lam
