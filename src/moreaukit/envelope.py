"""Moreau envelope and proximal mapping via closed forms or a certified grid.

Every solve goes through prox_batch, which takes an (m, n) array of points;
prox_map is its batch of one.  The grid oracle evaluates the prox subproblem

    min_w  f(w) + ||w - x||^2 / (2 lam)

on a uniform grid, one grid per x.  The function's quadratic lower-bound
certificate and a feasible upper bound U on the envelope value give a radius
R certified to contain every proximal point, and the grid spans x +- R; the
bounds U of a whole batch come from one evaluator call.

When f is known to be an additively separable sum (FunctionSpec.terms, f(w)
= sum_j g_j(w_j)), in one dimension or more, the prox subproblem splits by
coordinate (Parikh & Boyd, Proximal Algorithms, 2014, sec. 2.1) and the
scan evaluates no row: each axis gets one vector a_j = g_j(x_j + offsets) +
d_j^2 / (2 lam), and the grid's objective is their outer sum.  Its minimum
is the sum of the axis minima, and a grid point is <= its 2n axis neighbours
exactly when each coordinate is <= its neighbours in its own a_j, so the
grid-local minima are the tensor product of each axis's local minima, found
with O(n) term evaluations instead of O(n^dim) rows.  A NaN term value is
+inf, as in the row scan, and a term that is -inf somewhere sends the solve
to the row scan.

Every other function takes the row scan, in two levels on large grids.  A
coarse pass evaluates every s-th point of each axis (about 17 per axis); its
minimum U1 is a feasible value too, so the same formula with min(U, U1)
gives a radius R1 <= R that is just as certified.  The fine scan keeps only
the axis points within R1 of x plus the next point outward on each side, so
every point of the R1 ball keeps all its grid neighbours.  On a tensor grid
the objective is separable in its quadratic part: f on the rows plus sum_j
d_j^2 / (2 lam), broadcast along each axis.

Every grid-local minimum of every x is then polished together by a lattice
zoom: each round evaluates a small lattice around each candidate in one
evaluator call, moves to its best point on strict improvement and shrinks to
one lattice spacing.  Multivalued proximal mappings are reported as
clustered representatives with a deterministic lexicographic tie-break.  An
answer depends only on its own x, never on the rest of the batch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidLambda,
    MultivaluedProx,
    NoFeasiblePoint,
    ThresholdExceeded,
)
from .functions import (
    FunctionSpec,
    QuadShift,
    _sq_norm,
    as_point,
    as_points,
)

_log = logging.getLogger(__name__)

_MAX_GRID_POINTS = 4_000_000
_COARSE_INTERVALS = 16  # the coarse pass takes every s-th fine point, ~17 per axis
# row scans of fewer rows skip the coarse pass: below about this size it
# cost more than the points it saved, in timings of shifted catalog solves
_COARSE_MIN_ROWS = 40_000
# rows of one evaluator call of the refiner, which evaluates many pairs at once
_CHUNK_ROWS = _MAX_GRID_POINTS // 4
# points per closed-form call; their candidates stay well below _CHUNK_ROWS
_CLOSED_FORM_ROWS = _CHUNK_ROWS // 16
_MAX_CANDIDATES = 50
_ZOOM_POINTS = 9  # lattice points per axis in one refinement round
# refinement rounds per candidate; each shrinks the box by a factor 4, and a
# candidate stops earlier once its box is below _ZOOM_FLOOR of its coordinates
_ZOOM_ROUNDS = 60
_ZOOM_FLOOR = 1e-15
_BETA_GUARD = -1e12
_EXPAND_STEPS = 6


# how far above the best objective value a candidate may lie and still
# count as a proximal point
VALUE_TOL = 1e-9
# proximal candidates closer than this many grid steps are one cluster
CLUSTER_STEPS = 10


def grid_step_for(dim: int, grid_step: Optional[float] = None) -> float:
    """The grid oracle's step: grid_step (a FunctionSpec's, which checks
    it), or by default 1e-3 in 1-D and 1e-2 per axis in 2-D."""
    if grid_step is None:
        return 1e-3 if dim == 1 else 1e-2
    return grid_step


@dataclass
class ProxResult:
    """Envelope value with clustered proximal representatives.

    diverged means the objective was detected to decrease without bound
    (envelope value -inf); minimizers is then empty and envelope_value is
    meaningless.
    """

    envelope_value: float
    minimizers: list
    diverged: bool
    radius_used: float


def _tensor_rows(axes) -> np.ndarray:
    """Every point of the tensor grid axes[0] x ... x axes[n-1], as rows in
    C (ij) order."""
    dim = len(axes)
    out = np.empty(tuple(len(a) for a in axes) + (dim,))
    for j, a in enumerate(axes):
        out[..., j] = a.reshape((-1,) + (1,) * (dim - 1 - j))
    return out.reshape(-1, dim)


def axis_product(axis: np.ndarray, dim: int) -> np.ndarray:
    """Every dim-tuple of the values of axis, as rows in C (ij) order."""
    return _tensor_rows([axis] * dim)


def grid(center, radius: float, n_axis: int) -> np.ndarray:
    """The n_axis**n points of the uniform grid on the box center +- radius."""
    center = np.asarray(center, dtype=float)
    pts = axis_product(np.linspace(-radius, radius, n_axis), center.size)
    pts += center
    return pts


def _objective(f: FunctionSpec, lam: float, x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """f(w) + ||w - x||^2 / (2 lam) at the points w along the last axis of
    W, shape W.shape[:-1]; x broadcasts against W."""
    vals = f.batch(W.reshape(-1, W.shape[-1])).reshape(W.shape[:-1])
    return vals + _sq_norm(W, x) / (2.0 * lam)


def _tensor_objective(f: FunctionSpec, lam: float, x: np.ndarray,
                      offsets: np.ndarray) -> np.ndarray:
    """The objective on the tensor grid x + offsets along every axis, shape
    (len(offsets),) * n: f on the grid's rows plus the separable quadratic
    sum_j d_j^2 / (2 lam), d_j the grid's j-th coordinates minus x_j, one
    vector per axis broadcast along it."""
    axes = [offsets + xj for xj in x]
    shape = (len(offsets),) * x.size
    vals = f.batch(_tensor_rows(axes)).reshape(shape)
    for j, a in enumerate(axes):
        d = a - x[j]
        vals += (d * d / (2.0 * lam)).reshape((-1,) + (1,) * (x.size - 1 - j))
    return vals


def _feasible_upper_bounds(f: FunctionSpec, lam: float, X: np.ndarray) -> list:
    """Finite upper bounds on the envelope values at the rows of X, from
    feasible candidates: x, the certificate's anchor and the known
    minimizers of every row, in one evaluator call.  Only a row whose
    candidates are all infeasible scans coarse boxes around x and the anchor."""
    fixed = np.stack([f.certificate.anchor]
                     + [km.point for km in f.known_minimizers])
    cands = np.concatenate(
        [X[:, None, :], np.broadcast_to(fixed, (len(X),) + fixed.shape)], axis=1)
    U = np.min(_objective(f, lam, X[:, None, :], cands), axis=1).tolist()
    n_axis = 10001 if f.dim == 1 else 101
    for i in np.flatnonzero(np.isinf(U)):
        x = X[i]
        U[i] = min(float(np.min(_objective(f, lam, x, grid(c, 10.0, n_axis))))
                   for c in (x, f.certificate.anchor))
        if math.isinf(U[i]):
            raise NoFeasiblePoint(
                f"no finite objective value found for {f.name or 'function'} at x={x}"
            )
    return U


def require_below_threshold(f: FunctionSpec, lam: float) -> None:
    """Raise ThresholdExceeded unless lam is below f's certified threshold."""
    if lam >= f.certificate.threshold:
        raise ThresholdExceeded(lam, f.certificate.threshold)


def search_radius(f: FunctionSpec, lam: float, x) -> float:
    """Radius R certified to contain every proximal point of f at x, from a
    feasible upper bound on the envelope value (see _radius_for)."""
    if not lam > 0:
        raise InvalidArgument("lambda must be positive")
    x = as_point(x, f.dim)
    require_below_threshold(f, lam)
    return _radius_for(f, lam, x, _feasible_upper_bounds(f, lam, x[None, :])[0])


def _radius_for(f: FunctionSpec, lam: float, x: np.ndarray, U: float) -> float:
    """Radius certified to contain every proximal point of f at x, given a
    feasible objective value U >= the envelope value.

    For t = ||w - x|| > R the certificate gives
    f(w) + t^2/(2 lam) >= a*(t + D)^2 + beta + t^2/(2 lam) > U with
    a = min(alpha, 0) and D = ||x - anchor||.  R does not decrease with U.
    """
    cert = f.certificate
    a = min(cert.alpha, 0.0)
    D = float(np.linalg.norm(x - cert.anchor))
    # (a + 1/(2 lam)) t^2 + 2 a D t + (a D^2 + beta - U) > 0 for t > root
    A = a + 1.0 / (2.0 * lam)
    B = 2.0 * a * D
    C = a * D * D + cert.beta - U
    # U is attained, so disc >= 0 up to rounding; at disc = 0 the bound
    # equals U at the vertex -B / (2 A) >= 0, which R must still contain
    root = (-B + math.sqrt(max(B * B - 4.0 * A * C, 0.0))) / (2.0 * A)
    return max(root, 0.0) + max(0.1, 0.01 * root)


def _axis_points(R: float, h: float, dim: int) -> int:
    """Odd points per axis for step h on [-R, R]; the step is coarsened,
    with a warning, where the grid would exceed _MAX_GRID_POINTS points."""
    cap = int(_MAX_GRID_POINTS ** (1.0 / dim))
    n, n_cap = 2 * math.ceil(R / h) + 1, cap - 1 + cap % 2
    if n <= n_cap:
        return n
    _log.warning("grid coarsened by the %d-point cap: R=%g, step %g -> %g",
                 _MAX_GRID_POINTS, R, h, 2.0 * R / (n_cap - 1))
    return n_cap


def _local_minima(vals: np.ndarray) -> np.ndarray:
    """Flat indices of the finite entries of an n-D array that are <= each
    of their 2n axis neighbours (missing neighbours count as +inf)."""
    ok = np.isfinite(vals)
    for ax in range(vals.ndim):
        # along axis ax: each entry against its next neighbour, then
        # against its previous one
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        ok[lo] &= vals[lo] <= vals[hi]
        ok[hi] &= vals[hi] <= vals[lo]
    return np.flatnonzero(ok)


def _refine(f: FunctionSpec, lam: float, X: np.ndarray, W: np.ndarray,
            V: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lattice zoom of all (x, candidate) pairs at once; row i of X, W, V and
    half is one pair: its x, start point, start value and box half-width.

    Each round evaluates, in one evaluator call per chunk of pairs, the
    _ZOOM_POINTS**n lattice spanning each active box, moves a pair to its
    best lattice point only on strict improvement (so it never ends worse
    than its start) and shrinks the half-width to one lattice spacing.  A
    pair stops once its half-width is below rounding of its coordinates, so
    its path depends on its own values only."""
    W, V, half = W.copy(), V.copy(), half.copy()
    unit = axis_product(np.linspace(-1.0, 1.0, _ZOOM_POINTS), W.shape[1])
    per_call = max(1, _CHUNK_ROWS // len(unit))
    for _ in range(_ZOOM_ROUNDS):
        active = np.flatnonzero(half > _ZOOM_FLOOR * (1.0 + np.abs(W).max(axis=1)))
        if active.size == 0:
            break
        for start in range(0, active.size, per_call):
            idx = active[start:start + per_call]
            T = W[idx, None, :] + half[idx, None, None] * unit
            vals = _objective(f, lam, X[idx, None, :], T)
            j = np.argmin(vals, axis=1)
            best = vals[np.arange(idx.size), j]
            better = best < V[idx]
            W[idx[better]] = T[better, j[better]]
            V[idx[better]] = best[better]
        half[active] *= 2.0 / (_ZOOM_POINTS - 1)
    return W, V


def _cluster(points: np.ndarray, values: list, best: float,
             radius: float) -> list:
    """Indices of the cluster representatives among the rows of points whose
    values are within VALUE_TOL of best, clusters grouped by radius.

    Representatives are chosen in (value, lexicographic) order, comparing
    points as lists of floats.  A single row within VALUE_TOL is the only
    cluster, found by a scan of the values alone, which beats a numpy mask
    on the few candidates of an x.
    """
    near = [j for j, v in enumerate(values) if v <= best + VALUE_TOL]
    if len(near) == 1:
        return near
    pts = points.tolist()
    reps: list = []
    for j in sorted(near, key=lambda j: (values[j], pts[j])):
        if all(math.dist(pts[j], pts[r]) > radius for r in reps):
            reps.append(j)
    return reps


def _divergence_scan(f: FunctionSpec, lam: float, x: np.ndarray) -> ProxResult:
    """Expanding coarse search used when lam is at or above the certified
    threshold: doubles the radius up to a fixed number of times and flags
    divergence when the best objective keeps dropping along the expansion
    (tracking the guard value or a strictly decreasing boundary minimum)."""
    R = 8.0 * max(1.0, float(np.linalg.norm(x)))
    n_axis = 2001 if f.dim == 1 else 201
    best_hist = []
    boundary_hist = []
    for k in range(_EXPAND_STEPS + 1):
        pts = grid(x, R, n_axis)
        vals = _objective(f, lam, x, pts)
        i = int(np.argmin(vals))
        best = float(vals[i])
        dist = float(np.linalg.norm(pts[i] - x))
        best_hist.append(best)
        boundary_hist.append(dist >= R * (1.0 - 2.0 / n_axis) - 1e-12)
        if best < _BETA_GUARD:
            return ProxResult(math.nan, [], True, R)
        R *= 2.0
    strictly_down = all(b2 < b1 - 1e-12 for b1, b2 in zip(best_hist, best_hist[1:]))
    if strictly_down and boundary_hist[-1]:
        return ProxResult(math.nan, [], True, R / 2.0)
    # no divergence detected: refine the best point of the last scan
    h = 2.0 * (R / 2.0) / (n_axis - 1)
    w, v = _refine(f, lam, x[None, :], pts[i:i + 1], vals[i:i + 1],
                   np.array([h]))
    return ProxResult(float(v[0]), [w[0]], False, R / 2.0)


def _axis_objectives(f: FunctionSpec, lam: float, x: np.ndarray,
                     offsets: np.ndarray) -> Optional[list]:
    """The objective of a separable f on the tensor grid x + offsets, one
    vector per axis: a_j = g_j(x_j + offsets) + d_j^2 / (2 lam), d_j as in
    _tensor_objective, so grid point (i_1, ..., i_n) has the value
    sum_j a_j[i_j].  Term values that are not finite become +inf, but a term
    that is -inf somewhere gives None: the grid then takes the row scan,
    which raises InvalidFunctionValue exactly where f.batch meets -inf."""
    A = []
    for g, xj in zip(f.terms, x):
        a = offsets + xj
        d = a - xj
        v = np.asarray(g(a), dtype=float) + d * d / (2.0 * lam)
        bad = ~np.isfinite(v)
        if bad.any():
            if (v == -np.inf).any():
                return None
            v[bad] = np.inf
        A.append(v)
    return A


def _grid_candidates(f: FunctionSpec, lam: float, x: np.ndarray, U: float,
                     h: float):
    """Certified radius R at x from the feasible value U (_radius_for), and
    the points, values and effective grid step of the grid-local minima of
    the objective on its grid (step ~h), whose axis spans +-R.

    A function with terms is scanned one axis at a time (_axis_objectives).
    Otherwise, or when a term is -inf, the row scan evaluates the grid's
    rows (_tensor_objective); on a grid of more than _COARSE_MIN_ROWS rows a
    coarse pass on every s-th axis point first gives a feasible value U1 and
    from it the radius R1 <= R, and only the axis points within R1, plus the
    next one outward on each side, are scanned.

    The objective is the outer sum of the scan's parts.  Its minimum is the
    sum of theirs, and a grid point is <= its 2n axis neighbours exactly
    when each part is <= its neighbours there, so the grid-local minima are
    the tensor product, in C order, of each part's local minima."""
    R = _radius_for(f, lam, x, U)
    n_axis = _axis_points(R, h, f.dim)
    axis = np.linspace(-R, R, n_axis)
    parts = None if f.terms is None else _axis_objectives(f, lam, x, axis)
    if parts is None:
        if n_axis ** f.dim > _COARSE_MIN_ROWS:
            stride = max(1, (n_axis - 1) // _COARSE_INTERVALS)
            U1 = float(np.min(_tensor_objective(f, lam, x, axis[::stride])))
            if U1 < math.inf:
                inside = np.flatnonzero(np.abs(axis) <= _radius_for(f, lam, x, U1))
                axis = axis[max(inside[0] - 1, 0):inside[-1] + 2]
        parts = [_tensor_objective(f, lam, x, axis)]
    minima = [_local_minima(v) for v in parts]
    pick = np.indices([m.size for m in minima]).reshape(len(parts), -1)
    flat = [m[k] for m, k in zip(minima, pick)]
    vals = sum(v.ravel()[i] for v, i in zip(parts, flat))
    if vals.size == 0:
        raise NoFeasiblePoint(
            f"objective is +inf on the whole certified ball (R={R})"
        )
    if vals.size > _MAX_CANDIDATES:
        keep = np.argsort(vals, kind="stable")[:_MAX_CANDIDATES]
        flat, vals = [i[keep] for i in flat], vals[keep]
    idx = [i for v, fi in zip(parts, flat) for i in np.unravel_index(fi, v.shape)]
    pts = np.stack([axis[i] + xj for i, xj in zip(idx, x)], axis=-1)
    return R, pts, vals, 2.0 * R / (n_axis - 1)


def _solve_grid(f: FunctionSpec, lam: float, X: np.ndarray,
                h: float) -> list:
    if f.dim > 2:
        raise InvalidArgument("grid oracle supports dimensions 1 and 2 only")
    radii, seeds, seed_vals, steps = zip(*(
        _grid_candidates(f, lam, x, U, h)
        for x, U in zip(X, _feasible_upper_bounds(f, lam, X))))
    sizes = [len(s) for s in seeds]
    W, V = _refine(f, lam, np.repeat(X, sizes, axis=0), np.concatenate(seeds),
                   np.concatenate(seed_vals), np.repeat(steps, sizes))
    cuts = np.cumsum(sizes)[:-1]
    out = []
    for R, w, v in zip(radii, np.split(W, cuts), np.split(V, cuts)):
        best = float(v.min())
        reps = _cluster(w, v.tolist(), best, CLUSTER_STEPS * h)
        out.append(ProxResult(best, [w[j] for j in reps], False, R))
    return out


def _solve_closed_form(f: FunctionSpec, lam: float, X: np.ndarray,
                       h: float) -> list:
    out = []
    radius = CLUSTER_STEPS * h
    for lo in range(0, len(X), _CLOSED_FORM_ROWS):
        Xc = X[lo:lo + _CLOSED_FORM_ROWS]
        C = f.closed_form_prox(lam, Xc)
        # NaN padding gets NaN values, which no comparison in _cluster keeps
        vals = _objective(f, lam, Xc[:, None, :], C)
        best = np.fmin.reduce(vals, axis=1)
        # x as one list per row: Xc.tolist() would hold every row at once
        for c, x, v, b in zip(C, Xc, vals.tolist(), best.tolist()):
            reps = [c[j] for j in _cluster(c, v, b, radius)]
            xl = x.tolist()
            out.append(ProxResult(b, reps, False, max(
                math.dist(w.tolist(), xl) for w in reps)))
    return out


def _solve(f: FunctionSpec, lam: float, X: np.ndarray) -> list:
    if not lam > 0:
        raise InvalidArgument("lambda must be positive")
    h = grid_step_for(f.dim, f.grid_step)
    if len(X) == 0:
        return []
    if lam >= f.certificate.threshold:
        return [_divergence_scan(f, lam, x) for x in X]
    if f.closed_form_prox is not None:
        return _solve_closed_form(f, lam, X, h)
    return _solve_grid(f, lam, X, h)


def prox_batch(f: FunctionSpec, lam: float, X) -> list:
    """Envelope values and proximal points of f at the rows of an (m, n)
    array X for parameter lam, one ProxResult per row.

    Below the certified threshold, uses f.closed_form_prox when it is set
    and the certified grid oracle otherwise; at or above the threshold runs
    an expanding divergence scan per row.  The grid oracle of a function
    with a closed form is the solve of its view without one,
    dataclasses.replace(f, closed_form_prox=None), and f.grid_step is its
    step (grid_step_for): replace(f, grid_step=h) solves at step h.
    Proximal points within CLUSTER_STEPS steps of each other are reported
    as one, on the closed form as on the grid.
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


def shift_envelope_via_f(f: FunctionSpec, s: QuadShift, lam: float, x) -> float:
    """Envelope of the shift psi = f - (sigma/2)||. - c||^2 of f by
    s = QuadShift(sigma, c), evaluated through f's envelope by the
    quadratic-shift identity

        e_lam(g + (tau/2)||. - c||^2)(x)
            = e_{lam/(1 + tau lam)} g((x + tau lam c)/(1 + tau lam))
              + tau/(2 (1 + tau lam)) ||x - c||^2

    with (g, tau) = (f, -sigma), for 0 < lam < 1/|sigma|.  Its other use,
    (g, tau) = (psi, sigma), is e_lam f(x) =
    shift_envelope_via_f(psi, QuadShift(-sigma, c), lam, x).
    """
    x = as_point(x, f.dim)
    sigma = s.sigma
    if not 0 < lam < 1.0 / abs(sigma):
        raise InvalidLambda(
            f"lambda = {lam} outside (0, {1.0 / abs(sigma)}) for sigma = {sigma}"
        )
    mu = lam / (1.0 - sigma * lam)
    require_below_threshold(f, mu)
    c = as_point(s.center, f.dim)
    v = (x - sigma * lam * c) / (1.0 - sigma * lam)
    outer = moreau_envelope(f, mu, v)
    return outer - sigma / (2.0 * (1.0 - sigma * lam)) * float(np.sum((x - c) ** 2))


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
