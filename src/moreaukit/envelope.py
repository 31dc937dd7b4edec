"""Moreau envelope and proximal mapping via closed forms or a certified grid.

Every solve goes through prox_batch, which takes an (m, n) array of points;
prox_map is its batch of one.  The grid oracle evaluates the prox subproblem

    min_w  f(w) + ||w - x||^2 / (2 lam)

over a uniform grid on a ball whose radius is certified from the function's
quadratic lower-bound certificate, one grid per x, then polishes every
grid-local minimum of every x together by a lattice zoom: each round
evaluates a small lattice around each candidate in one evaluator call, moves
to its best point on strict improvement and shrinks to one lattice spacing.
Multivalued proximal mappings are reported as clustered representatives with
a deterministic lexicographic tie-break.  An answer depends only on its own
x, never on the rest of the batch.
"""

from __future__ import annotations

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
    as_point,
    as_points,
    ensure_certificate,
    quad_shift,
)

_MAX_GRID_POINTS = 4_000_000
# rows of one evaluator call of the refiner, which evaluates many pairs at once
_CHUNK_ROWS = _MAX_GRID_POINTS // 4
# points per closed-form call; their candidates stay well below _CHUNK_ROWS
_CLOSED_FORM_ROWS = _CHUNK_ROWS // 16
_MAX_CANDIDATES = 50
_ZOOM_POINTS = 9  # lattice points per axis in one refinement round
_ZOOM_FLOOR = 1e-15
_BETA_GUARD = -1e12
_EXPAND_STEPS = 6


@dataclass
class ProxSolveConfig:
    """Tuning knobs for the grid oracle.

    grid_step and cluster_radius default per dimension (1e-3 in 1-D, 1e-2
    per axis in 2-D; cluster_radius = 10 * grid_step).  refine_iters bounds
    the lattice-zoom rounds that polish each grid candidate; each round
    shrinks the search box by a factor 4, and a candidate stops earlier once
    the box is below rounding of its coordinates.
    """

    grid_step: Optional[float] = None
    refine_iters: int = 60
    value_tol: float = 1e-9
    cluster_radius: Optional[float] = None

    def step_for(self, dim: int) -> float:
        if self.grid_step is not None:
            if self.grid_step <= 0:
                raise InvalidArgument("grid_step must be positive")
            return self.grid_step
        return 1e-3 if dim == 1 else 1e-2

    def cluster_for(self, dim: int) -> float:
        if self.cluster_radius is not None:
            return self.cluster_radius
        return 10.0 * self.step_for(dim)


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


def axis_product(axis: np.ndarray, dim: int) -> np.ndarray:
    """Every dim-tuple of the values of axis, as rows in C (ij) order."""
    out = np.empty((len(axis),) * dim + (dim,))
    for j in range(dim):
        out[..., j] = axis.reshape((-1,) + (1,) * (dim - 1 - j))
    return out.reshape(-1, dim)


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
    d = W - x
    return vals + np.einsum("...i,...i->...", d, d) / (2.0 * lam)


def _feasible_upper_bound(f: FunctionSpec, lam: float, x: np.ndarray) -> float:
    """A finite upper bound on the envelope value at x, from feasible candidates."""
    cands = np.stack([x, f.certificate.anchor]
                     + [km.point for km in f.known_minimizers])
    best = float(np.min(_objective(f, lam, x, cands)))
    if math.isinf(best):
        # coarse scan of a box around x and the anchor
        n_axis = 10001 if f.dim == 1 else 101
        for center in (x, f.certificate.anchor):
            vals = _objective(f, lam, x, grid(center, 10.0, n_axis))
            best = min(best, float(np.min(vals)))
    if math.isinf(best):
        raise NoFeasiblePoint(
            f"no finite objective value found for {f.name or 'function'} at x={x}"
        )
    return best


def search_radius(f: FunctionSpec, lam: float, x) -> float:
    """Radius R certified to contain every proximal point of f at x.

    For t = ||w - x|| > R the certificate gives
    f(w) + t^2/(2 lam) >= a*(t + D)^2 + beta + t^2/(2 lam) > U with
    a = min(alpha, 0) and D = ||x - anchor||, where U is a feasible upper
    bound on the envelope value.
    """
    if lam <= 0:
        raise InvalidArgument("lambda must be positive")
    x = as_point(x, f.dim)
    ensure_certificate(f)
    cert = f.certificate
    threshold = cert.threshold
    if lam >= threshold:
        raise ThresholdExceeded(lam, threshold)

    U = _feasible_upper_bound(f, lam, x)
    a = min(cert.alpha, 0.0)
    D = float(np.linalg.norm(x - cert.anchor))
    # (a + 1/(2 lam)) t^2 + 2 a D t + (a D^2 + beta - U) > 0 for t > root
    A = a + 1.0 / (2.0 * lam)
    B = 2.0 * a * D
    C = a * D * D + cert.beta - U
    disc = B * B - 4.0 * A * C
    if disc <= 0:
        root = 0.0
    else:
        root = (-B + math.sqrt(disc)) / (2.0 * A)
    return max(root, 0.0) + max(0.1, 0.01 * root)


def _axis_points(R: float, h: float, dim: int) -> int:
    """Odd points per axis for step h on [-R, R]; the step is coarsened
    where the grid would exceed _MAX_GRID_POINTS points."""
    cap = int(_MAX_GRID_POINTS ** (1.0 / dim))
    return min(2 * math.ceil(R / h) + 1, cap - 1 + cap % 2)


def _local_minima(vals: np.ndarray) -> np.ndarray:
    """Flat indices of the finite entries of an n-D array that are <= each
    of their 2n axis neighbours (missing neighbours count as +inf)."""
    padded = np.pad(vals, 1, constant_values=np.inf)
    ok = np.isfinite(vals)
    inner = [slice(1, -1)] * vals.ndim
    for ax in range(vals.ndim):
        for lo in (0, 2):
            nb = list(inner)
            nb[ax] = slice(lo, lo + vals.shape[ax])
            ok &= vals <= padded[tuple(nb)]
    return np.flatnonzero(ok)


def _refine(f: FunctionSpec, lam: float, X: np.ndarray, W: np.ndarray,
            V: np.ndarray, half: np.ndarray, rounds: int) -> tuple[np.ndarray, np.ndarray]:
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
    for _ in range(rounds):
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


def _cluster(points, values, best: float, value_tol: float,
             radius: float) -> list:
    """Keep points within value_tol of best, grouped by radius.

    Cluster representatives are chosen by (value, lexicographic) order.
    """
    keep = [(v, tuple(p), p) for p, v in zip(points, values)
            if v <= best + value_tol]
    keep.sort(key=lambda t: (t[0], t[1]))
    reps: list = []
    for _, _, p in keep:
        if all(math.dist(p, r) > radius for r in reps):
            reps.append(p)
    return reps


def _divergence_scan(f: FunctionSpec, lam: float, x: np.ndarray,
                     cfg: ProxSolveConfig) -> ProxResult:
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
                   np.array([h]), cfg.refine_iters)
    return ProxResult(float(v[0]), [w[0]], False, R / 2.0)


def _grid_candidates(f: FunctionSpec, lam: float, x: np.ndarray, h: float):
    """Certified radius R at x, and the points, values and effective grid
    step of the grid-local minima of the objective on its grid (step ~h)."""
    R = search_radius(f, lam, x)
    n_axis = _axis_points(R, h, f.dim)
    pts = grid(x, R, n_axis)
    vals = _objective(f, lam, x, pts)
    if not np.any(np.isfinite(vals)):
        raise NoFeasiblePoint(
            f"objective is +inf on the whole certified ball (R={R})"
        )
    cand = _local_minima(vals.reshape((n_axis,) * f.dim))
    if cand.size > _MAX_CANDIDATES:
        cand = cand[np.argsort(vals[cand], kind="stable")[:_MAX_CANDIDATES]]
    return R, pts[cand], vals[cand], 2.0 * R / (n_axis - 1)


def _solve_grid(f: FunctionSpec, lam: float, X: np.ndarray,
                cfg: ProxSolveConfig) -> list:
    if f.dim > 2:
        raise InvalidArgument("grid oracle supports dimensions 1 and 2 only")
    h = cfg.step_for(f.dim)
    radii, seeds, seed_vals, steps = zip(*(_grid_candidates(f, lam, x, h)
                                           for x in X))
    sizes = [len(s) for s in seeds]
    W, V = _refine(f, lam, np.repeat(X, sizes, axis=0), np.concatenate(seeds),
                   np.concatenate(seed_vals), np.repeat(steps, sizes),
                   cfg.refine_iters)
    cuts = np.cumsum(sizes)[:-1]
    out = []
    for R, w, v in zip(radii, np.split(W, cuts), np.split(V, cuts)):
        best = float(v.min())
        reps = _cluster(w, v, best, cfg.value_tol, cfg.cluster_for(f.dim))
        out.append(ProxResult(best, reps, False, R))
    return out


def _solve_closed_form(f: FunctionSpec, lam: float, X: np.ndarray,
                       cfg: ProxSolveConfig) -> list:
    out = []
    for lo in range(0, len(X), _CLOSED_FORM_ROWS):
        Xc = X[lo:lo + _CLOSED_FORM_ROWS]
        C = f.closed_form_prox(lam, Xc)
        # NaN padding gets NaN values, which no comparison in _cluster keeps
        vals = _objective(f, lam, Xc[:, None, :], C)
        best = np.fmin.reduce(vals, axis=1)
        for x, cands, v, b in zip(Xc, C, vals.tolist(), best.tolist()):
            reps = _cluster(cands, v, b, cfg.value_tol, cfg.cluster_for(f.dim))
            out.append(ProxResult(b, reps, False,
                                  max(math.dist(w, x) for w in reps)))
    return out


def _solve(f: FunctionSpec, lam: float, X: np.ndarray,
           cfg: Optional[ProxSolveConfig], force_grid: bool) -> list:
    if lam <= 0:
        raise InvalidArgument("lambda must be positive")
    cfg = cfg or ProxSolveConfig()
    ensure_certificate(f)
    if len(X) == 0:
        return []
    if lam >= f.certificate.threshold:
        return [_divergence_scan(f, lam, x, cfg) for x in X]
    if f.closed_form_prox is not None and not force_grid:
        return _solve_closed_form(f, lam, X, cfg)
    return _solve_grid(f, lam, X, cfg)


def prox_batch(f: FunctionSpec, lam: float, X, cfg: Optional[ProxSolveConfig] = None,
               force_grid: bool = False) -> list:
    """Envelope values and proximal points of f at the rows of an (m, n)
    array X for parameter lam, one ProxResult per row.

    Uses the closed-form prox when the function provides one (unless
    force_grid); below the certified threshold falls back to the certified
    grid oracle, at or above it runs an expanding divergence scan per row.
    """
    return _solve(f, lam, as_points(X, f.dim), cfg, force_grid)


def prox_map(f: FunctionSpec, lam: float, x, cfg: Optional[ProxSolveConfig] = None,
             force_grid: bool = False) -> ProxResult:
    """Envelope value and proximal points of f at the single point x: the
    batch of one of prox_batch."""
    return _solve(f, lam, as_point(x, f.dim)[None, :], cfg, force_grid)[0]


def moreau_envelope(f: FunctionSpec, lam: float, x,
                    cfg: Optional[ProxSolveConfig] = None,
                    force_grid: bool = False) -> float:
    """Envelope value at x; raises ThresholdExceeded when divergence is detected."""
    res = prox_map(f, lam, x, cfg, force_grid=force_grid)
    if res.diverged:
        raise ThresholdExceeded(lam, f.certificate.threshold)
    return res.envelope_value


def envelope_via_shift(f: FunctionSpec, s: QuadShift, lam: float, x,
                       cfg: Optional[ProxSolveConfig] = None) -> float:
    """Envelope of f evaluated through the shifted function's envelope:

        e_lam f(x) = e_gamma psi((x + sigma lam c)/(1 + sigma lam))
                     + sigma/(2 (1 + sigma lam)) ||x - c||^2,

    with gamma = lam/(1 + sigma lam) and psi the sigma-shift of f about c.
    """
    x = as_point(x, f.dim)
    sigma = s.sigma
    if not 0 < lam < 1.0 / abs(sigma):
        raise InvalidLambda(
            f"lambda = {lam} outside (0, {1.0 / abs(sigma)}) for sigma = {sigma}"
        )
    if lam >= f.certificate.threshold:
        raise ThresholdExceeded(lam, f.certificate.threshold)
    c = as_point(s.center, f.dim)
    gamma = lam / (1.0 + sigma * lam)
    psi = quad_shift(f, s)
    if gamma >= psi.certificate.threshold:
        raise ThresholdExceeded(gamma, psi.certificate.threshold)
    u = (x + sigma * lam * c) / (1.0 + sigma * lam)
    inner = moreau_envelope(psi, gamma, u, cfg)
    return inner + sigma / (2.0 * (1.0 + sigma * lam)) * float(np.sum((x - c) ** 2))


def shift_envelope_via_f(f: FunctionSpec, s: QuadShift, lam: float, x,
                         cfg: Optional[ProxSolveConfig] = None) -> float:
    """Envelope of the shifted function evaluated through f's envelope:

        e_lam psi(x) = e_mu f((x - sigma lam c)/(1 - sigma lam))
                       - sigma/(2 (1 - sigma lam)) ||x - c||^2,

    with mu = lam/(1 - sigma lam).
    """
    x = as_point(x, f.dim)
    sigma = s.sigma
    if not 0 < lam < 1.0 / abs(sigma):
        raise InvalidLambda(
            f"lambda = {lam} outside (0, {1.0 / abs(sigma)}) for sigma = {sigma}"
        )
    mu = lam / (1.0 - sigma * lam)
    if mu >= f.certificate.threshold:
        raise ThresholdExceeded(mu, f.certificate.threshold)
    c = as_point(s.center, f.dim)
    v = (x - sigma * lam * c) / (1.0 - sigma * lam)
    outer = moreau_envelope(f, mu, v, cfg)
    return outer - sigma / (2.0 * (1.0 - sigma * lam)) * float(np.sum((x - c) ** 2))


def envelope_gradient(f: FunctionSpec, lam: float, x,
                      cfg: Optional[ProxSolveConfig] = None,
                      force_grid: bool = False) -> np.ndarray:
    """Gradient (x - p)/lam of the envelope where the prox is single-valued."""
    x = as_point(x, f.dim)
    res = prox_map(f, lam, x, cfg, force_grid=force_grid)
    if res.diverged:
        raise ThresholdExceeded(lam, f.certificate.threshold)
    if len(res.minimizers) != 1:
        raise MultivaluedProx(
            f"proximal mapping has {len(res.minimizers)} clusters at x={x}"
        )
    return (x - res.minimizers[0]) / lam
