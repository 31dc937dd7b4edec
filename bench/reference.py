"""Independent reference answers for the benchmark, using only numpy.

The envelope e_lam f(x) = inf_w f(w) + ||w - x||^2 / (2 lam) is found by a
dense scan: far probes along fixed directions decide whether the objective
is bounded below and how wide to scan, a coarse grid finds the candidate
basins, and nested fine grids zoom in on each.  The functions are written
out here again from their definitions; nothing from the package is used.

Run as a script it prints the reference for one workload and seed as JSON:

    python3 bench/reference.py --workload prox-closed --seed 0
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

import inputs


def _huber(w):
    a = np.abs(w)
    return np.sum(np.where(a <= 1.0, 0.5 * w * w, a - 0.5), axis=-1)


def _box(w):
    inside = np.all((w >= 0.0) & (w <= 1.0), axis=-1)
    return np.where(inside, 0.0, np.inf)


FUNCTIONS = {
    "quadratic": lambda w: np.sum(w * w, axis=-1),
    "abs": lambda w: np.sum(np.abs(w), axis=-1),
    "huber": _huber,
    "box": _box,
    "neg_quad": lambda w: -0.5 * np.sum(w * w, axis=-1),
    "double_well": lambda w: np.sum((w * w - 1.0) ** 2, axis=-1),
    "piecewise": lambda w: np.minimum(w[..., 0] ** 2, (w[..., 0] - 2.0) ** 2 + 0.5),
    "well_plus_abs_2d": lambda w: (w[..., 0] ** 2 - 1.0) ** 2 + np.abs(w[..., 1]),
    # the expressions of inputs.PARSED_FILES
    "well_1d": lambda w: (w[..., 0] ** 2 - 1.0) ** 2,
    "well_abs_2d": lambda w: (w[..., 0] ** 2 - 1.0) ** 2 + np.abs(w[..., 1]),
    "unsound": lambda w: w[..., 0] ** 2 - 0.001 * w[..., 0] ** 4,
}

# A probe value below this along the farthest ring means the objective has
# no lower bound (the envelope is -inf).
_UNBOUNDED = -1e6
_PROBE_RADII = 2.0 ** np.arange(3, 21)  # 8 .. 2^20
_COARSE_1D = 2001
_COARSE_2D = 201
_MARGIN = 0.25  # coarse-grid error is far below this for the functions above
_MAX_CANDIDATES = 8
_ZOOM_POINTS = 41
_ZOOM_STOP = 1e-10


def objective(fn, lam: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        v = fn(w) + np.sum((w - x) ** 2, axis=-1) / (2.0 * lam)
    return np.where(np.isnan(v), np.inf, v)


def _directions(dim: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    d = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]]
    d = np.array(d, dtype=float)
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _grid(center: np.ndarray, half: float, n: int) -> np.ndarray:
    axis = np.linspace(-half, half, n)
    if center.size == 1:
        return center + axis[:, None]
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return center + np.stack([g1.ravel(), g2.ravel()], axis=1)


def _coarse_candidates(vals: np.ndarray, dim: int, n: int) -> np.ndarray:
    """Indices of grid-local minima within _MARGIN of the grid minimum."""
    v = vals.reshape((n,) * dim)
    padded = np.pad(v, 1, constant_values=np.inf)
    ok = np.isfinite(v)
    for axis in range(dim):
        for step in (-1, 1):
            nb = np.roll(padded, step, axis=axis)[(slice(1, -1),) * dim]
            ok &= v <= nb
    idx = np.flatnonzero(ok.ravel())
    best = float(np.min(vals))
    idx = idx[vals[idx] <= best + _MARGIN + 1e-9 * abs(best)]
    order = np.argsort(vals[idx], kind="stable")[:_MAX_CANDIDATES]
    return np.union1d(idx[order], [int(np.argmin(vals))])


def _zoom(obj, w0: np.ndarray, v0: float, h: float) -> float:
    """Nested grids of _ZOOM_POINTS per axis over +-2h, shrinking h by 10."""
    w, v = w0, v0
    while h > _ZOOM_STOP * max(1.0, float(np.max(np.abs(w)))):
        pts = _grid(w, 2.0 * h, _ZOOM_POINTS)
        vals = obj(pts)
        i = int(np.argmin(vals))
        if vals[i] < v:
            w, v = pts[i], float(vals[i])
        h /= 10.0
    return v


def envelope(fn, lam: float, x) -> float:
    """Reference e_lam f(x); -inf when the objective is unbounded below."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.size

    def obj(w):
        return objective(fn, lam, x, w)

    rings = obj(x + _PROBE_RADII[:, None, None] * _directions(dim)[None])
    ring_min = np.min(rings, axis=1)
    if ring_min[-1] < _UNBOUNDED and ring_min[-1] <= np.min(ring_min):
        return -math.inf

    half = 8.0 if dim == 1 else 4.0
    n = _COARSE_1D if dim == 1 else _COARSE_2D
    while True:
        pts = _grid(x, half, n)
        vals = obj(pts)
        best = float(np.min(vals))
        if not np.isfinite(best):
            raise ValueError(f"no finite objective value near x={x}")
        i = int(np.argmin(vals))
        on_edge = np.max(np.abs(pts[i] - x)) >= half * (1.0 - 1e-12)
        beyond = ring_min[_PROBE_RADII > half]
        if not on_edge and not (beyond.size and beyond.min() < best):
            break
        half *= 2.0
    h = 2.0 * half / (n - 1)
    return min(_zoom(obj, pts[i], float(vals[i]), h)
               for i in _coarse_candidates(vals, dim, n))


# ---------------------------------------------------------------------------
# expected answers per workload
# ---------------------------------------------------------------------------

# Checks that `moreaukit verify` runs over the 8 catalog functions, by kind.
# Each is an instance of a theorem of the paper (or, for the negative
# fixed-point kind, of its converse at a point of nonzero slope), so the
# expected verdict of every one is "passed".  Counts: 10 claimed minimizers;
# 3 lambdas each for minimizer transfer and for the error bound (closed form
# and forced grid); 2 lambdas each for fixed points, plus 5 slope points per
# function; 9 strong minimizers; one report per shift identity; 6 PPM starts.
VERIFY_CHECKS = {
    "claimed-minimizer": 10,
    "minimizer-transfer": 30,
    "envelope-error-bound": 60,
    "prox-fixed-point": 20,
    "prox-fixed-point-negative": 40,
    "strong-minimizer-transfer": 9,
    "shift-identity-direct": 1,
    "shift-identity-inverse": 1,
    "ppm-gd-equivalence": 6,
}


def reference(workload: str, seed: int) -> dict:
    if workload == "verify-catalog":
        return {"checks": VERIFY_CHECKS}
    if workload == "envelope-parsed":
        return {"jobs": [
            [envelope(FUNCTIONS[job["name"]], job["lam"], x)
             for x in inputs.job_points(job)]
            for job in inputs.envelope_parsed_jobs(seed)]}
    if workload == "prox-closed":
        return {"envelope": [envelope(FUNCTIONS[name], lam, x)
                             for name, lam, x in inputs.prox_closed_ops(seed)]}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    json.dump(reference(args.workload, args.seed), sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
