"""Refinement of the grid oracle's candidates by a lattice zoom.

The scans of moreaukit.envelope locate each proximal point to a grid step;
_refine polishes every (x, candidate) pair of a batch together.  Each round
evaluates 81 points on a line around a pair, moves to the best on strict
improvement over the pair's point and shrinks to one lattice spacing, 40x
a round.  A 1-D pair zooms on the objective f(w) + (w - x)^2 / (2 lam), in
one evaluator call per round.  The objective of a function with terms,
f(w) = sum_j g_j(w_j), splits by coordinate (Parikh & Boyd, Proximal
Algorithms, 2014, sec. 2.1), so its candidates zoom one axis after the
other: each coordinate is a 1-D pair of its own on the objective's term
a_j(w) = g_j(w) + (w - x_j)^2 / (2 lam), in one term call per round, and
one evaluator call on the end points gives their values.  Only a function
without terms zooms on the lattice of the whole space, _ZOOM_POINTS per
axis, 4x a round.  A pair stops once its lattice is flat to rounding, or,
at a kink or a domain edge, whose lattice is never flat, once its box is
below rounding of its coordinates.  Every value returned is the objective
at the point returned, and a pair's path depends on its own values only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidFunctionValue
from .functions import FunctionSpec, _objective, axis_product

# points of one grid of the grid oracle (moreaukit.envelope) at most, and
# of one evaluator or term call of the refiner, which refines many pairs at
# once, a quarter of that
_MAX_GRID_POINTS = 4_000_000
_CHUNK_ROWS = _MAX_GRID_POINTS // 4
# lattice points per axis of a refinement round on the lattice of the whole
# space (a lattice on a line, of a 1-D pair or of one axis of a function
# with terms, has _ZOOM_POINTS ** 2), and refinement rounds per pair at most
_ZOOM_POINTS = 9
_ZOOM_ROUNDS = 60
# a pair stops once its box is below _ZOOM_FLOOR of its coordinates or its
# lattice values lie within _FLAT (1 + |least|) of the least
_ZOOM_FLOOR = 1e-15
_FLAT = 16.0 * np.finfo(float).eps


def _zoom(values, W: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lattice zoom of pairs at once; row i of W and entry i of half are one
    pair's start point and box half-width, and values(idx, T) gives the
    values of the pairs idx at their lattices T, a (len(idx), k, d) array,
    shape (len(idx), k).  Returns each pair's end point and the least value
    of its last round.

    Each round evaluates, in one values call per chunk of pairs, the lattice
    spanning each active box (k = _ZOOM_POINTS ** 2 points on a line,
    k = _ZOOM_POINTS per axis from 2-D up), moves a pair to its best lattice
    point only on strict improvement over the lattice's centre, offset
    exactly 0, which is the pair's point (so it never ends worse than its
    start), and shrinks the half-width by 2 / (k - 1), to one lattice
    spacing.  Round one takes every pair.  A pair stops once its half-width
    is below rounding of its coordinates, or once its lattice is flat to
    rounding, where no value can tell its points apart (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 5): a smooth minimum
    after a few rounds, never a kink or a box edge, whose lattice holds a
    slope or an infeasible point.  So a pair's path depends on its own
    values only."""
    W, V, half = W.copy(), np.empty(len(W)), half.copy()
    k = _ZOOM_POINTS ** 2 if W.shape[1] == 1 else _ZOOM_POINTS
    unit = axis_product([np.linspace(-1.0, 1.0, k)] * W.shape[1])
    per_call = max(1, _CHUNK_ROWS // len(unit))
    active = np.arange(len(W))
    for _ in range(_ZOOM_ROUNDS):
        for start in range(0, active.size, per_call):
            idx = active[start:start + per_call]
            T = W[idx, None, :] + half[idx, None, None] * unit
            vals = values(idx, T)
            j = np.argmin(vals, axis=1)
            V[idx] = best = vals[np.arange(idx.size), j]
            better = best < vals[:, len(unit) // 2]
            W[idx[better]] = T[better, j[better]]
            half[idx[vals.max(axis=1) - best <= _FLAT * (1.0 + np.abs(best))]] = 0.0
        half[active] *= 2.0 / (k - 1)
        active = np.flatnonzero(half > _ZOOM_FLOOR * (1.0 + np.abs(W).max(axis=1)))
        if active.size == 0:
            break
    return W, V


def _axis_zoom(f: FunctionSpec, lam: np.ndarray, X: np.ndarray, W: np.ndarray,
               half: np.ndarray) -> np.ndarray:
    """The end points of the pairs (entry i of lam, rows i of X and W, entry
    i of half) of a function with terms, refined axis after axis: column j
    of W zooms as 1-D pairs (_zoom) on a_j(w) = g_j(w) + (w - x_j)^2 /
    (2 lam), whose sum over j is the objective, in one term call per round.
    A NaN term value is +inf and a -inf one raises InvalidFunctionValue, as
    in FunctionSpec.batch, naming the pair's start point with the lattice
    coordinate in place, on the first axis that meets a -inf."""
    A, two_lam = W.copy(), 2.0 * lam
    for j, term in enumerate(f.terms):
        def values(idx, T):
            t = T[:, :, 0]
            vals = t - X[idx, j, None]
            vals *= vals
            vals /= two_lam[idx, None]
            vals += term(t.ravel()).reshape(t.shape)  # never into the term's output
            if not np.minimum.reduce(vals, axis=None) > -math.inf:  # a NaN or a -inf
                neg = np.argwhere(vals == -math.inf)
                if len(neg):
                    point = W[idx[neg[0, 0]]].copy()
                    point[j] = t[neg[0, 0], neg[0, 1]]
                    raise InvalidFunctionValue(f"{f.name or 'function'} produced "
                                               f"-inf at {point}")
                vals[np.isnan(vals)] = math.inf
            return vals

        A[:, j] = _zoom(values, W[:, j, None], half)[0][:, 0]
    return A


def _refine(f: FunctionSpec, lam: np.ndarray, X: np.ndarray, W: np.ndarray,
            half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polish all (x, candidate) pairs at once; entry i of lam and row i of
    X, W and half are one pair: its lam, x, start point and box half-width.
    Returns each pair's end point and its objective value.

    A 1-D pair zooms on _objective values, and so does, on the lattice of
    _ZOOM_POINTS per axis, every pair of a function without terms.  A pair
    of a function with terms zooms one axis at a time (_axis_zoom), each
    axis stopping on its own, and one _objective call on the end points
    then gives their values.  So every value returned is _objective at the
    point returned, the only value a scanned candidate gets, and a pair's
    path depends on its own values only."""
    if f.dim == 1 or f.terms is None:
        return _zoom(lambda idx, T: _objective(f, lam[idx, None], X[idx, None, :], T),
                     W, half)
    W = _axis_zoom(f, lam, X, W, half)
    return W, _objective(f, lam, X, W)
