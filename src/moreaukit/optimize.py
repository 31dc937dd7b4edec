"""Proximal point iteration and gradient descent on the envelope.

With step size equal to the regularization parameter, one gradient step on
the envelope is algebraically the prox step (x - lam*(x - p)/lam = p), so the
two runs must produce identical iterates wherever the prox is single-valued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .envelope import ProxSolveConfig, prox_map, require_below_threshold
from .errors import InvalidArgument
from .functions import FunctionSpec, as_point


@dataclass
class IterTrace:
    points: list
    values: list
    converged: bool
    iterations: int
    multivalued_steps: list = field(default_factory=list)
    aborted: bool = False

    def to_csv(self) -> str:
        dim = self.points[0].size
        header = "iter," + ",".join(f"x{j+1}" for j in range(dim)) + ",envelope_value"
        lines = [header]
        for k, (p, v) in enumerate(zip(self.points, self.values)):
            coords = ",".join(format(c, ".17g") for c in p)
            lines.append(f"{k},{coords},{format(v, '.17g')}")
        return "\n".join(lines) + "\n"


def _select_representative(reps: list, current: np.ndarray) -> np.ndarray:
    """Nearest representative to the current iterate; ties break lexicographically."""
    keyed = sorted(reps, key=lambda r: (float(np.linalg.norm(r - current)), tuple(r)))
    return keyed[0]


def proximal_point_run(f: FunctionSpec, x0, lam: float, max_iters: int = 100,
                       stop_tol: Optional[float] = None,
                       cfg: Optional[ProxSolveConfig] = None,
                       force_grid: bool = False) -> IterTrace:
    """Iterate x_{k+1} in P_lam f(x_k), selecting the representative nearest
    to the current point."""
    cfg = cfg or ProxSolveConfig()
    if stop_tol is None:
        stop_tol = 1e-8 if (f.closed_form_prox and not force_grid) else 1e-5
    x = as_point(x0, f.dim)
    require_below_threshold(f, lam)
    points = [x]
    res = prox_map(f, lam, x, cfg, force_grid=force_grid)
    values = [res.envelope_value]
    multivalued = []
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        if len(res.minimizers) > 1:
            multivalued.append(k - 1)
        nxt = _select_representative(res.minimizers, x)
        points.append(nxt)
        moved = float(np.linalg.norm(nxt - x))
        x = nxt
        res = prox_map(f, lam, x, cfg, force_grid=force_grid)
        values.append(res.envelope_value)
        if moved <= stop_tol:
            converged = True
            break
    return IterTrace(points, values, converged, k, multivalued)


def envelope_gd_run(f: FunctionSpec, x0, lam: float, step: float,
                    max_iters: int = 100, stop_tol: Optional[float] = None,
                    cfg: Optional[ProxSolveConfig] = None,
                    force_grid: bool = False) -> IterTrace:
    """Gradient descent x_{k+1} = x_k - step * grad e_lam f(x_k).

    One prox solve per iterate gives both its envelope value and the
    gradient (x - p)/lam taken from it.  A multivalued prox along the
    trajectory aborts with the partial trace.
    """
    cfg = cfg or ProxSolveConfig()
    if step < 0:
        raise InvalidArgument("step must be nonnegative")
    if stop_tol is None:
        stop_tol = 1e-8 if (f.closed_form_prox and not force_grid) else 1e-5
    x = as_point(x0, f.dim)
    require_below_threshold(f, lam)
    points = [x]
    res = prox_map(f, lam, x, cfg, force_grid=force_grid)
    values = [res.envelope_value]
    converged = False
    aborted = False
    k = 0
    for k in range(1, max_iters + 1):
        if len(res.minimizers) != 1:
            aborted = True
            k -= 1
            break
        nxt = x - step * ((x - res.minimizers[0]) / lam)
        points.append(nxt)
        res = prox_map(f, lam, nxt, cfg, force_grid=force_grid)
        values.append(res.envelope_value)
        moved = float(np.linalg.norm(nxt - x))
        x = nxt
        if moved <= stop_tol:
            converged = True
            break
    return IterTrace(points, values, converged, k, aborted=aborted)


def compare_traces(a: IterTrace, b: IterTrace) -> float:
    """Max pointwise deviation over the common prefix of two traces."""
    n = min(len(a.points), len(b.points))
    if n == 0:
        return 0.0
    return max(float(np.linalg.norm(a.points[k] - b.points[k])) for k in range(n))
