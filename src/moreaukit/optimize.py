"""Proximal point iteration and gradient descent on the envelope.

With step size equal to the regularization parameter, one gradient step on
the envelope is algebraically the prox step (x - lam*(x - p)/lam = p), so the
two runs must produce identical iterates wherever the prox is single-valued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .envelope import ProxResult, prox_map, require_below_threshold
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


def _iterate(f: FunctionSpec, x0, lam: float, max_iters: int,
             stop_tol: Optional[float], grid_step: Optional[float],
             step: Callable[[np.ndarray, ProxResult], Optional[np.ndarray]]
             ) -> IterTrace:
    """x_{k+1} = step(x_k, r_k), r_k the prox solve at x_k, until a move of
    at most stop_tol (converged), max_iters steps, or a step that returns
    None (aborted, with the partial trace).  multivalued_steps lists each k
    of a step taken from a multivalued r_k."""
    if stop_tol is None:
        stop_tol = 1e-8 if f.closed_form_prox else 1e-5
    x = as_point(x0, f.dim)
    require_below_threshold(f, lam)
    res = prox_map(f, lam, x, grid_step)
    trace = IterTrace([x], [res.envelope_value], False, 0)
    for k in range(1, max_iters + 1):
        nxt = step(x, res)
        if nxt is None:
            trace.aborted = True
            break
        if len(res.minimizers) > 1:
            trace.multivalued_steps.append(k - 1)
        trace.iterations = k
        trace.points.append(nxt)
        res = prox_map(f, lam, nxt, grid_step)
        trace.values.append(res.envelope_value)
        moved = float(np.linalg.norm(nxt - x))
        x = nxt
        if moved <= stop_tol:
            trace.converged = True
            break
    return trace


def proximal_point_run(f: FunctionSpec, x0, lam: float, max_iters: int = 100,
                       stop_tol: Optional[float] = None,
                       grid_step: Optional[float] = None) -> IterTrace:
    """Iterate x_{k+1} in P_lam f(x_k), selecting the representative nearest
    to the current point."""
    return _iterate(f, x0, lam, max_iters, stop_tol, grid_step,
                    lambda x, res: _select_representative(res.minimizers, x))


def envelope_gd_run(f: FunctionSpec, x0, lam: float, step: float,
                    max_iters: int = 100, stop_tol: Optional[float] = None,
                    grid_step: Optional[float] = None) -> IterTrace:
    """Gradient descent x_{k+1} = x_k - step * grad e_lam f(x_k).

    One prox solve per iterate gives both its envelope value and the
    gradient (x - p)/lam taken from it.  A multivalued prox along the
    trajectory aborts with the partial trace.
    """
    if step < 0:
        raise InvalidArgument("step must be nonnegative")

    def descend(x: np.ndarray, res: ProxResult) -> Optional[np.ndarray]:
        if len(res.minimizers) != 1:
            return None
        return x - step * ((x - res.minimizers[0]) / lam)
    return _iterate(f, x0, lam, max_iters, stop_tol, grid_step, descend)


def compare_traces(a: IterTrace, b: IterTrace) -> float:
    """Max pointwise deviation over the common prefix of two traces."""
    n = min(len(a.points), len(b.points))
    if n == 0:
        return 0.0
    return max(float(np.linalg.norm(a.points[k] - b.points[k])) for k in range(n))
