"""Proximal point iteration and gradient descent on the envelope.

With step size equal to the regularization parameter, one gradient step on
the envelope is algebraically the prox step (x - lam*(x - p)/lam = p), so the
two runs must produce identical iterates wherever the prox is single-valued.

Runs of one f and lam advance in lockstep (_iterate): each step solves the
distinct new iterates of every run still going in one prox_batch, whose
rows are their prox_map answers bit for bit, so each trace is the one its
run gives alone.  ppm_gd_runs runs PPM and gradient descent together, one
batch of at most 2 rows per step, and of 1 where their iterates are equal,
as with step lam; proximal_point_run and envelope_gd_run are the runs of
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .envelope import ProxResult, prox_batch, require_below_threshold
from .errors import InvalidArgument
from .functions import FunctionSpec, _norms, as_point


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


def _solve(f: FunctionSpec, lam: float, points: list) -> list:
    """The prox solves at points, one prox_batch of the distinct ones (bit
    for bit): a ProxResult per point."""
    rows, at = {}, []
    for x in points:
        at.append(rows.setdefault(x.tobytes(), (len(rows), x))[0])
    batch = prox_batch(f, lam, np.stack([x for _, x in rows.values()]))
    return [batch[i] for i in at]


def _iterate(f: FunctionSpec, x0, lam: float, max_iters: int,
             stop_tol: Optional[float], steps: list) -> list:
    """One run from x0 per step rule in steps, advanced together, each as
    it would run alone: x_{k+1} = step(x_k, r_k), r_k the prox solve at
    x_k, until a move of at most stop_tol (converged), max_iters steps, or a
    step that returns None (aborted, with the partial trace).
    multivalued_steps lists each k of a step taken from a multivalued r_k.
    Each step solves the new iterates of the runs still going in one
    prox_batch of the distinct ones (_solve), whose rows are their prox_map
    answers bit for bit."""
    if stop_tol is None:
        stop_tol = 1e-8 if f.closed_form_prox else 1e-5
    x = as_point(x0, f.dim)
    require_below_threshold(f, lam)
    batch = _solve(f, lam, [x] * len(steps))
    traces = [IterTrace([x], [res.envelope_value], False, 0) for res in batch]
    going = list(zip(traces, steps, batch))
    for k in range(1, max_iters + 1):
        moves = []
        for trace, step, res in going:
            x = trace.points[-1]
            nxt = step(x, res)
            if nxt is None:
                trace.aborted = True
                continue
            if len(res.minimizers) > 1:
                trace.multivalued_steps.append(k - 1)
            trace.iterations = k
            trace.points.append(nxt)
            moves.append((trace, step, float(_norms(nxt - x))))
        if not moves:
            break
        batch = _solve(f, lam, [as_point(t.points[-1], f.dim)
                                for t, _, _ in moves])
        going = []
        for (trace, step, moved), res in zip(moves, batch):
            trace.values.append(res.envelope_value)
            if moved <= stop_tol:
                trace.converged = True
            else:
                going.append((trace, step, res))
        if not going:
            break
    return traces


def _nearest(x: np.ndarray, res: ProxResult) -> np.ndarray:
    """The proximal point step: the representative of res nearest to x;
    ties break lexicographically."""
    P = np.array(res.minimizers)
    return res.minimizers[np.lexsort(np.vstack([P.T[::-1], _norms(P - x)]))[0]]


def _descent_step(lam: float, step: float) -> Callable:
    """The envelope gradient step x - step * (x - p) / lam from the prox
    solve at x, or None (abort) where the prox is multivalued."""
    if not step >= 0:
        raise InvalidArgument("step must be nonnegative")

    def descend(x: np.ndarray, res: ProxResult) -> Optional[np.ndarray]:
        if len(res.minimizers) != 1:
            return None
        return x - step * ((x - res.minimizers[0]) / lam)
    return descend


def proximal_point_run(f: FunctionSpec, x0, lam: float, max_iters: int = 100,
                       stop_tol: Optional[float] = None) -> IterTrace:
    """Iterate x_{k+1} in P_lam f(x_k), selecting the representative nearest
    to the current point."""
    return _iterate(f, x0, lam, max_iters, stop_tol, [_nearest])[0]


def envelope_gd_run(f: FunctionSpec, x0, lam: float, step: float,
                    max_iters: int = 100,
                    stop_tol: Optional[float] = None) -> IterTrace:
    """Gradient descent x_{k+1} = x_k - step * grad e_lam f(x_k).

    One prox solve per iterate gives both its envelope value and the
    gradient (x - p)/lam taken from it.  A multivalued prox along the
    trajectory aborts with the partial trace.
    """
    return _iterate(f, x0, lam, max_iters, stop_tol,
                    [_descent_step(lam, step)])[0]


def ppm_gd_runs(f: FunctionSpec, x0, lam: float, step: float,
                max_iters: int = 100,
                stop_tol: Optional[float] = None) -> tuple:
    """(proximal_point_run(f, x0, lam, max_iters, stop_tol),
    envelope_gd_run(f, x0, lam, step, max_iters, stop_tol)), the same traces
    from one prox_batch of both runs' distinct iterates per step."""
    ppm, gd = _iterate(f, x0, lam, max_iters, stop_tol,
                       [_nearest, _descent_step(lam, step)])
    return ppm, gd


def compare_traces(a: IterTrace, b: IterTrace) -> float:
    """Max pointwise deviation over the common prefix of two traces."""
    n = min(len(a.points), len(b.points))
    if n == 0:
        return 0.0
    return float(np.max(_norms(np.array(a.points[:n]) - np.array(b.points[:n]))))
