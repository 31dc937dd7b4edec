"""Desk-scale detection of local/strong minimizers and theorem-style checks.

Sampling is deterministic: unscrambled Halton points in the open ball plus a
full uniform grid (resolution epsilon/100 in 1-D, epsilon/30 per axis in
2-D), so worst-case violations are reproducible run to run.  The Halton
points are computed here in numpy, bit for bit the points of
scipy.stats.qmc.Halton(d, scramble=False), without importing scipy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .envelope import (
    CLUSTER_STEPS,
    VALUE_TOL,
    axis_product,
    grid_step_for,
    prox_batch,
    prox_map,
    require_below_threshold,
)
from .errors import (
    InfiniteAtCenter,
    InvalidArgument,
    PreconditionFailed,
    ThresholdExceeded,
)
from .functions import FunctionSpec, QuadShift, _sq_norm, as_point, quad_shift

# the existential balls of the checks are halved up to this many times
# before a failure is reported
_MAX_SHRINKS = 5
# how far the envelope's sampled strong modulus may fall short of the target
MODULUS_TOL = 0.05


def _no_witness_if_passed(verdict) -> None:
    """The witness rule of every verdict: one that passed has no witness."""
    if verdict.passed:
        verdict.witness = None


@dataclass
class MinimizerCertificate:
    worst_violation: float
    passed: bool
    witness: Optional[np.ndarray] = None

    __post_init__ = _no_witness_if_passed


@dataclass
class VerificationReport:
    theorem_id: str
    passed: bool
    worst_violation: float
    witness: Optional[np.ndarray]
    params: dict

    __post_init__ = _no_witness_if_passed

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "passed": bool(self.passed),
            "worst_violation": jsonable(float(self.worst_violation)),
            "witness": None if self.witness is None else jsonable(
                [float(v) for v in self.witness]),
            "params": jsonable(self.params),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False)


def jsonable(obj):
    """obj with numpy values made JSON-serializable and the floats strict
    JSON has no token for spelled as strings: "inf", "-inf" and "nan"."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable([float(v) for v in obj])
    if isinstance(obj, (np.floating, np.integer)):
        return jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


@functools.lru_cache(maxsize=64)
def _halton(n: int, dim: int) -> np.ndarray:
    """The first n points of the unscrambled Halton sequence in [0, 1)^dim
    (Halton, Numer. Math. 2, 1960), read-only, shape (n, dim).

    Coordinate j is the radical inverse of 0, 1, ..., n-1 in the (j+1)-th
    prime.  Its digits are added least significant first, with the same
    float operations in the same order as scipy's van der Corput loop
    (acc += (q % b) * b2r; b2r /= b; q //= b), so the points equal
    scipy.stats.qmc.Halton(dim, scramble=False).random(n) bit for bit."""
    bases, c = [], 2
    while len(bases) < dim:
        if all(c % b for b in bases):
            bases.append(c)
        c += 1
    out = np.zeros((n, dim))
    for j, base in enumerate(bases):
        q = np.arange(n)
        b2r = 1.0 / base
        while q.any():
            out[:, j] += (q % base) * b2r
            b2r /= base
            q //= base
    out.flags.writeable = False
    return out


def ball_samples(xbar: np.ndarray, epsilon: float, samples: int,
                 grid_axis: Optional[int] = None) -> np.ndarray:
    """Deterministic points in the open ball: Halton draws plus a full grid.

    The default grid resolution is epsilon/100 in 1-D and epsilon/30 per
    axis in 2-D; grid_axis overrides the per-axis point count (used where
    each sample triggers an expensive prox solve).
    """
    dim = xbar.size
    pts = []
    if samples > 0:
        cand = (2.0 * _halton(2 * samples + 16, dim) - 1.0) * epsilon
        keep = np.linalg.norm(cand, axis=1) < epsilon
        pts.append(cand[keep][:samples])
    axis_n = grid_axis if grid_axis is not None else (201 if dim == 1 else 61)
    grid = axis_product(np.linspace(-epsilon, epsilon, axis_n), dim)
    keep = np.linalg.norm(grid, axis=1) < epsilon * (1.0 - 1e-12)
    pts.append(grid[keep])
    return xbar + np.concatenate(pts, axis=0)


BatchFn = Callable[[np.ndarray], np.ndarray]


def envelope_function(f: FunctionSpec, lam: float) -> BatchFn:
    """The envelope of f as a batch callable, (m, n) points to (m,) values;
    raises ThresholdExceeded where divergence is detected."""
    def env(P: np.ndarray) -> np.ndarray:
        results = prox_batch(f, lam, P)
        if any(r.diverged for r in results):
            raise ThresholdExceeded(lam, f.certificate.threshold)
        return np.array([r.envelope_value for r in results])
    return env


def _sampled_ball(f: BatchFn, xbar, epsilon: float, samples: int):
    """xbar as a point, f(xbar), which must be finite, the ball_samples
    around xbar and their values, from one call of f on xbar and the
    samples together."""
    if epsilon <= 0:
        raise InvalidArgument("epsilon must be positive")
    if samples < 0:
        raise InvalidArgument("samples must be nonnegative")
    xbar = as_point(xbar)
    pts = ball_samples(xbar, epsilon, samples)
    vals = f(np.concatenate([xbar[None, :], pts]))
    v = float(vals[0])
    if not math.isfinite(v):
        raise InfiniteAtCenter(f"f is not finite at {xbar}")
    return xbar, v, pts, vals[1:]


def verify_local_min(f: BatchFn, xbar, epsilon: float,
                     samples: int = 128) -> MinimizerCertificate:
    """Sampled check that xbar minimizes f over the open epsilon-ball, up
    to VALUE_TOL.

    f is a batch callable mapping an (m, n) array of points to their (m,)
    values, such as a FunctionSpec or envelope_function(...); it is called
    once, at xbar and all ball samples together.
    """
    xbar, center_val, pts, vals = _sampled_ball(f, xbar, epsilon, samples)
    violations = center_val - vals
    i = int(np.argmax(violations))
    worst = float(violations[i])
    return MinimizerCertificate(worst, worst <= VALUE_TOL, pts[i])


def estimate_strong_modulus(f: BatchFn, xbar, epsilon: float,
                            samples: int = 128) -> float:
    """Infimum of 2*(f(x) - f(xbar))/||x - xbar||^2 over the sampled ball,
    floored at 0; a tiny ball around xbar is excluded to avoid 0/0 ratios.
    f is a batch callable as in verify_local_min."""
    xbar, center_val, pts, vals = _sampled_ball(f, xbar, epsilon, samples)
    d2 = _sq_norm(pts, xbar)
    far = d2 >= 1e-12
    ratios = 2.0 * (vals[far] - center_val) / d2[far]
    return max(float(np.min(ratios, initial=math.inf)), 0.0)


def oracle_tol(f: FunctionSpec) -> float:
    """Accuracy of f's envelope values: 1e-6 from the closed form, 1e-3
    from the grid oracle."""
    return 1e-6 if f.closed_form_prox else 1e-3


def _shrinking(radius: float, attempt: Callable):
    """The search of an existential ball: attempt(r) returns (ok, result),
    and r is halved from radius until ok, at most _MAX_SHRINKS times.
    Returns (halvings, last r tried, its result); radius * 0.5**k is k exact
    halvings."""
    for k in range(_MAX_SHRINKS + 1):
        r = radius * 0.5 ** k
        ok, result = attempt(r)
        if ok:
            break
    return k, r, result


def check_prox_fixed_point(f: FunctionSpec, xbar, lam: float) -> VerificationReport:
    """Passes iff the proximal mapping at xbar is the single cluster {xbar}:
    one cluster, within CLUSTER_STEPS grid steps of xbar."""
    xbar = as_point(xbar, f.dim)
    require_below_threshold(f, lam)
    res = prox_map(f, lam, xbar)
    radius = CLUSTER_STEPS * grid_step_for(f.dim, f.grid_step)
    if res.diverged or not res.minimizers:
        violation = math.inf
        witness = None
    else:
        dists = [float(np.linalg.norm(m - xbar)) for m in res.minimizers]
        violation = max(dists) - radius
        witness = res.minimizers[int(np.argmax(dists))]
    return VerificationReport(
        theorem_id="prox-fixed-point",
        passed=violation <= 0.0 and len(res.minimizers) == 1,
        worst_violation=violation,
        witness=witness,
        params={"lambda": lam, "cluster_radius": radius,
                "tolerance": 0.0, "n_clusters": len(res.minimizers),
                "point": xbar},
    )


def check_error_bound(f: FunctionSpec, xbar, lam: float, U_radius: float,
                      samples: int = 64) -> VerificationReport:
    """Lower error bound of the envelope around a local minimizer:

        e(x) - e(xbar) >= d^2(x; P(x)) / (2 lam)   on a ball around xbar.

    The ball is existential, so the radius is halved up to _MAX_SHRINKS
    times before a failure is reported for the last ball tried.  The
    tolerance is oracle_tol(f).
    """
    xbar = as_point(xbar, f.dim)
    require_below_threshold(f, lam)
    bound_tol = oracle_tol(f)
    # coarser deterministic grid here: every sample costs a prox solve
    grid_axis = 41 if f.dim == 1 else 9

    def attempt(radius):
        pts = ball_samples(xbar, radius, samples, grid_axis=grid_axis)
        pts = np.concatenate([xbar[None, :], pts], axis=0)
        violations = np.full(len(pts), -math.inf)
        results = prox_batch(f, lam, pts)
        # row 0 is xbar, solved as every row is, independently of the rest
        e_bar = results[0].envelope_value
        for k, (p, res) in enumerate(zip(pts, results)):
            if not res.diverged and res.minimizers:
                d = min(math.dist(p, m) for m in res.minimizers)
                violations[k] = d * d / (2.0 * lam) - (res.envelope_value - e_bar)
        k = int(np.argmax(violations))
        worst = float(violations[k])
        at_center = float(violations[0])  # pts[0] is xbar
        return worst <= bound_tol, (worst, pts[k], at_center)

    shrinks, radius, (worst, witness, at_center) = _shrinking(U_radius, attempt)
    return VerificationReport(
        theorem_id="envelope-error-bound",
        passed=worst <= bound_tol,
        worst_violation=worst,
        witness=witness,
        params={"lambda": lam, "radius": radius, "shrinks": shrinks,
                "tolerance": bound_tol, "violation_at_center": at_center,
                "point": xbar},
    )


def check_min_transfer(f: FunctionSpec, xbar, lam: float, epsilon: float,
                       samples: int = 64) -> VerificationReport:
    """Local minimality of f at xbar must agree with that of its envelope.

    Both verdicts are sampled on the same radius; on disagreement the radius
    is halved (the neighborhoods in the equivalence are existential), and a
    failure names the last radius tried.
    """
    xbar = as_point(xbar, f.dim)
    require_below_threshold(f, lam)
    env = envelope_function(f, lam)

    def attempt(eps):
        cert_f = verify_local_min(f, xbar, eps, samples)
        cert_e = verify_local_min(env, xbar, eps, samples)
        return cert_f.passed == cert_e.passed, (cert_f, cert_e)

    _, eps, (cert_f, cert_e) = _shrinking(epsilon, attempt)
    agree = cert_f.passed == cert_e.passed
    return VerificationReport(
        theorem_id="minimizer-transfer",
        passed=agree,
        worst_violation=0.0 if agree else 1.0,
        witness=cert_e.witness if cert_e.witness is not None else cert_f.witness,
        params={"lambda": lam, "epsilon": eps, "tolerance": 0.5,
                "f_is_local_min": cert_f.passed,
                "envelope_is_local_min": cert_e.passed,
                "f_worst_violation": cert_f.worst_violation,
                "envelope_worst_violation": cert_e.worst_violation,
                "point": xbar},
    )


def modulus_transform(sigma: float, lam: float) -> float:
    """Strong-minimizer modulus carried to the envelope: sigma/(1 + sigma*lam)."""
    if sigma <= 0:
        raise InvalidArgument("sigma must be positive")
    if not lam >= 0:
        raise InvalidArgument("lambda must be nonnegative")
    return sigma / (1.0 + sigma * lam)


def modulus_transform_inv(mu: float, lam: float) -> float:
    """Inverse transform: mu/(1 - mu*lam), defined for mu*lam < 1."""
    if mu <= 0:
        raise InvalidArgument("mu must be positive")
    if not lam >= 0 or mu * lam >= 1.0:
        raise InvalidArgument("requires mu*lambda < 1")
    return mu / (1.0 - mu * lam)


def check_strong_transfer(f: FunctionSpec, xbar, sigma: float, epsilon: float,
                          lam: float,
                          samples: int = 64) -> VerificationReport:
    """Strong minimizer of modulus sigma must give the envelope a strong
    minimizer of modulus sigma/(1 + sigma*lam); cross-checked by local
    minimality of the sigma-shifted function at xbar."""
    xbar = as_point(xbar, f.dim)
    if sigma <= 0:
        raise InvalidArgument("sigma must be positive")
    limit = min(f.certificate.threshold, 1.0 / sigma)
    if not 0 < lam < limit:
        raise PreconditionFailed(
            f"lambda = {lam} not in (0, {limit}) for sigma = {sigma}"
        )
    est = estimate_strong_modulus(f, xbar, epsilon, samples)
    if est + 1e-9 < sigma:
        raise PreconditionFailed(
            f"sampled modulus {est:.6g} below the claimed sigma = {sigma}"
        )
    env = envelope_function(f, lam)
    target = modulus_transform(sigma, lam)
    # the envelope's strong-minimizer ball is existential; start from the
    # scaled radius and shrink geometrically before declaring failure
    def attempt(radius):
        env_mod = estimate_strong_modulus(env, xbar, radius, samples)
        return target - env_mod <= MODULUS_TOL, env_mod

    _, _, env_mod = _shrinking(epsilon * (1.0 + sigma * lam), attempt)
    violation = target - env_mod

    shifted = quad_shift(f, QuadShift(sigma, xbar))
    shift_cert = verify_local_min(shifted, xbar, epsilon, samples)

    passed = violation <= MODULUS_TOL and shift_cert.passed
    if not shift_cert.passed:
        violation = math.inf
    return VerificationReport(
        theorem_id="strong-minimizer-transfer",
        passed=passed,
        worst_violation=violation,
        witness=shift_cert.witness,
        params={"lambda": lam, "sigma": sigma, "epsilon": epsilon,
                "tolerance": MODULUS_TOL,
                "envelope_modulus": env_mod, "target_modulus": target,
                "sampled_modulus": est,
                "shift_local_min": shift_cert.passed,
                "point": xbar},
    )
