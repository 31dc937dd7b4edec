"""Desk-scale detection of local/strong minimizers and theorem-style checks.

Sampling is deterministic: unscrambled Halton points in the open ball plus a
full uniform grid (resolution epsilon/100 in 1-D, epsilon/30 per axis in
2-D), so worst-case violations are reproducible run to run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.stats import qmc

from .envelope import (
    ProxSolveConfig,
    axis_product,
    moreau_envelope,
    prox_batch,
    prox_map,
)
from .errors import (
    InfiniteAtCenter,
    InvalidArgument,
    PreconditionFailed,
    ThresholdExceeded,
)
from .functions import FunctionSpec, QuadShift, as_point, quad_shift

MODULUS_TOL_DEFAULT = 0.05


@dataclass
class MinimizerCertificate:
    point: np.ndarray
    epsilon: float
    kind: str
    modulus: float
    evidence_samples: int
    worst_violation: float
    passed: bool
    witness: Optional[np.ndarray] = None


@dataclass
class VerificationReport:
    theorem_id: str
    passed: bool
    worst_violation: float
    witness: Optional[np.ndarray]
    params: dict

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "passed": bool(self.passed),
            "worst_violation": float(self.worst_violation),
            "witness": None if self.witness is None else [float(v) for v in self.witness],
            "params": jsonable(self.params),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def jsonable(obj):
    """obj with numpy values made JSON-serializable and infinities spelled
    as strings."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


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
        halton = qmc.Halton(d=dim, scramble=False)
        raw = halton.random(2 * samples + 16)
        cand = (2.0 * raw - 1.0) * epsilon
        keep = np.linalg.norm(cand, axis=1) < epsilon
        pts.append(cand[keep][:samples])
    axis_n = grid_axis if grid_axis is not None else (201 if dim == 1 else 61)
    grid = axis_product(np.linspace(-epsilon, epsilon, axis_n), dim)
    keep = np.linalg.norm(grid, axis=1) < epsilon * (1.0 - 1e-12)
    pts.append(grid[keep])
    return xbar + np.concatenate(pts, axis=0)


BatchFn = Callable[[np.ndarray], np.ndarray]


def envelope_function(f: FunctionSpec, lam: float,
                      cfg: Optional[ProxSolveConfig] = None,
                      force_grid: bool = False) -> BatchFn:
    """The envelope of f as a batch callable, (m, n) points to (m,) values;
    raises ThresholdExceeded where divergence is detected."""
    def env(P: np.ndarray) -> np.ndarray:
        results = prox_batch(f, lam, P, cfg, force_grid=force_grid)
        if any(r.diverged for r in results):
            raise ThresholdExceeded(lam, f.certificate.threshold)
        return np.array([r.envelope_value for r in results])
    return env


def _center_value(f: BatchFn, xbar: np.ndarray) -> float:
    v = float(f(xbar[None, :])[0])
    if not math.isfinite(v):
        raise InfiniteAtCenter(f"f is not finite at {xbar}")
    return v


def verify_local_min(f: BatchFn, xbar, epsilon: float,
                     samples: int = 128,
                     cfg: Optional[ProxSolveConfig] = None) -> MinimizerCertificate:
    """Sampled check that xbar minimizes f over the open epsilon-ball.

    f is a batch callable mapping an (m, n) array of points to their (m,)
    values, such as a FunctionSpec or envelope_function(...); it is called
    once at xbar and once at all ball samples.
    """
    if epsilon <= 0:
        raise InvalidArgument("epsilon must be positive")
    if samples < 0:
        raise InvalidArgument("samples must be nonnegative")
    cfg = cfg or ProxSolveConfig()
    xbar = as_point(xbar)
    center_val = _center_value(f, xbar)
    pts = ball_samples(xbar, epsilon, samples)
    violations = center_val - f(pts)
    i = int(np.argmax(violations))
    worst = float(violations[i])
    passed = worst <= cfg.value_tol
    return MinimizerCertificate(
        point=xbar, epsilon=epsilon, kind="local", modulus=0.0,
        evidence_samples=len(pts), worst_violation=worst, passed=passed,
        witness=None if passed else pts[i],
    )


def estimate_strong_modulus(f: BatchFn, xbar, epsilon: float,
                            samples: int = 128,
                            cfg: Optional[ProxSolveConfig] = None) -> float:
    """Infimum of 2*(f(x) - f(xbar))/||x - xbar||^2 over the sampled ball,
    floored at 0; a tiny ball around xbar is excluded to avoid 0/0 ratios.
    f is a batch callable as in verify_local_min."""
    if epsilon <= 0:
        raise InvalidArgument("epsilon must be positive")
    xbar = as_point(xbar)
    center_val = _center_value(f, xbar)
    pts = ball_samples(xbar, epsilon, samples)
    d2 = np.sum((pts - xbar) ** 2, axis=1)
    far = d2 >= 1e-12
    ratios = 2.0 * (f(pts[far]) - center_val) / d2[far]
    return max(float(np.min(ratios, initial=math.inf)), 0.0)


def check_prox_fixed_point(f: FunctionSpec, xbar, lam: float,
                           cfg: Optional[ProxSolveConfig] = None,
                           force_grid: bool = False) -> VerificationReport:
    """Passes iff the proximal mapping at xbar is the single cluster {xbar}."""
    cfg = cfg or ProxSolveConfig()
    xbar = as_point(xbar, f.dim)
    if lam >= f.certificate.threshold:
        raise ThresholdExceeded(lam, f.certificate.threshold)
    res = prox_map(f, lam, xbar, cfg, force_grid=force_grid)
    cluster_radius = cfg.cluster_for(f.dim)
    if res.diverged or not res.minimizers:
        violation = math.inf
        witness = None
    else:
        dists = [float(np.linalg.norm(m - xbar)) for m in res.minimizers]
        violation = max(dists) - cluster_radius
        witness = res.minimizers[int(np.argmax(dists))]
    passed = violation <= 0.0 and len(res.minimizers) == 1
    return VerificationReport(
        theorem_id="prox-fixed-point",
        passed=passed,
        worst_violation=violation,
        witness=None if passed else witness,
        params={"lambda": lam, "cluster_radius": cluster_radius,
                "tolerance": 0.0, "n_clusters": len(res.minimizers),
                "point": xbar},
    )


def check_error_bound(f: FunctionSpec, xbar, lam: float, U_radius: float,
                      samples: int = 64,
                      cfg: Optional[ProxSolveConfig] = None,
                      bound_tol: Optional[float] = None,
                      force_grid: bool = False,
                      max_shrinks: int = 5) -> VerificationReport:
    """Lower error bound of the envelope around a local minimizer:

        e(x) - e(xbar) >= d^2(x; P(x)) / (2 lam)   on a ball around xbar.

    The ball is existential, so the radius is halved up to max_shrinks times
    before a failure is reported.
    """
    cfg = cfg or ProxSolveConfig()
    xbar = as_point(xbar, f.dim)
    if lam >= f.certificate.threshold:
        raise ThresholdExceeded(lam, f.certificate.threshold)
    if bound_tol is None:
        bound_tol = 1e-6 if (f.closed_form_prox and not force_grid) else 1e-3

    e_bar = moreau_envelope(f, lam, xbar, cfg, force_grid=force_grid)
    radius = U_radius
    worst = math.inf
    witness = None
    viol_at_center = None
    shrinks = 0
    # coarser deterministic grid here: every sample costs a prox solve
    grid_axis = 41 if f.dim == 1 else 9
    for shrinks in range(max_shrinks + 1):
        pts = ball_samples(xbar, radius, samples, grid_axis=grid_axis)
        pts = np.concatenate([xbar[None, :], pts], axis=0)
        violations = np.full(len(pts), -math.inf)
        results = prox_batch(f, lam, pts, cfg, force_grid=force_grid)
        for k, (p, res) in enumerate(zip(pts, results)):
            if not res.diverged and res.minimizers:
                d = min(math.dist(p, m) for m in res.minimizers)
                violations[k] = d * d / (2.0 * lam) - (res.envelope_value - e_bar)
        viol_at_center = float(violations[0])  # pts[0] is xbar
        k = int(np.argmax(violations))
        worst, witness = float(violations[k]), pts[k]
        if worst <= bound_tol:
            break
        radius *= 0.5
    passed = worst <= bound_tol
    return VerificationReport(
        theorem_id="envelope-error-bound",
        passed=passed,
        worst_violation=worst,
        witness=None if passed else witness,
        params={"lambda": lam, "radius": radius, "shrinks": shrinks,
                "tolerance": bound_tol, "violation_at_center": viol_at_center,
                "point": xbar},
    )


def check_min_transfer(f: FunctionSpec, xbar, lam: float, epsilon: float,
                       samples: int = 64,
                       cfg: Optional[ProxSolveConfig] = None,
                       max_shrinks: int = 5) -> VerificationReport:
    """Local minimality of f at xbar must agree with that of its envelope.

    Both verdicts are sampled on the same radius; on disagreement the radius
    is halved (the neighborhoods in the equivalence are existential).
    """
    cfg = cfg or ProxSolveConfig()
    xbar = as_point(xbar, f.dim)
    if lam >= f.certificate.threshold:
        raise ThresholdExceeded(lam, f.certificate.threshold)
    env = envelope_function(f, lam, cfg)
    eps = epsilon
    cert_f = cert_e = None
    for _ in range(max_shrinks + 1):
        cert_f = verify_local_min(f, xbar, eps, samples, cfg)
        cert_e = verify_local_min(env, xbar, eps, samples, cfg)
        if cert_f.passed == cert_e.passed:
            break
        eps *= 0.5
    agree = cert_f.passed == cert_e.passed
    return VerificationReport(
        theorem_id="minimizer-transfer",
        passed=agree,
        worst_violation=0.0 if agree else 1.0,
        witness=None if agree else (cert_e.witness if cert_e.witness is not None
                                    else cert_f.witness),
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
    if lam < 0:
        raise InvalidArgument("lambda must be nonnegative")
    return sigma / (1.0 + sigma * lam)


def modulus_transform_inv(mu: float, lam: float) -> float:
    """Inverse transform: mu/(1 - mu*lam), defined for mu*lam < 1."""
    if mu <= 0:
        raise InvalidArgument("mu must be positive")
    if lam < 0 or mu * lam >= 1.0:
        raise InvalidArgument("requires mu*lambda < 1")
    return mu / (1.0 - mu * lam)


def check_strong_transfer(f: FunctionSpec, xbar, sigma: float, epsilon: float,
                          lam: float,
                          samples: int = 64,
                          cfg: Optional[ProxSolveConfig] = None,
                          modulus_tol: float = MODULUS_TOL_DEFAULT) -> VerificationReport:
    """Strong minimizer of modulus sigma must give the envelope a strong
    minimizer of modulus sigma/(1 + sigma*lam); cross-checked by local
    minimality of the sigma-shifted function at xbar."""
    cfg = cfg or ProxSolveConfig()
    xbar = as_point(xbar, f.dim)
    if sigma <= 0:
        raise InvalidArgument("sigma must be positive")
    limit = min(f.certificate.threshold, 1.0 / sigma)
    if not 0 < lam < limit:
        raise PreconditionFailed(
            f"lambda = {lam} not in (0, {limit}) for sigma = {sigma}"
        )
    est = estimate_strong_modulus(f, xbar, epsilon, samples, cfg)
    if est + 1e-9 < sigma:
        raise PreconditionFailed(
            f"sampled modulus {est:.6g} below the claimed sigma = {sigma}"
        )
    env = envelope_function(f, lam, cfg)
    target = modulus_transform(sigma, lam)
    # the envelope's strong-minimizer ball is existential; start from the
    # scaled radius and shrink geometrically before declaring failure
    env_radius = epsilon * (1.0 + sigma * lam)
    env_mod = -math.inf
    for _ in range(6):
        env_mod = estimate_strong_modulus(env, xbar, env_radius, samples, cfg)
        if target - env_mod <= modulus_tol:
            break
        env_radius *= 0.5
    violation = target - env_mod

    shifted = quad_shift(f, QuadShift(sigma, xbar))
    shift_cert = verify_local_min(shifted, xbar, epsilon, samples, cfg)

    passed = violation <= modulus_tol and shift_cert.passed
    if not shift_cert.passed:
        violation = math.inf
    return VerificationReport(
        theorem_id="strong-minimizer-transfer",
        passed=passed,
        worst_violation=violation,
        witness=None if passed else shift_cert.witness,
        params={"lambda": lam, "sigma": sigma, "epsilon": epsilon,
                "tolerance": modulus_tol,
                "envelope_modulus": env_mod, "target_modulus": target,
                "sampled_modulus": est,
                "shift_local_min": shift_cert.passed,
                "point": xbar},
    )
