"""Verification suite: runs every check over a catalog matrix.

The suite is deterministic given a seed: random draws come from a seeded
generator and everything else uses fixed sampling.  Used by the CLI's
verify subcommand and by the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .envelope import (
    ProxSolveConfig,
    envelope_via_shift,
    moreau_envelope,
    shift_envelope_via_f,
)
from .errors import InvalidLambda, MoreauKitError, ThresholdExceeded
from .functions import FunctionSpec, QuadShift, catalog_function, quad_shift
from .minimizers import (
    VerificationReport,
    check_error_bound,
    check_min_transfer,
    check_prox_fixed_point,
    check_strong_transfer,
    estimate_strong_modulus,
    verify_local_min,
)
from .optimize import compare_traces, envelope_gd_run, proximal_point_run

# points with nonzero slope (or outside the domain): the prox fixed-point
# check must fail at each of them
NON_MINIMIZERS: dict[str, list] = {
    "quadratic": [[0.5], [-0.5], [1.0], [-1.0], [2.0]],
    "abs": [[0.5], [-0.5], [1.0], [-1.0], [2.0]],
    "huber": [[0.5], [-0.5], [1.0], [-1.0], [2.0]],
    "box": [[1.5], [2.0], [-0.5], [-1.0], [3.0]],
    "neg_quad": [[0.5], [-0.5], [1.0], [-1.0], [2.0]],
    "double_well": [[0.5], [-0.5], [1.5], [-1.5], [2.0]],
    "piecewise": [[0.5], [1.0], [1.5], [3.0], [-1.0]],
    "well_plus_abs_2d": [[0.5, 0.0], [1.5, 0.5], [2.0, 1.0],
                         [-0.5, 0.2], [1.8, -0.6]],
}

DEFAULT_FUNCTIONS = ("quadratic", "abs", "huber", "box", "neg_quad",
                     "double_well", "piecewise", "well_plus_abs_2d")

# starting points for the prox-point / envelope-gradient-descent comparison:
# (function, x0, lambda, force_grid, tolerance)
PPM_GD_STARTS = (
    ("quadratic", [1.0], 0.5, False, 1e-8),
    ("abs", [3.0], 1.0, False, 1e-8),
    ("huber", [2.0], 0.5, False, 1e-8),
    ("piecewise", [3.0], 0.1, False, 1e-8),
    ("double_well", [0.4], 0.05, True, 1e-4),
    ("piecewise", [0.8], 0.1, True, 1e-4),
)


def _base_name(name: str) -> str:
    """Strip parameter decorations, e.g. 'box[0,1]' -> 'box'."""
    for sep in ("(", "["):
        name = name.split(sep, 1)[0]
    return name


def transfer_lambdas(f: FunctionSpec) -> list:
    th = f.certificate.threshold
    lams = [0.01, 0.1, 0.5 * min(th, 1.0)]
    return [l for l in lams if l < th]


def catalog_matrix(names=DEFAULT_FUNCTIONS) -> list:
    return [catalog_function(name) for name in names]


def run_claimed_minimizer_suite(functions=None, samples: int = 64,
                                cfg: Optional[ProxSolveConfig] = None) -> list:
    """Validate the known-minimizer metadata itself: each claimed point must
    verify as a local minimizer, and strong claims must meet their modulus."""
    reports = []
    for f in functions or catalog_matrix():
        for km in f.known_minimizers:
            cert = verify_local_min(f, km.point, km.epsilon, samples=samples,
                                    cfg=cfg)
            passed = cert.passed
            violation = cert.worst_violation
            est = None
            if passed and km.kind == "strong":
                est = estimate_strong_modulus(f, km.point, km.epsilon,
                                              samples=samples, cfg=cfg)
                violation = max(violation, km.modulus - est)
                passed = violation <= 1e-9
            reports.append(VerificationReport(
                theorem_id="claimed-minimizer",
                passed=passed,
                worst_violation=violation,
                witness=cert.witness,
                params={"function": f.name, "point": km.point,
                        "kind": km.kind, "claimed_modulus": km.modulus,
                        "sampled_modulus": est, "epsilon": km.epsilon,
                        "tolerance": 1e-9},
            ))
    return reports


def run_min_transfer_suite(functions=None, samples: int = 64,
                           cfg: Optional[ProxSolveConfig] = None) -> list:
    reports = []
    for f in functions or catalog_matrix():
        for km in f.known_minimizers:
            for lam in transfer_lambdas(f):
                rep = check_min_transfer(f, km.point, lam, km.epsilon,
                                         samples=samples, cfg=cfg)
                rep.params["function"] = f.name
                reports.append(rep)
    return reports


def run_error_bound_suite(functions=None, samples: int = 48,
                          cfg: Optional[ProxSolveConfig] = None,
                          force_grid: bool = False) -> list:
    reports = []
    for f in functions or catalog_matrix():
        for km in f.known_minimizers:
            for lam in transfer_lambdas(f):
                rep = check_error_bound(f, km.point, lam, km.epsilon,
                                        samples=samples, cfg=cfg,
                                        force_grid=force_grid)
                rep.params["function"] = f.name
                reports.append(rep)
    return reports


def run_fixed_point_suite(functions=None,
                          cfg: Optional[ProxSolveConfig] = None) -> list:
    """Fixed point at known minimizers, and failure at designated slope points."""
    reports = []
    for f in functions or catalog_matrix():
        for km in f.known_minimizers:
            for lam in (0.01, 0.1):
                if lam >= f.certificate.threshold:
                    continue
                rep = check_prox_fixed_point(f, km.point, lam, cfg=cfg)
                rep.params["function"] = f.name
                rep.params["expected"] = "fixed-point"
                reports.append(rep)
        for pt in NON_MINIMIZERS.get(_base_name(f.name), []):
            for lam in (0.1,):
                if lam >= f.certificate.threshold:
                    continue
                inner = check_prox_fixed_point(f, pt, lam, cfg=cfg)
                rep = VerificationReport(
                    theorem_id="prox-fixed-point-negative",
                    passed=not inner.passed,
                    worst_violation=-inner.worst_violation,
                    witness=None if not inner.passed else inner.witness,
                    params={**inner.params, "function": f.name,
                            "expected": "not-fixed-point"},
                )
                reports.append(rep)
    return reports


def run_strong_transfer_suite(functions=None, samples: int = 64,
                              cfg: Optional[ProxSolveConfig] = None) -> list:
    reports = []
    for f in functions or catalog_matrix():
        for km in f.known_minimizers:
            if km.kind != "strong":
                continue
            sigma = km.modulus
            lam = min(0.1, 0.6 / sigma, f.certificate.threshold / 4.0)
            try:
                rep = check_strong_transfer(f, km.point, sigma, km.epsilon,
                                            lam, samples=samples, cfg=cfg)
            except MoreauKitError as exc:
                rep = VerificationReport(
                    theorem_id="strong-minimizer-transfer",
                    passed=False, worst_violation=math.inf, witness=None,
                    params={"function": f.name, "point": km.point,
                            "sigma": sigma, "lambda": lam,
                            "tolerance": 0.0, "error": str(exc)},
                )
            rep.params["function"] = f.name
            reports.append(rep)
    return reports


def run_shift_identity_suite(draws: int = 200, seed: int = 0,
                             functions=None,
                             cfg: Optional[ProxSolveConfig] = None) -> list:
    """Random draws of (f, sigma, lambda, x) checking both shift identities.

    Tolerance is 1e-6 when the base function has a closed-form prox for the
    direct-envelope side, 1e-3 otherwise.
    """
    rng = np.random.default_rng(seed)
    pool = functions or catalog_matrix()
    reports = []
    done = 0
    attempts = 0
    worst_15 = worst_16 = -math.inf
    witness_15 = witness_16 = None
    while done < draws and attempts < 50 * draws:
        attempts += 1
        f = pool[rng.integers(len(pool))]
        sigma = float(rng.uniform(-2.0, 2.0))
        if abs(sigma) < 0.05:
            continue
        hi = min(f.certificate.threshold, 1.0 / abs(sigma)) / 2.0
        lam = float(rng.uniform(0.2, 0.98)) * hi
        x = rng.uniform(-3.0, 3.0, size=f.dim)
        center = rng.uniform(-1.0, 1.0, size=f.dim)
        shift = QuadShift(sigma, center)
        tol = 1e-6 if f.closed_form_prox else 1e-3
        try:
            lhs15 = moreau_envelope(f, lam, x, cfg)
            rhs15 = envelope_via_shift(f, shift, lam, x, cfg)
            psi = quad_shift(f, shift)
            lhs16 = moreau_envelope(psi, lam, x, cfg)
            rhs16 = shift_envelope_via_f(f, shift, lam, x, cfg)
        except (ThresholdExceeded, InvalidLambda):
            continue  # draw violated a threshold precondition: resample
        err15 = abs(lhs15 - rhs15)
        err16 = abs(lhs16 - rhs16)
        if err15 - tol > worst_15:
            worst_15, witness_15 = err15 - tol, x
        if err16 - tol > worst_16:
            worst_16, witness_16 = err16 - tol, x
        done += 1
    reports.append(VerificationReport(
        theorem_id="shift-identity-direct",
        passed=worst_15 <= 0.0,
        worst_violation=worst_15,
        witness=None if worst_15 <= 0.0 else witness_15,
        params={"draws": done, "seed": seed, "tolerance": 0.0},
    ))
    reports.append(VerificationReport(
        theorem_id="shift-identity-inverse",
        passed=worst_16 <= 0.0,
        worst_violation=worst_16,
        witness=None if worst_16 <= 0.0 else witness_16,
        params={"draws": done, "seed": seed, "tolerance": 0.0},
    ))
    return reports


def run_ppm_gd_suite(starts=PPM_GD_STARTS, iters: int = 20,
                     cfg: Optional[ProxSolveConfig] = None) -> list:
    reports = []
    for name, x0, lam, force_grid, tol in starts:
        f = catalog_function(name)
        ppm = proximal_point_run(f, x0, lam, max_iters=iters, stop_tol=0.0,
                                 cfg=cfg, force_grid=force_grid)
        gd = envelope_gd_run(f, x0, lam, step=lam, max_iters=iters,
                             stop_tol=0.0, cfg=cfg, force_grid=force_grid)
        dev = compare_traces(ppm, gd)
        descent = max(
            (b - a for a, b in zip(ppm.values, ppm.values[1:])), default=0.0
        )
        value_tol = (cfg or ProxSolveConfig()).value_tol
        passed = dev <= tol and descent <= value_tol
        reports.append(VerificationReport(
            theorem_id="ppm-gd-equivalence",
            passed=passed,
            worst_violation=max(dev - tol, descent - value_tol),
            witness=None if passed else ppm.points[-1],
            params={"function": name, "x0": x0, "lambda": lam,
                    "force_grid": force_grid, "tolerance": tol,
                    "max_deviation": dev, "worst_ascent": descent},
        ))
    return reports


def run_full_suite(seed: int = 0, draws: int = 200,
                   functions=None, samples: int = 48,
                   cfg: Optional[ProxSolveConfig] = None,
                   include_grid_error_bound: bool = True) -> list:
    pool = functions or catalog_matrix()
    reports = []
    reports += run_claimed_minimizer_suite(pool, samples=samples, cfg=cfg)
    reports += run_min_transfer_suite(pool, samples=samples, cfg=cfg)
    reports += run_error_bound_suite(pool, samples=samples, cfg=cfg)
    if include_grid_error_bound:
        reports += run_error_bound_suite(pool, samples=max(8, samples // 4),
                                         cfg=cfg, force_grid=True)
    reports += run_fixed_point_suite(pool, cfg=cfg)
    reports += run_strong_transfer_suite(pool, samples=samples, cfg=cfg)
    reports += run_shift_identity_suite(draws=draws, seed=seed,
                                        functions=pool, cfg=cfg)
    reports += run_ppm_gd_suite(cfg=cfg)
    return reports
