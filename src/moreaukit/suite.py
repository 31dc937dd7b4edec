"""Verification suite: runs every check over a catalog matrix.

The suite is deterministic given a seed: random draws come from a seeded
generator and everything else uses fixed sampling.  Used by the CLI's
verify subcommand and by the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from .envelope import (
    VALUE_TOL,
    prox_batch,
    require_below_threshold,
    shift_arguments,
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
    oracle_tol,
    verify_local_min,
)
from .optimize import compare_traces, envelope_gd_run, proximal_point_run

# points with nonzero slope (or outside the domain) of each catalog entry
# at its default parameters, keyed by that instance's exact name: the prox
# fixed-point check must fail at each of them.  A variant with other
# parameters gets none.  A default variant in more dimensions gets the lift
# (p, ..., p) of each 1-D point with |p| >= 1: nearer lifts, such as those
# of +-0.5 for huber and neg_quad, move less than the cluster radius of 0.1
# at lambda 0.1
NON_MINIMIZERS: dict[str, list] = {
    "quadratic": [[0.5], [-0.5], [1.0], [-1.0], [2.0]],
    "abs": [[0.5], [-0.5], [1.0], [-1.0], [2.0]],
    "huber": [[0.5], [-0.5], [1.0], [-1.0], [2.0]],
    "box[0.0,1.0]": [[1.5], [2.0], [-0.5], [-1.0], [3.0]],
    "neg_quad(a=0.5)": [[0.5], [-0.5], [1.0], [-1.0], [2.0]],
    "double_well": [[0.5], [-0.5], [1.5], [-1.5], [2.0]],
    "piecewise": [[0.5], [1.0], [1.5], [3.0], [-1.0]],
    "well_plus_abs_2d": [[0.5, 0.0], [1.5, 0.5], [2.0, 1.0],
                         [-0.5, 0.2], [1.8, -0.6]],
}

DEFAULT_FUNCTIONS = ("quadratic", "abs", "huber", "box", "neg_quad",
                     "double_well", "piecewise", "well_plus_abs_2d")

# starting points for the prox-point / envelope-gradient-descent comparison:
# (function, x0, lambda, force_grid); force_grid runs the function's grid
# view, without its closed form
PPM_GD_STARTS = (
    ("quadratic", [1.0], 0.5, False),
    ("abs", [3.0], 1.0, False),
    ("huber", [2.0], 0.5, False),
    ("piecewise", [3.0], 0.1, False),
    ("double_well", [0.4], 0.05, True),
    ("piecewise", [0.8], 0.1, True),
)
PPM_GD_ITERS = 20  # steps of each PPM and gradient-descent run from those starts


def _non_minimizers(f: FunctionSpec) -> list:
    """The points of NON_MINIMIZERS for f, in f's dimension."""
    pts = NON_MINIMIZERS.get(f.name, [])
    if f.dim > 1 and pts and len(pts[0]) == 1:
        return [[p] * f.dim for (p,) in pts if abs(p) >= 1.0]
    return [pt for pt in pts if len(pt) == f.dim]


def transfer_lambdas(f: FunctionSpec) -> list:
    th = f.certificate.threshold
    lams = [0.01, 0.1, 0.5 * min(th, 1.0)]
    return [l for l in lams if l < th]


def catalog_matrix() -> list:
    return [catalog_function(name) for name in DEFAULT_FUNCTIONS]


def _per_minimizer(functions, check) -> list:
    """The reports of check(f, km), a list, for every function f and known
    minimizer km of f in turn, each tagged with f's name."""
    reports = []
    for f in functions or catalog_matrix():
        for km in f.known_minimizers:
            for rep in check(f, km):
                rep.params["function"] = f.name
                reports.append(rep)
    return reports


def run_claimed_minimizer_suite(functions=None, samples: int = 64) -> list:
    """Validate the known-minimizer metadata itself: each claimed point must
    verify as a local minimizer, and strong claims must meet their modulus,
    both up to VALUE_TOL."""
    def claimed(f, km):
        cert = verify_local_min(f, km.point, km.epsilon, samples=samples)
        passed = cert.passed
        violation = cert.worst_violation
        est = None
        if passed and km.kind == "strong":
            est = estimate_strong_modulus(f, km.point, km.epsilon,
                                          samples=samples)
            violation = max(violation, km.modulus - est)
            passed = violation <= VALUE_TOL
        return [VerificationReport(
            theorem_id="claimed-minimizer",
            passed=passed,
            worst_violation=violation,
            witness=cert.witness,
            params={"point": km.point, "kind": km.kind,
                    "claimed_modulus": km.modulus, "sampled_modulus": est,
                    "epsilon": km.epsilon, "tolerance": VALUE_TOL},
        )]
    return _per_minimizer(functions, claimed)


def run_min_transfer_suite(functions=None, samples: int = 64) -> list:
    return _per_minimizer(functions, lambda f, km: [check_min_transfer(
        f, km.point, lam, km.epsilon, samples=samples)
        for lam in transfer_lambdas(f)])


def run_error_bound_suite(functions=None, samples: int = 48,
                          force_grid: bool = False) -> list:
    """The error bound at every known minimizer; with force_grid, on each
    function's grid view, without its closed form."""
    pool = functions or catalog_matrix()
    if force_grid:
        pool = [replace(f, closed_form_prox=None) for f in pool]
    return _per_minimizer(pool, lambda f, km: [check_error_bound(
        f, km.point, lam, km.epsilon, samples=samples)
        for lam in transfer_lambdas(f)])


def run_fixed_point_suite(functions=None) -> list:
    """Fixed point at known minimizers, and failure at the designated slope
    points of f's dimension (_non_minimizers); for each function, the
    fixed points come first."""
    def fixed(f, km):
        reports = [check_prox_fixed_point(f, km.point, lam)
                   for lam in (0.01, 0.1) if lam < f.certificate.threshold]
        for rep in reports:
            rep.params["expected"] = "fixed-point"
        return reports

    reports = []
    for f in functions or catalog_matrix():
        reports += _per_minimizer([f], fixed)
        for pt in _non_minimizers(f) if 0.1 < f.certificate.threshold else []:
            inner = check_prox_fixed_point(f, pt, 0.1)
            reports.append(VerificationReport(
                theorem_id="prox-fixed-point-negative",
                passed=not inner.passed,
                worst_violation=-inner.worst_violation,
                witness=inner.witness,
                params={**inner.params, "function": f.name,
                        "expected": "not-fixed-point"},
            ))
    return reports


def run_strong_transfer_suite(functions=None, samples: int = 64) -> list:
    def strong(f, km):
        if km.kind != "strong":
            return []
        sigma = km.modulus
        lam = min(0.1, 0.6 / sigma, f.certificate.threshold / 4.0)
        try:
            return [check_strong_transfer(f, km.point, sigma, km.epsilon,
                                          lam, samples=samples)]
        except MoreauKitError as exc:
            return [VerificationReport(
                theorem_id="strong-minimizer-transfer",
                passed=False, worst_violation=math.inf, witness=None,
                params={"point": km.point, "sigma": sigma, "lambda": lam,
                        "tolerance": 0.0, "error": str(exc)},
            )]
    return _per_minimizer(functions, strong)


def run_shift_identity_suite(draws: int = 200, seed: int = 0,
                             functions=None) -> list:
    """Random draws of (f, sigma, lambda, x) checking the quadratic-shift
    identity

        e_lam(g + (tau/2)||. - c||^2)(x)
            = e_{lam/(1 + tau lam)} g((x + tau lam c)/(1 + tau lam))
              + tau/(2 (1 + tau lam)) ||x - c||^2

    in both of its uses, with psi = f - (sigma/2)||. - c||^2: (g, tau) =
    (psi, sigma) gives e_lam f (direct) and (g, tau) = (f, -sigma) gives
    e_lam psi (inverse).  Each right-hand side is shift_envelope_via_f's,
    from the same shift_arguments, and each is compared with the envelope
    solved directly.  A draw solves psi's two envelopes, at (lam, x) and
    at the direct identity's (mu, v), as one batch with a lam per row, and
    f's two, at (lam, x) and at the inverse identity's (mu, v), as one more.

    The tolerance is oracle_tol of the base function, which solves the
    direct-envelope side.  With no completed draw both reports fail, with an
    infinite violation.
    """
    rng = np.random.default_rng(seed)
    pool = functions or catalog_matrix()
    done = 0
    attempts = 0
    # (worst excess over the tolerance, its witness) of the direct and the
    # inverse identity
    worst = [(-math.inf, None), (-math.inf, None)]
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
        psi = quad_shift(f, shift)
        tol = oracle_tol(f)
        try:
            mu15, v15, offset15 = shift_arguments(QuadShift(-sigma, center),
                                                  lam, x)
            mu16, v16, offset16 = shift_arguments(shift, lam, x)
            require_below_threshold(psi, mu15)
            require_below_threshold(f, mu16)
        except (ThresholdExceeded, InvalidLambda):
            continue  # draw violated a threshold precondition: resample
        e_psi = prox_batch(psi, [lam, mu15], [x, v15])
        if e_psi.diverged.any():
            continue
        e_f = prox_batch(f, [lam, mu16], [x, v16])
        if e_f.diverged.any():
            continue
        lhs15, e16 = e_f.value.tolist()
        lhs16, e15 = e_psi.value.tolist()
        rhs15, rhs16 = e15 - offset15, e16 - offset16
        for j, err in enumerate((abs(lhs15 - rhs15), abs(lhs16 - rhs16))):
            if err - tol > worst[j][0]:
                worst[j] = (err - tol, x)
        done += 1
    if done == 0:
        worst = [(math.inf, None)] * 2  # no completed draw checks nothing
    return [VerificationReport(
        theorem_id=theorem_id,
        passed=excess <= 0.0,
        worst_violation=excess,
        witness=witness,
        params={"draws": done, "seed": seed, "tolerance": 0.0},
    ) for theorem_id, (excess, witness) in zip(
        ("shift-identity-direct", "shift-identity-inverse"), worst)]


def run_ppm_gd_suite(grid_step: Optional[float] = None) -> list:
    """PPM against envelope gradient descent from each of PPM_GD_STARTS,
    PPM_GD_ITERS steps each, on catalog functions built here at grid step
    grid_step (FunctionSpec.grid_step)."""
    reports = []
    for name, x0, lam, force_grid in PPM_GD_STARTS:
        f = replace(catalog_function(name), grid_step=grid_step)
        if force_grid:
            f = replace(f, closed_form_prox=None)
        tol = 1e-8 if f.closed_form_prox else 1e-4
        ppm = proximal_point_run(f, x0, lam, max_iters=PPM_GD_ITERS, stop_tol=0.0)
        gd = envelope_gd_run(f, x0, lam, step=lam, max_iters=PPM_GD_ITERS,
                             stop_tol=0.0)
        dev = compare_traces(ppm, gd)
        descent = max(
            (b - a for a, b in zip(ppm.values, ppm.values[1:])), default=0.0
        )
        reports.append(VerificationReport(
            theorem_id="ppm-gd-equivalence",
            passed=dev <= tol and descent <= VALUE_TOL,
            worst_violation=max(dev - tol, descent - VALUE_TOL),
            witness=ppm.points[-1],
            params={"function": name, "x0": x0, "lambda": lam,
                    "force_grid": force_grid, "tolerance": tol,
                    "max_deviation": dev, "worst_ascent": descent},
        ))
    return reports


def run_full_suite(seed: int = 0, draws: int = 200,
                   functions=None, samples: int = 48,
                   grid_step: Optional[float] = None) -> list:
    """Every suite over functions, by default the catalog matrix built at
    grid step grid_step, and the PPM/GD starts at that step.  Functions
    passed in keep their own step (FunctionSpec.grid_step)."""
    pool = functions or [replace(f, grid_step=grid_step)
                         for f in catalog_matrix()]
    reports = []
    reports += run_claimed_minimizer_suite(pool, samples=samples)
    reports += run_min_transfer_suite(pool, samples=samples)
    reports += run_error_bound_suite(pool, samples=samples)
    reports += run_error_bound_suite(pool, samples=max(8, samples // 4),
                                     force_grid=True)
    reports += run_fixed_point_suite(pool)
    reports += run_strong_transfer_suite(pool, samples=samples)
    reports += run_shift_identity_suite(draws=draws, seed=seed, functions=pool)
    reports += run_ppm_gd_suite(grid_step=grid_step)
    return reports
