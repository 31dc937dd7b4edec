"""Acceptance suite: ten desk-scale criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import math

import numpy as np
import pytest

from moreaukit import (
    catalog_function,
    check_strong_transfer,
    envelope_gradient,
    moreau_envelope,
    prox_map,
)
from moreaukit.cli import main as cli_main
from moreaukit.suite import (
    catalog_matrix,
    run_error_bound_suite,
    run_fixed_point_suite,
    run_min_transfer_suite,
    run_ppm_gd_suite,
    run_shift_identity_suite,
)

from conftest import grid_view


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_shift_identities():
    reports = run_shift_identity_suite(draws=200, seed=0)
    ok = all(r.passed for r in reports)
    worst = max(r.worst_violation for r in reports)
    _report(1, "quadratic-shift envelope identities over 200 draws", ok,
            f"worst margin {worst:+.3e}")


def test_criterion_02_minimizer_transfer():
    reports = run_min_transfer_suite(samples=48)
    # the matrix must include the nonglobal minimizer at 2 and both wells
    points = {(r.params["function"], tuple(r.params["point"])) for r in reports}
    assert ("piecewise", (2.0,)) in points
    assert ("double_well", (1.0,)) in points and ("double_well", (-1.0,)) in points
    failures = [r for r in reports if not r.passed]
    _report(2, "local-minimizer transfer across the catalog matrix",
            not failures, f"{len(reports)} checks, {len(failures)} failures")


def test_criterion_03_error_bound():
    reports = run_error_bound_suite(samples=16, force_grid=True)
    ok = all(r.passed for r in reports)
    center_ok = all(abs(r.params["violation_at_center"]) <= 1e-9
                    for r in reports)
    worst = max(r.worst_violation for r in reports)
    _report(3, "envelope error bound (grid oracle, tol 1e-3; equality at "
            "the minimizer)", ok and center_ok,
            f"worst violation {worst:+.3e}")


def test_criterion_04_strong_modulus():
    rep_dw = check_strong_transfer(catalog_function("double_well"), [1.0],
                                   6.0, 0.1, 0.1)
    dw_ok = rep_dw.passed and rep_dw.params["envelope_modulus"] >= 3.75 - 0.05
    rep_q = check_strong_transfer(catalog_function("quadratic"), [0.0], 2.0,
                                  0.5, 0.25)
    q_ok = rep_q.passed and abs(
        rep_q.params["envelope_modulus"] - 4.0 / 3.0) <= 1e-6
    _report(4, "strong-minimizer modulus transform sigma/(1+sigma*lambda)",
            dw_ok and q_ok,
            f"double-well modulus {rep_dw.params['envelope_modulus']:.4f}, "
            f"quadratic modulus {rep_q.params['envelope_modulus']:.8f}")


def test_criterion_05_threshold_dichotomy():
    f = catalog_function("neg_quad")
    xs = [x for x in np.linspace(-3.0, 3.0, 13) if x != 0.0]
    ok = True
    for x in xs:
        val = moreau_envelope(f, 0.99, [x])
        exact = -0.5 * x * x / (1.0 - 0.99)
        ok &= math.isfinite(val) and abs(val - exact) <= 1e-6 * abs(exact)
        ok &= prox_map(f, 1.01, [x]).diverged
    _report(5, "prox-boundedness dichotomy for -x^2/2 at lambda 0.99 / 1.01",
            ok, f"{len(xs)} sample points")


def test_criterion_06_fixed_point():
    reports = run_fixed_point_suite()
    positives = [r for r in reports if r.theorem_id == "prox-fixed-point"]
    negatives = [r for r in reports
                 if r.theorem_id == "prox-fixed-point-negative"]
    ok = (all(r.passed for r in reports) and positives
          and len(negatives) >= 5 * len(catalog_matrix()) - 5)
    _report(6, "prox fixed point at minimizers, refuted at slope points",
            bool(ok), f"{len(positives)} positive, {len(negatives)} negative")


def test_criterion_07_ppm_equals_envelope_gd():
    reports = run_ppm_gd_suite(iters=20)
    ok = len(reports) == 6 and all(r.passed for r in reports)
    worst = max(r.params["max_deviation"] for r in reports)
    _report(7, "proximal point = envelope gradient descent with step lambda",
            ok, f"worst iterate deviation {worst:.3e}")


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(42)
    entries = [f for f in catalog_matrix() if f.closed_form_prox]
    ok = True
    worst_env = worst_prox = 0.0
    for k in range(100):
        f = entries[k % len(entries)]
        h = f.grid_step
        lam = float(rng.uniform(0.05, 0.95)) * min(1.0,
                                                   f.certificate.threshold)
        x = rng.uniform(-3.0, 3.0, size=f.dim)
        closed = prox_map(f, lam, x)
        grid = prox_map(grid_view(f), lam, x)
        env_err = abs(grid.envelope_value - closed.envelope_value)
        # envelope error budget: curvature * h^2 with a generous constant
        env_tol = 100.0 * h * h + 1e-9
        prox_err = max(
            min(float(np.linalg.norm(c - g)) for g in grid.minimizers)
            for c in closed.minimizers
        )
        ok &= env_err <= env_tol and prox_err <= 2.0 * h
        worst_env = max(worst_env, env_err)
        worst_prox = max(worst_prox, prox_err)
    _report(8, "grid oracle matches closed-form prox on 100 draws", ok,
            f"worst envelope error {worst_env:.2e}, "
            f"worst prox error {worst_prox:.2e}")


def test_criterion_09_gradient_identity():
    h_fd = 1e-5
    cases = [("quadratic", [-2.3, 0.7, 1.9]), ("abs", [-2.1, 0.4, 2.6]),
             ("huber", [-1.7, 0.6, 2.2]), ("box", [-0.8, 0.5, 2.4])]
    ok = True
    worst = 0.0
    for name, xs in cases:
        f = catalog_function(name)
        for x in xs:
            g = envelope_gradient(f, 0.5, [x])[0]
            fd = (moreau_envelope(f, 0.5, [x + h_fd])
                  - moreau_envelope(f, 0.5, [x - h_fd])) / (2.0 * h_fd)
            err = abs(g - fd) / max(abs(fd), 1e-8)
            ok &= err <= 1e-5
            worst = max(worst, err)
    _report(9, "envelope gradient (x - prox)/lambda vs central differences",
            ok, f"worst relative error {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    dirs = []
    for sub in ("run_a", "run_b"):
        d = tmp_path / sub
        code = cli_main(["verify", "--function", "abs",
                         "--function", "double_well", "--draws", "20",
                         "--seed", "3", "--out", str(d), "--json-summary"])
        assert code == 0
        dirs.append(d)
    names_a = sorted(p.name for p in dirs[0].iterdir())
    names_b = sorted(p.name for p in dirs[1].iterdir())
    ok = names_a == names_b and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
        for n in names_a
    )
    _report(10, "verification runs with equal seeds are byte-identical", ok,
            f"{len(names_a)} output files compared")
