"""The suites' choice of oracle, and the suites on 2-D catalog variants."""

import dataclasses
import math

import numpy as np
import pytest

from moreaukit import (
    CATALOG,
    QuadShift,
    catalog_function,
    check_error_bound,
    envelope_gd_run,
    moreau_envelope,
    prox_batch,
    prox_map,
    quad_shift,
    shift_envelope_via_f,
)
from moreaukit import envelope, minimizers, suite
from moreaukit.cli import main, resolve_function
from moreaukit.errors import InvalidLambda, ThresholdExceeded
from moreaukit.minimizers import VerificationReport, oracle_tol
from moreaukit.suite import (
    catalog_matrix,
    run_error_bound_suite,
    run_fixed_point_suite,
    run_full_suite,
    run_shift_identity_suite,
)

from conftest import grid_view


def _closed_form_raises(f):
    """f with a closed-form prox that fails the test when it is called."""
    def closed_form(lam, X):
        raise AssertionError(f"closed form of {f.name} called")
    return dataclasses.replace(f, closed_form_prox=closed_form)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_grid_view_never_calls_the_closed_form(name):
    f = _closed_form_raises(catalog_function(name))
    lam = 0.25 * min(1.0, f.certificate.threshold)
    X = np.array([[-1.5] * f.dim, [0.3] * f.dim, [1.2] * f.dim])
    with pytest.raises(AssertionError, match="closed form"):
        prox_map(f, lam, X[0])
    g = grid_view(f)
    assert len(prox_batch(g, lam, X)) == 3
    for km in f.known_minimizers[:1]:
        rep = check_error_bound(g, km.point, lam, km.epsilon, samples=8)
        assert rep.params["tolerance"] == 1e-3
    gd = envelope_gd_run(g, X[1], lam, step=lam, max_iters=3)
    assert gd.iterations >= 1


def test_grid_view_stops_at_the_grid_tolerance():
    # the iterates of x^2 at lam = 0.5 halve: a move of at most 1e-5 comes
    # at step 17 and one of at most 1e-8 at step 27
    g = grid_view(catalog_function("quadratic"))
    runs = {tol: envelope_gd_run(g, [1.0], 0.5, step=0.5, stop_tol=tol)
            for tol in (None, 1e-5, 1e-8)}
    assert runs[None].converged
    assert runs[None].iterations == runs[1e-5].iterations == 17
    assert runs[1e-8].iterations == 27


def test_grid_suites_build_their_grid_views(monkeypatch):
    pool = [_closed_form_raises(f) for f in catalog_matrix()]
    reports = run_error_bound_suite(pool, samples=8, force_grid=True)
    assert reports and all(r.passed for r in reports)
    assert {r.params["tolerance"] for r in reports} == {1e-3}

    grid_starts = tuple(s for s in suite.PPM_GD_STARTS if s[3])
    monkeypatch.setattr(suite, "PPM_GD_STARTS", grid_starts)
    monkeypatch.setattr(suite, "catalog_function",
                        lambda name: _closed_form_raises(catalog_function(name)))
    reports = suite.run_ppm_gd_suite()
    assert len(reports) == 2 and all(r.passed for r in reports)
    assert all(r.params["force_grid"] for r in reports)


def test_fixed_point_suite_skips_points_of_another_dimension():
    # the 2-D variant gets the lifts (p, p) of the 1-D points with |p| >= 1
    reports = run_fixed_point_suite([catalog_function("abs", dim=2)])
    assert [r.theorem_id for r in reports] == (
        ["prox-fixed-point"] * 2 + ["prox-fixed-point-negative"] * 3)
    assert [list(r.params["point"]) for r in reports[2:]] == [
        [1.0, 1.0], [-1.0, -1.0], [2.0, 2.0]]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("name", ["quadratic", "huber", "box", "neg_quad",
                                  "double_well"])
def test_every_2d_catalog_variant_gets_negative_fixed_point_checks(name):
    reports = run_fixed_point_suite([catalog_function(name, dim=2)])
    negative = [r for r in reports
                if r.theorem_id == "prox-fixed-point-negative"]
    assert negative and all(r.passed for r in reports)


def test_full_suite_on_a_2d_catalog_variant():
    reports = run_full_suite(draws=10, samples=16,
                             functions=[catalog_function("huber", dim=2)])
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("ref", ["quadratic:a=0.01", "neg_quad:a=0.01",
                                 "box:lo=-1,hi=2.5", "box:lo=-5,hi=5,dim=2"])
def test_a_parametrized_variant_gets_no_negative_fixed_point_checks(ref):
    # the default instance's non-minimizers are prox fixed points of these,
    # or move less than the cluster radius: the wider boxes contain them,
    # and the proxes of +-0.01*x^2 barely move them
    reports = run_full_suite(draws=2, samples=16,
                             functions=[resolve_function(ref)])
    assert reports and all(r.passed for r in reports)
    assert not [r for r in reports
                if r.theorem_id == "prox-fixed-point-negative"]


@pytest.mark.parametrize("via", ["cli", "suite"])
def test_the_grid_step_reaches_every_solve(tmp_path, monkeypatch, via):
    # refinement polishes each candidate far below any grid step, so the
    # values hardly show h: record the step of the function of each solve
    # and of each fixed-point check, whose cluster radius reads it
    h = 2e-3  # the default in neither 1-D (1e-3) nor 2-D (1e-2)
    steps = []

    def recorded(fn):
        def call(f, *args):
            steps.append(f.grid_step)
            return fn(f, *args)
        return call

    monkeypatch.setattr(envelope, "_solve", recorded(envelope._solve))
    monkeypatch.setattr(suite, "check_prox_fixed_point",
                        recorded(minimizers.check_prox_fixed_point))
    if via == "cli":  # --h on every catalog function the CLI resolves
        main(["verify", "--draws", "2", "--samples", "0", "--h", str(h),
              "--out", str(tmp_path)])
    else:  # the catalog matrix at step h, passed to the suite
        assert run_full_suite(draws=2, samples=0, functions=[
            dataclasses.replace(f, grid_step=h) for f in catalog_matrix()])
    assert steps and set(steps) == {h}


@pytest.mark.parametrize("ref, expected", [
    ("abs", ["abs"]),
    # the PPM/GD starts are 1-D, so a 2-D variant gets none
    ("huber:dim=2", []),
])
def test_ppm_gd_checks_read_the_verify_pool(tmp_path, capsys, ref, expected):
    main(["verify", "--function", ref, "--draws", "2", "--samples", "0",
          "--out", str(tmp_path)])
    checked = [line.split()[2] for line in capsys.readouterr().out.splitlines()
               if "ppm-gd-equivalence" in line]
    assert checked == expected


def _shift_suite_four_solves(draws: int, seed: int) -> list:
    """run_shift_identity_suite with one solve per envelope, four a draw:
    the two identities through moreau_envelope and shift_envelope_via_f."""
    rng = np.random.default_rng(seed)
    pool = catalog_matrix()
    done = attempts = 0
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
        try:
            lhs15 = moreau_envelope(f, lam, x)
            rhs15 = shift_envelope_via_f(psi, QuadShift(-sigma, center), lam, x)
            lhs16 = moreau_envelope(psi, lam, x)
            rhs16 = shift_envelope_via_f(f, shift, lam, x)
        except (ThresholdExceeded, InvalidLambda):
            continue
        for j, err in enumerate((abs(lhs15 - rhs15), abs(lhs16 - rhs16))):
            if err - oracle_tol(f) > worst[j][0]:
                worst[j] = (err - oracle_tol(f), x)
        done += 1
    return [VerificationReport(theorem_id, excess <= 0.0, excess, witness,
                               {"draws": done, "seed": seed, "tolerance": 0.0})
            for theorem_id, (excess, witness) in zip(
                ("shift-identity-direct", "shift-identity-inverse"), worst)]


@pytest.mark.parametrize("seed, draws", [(0, 4), (3, 7), (11, 2)])
def test_shift_suite_solves_each_side_once_per_draw(monkeypatch, seed, draws):
    # psi's two envelopes are one batch with a lam per row, and f's two one
    # more; the reports are those of four single solves a draw, exactly
    solves = []
    solve = envelope._solve

    def counted(*args):
        solves.append(args[0].name)
        return solve(*args)

    monkeypatch.setattr(envelope, "_solve", counted)
    got = run_shift_identity_suite(draws=draws, seed=seed)
    monkeypatch.undo()
    assert got[0].params["draws"] == draws
    assert len(solves) <= 2 * draws
    ref = _shift_suite_four_solves(draws, seed)
    assert len(got) == len(ref) == 2
    for a, b in zip(got, ref):
        assert a.theorem_id == b.theorem_id and a.passed == b.passed
        assert a.worst_violation == b.worst_violation and a.params == b.params
        assert (a.witness is None and b.witness is None) or (
            np.array_equal(a.witness, b.witness))
