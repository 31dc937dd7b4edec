"""The suites' choice of oracle, and the suites on 2-D catalog variants."""

import dataclasses

import numpy as np
import pytest

from moreaukit import (
    CATALOG,
    catalog_function,
    check_error_bound,
    envelope_gd_run,
    prox_batch,
    prox_map,
)
from moreaukit import suite
from moreaukit.suite import (
    catalog_matrix,
    run_error_bound_suite,
    run_fixed_point_suite,
    run_full_suite,
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
