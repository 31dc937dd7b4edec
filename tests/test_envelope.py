import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moreaukit import (
    FunctionSpec,
    ProxBoundCertificate,
    QuadShift,
    catalog_function,
    envelope_gradient,
    moreau_envelope,
    parse_function,
    prox_batch,
    prox_map,
    quad_shift,
    search_radius,
    shift_envelope_via_f,
)
from moreaukit import envelope, piecewise
from moreaukit.functions import CATALOG
from moreaukit.errors import (
    CertificateInvalid,
    InvalidArgument,
    InvalidLambda,
    MultivaluedProx,
    NoFeasiblePoint,
    ThresholdExceeded,
)

from conftest import brute_argmin_1d, brute_envelope_1d, brute_envelope_2d, grid_view


class TestProxExamples:
    def test_abs_soft_threshold(self):
        # |.| at x=2, lam=1: prox {1}, envelope |1| + 1/2 = 1.5
        res = prox_map(catalog_function("abs"), 1.0, [2.0])
        assert len(res.minimizers) == 1
        assert res.minimizers[0][0] == pytest.approx(1.0)
        assert res.envelope_value == pytest.approx(1.5)

    def test_quadratic_envelope(self):
        # x^2 at x=1, lam=0.5: prox 1/(1+2*0.5)=0.5, envelope 0.25+0.25=0.5
        res = prox_map(catalog_function("quadratic"), 0.5, [1.0])
        assert res.minimizers[0][0] == pytest.approx(0.5)
        assert res.envelope_value == pytest.approx(0.5)

    def test_box_projection(self):
        res = prox_map(catalog_function("box"), 0.5, [2.0])
        assert res.minimizers[0][0] == pytest.approx(1.0)
        assert res.envelope_value == pytest.approx(1.0)

    def test_piecewise_branch_choice(self):
        # min(x^2, (x-2)^2+0.5) at x=2, lam=0.1: right branch wins
        res = prox_map(catalog_function("piecewise"), 0.1, [2.0])
        assert len(res.minimizers) == 1
        assert res.minimizers[0][0] == pytest.approx(2.0 / 1.2 + 0.4 / 1.2)
        e = 0.5 + (2.0 / 1.2 - 2.0 + 0.4 / 1.2) ** 2 * (1.0 + 1.0 / (2 * 0.1 * 4))
        assert res.envelope_value == pytest.approx(
            min(e, brute_envelope_1d(catalog_function("piecewise"), 0.1, 2.0)),
            abs=1e-6,
        )

    def test_double_well_single_valued_small_lambda(self):
        res = prox_map(catalog_function("double_well"), 0.1, [0.0])
        assert len(res.minimizers) == 1
        assert res.minimizers[0][0] == pytest.approx(0.0)

    def test_double_well_multivalued_large_lambda(self):
        # at lam=0.5 the origin sees two symmetric proximal points
        res = prox_map(catalog_function("double_well"), 0.5, [0.0])
        pts = sorted(p[0] for p in res.minimizers)
        assert len(pts) == 2
        assert pts[0] == pytest.approx(-pts[1])
        assert pts[1] == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_invalid_lambda(self):
        with pytest.raises(InvalidArgument):
            prox_map(catalog_function("abs"), -1.0, [0.0])
        with pytest.raises(InvalidArgument):
            prox_map(catalog_function("abs"), 0.0, [0.0])
        # NaN too, on the closed form and on the grid view
        f = catalog_function("abs")
        for view in (f, grid_view(f)):
            with pytest.raises(InvalidArgument):
                prox_map(view, math.nan, [0.5])
            for lam in (-1.0, 0.0, math.nan):
                with pytest.raises(InvalidArgument):
                    search_radius(view, lam, [0.5])

    @pytest.mark.parametrize("name, x", [("quadratic", [1e308]),
                                         ("piecewise", [1e308]),
                                         ("quadratic", [1e308, 0.0])])
    def test_a_point_whose_square_overflows_gives_no_warning(self, name, x):
        # the objective's (w - x)^2 / (2 lam) is +inf there: the closed form
        # answers +inf and the grid view finds no finite value
        f = catalog_function(name, **({"dim": 2} if len(x) == 2 else {}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prox_map(f, 0.1, x).envelope_value == math.inf
            with pytest.raises(NoFeasiblePoint, match="no finite objective"):
                prox_map(grid_view(f), 0.1, x)

    def test_an_infinite_lambda_is_rejected(self):
        # on the closed form and on the grid view, where it would otherwise
        # run the divergence scan (inf is not below the threshold inf); and
        # 1e308, finite but above _MAX_LAMBDA, where abs's radius overflows
        # unless search_radius rejects it first, as prox_map does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, lam in (("double_well", math.inf), ("double_well", 1e308),
                              ("abs", 1e308)):
                f = catalog_function(name)
                for view in (f, grid_view(f)):
                    with pytest.raises(InvalidArgument, match="positive and finite"):
                        prox_map(view, lam, [0.5])
                    with pytest.raises(InvalidArgument, match="positive and finite"):
                        search_radius(view, lam, [0.5])


class TestGridOracle:
    @pytest.mark.parametrize("name,lam,x", [
        ("abs", 1.0, [2.0]),
        ("quadratic", 0.5, [1.0]),
        ("huber", 0.7, [-1.3]),
        ("box", 0.5, [2.0]),
        ("piecewise", 0.1, [0.9]),
        ("double_well", 0.05, [0.4]),
    ])
    def test_matches_closed_form(self, name, lam, x):
        f = catalog_function(name)
        grid = prox_map(grid_view(f), lam, x)
        closed = prox_map(f, lam, x)
        assert grid.envelope_value == pytest.approx(closed.envelope_value, abs=1e-6)
        assert len(grid.minimizers) == len(closed.minimizers)
        for g, c in zip(grid.minimizers, closed.minimizers):
            assert np.linalg.norm(g - c) < 1e-2

    def test_matches_brute_force_1d(self):
        f = grid_view(catalog_function("double_well"))
        for x in (-1.7, -0.3, 0.6, 2.1):
            got = moreau_envelope(f, 0.2, [x])
            ref = brute_envelope_1d(f, 0.2, x)
            assert got == pytest.approx(ref, abs=1e-6)
            p = prox_map(f, 0.2, [x]).minimizers[0][0]
            assert p == pytest.approx(brute_argmin_1d(f, 0.2, x), abs=1e-4)

    def test_matches_brute_force_2d(self):
        f = grid_view(catalog_function("well_plus_abs_2d"))
        got = moreau_envelope(f, 0.1, [0.4, -0.7])
        ref = brute_envelope_2d(f, 0.1, [0.4, -0.7])
        assert got == pytest.approx(ref, abs=1e-4)

    def test_no_closed_form_path(self):
        f = grid_view(parse_function("(x1^2-1)^2", 1))
        ref = catalog_function("double_well")
        a = moreau_envelope(f, 0.15, [0.8])
        b = moreau_envelope(ref, 0.15, [0.8])
        assert a == pytest.approx(b, abs=1e-6)

    @pytest.mark.parametrize("scan", ["per axis", "row"])
    def test_the_candidate_cap_keeps_the_best_candidates(self, monkeypatch, scan):
        # at x = 1 and lambda 0.3 the pieces x1^2 and (x1-2)^2 tie: the
        # prox points are 0.625 and 1.375, two grid minima of equal value.
        # Without terms the grid view takes the row scan
        f = grid_view(parse_function("min((x1-2)^2,x1^2,(x1+2)^2)", 1))
        if scan == "row":
            f = dataclasses.replace(f, terms=None)
        full = prox_map(f, 0.3, [1.0])
        assert len(full.minimizers) == 2
        monkeypatch.setattr(envelope, "_MAX_CANDIDATES", 1)
        capped = prox_map(f, 0.3, [1.0])
        assert capped.envelope_value == full.envelope_value
        assert capped.minimizers
        assert all(any(np.array_equal(p, q) for q in full.minimizers)
                   for p in capped.minimizers)


class TestSearchRadius:
    def test_contains_prox_points(self):
        for name, lam, x in (("abs", 1.0, [5.0]), ("double_well", 0.5, [0.0]),
                             ("neg_quad", 0.5, [2.0])):
            f = catalog_function(name)
            R = search_radius(f, lam, np.asarray(x))
            assert R > 0
            for p in prox_map(f, lam, x).minimizers:
                assert np.linalg.norm(p - np.asarray(x)) <= R

    def test_a_tight_bound_keeps_its_vertex(self):
        # neg_quad is its own certificate, so the radius certified from the
        # envelope value itself has a zero discriminant: the prox point 3
        # of x = 2.25 lies at the vertex distance 0.75, where the bound
        # equals that value
        f = catalog_function("neg_quad")
        x = np.array([2.25])
        res = prox_map(f, 0.25, x)
        assert res.minimizers[0][0] == 3.0
        assert envelope._radius_for(f, 0.25, x, res.envelope_value) >= 0.75

    def test_threshold_rejected(self):
        f = catalog_function("neg_quad")
        with pytest.raises(ThresholdExceeded):
            search_radius(f, 1.0, np.array([0.0]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_huge_certificate_gives_a_finite_radius(self, dim):
        # the derived alpha = beta ~ -5.2e205 give B^2 - 4 A C ~ 1e412, which
        # overflows unless A, B and C are scaled; the root is about 1
        f = grid_view(parse_function("(x1/9.6e-207)", dim))
        lam, x = 4.7999999999999866e-207, np.zeros(dim)
        R = search_radius(f, lam, x)
        assert 1.0 < R < 1.2
        res = prox_map(f, lam, x)
        assert not res.diverged and res.radius_used == R
        assert all(np.linalg.norm(p - x) <= R for p in res.minimizers)

    def test_a_radius_past_every_float_raises(self):
        # lam = 8.98e307 and beta = -1.79e308 give a root of 1.79e308, and
        # a radius 1% larger past every float: a package error, not an
        # arithmetic one
        f = grid_view(parse_function("x1^2", 1, certificate=ProxBoundCertificate(
            0.0, -1.79e308, np.zeros(1), source="supplied")))
        for solve in (search_radius, prox_map):
            with pytest.raises(InvalidArgument, match="no finite search radius"):
                solve(f, 8.98e307, [0.0])


class TestDivergence:
    def test_neg_quad_dichotomy(self):
        # threshold of -x^2/2 is 1: finite just below, diverged just above
        f = catalog_function("neg_quad")
        # closed form: e_lam f(x) = -a x^2 / (1 - 2 a lam), a = 1/2
        val = moreau_envelope(f, 0.99, [1.0])
        assert val == pytest.approx(-0.5 / (1.0 - 0.99), abs=1e-6)
        res = prox_map(f, 1.01, [1.0])
        assert res.diverged
        with pytest.raises(ThresholdExceeded):
            moreau_envelope(f, 1.01, [1.0])

    def test_at_threshold_exactly(self):
        res = prox_map(catalog_function("neg_quad"), 1.0, [0.5])
        assert res.diverged

    def test_a_steep_objective_diverges_on_the_last_grid(self):
        # -1e10 x^2 falls at every doubling to each grid's boundary: the
        # scan reads all 7 grids and diverges on the last, of radius 512
        res = prox_map(catalog_function("neg_quad", a=1e10), 1.0, [0.0])
        assert res.diverged
        assert res.radius_used == 512.0

    def test_a_large_finite_envelope_is_not_divergence(self):
        # min(w^4 - w^2, -w^2/4) at lam 1: for large x the objective
        # -w^2/4 + (w - x)^2/2 is least at w = 2x, value -x^2/2 (-5e13 at
        # x = 1e7), a finite value far below any fixed guess of divergence
        f = parse_function("min(x1^4-x1^2,-0.25*x1^2)", 1)
        X = np.array([[1e3], [1e7]])
        batch = prox_batch(f, 1.0, X)
        assert not batch.diverged.any()
        np.testing.assert_allclose(batch.value, -0.5 * X[:, 0] ** 2, rtol=1e-9)
        np.testing.assert_array_equal(batch.offsets, [0, 1, 2])
        np.testing.assert_allclose(batch.points, 2.0 * X, rtol=1e-6)

    def test_flat_objective_is_not_divergence(self):
        # at the threshold the objective at x = 0 is 0 everywhere: the best
        # value never drops, so the scan refines it
        res = prox_map(catalog_function("neg_quad"), 1.0, [0.0])
        assert not res.diverged
        assert res.envelope_value == 0.0

    @pytest.mark.parametrize("x", [[0.3], [0.3, 0.1]])
    def test_a_minimum_near_x_does_not_hide_divergence(self, x):
        # |w|_1 - |w|^2 / 10 has threshold 5; above it the objective is
        # unbounded below, but the kink at 0 is the best point of the grids
        # of radius 8 and 16, so the best value falls from the third grid
        # on, to the last grid's boundary.  At the threshold the quadratics
        # cancel and the kink at 0 is the minimum
        f = quad_shift(catalog_function("abs", dim=len(x)),
                       QuadShift(0.2, [0.0] * len(x)))
        for lam in (6.0, 12.0):
            res = prox_map(f, lam, x)
            assert res.diverged and res.radius_used == 512.0
        res = prox_map(f, 5.0, x)
        assert not res.diverged
        assert res.envelope_value == pytest.approx(np.dot(x, x) / 10.0, abs=1e-12)

    def test_a_prox_set_above_the_threshold_keeps_every_point(self):
        # x^4 - x^2 has derived threshold 0.5; at lam 0.6 and x = 0 the
        # objective w^4 - w^2 / 6 is least at w = +-1/sqrt(12), value -1/144
        res = prox_map(parse_function("x1^4-x1^2", 1), 0.6, [0.0])
        assert not res.diverged
        np.testing.assert_allclose(sorted(w[0] for w in res.minimizers),
                                   [-12 ** -0.5, 12 ** -0.5], atol=1e-7)
        assert res.envelope_value == pytest.approx(-1.0 / 144.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(0.1, 2.0), frac=st.floats(1.01, 3.0))
    def test_quartic_wells_above_the_threshold(self, c, frac):
        # x^4 - c x^2 at x = 0: w^4 - (c - 1/(2 lam)) w^2 is least at
        # w = +-sqrt(k / 2), k = c - 1/(2 lam), with value -k^2 / 4
        f = parse_function(f"x1^4-{c!r}*x1^2", 1)
        lam = frac * f.certificate.threshold
        k = c - 1.0 / (2.0 * lam)
        res = prox_map(f, lam, [0.0])
        assert not res.diverged
        np.testing.assert_allclose(sorted(w[0] for w in res.minimizers),
                                   [-math.sqrt(k / 2.0), math.sqrt(k / 2.0)],
                                   atol=1e-6)
        assert res.envelope_value == pytest.approx(-k * k / 4.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(0.1, 2.0), b=st.floats(-1.0, 1.0),
           frac=st.floats(1.0, 3.0),
           X=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2))
    def test_divergence_scan_rows_match_brute_force(self, c, b, frac, X):
        # x^4 - c x^2 + b x is prox-bounded for every lam, so a row at or
        # above its certified threshold must not diverge, and its value and
        # every representative must be as good as a dense scan's
        f = parse_function(f"x1^4-{c!r}*x1^2+{b!r}*x1", 1)
        lam = frac * f.certificate.threshold
        budget = 100.0 * f.grid_step ** 2 + 1e-9
        batch = prox_batch(f, lam, np.array(X)[:, None])
        for x, res in zip(X, batch):
            assert not res.diverged
            ref = brute_envelope_1d(f, lam, x)
            assert abs(res.envelope_value - ref) <= budget
            for w in res.minimizers:
                assert f(w) + (w[0] - x) ** 2 / (2.0 * lam) <= ref + budget

    def test_a_divergence_scan_keeps_a_domain_its_last_grid_steps_over(self):
        # lam = 2 is above the threshold; the widest grids around x = (3, 3)
        # step over [-1, 1]^2, but the first, of radius 8 ||x||, reaches its
        # corner (1, 1), where w -> -||w||^2/2 + ||w - x||^2/4 is least
        f = parse_function("-0.5*x1^2-0.5*x2^2+ind(-1,1)", 2)
        res = prox_map(f, 2.0, [3.0, 3.0])
        assert not res.diverged
        assert res.envelope_value == pytest.approx(1.0, abs=1e-9)
        assert len(res.minimizers) == 1
        np.testing.assert_allclose(res.minimizers[0], [1.0, 1.0], atol=1e-9)
        assert res.radius_used == 8.0 * math.sqrt(18.0)


class TestEnvelopeProperties:
    def test_domination(self, rng):
        # e_lam f <= f pointwise on the domain
        for name in ("abs", "quadratic", "double_well", "piecewise"):
            f = catalog_function(name)
            for _ in range(25):
                x = rng.uniform(-3, 3, size=f.dim)
                assert moreau_envelope(f, 0.3, x) <= f(x) + 1e-9

    def test_lambda_monotone(self, rng):
        # e_lam f is nonincreasing in lam
        for name in ("abs", "double_well", "huber"):
            f = catalog_function(name)
            for _ in range(10):
                x = rng.uniform(-3, 3, size=f.dim)
                vals = [moreau_envelope(f, lam, x) for lam in (0.05, 0.2, 0.8)]
                assert vals[0] + 1e-9 >= vals[1] >= vals[2] - 1e-9

    def test_prox_nonempty_below_threshold(self, rng):
        for name in ("abs", "box", "neg_quad", "well_plus_abs_2d"):
            f = catalog_function(name)
            lam = 0.4 * min(1.0, f.certificate.threshold)
            for _ in range(10):
                x = rng.uniform(-3, 3, size=f.dim)
                res = prox_map(f, lam, x)
                assert not res.diverged
                assert len(res.minimizers) >= 1

    def test_global_min_preserved(self):
        # inf e_lam f = inf f, attained at the same global minimizer
        f = catalog_function("double_well")
        assert moreau_envelope(f, 0.3, [1.0]) == pytest.approx(0.0, abs=1e-9)
        assert moreau_envelope(f, 0.3, [0.9]) >= 0.0


class TestGradient:
    def test_formula(self):
        # grad e_lam f(x) = (x - prox)/lam
        g = envelope_gradient(catalog_function("abs"), 1.0, [2.0])
        assert g[0] == pytest.approx(1.0)
        g = envelope_gradient(catalog_function("quadratic"), 0.5, [1.0])
        assert g[0] == pytest.approx(1.0)

    def test_multivalued_raises(self):
        with pytest.raises(MultivaluedProx):
            envelope_gradient(catalog_function("double_well"), 0.5, [0.0])

    def test_matches_finite_differences(self):
        f = catalog_function("huber")
        h = 1e-5
        for x in (-1.2, 0.3, 2.5):
            g = envelope_gradient(f, 0.5, [x])[0]
            fd = (moreau_envelope(f, 0.5, [x + h])
                  - moreau_envelope(f, 0.5, [x - h])) / (2 * h)
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestShiftIdentities:
    def test_direct_identity_quadratic(self):
        # for f = x^2, both routes have closed forms; compare exactly.
        # e_lam f is computed from psi = f - (1/2)x^2 with the shift undone
        f = catalog_function("quadratic")
        psi = quad_shift(f, QuadShift(1.0, [0.0]))
        lhs = moreau_envelope(f, 0.25, [2.0])
        rhs = shift_envelope_via_f(psi, QuadShift(-1.0, [0.0]), 0.25, [2.0])
        assert rhs == pytest.approx(lhs, abs=1e-8)

    def test_inverse_identity_quadratic(self):
        f = catalog_function("quadratic")
        s = QuadShift(1.0, [0.0])
        psi = quad_shift(f, s)
        lhs = moreau_envelope(psi, 0.25, [2.0])
        rhs = shift_envelope_via_f(f, s, 0.25, [2.0])
        assert rhs == pytest.approx(lhs, abs=1e-8)

    # (function, sigma, center, lambda, x, abs tolerance); a tolerance of
    # None marks a lambda outside (0, 1/|sigma|), which both directions reject
    @pytest.mark.parametrize("name,sigma,center,lam,x,tol", [
        pytest.param("abs", -1.5, [0.3], 0.2, [1.1], 1e-6, id="negative-sigma"),
        pytest.param("well_plus_abs_2d", 0.8, [0.2, -0.1], 0.15, [0.9, 0.4],
                     1e-4, id="2d"),
        pytest.param("abs", 2.0, [0.0], 0.6, [1.0], None, id="lambda-range"),
    ])
    def test_both_directions(self, name, sigma, center, lam, x, tol):
        # psi = f - (sigma/2)||. - c||^2: e_lam f through psi's envelope
        # (direct), then e_lam psi through f's envelope (inverse)
        f = catalog_function(name)
        psi = quad_shift(f, QuadShift(sigma, center))
        for target, base, s in ((f, psi, -sigma), (psi, f, sigma)):
            if tol is None:
                with pytest.raises(InvalidLambda):
                    shift_envelope_via_f(base, QuadShift(s, center), lam, x)
                continue
            rhs = shift_envelope_via_f(base, QuadShift(s, center), lam, x)
            assert rhs == pytest.approx(moreau_envelope(target, lam, x), abs=tol)


class TestSolverErrors:
    def test_a_function_infinite_everywhere_has_no_feasible_point(self):
        # x and the anchor are infeasible, and so is every point of the
        # coarse boxes around them
        f = FunctionSpec(1, lambda P: np.full(len(P), np.inf),
                         ProxBoundCertificate(0, 0, [0]))
        with pytest.raises(NoFeasiblePoint, match="no finite objective value"):
            prox_map(f, 0.5, [0.0])

    @pytest.mark.parametrize("terms", [True, False])
    def test_a_box_narrower_than_the_step_slips_through_the_grid(self, terms):
        # the anchor 2.000005 is feasible, so the radius is certified, but
        # no point of the grid around x = 0 (step ~1e-3) lies in the box:
        # the anchor seeds the refinement, which finds the closed form's
        # answer, prox {2} and envelope 2^2 / (2 * 0.5) = 4
        box = catalog_function("box", lo=2.0, hi=2.0 + 1e-5)
        f = grid_view(box)
        assert f.terms is not None
        if not terms:  # the row scan instead of the per-axis scan
            f = dataclasses.replace(f, terms=None)
        res, exact = prox_map(f, 0.5, [0.0]), prox_map(box, 0.5, [0.0])
        assert not res.diverged and len(res.minimizers) == 1
        assert exact.envelope_value == 4.0 and exact.minimizers[0][0] == 2.0
        assert res.envelope_value == pytest.approx(exact.envelope_value, abs=1e-9)
        np.testing.assert_allclose(res.minimizers[0], exact.minimizers[0], atol=1e-9)
        assert res.radius_used == search_radius(f, 0.5, [0.0])

    @pytest.mark.parametrize("expr, dim", [
        ("-0.5*x1^2+ind(1000,1001)", 1),
        ("-0.5*x1^2-0.5*x2^2+ind(1000,1001)", 2),
    ])
    def test_a_divergence_scan_without_a_finite_value_has_no_feasible_point(
            self, expr, dim):
        # lam = 2 is above the certified threshold, and the expanding scans
        # around x = 0, of radius up to 512, never reach the box [1000, 1001]^n
        f = parse_function(expr, dim)
        assert f.certificate.threshold <= 2.0
        with pytest.raises(NoFeasiblePoint, match="no finite objective value"):
            prox_map(f, 2.0, [0.0] * dim)

    def test_the_grid_oracle_refuses_three_dimensions(self):
        f = grid_view(catalog_function("abs", dim=3))
        with pytest.raises(InvalidArgument, match="dimensions 1 and 2"):
            prox_map(f, 0.5, [0.0, 0.0, 0.0])

    def test_the_envelope_gradient_above_the_threshold(self):
        with pytest.raises(ThresholdExceeded):
            envelope_gradient(catalog_function("neg_quad"), 2.0, [1.0])


# ---------------------------------------------------------------------------
# the exact prox of separable piecewise-polynomial parsed functions
# ---------------------------------------------------------------------------

# the points of brute_envelope_1d's scan: a box end taken from them is a
# feasible point of the scan, so the oracle keeps its accuracy at the end
_BRUTE_1D = np.linspace(-12.0, 12.0, 1_200_001)


@st.composite
def _piecewise_term(draw, var: str) -> str:
    """A coercive piecewise polynomial in var: a quadratic or a double well
    plus up to two abs, min and max parts, each with positive coefficients
    and its kinks at multiples of 0.25, which both brute-force scans hold
    (a min's kink is concave, and no proximal point sits there)."""
    coef = st.floats(0.25, 2.0).map(lambda v: f"{v:.3g}")
    at = st.integers(-8, 8).map(lambda k: repr(k / 4))
    root = st.integers(1, 6).map(lambda k: repr((k / 4) ** 2))
    base = draw(st.sampled_from(["{c}*({v}-({d}))^2", "{c}*({v}^2-{r})^2"]))
    parts = draw(st.lists(st.sampled_from([
        "{c}*abs({v}-({d}))",
        "{c}*abs({v}^2-{r})",
        "min({v}^2,({v}-({d}))^2+{c})",
        "max({c}*({v}-({d})),-{e}*({v}-({d})))",
        "{c}*max({v}-({d}),0)^3",
    ]), max_size=2))
    return "+".join(p.format(v=var, c=draw(coef), e=draw(coef), d=draw(at),
                             r=draw(root)) for p in [base] + parts)


@st.composite
def _piecewise_cases(draw):
    """A separable 1-D or 2-D piecewise polynomial, sometimes with a
    top-level ind, with lam below its threshold and 1 to 3 points."""
    dim = draw(st.sampled_from([1, 2]))
    expr = "+".join(draw(_piecewise_term(f"x{j + 1}")) for j in range(dim))
    if draw(st.booleans()):  # a box inside [-2, 2], as both scans hold it
        lo, hi = sorted(draw(st.lists(st.integers(-8, 8), min_size=2,
                                      max_size=2, unique=True)))
        if dim == 1:
            lo, hi = (_BRUTE_1D[600_000 + 12_500 * k].item() for k in (lo, hi))
        else:
            lo, hi = lo / 4, hi / 4
        expr += f"+ind({lo!r},{hi!r})"
    f = parse_function(expr, dim)
    lam = draw(st.floats(0.05, 1.0))
    assume(lam < f.certificate.threshold)
    X = np.array(draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=dim,
                                        max_size=dim), min_size=1, max_size=3)))
    return f, lam, X


class TestExactTerms:
    @settings(max_examples=40, deadline=None)
    @given(case=_piecewise_cases())
    def test_the_exact_prox_is_the_envelope(self, case):
        # every grid value is feasible, so the exact value lies below it up
        # to rounding, and it is within criterion 08's budget of the
        # brute-force oracle
        f, lam, X = case
        assert f.closed_form_prox is not None
        exact, grid = prox_batch(f, lam, X), prox_batch(grid_view(f), lam, X)
        budget = 100.0 * f.grid_step ** 2 + 1e-9
        for x, v, g in zip(X, exact.value.tolist(), grid.value.tolist()):
            assert v <= g + 64 * np.finfo(float).eps * (1.0 + abs(g))
            ref = (brute_envelope_1d(f, lam, x[0]) if f.dim == 1
                   else brute_envelope_2d(f, lam, x))
            assert abs(v - ref) <= budget

    @settings(max_examples=40, deadline=None)
    @given(case=_piecewise_cases(), data=st.data())
    def test_batch_rows_are_their_single_solves(self, case, data):
        # bit for bit, for one lam and for a column of them
        f, lam, X = case
        lams = np.array(data.draw(st.lists(st.floats(0.05, lam), min_size=len(X),
                                           max_size=len(X))))
        for lam_arg, per_row in ((lam, [lam] * len(X)), (lams, lams.tolist())):
            batch = prox_batch(f, lam_arg, X)
            for x, l, res in zip(X, per_row, batch):
                one = prox_map(f, l, x)
                assert res.envelope_value == one.envelope_value
                assert len(res.minimizers) == len(one.minimizers)
                assert all(np.array_equal(p, q)
                           for p, q in zip(res.minimizers, one.minimizers))

    @pytest.mark.parametrize("expr, dim", [
        ("sqrt(x1^2+1)", 1),                # sqrt
        ("x1^2+1/(1+x1^2)", 1),             # division by a nonconstant
        ("x1^2+x1/0", 1),                   # division by zero
        ("x1^2+2*ind(0,1)", 1),             # a nested ind
        ("x1^2-ind(0,1)", 1),               # a negated ind
        ("x1^2+ind(0,1)+ind(2,3)", 1),      # boxes that do not meet
        ("x1^9", 1),                        # a degree above the bound
        ("x1^2+x2^2+x1*x2", 2),             # not separable
        ("(x1+x2)^2", 2),
    ])
    def test_only_piecewise_polynomials_get_an_exact_prox(self, expr, dim):
        assert parse_function(expr, dim).closed_form_prox is None

    def test_no_stationary_point_refutes_the_certificate(self):
        # x^3 at lam 3 and x = -1: w + 9 w^2 + 1 has no real root, so the
        # objective w^3 + (w + 1)^2 / 6 decreases without bound, which the
        # sampled certificate, with threshold 50, rules out
        f = parse_function("x1^3", 1)
        assert f.certificate.threshold > 3.0
        with pytest.raises(CertificateInvalid, match="no stationary point"):
            prox_map(f, 3.0, [-1.0])

    @pytest.mark.filterwarnings("error")
    def test_a_candidate_whose_objective_overflows_is_dropped(self):
        # the breakpoint of max(x1*1.25e-227,1.27) lies near 1e227, where
        # the squared distance from x overflows; the box ends 0 and 1 lie
        # so far from x = 1e200 that no candidate is left
        f = parse_function("max(x1*1.25e-227,1.27)", 1)
        res = prox_map(f, 4.2, [0.0])
        assert res.envelope_value == 1.27 and len(res.minimizers) == 1
        with pytest.raises(InvalidArgument, match="overflows"):
            prox_map(parse_function("x1^2+ind(0,1)", 1), 1.0, [1e200])

    @pytest.mark.parametrize("expr, lam, x, value", [
        ("x1^3+ind(-2,2)", 1e-16, 0.3, 0.3 ** 3),
        ("(x1^2-1)^2", 1e-30, -1.7, 3.5721),
        ("(x1^2-1)^2", 1e-120, 0.3, 0.8281),
    ])
    def test_x_stays_where_its_step_rounds_to_x(self, expr, lam, x, value):
        # x - lam p'(x) rounds to x, so x is the proximal point to rounding;
        # a root of the Fermat polynomial, whose coefficients grow as
        # 1 / lam, lies ulps away, which costs ulps^2 / (2 lam)
        res = prox_map(parse_function(expr, 1), lam, [x])
        assert res.envelope_value == pytest.approx(value, rel=1e-12)
        assert [p.tolist() for p in res.minimizers] == [[x]]

    @pytest.mark.parametrize("name, params", [
        *((name, {}) for name in CATALOG),
        *((name, {"dim": 2}) for name in ("quadratic", "abs", "huber", "box",
                                          "neg_quad", "double_well")),
        ("quadratic", {"a": 0.3}), ("huber", {"delta": 2.0}),
        ("box", {"lo": -1.0, "hi": 2.5}), ("neg_quad", {"a": 0.1}),
        ("huber", {"delta": 0.5, "dim": 2}),
    ])
    def test_the_catalog_closed_forms_are_the_parsed_exact_prox(self, name,
                                                                params):
        # each catalog entry's hand-written pieces against the exact prox
        # that parsing gives its expression, with the same certificate: the
        # same values to rounding and the same proximal sets, whose order
        # ties may change
        f = catalog_function(name, **params)
        parsed = parse_function(f.expr, f.dim, certificate=f.certificate)
        assert parsed.closed_form_prox is not None
        t = np.linspace(-3.0, 3.0, 13 if f.dim == 1 else 7)
        X = np.stack(np.meshgrid(*[t] * f.dim, indexing="ij"), -1).reshape(-1, f.dim)
        radius = envelope.CLUSTER_STEPS * f.grid_step
        for lam in (0.05, 0.3, 0.49, 1.5):
            if lam >= f.certificate.threshold:
                continue
            a, b = prox_batch(f, lam, X), prox_batch(parsed, lam, X)
            assert not a.diverged.any() and not b.diverged.any()
            np.testing.assert_allclose(a.value, b.value, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(a.offsets, b.offsets)
            for i in range(len(X)):
                P, Q = (c.points[c.offsets[i]:c.offsets[i + 1]] for c in (a, b))
                gaps = np.linalg.norm(P[:, None] - Q[None], axis=-1)
                assert gaps.min(axis=1).max() <= radius
                assert gaps.min(axis=0).max() <= radius

    def test_the_catalog_keeps_its_own_pieces(self, monkeypatch):
        # _entry replaces the parsed exact prox, which so never finds its
        # pieces
        def refuse(node, lo, hi):
            raise AssertionError(f"pieces of {node} found")
        monkeypatch.setattr(piecewise, "ExactTerm", refuse)
        for name in CATALOG:
            f = catalog_function(name)
            lam = 0.5 * min(1.0, f.certificate.threshold)
            assert not prox_map(f, lam, [0.5] * f.dim).diverged
