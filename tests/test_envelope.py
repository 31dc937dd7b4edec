import math

import numpy as np
import pytest

from moreaukit import (
    QuadShift,
    catalog_function,
    envelope_gradient,
    envelope_via_shift,
    moreau_envelope,
    parse_function,
    prox_map,
    search_radius,
    shift_envelope_via_f,
)
from moreaukit.errors import (
    InvalidArgument,
    InvalidLambda,
    MultivaluedProx,
    ThresholdExceeded,
)

from conftest import brute_argmin_1d, brute_envelope_1d, brute_envelope_2d


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
        grid = prox_map(f, lam, x, force_grid=True)
        closed = prox_map(f, lam, x)
        assert grid.envelope_value == pytest.approx(closed.envelope_value, abs=1e-6)
        assert len(grid.minimizers) == len(closed.minimizers)
        for g, c in zip(grid.minimizers, closed.minimizers):
            assert np.linalg.norm(g - c) < 1e-2

    def test_matches_brute_force_1d(self):
        f = catalog_function("double_well")
        for x in (-1.7, -0.3, 0.6, 2.1):
            got = moreau_envelope(f, 0.2, [x], force_grid=True)
            ref = brute_envelope_1d(f, 0.2, x)
            assert got == pytest.approx(ref, abs=1e-6)
            p = prox_map(f, 0.2, [x], force_grid=True).minimizers[0][0]
            assert p == pytest.approx(brute_argmin_1d(f, 0.2, x), abs=1e-4)

    def test_matches_brute_force_2d(self):
        f = catalog_function("well_plus_abs_2d")
        got = moreau_envelope(f, 0.1, [0.4, -0.7], force_grid=True)
        ref = brute_envelope_2d(f, 0.1, [0.4, -0.7])
        assert got == pytest.approx(ref, abs=1e-4)

    def test_no_closed_form_path(self):
        f = parse_function("(x1^2-1)^2", 1)
        ref = catalog_function("double_well")
        a = moreau_envelope(f, 0.15, [0.8])
        b = moreau_envelope(ref, 0.15, [0.8])
        assert a == pytest.approx(b, abs=1e-6)


class TestSearchRadius:
    def test_contains_prox_points(self):
        for name, lam, x in (("abs", 1.0, [5.0]), ("double_well", 0.5, [0.0]),
                             ("neg_quad", 0.5, [2.0])):
            f = catalog_function(name)
            R = search_radius(f, lam, np.asarray(x))
            assert R > 0
            for p in prox_map(f, lam, x).minimizers:
                assert np.linalg.norm(p - np.asarray(x)) <= R

    def test_threshold_rejected(self):
        f = catalog_function("neg_quad")
        with pytest.raises(ThresholdExceeded):
            search_radius(f, 1.0, np.array([0.0]))


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
        # for f = x^2, both routes have closed forms; compare exactly
        f = catalog_function("quadratic")
        s = QuadShift(1.0, [0.0])
        lhs = moreau_envelope(f, 0.25, [2.0])
        rhs = envelope_via_shift(f, s, 0.25, [2.0])
        assert rhs == pytest.approx(lhs, abs=1e-8)

    def test_inverse_identity_quadratic(self):
        from moreaukit import quad_shift
        f = catalog_function("quadratic")
        s = QuadShift(1.0, [0.0])
        psi = quad_shift(f, s)
        lhs = moreau_envelope(psi, 0.25, [2.0])
        rhs = shift_envelope_via_f(f, s, 0.25, [2.0])
        assert rhs == pytest.approx(lhs, abs=1e-8)

    def test_negative_sigma(self):
        f = catalog_function("abs")
        s = QuadShift(-1.5, [0.3])
        lhs = moreau_envelope(f, 0.2, [1.1])
        rhs = envelope_via_shift(f, s, 0.2, [1.1])
        assert rhs == pytest.approx(lhs, abs=1e-6)

    def test_lambda_range_enforced(self):
        f = catalog_function("abs")
        with pytest.raises(InvalidLambda):
            envelope_via_shift(f, QuadShift(2.0, [0.0]), 0.6, [1.0])
        with pytest.raises(InvalidLambda):
            shift_envelope_via_f(f, QuadShift(2.0, [0.0]), 0.6, [1.0])

    def test_2d_identity(self):
        f = catalog_function("well_plus_abs_2d")
        s = QuadShift(0.8, [0.2, -0.1])
        lhs = moreau_envelope(f, 0.15, [0.9, 0.4])
        rhs = envelope_via_shift(f, s, 0.15, [0.9, 0.4])
        assert rhs == pytest.approx(lhs, abs=1e-4)
