import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moreaukit import (
    CATALOG,
    FunctionSpec,
    KnownMinimizer,
    ProxBoundCertificate,
    QuadShift,
    catalog_function,
    parse_function,
    prox_map,
    quad_shift,
    validate_certificate,
)
from moreaukit.errors import DimensionMismatch, InvalidArgument
from moreaukit.functions import _double_well_prox_1d, _norms, axis_product


def all_catalog():
    return [catalog_function(name) for name in CATALOG]


class TestEvaluate:
    def test_abs_at_two(self):
        assert catalog_function("abs")([2.0]) == 2.0

    def test_indicator_outside_domain(self):
        assert catalog_function("box")([2.0]) == math.inf

    def test_double_well_root(self):
        assert catalog_function("double_well")([1.0]) == 0.0

    def test_piecewise_branches(self):
        f = catalog_function("piecewise")
        assert f([2.0]) == 0.5
        assert f([0.0]) == 0.0
        # crossing region: min picks the smaller branch
        assert f([1.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("delta,dim", [(1.0, 1), (0.3, 2)])
    def test_huber_rounds_as_its_branches(self, rng, delta, dim):
        # the expression c|t| - c^2/2, c = min(|t|, delta), gives the two
        # branches' values bit for bit, summed over the coordinates in order
        P = rng.uniform(-3.0, 3.0, size=(2000, dim))
        a = np.abs(P)
        per = np.where(a <= delta, 0.5 * P * P, delta * a - 0.5 * delta * delta)
        want = per[:, 0] if dim == 1 else per[:, 0] + per[:, 1]
        got = catalog_function("huber", delta=delta, dim=dim).batch(P)
        assert np.array_equal(got, want)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            catalog_function("abs")([1.0, 2.0])

    def test_2d_sum(self):
        f = catalog_function("well_plus_abs_2d")
        assert f([1.0, 0.0]) == 0.0
        assert f([0.0, 2.0]) == pytest.approx(3.0)


class TestThreshold:
    def test_nonnegative_alpha_gives_infinite_threshold(self):
        assert catalog_function("abs").certificate.threshold == math.inf

    def test_neg_quad_half(self):
        # f = -x^2/2 has alpha = -1/2, so the threshold is 1: the prox
        # objective's quadratic coefficient 1/(2 lam) - 1/2 changes sign there
        f = catalog_function("neg_quad", a=0.5)
        assert f.certificate.threshold == pytest.approx(1.0)
        for lam, positive in ((0.99, True), (1.01, False)):
            coeff = 1.0 / (2.0 * lam) - 0.5
            assert (coeff > 0) == positive

    def test_alpha_minus_two(self):
        cert = ProxBoundCertificate(-2.0, 0.0, [0.0])
        assert cert.threshold == pytest.approx(0.25)


class TestQuadShift:
    def test_quadratic_halves(self):
        f = catalog_function("quadratic")
        psi = quad_shift(f, QuadShift(1.0, [0.0]))
        assert psi([2.0]) == pytest.approx(2.0)

    def test_abs_shift(self):
        f = catalog_function("abs")
        psi = quad_shift(f, QuadShift(2.0, [0.0]))
        assert psi([1.0]) == pytest.approx(0.0)

    def test_double_well_shift_off_center(self):
        f = catalog_function("double_well")
        psi = quad_shift(f, QuadShift(6.0, [1.0]))
        assert psi([0.9]) == pytest.approx(0.19 ** 2 - 3 * 0.1 ** 2)

    def test_involution(self, rng):
        for f in all_catalog():
            center = rng.uniform(-1, 1, size=f.dim)
            sigma = 1.3
            back = quad_shift(quad_shift(f, QuadShift(sigma, center)),
                              QuadShift(-sigma, center))
            for _ in range(50):
                x = rng.uniform(-3, 3, size=f.dim)
                a, b = f(x), back(x)
                if math.isinf(a):
                    assert math.isinf(b)
                else:
                    assert b == pytest.approx(a, abs=1e-12)

    def test_infinity_propagates(self):
        f = catalog_function("box")
        psi = quad_shift(f, QuadShift(1.0, [0.0]))
        assert psi([2.0]) == math.inf

    def test_shifted_certificate_still_sound(self):
        for f in all_catalog():
            psi = quad_shift(f, QuadShift(1.5, np.full(f.dim, 0.3)))
            assert validate_certificate(psi) >= -1e-9

    @settings(max_examples=100, deadline=None)
    @example(name="neg_quad", sigma=-1.0, center=[0.0, 0.0])
    @example(name="neg_quad", sigma=-1.0, center=[1.0, 0.0])
    # (c - anchor)^2 underflows to 0, but c is not the anchor
    @example(name="neg_quad", sigma=-1.0, center=[2.428614528608669e-288, 0.0])
    @given(name=st.sampled_from(sorted(CATALOG)),
           sigma=st.one_of(st.floats(-4.0, -0.05), st.floats(0.05, 4.0)),
           center=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
    def test_shifted_certificate_sound_property(self, name, sigma, center):
        f = catalog_function(name)
        k = f.certificate.alpha - sigma / 2
        # near k = 0 the exact witness has a far anchor and a large beta, and
        # rounding of order 1e-16 * |beta| in the sampled margin is no defect
        assume(k == 0 or abs(k) >= 1e-3)
        psi = quad_shift(f, QuadShift(sigma, center[:f.dim]))
        if k != 0 or np.array_equal(f.certificate.anchor, center[:f.dim]):
            assert psi.certificate.alpha == k
        else:
            # the remainder is a nonconstant affine function: no alpha = 0
            # witness exists, and the fallback must stay strictly below it
            assert psi.certificate.alpha < 0
        assert psi.certificate.source == "catalog"
        assert validate_certificate(psi) >= -1e-9

    def test_zero_sigma_rejected(self):
        with pytest.raises(InvalidArgument):
            QuadShift(0.0, [0.0])

    def test_center_dimension_checked(self):
        f = catalog_function("abs")
        with pytest.raises(DimensionMismatch):
            quad_shift(f, QuadShift(1.0, [0.0, 0.0]))


class TestSeparableClosedForms:
    # (entry, dim) -> the 1-D entries of its axes
    AXES = {**{(name, dim): [name] * dim
               for name in ("abs", "huber", "box", "quadratic", "double_well")
               for dim in (2, 3)},
            ("well_plus_abs_2d", 2): ["double_well", "abs"]}

    @settings(max_examples=100, deadline=None)
    @given(entry=st.sampled_from(sorted(AXES)), lam=st.floats(0.05, 2.0),
           data=st.data())
    def test_the_envelope_is_the_sum_of_the_axis_envelopes(self, entry, lam,
                                                           data):
        # the prox of a separable f splits by coordinate, so e_lam f(x) is
        # the sum over j of e_lam g_j(x_j), each solved in 1-D
        name, dim = entry
        f = catalog_function(name, **({} if name == "well_plus_abs_2d"
                                      else {"dim": dim}))
        x = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=dim,
                               max_size=dim))
        e = prox_map(f, lam, x).envelope_value
        parts = sum(prox_map(catalog_function(g), lam, [t]).envelope_value
                    for g, t in zip(self.AXES[entry], x))
        assert abs(e - parts) <= 1e-12 * (1.0 + abs(e))

    def test_double_well_candidates_are_the_product_of_the_axis_roots(self):
        # candidate k takes root pick[j] on axis j, pick the k-th index of
        # (3, 3, 3) in C order; NaN where a root does not exist
        X = np.random.default_rng(2).uniform(-1.0, 1.0, (20, 3))
        roots = _double_well_prox_1d(0.4, X)  # (row, axis, root)
        axes = catalog_function("double_well", dim=3).closed_form_prox(0.4, X)
        assert [W.shape for W in axes] == [(20, 3)] * 3
        C = axis_product(axes)
        for k, pick in enumerate(np.ndindex(3, 3, 3)):
            np.testing.assert_array_equal(C[:, k], roots[:, np.arange(3), pick])

    def test_a_lambda_column_gives_each_entry_the_bits_of_its_own_call(self):
        # at these (lam, x) a vectorized p ** 3 (numpy's SIMD pow) rounds
        # differently from a float's p ** 3, and so would the candidates
        lam = [0.07438672637959537, 0.10103573522255543, 0.09662303474768036,
               0.07798977202608538, 0.09118074035645773, 0.3, 0.9, 1.7]
        x = np.array([0.14680574784776335, -0.262488986880951,
                      0.20768815484283332, -0.3404662721963363,
                      0.05683677671113685, 0.0, 0.4, -1.2])
        W = _double_well_prox_1d(np.array(lam), x)
        for i, l in enumerate(lam):
            # a row with one real root may come back as one column alone
            own = _double_well_prox_1d(l, x[i:i + 1])[0]
            assert W[i, :len(own)].tobytes() == own.tobytes()
            assert np.isnan(W[i, len(own):]).all()

    @settings(max_examples=100, deadline=None)
    @given(lam=st.floats(1e-6, 0.25),
           x=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           column=st.booleans())
    @example(lam=0.25, x=[0.0, -0.5, 1e-300], column=False)
    # the least subnormal halves to 0 in Vieta's form, which read 0 / 0
    @example(lam=0.25, x=[5e-324], column=False)
    def test_a_lambda_up_to_a_quarter_gives_one_column(self, lam, x, column):
        # for lam <= 1/4 the cubic has one real root at every x
        x = np.array(x)
        W = _double_well_prox_1d(np.full(len(x), lam) if column else lam, x)
        assert W.shape == (len(x), 1) and np.isfinite(W).all()

    @pytest.mark.parametrize("name, dim, lam, t, value", [
        ("abs", 100, 0.1, 0.5, 45.0), ("huber", 80, 0.3, 1.7, 84.0)])
    def test_many_one_candidate_axes_solve(self, name, dim, lam, t, value):
        # one axis per coordinate, more than numpy's 64 array axes
        e = prox_map(catalog_function(name, dim=dim), lam,
                     np.full(dim, t)).envelope_value
        one = prox_map(catalog_function(name), lam, [t]).envelope_value
        assert abs(e - dim * one) <= 1e-12 * dim * one
        assert abs(e - value) <= 1e-12 * value

    LAMBDAS_TINY = (1e-14, 1e-16, 1e-20, 1e-100, 1e-120, 1e-300)

    @pytest.mark.parametrize("lam", LAMBDAS_TINY)
    @pytest.mark.parametrize("x", [0.3, -1.7, 5.0])
    def test_the_double_well_at_a_tiny_lambda(self, lam, x):
        # e(x) = g(x) - lam g'(x)^2 / 2 up to O(lam^2), far below 1e-9 here;
        # Cardano's form A - p / (3 A) cancelled (1.7e-6 off at 1e-14) and
        # its p^3 overflowed (an OverflowError at 1e-120)
        e = prox_map(catalog_function("double_well"), lam, [x]).envelope_value
        g, dg = (x * x - 1.0) ** 2, 4.0 * x * (x * x - 1.0)
        assert abs(e - (g - lam * dg * dg / 2.0)) <= 1e-9

    def test_a_tiny_lambda_column_gives_each_entry_the_bits_of_its_own_call(self):
        lam = np.repeat(np.array(self.LAMBDAS_TINY + (0.1, 0.25, 0.3, 0.9)), 4)
        x = np.tile([0.3, -1.7, 5.0, 0.0], len(lam) // 4)
        W = _double_well_prox_1d(lam, x)
        for i, l in enumerate(lam.tolist()):
            own = _double_well_prox_1d(l, x[i:i + 1])[0]
            assert W[i, :len(own)].tobytes() == own.tobytes()
            assert np.isnan(W[i, len(own):]).all()

    @pytest.mark.parametrize("lam, x", [
        (0.1, 1e155), (0.4, 1e160), (0.4, -1e160), (0.25, -1e200),
        (0.1, 1e308), (0.3, 1.7e308), (1e-20, 1e160), (1e-170, 1e140),
        (1e-300, 1e100)])
    def test_the_double_well_at_a_huge_point(self, lam, x):
        # x * x in the step test warned, and past |x| ~ 1e154 so did q * q in
        # the discriminant, whose root came out inf, and q = x / (-4 lam)
        # itself, near x = 1e308 or at a tiny lam, where the root came out
        # NaN.  The cubic term of 4 lam w^3 + (1 - 4 lam) w = x dwarfs the
        # linear one, so the root is (x / (4 lam))^(1/3) to rounding, or x
        # itself where the step 4 lam x^3 rounds away against x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = prox_map(catalog_function("double_well"), lam, [x])
        [[w]] = res.minimizers
        want = x if 4.0 * lam * x * x < 1e-17 else np.cbrt(x / 8.0) * np.cbrt(2.0 / lam)
        assert abs(w - want) <= 4.0 * np.finfo(float).eps * abs(want)
        assert res.radius_used == abs(w - x)

    @pytest.mark.parametrize("lam", [4.5e307, 8e307])
    @pytest.mark.parametrize("x", [1.0, -3.0, 1e308])
    def test_the_double_well_at_a_lambda_whose_quadruple_overflows(self, lam, x):
        # 4 lam overflowed, so p = (1 - 4 lam) / (4 lam) was NaN and the
        # closed form gave no candidate.  Every proximal point is a root of
        # w^3 - w = x / (4 lam); near x = 0 they are the wells +-1, whose
        # values differ by at most 8 / (2 lam), far below VALUE_TOL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = prox_map(catalog_function("double_well"), lam, [x])
        assert res.minimizers
        for [w] in res.minimizers:
            scale = max(1.0, abs(w) ** 3)
            assert abs(w ** 3 - w - x / 4.0 / lam) <= 8.0 * np.finfo(float).eps * scale
        if abs(x) <= 3.0:
            assert sorted(round(float(w)) for [w] in res.minimizers) == [-1, 1]

    def test_a_column_with_huge_points_gives_each_entry_the_bits_of_its_own_call(self):
        lam = np.repeat([1e-170, 1e-20, 0.1, 0.25, 0.4, 8e307], 5)
        x = np.tile([1e160, 0.3, -1e200, 0.0, 1e140], 6)
        W = _double_well_prox_1d(lam, x)
        for i, l in enumerate(lam.tolist()):
            own = _double_well_prox_1d(l, x[i:i + 1])[0]
            assert W[i, :len(own)].tobytes() == own.tobytes()
            assert np.isnan(W[i, len(own):]).all()

    def test_a_parsed_sum_of_ten_axes_solves(self):
        # 7 candidates per axis: their product, 7^10 points, is never built
        term = "(x{0}^2-1)^2+abs(x{0}-0.3)"
        f = parse_function("+".join(term.format(j) for j in range(1, 11)), 10)
        e = prox_map(f, 0.1, np.full(10, 1.5)).envelope_value
        one = prox_map(parse_function(term.format(1), 1), 0.1,
                       [1.5]).envelope_value
        assert abs(e - 10 * one) <= 1e-12 * 10 * one
        assert abs(e - 15.433300478360426) <= 1e-12 * 15.433300478360426

    def test_a_double_well_in_twelve_dimensions_keeps_one_candidate_per_axis(self):
        # 3 real roots per axis, 3^12 products, of which the solve builds one
        f = catalog_function("double_well", dim=12)
        x = np.full(12, 0.05)
        tracemalloc.start()
        try:
            e = prox_map(f, 0.4, x).envelope_value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one = prox_map(catalog_function("double_well"), 0.4, [0.05]).envelope_value
        assert abs(e - 12 * one) <= 1e-12 * 12 * one
        assert peak < 1_000_000

    def test_a_closed_form_in_two_dimensions_needs_terms(self):
        f = catalog_function("abs", dim=2)
        with pytest.raises(InvalidArgument, match="needs terms"):
            FunctionSpec(dim=2, evaluator=f.evaluator, certificate=f.certificate,
                         closed_form_prox=f.closed_form_prox)
        with pytest.raises(InvalidArgument, match="needs terms"):
            dataclasses.replace(f, terms=None)
        # one dimension, or no closed form, needs none
        g = catalog_function("abs")
        assert dataclasses.replace(g, terms=None).closed_form_prox is not None
        assert dataclasses.replace(f, terms=None, closed_form_prox=None).terms is None

    @pytest.mark.parametrize("sizes", [(1, 3, 1, 2, 0), (1, 3, 1, 2), (2, 1, 3),
                                       (1,) * 70, (3,) + (1,) * 70 + (2,)])
    def test_axis_product_is_the_itertools_product(self, sizes):
        # of axis vectors and of per-row axes, in C order, bit for bit
        rng = np.random.default_rng(len(sizes))
        axes = [rng.standard_normal((4, k)) for k in sizes]
        got = axis_product(axes)
        assert got.shape == (4, math.prod(sizes), len(sizes))
        for i in range(4):
            want = np.array(list(itertools.product(*(a[i] for a in axes))),
                            dtype=float).reshape(-1, len(sizes))
            assert axis_product([a[i] for a in axes]).tobytes() == want.tobytes()
            assert got[i].tobytes() == want.tobytes()


def _norms_quietly(V: np.ndarray) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _norms(V)


def _within_2_ulps(got: float, want: float) -> bool:
    return abs(got - want) <= 2.0 * np.spacing(want)


class TestNorms:
    """functions._norms, the package's one distance rule."""

    @settings(max_examples=200, deadline=None)
    @given(V=st.integers(2, 10).flatmap(lambda n: arrays(
        float, st.tuples(st.integers(1, 5), st.just(n)),
        elements=st.floats(-1e150, 1e150))))
    def test_it_is_np_linalg_norm_where_the_square_is_a_normal_float(self, V):
        assume(all(2.0 ** -1022 <= float(v @ v) for v in V))
        want = np.array([np.linalg.norm(v) for v in V])
        assert _norms_quietly(V).tobytes() == want.tobytes()

    @given(d=st.floats(allow_nan=False, allow_infinity=False))
    @example(d=5e-324)
    @example(d=1e-170)
    @example(d=1.7e308)
    @example(d=-1.7e308)
    def test_it_is_the_absolute_value_in_one_dimension(self, d):
        got = _norms_quietly(np.array([[d], [-d]]))
        assert got.tobytes() == np.array([abs(d)] * 2).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(scale=st.sampled_from([1e308, 1e-170]),
           u=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3))
    def test_it_rescales_a_square_that_overflows_or_underflows(self, scale, u):
        # the largest norm here, sqrt(3) 1e308, is finite
        v = [scale * t for t in u]
        got = float(_norms_quietly(np.array(v)))
        assert math.isfinite(got) and _within_2_ulps(got, math.dist(v, [0.0] * len(v)))

    @pytest.mark.parametrize("v, want", [
        ((1e308, 1e308), 1.4142135623730951e308), ((3e-170, 4e-170), 5e-170)])
    def test_the_points_whose_dot_product_is_not_a_normal_float(self, v, want):
        # the dot product alone gave inf, with a RuntimeWarning, and 0
        assert want == math.dist(v, (0.0, 0.0))
        got = _norms_quietly(np.array([v, (3.0, 4.0)]))
        assert _within_2_ulps(float(got[0]), want) and got[1] == 5.0


class TestCertificates:
    def test_catalog_certificates_sound(self):
        # 10^4 samples in a radius-10 box around the anchor
        for f in all_catalog():
            assert validate_certificate(f) >= -1e-9

    def test_strong_minimizer_requires_modulus(self):
        with pytest.raises(InvalidArgument):
            KnownMinimizer([0.0], "strong", 0.0, 0.1)

    def test_unknown_catalog_name(self):
        with pytest.raises(InvalidArgument):
            catalog_function("nope")
