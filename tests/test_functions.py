import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moreaukit import (
    CATALOG,
    FunctionSpec,
    KnownMinimizer,
    ProxBoundCertificate,
    QuadShift,
    catalog_function,
    prox_map,
    quad_shift,
    validate_certificate,
)
from moreaukit.errors import DimensionMismatch, InvalidArgument
from moreaukit.functions import _double_well_prox_1d


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
        C = catalog_function("double_well", dim=3).closed_form_prox(0.4, X)
        assert C.shape == (20, 27, 3)
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
            own = _double_well_prox_1d(l, x[i:i + 1])[0]
            assert W[i].tobytes() == own.tobytes()


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
