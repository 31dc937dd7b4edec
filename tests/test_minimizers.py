import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moreaukit import (
    catalog_function,
    check_error_bound,
    check_min_transfer,
    check_prox_fixed_point,
    check_strong_transfer,
    estimate_strong_modulus,
    modulus_transform,
    modulus_transform_inv,
    parse_function,
    verify_local_min,
)
from moreaukit.errors import (
    InfiniteAtCenter,
    InvalidArgument,
    PreconditionFailed,
)
from moreaukit.minimizers import (
    MinimizerCertificate,
    VerificationReport,
    _halton,
    ball_samples,
)

from conftest import grid_view, run_python


def test_a_passed_verdict_has_no_witness():
    point = np.array([1.0])
    assert VerificationReport("t", True, 0.0, point, {}).witness is None
    assert VerificationReport("t", False, 1.0, point, {}).witness is point
    assert MinimizerCertificate(0.0, True, point).witness is None
    assert MinimizerCertificate(1.0, False, point).witness is point


class TestVerifyLocalMin:
    def test_quadratic_origin(self):
        cert = verify_local_min(catalog_function("quadratic"), [0.0], 0.5)
        assert cert.passed
        assert cert.worst_violation <= 0.0

    def test_cubic_inflection_fails_with_witness(self):
        # x^3 has no local minimum at 0; a negative witness must be produced
        f = parse_function("x1^3", 1)
        cert = verify_local_min(f, [0.0], 0.5)
        assert not cert.passed
        assert cert.witness is not None
        assert cert.witness[0] < 0.0
        assert cert.worst_violation > 0.0

    def test_no_halton_points_still_check_the_fixed_grid(self):
        # samples counts the Halton points added to the ball's fixed grid
        cert = verify_local_min(parse_function("x1^3", 1), [0.0], 0.5,
                                samples=0)
        assert not cert.passed
        assert cert.witness[0] < 0.0

    def test_double_well_local_max_fails(self):
        cert = verify_local_min(catalog_function("double_well"), [0.0], 0.2)
        assert not cert.passed

    def test_nonglobal_local_min_passes(self):
        cert = verify_local_min(catalog_function("piecewise"), [2.0], 0.3)
        assert cert.passed

    def test_plain_callable(self):
        cert = verify_local_min(lambda P: np.abs(P[:, 0]), [0.0], 0.5)
        assert cert.passed

    def test_infinite_center_rejected(self):
        with pytest.raises(InfiniteAtCenter):
            verify_local_min(catalog_function("box"), [2.0], 0.1)

    def test_bad_epsilon(self):
        with pytest.raises(InvalidArgument):
            verify_local_min(catalog_function("abs"), [0.0], 0.0)

    def test_2d(self):
        cert = verify_local_min(catalog_function("well_plus_abs_2d"),
                                [1.0, 0.0], 0.1)
        assert cert.passed


class TestBallSamples:
    def test_inside_open_ball(self):
        xbar = np.array([1.0, -2.0])
        pts = ball_samples(xbar, 0.3, 64)
        assert np.all(np.linalg.norm(pts - xbar, axis=1) < 0.3)

    def test_deterministic(self):
        a = ball_samples(np.array([0.0]), 0.5, 32)
        b = ball_samples(np.array([0.0]), 0.5, 32)
        assert np.array_equal(a, b)

    def test_halton_first_points(self):
        # radical inverses of 0, 1, 2, 3 in base 2 and in base 3
        pts = _halton(4, 2)
        assert pts[:, 0].tolist() == [0.0, 0.5, 0.25, 0.75]
        assert pts[:, 1].tolist() == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 9.0]

    def test_halton_is_cached_and_read_only(self):
        pts = _halton(16, 2)
        assert _halton(16, 2) is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 1.0

    # 2 * samples + 16 points: verify samples 32, its forced-grid error
    # bound max(8, 32 // 4) = 8
    @pytest.mark.parametrize("n", [1, 7, 2 * 8 + 16, 2 * 32 + 16, 1000])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_halton_equals_scipy_bitwise(self, dim, n):
        qmc = pytest.importorskip("scipy.stats").qmc
        ref = qmc.Halton(d=dim, scramble=False).random(n)
        got = _halton(n, dim)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_package_import_does_not_load_scipy():
    out = run_python("import moreaukit, moreaukit.cli, sys; "
                     "print('scipy' in sys.modules)")
    assert out.stdout.strip() == "False"


class TestStrongModulus:
    def test_quadratic_is_two(self):
        est = estimate_strong_modulus(catalog_function("quadratic"), [0.0], 0.5)
        assert est == pytest.approx(2.0, abs=1e-6)

    def test_double_well_near_one(self):
        # second derivative of (t^2-1)^2 at t=1 is 8; sampled infimum over
        # the 0.1-ball sits between 6.1 and 8
        est = estimate_strong_modulus(catalog_function("double_well"), [1.0], 0.1)
        assert 6.1 <= est <= 8.0

    def test_abs_grows_with_small_ball(self):
        # 2|x|/x^2 = 2/|x| >= 20 on the 0.1-ball
        est = estimate_strong_modulus(catalog_function("abs"), [0.0], 0.1)
        assert est >= 20.0

    def test_floor_at_zero(self):
        f = parse_function("x1^3", 1)
        assert estimate_strong_modulus(f, [0.0], 0.5) == 0.0


class TestFixedPoint:
    def test_minimizer_is_fixed(self):
        rep = check_prox_fixed_point(catalog_function("abs"), [0.0], 0.1)
        assert rep.passed

    def test_slope_point_is_not(self):
        rep = check_prox_fixed_point(catalog_function("abs"), [1.0], 0.1)
        assert not rep.passed
        assert rep.witness is not None

    def test_cubic_origin_is_genuinely_fixed(self):
        # 0 is a proximal fixed point of x^3 for small lambda even though it
        # is not a local minimizer: fixed points certify a zero proximal
        # subgradient, not minimality
        f = parse_function("x1^3", 1)
        lam = min(0.01, f.certificate.threshold / 4)
        rep = check_prox_fixed_point(f, [0.0], lam)
        assert rep.passed

    def test_double_well_local_max_is_fixed(self):
        # same phenomenon at the local maximum of the double well
        rep = check_prox_fixed_point(catalog_function("double_well"), [0.0], 0.1)
        assert rep.passed

    def test_a_nan_lambda_is_rejected(self):
        with pytest.raises(InvalidArgument):
            check_prox_fixed_point(catalog_function("abs"), [0.0], math.nan)


class TestErrorBound:
    def test_holds_at_minimizer(self):
        rep = check_error_bound(catalog_function("abs"), [0.0], 0.5, 0.5)
        assert rep.passed
        # equality at the center: both sides vanish
        assert abs(rep.params["violation_at_center"]) <= 1e-9

    def test_holds_for_nonglobal_min(self):
        rep = check_error_bound(catalog_function("piecewise"), [2.0], 0.1, 0.3)
        assert rep.passed

    def test_grid_path(self):
        rep = check_error_bound(grid_view(catalog_function("double_well")),
                                [1.0], 0.05, 0.1, samples=16)
        assert rep.passed

    def test_2d(self):
        rep = check_error_bound(catalog_function("well_plus_abs_2d"),
                                [1.0, 0.0], 0.05, 0.1, samples=16)
        assert rep.passed

    def test_failure_names_the_last_ball_tried(self):
        # |.| has slope at 1, so the bound fails on every ball; the report
        # names the fifth halving, 0.4 / 32, and its witness lies inside it
        rep = check_error_bound(catalog_function("abs"), [1.0], 0.5, 0.4,
                                samples=8)
        assert not rep.passed
        assert rep.params["shrinks"] == 5
        assert rep.params["radius"] == 0.4 / 32
        assert abs(rep.witness[0] - 1.0) < rep.params["radius"]


class TestMinTransfer:
    def test_agreement_at_minimizer(self):
        rep = check_min_transfer(catalog_function("abs"), [0.0], 0.5, 0.5)
        assert rep.passed
        assert rep.params["f_is_local_min"]
        assert rep.params["envelope_is_local_min"]

    def test_agreement_at_non_minimizer(self):
        rep = check_min_transfer(catalog_function("double_well"), [0.0], 0.1, 0.2)
        assert rep.passed
        assert not rep.params["f_is_local_min"]
        assert not rep.params["envelope_is_local_min"]

    def test_nonglobal_min_transfers(self):
        rep = check_min_transfer(catalog_function("piecewise"), [2.0], 0.1, 0.3)
        assert rep.passed
        assert rep.params["f_is_local_min"]

    def test_failure_names_the_last_ball_tried(self):
        # lambda 5 is far above what the verdicts can agree at; the report
        # names the fifth halving, 0.3 / 32, and its witness lies inside it
        rep = check_min_transfer(catalog_function("piecewise"), [2.0], 5.0,
                                 0.3, samples=16)
        assert not rep.passed
        assert rep.params["epsilon"] == 0.3 / 32
        assert abs(rep.witness[0] - 2.0) < rep.params["epsilon"]


class TestModulusTransform:
    def test_values(self):
        assert modulus_transform(6.0, 0.1) == pytest.approx(3.75)
        assert modulus_transform(2.0, 0.25) == pytest.approx(4.0 / 3.0)

    @settings(max_examples=200, deadline=None)
    @given(sigma=st.floats(1e-3, 1e3), lam=st.floats(1e-6, 1e2))
    def test_round_trip(self, sigma, lam):
        mu = modulus_transform(sigma, lam)
        assert mu * lam < 1.0
        back = modulus_transform_inv(mu, lam)
        # conditioning of the inverse degrades with sigma*lam, so scale the
        # 1e-12 budget by that factor
        assert back == pytest.approx(sigma, rel=1e-12 * (1.0 + sigma * lam))

    @settings(max_examples=100, deadline=None)
    @given(sigma=st.floats(1e-3, 1e3),
           lam1=st.floats(1e-6, 10.0), lam2=st.floats(1e-6, 10.0))
    def test_monotone_in_lambda(self, sigma, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        assert modulus_transform(sigma, hi) <= modulus_transform(sigma, lo)

    def test_domain_errors(self):
        with pytest.raises(InvalidArgument):
            modulus_transform(0.0, 0.1)
        with pytest.raises(InvalidArgument):
            modulus_transform_inv(2.0, 0.5)  # mu*lam = 1
        with pytest.raises(InvalidArgument):
            modulus_transform(2.0, math.nan)
        with pytest.raises(InvalidArgument):
            modulus_transform_inv(2.0, math.nan)


class TestStrongTransfer:
    def test_quadratic_exact(self):
        rep = check_strong_transfer(catalog_function("quadratic"), [0.0], 2.0,
                                    0.5, 0.25)
        assert rep.passed
        assert rep.params["target_modulus"] == pytest.approx(4.0 / 3.0)
        assert rep.params["envelope_modulus"] == pytest.approx(4.0 / 3.0,
                                                               abs=1e-6)

    def test_double_well(self):
        rep = check_strong_transfer(catalog_function("double_well"), [1.0],
                                    6.0, 0.1, 0.1)
        assert rep.passed
        assert rep.params["envelope_modulus"] >= 3.7

    def test_parsed_nonsmooth_composite(self):
        f = parse_function("abs(x1)+x1^2", 1)
        rep = check_strong_transfer(f, [0.0], 2.0, 0.3, 0.1, samples=48)
        assert rep.passed

    def test_overclaimed_modulus_rejected(self):
        with pytest.raises(PreconditionFailed):
            check_strong_transfer(catalog_function("quadratic"), [0.0], 50.0,
                                  0.5, 0.01)

    def test_lambda_precondition(self):
        with pytest.raises(PreconditionFailed):
            check_strong_transfer(catalog_function("quadratic"), [0.0], 2.0,
                                  0.5, 0.6)  # lam >= 1/sigma
