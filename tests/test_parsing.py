import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moreaukit import (
    CATALOG,
    catalog_function,
    load_function_file,
    parse_function,
    search_radius,
    validate_certificate,
)
from moreaukit.errors import ArityError, CertificateInvalid, ParseError
from moreaukit.functions import ensure_certificate


class TestGrammar:
    @pytest.mark.parametrize("expr,dim,x,expected", [
        ("x1^2", 1, [3.0], 9.0),
        ("abs(x1)", 1, [-2.5], 2.5),
        ("x1^2+x2^2", 2, [1.0, 2.0], 5.0),
        ("min(x1^2,(x1-2)^2+0.5)", 1, [2.0], 0.5),
        ("max(x1,0-x1)", 1, [-3.0], 3.0),
        ("sqrt(x1)", 1, [4.0], 2.0),
        ("(x1^2-1)^2", 1, [0.5], 0.5625),
        ("2*x1/4", 1, [6.0], 3.0),
        ("-x1+1", 1, [2.0], -1.0),
        ("1e2*x1", 1, [0.5], 50.0),
    ])
    def test_evaluates(self, expr, dim, x, expected):
        f = parse_function(expr, dim)
        assert f(x) == pytest.approx(expected)

    def test_indicator(self):
        f = parse_function("ind(0,1)+x1", 1)
        assert f([0.5]) == 0.5
        assert f([1.5]) == math.inf

    def test_sqrt_of_negative_is_inf(self):
        # the evaluator itself returns NaN results as +inf
        f = parse_function("sqrt(x1)", 1)
        assert f.batch(np.array([[-1.0]]))[0] == math.inf
        assert f([-1.0]) == math.inf

    def test_whitespace_insensitive(self):
        a = parse_function("x1^2 + 2 * x1", 1)
        b = parse_function("x1^2+2*x1", 1)
        assert a([1.7]) == b([1.7])


class TestErrors:
    def test_offset_and_expected(self):
        with pytest.raises(ParseError) as ei:
            parse_function("x1^2 + * 3", 1)
        assert ei.value.offset == 7
        assert isinstance(ei.value.expected, frozenset)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_function("foo(x1)", 1)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_function("(x1+1", 1)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_function("x1 x1", 1)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_function("x1^2.5", 1)

    def test_variable_out_of_range(self):
        with pytest.raises(ArityError):
            parse_function("x2", 1)

    def test_ind_nonconstant_bounds(self):
        with pytest.raises(ParseError):
            parse_function("ind(x1,1)", 1)

    def test_min_needs_two_args(self):
        with pytest.raises(ParseError):
            parse_function("min(x1)", 1)


class TestRoundTrip:
    def test_catalog_exprs_match(self, rng):
        # every catalog entry that carries an expression must agree with
        # the parsed version of that expression
        for name in CATALOG:
            f = catalog_function(name)
            if f.expr is None:
                continue
            g = parse_function(f.expr, f.dim)
            for _ in range(100):
                x = rng.uniform(-4, 4, size=f.dim)
                a, b = f(x), g(x)
                if math.isinf(a):
                    assert math.isinf(b)
                else:
                    assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


class TestDefinitionFile:
    def test_load(self, tmp_path):
        p = tmp_path / "fn.txt"
        p.write_text(
            "# a double well\n"
            "expr = (x1^2-1)^2\n"
            "dim = 1\n"
            "alpha = 0\n"
            "beta = 0\n"
            "anchor = 0\n"
            "minimizer = 1 strong 6 0.1\n"
            "minimizer = -1 strong 6 0.1\n"
        )
        f = load_function_file(p)
        assert f.dim == 1
        assert f([2.0]) == pytest.approx(9.0)
        assert len(f.known_minimizers) == 2
        assert f.certificate.threshold == math.inf
        assert not f.certificate.verified
        assert f.certificate.source == "supplied"

    def test_unverified_cert_validated_before_use(self, tmp_path):
        # an unsound certificate (claims x^3 bounded below quadratically
        # with too-small slack) must be rejected by sampling
        p = tmp_path / "bad.txt"
        p.write_text("expr = x1^3\ndim = 1\nalpha = 0\nbeta = -10\n")
        f = load_function_file(p)
        with pytest.raises(CertificateInvalid):
            ensure_certificate(f)

    def test_fitted_default_certificate_is_sound(self):
        f = parse_function("x1^3", 1)
        ensure_certificate(f)  # sampled fit must survive re-validation
        assert f.certificate.alpha < 0
        assert f.certificate.threshold < math.inf


class TestDerivedCertificate:
    @pytest.mark.parametrize("expr,dim,alpha,beta", [
        ("(x1^2-1)^2", 1, 0.0, 0.0),
        ("(x1^2-1)^2+abs(x2)", 2, 0.0, 0.0),
        ("x1^4-x1^2", 1, -1.0, 0.0),
    ])
    def test_exact_pins(self, expr, dim, alpha, beta):
        cert = parse_function(expr, dim).certificate
        assert (cert.alpha, cert.beta) == (alpha, beta)
        assert cert.source == "derived"
        assert cert.verified  # proven: no sampled re-validation
        assert np.array_equal(cert.anchor, np.zeros(dim))

    @pytest.mark.parametrize("expr", ["x1^3", "x1^2-0.001*x1^4", "1/x1"])
    def test_not_derivable_falls_back_to_sampling(self, expr):
        cert = parse_function(expr, 1).certificate
        assert cert.source == "sampled"
        assert not cert.verified

    def test_parsed_2d_well_radius(self):
        f = parse_function("(x1^2-1)^2+abs(x2)", 2)
        assert search_radius(f, 0.3, [0.0, 0.0]) <= 1.5


def _expressions(dim: int):
    """Random expressions of the grammar in the variables x1..x{dim}."""
    variable = st.sampled_from([f"x{j + 1}" for j in range(dim)])
    number = st.floats(-3.0, 3.0).map(lambda v: f"{v:.3g}")
    bound = st.floats(0.5, 5.0).map(lambda v: f"{v:.3g}")

    def extend(sub):
        def binary(op):
            return st.tuples(sub, sub).map(lambda t: f"({t[0]}{op}{t[1]})")
        return st.one_of(
            binary("+"),
            binary("-"),
            binary("*"),
            st.tuples(sub, number).map(lambda t: f"({t[0]}/{t[1]})"),
            sub.map(lambda a: f"-{a}"),
            st.tuples(sub, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["abs", "sqrt"]), sub).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
                lambda t: f"{t[0]}({t[1]},{t[2]})"),
            st.tuples(sub, bound, bound).map(
                lambda t: f"({t[0]}+ind(-{t[1]},{t[2]}))"),
        )
    return st.recursive(st.one_of(variable, variable, number), extend,
                        max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(case=st.integers(1, 2).flatmap(
    lambda dim: st.tuples(st.just(dim), _expressions(dim))))
@example(case=(2, "x1*x2"))
@example(case=(1, "x1*(x1-3)"))
@example(case=(1, "(x1^0-2)^3"))
@example(case=(1, "min(x1,-x1^2)"))
@example(case=(2, "max(-x1^2,-x2)-sqrt(x1^2+1)"))
def test_derived_certificates_are_sound(case):
    dim, expr = case
    f = parse_function(expr, dim)
    assume(f.certificate.source == "derived")
    for radius in (10.0, 1e3):
        assert validate_certificate(f, samples=2000, box_radius=radius) >= -1e-9
