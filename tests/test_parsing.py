import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moreaukit import (
    CATALOG,
    catalog_function,
    load_function_file,
    parse_function,
    prox_map,
    search_radius,
    validate_certificate,
)
from moreaukit import functions
from moreaukit.errors import ArityError, CertificateInvalid, ParseError
from moreaukit.parsing import _Parser

_OPS = {
    "neg": np.negative,
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.true_divide,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "min": np.minimum,
    "max": np.maximum,
}


def _evaluate(node: tuple, p: np.ndarray):
    """Reference walker: the values of node at the rows of the (m, n) array
    p, shape (m,); a constant node gives a numpy scalar.  Call it under
    np.errstate(all="ignore")."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return p[..., node[1]]
    if op == "ind":
        inside = np.all((p >= node[1]) & (p <= node[2]), axis=-1)
        return np.where(inside, 0.0, np.inf)
    if op == "pow":
        return _evaluate(node[1], p) ** node[2]
    fn = _OPS[op]
    first, *rest = (_evaluate(child, p) for child in node[1:])
    if not rest:
        return fn(first)
    for other in rest:  # binary operators, and min/max of two or more
        first = fn(first, other)
    return first


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
        # the evaluator returns NaN there; batch and the call read it as +inf
        f = parse_function("sqrt(x1)", 1)
        assert f.batch(np.array([[-1.0]]))[0] == math.inf
        assert f([-1.0]) == math.inf

    def test_whitespace_insensitive(self):
        a = parse_function("x1^2 + 2 * x1", 1)
        b = parse_function("x1^2+2*x1", 1)
        assert a([1.7]) == b([1.7])


def _compiler_cases(dim: int):
    """Random expressions in x1..x{dim} for the compiler, with constants
    that fold to inf, -inf and NaN, boxes with infinite bounds and
    division by variables."""
    inf = "(1e308*10)"
    variable = st.sampled_from([f"x{j + 1}" for j in range(dim)])
    number = st.one_of(st.floats(-3.0, 3.0).map(lambda v: f"{v:.3g}"),
                       st.sampled_from([inf, f"(0-{inf})", "(0/0)", "0"]))
    bound = st.one_of(st.floats(0.5, 5.0).map(lambda v: f"{v:.3g}"),
                      st.just(inf))

    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"),
            sub.map(lambda a: f"-{a}"),
            st.tuples(sub, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["abs", "sqrt"]), sub).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(["min", "max"]),
                      st.lists(sub, min_size=2, max_size=3)).map(
                lambda t: f"{t[0]}({','.join(t[1])})"),
            st.tuples(sub, bound, bound).map(
                lambda t: f"({t[0]}+ind(-{t[1]},{t[2]}))"),
        )
    return st.recursive(st.one_of(variable, number), extend, max_leaves=10)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b are NaN at the same entries and bit for bit equal elsewhere."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestCompiler:
    @settings(max_examples=200, deadline=None)
    @given(case=st.integers(1, 2).flatmap(
        lambda dim: st.tuples(st.just(dim), _compiler_cases(dim))))
    @example(case=(1, "1/x1"))
    @example(case=(1, "0/0+x1"))
    @example(case=(1, "(0/0)"))
    @example(case=(2, "ind(-(1e308*10),1e308*10)*x2"))
    @example(case=(1, "min(x1,2,-x1,0/0)"))
    def test_compiled_evaluator_is_the_reference_walker(self, case):
        dim, expr = case
        tree = _Parser(expr, dim).parse()
        f = parse_function(expr, dim)
        rng = np.random.default_rng(2)
        P = np.concatenate([rng.uniform(-4.0, 4.0, size=(200, dim)),
                            rng.integers(-3, 4, size=(50, dim)).astype(float),
                            np.full((1, dim), 1e200)])
        with np.errstate(all="ignore"):
            ref = np.broadcast_to(_evaluate(tree, P), len(P))
        got = f.evaluator(P)
        assert got.shape == (len(P),)
        assert _same_bits(got, ref)

    def test_long_sum(self):
        # one statement per operation: no nesting limit of the Python parser
        f = parse_function("+".join(["x1"] * 400), 1)
        assert f([1.0]) == 400.0

    @pytest.mark.parametrize("expr", ["sqrt(x1)", "1/x1", "1e200*x1^2*1e200"])
    def test_evaluates_without_floating_point_warnings(self, expr):
        f = parse_function(expr, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = f.evaluator(np.array([[-1.0], [0.0], [2.0]]))
        assert vals.shape == (3,)


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
    # where the bound walker's certificate is weaker than the catalog's: it
    # bounds each x_j by ||x||, and huber's min(|t|, 1) by 1 + t
    WEAKER = {("huber", 1): 0.5, ("huber", 2): 0.25, ("neg_quad", 2): 0.5}
    # the finite derived thresholds, a few ulps below want: the derived
    # alpha moves outward by 4 ulps per AST node
    ROUNDED = {("huber", 1): 0.49999999999999334,
               ("huber", 2): 0.24999999999999312,
               ("neg_quad", 1): 0.9999999999999964,
               ("neg_quad", 2): 0.499999999999996}

    def test_catalog_certificates_match_their_expressions(self):
        # every entry, in 1-D and in its 2-D variant: the catalog
        # certificate holds on the expression, and is at least as strong as
        # the one derived from it
        fixed = {"piecewise", "well_plus_abs_2d"}  # of one dimension only
        entries = [(name, catalog_function(name)) for name in CATALOG]
        entries += [(name, catalog_function(name, dim=2))
                    for name in CATALOG if name not in fixed]
        for name, f in entries:
            assert validate_certificate(f) >= -1e-9
            derived = parse_function(f.expr, f.dim).certificate
            assert derived.source == "derived"
            want = self.WEAKER.get((name, f.dim), f.certificate.threshold)
            assert derived.threshold <= want
            assert derived.threshold == self.ROUNDED.get((name, f.dim), want)
            assert f.certificate.threshold >= want


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
        assert f.certificate.source == "supplied"

    def test_unverified_cert_validated_before_use(self, tmp_path):
        # an unsound certificate (claims x^3 bounded below quadratically
        # with too-small slack) must be rejected by sampling
        p = tmp_path / "bad.txt"
        p.write_text("expr = x1^3\ndim = 1\nalpha = 0\nbeta = -10\n")
        with pytest.raises(CertificateInvalid):
            load_function_file(p)

    def test_the_solver_never_samples_a_certificate(self, monkeypatch):
        def refuse(f):
            raise AssertionError(f"certificate of {f.name} sampled")
        monkeypatch.setattr(functions, "validate_certificate", refuse)
        f = parse_function("x1^3", 1)
        assert f.certificate.source == "sampled"
        res = prox_map(f, 0.01, [0.5])
        assert res.envelope_value < f([0.5])

    def test_fitted_default_certificate_is_sound(self):
        f = parse_function("x1^3", 1)
        assert validate_certificate(f) >= -1e-9  # the fit survives validation
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
        # alpha moves outward by 4 ulps per AST node (20 at most here), and
        # zero stays zero
        assert 0 <= alpha - cert.alpha <= 20 * math.ulp(alpha)
        assert cert.beta == beta
        assert cert.source == "derived"
        assert np.array_equal(cert.anchor, np.zeros(dim))

    # the last one's derived bound overflows to alpha = -inf
    @pytest.mark.parametrize("expr", ["x1^3", "x1^2-0.001*x1^4", "1/x1",
                                      "0-1e200*x1^2*1e200"])
    def test_not_derivable_falls_back_to_sampling(self, expr):
        cert = parse_function(expr, 1).certificate
        assert cert.source == "sampled"

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
@example(case=(1, "-(x1/1.11e-308)"))  # a bound that overflows: not derived
@example(case=(1, "(x1/2.23e-309)"))  # values too large for the sampled fit
def test_derived_certificates_are_sound(case):
    dim, expr = case
    f = parse_function(expr, dim)
    assume(f.certificate.source == "derived")
    for radius in (10.0, 1e3):
        with mock.patch.multiple(functions, _CERT_SAMPLES=2000,
                                 _CERT_BOX_RADIUS=radius):
            assert validate_certificate(f) >= -1e-9


def _chain(node: tuple) -> list:
    """The leaves of the top-level +/- chain of a parsed expression."""
    if node[0] in ("add", "sub"):
        return _chain(node[1]) + _chain(node[2])
    if node[0] == "neg":
        return _chain(node[1])
    return [node]


def _reads(node: tuple, dim: int) -> set:
    if node[0] == "var":
        return {node[1]}
    if node[0] == "ind":
        return set(range(dim))
    return set().union(*(_reads(c, dim) for c in node[1:] if isinstance(c, tuple)))


@settings(max_examples=150, deadline=None)
@given(case=st.integers(1, 2).flatmap(
    lambda dim: st.tuples(st.just(dim), _expressions(dim))))
@example(case=(2, "x1*x2"))
@example(case=(2, "(x1^2-1)^2+abs(x2)"))
@example(case=(2, "-(x1-ind(-1,2))-x2/0.5+3"))
@example(case=(2, "sqrt(x1)-sqrt(x2)+x1"))
@example(case=(2, "(x1+1e300)+(x2+1e300)"))
def test_terms_sum_to_the_evaluator(case):
    # terms is None exactly when a leaf of the top-level +/- chain reads
    # both variables (a top-level ind splits per axis); otherwise the terms
    # add up to the evaluator: the same NaN and infinities, and finite
    # values within rounding of the leaves' magnitudes.  Points where the
    # leaves' finite magnitudes near overflow are left out, since there the
    # order of the additions decides what overflows.
    dim, expr = case
    f = parse_function(expr, dim)
    leaves = _chain(_Parser(expr, dim).parse())
    mixed = any(leaf[0] != "ind" and len(_reads(leaf, dim)) > 1
                for leaf in leaves)
    assert (f.terms is None) == mixed
    if mixed:
        return
    assert len(f.terms) == dim
    rng = np.random.default_rng(1)
    P = np.concatenate([rng.uniform(-4.0, 4.0, size=(400, dim)),
                        rng.integers(-3, 4, size=(50, dim)).astype(float)])
    with np.errstate(all="ignore"):
        row = f.evaluator(P)
        sep = sum(g(P[:, j]) for j, g in enumerate(f.terms))
        size = [np.broadcast_to(np.abs(_evaluate(leaf, P)), len(P))
                for leaf in leaves]
        scale = sum(np.where(np.isfinite(s), s, 0.0) for s in size)
    keep = scale < 1e300
    row, sep, scale = row[keep], sep[keep], scale[keep]
    for same in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(same(row), same(sep))
    finite = np.isfinite(row)
    assert np.all(np.abs(row[finite] - sep[finite]) <= 1e-12 * scale[finite])
