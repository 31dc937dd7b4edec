import math
import warnings
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moreaukit import (
    CATALOG,
    catalog_function,
    load_function_file,
    parse_function,
    prox_map,
    search_radius,
    validate_certificate,
)
from moreaukit import functions, parsing
from moreaukit.errors import ArityError, CertificateInvalid, InvalidArgument, ParseError
from moreaukit.parsing import _Parser
from moreaukit.piecewise import expand, pieces

from conftest import run_python

_OPS = {
    "neg": np.negative,
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
        square, k = _evaluate(node[1], p), node[2]
        if k <= 2:
            return square ** k
        # k >= 3: the product, lowest bit first, of the squares whose bit of
        # k is set
        product = None
        while k:
            if k & 1:
                product = square if product is None else product * square
            k >>= 1
            if k:
                square = square * square
        return product
    if op == "sum":  # its children added or subtracted left to right
        value = _evaluate(node[2], p)
        for sign, child in zip(node[1][1:], node[3:]):
            value = (np.add if sign == "+" else np.subtract)(value, _evaluate(child, p))
        return value
    fn = _OPS[op]
    first, *rest = (_evaluate(child, p) for child in node[1:])
    if not rest:
        return fn(first)
    for other in rest:  # * and /, and min/max of two or more
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

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(0, 20), x=arrays(np.float64, st.integers(1, 40), elements=(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e150, -1e150,
                           1e-150, -1e-150, 5e-324, -5e-324, 2.2e-308, 1.5, -1.5]))))
    def test_a_power_is_pow_within_its_rounding(self, k, x):
        # x1^k against np.power: equal for k <= 2, where both are numpy's
        # power; from k = 3 a product of at most 2 floor(log2 k) roundings,
        # so the same kind of non-finite value, the same sign, and within
        # k eps relative where pow's value is normal
        got = parse_function(f"x1^{k}", 1).evaluator(x[:, None])
        with np.errstate(all="ignore"):
            ref = np.power(x, k)
        if k <= 2:
            assert _same_bits(got, ref)
            return
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        number = ~np.isnan(ref)
        assert np.array_equal(np.signbit(got[number]), np.signbit(ref[number]))
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        normal = np.isfinite(ref) & (np.abs(ref) >= np.finfo(float).tiny)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got[normal] - ref[normal]) <= k * eps * np.abs(ref[normal]))

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

    def test_an_expression_too_deep_to_walk_is_invalid(self):
        # the walkers recurse once per level of nesting, so 1000 nested
        # calls pass Python's recursion limit as they are parsed
        with pytest.raises(InvalidArgument, match="recursion limit"):
            parse_function("abs(" * 1000 + "x1" + ")" * 1000, 1)


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


def _piecewise_trees():
    """Random 1-D piecewise polynomials of degree <= 8: sums, products,
    powers 2 and 3, abs, min and max of affine and quadratic leaves, and
    sometimes a top-level ind box.  The coefficients are multiples of 1/8
    in [-3, 3], so that the expansion is exact."""
    coef = st.integers(-24, 24).map(lambda k: f"{k / 8:g}")
    leaf = st.one_of(
        st.tuples(coef, coef).map(lambda t: f"({t[0]}*x1+{t[1]})"),
        st.tuples(coef, coef, coef).map(lambda t: f"({t[0]}*x1^2+{t[1]}*x1+{t[2]})"))

    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*"), sub).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(sub, st.integers(2, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            sub.map(lambda a: f"abs({a})"),
            st.tuples(st.sampled_from(["min", "max"]),
                      st.lists(sub, min_size=2, max_size=4)).map(
                lambda t: f"{t[0]}({','.join(t[1])})"))
    expr = st.recursive(leaf, extend, max_leaves=8).filter(
        lambda e: parsing._degree(_Parser(e, 1).parse()) <= 8)
    box = st.one_of(st.none(), st.tuples(st.floats(-3.0, 0.0), st.floats(0.0, 3.0)).map(
        lambda t: f"+ind({t[0]:.3g},{t[1]:.3g})"))
    return st.tuples(expr, box).map(lambda t: t[0] + (t[1] or ""))


def _magnitude(node: tuple, w: float) -> float:
    """A bound on every intermediate |value| of node at w: its operations
    on absolute values, with + and - as sums and min and max as the
    larger."""
    op = node[0]
    if op == "num":
        return abs(node[1])
    if op == "var":
        return abs(w)
    if op == "ind":
        return 0.0
    kids = [_magnitude(child, w) for child in node[1:] if isinstance(child, tuple)]
    if op == "mul":
        return kids[0] * kids[1]
    if op == "pow":
        return kids[0] ** node[2]
    return sum(kids) if op == "sum" else max(kids)


class TestExpansion:
    def test_a_polynomial_expands_exactly_from_its_literals(self):
        tree = _Parser("0.1*(x1-3)^2/4-x1", 1).parse()
        c = Fraction(0.1) / 4
        assert expand(tree, num=Fraction) == [9 * c, -6 * c - 1, c]

    @settings(max_examples=60, deadline=None)
    @given(expr=_piecewise_trees(),
           u=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=4))
    def test_each_piece_is_the_evaluator_inside_it(self, expr, u):
        # points sorted and unique, one polynomial per interval, each equal
        # to the compiled evaluator inside it within a few ulps of the
        # magnitudes summed along the tree (inside a top-level ind's box)
        tree = _Parser(expr, 1).parse()
        points, polys = pieces(tree)
        assert all(a < b for a, b in zip(points, points[1:]))
        assert len(polys) == len(points) + 1
        evaluator = parsing._evaluator(tree)
        edges = [-math.inf, *points, math.inf]
        for a, b, c in zip(edges, edges[1:], polys):
            for v in u:
                if math.isinf(a) and math.isinf(b):
                    w = 20.0 * v - 10.0
                elif math.isinf(a):
                    w = b - 10.0 * (1.0 + abs(b)) * v
                elif math.isinf(b):
                    w = a + 10.0 * (1.0 + abs(a)) * v
                else:
                    w = a + (b - a) * v
                value = evaluator(np.array([[w]]))[0]
                if not a < w < b or math.isinf(value):
                    continue
                piece = 0.0
                for coef in reversed(c):
                    piece = piece * w + coef
                tol = 32 * np.spacing(_magnitude(tree, w))
                assert abs(piece - value) <= tol, (w, piece, value)

    def test_a_piece_is_the_branch_at_its_point(self):
        tree = _Parser("abs(x1-1)+min(x1,2-x1)^2", 1).parse()
        points, polys = pieces(tree)
        assert expand(tree) is None  # no one polynomial
        assert polys[bisect_right(points, 0.0)] == [1.0, -1.0, 1.0]
        assert polys[bisect_right(points, 3.0)] == [3.0, -3.0, 1.0]


class TestLongChains:
    # the tree's depth counts nesting, so neither a long +/- chain nor a
    # min of many arguments is too deep for a walker

    @pytest.mark.parametrize("n", [600, 2000])
    def test_a_sum_of_n_terms_is_its_brute_force(self, n):
        f = parse_function("+".join(f"abs(x1-{k})" for k in range(n)), 1)
        res = prox_map(f, 0.1, [0.0])

        def objective(w):  # in chunks of 500 rows
            return np.concatenate([
                np.abs(c[:, None] - np.arange(float(n))).sum(axis=1)
                for c in np.array_split(w, -(-len(w) // 500))]) + w ** 2 / 0.2

        # past |w| = r, w^2 / 0.2 alone exceeds the objective at 0; it is
        # convex, so a scan 1e-3 apart around the best of one 0.1 apart
        # finds its minimum
        r = math.ceil(math.sqrt(0.1 * n * (n - 1)))
        coarse = np.linspace(-r, r, 20 * r + 1)
        w = coarse[objective(coarse).argmin()] + np.linspace(-0.1, 0.1, 201)
        brute = objective(w)
        h = f.grid_step
        assert abs(res.envelope_value - brute.min()) <= 100.0 * h * h + 1e-9
        assert len(res.minimizers) == 1
        assert abs(res.minimizers[0][0] - w[brute.argmin()]) <= 2.0 * h

    @pytest.mark.parametrize("x", [-2.0, 0.3, 17.4, 49.26, 99.9, 103.0])
    def test_a_min_of_100_crossing_quadratics_is_its_brute_force(self, x):
        # the arguments cross pairwise between each two integers
        f = parse_function("min(" + ",".join(f"(x1-{k})^2" for k in range(100)) + ")", 1)
        res = prox_map(f, 0.1, [x])

        def objective(w):
            return ((w[:, None] - np.arange(100.0)) ** 2).min(axis=1) + (w - x) ** 2 / 0.2

        coarse = np.linspace(-5.0, 105.0, 1101)
        w = coarse[objective(coarse).argmin()] + np.linspace(-0.1, 0.1, 201)
        brute = objective(w)
        h = f.grid_step
        assert abs(res.envelope_value - brute.min()) <= 100.0 * h * h + 1e-9
        assert len(res.minimizers) == 1
        assert abs(res.minimizers[0][0] - w[brute.argmin()]) <= 2.0 * h

    def test_a_min_of_1000_arguments_solves(self):
        # only x1^2 is below 1 near x = 0.5: its prox is x / (1 + 2 lam)
        f = parse_function("min(x1^2," + ",".join(map(str, range(1, 1000))) + ")", 1)
        assert prox_map(f, 0.1, [0.5]).envelope_value == pytest.approx(0.25 / 1.2,
                                                                      rel=1e-12)


class TestCompileCalls:
    def test_a_negated_literal_folds_without_compiling(self, monkeypatch):
        counted = mock.Mock(wraps=parsing._compile)
        monkeypatch.setattr(parsing, "_compile", counted)
        tree = _Parser("-0.5*x1^2-0.5*x2^2+ind(-1,1)", 2).parse()
        assert counted.call_count == 0
        x1, x2 = (("pow", ("var", j), 2) for j in (0, 1))
        assert tree == ("sum", "+-+", ("mul", ("num", -0.5), x1),
                        ("mul", ("num", 0.5), x2), ("ind", -1.0, 1.0))
        assert [type(v) for v in (tree[2][1][1], tree[4][1], tree[4][2])] == [np.float64] * 3
        for text, value in (("-0", -0.0), ("-1e400", -math.inf)):
            node = _Parser(text, 1).parse()
            assert node[0] == "num" and isinstance(node[1], np.float64)
            assert np.float64(value).tobytes() == node[1].tobytes()
        assert counted.call_count == 0

    @pytest.mark.parametrize("expr,dim,calls", [
        ("x1^4-x1^2", 1, 1),
        ("(x1^2-1)^2", 1, 1),
        ("-0.5*x1^2+ind(-1,1)", 1, 1),
        ("(x1^2-1)^2+abs(x2)", 2, 3),
    ])
    def test_a_1d_term_is_its_evaluator(self, monkeypatch, expr, dim, calls):
        # a per-axis term equal to the whole tree reuses the compiled
        # evaluator in place of compiling the same source again
        counted = mock.Mock(wraps=parsing._compile)
        monkeypatch.setattr(parsing, "_compile", counted)
        f = parse_function(expr, dim)
        assert counted.call_count == calls
        t = np.concatenate([np.linspace(-3.0, 3.0, 61), [0.0, -0.0, 1e200, -1e200]])
        if dim == 1:
            assert _same_bits(f.terms[0](t), f.evaluator(t[:, None]))

    def test_an_empty_axis_of_a_minus_zero_constant_is_plus_zero(self):
        # the empty axis's ("num", 0.0) equals the tree ("num", -0.0)
        t = np.linspace(-1.0, 1.0, 5)
        terms = parse_function("-0", 2).terms
        assert [np.signbit(g(t)).tolist() for g in terms] == [[True] * 5, [False] * 5]

    def test_package_import_does_not_load_piecewise(self):
        out = run_python("import moreaukit, moreaukit.cli, sys; "
                         "print('moreaukit.piecewise' in sys.modules)")
        assert out.stdout.strip() == "False"


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

    @pytest.mark.parametrize("key,text", [
        ("expr", "expr = x1^2\ndim = 1\nexpr = x1^4\n"),
        ("dim", "expr = x1^2\ndim = 1\ndim = 2\n"),
    ])
    def test_a_repeated_key_is_invalid(self, tmp_path, key, text):
        # only minimizer may repeat: a second expr would replace the first
        p = tmp_path / "twice.txt"
        p.write_text(text)
        with pytest.raises(InvalidArgument, match=f"key '{key}' is given twice"):
            load_function_file(p)

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

    @pytest.mark.filterwarnings("error")
    def test_a_margin_past_the_largest_double_raises_no_warning(self, tmp_path):
        # the sampled values reach 1.8e308 and beta is -8.8e306, so their
        # difference overflows: +inf, a point that meets the bound
        p = tmp_path / "steep.txt"
        p.write_text("expr = x1^2/1e-310+abs(x1)\ndim = 1\n")
        cert = load_function_file(p).certificate
        assert cert.source == "sampled"
        assert (cert.alpha.hex(), cert.beta.hex()) == (
            "-0x1.47ae147ae147bp-7", "-0x1.8fd44385841adp+1019")

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

    # "0-1e200*x1^2*1e200"'s derived bound overflows to alpha = -inf; a
    # division by 0 or -0 gives infinite coefficients, and one by 1e-310
    # coefficients past the largest double
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("expr", ["x1^3", "x1^2-0.001*x1^4", "1/x1",
                                      "0-1e200*x1^2*1e200", "x1^2/0+x1",
                                      "x1^2/(-0)+x1^2", "x1^2/1e-310+abs(x1)"])
    def test_not_derivable_falls_back_to_sampling(self, expr):
        cert = parse_function(expr, 1).certificate
        assert cert.source == "sampled"

    # pinned bits: the slack of 4 ulps per operation counts a k-child sum
    # as its k - 1 additions
    @pytest.mark.parametrize("expr,dim,alpha,beta", [
        ("1+2+x1-3", 2, "-0x1.0000000000014p-1", "-0x1.c000000000023p+1"),
        ("x1-x2", 2, "-0x1.000000000000cp+0", "-0x1.000000000000cp+0"),
        ("3+x2+4+x1", 2, "-0x1.000000000001cp+0", "-0x1.000000000001cp+0"),
        ("-(x1-ind(-1,2))-x2/0.5+3", 2, "-0x1.800000000003cp+0",
         "-0x1.800000000003cp+0"),
        ("sqrt(x1^2+1)+abs(x2)-0.1*x2^2", 2, "-0x1.99999999999edp-4", "0x0.0p+0"),
        ("-x1+2-x1^2+0.5*x1^2", 1, "-0x1.8000000000048p+0", "-0x1.0000000000030p-1"),
        # a product by 0, a degree past _MAX_DEGREE (an even power's lower
        # bound is 0 all the same), a square of a max, an indicator, and a
        # scale past the largest double of a nonnegative node
        ("0*x1^3+x1^2", 1, "0x0.0p+0", "0x0.0p+0"),
        ("x1^66+1", 1, "0x0.0p+0", "0x0.0p+0"),
        ("max(x1,-x1)^2-3", 1, "0x0.0p+0", "-0x1.800000000002ap+1"),
        ("-0.5*x1^2+ind(-1,1)", 1, "-0x1.0000000000018p-1", "0x0.0p+0"),
        ("1e300*x1^2*1e300", 1, "0x0.0p+0", "0x0.0p+0"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_chain_certificates_keep_their_bits(self, expr, dim, alpha, beta):
        cert = parse_function(expr, dim).certificate
        assert cert.source == "derived"
        assert (cert.alpha.hex(), cert.beta.hex()) == (alpha, beta)

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
    if node[0] == "sum":
        return [leaf for child in node[2:] for leaf in _chain(child)]
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
