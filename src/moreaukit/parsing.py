"""Expression parser for user-defined functions and the definition-file loader.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unsigned-integer)?
    atom    := NUMBER | VAR | '(' expr ')'
             | 'abs' '(' expr ')' | 'sqrt' '(' expr ')'
             | 'min' '(' expr (',' expr)+ ')' | 'max' '(' expr (',' expr)+ ')'
             | 'ind' '(' const ',' const ')'

VAR is x1..xn.  ind(a, b) is the indicator of the box [a, b]^n over all
variables (0 inside, +inf outside); its bounds must be constant
subexpressions.  The evaluator returns NaN results (e.g. sqrt of a
negative) as they are; FunctionSpec.batch, through which every caller
evaluates, reads NaN as outside the domain (+inf), keeping every parsed
function extended-real-valued.  A +/- chain is one n-ary sum node, which
the walkers read in a loop, as min and max, recursing per nesting level.

The parser builds a tuple AST, with constant subexpressions folded into
numbers: a negated literal by negating its np.float64, which is exact, any
other by its compiled function.  _compile turns the AST, once, into one
Python function of the (m, n) array of rows, with one numpy statement per
operation, and compiles the per-axis terms of an additively separable f
(FunctionSpec.terms) when no leaf of the top-level +/- chain reads two
variables; a term equal to the whole tree, as is a 1-D one whose chain
_axis_nodes does not regroup, reuses the evaluator.  The catalog's
functions are such expressions too.  Besides the compiler, _degree and
moreaukit.piecewise (Exact prox, below), one walker reads the AST: _bounds
derives polynomial majorants in t = ||x|| (Moore, Kearfott & Cloud,
Introduction to Interval Analysis, SIAM 2009): for each node, lists P and
Q of nonnegative float coefficients, lowest degree first, whose arithmetic
(_poly_add, _poly_mul) moreaukit.piecewise shares, with

    -P(t) <= node(x) <= Q(t)

wherever the node's value is not NaN.  A NaN reaches the root, where batch
makes it +inf and any lower bound holds; only a power ^0 stops it, and its
bound does not depend on its base.

Certificates: when the root's P has degree <= 2, t <= (1 + t^2)/2 turns
-P(t) into f(x) >= -(p2 + p1/2) ||x||^2 - (p0 + p1/2), a proven
prox-boundedness certificate (source 'derived') that needs no sampling.
Otherwise a lower quadratic is fitted by sampling (source 'sampled'): a
hypothesis, which parse_function returns unchecked.  A certificate given in
a definition file has source 'supplied'.  load_function_file checks a
supplied or sampled certificate once, by independent sampling
(validate_certificate), and raises CertificateInvalid when it fails; the
solver never samples a certificate.

Exact prox: a separable f whose every per-axis term is piecewise
polynomial (_degree), with ind only as a top-level summand and pieces of
degree at most _MAX_PIECE_DEGREE, gets an exact closed_form_prox
(_exact_term, moreaukit.piecewise.ExactTerm); any other parsed function
takes the grid oracle.  A term's pieces are built from its leaves up on
its first solve, so a catalog entry, whose hand-written pieces replace
them, never builds them.  The solver values the candidates with the
evaluator and keeps the best one axis at a time (envelope._near_axes).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from itertools import zip_longest
from operator import add
from typing import Callable, Optional

import numpy as np

from .errors import ArityError, CertificateInvalid, InvalidArgument, ParseError
from .functions import (
    _CERT_TOL,
    FunctionSpec,
    KnownMinimizer,
    ProxBoundCertificate,
    _separable_prox,
    as_point,
    validate_certificate,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\*|/|\+|-|\(|\)|,))"
)

_FUNCS = {"abs", "sqrt", "min", "max", "ind"}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'name' | one of the operator lexemes | 'end'
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character", len(src) - len(stripped),
                             {"number", "name", "operator"})
        if m.lastgroup == "op":
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        else:
            tokens.append(_Token(m.lastgroup, m.group(m.lastgroup),
                                 m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


# ---------------------------------------------------------------------------
# AST: ("num", value) | ("var", index) | ("ind", lo, hi) | ("pow", node, k)
#      | ("sum", signs, node, ...) | (op, node, ...) for op in _INFIX or _UFUNCS
# A sum adds or subtracts its children in order, as its str signs says, '+' first
# ---------------------------------------------------------------------------

# generated code writes * and / infix and calls the others' ufuncs by name
_INFIX = {"mul": "*", "div": "/"}
_UFUNCS = {"neg": np.negative, "abs": np.absolute, "sqrt": np.sqrt,
           "min": np.minimum, "max": np.maximum}


def _indicator(p: np.ndarray, lo, hi) -> np.ndarray:
    """0 at the rows of p inside the box [lo, hi]^n, +inf elsewhere."""
    return np.where(np.logical_and.reduce((p >= lo) & (p <= hi), axis=-1),
                    0.0, np.inf)


_NAMESPACE = {"errstate": np.errstate, "indicator": _indicator,
              **{fn.__name__: fn for fn in _UFUNCS.values()}}


def _compile(tree: tuple) -> Callable:
    """One Python function computing tree at the rows of an (m, n) array p.

    Its body has one statement per operation, t<k> = <operation>, in
    evaluation order, so it stays flat however deep tree is.  A power ^k
    with k <= 2 is numpy's ** (** 2 is its square); one with k >= 3 is a
    product by repeated squaring, lowest bit first, at most 2 floor(log2 k)
    multiplications, so within gamma_{k-1} relative error (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sec. 3.1) and not always
    pow's last bits.  A statement reuses the name of a temporary it reads
    for the last time (a parent reads each child in one statement, a power
    its base and each square in up to two): the array that name held is
    freed then, and few large arrays are alive at a time.  The source holds
    no token text: its operands are p[..., i] with an integer i, earlier
    t<k> and constants bound as np.float64 names c<k> in the function's
    namespace; its exponents are integers and its calls name _NAMESPACE.
    The body runs under np.errstate(all="ignore"), so overflow and invalid
    operations give inf and NaN silently.  A tree of constants only gives a
    numpy scalar."""
    lines: list = []
    consts: dict = {}
    free: list = []  # names of temporaries already read
    count = 0  # distinct temporaries

    def const(value) -> str:
        name = f"c{len(consts)}"
        consts[name] = np.float64(value)
        return name

    def emit(text: str, *read: str) -> str:
        nonlocal count
        free.extend(r for r in read if r.startswith("t"))
        if free:
            name = free.pop()
        else:
            name, count = f"t{count}", count + 1
        lines.append(f"        {name} = {text}")
        return name

    def operand(node: tuple) -> str:
        op = node[0]
        if op == "num":
            return const(node[1])
        if op == "var":
            return f"p[..., {int(node[1])}]"
        if op == "ind":
            return emit(f"indicator(p, {const(node[1])}, {const(node[2])})")
        if op == "pow":
            base, k = operand(node[1]), int(node[2])
            if k <= 2:
                return emit(f"{base} ** {k}", base)
            # binary powering (Knuth, TAOCP vol. 2, sec. 4.6.3): the product,
            # lowest bit first, of the squares base^(2^i) whose bit i of k is
            # set; a square is freed after its last read ("" frees nothing),
            # so at most the product and one square are alive
            square, product = base, None
            while k:
                if k & 1:
                    product = square if product is None else emit(
                        f"{product} * {square}", product, square if k == 1 else "")
                k >>= 1
                if k:
                    square = emit(f"{square} * {square}",
                                  square if square != product else "")
            return product
        if op == "sum":
            first = operand(node[2])
            for sign, child in zip(node[1][1:], node[3:]):
                other = operand(child)
                first = emit(f"{first} {sign} {other}", first, other)
            return first
        if op in _INFIX:
            a, b = operand(node[1]), operand(node[2])
            return emit(f"{a} {_INFIX[op]} {b}", a, b)
        name = _UFUNCS[op].__name__
        first, *rest = [operand(child) for child in node[1:]]
        if not rest:
            return emit(f"{name}({first})", first)
        for other in rest:  # min and max of two or more, pairwise
            first = emit(f"{name}({first}, {other})", first, other)
        return first

    result = operand(tree)
    src = "\n".join(["def evaluate(p):", "    with errstate(all='ignore'):",
                     *lines, f"        return {result}"])
    namespace = {**_NAMESPACE, **consts}
    exec(compile(src, "<expression>", "exec"), namespace)
    return namespace["evaluate"]


def _node(*node) -> tuple:
    """The AST node of an operation; one on constants only is folded."""
    children = [c for c in node[1:] if isinstance(c, tuple)]
    if all(c[0] == "num" for c in children):
        return ("num", -children[0][1] if node[0] == "neg" else _compile(node)(None))
    return node


def _sum(leaves: list) -> tuple:
    """The node of the +/- chain of (negated, node) pairs: a negated first
    leaf becomes its neg; a leading run of numbers folds, no later one."""
    (negated, node), *rest = leaves
    node = _node("neg", node) if negated else node
    for k, (negated, leaf) in enumerate(rest):
        if not node[0] == leaf[0] == "num":
            signs = "+" + "".join("-" if n else "+" for n, _ in rest[k:])
            return ("sum", signs, node, *(child for _, child in rest[k:]))
        node = _node("sum", "+-" if negated else "++", node, leaf)
    return node


# ---------------------------------------------------------------------------
# polynomial majorants: float coefficient lists, None for "no bound"
# ---------------------------------------------------------------------------

def _poly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [*map(add, a, b), *a[len(b):]]


def _poly_mul(a: list, b: list) -> list:
    out = [0 * a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_MAX_DEGREE = 64  # higher-degree bounds are dropped (None), which stays sound
_ZERO, _ONE, _T = [0.0], [1.0], [0.0, 1.0]


def _poly(c: list) -> Optional[list]:
    """c without trailing zeros; None if a coefficient is not finite or the
    degree exceeds _MAX_DEGREE."""
    if not all(map(math.isfinite, c)):
        return None
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    return c if len(c) <= _MAX_DEGREE + 1 else None


def _add(a, b):
    return None if a is None or b is None else _poly(_poly_add(a, b))


def _max(*polys):
    """Coefficientwise maximum, which bounds each of polys on t >= 0."""
    if any(p is None for p in polys):
        return None
    return _poly([max(c) for c in zip_longest(*polys, fillvalue=0.0)])


def _max_known(*polys):
    known = [p for p in polys if p is not None]
    return _max(*known) if known else None


def _mul(a, b):
    return None if a is None or b is None else _poly(_poly_mul(a, b))


def _pow(a, k: int):
    if a is None or (len(a) - 1) * k > _MAX_DEGREE:
        return None
    out = _ONE
    while k:
        if k & 1:
            out = _mul(out, a)
        a = _mul(a, a)
        k >>= 1
    return out


def _is_zero(a) -> bool:
    return a is not None and not any(a)


def _scale(bounds: tuple, c: float) -> tuple:
    """Bounds of c * node from the node's bounds."""
    P, Q = bounds
    if c == 0:  # 0 * node is 0, or NaN where the node is infinite
        return _ZERO, _ZERO
    if c < 0:
        P, Q = Q, P
    return (None if P is None else _poly([abs(c) * v for v in P]),
            None if Q is None else _poly([abs(c) * v for v in Q]))


def _bounds(node: tuple) -> tuple:
    """(P, Q) with -P(t) <= node(x) <= Q(t) for t = ||x|| wherever node(x)
    is not NaN; None where the walker knows no polynomial bound."""
    op = node[0]
    if op == "num":  # max keeps a NaN literal first, which has no bound
        c = float(node[1])
        return _poly([max(-c, 0.0)]), _poly([max(c, 0.0)])
    if op == "var":
        return _T, _T
    if op == "ind":
        return _ZERO, None
    if op == "mul" or op == "div":
        a, b = node[1], node[2]
        if b[0] == "num":  # numpy's 1 / +-0 is +-inf, under the caller's errstate
            return _scale(_bounds(a), float(b[1] if op == "mul" else 1.0 / b[1]))
        if op == "div":
            return None, None
        if a[0] == "num":
            return _scale(_bounds(b), float(a[1]))
        (Pa, Qa), (Pb, Qb) = _bounds(a), _bounds(b)
        M = _mul(_max(Pa, Qa), _max(Pb, Qb))
        return (_ZERO if _is_zero(Pa) and _is_zero(Pb) else M), M
    if op == "pow":
        k = node[2]
        P, Q = _bounds(node[1])
        if k <= 1:
            return (P, Q) if k == 1 else (_ZERO, _ONE)
        M = _pow(_max(P, Q), k)
        return (_ZERO if k % 2 == 0 or _is_zero(P) else M), M
    kids = [_bounds(child) for child in node[1:] if isinstance(child, tuple)]
    P, Q = kids[0]
    if op == "sum":  # a subtracted child's bounds swap
        for sign, (p, q) in zip(node[1][1:], kids[1:]):
            P, Q = _add(P, p if sign == "+" else q), _add(Q, q if sign == "+" else p)
        return P, Q
    if op == "neg":
        return Q, P
    if op == "abs":
        return _ZERO, _max(P, Q)
    if op == "sqrt":  # sqrt(s) <= 1 + s
        return _ZERO, _add(_ONE, Q)
    Ps, Qs = zip(*kids)
    if op == "min":
        return _max(*Ps), _max_known(*Qs)
    return _max_known(*Ps), _max(*Qs)  # max


# a derived bound must stay finite out to this norm; past it the constants
# are so large that values overflow to -inf where the bound is sound only on
# paper, e.g. -(x1/1.11e-308) beyond |x1| = 2
_FINITE_BOUND_RADIUS = 1e6


def _size(node: tuple) -> int:  # operations and leaves; a k-child sum does k-1
    return ((len(node) - 3 if node[0] == "sum" else 1)
            + sum(_size(c) for c in node[1:] if isinstance(c, tuple)))


def _derived_certificate(tree: tuple, dim: int) -> Optional[ProxBoundCertificate]:
    """The certificate that follows from the root's lower majorant, when it
    has degree <= 2 and stays finite within _FINITE_BOUND_RADIUS.  alpha and
    beta move outward by 4 ulps per AST node, a margin for the rounding of
    the evaluated f; zero stays zero."""
    with np.errstate(divide="ignore", over="ignore"):
        P = _bounds(tree)[0]
    if P is None or len(P) > 3:
        return None
    p0, p1, p2 = P + [0.0] * (3 - len(P))
    slack = 4 * _size(tree) * math.ulp(1.0)
    alpha, beta = (c - slack * abs(c)
                   for c in (0.0 - (p2 + 0.5 * p1), 0.0 - (p0 + 0.5 * p1)))
    if not math.isfinite(alpha * _FINITE_BOUND_RADIUS ** 2 + beta):
        return None
    return ProxBoundCertificate(alpha, beta, np.zeros(dim), source="derived")


class _Parser:
    """Recursive-descent parser producing the tuple AST of an expression."""

    def __init__(self, src: str, dim: int):
        if dim < 1:
            raise InvalidArgument("dimension must be >= 1")
        self.src = src
        self.dim = dim
        self.tokens = _tokenize(src)
        self.i = 0

    # -- token helpers ------------------------------------------------------

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(f"got {self.cur.text or 'end of input'!r}",
                             self.cur.offset, {kind})
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def parse(self) -> tuple:
        node = self.expr()
        if self.cur.kind != "end":
            raise ParseError(f"trailing input {self.cur.text!r}",
                             self.cur.offset, {"end"})
        return node

    def expr(self) -> tuple:
        leaves = [(False, self.term())]
        while self.cur.kind in ("+", "-"):
            leaves.append((self.advance().kind == "-", self.term()))
        return _sum(leaves)

    def term(self) -> tuple:
        node = self.unary()
        while self.cur.kind in ("*", "/"):
            op = "mul" if self.advance().kind == "*" else "div"
            node = _node(op, node, self.unary())
        return node

    def unary(self) -> tuple:
        if self.cur.kind == "-":
            self.advance()
            return _node("neg", self.unary())
        return self.power()

    def power(self) -> tuple:
        base = self.atom()
        if self.cur.kind == "^":
            self.advance()
            tok = self.expect("number")
            if not re.fullmatch(r"\d+", tok.text):
                raise ParseError("exponent must be a nonnegative integer",
                                 tok.offset, {"integer"})
            return _node("pow", base, int(tok.text))
        return base

    def atom(self) -> tuple:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return ("num", np.float64(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in _FUNCS:
                return self.call(name, tok)
            m = re.fullmatch(r"x(\d+)", name)
            if m is None:
                raise ParseError(f"unknown identifier {name!r}", tok.offset,
                                 {"variable", "function"})
            idx = int(m.group(1))
            if not 1 <= idx <= self.dim:
                raise ArityError(
                    f"variable x{idx} out of range for dimension {self.dim}"
                )
            return ("var", idx - 1)
        raise ParseError(f"got {tok.text or 'end of input'!r}", tok.offset,
                         {"number", "name", "("})

    def call(self, name: str, tok: _Token) -> tuple:
        self.expect("(")
        args = [self.expr()]
        while self.cur.kind == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        if name in ("abs", "sqrt"):
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument", tok.offset, {")"})
            return _node(name, args[0])
        if name in ("min", "max"):
            if len(args) < 2:
                raise ParseError(f"{name} takes at least two arguments",
                                 tok.offset, {","})
            return _node(name, *args)
        # ind(a, b): bounds must be constant subexpressions
        if len(args) != 2:
            raise ParseError("ind takes two arguments", tok.offset, {","})
        if any(a[0] != "num" for a in args):
            raise ParseError("ind bounds must be constants", tok.offset,
                             {"constant"})
        lo, hi = args[0][1], args[1][1]
        if not lo <= hi:
            raise ParseError("ind requires lower bound <= upper bound",
                             tok.offset, {"constant"})
        return ("ind", lo, hi)


def _fit_default_certificate(evaluator: Callable, dim: int) -> ProxBoundCertificate:
    """Fit a sampled lower-quadratic witness anchored at the origin, from
    4000 points of the box [-10, 10]^dim.

    The result, of source 'sampled', is a hypothesis: nothing here checks
    it, and load_function_file validates it by independent sampling.
    """
    rng = np.random.default_rng(12345)
    pts = rng.uniform(-10.0, 10.0, size=(4000, dim))
    vals = np.asarray(evaluator(pts), dtype=float)
    finite = np.isfinite(vals)
    if not np.any(finite):
        return ProxBoundCertificate(0.0, 0.0, np.zeros(dim), source="sampled")
    sq = np.sum(pts[finite] ** 2, axis=1)
    lo = float(np.min(vals[finite]))
    scale = float(np.max(np.abs(vals[finite][np.isfinite(vals[finite])]),
                         initial=1.0))
    # slack proportional to the observed value range guards against points
    # slightly more extreme than the fitting sample
    beta = lo - 1.0 - 0.05 * scale
    mask = sq > 0.25
    if np.any(mask):
        alpha = float(np.min((vals[finite][mask] - beta) / sq[mask]))
        alpha = min(alpha, 0.0) * 1.05 - 0.01
    else:
        alpha = -0.01
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        # the sampled values are too large to fit: keep the placeholder,
        # which validation then rejects
        alpha, beta = 0.0, 0.0
    return ProxBoundCertificate(alpha, beta, np.zeros(dim), source="sampled")


# ---------------------------------------------------------------------------
# separable structure: f = sum_j g_j(x_j) read off the top-level +/- chain
# ---------------------------------------------------------------------------

def _summands(node: tuple, negated: bool = False) -> list:
    """The leaves of node's top-level sum/neg chain, nested sums included,
    as (negated, leaf) pairs in evaluation order."""
    op = node[0]
    if op == "sum":
        return [leaf for sign, child in zip(node[1], node[2:])
                for leaf in _summands(child, negated != (sign == "-"))]
    if op == "neg":
        return _summands(node[1], not negated)
    return [(negated, node)]


def _axes(node: tuple, dim: int) -> set:
    """The variables node reads; an indicator reads all of them."""
    if node[0] == "var":
        return {node[1]}
    if node[0] == "ind":
        return set(range(dim))
    return set().union(*(_axes(c, dim) for c in node[1:] if isinstance(c, tuple)))


def _on_axis(node: tuple) -> tuple:
    """node with its one variable read from column 0."""
    if node[0] == "var":
        return ("var", 0)
    return tuple(_on_axis(c) if isinstance(c, tuple) else c for c in node)


def _evaluator(tree: tuple) -> Callable:
    """The values of tree at the rows of an (m, n) array, shape (m,)."""
    if tree[0] == "num":  # a constant expression
        return lambda p: np.full(np.shape(p)[:-1], tree[1])
    return _compile(tree)


def _axis_nodes(tree: tuple, dim: int) -> Optional[list]:
    """The ASTs of per-axis terms g_j, each reading column 0, with
    tree = sum_j g_j(x_j), or None when a leaf of the top-level +/- chain
    reads more than one variable.

    Constant leaves go to axis 0, and a top-level ind(a, b), the indicator of
    the box [a, b]^n, becomes one interval indicator per axis.  Each axis
    keeps its leaves' order and signs, but regrouped: the terms' sum can
    differ from the evaluator by rounding, so it only locates candidates."""
    chains: list = [[] for _ in range(dim)]
    for negated, leaf in _summands(tree):
        if leaf[0] == "ind":
            axes = range(dim)
        else:
            axes = _axes(leaf, dim) or {0}
            if len(axes) > 1:
                return None
        for j in axes:
            chains[j].append((negated, _on_axis(leaf)))
    return [_sum(chain) if chain else ("num", np.float64(0.0)) for chain in chains]


def _term(ev: Callable) -> Callable:
    """The per-axis term of the evaluator ev, mapping a 1-D array to a 1-D array."""
    return lambda t: ev(t[:, None])


# ---------------------------------------------------------------------------
# exact prox of piecewise-polynomial per-axis terms (see moreaukit.piecewise)
# ---------------------------------------------------------------------------

# a term whose pieces can exceed this degree gets no exact prox
_MAX_PIECE_DEGREE = 8


def _degree(node: tuple) -> Optional[int]:
    """A bound on the degree of every polynomial piece of node, or None when
    node is not piecewise polynomial: sqrt, ind, division by anything but a
    finite nonzero constant, or a literal that is not finite."""
    op = node[0]
    if op == "num":
        return 0 if math.isfinite(node[1]) else None
    if op == "var":
        return 1
    if op == "div":
        b = node[2]
        if b[0] != "num" or not (math.isfinite(b[1]) and b[1] != 0):
            return None
        return _degree(node[1])
    if op == "pow":
        d = _degree(node[1])
        return None if d is None else d * node[2]
    if op not in ("sum", "neg", "mul", "abs", "min", "max"):
        return None  # sqrt and a nested ind
    kids = [_degree(child) for child in node[1:] if isinstance(child, tuple)]
    if None in kids:
        return None
    return sum(kids) if op == "mul" else max(kids)


def _exact_term(node: tuple) -> Optional[Callable]:
    """The exact prox piece (moreaukit.piecewise.ExactTerm) of the per-axis
    term node, or None unless node is a piecewise polynomial (_degree) of
    degree at most _MAX_PIECE_DEGREE plus top-level ind summands whose
    boxes meet.  The module is imported, and the pieces found, on the first
    solve, so that neither the package's import nor a catalog entry, whose
    hand-written pieces replace these, pays for them."""
    lo, hi, top = -math.inf, math.inf, 0
    for negated, leaf in _summands(node):
        if leaf[0] == "ind" and not negated:
            lo, hi = max(lo, leaf[1]), min(hi, leaf[2])
            continue
        d = _degree(leaf)
        if d is None:
            return None
        top = max(top, d)
    if top > _MAX_PIECE_DEGREE or not lo <= hi:
        return None
    term = None

    def piece(lam, t):
        nonlocal term
        if term is None:
            from .piecewise import ExactTerm
            try:
                term = ExactTerm(node, float(lo), float(hi))
            except RecursionError:
                raise _too_deep() from None
        return term(lam, t)
    return piece


def _too_deep() -> InvalidArgument:
    """The error of an expression whose tree is too deep for a walker: its
    depth counts nested parentheses, calls, unary minus, ^, * and /."""
    return InvalidArgument("expression too deep: walking its tree exceeds "
                           f"Python's recursion limit ({sys.getrecursionlimit()})")


def parse_function(expr: str, dim: int,
                   certificate: Optional[ProxBoundCertificate] = None,
                   known_minimizers: tuple = (),
                   name: str = "") -> FunctionSpec:
    """Build a FunctionSpec from an expression in the grammar above.

    When no certificate is supplied, the one derived from the expression is
    used; if none can be derived, a sampled lower-quadratic fit, returned
    unchecked (validate_certificate samples it).  An expression too deep to
    walk raises InvalidArgument, here or, for the exact prox, on the first
    solve.
    """
    try:
        tree = _Parser(expr, dim).parse()
        evaluator = _evaluator(tree)
        nodes = _axis_nodes(tree, dim)
        exact = None if nodes is None else [_exact_term(node) for node in nodes]
        # a constant is not compiled, and an empty axis's 0 equals a -0 tree
        terms = None if nodes is None else tuple(
            _term(evaluator if tree[0] != "num" and node == tree else _evaluator(node))
            for node in nodes)
        cert = (certificate or _derived_certificate(tree, dim)
                or _fit_default_certificate(evaluator, dim))
    except RecursionError:
        raise _too_deep() from None
    return FunctionSpec(
        dim=dim,
        evaluator=evaluator,
        certificate=cert,
        closed_form_prox=(None if exact is None or None in exact
                          else _separable_prox(exact)),
        known_minimizers=known_minimizers,
        name=name or expr,
        expr=expr,
        terms=terms,
    )


def read_key_values(path) -> list[tuple[str, str]]:
    """The (key, value) pairs of a plain-text file of 'key = value' lines,
    in file order; '#' starts a comment.  A line without '=' raises
    InvalidArgument; a file that cannot be read raises OSError."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgument(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            entries.append((key.strip(), value.strip()))
    return entries


def load_function_file(path) -> FunctionSpec:
    """Load a function from a plain-text key-value definition file.

    Keys: expr and dim (required), name (default expr), a supplied
    certificate's alpha and beta, read only together, with its anchor
    (space-separated coords, default 0), and repeatable 'minimizer' lines
    'coord [coord ...] kind modulus epsilon'.  Any other key, a key but
    minimizer given twice, or an alpha, beta or anchor without both alpha
    and beta, raises InvalidArgument naming it.  A supplied or sampled
    certificate is validated here, once; CertificateInvalid is raised when
    sampling refutes it.
    """
    entries = read_key_values(path)
    kv: dict = {}
    for key, value in entries:
        if key in kv and key != "minimizer":
            raise InvalidArgument(f"{path}: key {key!r} is given twice")
        kv[key] = value
    has_cert = "alpha" in kv and "beta" in kv
    read = ("expr", "dim", "name", "minimizer") + (
        ("alpha", "beta", "anchor") if has_cert else ())
    for key in kv:
        if key not in read:
            raise InvalidArgument(f"{path}: key {key!r} is not read (alpha, "
                                  "beta and anchor need both alpha and beta)")
    if "expr" not in kv or "dim" not in kv:
        raise InvalidArgument(f"{path}: definition file requires expr and dim")
    dim = int(kv["dim"])

    cert = None
    if has_cert:
        anchor = as_point(
            [float(t) for t in kv.get("anchor", "0").split()] or [0.0]
        )
        if anchor.size == 1 and dim > 1:
            anchor = np.full(dim, float(anchor[0]))
        cert = ProxBoundCertificate(float(kv["alpha"]), float(kv["beta"]),
                                    anchor, source="supplied")

    minimizers = []
    for key, value in entries:
        if key != "minimizer":
            continue
        parts = value.split()
        if len(parts) != dim + 3:
            raise InvalidArgument(
                f"{path}: minimizer needs {dim} coords, kind, modulus, epsilon"
            )
        coords = [float(t) for t in parts[:dim]]
        kind = parts[dim]
        minimizers.append(KnownMinimizer(np.array(coords), kind,
                                         float(parts[dim + 1]),
                                         float(parts[dim + 2])))

    f = parse_function(kv["expr"], dim, certificate=cert,
                       known_minimizers=tuple(minimizers),
                       name=kv.get("name", kv["expr"]))
    if f.certificate.source in ("supplied", "sampled"):
        margin = validate_certificate(f)
        if margin < -_CERT_TOL:
            raise CertificateInvalid(
                f"certificate (alpha={f.certificate.alpha}, "
                f"beta={f.certificate.beta}) violated by sampling, worst "
                f"margin {margin:.3e}")
    return f
