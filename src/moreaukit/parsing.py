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
subexpressions.  NaN results (e.g. sqrt of a negative) are returned as
+inf, keeping every parsed function extended-real-valued.

The parser builds a tuple AST, with constant subexpressions folded into
numbers, and two walkers read it.  _evaluate computes the values at the rows
of an (m, n) array.  _bounds derives polynomial majorants in t = ||x||
(Moore, Kearfott & Cloud, Introduction to Interval Analysis, SIAM 2009):
for each node, coefficient arrays P and Q, nonnegative, with

    -P(t) <= node(x) <= Q(t)

wherever the node's value is not NaN.  A NaN reaches the root, where it
becomes +inf and any lower bound holds; only a power ^0 stops it, and its
bound does not depend on its base.

Certificates: when the root's P has degree <= 2, t <= (1 + t^2)/2 turns
-P(t) into f(x) >= -(p2 + p1/2) ||x||^2 - (p0 + p1/2), a proven
prox-boundedness certificate (source 'derived') that needs no sampling.
Otherwise a lower quadratic is fitted by sampling (source 'sampled'), and a
certificate given in a definition file has source 'supplied'; both are
re-validated by independent sampling before their first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArityError, InvalidArgument, ParseError
from .functions import (
    FunctionSpec,
    KnownMinimizer,
    ProxBoundCertificate,
    as_point,
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
#      | (op, node, ...) for op in _OPS
# ---------------------------------------------------------------------------

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
    """Values of node at the rows of the (m, n) array p, shape (m,); a
    constant node gives a numpy scalar."""
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


def _node(*node) -> tuple:
    """The AST node of an operation; one on constants only is folded."""
    children = [c for c in node[1:] if isinstance(c, tuple)]
    if all(c[0] == "num" for c in children):
        with np.errstate(all="ignore"):
            return ("num", _evaluate(node, np.zeros((1, 0))))
    return node


# ---------------------------------------------------------------------------
# polynomial majorants: ascending coefficient arrays, None for "no bound"
# ---------------------------------------------------------------------------

_MAX_DEGREE = 64  # higher-degree bounds are dropped (None), which stays sound
_ZERO = np.zeros(1)
_ONE = np.ones(1)
_T = np.array([0.0, 1.0])


def _poly(c) -> Optional[np.ndarray]:
    """c without trailing zeros; None if a coefficient is not finite or the
    degree exceeds _MAX_DEGREE."""
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        return None
    c = np.trim_zeros(c, "b") if c.any() else _ZERO
    return c if len(c) <= _MAX_DEGREE + 1 else None


def _padded(polys) -> np.ndarray:
    n = max(len(p) for p in polys)
    return np.array([np.pad(p, (0, n - len(p))) for p in polys])


def _add(*polys):
    if any(p is None for p in polys):
        return None
    return _poly(_padded(polys).sum(axis=0))


def _max(*polys):
    """Coefficientwise maximum, which bounds each of polys on t >= 0."""
    if any(p is None for p in polys):
        return None
    return _poly(_padded(polys).max(axis=0))


def _max_known(*polys):
    known = [p for p in polys if p is not None]
    return _max(*known) if known else None


def _mul(a, b):
    return None if a is None or b is None else _poly(np.convolve(a, b))


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
    return a is not None and not a.any()


def _scale(bounds: tuple, c: float) -> tuple:
    """Bounds of c * node from the node's bounds."""
    P, Q = bounds
    if c == 0:  # 0 * node is 0, or NaN where the node is infinite
        return _ZERO, _ZERO
    if c < 0:
        P, Q = Q, P
    return (None if P is None else _poly(abs(c) * P),
            None if Q is None else _poly(abs(c) * Q))


def _bounds(node: tuple) -> tuple:
    """(P, Q) with -P(t) <= node(x) <= Q(t) for t = ||x|| wherever node(x)
    is not NaN; None where the walker knows no polynomial bound."""
    op = node[0]
    if op == "num":
        c = node[1]
        return _poly([np.maximum(-c, 0.0)]), _poly([np.maximum(c, 0.0)])
    if op == "var":
        return _T, _T
    if op == "ind":
        return _ZERO, None
    if op == "mul" or op == "div":
        a, b = node[1], node[2]
        if b[0] == "num":
            return _scale(_bounds(a), b[1] if op == "mul" else 1.0 / b[1])
        if op == "div":
            return None, None
        if a[0] == "num":
            return _scale(_bounds(b), a[1])
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
    kids = [_bounds(child) for child in node[1:]]
    P, Q = kids[0]
    if op == "neg":
        return Q, P
    if op == "add":
        return _add(P, kids[1][0]), _add(Q, kids[1][1])
    if op == "sub":
        return _add(P, kids[1][1]), _add(Q, kids[1][0])
    if op == "abs":
        return _ZERO, _max(P, Q)
    if op == "sqrt":  # sqrt(s) <= 1 + s
        return _ZERO, _add(_ONE, Q)
    Ps, Qs = zip(*kids)
    if op == "min":
        return _max(*Ps), _max_known(*Qs)
    return _max_known(*Ps), _max(*Qs)  # max


def _derived_certificate(tree: tuple, dim: int) -> Optional[ProxBoundCertificate]:
    """The certificate that follows from the root's lower majorant, when it
    has degree <= 2."""
    with np.errstate(all="ignore"):
        P = _bounds(tree)[0]
    if P is None or len(P) > 3:
        return None
    p0, p1, p2 = np.pad(P, (0, 3 - len(P))).tolist()
    return ProxBoundCertificate(0.0 - (p2 + 0.5 * p1), 0.0 - (p0 + 0.5 * p1),
                                np.zeros(dim), source="derived")


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
        node = self.term()
        while self.cur.kind in ("+", "-"):
            op = "add" if self.advance().kind == "+" else "sub"
            node = _node(op, node, self.term())
        return node

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


def _fit_default_certificate(evaluator: Callable, dim: int,
                             box_radius: float = 10.0,
                             samples: int = 4000) -> ProxBoundCertificate:
    """Fit a sampled lower-quadratic witness anchored at the origin.

    The result is flagged unverified; callers re-validate by independent
    sampling before any envelope computation.
    """
    rng = np.random.default_rng(12345)
    pts = rng.uniform(-box_radius, box_radius, size=(samples, dim))
    vals = np.asarray(evaluator(pts), dtype=float)
    finite = np.isfinite(vals)
    if not np.any(finite):
        return ProxBoundCertificate(0.0, 0.0, np.zeros(dim), verified=False,
                                    source="sampled")
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
    return ProxBoundCertificate(alpha, beta, np.zeros(dim), verified=False,
                                source="sampled")


def parse_function(expr: str, dim: int,
                   certificate: Optional[ProxBoundCertificate] = None,
                   known_minimizers: tuple = (),
                   name: str = "") -> FunctionSpec:
    """Build a FunctionSpec from an expression in the grammar above.

    When no certificate is supplied, the one derived from the expression is
    used; if none can be derived, a sampled lower-quadratic fit, flagged
    unverified.
    """
    tree = _Parser(expr, dim).parse()

    def evaluator(pts):
        p = np.asarray(pts, dtype=float)
        with np.errstate(all="ignore"):
            vals = _evaluate(tree, p)
        if np.ndim(vals) == 0:  # a constant expression
            vals = np.full(p.shape[:-1], vals)
        nan = np.isnan(vals)
        return np.where(nan, np.inf, vals) if nan.any() else vals

    cert = (certificate or _derived_certificate(tree, dim)
            or _fit_default_certificate(evaluator, dim))
    return FunctionSpec(
        dim=dim,
        evaluator=evaluator,
        certificate=cert,
        closed_form_prox=None,
        known_minimizers=known_minimizers,
        name=name or expr,
        expr=expr,
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

    Recognized keys: expr, dim, alpha, beta, anchor (space-separated coords),
    and repeatable 'minimizer' lines of the form
    'coord [coord ...] kind modulus epsilon'.
    """
    entries = read_key_values(path)
    kv = dict(entries)
    if "expr" not in kv or "dim" not in kv:
        raise InvalidArgument(f"{path}: definition file requires expr and dim")
    dim = int(kv["dim"])

    cert = None
    if "alpha" in kv and "beta" in kv:
        anchor = as_point(
            [float(t) for t in kv.get("anchor", "0").split()] or [0.0]
        )
        if anchor.size == 1 and dim > 1:
            anchor = np.full(dim, float(anchor[0]))
        cert = ProxBoundCertificate(float(kv["alpha"]), float(kv["beta"]),
                                    anchor, verified=False, source="supplied")

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

    return parse_function(kv["expr"], dim, certificate=cert,
                          known_minimizers=tuple(minimizers),
                          name=kv.get("name", kv["expr"]))
