"""Piecewise polynomials of one variable, read from the parser's ASTs, and
the exact prox of a per-axis term that is one.

A node of moreaukit.parsing's AST in the one variable of column 0 is
piecewise polynomial when it is built from numbers, + - *, integer ^, abs,
min, max and division by a nonzero constant (moreaukit.parsing decides
that from the syntax, and bounds its pieces' degree).  Its pieces meet at the points that
breakpoints finds: the real roots of every abs argument and of every
difference of min or max arguments, and the ends of a top-level ind box.
expand gives the coefficients of the polynomial of the piece around a
point; given no point, it expands the polynomial of + - *, ^, numbers and
constant division, in floats or, from the parsed literals, exactly in
fractions.Fraction, with the coefficient-list arithmetic of
moreaukit.parsing's majorants.  Roots come from companion-matrix
eigenvalues (real_roots), many polynomials in one np.linalg.eigvals call.

ExactTerm is the exact prox of such a term: every proximal point is a
breakpoint or a root of Fermat's rule w + lam g'(w) = x on some piece, so
those are its candidates, with no grid error.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import CertificateInvalid, InvalidArgument
from .parsing import _poly_add, _poly_mul

# a companion-matrix eigenvalue whose imaginary part is at most this
# fraction of 1 + |real part| counts as a real root; a rounded pair of
# nearly equal real roots comes out complex with an imaginary part near
# sqrt(eps), and a complex root taken for real only adds a feasible point
_REAL_ROOT_TOL = 1e-6


def _horner(c: list, at):
    value = 0
    for coef in reversed(c):
        value = value * at + coef
    return value


def expand(node: tuple, at=None, num=float) -> Optional[list]:
    """The coefficients, lowest degree first, of the polynomial that equals
    node, a function of column 0, on the polynomial piece that contains the
    point at: abs, min and max take the branch their arguments' polynomials
    select at at (the first of equal ones), and ind(a, b) is 0 where at
    lies in [a, b].  None where node is no polynomial there: sqrt, division
    by a nonconstant, ind outside its box, or abs, min, max or ind with at
    None, which so expands only the polynomials of + - *, integer ^ and
    numbers.  num converts the parsed literals, and at: float, or
    fractions.Fraction for exact coefficients."""
    op = node[0]
    if op == "num":
        return [num(node[1])]
    if op == "var":
        return [num(0), num(1)]
    if op == "ind":
        inside = at is not None and node[1] <= at <= node[2]
        return [num(0)] if inside else None
    if op == "div":
        a, b = expand(node[1], at, num), node[2]
        return None if a is None or b[0] != "num" else [c / num(b[1]) for c in a]
    if op == "pow":
        base, k = expand(node[1], at, num), node[2]
        if base is None:
            return None
        out = [num(1)]
        for _ in range(k):
            out = _poly_mul(out, base)
        return out
    if op == "sqrt":
        return None
    kids = [expand(child, at, num) for child in node[1:] if isinstance(child, tuple)]
    if None in kids:
        return None
    if op == "sum":
        out = kids[0]
        for sign, c in zip(node[1][1:], kids[1:]):
            out = _poly_add(out, c if sign == "+" else [-v for v in c])
        return out
    if op == "neg":
        return [-c for c in kids[0]]
    if op == "mul":
        return _poly_mul(*kids)
    if at is None:  # abs, min and max have no one polynomial
        return None
    values = [_horner(c, num(at)) for c in kids]
    if op == "abs":
        return kids[0] if values[0] >= 0 else [-c for c in kids[0]]
    pick = min if op == "min" else max
    return kids[values.index(pick(values))]


def real_roots(C: np.ndarray) -> np.ndarray:
    """The real roots of the monic polynomials w^e + C[..., e-1] w^(e-1) +
    ... + C[..., 0], as an array of C's shape, NaN for a complex root:
    the eigenvalues of each companion matrix (Edelman & Murakami, Math.
    Comp. 64, 1995), all in one np.linalg.eigvals call, which balances each
    matrix first.  C must be finite."""
    e = C.shape[-1]
    if e == 1:
        return -C
    M = np.zeros(C.shape + (e,))
    M[..., np.arange(1, e), np.arange(e - 1)] = 1.0
    M[..., :, -1] = -C
    z = np.linalg.eigvals(M)
    real = np.abs(z.imag) <= _REAL_ROOT_TOL * (1.0 + np.abs(z.real))
    return np.where(real, z.real, math.nan)


def _roots_between(c: list, a: float, b: float) -> list:
    """The real roots in (a, b) of the polynomial with float coefficients c,
    lowest degree first; none for a constant one."""
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    if len(c) < 2:
        return []
    r = real_roots(np.array(c[:-1]) / c[-1]).tolist()
    return [w for w in r if a < w < b]


def _inside(a: float, b: float) -> Optional[float]:
    """A float strictly between a < b, None if there is none."""
    if a == -math.inf:
        s = 0.0 if b == math.inf else b - 1.0 - abs(b)
    elif b == math.inf:
        s = a + 1.0 + abs(a)
    else:
        s = 0.5 * a + 0.5 * b
    if not a < s < b:
        s = math.nextafter(a, b)
    return s if a < s < b else None


def _pieces(points: list, lo: float = -math.inf, hi: float = math.inf) -> list:
    """The open intervals into which the points cut (lo, hi), each with a
    point inside, as (a, b, s) triples; intervals without a float inside
    are left out."""
    edges = [lo] + [p for p in points if lo < p < hi] + [hi]
    return [(a, b, s) for a, b in zip(edges, edges[1:])
            if (s := _inside(a, b)) is not None]


def breakpoints(node: tuple) -> list:
    """The sorted points where node, a piecewise polynomial of column 0, may
    change polynomial: the real roots of every abs argument and, pairwise
    as min and max are evaluated, of the pick of their first i arguments
    minus argument i + 1, each found on the pieces of the points so far,
    and the ends of every ind box."""
    op = node[0]
    if op == "ind":
        return [node[1], node[2]]
    kids = [child for child in node[1:] if isinstance(child, tuple)]
    if op not in ("abs", "min", "max"):
        return sorted(set().union(*(breakpoints(child) for child in kids)))
    points = breakpoints(kids[0])
    for i in range(1, max(len(kids), 2)):  # abs: once, for its argument
        points = sorted(set(points).union(*map(breakpoints, kids[i:i + 1])))
        roots = []
        for a, b, s in _pieces(points):  # where node may switch branch
            c = expand(kids[0] if op == "abs" else (op, *kids[:i]), s)
            if op != "abs":
                c = _poly_add(c, [-v for v in expand(kids[i], s)])
            roots += _roots_between(c, a, b)
        points = sorted(set(points + roots))
    return points


class ExactTerm:
    """The exact prox candidates of one per-axis term g, a piecewise
    polynomial on its box [lo, hi] (+inf outside), as a piece of a
    closed-form prox (functions._separable_prox): called with lam and the
    (m,) coordinates t, it returns their (m, k) candidates, NaN where one
    does not exist.

    They are the breakpoints of g (breakpoints, with the box ends), and on
    each piece between two of them with polynomial p the real roots there
    of Fermat's rule w + lam p'(w) - t = 0 (Rockafellar & Wets,
    Variational Analysis, Thm 10.1), which every proximal point inside the
    piece solves: so every proximal point is one of them.  The pieces, the
    same for every lam and t, are found when the term is built, and a
    piece of degree <= 2 gives a linear equation.  Each row's candidates depend only
    on its own lam and t, in the same operations for a float lam and for a
    column.  A candidate whose distance term overflows is dropped; a row
    left with none raises, CertificateInvalid where it had none to drop."""

    def __init__(self, node: tuple, lo: float, hi: float):
        self.node, self.lo, self.hi = node, lo, hi
        self.fixed, self.groups = self._tables()

    def _tables(self):
        """The finite breakpoints, and per equation degree e the ends a and
        b of its pieces and the coefficients q of their p', lowest first:
        for e = 1 the two lowest, for e >= 2 all divided by the leading one,
        which follows them."""
        points = [p for p in breakpoints(self.node) if self.lo <= p <= self.hi]
        fixed = sorted(set(points + [p for p in (self.lo, self.hi)
                                     if math.isfinite(p)]))
        groups: dict = {}
        for a, b, s in _pieces(fixed, self.lo, self.hi):
            c = expand(self.node, s)
            while len(c) > 1 and c[-1] == 0:
                c = c[:-1]
            dp = [k * v for k, v in enumerate(c)][1:]
            if len(dp) <= 2:
                q = (dp + [0.0, 0.0])[:2]
            else:
                q = [v / dp[-1] for v in dp[:-1]] + [dp[-1]]
            if not all(map(math.isfinite, q)):
                raise InvalidArgument("a polynomial piece's coefficients overflow")
            groups.setdefault(max(len(dp) - 1, 1), []).append((a, b, q))
        return np.array(fixed), {e: tuple(np.array(v, dtype=float).T
                                        for v in zip(*rows))
                                 for e, rows in sorted(groups.items())}

    def __call__(self, lam, t: np.ndarray) -> np.ndarray:
        fixed, groups = self.fixed, self.groups
        L = lam if isinstance(lam, float) else lam[:, None]
        x = t[:, None]
        cols = [np.broadcast_to(fixed, (len(t), len(fixed)))]
        with np.errstate(all="ignore"):  # what overflows is checked below
            for e, (a, b, q) in groups.items():
                if e == 1:  # (1 + lam 2 p_2) w = t - lam p_1, no root where 0 = 0
                    eq = (x - L * q[0], 1.0 + L * q[1])
                else:  # monic, with s = 1 / (lam d p_d)
                    s = 1.0 / (L * q[-1])
                    C = np.empty((len(t), len(a), e))
                    C[...] = q[:-1].T
                    C[..., 1] += s
                    C[..., 0] -= x * s
                    eq = (C,)
                if not all(np.isfinite(v).all() for v in eq):
                    raise InvalidArgument("the stationarity equation of a "
                                          "polynomial piece overflows")
                if e == 1:
                    W = eq[0] / eq[1]
                else:
                    W, a, b = real_roots(C), a[:, None], b[:, None]
                W = np.where((W >= a) & (W <= b) & (np.abs(W) < math.inf),
                             W, math.nan)
                cols.append(W.reshape(len(t), -1))
            W = np.concatenate(cols, axis=1)
            # a candidate whose distance term overflows is never chosen, and
            # evaluating it would overflow
            far = np.isinf((W - x) ** 2 / (2.0 * L))
        empty = np.isnan(W).all(axis=1)
        if empty.any():
            # only without breakpoints: w + lam g'(w) - t keeps one sign on
            # all of R, so the objective decreases without bound, which no
            # true certificate allows below its threshold
            raise CertificateInvalid(
                f"no stationary point at the coordinate "
                f"{t[empty.argmax()].item()!r} of x: the objective decreases "
                "without bound, so the function is not prox-bounded and its "
                "certificate is false")
        if far.any():
            W[far] = math.nan
            if np.isnan(W).all(axis=1).any():
                raise InvalidArgument("every proximal candidate lies so far "
                                      "from x that its objective overflows")
        return W
