"""Piecewise polynomials of one variable, read from the parser's ASTs, and
the exact prox of a per-axis term that is one.

A node of moreaukit.parsing's AST in the one variable of column 0 is
piecewise polynomial when it is built from numbers, + - *, integer ^, abs,
min, max and division by a nonzero constant (moreaukit.parsing decides
that from the syntax, and bounds its pieces' degree).  pieces builds it
once, from the leaves up, as its breakpoints and one polynomial per piece
between them: piecewise chebfuns' splitting (Pachon, Platte & Trefethen,
IMA J. Numer. Anal. 30, 2010) with exact polynomials for interpolants.
expand gives a polynomial of + - *, ^, numbers and constant division, in
floats or exactly in fractions.Fraction, both with the coefficient lists
of moreaukit.parsing's majorants.  Real roots are companion-matrix
eigenvalues (real_roots), many in one np.linalg.eigvals call.

ExactTerm is the exact prox of such a term: every proximal point is a
breakpoint or a root of Fermat's rule w + lam g'(w) = x on some piece, so
those are its candidates, with no grid error.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from operator import gt, lt, sub
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


def _neg(c: list) -> list:
    return [-v for v in c]


def _combine(node: tuple, cols, num=float) -> list:
    """The polynomials of node, a sum, neg, mul, integer pow or constant
    div, on some intervals, from an iterator of its children's on them."""
    op, out = node[0], next(cols)
    if op == "sum":
        for sign, col in zip(node[1][1:], cols):
            out = list(map(_poly_add, out, col if sign == "+" else map(_neg, col)))
    elif op == "neg":
        out = list(map(_neg, out))
    elif op == "mul":
        out = list(map(_poly_mul, out, next(cols)))
    elif op == "div":
        out = [[v / d[0] for v in c] for c, d in zip(out, next(cols))]
    else:  # pow
        base, out = out, [[num(1)]] * len(out)
        for _ in range(node[2]):
            out = list(map(_poly_mul, out, base))
    return out


def expand(node: tuple, num=float) -> Optional[list]:
    """The coefficients, lowest degree first, of node, a function of column
    0 of numbers, + - *, integer ^ and constant division, or else None.  num
    converts the parsed literals: float, or fractions.Fraction (exact)."""
    op = node[0]
    if op == "num":
        return [num(node[1])]
    if op == "var":
        return [num(0), num(1)]
    if op not in ("sum", "neg", "mul", "pow", "div") or (
            op == "div" and node[2][0] != "num"):
        return None
    kids = [expand(child, num) for child in node[1:] if isinstance(child, tuple)]
    return None if None in kids else _combine(node, ([c] for c in kids), num)[0]


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


def _intervals(points: list, lo: float = -math.inf, hi: float = math.inf):
    """The len(points) + 1 open intervals into which the sorted points cut
    (lo, hi), as (a, b, s) triples, s a float strictly inside or None."""
    edges = [lo, *points, hi]
    for a, b in zip(edges, edges[1:]):
        if a == -math.inf:
            s = 0.0 if b == math.inf else b - 1.0 - abs(b)
        elif b == math.inf:
            s = a + 1.0 + abs(a)
        else:
            s = 0.5 * a + 0.5 * b
        if not a < s < b:
            s = math.nextafter(a, b)
        yield a, b, (s if a < s < b else None)


def _spread(points: list, polys: list, finer: list) -> list:
    """polys, one per interval of points, on the intervals of finer, a
    sorted list that holds points."""
    ends = [-1, *(bisect_left(finer, p) for p in points), len(finer)]
    return list(chain.from_iterable(map(repeat, polys, map(sub, ends[1:], ends))))


def _cut(points: list, polys: list, more: list, other: list) -> tuple:
    """The merged points of two piecewise polynomials, (points, polys) and
    (more, other), and the real roots of p - q between them, with (s, p, q)
    on each interval of the cut, s a float inside it or None."""
    merged = sorted(set(points).union(more))
    polys, other = _spread(points, polys, merged), _spread(more, other, merged)
    roots = []
    for (a, b, s), p, q in zip(_intervals(merged), polys, other):
        c = _poly_add(p, _neg(q))
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if s is not None and len(c) > 1:  # the real roots inside
            roots += [w for w in real_roots(np.array(c[:-1]) / c[-1]).tolist()
                      if a < w < b]
    cut = sorted(set(merged + roots))
    return cut, zip((s for _, _, s in _intervals(cut)), _spread(merged, polys, cut),
                    _spread(merged, other, cut))


def pieces(node: tuple) -> tuple:
    """(points, polys) of node, a piecewise polynomial of column 0
    (moreaukit.parsing._degree) with ind only as a summand: its sorted
    breakpoints, and its float coefficients, lowest degree first, on each
    of the len(points) + 1 intervals between them.  abs cuts at the real
    roots of its argument, and min and max fold, cutting at those of the
    pick so far minus the next argument, also where the pick does not
    switch; each interval takes the first argument least (most) inside."""
    op, c = node[0], expand(node)
    if c is not None:  # one polynomial
        return [], [c]
    if op == "ind":
        points = sorted({node[1], node[2]})
        return points, [[0.0]] * (len(points) + 1)
    kids = [pieces(child) for child in node[1:] if isinstance(child, tuple)]
    points, polys = kids[0]
    if op == "abs":  # cut at the roots of p - 0, which are p's, bit for bit
        points, rows = _cut(points, polys, [], [[0.0]])
        return points, [p if s is None or _horner(p, s) >= 0 else _neg(p)
                        for s, p, _ in rows]
    if op in ("min", "max"):
        better = lt if op == "min" else gt
        for more, other in kids[1:]:
            points, rows = _cut(points, polys, more, other)
            polys = [q if s is not None and better(_horner(q, s), _horner(p, s)) else p
                     for s, p, q in rows]
        return points, polys
    points = sorted(set().union(*(k[0] for k in kids)))
    return points, _combine(node, (_spread(*k, points) for k in kids))


class ExactTerm:
    """The exact prox candidates of one per-axis term g, a piecewise
    polynomial on its box [lo, hi] (+inf outside), as a piece of a
    closed-form prox (functions._separable_prox): called with lam and the
    (m,) coordinates t, it returns their (m, k) candidates, NaN where one
    does not exist.

    They are the breakpoints of g in the box (pieces) and its ends, and on
    each piece between them, with polynomial p, the real roots there of
    Fermat's rule w + lam p'(w) - t = 0 (Rockafellar & Wets, Variational
    Analysis, Thm 10.1), which every proximal point inside solves, and x
    itself where x - lam p'(x) rounds to x.  The pieces are built with the
    term; one of degree <= 2 gives a linear equation.  Each row's
    candidates depend only on its own lam and t, in the same operations
    for a float lam and for a column.  A candidate whose distance term
    overflows is dropped; a row left with none raises, CertificateInvalid
    where it had none to drop."""

    def __init__(self, node: tuple, lo: float, hi: float):
        # the finite breakpoints; per equation degree e the ends a and b of
        # its pieces and the coefficients q of their p', lowest first: for
        # e = 1 the two lowest, for e >= 2 all over the last, which follows;
        # and every piece's ends and p', for the stay rule
        points, polys = pieces(node)
        fixed = sorted(set([p for p in points if lo <= p <= hi]
                           + [p for p in (lo, hi) if math.isfinite(p)]))
        groups: dict = {}
        spans = []
        for a, b, s in _intervals([p for p in fixed if lo < p < hi], lo, hi):
            if s is None:
                continue
            c = polys[bisect_right(points, s)]
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
            spans.append((a, b, dp))
        self.fixed = np.array(fixed)
        a, b, dp = zip(*spans) if spans else ((), (), ())
        D = np.zeros((len(dp), max(map(len, dp), default=0)))
        for row, d in zip(D, dp):
            row[:len(d)] = d
        self.spans = np.array(a, dtype=float), np.array(b, dtype=float), D
        self.groups = {e: tuple(np.array(v, dtype=float).T for v in zip(*rows))
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
            # x itself where x - lam p'(x) rounds to x on the piece that holds
            # x: the Fermat roots' coefficients grow as 1 / lam, and a root
            # ulps from x costs ulps^2 / (2 lam), more than f's rounding
            a, b, D = self.spans
            if len(a):
                k = np.minimum(np.searchsorted(b, t), len(b) - 1)
                dp = np.zeros(len(t))
                for coef in D[k].T[::-1]:
                    dp = dp * t + coef
                stay = (a[k] < t) & (t < b[k]) & (t - lam * dp == t)
                if stay.any():
                    cols.append(np.where(stay, t, math.nan)[:, None])
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
