"""Extended-real-valued functions on R^n with quadratic lower-bound certificates.

A function is modeled by a vectorized evaluator mapping arrays of shape
(m, n) to values of shape (m,), where +inf marks points outside the
effective domain.  Every function carries a certificate (alpha, beta, anchor)
witnessing the lower bound

    f(x) >= alpha * ||x - anchor||^2 + beta    for all x,

which induces the threshold below which Moreau envelopes stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidFunctionValue

Array = np.ndarray


def _all_finite(A: Array) -> bool:
    """Whether every entry of A is finite: one ufunc reduce, without the
    Python-level wrapper of A.all(), which dominates on a few entries, and
    on one entry, as at a single-point solve, no numpy call at all."""
    if A.size == 1:
        return math.isfinite(A.item())
    return bool(np.logical_and.reduce(np.isfinite(A), axis=None))


def as_point(x, dim: Optional[int] = None) -> Array:
    """Coerce x to a 1-D float64 array, optionally checking its length."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise InvalidArgument(f"point must be 1-D, got shape {p.shape}")
    if not _all_finite(p):
        raise InvalidArgument(f"point coordinates must be finite: {p}")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


def as_points(X, dim: int) -> Array:
    """Coerce X to an (m, dim) float64 array of finite points."""
    P = np.asarray(X, dtype=float)
    if P.ndim != 2:
        raise InvalidArgument(f"points must form an (m, n) array, got shape {P.shape}")
    if P.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {P.shape[1]}")
    if not _all_finite(P):
        raise InvalidArgument("point coordinates must be finite")
    return P


CERTIFICATE_SOURCES = ("catalog", "derived", "supplied", "sampled")
# how far below its bound a sampled value may lie before the certificate
# fails, and the uniform samples of the box anchor +- _CERT_BOX_RADIUS that
# check it
_CERT_TOL = 1e-9
_CERT_SAMPLES = 10_000
_CERT_BOX_RADIUS = 10.0


@dataclass
class ProxBoundCertificate:
    """Witness of the quadratic lower bound f >= alpha*||.-anchor||^2 + beta.

    source says where it came from, and so what it claims: 'catalog' (a
    built-in function) and 'derived' (from a parsed expression) are proven;
    'supplied' (given by the user, the default) and 'sampled' (fitted by
    sampling) are hypotheses.  A definition file's certificate is checked
    by validate_certificate once, when the file is loaded; the solver never
    samples a certificate.
    """

    alpha: float
    beta: float
    anchor: Array
    source: str = "supplied"

    def __post_init__(self):
        self.anchor = as_point(self.anchor)
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InvalidArgument(
                f"certificate alpha and beta must be finite, got "
                f"alpha={self.alpha}, beta={self.beta}")
        if self.source not in CERTIFICATE_SOURCES:
            raise InvalidArgument(f"unknown certificate source {self.source!r}")

    @property
    def threshold(self) -> float:
        """Largest lambda (exclusive) for which the envelope is certified finite."""
        if self.alpha >= 0:
            return math.inf
        return -1.0 / (2.0 * self.alpha)


@dataclass(frozen=True)
class KnownMinimizer:
    point: Array
    kind: str  # "local" or "strong"
    modulus: float = 0.0
    epsilon: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "point", as_point(self.point))
        if self.kind not in ("local", "strong"):
            raise InvalidArgument(f"unknown minimizer kind {self.kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidArgument(
                f"minimizer epsilon must be finite and positive, got {self.epsilon}")
        if not (math.isfinite(self.modulus) and self.modulus >= 0):
            raise InvalidArgument(
                f"minimizer modulus must be finite and nonnegative, got {self.modulus}")
        if self.kind == "strong" and not self.modulus > 0:
            raise InvalidArgument("strong minimizer requires a positive modulus")


@dataclass
class FunctionSpec:
    """An extended-real-valued l.s.c. function on R^n.

    evaluator operates on arrays of shape (m, n) and returns shape (m,);
    +inf encodes points outside the domain.  closed_form_prox, when present,
    maps (lam, X) with X of shape (m, n), and lam a float or an (m,) array
    of one lam per row, to a list of one (m, k_j) array per axis j, NaN
    where a candidate does not exist: the coordinates of the candidates of
    min_w f(w) + ||w - x||^2 / (2 lam), one row per row x of X, whose
    product the solver combines, so f must be the sum of its terms, given,
    in two or more dimensions.  A solve raises InvalidArgument at the first
    x whose candidates are all NaN, but a lone candidate (every k_j = 1) is
    never read as padding.  The candidates must include every proximal
    point, and may include other points, such as stationary points: the
    solver keeps those whose objective value is within envelope.VALUE_TOL
    of the best.  A catalog entry's closed form is written by hand
    (_entry); parsing.parse_function gives one, exact, to a separable sum
    of piecewise polynomials, and none to any other expression.
    replace(f, closed_form_prox=None) is f's grid view, every solve of
    which takes the grid oracle.  expr is the expression f was parsed from,
    None for a function given by its evaluator alone.

    terms, when known, is a tuple of dim per-axis callables, each mapping a
    1-D array to a 1-D array, with f(w) = sum_j terms[j](w_j): the structure
    of an additively separable f, which lets the grid oracle scan one axis
    at a time.  It is None when separability is not known.  As in batch, a
    NaN term value is +inf, and terms that sum to -inf raise
    InvalidFunctionValue.

    grid_step, finite and positive, is the grid oracle's step in every solve
    of f and sets the cluster radius of its proximal points.  None, the
    default, becomes 1e-3 in 1-D and 1e-2 per axis otherwise, so grid_step
    is always a number: replace(f, grid_step=h) sets it, and
    replace(f, grid_step=None) restores the default.
    """

    dim: int
    evaluator: Callable[[Array], Array]
    certificate: ProxBoundCertificate
    closed_form_prox: Optional[Callable[[float, Array], list]] = None
    known_minimizers: tuple = ()
    name: str = ""
    expr: Optional[str] = None
    terms: Optional[tuple] = None
    grid_step: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgument("dimension must be >= 1")
        if self.dim > 1 and self.closed_form_prox is not None and self.terms is None:
            raise InvalidArgument("a closed form in two or more dimensions needs terms")
        if self.grid_step is None:
            self.grid_step = 1e-3 if self.dim == 1 else 1e-2
        h = self.grid_step
        if not (math.isfinite(h) and h > 0):
            raise InvalidArgument(f"grid_step must be finite and positive, got {h}")
        self.certificate.anchor = as_point(self.certificate.anchor, self.dim)
        self.known_minimizers = tuple(self.known_minimizers)

    def __call__(self, x):
        """The values of batch at one point (a float) or at the rows of an
        (m, n) array (shape (m,))."""
        single = np.ndim(x) <= 1
        pts = as_point(x, self.dim)[None, :] if single else as_points(x, self.dim)
        vals = self.batch(pts)
        return float(vals[0]) if single else vals

    def batch(self, pts: Array) -> Array:
        """Evaluate at an (m, n) array.  NaN means outside the domain and is
        mapped to +inf; -inf raises InvalidFunctionValue."""
        vals = np.asarray(self.evaluator(pts), dtype=float)
        if _all_finite(vals):
            return vals
        nan = np.isnan(vals)
        if np.logical_or.reduce(nan, axis=None):
            vals = np.where(nan, np.inf, vals)
        neg = vals == -np.inf
        if np.logical_or.reduce(neg, axis=None):
            raise InvalidFunctionValue(f"{self.name or 'function'} produced "
                                       f"-inf at {pts[int(np.argmax(neg))]}")
        return vals


def _sq_norm(A: Array, center: Array) -> Array:
    """Squared Euclidean norm over the last (coordinate) axis of A - center
    (center broadcasts against A).  Adds the squares column by column, so
    no temporary is as large as A."""
    out = None
    for j in range(A.shape[-1]):
        d = A[..., j] - center[..., j]
        if out is None:
            out = d * d
        else:
            out += d * d
    return out


def _norms(V: Array) -> Array:
    """||v|| for each point v along the last axis of V, the package's one
    distance: |v| in 1-D, else sqrt(v . v) by matmul, as np.linalg.norm rounds
    one point, or 2^e ||v 2^-e|| where v . v is not a normal float (Blue 1978)."""
    if V.shape[-1] == 1:
        return np.abs(V[..., 0])
    with np.errstate(over="ignore"):
        s = (V[..., None, :] @ V[..., :, None])[..., 0, 0]
        # one point, as at a single-point solve, is tested with no numpy call
        if (2.0 ** -1022 <= s.item() < math.inf if s.size == 1 else np.logical_and.reduce(
                (s >= 2.0 ** -1022) & (s < math.inf), axis=None)):
            return np.sqrt(s)
        out, bad = np.array(np.sqrt(s)), ~((s >= 2.0 ** -1022) & (s < math.inf))
        e = np.frexp(np.maximum.reduce(np.abs(V[bad]), axis=-1))[1]
        W = np.ldexp(V[bad], -e[:, None])  # its largest |w_j| in [1/2, 1)
        out[bad] = np.ldexp(np.sqrt((W[:, None, :] @ W[:, :, None])[:, 0, 0]), e)
        return out


@np.errstate(over="ignore")  # a square past the largest double is +inf
def _objective(f: FunctionSpec, lam, x: Array, W: Array) -> Array:
    """f(w) + ||w - x||^2 / (2 lam) at the points w along the last axis of
    W, shape W.shape[:-1]; x broadcasts against W, and lam, a float or an
    array such as one lam per row, against W.shape[:-1]."""
    vals = f.batch(W.reshape(-1, W.shape[-1])).reshape(W.shape[:-1])
    return vals + _sq_norm(W, x) / (2.0 * lam)


def axis_product(axes) -> Array:
    """Every point of the tensor product axes[0] x ... x axes[n-1], as rows
    in C (ij) order: of axis vectors, the (prod k_j, n) points of their
    grid; of per-row axes, (m, k_j) arrays, the (m, prod k_j, n) points of
    each row's own product, such as the closed-form candidates of a
    separable function built from the candidates of each axis.  Only the
    factors with more than one value get an axis of their own while it is
    built, and a one-value factor broadcasts over the rest, so a product of
    many one-value factors stays within numpy's 64 axes."""
    dim = len(axes)
    lead = axes[0].shape[:-1]
    sizes = [a.shape[-1] for a in axes]
    out = np.empty(lead + tuple(k for k in sizes if k != 1) + (dim,))
    for j, a in enumerate(axes):
        out[..., j] = a.reshape(lead + tuple(
            k if i == j else 1 for i, k in enumerate(sizes) if k != 1))
    return out.reshape(lead + (-1, dim))


@dataclass(frozen=True)
class QuadShift:
    """Parameters of the quadratic shift f(x) - (sigma/2)*||x - center||^2."""

    sigma: float
    center: Array

    def __post_init__(self):
        if self.sigma == 0:
            raise InvalidArgument("shift requires sigma != 0")
        object.__setattr__(self, "center", as_point(self.center))


def quad_shift(f: FunctionSpec, s: QuadShift) -> FunctionSpec:
    """Subtract the quadratic (sigma/2)*||x - center||^2 from f.

    The certificate is shifted exactly by completing the square: with
    k = alpha - sigma/2 != 0,

        alpha||x-a||^2 - (sigma/2)||x-c||^2
            = k||x-m||^2 + (alpha(-sigma/2)/k)||a-c||^2,
        m = (alpha a - (sigma/2) c)/k,

    so (k, beta + alpha(-sigma/2)/k * ||a-c||^2, m) is the new witness.  When
    k == 0 the quadratic parts cancel and no square exists.  If c == a the
    remainder is the constant beta, so (0, beta, a) is exact; otherwise it is a
    nonconstant affine function, which no alpha = 0 witness bounds.  Then, for
    sigma > 0, ||x-c||^2 <= 2||x-a||^2 + 2||a-c||^2 gives (alpha - sigma,
    beta - sigma*||a-c||^2, a), and for sigma < 0 the shift only adds a
    nonnegative term, so the certificate is kept.  The new certificate keeps
    the base's source, and the shift keeps f's grid step.  A separable f
    stays separable: its term j becomes g_j(t) - (sigma/2)(t - c_j)^2.
    """
    c = as_point(s.center, f.dim)
    sigma = s.sigma
    base = f.evaluator

    def shifted(pts: Array) -> Array:
        return base(pts) - 0.5 * sigma * _sq_norm(pts, c)

    def shifted_term(g: Callable[[Array], Array], cj: float) -> Callable:
        return lambda t: g(t) - 0.5 * sigma * (t - cj) ** 2

    cert = f.certificate
    a, q = cert.anchor, -0.5 * sigma
    gap = float(np.sum((a - c) ** 2))
    k = cert.alpha + q
    if k != 0:
        alpha, beta = k, cert.beta + cert.alpha * q / k * gap
        anchor = (cert.alpha * a + q * c) / k
    elif np.array_equal(a, c):  # not gap == 0: (a - c)^2 can underflow
        alpha, beta, anchor = 0.0, cert.beta, a.copy()
    elif sigma > 0:
        alpha, beta, anchor = cert.alpha - sigma, cert.beta - sigma * gap, a.copy()
    else:
        alpha, beta, anchor = cert.alpha, cert.beta, a.copy()
    return FunctionSpec(
        dim=f.dim,
        evaluator=shifted,
        certificate=ProxBoundCertificate(alpha, beta, anchor,
                                         source=cert.source),
        closed_form_prox=None,
        known_minimizers=(),
        name=f"shift({f.name or 'f'}, sigma={sigma})",
        expr=None,
        terms=None if f.terms is None else tuple(
            shifted_term(g, cj) for g, cj in zip(f.terms, c.tolist())),
        grid_step=f.grid_step,
    )


def validate_certificate(f: FunctionSpec) -> float:
    """Sample the certificate inequality; return the worst margin.

    Margin is min over _CERT_SAMPLES points of the box anchor +-
    _CERT_BOX_RADIUS of f(x) - (alpha*||x-anchor||^2 + beta); a margin below
    -_CERT_TOL means the certificate is unsound.
    """
    cert = f.certificate
    rng = np.random.default_rng(0)
    pts = cert.anchor + rng.uniform(-_CERT_BOX_RADIUS, _CERT_BOX_RADIUS,
                                    size=(_CERT_SAMPLES, f.dim))
    vals = f.batch(pts)
    bound = cert.alpha * _sq_norm(pts, cert.anchor) + cert.beta
    finite = vals < np.inf
    if not np.any(finite):
        return math.inf  # empty sampled domain: bound vacuously holds
    return float(np.min(vals[finite] - bound[finite]))


# ---------------------------------------------------------------------------
# catalog: each entry is an expression of the grammar of moreaukit.parsing
# with its catalog certificate, closed-form prox and known minimizers
# ---------------------------------------------------------------------------

def _entry(expr: str, dim: int, certificate: ProxBoundCertificate,
           pieces: tuple, known_minimizers: tuple, name: str) -> FunctionSpec:
    """The parsed expr with the given certificate and the closed-form prox
    of its hand-written pieces, one per axis (_separable_prox), which
    replaces any exact prox that parsing gives the expression."""
    from .parsing import parse_function  # parsing imports this module
    f = parse_function(expr, dim, certificate=certificate,
                       known_minimizers=known_minimizers, name=name)
    return replace(f, closed_form_prox=_separable_prox(pieces))


def _separable_prox(pieces) -> Callable:
    """The closed-form prox of one piece per axis, pieces[j](lam, t) the
    (m, k_j) candidates of the (m,) coordinates t of axis j."""
    return lambda lam, X: [g(lam, X[:, j]) for j, g in enumerate(pieces)]


def _coordinate_sum(term: str, dim: int) -> str:
    """The expression sum_j term(x_j), term written with {} for x_j."""
    return "+".join(term.format(f"x{j + 1}") for j in range(dim))


def _catalog_certificate(alpha: float, anchor) -> ProxBoundCertificate:
    return ProxBoundCertificate(alpha, 0.0, anchor, source="catalog")


def make_quadratic(a: float = 1.0, dim: int = 1) -> FunctionSpec:
    """a * ||x||^2 with a > 0."""
    if a <= 0:
        raise InvalidArgument("quadratic coefficient must be positive")

    def piece(lam, t):
        return (t / (1.0 + 2.0 * a * lam))[:, None]

    return _entry(_coordinate_sum(f"{float(a)!r}*{{}}^2", dim), dim,
                  _catalog_certificate(a, np.zeros(dim)), (piece,) * dim,
                  (KnownMinimizer(np.zeros(dim), "strong", 2.0 * a, 1.0),),
                  f"quadratic(a={a})" if a != 1.0 else "quadratic")


def make_abs(dim: int = 1) -> FunctionSpec:
    """l1 norm; the absolute value for dim == 1."""
    return _entry(_coordinate_sum("abs({})", dim), dim,
                  _catalog_certificate(0.0, np.zeros(dim)),
                  (_soft_threshold,) * dim,
                  (KnownMinimizer(np.zeros(dim), "strong", 2.0, 1.0),), "abs")


def make_huber(delta: float = 1.0, dim: int = 1) -> FunctionSpec:
    """Componentwise Huber: t^2/2 for |t| <= delta, else delta*|t| - delta^2/2,
    written c|t| - c^2/2 with c = min(|t|, delta), which rounds as the two
    branches do."""
    if delta <= 0:
        raise InvalidArgument("huber delta must be positive")

    def piece(lam, t):
        # quadratic region shrinks by 1/(1+lam); linear region soft-shifts
        return np.where(np.abs(t) <= delta * (1.0 + lam), t / (1.0 + lam),
                        t - lam * delta * np.sign(t))[:, None]

    c = "min(abs({0}),%r)" % float(delta)
    return _entry(_coordinate_sum(f"({c}*abs({{0}})-{c}^2/2)", dim), dim,
                  _catalog_certificate(0.0, np.zeros(dim)), (piece,) * dim,
                  (KnownMinimizer(np.zeros(dim), "strong", 1.0, delta),),
                  f"huber(delta={delta})" if delta != 1.0 else "huber")


def make_box(lo: float = 0.0, hi: float = 1.0, dim: int = 1) -> FunctionSpec:
    """Indicator of the closed box [lo, hi]^n (0 inside, +inf outside)."""
    if not lo < hi:
        raise InvalidArgument("box requires lo < hi")
    center = np.full(dim, 0.5 * (lo + hi))

    def piece(lam, t):
        return np.clip(t, lo, hi)[:, None]

    return _entry(f"ind({float(lo)!r},{float(hi)!r})", dim,
                  _catalog_certificate(0.0, center), (piece,) * dim,
                  (KnownMinimizer(center, "local", 0.0, 0.4 * (hi - lo)),),
                  f"box[{lo},{hi}]")


def make_neg_quad(a: float = 0.5, dim: int = 1) -> FunctionSpec:
    """-a * ||x||^2 with a > 0; prox-bounded with finite threshold 1/(2a)."""
    if a <= 0:
        raise InvalidArgument("neg_quad coefficient must be positive")

    def piece(lam, t):
        # valid only below the threshold 1/(2a)
        return (t / (1.0 - 2.0 * a * lam))[:, None]

    return _entry(_coordinate_sum(f"-{float(a)!r}*{{}}^2", dim), dim,
                  _catalog_certificate(-a, np.zeros(dim)), (piece,) * dim, (),
                  f"neg_quad(a={a})")


def _soft_threshold(lam, t: Array) -> Array:
    """The prox of |.| at every entry of t, shape t.shape + (1,)."""
    return (np.sign(t) * np.maximum(np.abs(t) - lam, 0.0))[..., None]


def _double_well_prox_1d(lam, x: Array) -> Array:
    """Stationary points of (w^2-1)^2 + (w-x)^2/(2 lam) for every entry of x,
    with lam a float or one per entry: shape x.shape + (1,) where every entry
    has one, as for every lam <= 1/4, else x.shape + (3,) with NaN where a
    candidate does not exist.

    They are the real roots of 4 lam w^3 + (1 - 4 lam) w - x = 0, i.e. of
    w^3 + p w + q = 0, in closed form (Nickalls, Math. Gazette 77, 1993)
    without cancellation: for p >= 0 Vieta's form of Cardano's A - p / (3 A),
    A^3 = |q|/2 + hypot(|q|/2, (p/3)^1.5), else that or the trigonometric.
    Where |q| >= 2^510, and q * q or q could overflow, or where p = 0 and q
    is subnormal, so that |q| / 2 could round to 0, they are 2^e times those
    for q 2^-3e ~ 1 and p 2^-2e; the others keep their bits.  Where 4 lam
    overflows, from lam = 2^1022 on, q is -x / 4 / lam."""
    # (1 - 4 lam) / (4 lam) bit for bit, and finite where 4 lam is not
    p, e = (0.25 - lam) / lam, None
    t = abs(x.item()) if x.size == 1 else np.abs(x)  # one entry with no numpy call
    far = ((t * 2.0 ** -512 >= lam)
           | ((p == 0.0) & (0.0 < t) & (t < 2.0 ** -1018 * lam)))
    if far is True or far is not False and far.any():
        e = np.where(far, (np.frexp(x)[1] - np.frexp(lam)[1] - 2) // 3, 0)
        p = np.ldexp(p, -2 * e)
    xs = x if e is None else np.ldexp(x, -3 * e)
    huge = lam >= 2.0 ** 1022
    if huge is False or not np.any(huge):
        q = xs / (-4.0 * lam)
    else:
        q = np.where(huge, -0.25 * xs / lam, xs / (-4.0 * np.where(huge, 1.0, lam)))
    low = p >= 0.0
    if low is not False:  # a float lam <= 1/4, or a column
        with np.errstate(over="ignore", invalid="ignore"):
            # x itself where x - lam g'(x) rounds to x, exact as 1 / (2 lam)
            # needs, as at a tiny lam; only such rows meet 0 / 0 (x = 0, lam
            # = 1/4) or, but for astronomical x, an overflow (lam < 3e-207).
            # Where x * x overflows, x never stays
            stay = low & (x - 4.0 * lam * x * (x * x - 1.0) == x)
            s, u = abs(p) / 3.0, 0.5 * np.abs(q)
            A = np.cbrt(u + np.hypot(u, s * np.sqrt(s)))
            v = -q / (A * A + s + (s / A) ** 2)
            v = np.where(stay, x, v if e is None else np.ldexp(v, e))
        if low is True:
            return v[..., None]
        q = np.where(low, 0.0, q)  # the forms below are the other rows'
    # a float's p ** 3 for each lam of a column: numpy's vector pow may round
    # it differently, and each row must get the bits of its own solve
    cube = p ** 3 if isinstance(p, float) else np.array(
        [min(t, 0.0) ** 3 for t in p.tolist()])
    disc = 0.25 * q * q + cube / 27.0
    # one real root where disc > 0 or p >= 0; where disc == 0 with p < 0, a
    # double root joins it, which the trigonometric form gives too
    one = (disc > 0.0) | low
    A = -np.copysign(np.cbrt(0.5 * np.abs(q) + np.sqrt(np.maximum(disc, 0.0))), q)
    w = A - p / (3.0 * np.where(A == 0.0, 1.0, A))
    w = w if e is None else np.ldexp(w, e)
    w = w if low is False else np.where(low, v, w)
    if np.logical_and.reduce(one, axis=None):
        return w[..., None]
    W = np.full(x.shape + (3,), np.nan)
    W[..., 0] = w
    # NaN on the rows of a lam column with one root, which keep W
    with np.errstate(invalid="ignore", divide="ignore"):
        m = np.sqrt(-p / 3.0)
        theta = np.arccos(np.clip(1.5 * q / (p * m), -1.0, 1.0)) / 3.0
    for k in range(3):
        trig = 2.0 * m * np.cos(theta - 2.0 * math.pi * k / 3.0)
        W[..., k] = np.where(one, W[..., k], trig)
    return W


def make_double_well(dim: int = 1) -> FunctionSpec:
    """Separable sum of (t^2 - 1)^2 over the coordinates."""
    mins = tuple(KnownMinimizer(p, "strong", 6.0, 0.1)
                 for p in axis_product([np.array([1.0, -1.0])] * dim))
    return _entry(_coordinate_sum("({}^2-1)^2", dim), dim,
                  _catalog_certificate(0.0, np.zeros(dim)),
                  (_double_well_prox_1d,) * dim, mins, "double_well")


def make_piecewise() -> FunctionSpec:
    """min(x^2, (x-2)^2 + 0.5): global minimizer 0, nonglobal local minimizer 2."""

    def piece(lam, t):
        # the envelope of a pointwise min is the min of the branch envelopes,
        # so branch proxes are the only candidates
        return (np.array([t, 4.0 * lam + t]) / (1.0 + 2.0 * lam)).T

    return _entry("min(x1^2,(x1-2)^2+0.5)", 1,
                  _catalog_certificate(0.0, np.zeros(1)), (piece,),
                  (KnownMinimizer(np.array([0.0]), "strong", 2.0, 0.5),
                   KnownMinimizer(np.array([2.0]), "strong", 2.0, 0.3)),
                  "piecewise")


def make_well_plus_abs_2d() -> FunctionSpec:
    """(x1^2-1)^2 + |x2|: a 2-D sum with strong minimizers at (+-1, 0)."""
    return _entry("(x1^2-1)^2+abs(x2)", 2,
                  _catalog_certificate(0.0, np.zeros(2)),
                  (_double_well_prox_1d, _soft_threshold),
                  (KnownMinimizer(np.array([1.0, 0.0]), "strong", 6.0, 0.1),
                   KnownMinimizer(np.array([-1.0, 0.0]), "strong", 6.0, 0.1)),
                  "well_plus_abs_2d")


CATALOG: dict[str, Callable[..., FunctionSpec]] = {
    "quadratic": make_quadratic,
    "abs": make_abs,
    "huber": make_huber,
    "box": make_box,
    "neg_quad": make_neg_quad,
    "double_well": make_double_well,
    "piecewise": make_piecewise,
    "well_plus_abs_2d": make_well_plus_abs_2d,
}


def catalog_function(name: str, **params) -> FunctionSpec:
    """Instantiate a catalog entry by name, e.g. catalog_function('huber', delta=2)."""
    try:
        factory = CATALOG[name]
    except KeyError:
        raise InvalidArgument(
            f"unknown catalog function {name!r}; available: {sorted(CATALOG)}"
        ) from None
    return factory(**params)
