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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    CertificateInvalid,
    DimensionMismatch,
    InvalidArgument,
    InvalidFunctionValue,
)

Array = np.ndarray


def as_point(x, dim: Optional[int] = None) -> Array:
    """Coerce x to a 1-D float64 array, optionally checking its length."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise InvalidArgument(f"point must be 1-D, got shape {p.shape}")
    if not np.isfinite(p).all():
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
    if not np.isfinite(P).all():
        raise InvalidArgument("point coordinates must be finite")
    return P


CERTIFICATE_SOURCES = ("catalog", "derived", "supplied", "sampled")
# how far below its bound a sampled value may lie before the certificate fails
_CERT_TOL = 1e-9


@dataclass
class ProxBoundCertificate:
    """Witness of the quadratic lower bound f >= alpha*||.-anchor||^2 + beta.

    source says where it came from: 'catalog' (a built-in function),
    'derived' (proven from a parsed expression), 'supplied' (given by the
    user) or 'sampled' (fitted by sampling).  verified is False until a
    certificate that is not proven passes sampled validation.
    """

    alpha: float
    beta: float
    anchor: Array
    verified: bool = True
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
    maps (lam, X) with X of shape (m, n) to candidate proximal points of
    shape (m, k, n) for the subproblems min_w f(w) + ||w - x||^2 / (2 lam),
    one per row x of X; rows of candidates that do not exist are NaN.

    terms, when known, is a tuple of dim per-axis callables, each mapping a
    1-D array to a 1-D array, with f(w) = sum_j terms[j](w_j): the structure
    of an additively separable f, which lets the grid oracle scan one axis
    at a time.  It is None when separability is not known.
    """

    dim: int
    evaluator: Callable[[Array], Array]
    certificate: ProxBoundCertificate
    closed_form_prox: Optional[Callable[[float, Array], Array]] = None
    known_minimizers: tuple = ()
    name: str = ""
    expr: Optional[str] = None
    terms: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgument("dimension must be >= 1")
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
        nan = np.isnan(vals)
        if nan.any():
            vals = np.where(nan, np.inf, vals)
        neg = vals == -np.inf
        if neg.any():
            raise InvalidFunctionValue(f"{self.name or 'function'} produced "
                                       f"-inf at {pts[int(np.argmax(neg))]}")
        return vals


def _row_sum(A: Array) -> Array:
    """Sum over the last (coordinate) axis, by adding its columns: with two
    coordinates this is several times faster than np.sum(A, axis=-1)."""
    out = A[..., 0].copy()
    for j in range(1, A.shape[-1]):
        out += A[..., j]
    return out


def _sq_norm(A: Array, center: Optional[Array] = None) -> Array:
    """Squared Euclidean norm over the last (coordinate) axis of A, or of
    A - center (center broadcasts against A).  Adds the squares column by
    column, so no temporary is as large as A."""
    out = None
    for j in range(A.shape[-1]):
        d = A[..., j] if center is None else A[..., j] - center[..., j]
        if out is None:
            out = d * d
        else:
            out += d * d
    return out


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
    the base's source and verified flag.  A separable f stays separable:
    its term j becomes g_j(t) - (sigma/2)(t - c_j)^2.
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
    elif gap == 0:
        alpha, beta, anchor = 0.0, cert.beta, a.copy()
    elif sigma > 0:
        alpha, beta, anchor = cert.alpha - sigma, cert.beta - sigma * gap, a.copy()
    else:
        alpha, beta, anchor = cert.alpha, cert.beta, a.copy()
    return FunctionSpec(
        dim=f.dim,
        evaluator=shifted,
        certificate=ProxBoundCertificate(alpha, beta, anchor,
                                         verified=cert.verified,
                                         source=cert.source),
        closed_form_prox=None,
        known_minimizers=(),
        name=f"shift({f.name or 'f'}, sigma={sigma})",
        expr=None,
        terms=None if f.terms is None else tuple(
            shifted_term(g, cj) for g, cj in zip(f.terms, c.tolist())),
    )


def validate_certificate(f: FunctionSpec, samples: int = 10_000,
                         box_radius: float = 10.0) -> float:
    """Sample the certificate inequality; return the worst margin.

    Margin is min over samples of f(x) - (alpha*||x-anchor||^2 + beta); a
    margin below -_CERT_TOL means the certificate is unsound.
    """
    cert = f.certificate
    rng = np.random.default_rng(0)
    pts = cert.anchor + rng.uniform(-box_radius, box_radius, size=(samples, f.dim))
    vals = f.batch(pts)
    bound = cert.alpha * _sq_norm(pts, cert.anchor) + cert.beta
    finite = vals < np.inf
    if not np.any(finite):
        return math.inf  # empty sampled domain: bound vacuously holds
    return float(np.min(vals[finite] - bound[finite]))


def ensure_certificate(f: FunctionSpec) -> None:
    """Re-validate an unverified certificate by sampling; raise if it fails."""
    if f.certificate.verified:
        return
    margin = validate_certificate(f)
    if margin < -_CERT_TOL:
        raise CertificateInvalid(
            f"certificate (alpha={f.certificate.alpha}, beta={f.certificate.beta}) "
            f"violated by sampling, worst margin {margin:.3e}"
        )
    f.certificate.verified = True


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def make_quadratic(a: float = 1.0, dim: int = 1) -> FunctionSpec:
    """a * ||x||^2 with a > 0."""
    if a <= 0:
        raise InvalidArgument("quadratic coefficient must be positive")

    def prox(lam, X):
        return (X / (1.0 + 2.0 * a * lam))[:, None, :]

    expr = None
    if dim == 1:
        expr = f"{a!r}*x1^2" if a != 1.0 else "x1^2"
    elif dim == 2:
        expr = f"{a!r}*(x1^2+x2^2)" if a != 1.0 else "x1^2+x2^2"
    return FunctionSpec(
        dim=dim,
        evaluator=lambda pts: a * _sq_norm(pts),
        certificate=ProxBoundCertificate(a, 0.0, np.zeros(dim), source="catalog"),
        closed_form_prox=prox,
        known_minimizers=(KnownMinimizer(np.zeros(dim), "strong", 2.0 * a, 1.0),),
        name=f"quadratic(a={a})" if a != 1.0 else "quadratic",
        expr=expr,
    )


def make_abs(dim: int = 1) -> FunctionSpec:
    """l1 norm; the absolute value for dim == 1."""

    def prox(lam, X):
        return _soft_threshold(X, lam)[:, None, :]

    expr = "abs(x1)" if dim == 1 else "+".join(f"abs(x{i+1})" for i in range(dim))
    return FunctionSpec(
        dim=dim,
        evaluator=lambda pts: _row_sum(np.abs(pts)),
        certificate=ProxBoundCertificate(0.0, 0.0, np.zeros(dim), source="catalog"),
        closed_form_prox=prox,
        known_minimizers=(KnownMinimizer(np.zeros(dim), "strong", 2.0, 1.0),),
        name="abs",
        expr=expr,
    )


def make_huber(delta: float = 1.0, dim: int = 1) -> FunctionSpec:
    """Componentwise Huber: t^2/2 for |t| <= delta, else delta*|t| - delta^2/2."""
    if delta <= 0:
        raise InvalidArgument("huber delta must be positive")

    def ev(pts):
        a = np.abs(pts)
        per = np.where(a <= delta, 0.5 * pts * pts, delta * a - 0.5 * delta * delta)
        return _row_sum(per)

    def prox(lam, X):
        # quadratic region shrinks by 1/(1+lam); linear region soft-shifts
        W = np.where(
            np.abs(X) <= delta * (1.0 + lam),
            X / (1.0 + lam),
            X - lam * delta * np.sign(X),
        )
        return W[:, None, :]

    return FunctionSpec(
        dim=dim,
        evaluator=ev,
        certificate=ProxBoundCertificate(0.0, 0.0, np.zeros(dim), source="catalog"),
        closed_form_prox=prox,
        known_minimizers=(KnownMinimizer(np.zeros(dim), "strong", 1.0, delta),),
        name=f"huber(delta={delta})" if delta != 1.0 else "huber",
        expr=None,
    )


def make_box(lo: float = 0.0, hi: float = 1.0, dim: int = 1) -> FunctionSpec:
    """Indicator of the closed box [lo, hi]^n (0 inside, +inf outside)."""
    if not lo < hi:
        raise InvalidArgument("box requires lo < hi")
    center = np.full(dim, 0.5 * (lo + hi))

    def ev(pts):
        inside = np.all((pts >= lo) & (pts <= hi), axis=-1)
        return np.where(inside, 0.0, np.inf)

    def prox(lam, X):
        return np.clip(X, lo, hi)[:, None, :]

    expr = f"ind({lo!r},{hi!r})"
    return FunctionSpec(
        dim=dim,
        evaluator=ev,
        certificate=ProxBoundCertificate(0.0, 0.0, center, source="catalog"),
        closed_form_prox=prox,
        known_minimizers=(KnownMinimizer(center, "local", 0.0, 0.4 * (hi - lo)),),
        name=f"box[{lo},{hi}]",
        expr=expr,
    )


def make_neg_quad(a: float = 0.5, dim: int = 1) -> FunctionSpec:
    """-a * ||x||^2 with a > 0; prox-bounded with finite threshold 1/(2a)."""
    if a <= 0:
        raise InvalidArgument("neg_quad coefficient must be positive")

    def prox(lam, X):
        # valid only below the threshold 1/(2a)
        return (X / (1.0 - 2.0 * a * lam))[:, None, :]

    expr = f"0-{a!r}*x1^2" if dim == 1 else None
    return FunctionSpec(
        dim=dim,
        evaluator=lambda pts: -a * _sq_norm(pts),
        certificate=ProxBoundCertificate(-a, 0.0, np.zeros(dim), source="catalog"),
        closed_form_prox=prox,
        known_minimizers=(),
        name=f"neg_quad(a={a})",
        expr=expr,
    )


def _soft_threshold(x: Array, lam: float) -> Array:
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def _minimal(W: Array, vals: Array) -> Array:
    """W where vals is within 1e-12 (relative) of its minimum over the last
    axis, NaN elsewhere."""
    best = np.fmin.reduce(vals, axis=-1, keepdims=True)
    return np.where(vals <= best + 1e-12 * np.maximum(1.0, np.abs(best)), W, np.nan)


def _double_well_prox_1d(lam: float, x: Array) -> Array:
    """Minimizers of (w^2-1)^2 + (w-x)^2/(2 lam) for every entry of x, shape
    x.shape + (3,) with NaN where a candidate is not a minimizer.

    The candidates are the real roots of 4 lam w^3 + (1 - 4 lam) w - x = 0,
    i.e. of w^3 + p w + q = 0, in closed form (Nickalls, Math. Gazette 77,
    1993): the trigonometric form where there are three real roots, else
    Cardano's formula arranged without cancellation."""
    p = (1.0 - 4.0 * lam) / (4.0 * lam)
    q = x / (-4.0 * lam)
    disc = 0.25 * q * q + p ** 3 / 27.0
    one = disc >= 0.0
    W = np.full(x.shape + (3,), np.nan)
    A = -np.copysign(np.cbrt(0.5 * np.abs(q) + np.sqrt(np.maximum(disc, 0.0))), q)
    W[..., 0] = A - p / (3.0 * np.where(A == 0.0, 1.0, A))
    if one.all():  # a single real root everywhere (always so for lam <= 1/4)
        return W
    m = math.sqrt(-p / 3.0)
    theta = np.arccos(np.clip(1.5 * q / (p * m), -1.0, 1.0)) / 3.0
    for k in range(3):
        trig = 2.0 * m * np.cos(theta - 2.0 * math.pi * k / 3.0)
        W[..., k] = np.where(one, W[..., k], trig)
    vals = (W * W - 1.0) ** 2 + (W - x[..., None]) ** 2 / (2.0 * lam)
    return _minimal(W, vals)


def make_double_well(dim: int = 1) -> FunctionSpec:
    """Separable sum of (t^2 - 1)^2 over the coordinates."""

    def ev(pts):
        return _row_sum((pts * pts - 1.0) ** 2)

    # candidate k of the product picks root combo[k, j] on axis j
    combo = np.indices((3,) * dim).reshape(dim, -1).T

    def prox(lam, X):
        return _double_well_prox_1d(lam, X)[:, np.arange(dim), combo]

    mins = []
    for signs in np.ndindex(*(2,) * dim):
        p = np.array([1.0 if s == 0 else -1.0 for s in signs])
        mins.append(KnownMinimizer(p, "strong", 6.0, 0.1))
    expr = "(x1^2-1)^2" if dim == 1 else None
    return FunctionSpec(
        dim=dim,
        evaluator=ev,
        certificate=ProxBoundCertificate(0.0, 0.0, np.zeros(dim), source="catalog"),
        closed_form_prox=prox,
        known_minimizers=tuple(mins),
        name="double_well",
        expr=expr,
    )


def make_piecewise() -> FunctionSpec:
    """min(x^2, (x-2)^2 + 0.5): global minimizer 0, nonglobal local minimizer 2."""

    def ev(pts):
        t = pts[..., 0]
        return np.minimum(t * t, (t - 2.0) ** 2 + 0.5)

    def prox(lam, X):
        t = X[:, :1]
        # the envelope of a pointwise min is the min of the branch envelopes,
        # so branch proxes are the only candidates
        W = np.concatenate([t, 4.0 * lam + t], axis=1) / (1.0 + 2.0 * lam)
        vals = ev(W[..., None]) + (W - t) ** 2 / (2.0 * lam)
        return _minimal(W, vals)[..., None]

    return FunctionSpec(
        dim=1,
        evaluator=ev,
        certificate=ProxBoundCertificate(0.0, 0.0, np.zeros(1), source="catalog"),
        closed_form_prox=prox,
        known_minimizers=(
            KnownMinimizer(np.array([0.0]), "strong", 2.0, 0.5),
            KnownMinimizer(np.array([2.0]), "strong", 2.0, 0.3),
        ),
        name="piecewise",
        expr="min(x1^2,(x1-2)^2+0.5)",
    )


def make_well_plus_abs_2d() -> FunctionSpec:
    """(x1^2-1)^2 + |x2|: a 2-D sum with strong minimizers at (+-1, 0)."""

    def ev(pts):
        return (pts[..., 0] ** 2 - 1.0) ** 2 + np.abs(pts[..., 1])

    def prox(lam, X):
        first = _double_well_prox_1d(lam, X[:, 0])
        second = np.broadcast_to(_soft_threshold(X[:, 1:], lam), first.shape)
        return np.stack([first, second], axis=-1)

    return FunctionSpec(
        dim=2,
        evaluator=ev,
        certificate=ProxBoundCertificate(0.0, 0.0, np.zeros(2), source="catalog"),
        closed_form_prox=prox,
        known_minimizers=(
            KnownMinimizer(np.array([1.0, 0.0]), "strong", 6.0, 0.1),
            KnownMinimizer(np.array([-1.0, 0.0]), "strong", 6.0, 0.1),
        ),
        name="well_plus_abs_2d",
        expr="(x1^2-1)^2+abs(x2)",
        terms=(lambda t: (t ** 2 - 1.0) ** 2, np.abs),
    )


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
