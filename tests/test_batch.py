"""Properties of the batched prox solver and of the checks that call it."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from moreaukit import (
    FunctionSpec,
    ProxBatch,
    ProxBoundCertificate,
    QuadShift,
    catalog_function,
    check_min_transfer,
    estimate_strong_modulus,
    parse_function,
    prox_batch,
    prox_map,
    quad_shift,
    search_radius,
    verify_local_min,
)
from moreaukit import envelope, functions, refine
from moreaukit.errors import (
    InvalidArgument,
    InvalidFunctionValue,
    MoreauKitError,
    NoFeasiblePoint,
)

from conftest import (
    brute_argmin_1d,
    brute_envelope_1d,
    brute_envelope_2d,
    grid_view,
    run_python,
)
from test_parsing import _expressions

CATALOG_1D = ("quadratic", "abs", "huber", "box", "neg_quad", "double_well",
              "piecewise")

coord = st.floats(-3.0, 3.0, allow_nan=False)
_EPS = np.finfo(float).eps


def points(dim: int, min_size: int = 1, max_size: int = 6):
    return st.lists(st.lists(coord, min_size=dim, max_size=dim),
                    min_size=min_size, max_size=max_size)


def _lam(f, frac: float) -> float:
    return frac * min(1.0, f.certificate.threshold)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(CATALOG_1D + ("well_plus_abs_2d", "separable")),
       frac=st.floats(0.05, 0.95), grid=st.booleans(), small=st.booleans(),
       chunk=st.integers(50, 1000), data=st.data())
def test_batch_rows_match_single_solves(name, frac, grid, small, chunk, data):
    # an answer depends on its own x only: any batch, in any order, gives
    # each row what prox_map gives that point alone, on either oracle.  The
    # separable draws are grid views of separable 2-D catalog functions or
    # of their quad_shifts, at points up to 8 times farther out, so that
    # the rows' grids differ several-fold in length; with small, the batch
    # scans its per-axis grids in chunks of chunk slots, so that it spans
    # several chunks and a row is longer than a chunk
    if name == "separable":
        f, grid = data.draw(catalog_or_shift(2)), True
    else:
        f = catalog_function(name)
    if grid:
        f = grid_view(f)
    lam = _lam(f, frac)
    X = np.array(data.draw(points(f.dim, max_size=3 if grid else 8)))
    if name == "separable":
        X *= np.array(data.draw(st.lists(st.sampled_from([1.0, 8.0]),
                                         min_size=len(X), max_size=len(X))))[:, None]
    order = data.draw(st.permutations(range(len(X))))
    with pytest.MonkeyPatch.context() as mp:
        if small:
            mp.setattr(envelope, "_AXIS_CHUNK", chunk)
        batch = prox_batch(f, lam, X[order])
    for i, res in zip(order, batch):
        single = prox_map(f, lam, X[i])
        assert res.envelope_value == single.envelope_value
        assert res.radius_used == single.radius_used
        assert len(res.minimizers) == len(single.minimizers)
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.minimizers, single.minimizers))


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _check_columns(batch, m: int, dim: int) -> None:
    """The ProxBatch invariants: columns of length m, CSR offsets from 0 to
    len(points), and row views equal to the columns."""
    assert len(batch) == m
    assert batch.value.shape == batch.diverged.shape == batch.radius.shape == (m,)
    assert batch.points.ndim == 2 and batch.points.shape[1] == dim
    assert batch.offsets.shape == (m + 1,) and batch.offsets[0] == 0
    assert (np.diff(batch.offsets) >= 0).all()
    assert batch.offsets[-1] == len(batch.points)
    for i, res in enumerate(batch):
        for view in (res, batch[i], batch[i - m]):
            assert _same_float(view.envelope_value, batch.value[i])
            assert view.diverged == batch.diverged[i]
            assert view.radius_used == batch.radius[i]
            pts = batch.points[batch.offsets[i]:batch.offsets[i + 1]]
            assert len(view.minimizers) == len(pts)
            assert all(np.array_equal(a, b) for a, b in zip(view.minimizers, pts))
        assert not (res.diverged and res.minimizers)


# lam as a fraction of min(1, threshold); the fixed ones repeat, so a closed
# form meets several rows of one lam
lam_frac = st.sampled_from([0.1, 0.45]) | st.floats(0.05, 0.95)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(CATALOG_1D + ("well_plus_abs_2d",)),
       grid=st.booleans(), data=st.data())
def test_a_lambda_per_row_gives_each_row_its_single_solve(name, grid, data):
    # each row of a batch with a lam per row is prox_map at its own lam and
    # x, bit for bit, in any row order; neg_quad (threshold 1) also gets
    # rows at and above its threshold, which take the divergence scan
    f = catalog_function(name)
    if grid:
        f = grid_view(f)
    X = np.array(data.draw(points(f.dim, max_size=3 if grid else 8)))
    frac = lam_frac
    if name == "neg_quad":
        frac = frac | st.sampled_from([1.0, 1.5])
    lams = np.array([_lam(f, data.draw(frac)) for _ in X])
    order = data.draw(st.permutations(range(len(X))))
    batch = prox_batch(f, lams[order], X[order])
    _check_columns(batch, len(X), f.dim)
    for i, res in zip(order, batch):
        single = prox_map(f, lams[i], X[i])
        assert _same_float(res.envelope_value, single.envelope_value)
        assert res.diverged == single.diverged
        assert res.radius_used == single.radius_used
        assert len(res.minimizers) == len(single.minimizers)
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.minimizers, single.minimizers))


@pytest.mark.parametrize("expr, dim, lams, X", [
    ("neg_quad", 1, [0.5, 1.5, 0.3, 1.0], [[1.0], [2.0], [0.5], [0.0]]),
    ("x1^4-x1^2", 1, [0.05, 0.6, 0.07], [[0.3], [0.0], [-1.2]]),
    ("neg_quad", 2, [0.5, 1.5, 0.2], [[1.0, 0.0], [0.5, -0.5], [2.0, 1.0]]),
])
def test_a_batch_of_closed_form_and_scanned_rows_is_each_rows_single_solve(
        expr, dim, lams, X):
    # rows below the threshold take the closed form, the others the
    # divergence scan, and the two parts are gathered back into row order
    if expr == "neg_quad":
        f = catalog_function(expr, dim=dim)
    else:
        f = parse_function(expr, dim)
    lams, X = np.array(lams), np.array(X)
    closed = lams < f.certificate.threshold
    assert f.closed_form_prox is not None and closed.any() and not closed.all()
    batch = prox_batch(f, lams, X)
    _check_columns(batch, len(X), dim)
    for lam, x, res in zip(lams, X, batch):
        single = prox_map(f, lam, x)
        assert np.float64(res.envelope_value).tobytes() == \
            np.float64(single.envelope_value).tobytes()
        assert res.diverged == single.diverged
        assert res.radius_used == single.radius_used
        assert [p.tobytes() for p in res.minimizers] == \
            [p.tobytes() for p in single.minimizers]


@pytest.mark.parametrize("lam", [[0.5, 0.5], [0.5], [[0.5]], [0.5, -1.0, 0.5],
                                 [0.5, math.nan, 0.5]])
def test_a_lambda_column_needs_one_positive_lambda_per_row(lam):
    X = np.zeros((3, 1))
    with pytest.raises(InvalidArgument, match="lambda"):
        prox_batch(catalog_function("abs"), lam, X)


def test_a_lambda_column_with_an_infinite_lambda_is_rejected():
    X = np.zeros((3, 1))
    for f in (catalog_function("double_well"), grid_view(catalog_function("abs"))):
        with pytest.raises(InvalidArgument, match="positive and finite"):
            prox_batch(f, [0.5, math.inf, 0.5], X)


def _roots_reference(lam: float, x: float) -> list:
    """Stationary points of (w^2-1)^2 + (w-x)^2/(2 lam): the real roots,
    from np.roots, of the cubic 4 lam w^3 + (1 - 4 lam) w - x = 0."""
    roots = np.roots([4.0 * lam, 0.0, 1.0 - 4.0 * lam, -x])
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)


def _distinct(ws, tol: float = 1e-7) -> list:
    out: list = []
    for w in sorted(ws):
        if not out or w - out[-1] > tol:
            out.append(w)
    return out


def _check_double_well(lam: float, xs: list) -> None:
    f = catalog_function("double_well")
    [cands] = f.closed_form_prox(lam, np.array(xs)[:, None])
    assert cands.shape[0] == len(xs)
    for x, c in zip(xs, cands):
        got = _distinct(c[~np.isnan(c)].tolist())
        ref = _distinct(_roots_reference(lam, x))
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            # np.roots finds a double root, where the cubic's slope
            # 12 lam w^2 + 1 - 4 lam vanishes, only to about sqrt(eps)
            double = abs(12.0 * lam * r * r + 1.0 - 4.0 * lam) < 1e-5
            assert abs(g - r) <= (1e-6 if double else 1e-9)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.01, 3.0), xs=st.lists(coord, min_size=1, max_size=10))
@example(lam=1.0, xs=[1.0, -1.0])  # zero discriminant: (w-1)(2w+1)^2 = 0
@example(lam=0.25, xs=[0.0])  # a triple root at 0
def test_double_well_closed_form_matches_np_roots(lam, xs):
    _check_double_well(lam, xs)


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.26, 3.0), x=st.floats(-0.2, 0.2))
def test_double_well_three_root_regime(lam, x):
    # lam > 1/4: the cubic has three real roots near x = 0
    assume(4.0 * ((1 - 4 * lam) / (4 * lam)) ** 3 + 27.0 * (x / (4 * lam)) ** 2 < 0)
    _check_double_well(lam, [x])


@pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 2.5])
def test_double_well_tie_at_zero(lam):
    # at x = 0 the two outer roots +-sqrt(1 - 1/(4 lam)) tie
    f = catalog_function("double_well")
    res = prox_map(f, lam, [0.0])
    pts = sorted(float(p[0]) for p in res.minimizers)
    assert len(pts) == 2
    assert pts == pytest.approx([-math.sqrt(1 - 0.25 / lam),
                                 math.sqrt(1 - 0.25 / lam)], abs=1e-12)
    _check_double_well(lam, [0.0])


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(CATALOG_1D), frac=st.floats(0.05, 0.95),
       xs=st.lists(coord, min_size=1, max_size=4))
def test_grid_batch_matches_brute_force_1d(name, frac, xs):
    # criterion 08's envelope budget, against the independent dense scan;
    # its window covers neg_quad's prox x/(1 - lam), up to 60 here
    f = catalog_function(name)
    lam = _lam(f, frac)
    tol = 100.0 * f.grid_step ** 2 + 1e-9
    for x, res in zip(xs, prox_batch(grid_view(f), lam, np.array(xs)[:, None])):
        ref = brute_envelope_1d(f, lam, x, lo=-80.0, hi=80.0)
        assert abs(res.envelope_value - ref) <= tol


@settings(max_examples=6, deadline=None)
@given(frac=st.floats(0.05, 0.95), X=points(2, max_size=3))
def test_grid_batch_matches_brute_force_2d(frac, X):
    f = catalog_function("well_plus_abs_2d")
    lam = _lam(f, frac)
    tol = 100.0 * f.grid_step ** 2 + 1e-9
    for x, res in zip(X, prox_batch(grid_view(f), lam, np.array(X))):
        assert abs(res.envelope_value - brute_envelope_2d(f, lam, x)) <= tol


def _row_scan_view(f: FunctionSpec) -> FunctionSpec:
    """The grid view of f that scans whole rows, not one axis at a time."""
    return dataclasses.replace(grid_view(f), terms=None)


def test_evaluator_calls_stay_under_the_grid_cap():
    # a far point gives a certified radius whose 2-D grid is coarsened
    f = _row_scan_view(catalog_function("abs", dim=2))
    rows = []
    inner = f.evaluator
    f.evaluator = lambda P: rows.append(len(P)) or inner(P)
    res = prox_map(f, 1.0, [30.0, -30.0])
    assert max(rows) <= 4_000_000
    assert max(rows) > 3_000_000  # the cap was reached
    assert res.envelope_value == pytest.approx(59.0, abs=1e-6)


def test_coarsened_grid_logs_a_warning(caplog):
    f = _row_scan_view(catalog_function("abs", dim=2))
    x = np.array([30.0, -30.0])
    R = search_radius(f, 1.0, x)
    with caplog.at_level(logging.WARNING, logger="moreaukit.envelope"):
        prox_map(f, 1.0, [0.5, 0.5])
        assert caplog.records == []
        prox_map(f, 1.0, x)
    [rec] = caplog.records
    assert rec.name == "moreaukit.envelope" and rec.levelname == "WARNING"
    # R, the requested step and the step of 1999 points per axis
    assert f"R={R:g}, step 0.01 -> {2.0 * R / 1998:g}" in rec.getMessage()


def test_coarsening_warning_stays_off_stderr_by_default():
    out = run_python("import dataclasses, moreaukit as m; m.prox_map("
                     "dataclasses.replace(m.catalog_function('abs', dim=2), "
                     "closed_form_prox=None, terms=None), 1.0, [30.0, -30.0])")
    assert out.stderr == ""


def _spec_with_bad_value(bad: float, where: float) -> FunctionSpec:
    """|x| except at x > where, where the evaluator returns bad."""
    return FunctionSpec(
        dim=1,
        evaluator=lambda P: np.where(P[:, 0] > where, bad, np.abs(P[:, 0])),
        certificate=ProxBoundCertificate(0.0, 0.0, np.zeros(1)),
        name="bad",
    )


@settings(max_examples=20, deadline=None)
@given(bad=st.sampled_from([math.nan, -math.inf]), where=st.floats(0.01, 0.4))
def test_nan_or_neg_inf_raises_in_batched_checks(bad, where):
    # NaN means outside the domain: every call gives what it gives with +inf
    # in place of NaN.  -inf raises in every call.
    calls = (
        lambda g: g(np.array([[0.0], [where + 0.01]])),
        lambda g: verify_local_min(g, [0.0], 0.5),
        lambda g: estimate_strong_modulus(g, [0.0], 0.5),
        lambda g: check_min_transfer(g, [0.0], 0.1, 0.5),
    )
    f = _spec_with_bad_value(bad, where)
    if bad == -math.inf:
        for call in calls:
            with pytest.raises(InvalidFunctionValue, match="-inf at"):
                call(f)
        return
    g = _spec_with_bad_value(math.inf, where)
    for call in calls:
        a, b = call(f), call(g)
        if dataclasses.is_dataclass(a):
            a, b = dataclasses.asdict(a), dataclasses.asdict(b)
        np.testing.assert_equal(a, b)


def _count_calls(monkeypatch, name: str, calls: list) -> None:
    """Record name in calls at every call of envelope.<name>."""
    inner = getattr(envelope, name)

    def counted(*args):
        calls.append(name)
        return inner(*args)

    monkeypatch.setattr(envelope, name, counted)


def test_grid_and_divergence_rows_share_one_refinement(monkeypatch):
    # grid-view neg_quad (threshold 1) with rows below, at and above its
    # threshold: one feasible-bound call for the row below it, and one
    # refinement of the candidates of every row
    f = grid_view(catalog_function("neg_quad"))
    lams, X = np.array([0.5, 1.0, 1.5]), np.array([[0.5], [0.0], [2.0]])
    calls = []
    with monkeypatch.context() as mp:
        for name in ("_refine", "_feasible_upper_bounds"):
            _count_calls(mp, name, calls)
        batch = prox_batch(f, lams, X)
    assert sorted(calls) == ["_feasible_upper_bounds", "_refine"]
    _check_columns(batch, len(X), f.dim)
    assert not batch.diverged[0] and batch.diverged[2]
    for i, res in enumerate(batch):
        single = prox_map(f, lams[i], X[i])
        assert _same_float(res.envelope_value, single.envelope_value)
        assert res.diverged == single.diverged
        assert res.radius_used == single.radius_used
        assert len(res.minimizers) == len(single.minimizers)
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.minimizers, single.minimizers))


_QUARTIC_2D = parse_function("x1^4-x1^2+x2^4-x2^2", 2)


@pytest.mark.parametrize("f, lam, X", [
    # neg_quad diverges: its best value falls to the boundary of the last
    # of the 7 grids, near 0 and far out
    (catalog_function("neg_quad"), 2.0, [[0.3], [-2.0], [3e3], [1e5], [1e7]]),
    # above its certified threshold 0.5 the quartic runs all 7 expansions
    (parse_function("x1^4-x1^2", 1), 0.6, [[-2.0], [0.0], [0.7], [1.9]]),
    # a lam per row: bounded at 0.6 and at 1 (also at 1e7, where the value
    # is -5e13), unbounded from 2 on
    (parse_function("min(x1^4-x1^2,-0.25*x1^2)", 1), [0.6, 3.0, 1.0, 3.0],
     [[0.5], [0.5], [1e7], [-1.0]]),
    # a 2-D separable function, per axis and by rows
    (_QUARTIC_2D, 0.7, [[0.0, 0.0], [1.5, -0.3], [-2.0, 2.0]]),
    (dataclasses.replace(_QUARTIC_2D, terms=None, closed_form_prox=None), 0.7,
     [[0.0, 0.0], [1.5, -0.3], [-2.0, 2.0]]),
])
def test_divergence_rows_take_one_scan(f, lam, X, monkeypatch):
    # the rows at or above the threshold share one _minima call for every
    # expansion, and each gets prox_map's answer at its x alone, bit for bit
    X = np.array(X)
    calls = []
    with monkeypatch.context() as mp:
        _count_calls(mp, "_minima", calls)
        batch = prox_batch(f, lam, X)
    assert len(calls) == 1
    _check_columns(batch, len(X), f.dim)
    for x, l, res in zip(X, np.broadcast_to(lam, len(X)), batch):
        single = prox_map(f, l, x)
        assert _same_float(res.envelope_value, single.envelope_value)
        assert (res.diverged, res.radius_used) == (single.diverged, single.radius_used)
        assert len(res.minimizers) == len(single.minimizers)
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.minimizers, single.minimizers))


def test_a_divergence_row_without_a_finite_value_raises_as_alone():
    # no grid around 0 or -3, up to radius 512, reaches the box [1000, 1001];
    # the grids around 1000.5 do.  The batch raises for its first such row
    f = parse_function("-0.5*x1^2+ind(1000,1001)", 1)
    with pytest.raises(NoFeasiblePoint) as alone:
        prox_map(f, 2.0, [0.0])
    with pytest.raises(NoFeasiblePoint) as batch:
        prox_batch(f, 2.0, [[1000.5], [0.0], [-3.0]])
    assert str(batch.value) == str(alone.value)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m", [1, 3])
def test_a_batch_where_every_row_diverged(dim, m):
    f = grid_view(catalog_function("neg_quad", dim=dim))
    X = np.random.default_rng(5).uniform(-3.0, 3.0, (m, dim))
    batch = prox_batch(f, 2.0, X)
    _check_columns(batch, m, dim)
    assert batch.diverged.all() and np.isnan(batch.value).all()
    assert batch.points.shape == (0, dim)
    assert batch.offsets.tolist() == [0] * (m + 1)


def test_empty_batch_has_no_results():
    batch = prox_batch(catalog_function("abs"), 0.5, np.empty((0, 1)))
    assert isinstance(batch, ProxBatch) and len(batch) == 0 and list(batch) == []
    assert batch.value.shape == batch.diverged.shape == batch.radius.shape == (0,)
    assert batch.points.shape == (0, 1) and batch.offsets.tolist() == [0]


def test_a_slice_of_a_batch_is_the_list_of_its_rows():
    # double_well at x = 0 has two proximal points, the other rows one
    batch = prox_batch(catalog_function("double_well"), 0.3,
                       [[0.0], [0.5], [-1.5], [2.0]])
    rows = list(batch)
    for got, want in ((batch[0:2], rows[0:2]), (batch[::-1], rows[::-1])):
        assert isinstance(got, list) and len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.envelope_value, a.diverged, a.radius_used) == (
                b.envelope_value, b.diverged, b.radius_used)
            assert len(a.minimizers) == len(b.minimizers)
            assert all(np.array_equal(p, q) for p, q in zip(a.minimizers, b.minimizers))
    assert len(batch[0:2][0].minimizers) == 2 and batch[4:] == []


def test_function_spec_call_shapes():
    f = catalog_function("abs")
    assert f([-2.0]) == 2.0
    assert np.array_equal(f(np.array([[-2.0], [0.5]])), [2.0, 0.5])


# ---------------------------------------------------------------------------
# the two-level grid scan
# ---------------------------------------------------------------------------

CATALOG_2D = ("quadratic", "abs", "huber", "box", "neg_quad", "double_well",
              "well_plus_abs_2d")


def _draw_catalog(draw, dim: int):
    """A catalog function of dimension dim, 1 or 2, chosen by draw."""
    if dim == 1:
        return catalog_function(draw(st.sampled_from(CATALOG_1D)))
    name = draw(st.sampled_from(CATALOG_2D))
    return catalog_function(name) if name == "well_plus_abs_2d" \
        else catalog_function(name, dim=2)


@st.composite
def catalog_or_shift(draw, dim: int):
    """A catalog function of dimension dim, or its quad_shift by a random
    sigma and centre."""
    f = _draw_catalog(draw, dim)
    if draw(st.booleans()):
        sigma = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
        center = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
        f = quad_shift(f, QuadShift(sigma, center))
    return f


def _grid_or_row_view(f, row_scan: bool):
    """The grid view of f, or (row_scan) its view without terms, which the
    two-level row scan solves."""
    view = grid_view(f)
    return dataclasses.replace(view, terms=None) if row_scan else view


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), frac=st.floats(0.05, 0.4),
       coarse_always=st.booleans(), row_scan=st.booleans(), data=st.data())
def test_two_level_scan_matches_brute_force(dim, frac, coarse_always,
                                            row_scan, data):
    # criterion 08's envelope budget against the independent dense scan;
    # lam <= 0.4 of the threshold keeps every prox point within 5 of x, and
    # both oracles have the box ends 0 and 1 on their grids.  A function
    # with terms is scanned per axis, so half the draws solve the view
    # without terms, whose row scan has the coarse pass; most grids here are
    # below the pass's size floor, so half the draws lower the floor to 0.
    f = data.draw(catalog_or_shift(dim))
    lam = _lam(f, frac)
    X = np.array(data.draw(points(dim, max_size=2)))
    tol = 100.0 * f.grid_step ** 2 + 1e-9
    with pytest.MonkeyPatch.context() as mp:
        if coarse_always:
            mp.setattr(envelope, "_COARSE_MIN_ROWS", 0)
        results = prox_batch(_grid_or_row_view(f, row_scan), lam, X)
    for x, res in zip(X, results):
        if dim == 1:
            ref = brute_envelope_1d(f, lam, x[0], lo=-20.0, hi=20.0)
        else:
            ref = brute_envelope_2d(f, lam, x, half_width=6.0, n=1201)
        assert abs(res.envelope_value - ref) <= tol


def test_2d_oracle_is_exact_on_the_box_boundary():
    # the prox of x = (0, -0.375) on [0, 1]^2 is the corner (0, 0): the
    # envelope is 0.375^2 / (2 * 0.125) = 0.5625
    f = catalog_function("box", dim=2)
    x = [0.0, -0.375]
    assert brute_envelope_2d(f, 0.125, x) == 0.5625
    assert prox_map(grid_view(f), 0.125, x).envelope_value == \
        pytest.approx(0.5625, abs=100.0 * f.grid_step ** 2 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(frac=st.floats(0.05, 0.95), coarse_always=st.booleans(),
       row_scan=st.booleans(), data=st.data())
def test_prox_points_lie_within_the_search_radius(frac, coarse_always,
                                                  row_scan, data):
    # every grid prox point lies within the reported radius R; the
    # dense-scan argmin lies within the radius certified from its own
    # objective value, about the smallest feasible bound a coarse pass can
    # reach, so within the scanned radius R1 too
    f = data.draw(catalog_or_shift(1))
    lam = _lam(f, frac)
    x = np.array(data.draw(points(1, max_size=1))[0])
    R = search_radius(f, lam, x)
    with pytest.MonkeyPatch.context() as mp:
        if coarse_always:
            mp.setattr(envelope, "_COARSE_MIN_ROWS", 0)
        res = prox_map(_grid_or_row_view(f, row_scan), lam, x)
    assert res.radius_used == R
    assert all(abs(m[0] - x[0]) <= R for m in res.minimizers)
    w = brute_argmin_1d(f, lam, x[0], lo=x[0] - 2.0 * R, hi=x[0] + 2.0 * R)
    env = float(f.batch(np.array([[w]]))[0]) + (w - x[0]) ** 2 / (2.0 * lam)
    assert abs(w - x[0]) <= envelope._radius_for(f, lam, x, env)


def _local_minima_padded(vals: np.ndarray) -> np.ndarray:
    """The neighbour test by padding with +inf, as a reference."""
    padded = np.pad(vals, 1, constant_values=np.inf)
    ok = np.isfinite(vals)
    inner = [slice(1, -1)] * vals.ndim
    for ax in range(vals.ndim):
        for lo in (0, 2):
            nb = list(inner)
            nb[ax] = slice(lo, lo + vals.shape[ax])
            ok &= vals <= padded[tuple(nb)]
    return np.flatnonzero(ok)


@settings(max_examples=200, deadline=None)
@given(vals=arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=7),
                   elements=st.sampled_from([0.0, 1.0, 2.0, 0.5, math.inf])),
       rows=st.lists(arrays(np.float64, st.integers(3, 12),
                            elements=st.sampled_from([0.0, 1.0, 2.0, 0.5, math.inf,
                                                      math.nan])),
                     min_size=1, max_size=6),
       long=arrays(np.float64, st.integers(3, 300),
                   elements=st.sampled_from([0.0, 1.0, 2.0, 0.5, math.inf, math.nan])),
       at=st.integers(0, 6), chunk=st.integers(1, 1000), half=st.floats(0.01, 100.0))
def test_local_minima_match_the_padded_reference(vals, rows, long, at, chunk, half):
    # a few distinct values force ties; +inf marks points outside the domain
    assert np.array_equal(envelope._local_minima(vals), _local_minima_padded(vals))
    # the per-axis scan of a batch finds in each row's grid the minima
    # _local_minima finds in that row alone, NaN read as +inf, whether a row
    # shares a chunk of chunk slots with others or, longer than that, has
    # one of its own, at the points of the row's np.linspace grid bit for
    # bit.  One row of up to 300 points makes a chunk that holds it pad its
    # short rows several-fold.  The term reads the drawn values at those
    # points, rows 10^4 apart, and checks that every coordinate it gets lies
    # in some row's box C +- R, so that padding is never evaluated off the
    # grids; lam is inf, so the quadratic adds 0.  A row with more than
    # _MAX_CANDIDATES minima keeps the least, ties in C order, by the cap
    # of _minima, which passes a function with terms to _axis_minima and
    # gives its one axis as a block: a row's minima in C order, NaN after
    rows.insert(min(at, len(rows)), long)
    n = np.array([len(r) for r in rows])
    C = 1e4 * np.arange(len(rows))[:, None]
    R = np.full(len(rows), half)
    grids = [c + np.linspace(-r, r, k) for c, r, k in zip(C[:, 0], R, n)]
    keys, values = np.concatenate(grids), np.concatenate(rows)
    boxes = np.array([[g[0], g[-1]] for g in grids])  # C - R and C + R, rounded

    def term(t):
        box = np.rint(t / 1e4).astype(int)
        assert ((0 <= box) & (box < len(rows))).all()
        assert ((boxes[box, 0] <= t) & (t <= boxes[box, 1])).all()
        return values[np.searchsorted(keys, t)]

    f = FunctionSpec(dim=1, evaluator=lambda P: term(P[:, 0]),
                     certificate=ProxBoundCertificate(0.0, 0.0, np.zeros(1)),
                     terms=(term,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_AXIS_CHUNK", chunk)
        [(pts, got)] = envelope._minima(f, np.full(len(rows), math.inf), C, C, R, n)
    assert pts.shape == got.shape + (1,)
    for r, grid, p, v in zip(rows, grids, pts[..., 0], got):
        r = np.where(np.isnan(r), math.inf, r)
        want = envelope._local_minima(r)
        if len(want) > envelope._MAX_CANDIDATES:  # the least, ties in C order
            want = np.sort(want[np.argsort(r[want], kind="stable")
                                [:envelope._MAX_CANDIDATES]])
        assert np.array_equal(p[:len(want)], grid[want])
        assert np.array_equal(v[:len(want)], r[want])
        assert np.isnan(p[len(want):]).all() and np.isnan(v[len(want):]).all()


def test_one_capped_row_scan_is_its_rows_scanned_alone():
    # sqrt(abs(x1*x2))+abs(x1-x2) takes the row scan, whose grids at these
    # 7x7 points hold more than _MAX_CANDIDATES grid-local minima for some
    # x: one _minima call over the batch caps each row as its own call
    # does, bit for bit, its one block padded with NaN to the batch's widest
    f = parse_function("sqrt(abs(x1*x2))+abs(x1-x2)", 2)
    assert f.terms is None
    t = np.linspace(-2.0, 2.0, 7)
    X = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    lam = np.full(len(X), 0.3)
    U, _ = envelope._feasible_upper_bounds(f, lam, X)
    R = envelope._radius_for(f, lam, X, U)
    n = envelope._axis_points(R, f.grid_step, 2)
    [(pts, vals)] = envelope._minima(f, lam, X, X, R, n, coarse=True)
    for i in range(len(X)):
        [(p, v)] = envelope._minima(f, lam[i:i + 1], X[i:i + 1], X[i:i + 1],
                                    R[i:i + 1], n[i:i + 1], coarse=True)
        k = v.shape[1]
        assert _same_bits(pts[i, :k], p[0]) and _same_bits(vals[i, :k], v[0])
        assert np.isnan(pts[i, k:]).all() and np.isnan(vals[i, k:]).all()
    assert np.add.reduce(vals == vals, axis=1).max() == envelope._MAX_CANDIDATES
    assert max(len(envelope._row_minima(f, 0.3, x, np.linspace(-r, r, k), x, True)[1])
               for x, r, k in zip(X, R.tolist(), n.tolist())) > envelope._MAX_CANDIDATES


def test_the_row_scan_caps_each_row_before_the_next():
    # a checkerboard on a 101x101 grid has 5,101 grid-local minima per x;
    # the row scan caps each row as it is scanned, so 16 rows at once peak
    # near one row alone, not near 16 rows' uncapped minima (about 6 MB)
    h = 2.0 / 100
    f = FunctionSpec(dim=2, certificate=ProxBoundCertificate(0.0, 0.0, [0.0, 0.0]),
                     evaluator=lambda P: -(np.rint(P[:, 0] / h) + np.rint(P[:, 1] / h)) % 2)

    def peak(m):
        X, R, n = np.zeros((m, 2)), np.ones(m), np.full(m, 101)
        tracemalloc.start()
        try:
            [(_, vals)] = envelope._minima(f, np.full(m, math.inf), X, X, R, n)
            return (tracemalloc.get_traced_memory()[1], vals[vals == vals],
                    np.add.reduce(vals == vals, axis=1))
        finally:
            tracemalloc.stop()

    (one, vals1, _), (many, vals, sizes) = peak(1), peak(16)
    assert np.array_equal(sizes, np.full(16, envelope._MAX_CANDIDATES))
    assert np.array_equal(vals, np.tile(vals1, 16))
    assert many < 2 * one


def _cluster_sorted(points, values, best: float, radius: float) -> list:
    """The clustering rule without its single-candidate shortcut: the points
    within VALUE_TOL of best in (value, lexicographic) order, each kept
    unless within radius of one kept before."""
    keep = [(v, tuple(p), p) for p, v in zip(points, values)
            if v <= best + envelope.VALUE_TOL]
    keep.sort(key=lambda t: (t[0], t[1]))
    reps: list = []
    for _, _, p in keep:
        if all(math.dist(p, r) > radius for r in reps):
            reps.append(p)
    return reps


def _distance(w, x) -> float:
    """||w - x|| rounded as the package's distance rule rounds it, one point
    at a time: np.linalg.norm of d = w - x, but where d . d overflows or
    underflows, 2^e times the norm of d 2^-e, for the 2^e just above max |d_j|."""
    d = np.asarray(w, dtype=float) - x
    if 2.0 ** -1022 <= float(np.dot(d, d)) < math.inf:
        return float(np.linalg.norm(d))
    e = math.frexp(float(np.max(np.abs(d))))[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(d, -e))), e)


def _clustered(f, lam, X: np.ndarray) -> list:
    """Closed-form results with every row clustered by _cluster_sorted,
    from the full product of the axes' candidates; lam is a float or one
    per row."""
    C = functions.axis_product(f.closed_form_prox(lam, X))
    lams = lam if np.ndim(lam) == 0 else lam[:, None]
    vals = envelope._objective(f, lams, X[:, None, :], C)
    best = np.fmin.reduce(vals, axis=1)
    out = []
    for x, cands, v, b in zip(X, C, vals.tolist(), best.tolist()):
        reps = _cluster_sorted(cands, v, b, envelope.CLUSTER_STEPS
                               * f.grid_step)
        out.append((b, reps, max(_distance(w, x) for w in reps)))
    return out


@pytest.mark.parametrize("name", sorted(CATALOG_1D + ("well_plus_abs_2d",)))
@pytest.mark.parametrize("lam", [0.1, 0.45])
def test_closed_form_single_candidate_path_equals_cluster_path(name, lam):
    f = catalog_function(name)
    lam *= min(1.0, f.certificate.threshold)
    rng = np.random.default_rng(7)
    # the random points and the points where candidates tie or coincide
    special = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.0 + 2.0 * lam]
    X = np.concatenate([rng.uniform(-3.0, 3.0, size=(200, f.dim)),
                        np.repeat(np.array(special)[:, None], f.dim, axis=1)])
    got = prox_batch(f, lam, X)
    for res, (b, reps, r) in zip(got, _clustered(f, lam, X)):
        assert res.envelope_value == b and res.radius_used == r
        assert len(res.minimizers) == len(reps)
        assert all(np.array_equal(m, w) for m, w in zip(res.minimizers, reps))
        assert not res.diverged


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CATALOG_1D + ("well_plus_abs_2d",)))
def test_closed_form_chunks_join_to_the_whole_batch(name, monkeypatch):
    # with 3 rows a chunk, a batch of 10 rows is solved in chunks and
    # joined; one lam, and a lam column of two values, whose rows are
    # chunked with their lams like those of one lam
    f = catalog_function(name)
    t = min(1.0, f.certificate.threshold)
    X = np.concatenate([np.zeros((1, f.dim)),  # double_well ties at 0
                        np.random.default_rng(11).uniform(-3.0, 3.0, (9, f.dim))])
    calls = []
    inner = f.closed_form_prox
    f = dataclasses.replace(
        f, closed_form_prox=lambda lam, P: calls.append(len(P)) or inner(lam, P))
    for lam, chunks in ((0.5 * t, [3, 3, 3, 1]),
                        (np.where(np.arange(10) % 2, 0.5 * t, 0.2 * t), [3, 3, 3, 1])):
        whole = prox_batch(f, lam, X)
        with monkeypatch.context() as mp:
            mp.setattr(envelope, "_CLOSED_FORM_ROWS", 3)
            calls.clear()
            chunked = prox_batch(f, lam, X)
        assert calls == chunks
        for a in ("value", "diverged", "radius", "points", "offsets"):
            assert _same_bits(getattr(chunked, a), getattr(whole, a)), a


def test_closed_form_chunks_bound_their_candidates(monkeypatch):
    # a batch of more than _CLOSED_FORM_PROBE points first counts the
    # candidates of one point, 3 for the parsed double well's exact prox,
    # and takes chunks of at most _CHUNK_ROWS candidates
    f = parse_function("(x1^2-1)^2", 1)
    X = np.linspace(-2.0, 2.0, 10)[:, None]
    calls = []
    inner = f.closed_form_prox
    f = dataclasses.replace(
        f, closed_form_prox=lambda lam, P: calls.append(len(P)) or inner(lam, P))
    whole = prox_batch(f, 0.3, X)
    assert calls == [10]
    calls.clear()
    with monkeypatch.context() as mp:
        mp.setattr(envelope, "_CLOSED_FORM_PROBE", 4)
        mp.setattr(envelope, "_CHUNK_ROWS", 7)
        chunked = prox_batch(f, 0.3, X)
    assert calls == [1, 2, 2, 2, 2, 2]
    for a in ("value", "diverged", "radius", "points", "offsets"):
        assert _same_bits(getattr(chunked, a), getattr(whole, a)), a


def _recording_products(monkeypatch, products: list) -> None:
    """Append the (points, candidates) shape of every closed-form product
    that envelope builds to products."""
    def product(axes):
        C = functions.axis_product(axes)
        products.append(C.shape[:2])
        return C
    monkeypatch.setattr(envelope, "axis_product", product)


@pytest.mark.parametrize("lam", [0.4, np.linspace(0.2, 0.4, 10)])
def test_closed_form_chunks_bound_the_double_wells_candidates(lam, monkeypatch):
    # the first point has one root per axis and the rest, at lam 0.4,
    # three: the probe counts one candidate per axis at the first point, and
    # chunks of _CLOSED_FORM_ROWS = _CHUNK_ROWS // 16 points keep every
    # axis's candidates, at most 3 a point, and their cut product within
    # _CHUNK_ROWS = 48
    f = catalog_function("double_well", dim=3)
    X = np.concatenate([np.full((1, 3), 2.0),
                        np.random.default_rng(5).uniform(-0.1, 0.1, (9, 3))])
    sizes, products = [], []
    inner = f.closed_form_prox
    f = dataclasses.replace(f, closed_form_prox=lambda lam, P: (
        lambda axes: sizes.append(max(W.size for W in axes)) or axes)(inner(lam, P)))
    whole = prox_batch(f, lam, X)
    sizes.clear()
    with monkeypatch.context() as mp:
        mp.setattr(envelope, "_CLOSED_FORM_PROBE", 4)
        mp.setattr(envelope, "_CHUNK_ROWS", 48)
        mp.setattr(envelope, "_CLOSED_FORM_ROWS", 3)
        _recording_products(mp, products)
        chunked = prox_batch(f, lam, X)
    assert sizes[0] == 1 and len(sizes) == 5 and max(sizes) <= 48
    assert len(products) == 4 and max(m * k for m, k in products) <= 48
    for a in ("value", "diverged", "radius", "points", "offsets"):
        assert _same_bits(getattr(chunked, a), getattr(whole, a)), a


@pytest.mark.parametrize("lam", [0.4, np.linspace(0.39, 0.41, 12)])
def test_closed_form_products_are_halved_down_to_one_point(lam, monkeypatch):
    # at the origin, lam 0.4, each axis keeps the two outer roots of its
    # cubic, which tie, and the product of four axes has 16 proximal points;
    # the other rows keep one root per axis.  Each row's product is padded
    # to the widest row's, so a chunk holding the origin is halved until its
    # product holds at most _CHUNK_ROWS = 8 candidates, or it is the origin
    # alone
    f = catalog_function("double_well", dim=4)
    X = np.random.default_rng(9).uniform(-0.2, 0.2, (12, 4))
    X[5] = 0.0
    whole = prox_batch(f, lam, X)
    assert np.diff(whole.offsets).tolist() == [1] * 5 + [16] + [1] * 6
    products = []
    with monkeypatch.context() as mp:
        mp.setattr(envelope, "_CHUNK_ROWS", 8)
        _recording_products(mp, products)
        chunked = prox_batch(f, lam, X)
    assert (1, 16) in products
    assert all(m * k <= 8 or m == 1 for m, k in products)
    for a in ("value", "diverged", "radius", "points", "offsets"):
        assert _same_bits(getattr(chunked, a), getattr(whole, a)), a


def test_closed_form_padding_is_never_evaluated():
    # at lam 0.4 the double well's closed form gives these points 3
    # candidate columns, three real roots near 0 and one real root and two
    # NaN ones farther out; the evaluator sees only the 11 real ones, not
    # 27, and the answers are those of evaluating all 27
    f = catalog_function("double_well")
    X = np.linspace(-1.0, 1.0, 9)[:, None]
    [C] = f.closed_form_prox(0.4, X)
    assert C.shape == (9, 3) and np.isnan(C).sum() == 16
    rows = []
    inner = f.evaluator
    got = prox_batch(dataclasses.replace(
        f, evaluator=lambda P: rows.append(len(P)) or inner(P)), 0.4, X)
    assert rows == [11]
    for res, (b, reps, r) in zip(got, _clustered(f, 0.4, X)):
        assert res.envelope_value == b and res.radius_used == r
        assert len(res.minimizers) == len(reps)
        assert all(np.array_equal(m, w) for m, w in zip(res.minimizers, reps))


def test_a_closed_form_row_of_padding_alone_raises():
    # the closed form gives each x the candidates x and -x, but only NaN
    # padding where x > 1.5: that row has no candidate, so the solve raises
    # InvalidArgument naming its x, in a batch and alone, rather than take
    # a candidate of another row or fail inside numpy
    def cf(lam, X):
        C = np.concatenate([X, -X], axis=1)
        C[X[:, 0] > 1.5] = math.nan
        return [C]

    f = FunctionSpec(dim=1, evaluator=lambda P: np.zeros(len(P)),
                     certificate=ProxBoundCertificate(0.0, 0.0, [0.0]),
                     closed_form_prox=cf)
    assert prox_batch(f, 0.5, [[0.0], [1.0]]).value.tolist() == [0.0, 0.0]
    for call in (lambda: prox_batch(f, 0.5, [[0.0], [2.0]]),
                 lambda: prox_map(f, 0.5, [2.0])):
        with pytest.raises(InvalidArgument, match=r"no candidate at x=\[2\.\]"):
            call()


def _padded_double_well(lam, t):
    """The double well's roots padded back to 3 columns with NaN."""
    W = functions._double_well_prox_1d(lam, t)
    return np.concatenate(
        [W, np.full(W.shape[:-1] + (3 - W.shape[-1],), math.nan)], axis=-1)


@settings(max_examples=100, deadline=None)
@given(entry=st.sampled_from([("double_well", 1), ("double_well", 2),
                              ("double_well", 3), ("well_plus_abs_2d", 2)]),
       column=st.booleans(), data=st.data())
def test_one_root_double_well_rows_solve_as_their_padded_candidates(
        entry, column, data):
    # a closed form that returns one column where every root is alone
    # answers as the same spec whose closed form pads every double-well
    # axis back to 3 columns, the padding path, bit for bit
    name, dim = entry
    f = catalog_function(name, **({} if name == "well_plus_abs_2d"
                                  else {"dim": dim}))
    m = data.draw(st.integers(1, 6))
    X = np.array(data.draw(st.lists(st.lists(coord, min_size=dim,
                                             max_size=dim),
                                    min_size=m, max_size=m)))
    lams = st.floats(0.05, 2.0, exclude_min=True, exclude_max=True)
    lam = (np.array(data.draw(st.lists(lams, min_size=m, max_size=m)))
           if column else data.draw(lams))
    pieces = [_padded_double_well] + [
        _padded_double_well if name == "double_well"
        else functions._soft_threshold] * (dim - 1)
    padded = dataclasses.replace(f, closed_form_prox=lambda lam, X: (
        [g(lam, t) for g, t in zip(pieces, X.T)]))
    got, want = prox_batch(f, lam, X), prox_batch(padded, lam, X)
    for field in ("value", "points", "offsets", "radius"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


# separable piecewise polynomials with several candidates on each axis, c
# the drawn constant; the third sums its leaves in another order than its
# terms do
_CUT_EXPRESSIONS = {
    2: ("(x1^2-1)^2+abs(x2-{c})",
        "min((x1-1)^2,(x1+1)^2+{c})+max(abs(x2),x2^2-1)",
        "abs(x2-{c})+(x1^2-1)^2+0.5*x2^2"),
    3: ("(x1^2-1)^2+(x2^2-1)^2+abs(x3-{c})",
        "min(x1^2,(x1-2)^2+{c})+(x2^2-1)^2+max(x3^4-x3^2,abs(x3))"),
}


@st.composite
def _separable_closed_form(draw):
    """double_well in 2-4 dimensions, well_plus_abs_2d, or a parsed
    separable piecewise polynomial in 2 or 3 dimensions."""
    kind = draw(st.sampled_from(["double_well", "well_plus_abs_2d", "parsed"]))
    if kind == "double_well":
        return catalog_function(kind, dim=draw(st.integers(2, 4)))
    if kind == "well_plus_abs_2d":
        return catalog_function(kind)
    dim = draw(st.sampled_from(sorted(_CUT_EXPRESSIONS)))
    expr = draw(st.sampled_from(_CUT_EXPRESSIONS[dim]))
    return parse_function(expr.format(c=repr(draw(st.floats(-1.0, 1.0)))), dim)


@settings(max_examples=100, deadline=None)
@given(f=_separable_closed_form(), column=st.booleans(), data=st.data())
def test_cut_closed_form_candidates_give_the_full_products_answers(f, column, data):
    # the solve, which keeps on each axis only the candidates near its
    # least, answers as the product of every axis's candidates, clustered
    # by the test's own rule, by value, points, offsets and radius bytes:
    # rows in [-3, 3]^n, with coordinates at 0, where candidates tie, and
    # up to 1e6 in magnitude
    assert f.closed_form_prox is not None
    m = data.draw(st.integers(1, 6))
    x = st.one_of(coord, st.just(0.0), st.floats(-1e6, 1e6))
    X = np.array(data.draw(st.lists(st.lists(x, min_size=f.dim, max_size=f.dim),
                                    min_size=m, max_size=m)))
    lams = st.floats(0.05, 2.0, exclude_min=True, exclude_max=True)
    lam = (np.array(data.draw(st.lists(lams, min_size=m, max_size=m)))
           if column else data.draw(lams))
    assume(np.all(lam < f.certificate.threshold))
    got = prox_batch(f, lam, X)
    want = _clustered(f, lam, X)
    assert got.value.tobytes() == np.array([b for b, _, _ in want]).tobytes()
    assert got.radius.tobytes() == np.array([r for _, _, r in want]).tobytes()
    assert got.offsets.tolist() == np.cumsum([0] + [len(p) for _, p, _ in want]).tolist()
    assert got.points.tobytes() == np.array([p for _, ps, _ in want for p in ps]).tobytes()


@pytest.mark.parametrize("name", sorted(CATALOG_1D + ("well_plus_abs_2d",)))
def test_a_lambda_column_is_one_closed_form_call(name, monkeypatch):
    # the rows below the threshold reach the closed form in one call, each
    # with its own lam, and each row is its own prox_map bit for bit
    f = catalog_function(name)
    t = min(1.0, f.certificate.threshold)
    X = np.concatenate([np.zeros((1, f.dim)),  # double_well ties at 0
                        np.random.default_rng(12).uniform(-3.0, 3.0, (11, f.dim))])
    lam = np.where(np.arange(12) % 3, 0.3 * t, 0.8 * t)
    calls = []
    inner = f.closed_form_prox
    monkeypatch.setattr(
        f, "closed_form_prox", lambda lam, P: calls.append(len(P)) or inner(lam, P))
    batch = prox_batch(f, lam, X)
    assert calls == [12]
    monkeypatch.undo()
    for i, res in enumerate(batch):
        single = prox_map(f, lam.item(i), X[i])
        assert res.envelope_value == single.envelope_value
        assert res.radius_used == single.radius_used and not res.diverged
        assert len(res.minimizers) == len(single.minimizers)
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.minimizers, single.minimizers))


# ---------------------------------------------------------------------------
# the per-axis scan of separable functions
# ---------------------------------------------------------------------------

def _grid_outcome(f, lam: float, X: np.ndarray):
    """prox_batch on the grid path, or the exception it raises."""
    try:
        return prox_batch(grid_view(f), lam, X)
    except MoreauKitError as exc:
        return exc


def _resolution_slack(f, lam: float, x: np.ndarray, p: np.ndarray) -> float:
    """How far the objective of f at x moves within the refiners' resolution
    at p: the largest change of _objective when one coordinate of p moves by
    4 _ZOOM_FLOOR (1 + max |p|), to a feasible point.  Neither refiner
    resolves a point more finely than its floor, so two refiners' values can
    differ by this much: about 1e-28 at a smooth minimum and the slope
    times the move at a kink, but the square root of the move at the edge of
    sqrt's domain, whose slope is unbounded, and 1e151 where a curvature of
    1e179 meets a coordinate near 0."""
    delta = 4.0 * refine._ZOOM_FLOOR * (1.0 + np.abs(p).max())
    moves = np.concatenate([np.eye(len(p)), -np.eye(len(p))]) * delta
    vals = envelope._objective(f, lam, x, p + moves)
    return float(np.abs(vals[np.isfinite(vals)]
                        - envelope._objective(f, lam, x, p)).max(initial=0.0))


def _assert_same_grid_answers(f, lam: float, X: np.ndarray) -> None:
    """The per-axis scan of f gives the answers of the row scan of the same
    function with terms=None: the same exception, or envelope values within
    1e-12 and every prox point within the cluster radius of one of the
    other.  In 2-D the two refine one axis at a time and on the lattice of
    the plane, so their values agree within 1e-12 plus what the objective
    moves within the refiners' resolution at both answers' first points
    (_resolution_slack)."""
    assert f.terms is not None
    got = _grid_outcome(f, lam, X)
    ref = _grid_outcome(dataclasses.replace(f, terms=None, closed_form_prox=None),
                        lam, X)
    if isinstance(ref, Exception) or isinstance(got, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    radius = envelope.CLUSTER_STEPS * f.grid_step
    for x, a, b in zip(X, got, ref):
        assert a.diverged == b.diverged and a.radius_used == b.radius_used
        slack = sum(_resolution_slack(f, lam, x, r.minimizers[0])
                    for r in (a, b) if f.dim > 1 and r.minimizers)
        assert a.envelope_value == pytest.approx(b.envelope_value,
                                                 rel=1e-12, abs=1e-12 + slack)
        for p, others in ((a.minimizers, b.minimizers),
                          (b.minimizers, a.minimizers)):
            for m in p:
                assert min(math.dist(m, w) for w in others) <= radius


@st.composite
def separable_2d(draw, parsed: bool = True):
    """well_plus_abs_2d, a quad_shift of it, or (if parsed) a parsed
    separable 2-D expression with a derived certificate."""
    kind = draw(st.sampled_from(["catalog", "shift"] + ["parsed"] * parsed))
    if kind == "parsed":
        f = parse_function(draw(_expressions(2)), 2)
        assume(f.terms is not None and f.certificate.source == "derived")
        return f
    f = catalog_function("well_plus_abs_2d")
    if kind == "shift":
        sigma = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
        center = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
        f = quad_shift(f, QuadShift(sigma, center))
    return f


@st.composite
def separable_1d(draw):
    """A 1-D catalog function, a quad_shift of one, or a parsed 1-D
    expression with a derived certificate, whose terms may sum its top-level
    +/- chain in another order than the evaluator, as x1^2-(x1-x1^4/10)."""
    if draw(st.booleans()):
        return draw(catalog_or_shift(1))
    f = parse_function(draw(st.just("x1^2-(x1-x1^4/10)") | _expressions(1)), 1)
    assume(f.certificate.source == "derived")
    return f


@settings(max_examples=100, deadline=None)
@given(f=separable_2d() | separable_1d(), frac=st.floats(0.05, 0.95),
       coarse_always=st.booleans(), data=st.data())
def test_per_axis_scan_matches_the_row_scan(f, frac, coarse_always, data):
    lam = _lam(f, frac)
    X = np.array(data.draw(points(f.dim, max_size=3)))
    try:
        radius = max(search_radius(f, lam, x) for x in X)
        assume(radius <= 6.0)  # keeps the row scan of the reference small
        vals = np.concatenate([f.batch(envelope.axis_product(
            [np.linspace(-radius, radius, 21) + xj for xj in x])) for x in X])
        # values this large round the quadratic away, and both scans then
        # pick among rounding ties (a constant -1.5e54 is flat on both grids)
        assume(np.all(np.abs(vals[np.isfinite(vals)]) < 1e8))
    except MoreauKitError:
        pass  # both paths raise it again
    with pytest.MonkeyPatch.context() as mp:
        if coarse_always:
            mp.setattr(envelope, "_COARSE_MIN_ROWS", 0)
        _assert_same_grid_answers(f, lam, X)


@settings(max_examples=40, deadline=None)
@given(f=separable_2d(parsed=False), frac=st.floats(0.05, 0.95), data=st.data())
def test_per_axis_candidates_are_the_row_scan_ones(f, frac, data):
    # the same radius, step and candidate points, in the same C order: the
    # product of the per-axis scan's axes, built here, is the row scan's one
    # block, and the scans' values of those grid-local minima, the per-axis
    # ones summed left to right, agree within rounding: catalog and shift
    # objectives have no flat stretch where the two sums could round to
    # different neighbour orders.  The per-axis scan spans the whole radius
    # R, so the row scan is run without its coarse pass, which would trim
    # its axis to R1.
    lam = _lam(f, frac)
    rows = dataclasses.replace(f, terms=None, closed_form_prox=None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_COARSE_MIN_ROWS", envelope._MAX_GRID_POINTS)
        for x in np.array(data.draw(points(2, max_size=2))):
            X, lams = x[None], np.array([lam])
            R, step, axes = envelope._grid_candidates(f, lams, X)
            R0, step0, [pts0] = envelope._grid_candidates(rows, lams, X)
            assert (R, step) == (R0, step0)
            assert [a.shape[2] for a in axes] == [1, 1]
            pts = envelope.axis_product([a[0, :, 0] for a in axes])
            np.testing.assert_array_equal(pts, pts0[0][~np.isnan(pts0[0, :, 0])])
            n = np.array([envelope._axis_points(R.item(), f.grid_step, 2)])
            (_, v1), (_, v2) = envelope._minima(f, lams, X, X, R, n, coarse=True)
            [(_, vals0)] = envelope._minima(rows, lams, X, X, R, n, coarse=True)
            vals = (v1[0, :, None] + v2[0, None, :]).ravel()
            np.testing.assert_allclose(vals[vals == vals], vals0[vals0 == vals0],
                                       rtol=1e-12, atol=1e-12)


def _flat_axis(f, lam: float, x: np.ndarray) -> bool:
    """Whether the objective of a separable f at x is flat to rounding
    along some axis of some grid of the divergence scan: whether that
    axis's spread, or the step between two neighbours on it, is within
    rounding of the row scan's sums there, to which every other axis adds
    at least its least magnitude.  neg_quad's axes are flat at its
    threshold and x = 0, where the quadratics cancel, and x2's is flat
    beside an x1 axis whose values reach 1e47.  At its threshold, a shifted
    box's axis is linear on the box, so flat where x_j is near 0, and the
    largest grids may have no point in the box; a shift of
    well_plus_abs_2d has an x2 axis flat on a half-line."""
    for k in range(envelope._EXPAND_STEPS + 1):
        R = 8.0 * 2 ** k * max(1.0, float(np.linalg.norm(x)))
        axes = []
        for g, xj in zip(f.terms, x):
            t = xj + np.linspace(-R, R, 201)
            axes.append(g(t) + (t - xj) ** 2 / (2.0 * lam))
        finite = [a[np.isfinite(a)] for a in axes]
        least = [np.abs(a).min() if a.size else 0.0 for a in finite]
        for j, (a, fin) in enumerate(zip(axes, finite)):
            if not fin.size:
                continue
            rest = sum(least[:j] + least[j + 1:])
            if np.ptp(fin) <= 1e-6 * (1.0 + np.abs(fin).max() + rest):
                return True
            with np.errstate(invalid="ignore"):  # inf - inf off the domain
                step = np.abs(np.diff(a))
            near = np.isfinite(step)
            if np.any(step[near] <= 1e-6 * (1.0 + np.abs(a[1:][near]) + rest)):
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(f=separable_2d() | separable_1d() | catalog_or_shift(2),
       frac=st.floats(1.0, 3.0), data=st.data())
def test_per_axis_divergence_scan_matches_the_row_scan(f, frac, data):
    # at or above a finite threshold every row takes the divergence scan, per
    # axis on f and by rows on its view without terms: the same batch, bit
    # for bit, or the same exception.  NaN marks a diverged row's value, so
    # the columns are compared NaN-aware.  Where an axis is flat, the row
    # scan's rounding alone picks its best point, so those draws are left out.
    # In 2-D the two refine the scan's candidates differently, one axis at a
    # time on f and on the lattice of the plane without terms, so there the
    # values and points of the rows that did not diverge are compared as in
    # _assert_same_grid_answers
    assume(f.terms is not None and math.isfinite(f.certificate.threshold))
    lam = frac * f.certificate.threshold
    X = np.array(data.draw(points(f.dim, max_size=3)))
    assume(not any(_flat_axis(f, lam, x) for x in X))
    got, ref = (_grid_outcome(g, lam, X)
                for g in (f, dataclasses.replace(f, terms=None,
                                                 closed_form_prox=None)))
    if isinstance(ref, Exception) or isinstance(got, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    exact = ("diverged", "radius", "offsets") + ("value", "points") * (f.dim == 1)
    for column in exact:
        assert np.array_equal(getattr(got, column), getattr(ref, column),
                              equal_nan=True), column
    if f.dim == 1:
        return
    radius = envelope.CLUSTER_STEPS * f.grid_step
    for x, a, b in zip(X, got, ref):
        if a.diverged:
            continue
        slack = sum(_resolution_slack(f, lam, x, r.minimizers[0]) for r in (a, b))
        assert a.envelope_value == pytest.approx(b.envelope_value,
                                                 rel=1e-12, abs=1e-12 + slack)
        for p, others in ((a.minimizers, b.minimizers),
                          (b.minimizers, a.minimizers)):
            for m in p:
                assert min(math.dist(m, w) for w in others) <= radius


def _separable_spec_with_bad_value(bad: float, where: float) -> FunctionSpec:
    """|x1| + x2^2, where the x1 term is bad at x1 > where."""
    def g1(t):
        return np.where(t > where, bad, np.abs(t))

    return FunctionSpec(
        dim=2,
        evaluator=lambda P: g1(P[:, 0]) + P[:, 1] ** 2,
        certificate=ProxBoundCertificate(0.0, 0.0, np.zeros(2)),
        name="bad",
        terms=(g1, lambda t: t ** 2),
    )


@settings(max_examples=30, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), where=st.floats(-1.0, 4.0),
       coarse_always=st.booleans(), X=points(2, max_size=5))
# no point is feasible, and x2 = -1.4 and -1.6 tie on the bound boxes' grid
@example(bad=math.nan, where=-1.0, coarse_always=False,
         X=[[0.25, -2.9999999999999996]])
def test_bad_term_values_act_as_in_the_row_scan(bad, where, coarse_always, X):
    # NaN and +inf are outside the domain in both scans; -inf raises, naming
    # the same point, exactly where the row scan of the whole grid meets it,
    # and not where the scanned grid stays below where.  The per-axis scan
    # reads the whole grid, so the -inf draws compare it with a row scan
    # without its coarse pass, which can step over a -inf point.  A function
    # with terms never takes the row scan.  In a batch, the rows whose grid
    # stays below where keep the answers of their batch without the other
    # rows, and every row is its single solve bit for bit
    f = _separable_spec_with_bad_value(bad, where)
    X = np.array(X)
    row_minima = envelope._row_minima

    def rows_only(g, *args):
        assert g.terms is None
        return row_minima(g, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_row_minima", rows_only)
        if bad == -math.inf:
            mp.setattr(envelope, "_COARSE_MIN_ROWS", refine._MAX_GRID_POINTS)
        elif coarse_always:
            mp.setattr(envelope, "_COARSE_MIN_ROWS", 0)
        _assert_same_grid_answers(f, 0.5, X)
        got = _grid_outcome(f, 0.5, X)
        if isinstance(got, Exception):
            return
        below = [x[0] + search_radius(f, 0.5, x) < where for x in X]
        kept = _grid_outcome(f, 0.5, X[below]) if any(below) else []
        singles = [prox_map(f, 0.5, x) for x in X]
    for res, single in zip(got, singles):
        assert res.envelope_value == single.envelope_value
        assert res.radius_used == single.radius_used
        assert len(res.minimizers) == len(single.minimizers)
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.minimizers, single.minimizers))
    for res, other in zip([r for r, b in zip(got, below) if b], kept):
        assert res.envelope_value == other.envelope_value
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.minimizers, other.minimizers))


def test_a_minus_inf_band_inside_the_scanned_box_raises():
    # |x1| + x2^2 whose x1 term is -inf on (1.2, 1.21), with the false
    # certificate (0, 0, 0): at x = (3, 0) and lam 0.5 the grid spans
    # x +- 1.83, over the band.  A row scan's coarse pass can step over it
    # and return a finite value; the per-axis scan reads every grid point and
    # names the first in C order where the terms sum to -inf
    def g1(t):
        return np.where((t > 1.2) & (t < 1.21), -math.inf, np.abs(t))

    f = FunctionSpec(dim=2, evaluator=lambda P: g1(P[:, 0]) + P[:, 1] ** 2,
                     certificate=ProxBoundCertificate(0.0, 0.0, np.zeros(2)),
                     name="band", terms=(g1, lambda t: t ** 2))
    x = np.array([3.0, 0.0])
    with pytest.raises(InvalidFunctionValue) as err:
        prox_map(f, 0.5, x)
    point = np.array([1.20777638, -1.83205081])
    assert str(err.value) == f"band produced -inf at {point}"
    assert f.evaluator(point[None, :])[0] == -math.inf
    # inside the grid's box: x2 = -R is the first point of its axis
    R = search_radius(f, 0.5, x)
    assert abs(point[0] - x[0]) < R and point[1] == pytest.approx(-R, abs=1e-8)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_the_axis_refiner_reads_term_values_as_the_evaluator_does(bad):
    # a term value the scan never met, on a refinement lattice: NaN is
    # outside the domain and -inf raises, as in FunctionSpec.batch, naming
    # the lattice coordinate with the row's other coordinates.  The x1
    # lattice of round one, 0 +- 0.1 in steps of 0.0025, first passes 0.05
    # at 0.0525; the prox point is (0, 0.15), as on the lattice of the plane
    f = _separable_spec_with_bad_value(bad, 0.05)
    lam, X, W, half = (np.array([0.5]), np.array([[0.02, 0.3]]),
                       np.array([[0.0, 0.16]]), np.array([0.1]))
    if bad < 0:
        with pytest.raises(InvalidFunctionValue) as err:
            refine._axis_zoom(f, lam, X, [W[:, :1], W[:, 1:]], half)
        assert str(err.value) == f"bad produced -inf at {np.array([0.0525, 0.16])}"
        return
    W0, V0 = refine._refine(dataclasses.replace(f, terms=None), lam, X, W, half)
    W = envelope.axis_product(refine._axis_zoom(f, lam, X, [W[:, :1], W[:, 1:]], half))[0]
    V = envelope._objective(f, lam, X, W)
    assert V[0] == pytest.approx(V0[0], rel=1e-12, abs=1e-12)
    assert np.abs(W - [[0.0, 0.15]]).max() <= 1e-7
    assert np.abs(W0 - [[0.0, 0.15]]).max() <= 1e-7


def test_separable_scan_skips_the_evaluator():
    # the scan calls the terms; the evaluator sees only the certificate's
    # feasible points and the refiner's lattices, a small fraction of the
    # rows the row scan reads
    f = grid_view(parse_function("(x1^2-1)^2+abs(x2)", 2))
    rows = {}
    for key, spec in (("terms", f), ("rows", dataclasses.replace(f, terms=None))):
        seen = []
        inner = spec.evaluator
        spec.evaluator = lambda P, seen=seen, inner=inner: seen.append(len(P)) or inner(P)
        res = prox_map(spec, 0.3, [0.3, -0.2])
        rows[key] = (sum(seen), res.envelope_value)
    assert rows["terms"][1] == rows["rows"][1]
    assert rows["terms"][0] < rows["rows"][0] / 5


def _counting(f):
    """f with an evaluator that records the row count of every call."""
    seen = []
    inner = f.evaluator
    return dataclasses.replace(
        f, evaluator=lambda P: seen.append(len(P)) or inner(P)), seen


_IND_1D = grid_view(parse_function("x1^2+ind(2,3)", 1))
_IND_2D = grid_view(parse_function("x1^2+x2^2+ind(2,3)", 2))


# the parsed rows x = 0 and x = -1 (and their 2-D kin) have no feasible
# candidate, as the box [2, 3]^n holds neither x nor the anchor 0, so their
# bounds come from the coarse scans of boxes around x and the anchor: on the
# views without terms, row scans of 10001 or 101^2 rows; on the functions
# themselves, per-axis scans that pass no row through the evaluator.  Then
# one call evaluates the objective at the best point of both boxes of every
# such row, 2 rows each.  A 2-D function with terms refines one axis at a
# time, on its terms, so one more call gives the values of the refined points
@pytest.mark.parametrize("f, X, scans, boxed", [
    (_IND_1D, [[0.0], [2.5], [-1.0]], [], 4),
    (_IND_2D, [[0.0, 0.0], [2.5, 2.5], [-1.0, 2.5]], [], 4),
    (grid_view(catalog_function("double_well")), [[-2.0], [0.3], [1.7]], [], 0),
    (grid_view(catalog_function("well_plus_abs_2d")),
     [[0.3, -0.2], [-1.5, 2.0], [0.0, 0.0]], [], 0),
    (dataclasses.replace(_IND_1D, terms=None), [[0.0], [2.5], [-1.0]],
     [10001] * 4, 4),
    (dataclasses.replace(_IND_2D, terms=None),
     [[0.0, 0.0], [2.5, 2.5], [-1.0, 2.5]], [101 ** 2] * 4, 4),
])
def test_grid_radius_is_the_search_radius(f, X, scans, boxed):
    # the batch's bounds give each row the radius of search_radius at its x
    # alone, bit for bit; the rows with no feasible candidate go to the
    # coarse scan without evaluating their candidates a second time
    lam = 0.3 * min(1.0, f.certificate.threshold)
    spy, seen = _counting(f)
    got = prox_batch(spy, lam, X)
    per_x = 2 + len(f.known_minimizers)  # x, the anchor, known minimizers
    bounds = [len(X) * per_x] + scans + [boxed] * (boxed > 0)
    if f.terms is not None and f.dim > 1:  # one call for the values, no lattice
        assert len(seen) == len(bounds) + 1
        assert len(got.points) <= seen.pop() < refine._ZOOM_POINTS ** 2
    assert seen[:len(bounds)] == bounds
    assert per_x not in seen
    if f.terms is not None:  # only the refiner's lattices follow the bounds
        assert all(n % refine._ZOOM_POINTS ** f.dim == 0
                   for n in seen[len(bounds):])
    for x, res in zip(X, got):
        assert res.radius_used == search_radius(f, lam, x)


@pytest.mark.parametrize("f, lam, x, bounds", [
    (catalog_function("neg_quad", dim=3), 2.0, [1.0, 0.0, 0.0], []),
    (_IND_2D, 0.3, [0.0, 0.0], [2, 2]),
])
def test_per_axis_scans_pass_no_grid_through_the_evaluator(f, lam, x, bounds):
    # the divergence scan above neg_quad's threshold 1 and the bound boxes
    # of a point with no feasible candidate scan one axis at a time, like
    # the grid oracle, and the refiner zooms one axis at a time: the
    # evaluator sees the candidates x and the anchor, the best points of the
    # two boxes and, where a row did not diverge, one call for the values of
    # its refined points, never the 201^3 or 101^2 rows of a grid, nor a
    # refinement lattice
    spy, seen = _counting(f)
    res = prox_map(spy, lam, x)
    assert res.diverged == (lam >= f.certificate.threshold)
    assert seen[:len(bounds)] == bounds
    assert len(seen) == len(bounds) + (not res.diverged)
    assert all(n < refine._ZOOM_POINTS ** 2 for n in seen)


def test_grid_batch_makes_one_evaluator_call_for_its_bounds():
    # the per-axis scan and the per-axis refiner call no evaluator, so the
    # evaluator sees one call for the feasible bounds of the 8 points, of x,
    # the anchor and both known minimizers each, and one call for the
    # values of every refined candidate of the batch
    f = grid_view(catalog_function("well_plus_abs_2d"))
    spy, seen = _counting(f)
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(8, 2))
    batch = prox_batch(spy, 0.3, X)
    assert len(seen) == 2 and seen[0] == 8 * 4
    assert len(batch.points) <= seen[1] <= 8 * envelope._MAX_CANDIDATES


# ---------------------------------------------------------------------------
# the refiner
# ---------------------------------------------------------------------------

def _lattice_calls(f, lam: float, x) -> tuple:
    """prox_map of the grid view of f at x, and the row counts of the
    refiner's evaluator calls, the ones of whole lattices (the per-axis scan
    calls no evaluator, and the bounds of one x are fewer than 9 rows)."""
    spy, seen = _counting(grid_view(f))
    res = prox_map(spy, lam, x)
    return res, [n for n in seen if n % refine._ZOOM_POINTS ** f.dim == 0]


def test_a_smooth_minimum_stops_once_its_lattice_is_flat():
    # double_well's prox point at x = 0.3 is a smooth minimum: its lattice
    # is flat to rounding after a few 40x zooms, where zooming down to the
    # rounding of its coordinates takes 20 rounds of 4x
    f = catalog_function("double_well")
    res, lattices = _lattice_calls(f, 0.3, [0.3])
    assert len(lattices) <= 6
    closed = prox_map(f, 0.3, [0.3])
    assert res.envelope_value == pytest.approx(closed.envelope_value,
                                               rel=1e-12, abs=1e-12)
    assert len(res.minimizers) == len(closed.minimizers) == 1
    assert abs(res.minimizers[0][0] - closed.minimizers[0][0]) <= 1e-7


def test_a_kink_is_never_flat():
    # abs's prox point at x = 0.05 and lambda 0.1 is its kink 0, where the
    # lattice has a slope on both sides: the zoom goes on to the floor
    res, lattices = _lattice_calls(catalog_function("abs"), 0.1, [0.05])
    assert len(lattices) <= 10
    assert len(res.minimizers) == 1 and abs(res.minimizers[0][0]) <= 1e-12


def _counting_terms(f):
    """f with terms that record the length of every call, a list per axis."""
    seen = [[] for _ in f.terms]

    def spy(g, calls):
        return lambda t: calls.append(len(t)) or g(t)
    return dataclasses.replace(
        f, terms=tuple(spy(g, c) for g, c in zip(f.terms, seen))), seen


@pytest.mark.parametrize("f, x", [
    # x2 = 0 is the kink of |x2|, where the lattice of the plane zoomed 22
    # rounds of 9^2 rows along with the x1 axis's smooth minimum
    (catalog_function("well_plus_abs_2d"), [0.7, 0.0]),
    # x1 sits at the kink 0 of |x1|, x2 at a smooth minimum
    (catalog_function("abs", dim=2), [0.05, 0.3]),
])
def test_a_2d_kink_refines_one_axis_at_a_time(f, x):
    # each axis zooms as a 1-D pair on its own term: after the per-axis
    # scan's one call, a round is one term call of 81 points per axis, the
    # kink axis stops at the floor after at most 10 rounds and the smooth
    # one once flat, and the evaluator sees the bounds and then the refined
    # point's value, no lattice
    spy, seen = _counting(grid_view(f))
    spy, calls = _counting_terms(spy)
    res = prox_map(spy, 0.1, x)
    for rounds in calls:
        assert 1 <= len(rounds[1:]) <= 10
        assert all(n == 81 for n in rounds[1:])
    assert len(calls[0]) != len(calls[1])  # the smooth axis stopped first
    assert seen == [2 + len(f.known_minimizers), 1]
    closed = prox_map(f, 0.1, x)
    assert abs(res.envelope_value - closed.envelope_value) <= 1e-12
    assert len(res.minimizers) == len(closed.minimizers) == 1
    assert np.abs(res.minimizers[0] - closed.minimizers[0]).max() <= 1e-7


def test_a_3d_candidate_refines_each_axis_to_its_1d_prox(monkeypatch):
    # at lambda 0.3, above the derived threshold 1/6, the rows take the
    # divergence scan, which keeps them (the quartics grow), and then the
    # per-axis refiner with three axes.  The objective splits by coordinate,
    # so each row's envelope is the sum of the 1-D exact envelopes of
    # x1^4-x1^2 and its prox point is the product of their prox points
    f = grid_view(parse_function("x1^4-x1^2+x2^4-x2^2+x3^4-x3^2", 3))
    g = parse_function("x1^4-x1^2", 1)
    assert f.certificate.threshold == pytest.approx(1.0 / 6.0)
    X = np.array([[0.0, 0.3, -1.2], [0.5, -0.5, 2.0], [1.0, 0.0, 0.1]])
    shapes, axis_zoom = [], envelope._axis_zoom
    monkeypatch.setattr(envelope, "_axis_zoom", lambda f, lam, X, axes, half: (
        shapes.append([a.shape for a in axes]) or axis_zoom(f, lam, X, axes, half)))
    batch = prox_batch(f, 0.3, X)
    assert shapes == [[(3, 1)] * 3] and not batch.diverged.any()
    radius = envelope.CLUSTER_STEPS * f.grid_step
    for x, res in zip(X, batch):
        axes = [prox_map(g, 0.3, [xj]) for xj in x]
        assert abs(res.envelope_value - sum(a.envelope_value for a in axes)) <= 1e-12
        prox = envelope.axis_product([np.ravel(a.minimizers) for a in axes])
        for m in res.minimizers:
            assert np.linalg.norm(prox - m, axis=1).min() <= radius
        single = prox_map(f, 0.3, x)
        assert single.envelope_value == res.envelope_value
        assert single.radius_used == res.radius_used
        assert np.array_equal(single.minimizers, res.minimizers)


def _axis_sum(term: str, dim: int):
    """The parsed sum over x1..x_dim of term, written with {0} for x_j."""
    return parse_function("+".join(term.format(f"x{j}") for j in range(1, dim + 1)), dim)


def test_a_6d_quartic_sum_reports_each_of_its_64_proximal_points():
    # x^4 - x^2 per axis at lambda 2, above the derived threshold 1/12, so
    # the divergence scan runs: at x = 0 each axis's objective t^4 - 3 t^2 / 4
    # has the two minimizers +-sqrt(3/8), and the prox set is their 64
    # products, of value 6 times the 1-D envelope
    f = _axis_sum("{0}^4-{0}^2", 6)
    assert f.certificate.threshold < 2.0
    res = prox_map(f, 2.0, np.zeros(6))
    one = prox_map(parse_function("x1^4-x1^2", 1), 2.0, [0.0]).envelope_value
    assert len(res.minimizers) == 64
    assert len({tuple(np.sign(m)) for m in res.minimizers}) == 64
    assert abs(res.envelope_value - 6.0 * one) <= 1e-12 * abs(6.0 * one)


@pytest.mark.parametrize("dim", [8, 10])
def test_a_kink_sum_reports_every_proximal_point_without_the_axes_product(dim):
    # min(|t - 1|, |t + 1|) - t^2 / 2 per axis at lambda 1, above the derived
    # threshold 1/dim: each axis's objective is min(|t - 1|, |t + 1|), 0 at
    # +-1 only, so x = 0 has the 2^dim proximal points (+-1, ..., +-1) of
    # value 0.  The divergence grids have 4 minima per axis, 4^dim products,
    # which the solve never builds: 13.4 MB were traced in 10-D when it did
    f = _axis_sum("min(abs({0}-1),abs({0}+1))-0.5*{0}^2", dim)
    tracemalloc.start()
    try:
        res = prox_map(f, 1.0, np.zeros(dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.minimizers) == 2 ** dim and abs(res.envelope_value) <= 1e-12
    assert np.abs(np.abs(res.minimizers) - 1.0).max() <= 1e-7
    assert peak < 2_000_000


@pytest.mark.parametrize("dim", [10, 12])
def test_the_cluster_sweep_keeps_a_kink_sums_points_in_order(dim, monkeypatch):
    # the kink sum above at lambda 1 and x = 0, above its derived threshold:
    # its 2^dim proximal points (+-1, ..., +-1), in the order of the test's
    # clustering rule.  The sweep makes one distance call per representative,
    # where a loop over pairs, by _norms or math.dist, makes 4^dim / 2
    f = _axis_sum("min(abs({0}-1),abs({0}+1))-0.5*{0}^2", dim)
    X = np.zeros((1, dim))
    inside, calls = [False], [0]

    def cluster(*args):
        inside[0] = True
        try:
            return real_cluster(*args)
        finally:
            inside[0] = False

    def counted(real):
        def call(*args):
            calls[0] += inside[0]
            return real(*args)
        return call

    real_cluster = envelope._cluster
    with monkeypatch.context() as m:
        m.setattr(envelope, "_cluster", cluster)
        m.setattr(envelope, "_norms", counted(envelope._norms))
        m.setattr(math, "dist", counted(math.dist))
        res = prox_map(f, 1.0, X[0])
    assert calls[0] <= len(res.minimizers) == 2 ** dim
    # the reference, from every exact candidate (-1, 0 and 1 per axis)
    C = functions.axis_product([a[:, a[0] == a[0]] for a in f.closed_form_prox(1.0, X)])[0]
    V = envelope._objective(f, 1.0, X[0], C)
    if dim == 10:
        want = _cluster_sorted(C.tolist(), V.tolist(), V.min(),
                               envelope.CLUSTER_STEPS * f.grid_step)
    else:  # _cluster_sorted's loop would take seconds; it keeps each of these
        # points, every two of which are 2 or more apart, more than the
        # radius, in (value, lexicographic) order
        near = V <= V.min() + envelope.VALUE_TOL
        want = [p for _, p in sorted(zip(V[near].tolist(), C[near].tolist()))]
        assert len(want) == 2 ** dim and np.abs(want).min() == 1.0
        assert envelope.CLUSTER_STEPS * f.grid_step < 2.0
    assert np.array_equal(res.minimizers, want)


_AXIS_TERMS = ("{0}^4-{0}^2", "min(abs({0}-1),abs({0}+1))-0.5*{0}^2",
               "abs({0})-0.3*{0}^2", "({0}^2-1)^2", "min({0}^2,({0}-2)^2+0.5)")


@st.composite
def separable_rows(draw):
    """A grid view of a 2-D function with terms below its threshold, or a
    parsed sum of 3 or 4 axis terms at or above its finite threshold, with
    its lam and rows."""
    if draw(st.booleans()):
        f = grid_view(draw(separable_2d() | catalog_or_shift(2)))
        assume(f.terms is not None)
        lam = _lam(f, draw(st.floats(0.05, 0.95)))
    else:
        dim = draw(st.sampled_from([3, 4]))
        terms = draw(st.lists(st.sampled_from(_AXIS_TERMS), min_size=dim,
                              max_size=dim))
        f = parse_function("+".join(t.format(f"x{j}")
                                    for j, t in enumerate(terms, 1)), dim)
        assume(f.terms is not None and math.isfinite(f.certificate.threshold))
        lam = draw(st.floats(1.0, 3.0)) * f.certificate.threshold
    return f, lam, np.array(draw(points(f.dim, max_size=3)))


def _full_product_answers(f, lam: float, X: np.ndarray) -> list:
    """The scanned answers of a function with terms at the rows of X, built
    here from the scan's candidates (envelope._grid_candidates below the
    threshold, envelope._divergence_candidates at or above it): each
    coordinate refined alone, as a 1-D pair on g_j(t) + (t - x_j)^2 / (2 lam)
    (refine._zoom), the full product of those, neither cut nor capped, and
    _pick's rule on its _objective values: the points within VALUE_TOL of
    the least, clustered by _cluster_sorted.  A row without a candidate is
    None."""
    lams = np.full(len(X), lam)
    scan = (envelope._grid_candidates if lam < f.certificate.threshold
            else envelope._divergence_candidates)
    _, step, blocks = scan(f, lams, X)
    out = []
    for i, x in enumerate(X):
        axes = []
        for g, xj, B in zip(f.terms, x, blocks):
            c = B[i, :, 0][~np.isnan(B[i, :, 0])]

            def values(idx, T, g=g, xj=xj):
                t = T[:, :, 0]
                v = g(t.ravel()).reshape(t.shape) + (t - xj) ** 2 / (2.0 * lam)
                return np.where(np.isnan(v), math.inf, v)

            half = np.full(len(c), step[i])
            axes.append(refine._zoom(values, c[:, None], half)[0][:, 0])
        if not axes[0].size:
            out.append(None)
            continue
        C = functions.axis_product(axes)
        V = envelope._objective(f, lam, x, C)
        reps = _cluster_sorted(C, V, V.min(), envelope.CLUSTER_STEPS * f.grid_step)
        out.append((V.min(), np.array(reps)))
    return out


@settings(max_examples=40, deadline=None)
@given(case=separable_rows())
def test_separable_scans_answer_as_the_full_product_of_their_refined_axes(case):
    # the solve refines each axis's coordinates of a row once and combines
    # only the near-best ones: the answer of the full product of every
    # refined minimum, bit for bit, and the scan's radius
    f, lam, X = case
    try:
        got = prox_batch(f, lam, X)
    except MoreauKitError:
        assume(False)
    radius = (envelope._grid_candidates if lam < f.certificate.threshold
              else envelope._divergence_candidates)(f, np.full(len(X), lam), X)[0]
    assert got.radius.tobytes() == radius.tobytes()
    for i, want in enumerate(_full_product_answers(f, lam, X)):
        points = got.points[got.offsets[i]:got.offsets[i + 1]]
        if want is None:
            assert got.diverged[i] and math.isnan(got.value[i]) and not len(points)
            continue
        assert not got.diverged[i] and got.value[i].tobytes() == want[0].tobytes()
        assert points.tobytes() == want[1].tobytes()


@settings(max_examples=40, deadline=None)
@given(f=st.one_of(catalog_or_shift(2), separable_2d(parsed=True)),
       frac=st.floats(0.05, 0.4), X=points(2, max_size=2))
# a term that returns a view of its argument, as x1's does: the refiner adds
# the quadratic into arrays of its own, never into a term's output
@example(f=parse_function("x1", 2), frac=0.25, X=[[0.0, 0.0], [0.3, -1.0]])
def test_per_axis_refinement_matches_the_lattice_and_brute_force(f, frac, X):
    # the per-axis refiner gives the value that the lattice of the plane
    # gives the same function without terms to rounding, and a value no more
    # than criterion 08's budget above the independent dense scan, whose
    # values are all feasible.  It is the objective at its first point, so
    # never below the envelope; the dense scan itself can be: its own error
    # grows with the curvature, which parsed terms make large.  The budget
    # is absolute, so draws whose values reach 1e8 near x are left out, as
    # in test_per_axis_scan_matches_the_row_scan.  Where the objective moves
    # more than rounding within the refiners' resolution, as at the edge of
    # sqrt's domain, the two values agree within that (_resolution_slack)
    assume(f.terms is not None)
    f = grid_view(f)
    lam = _lam(f, frac)
    X = np.array(X)
    try:
        radius = max(search_radius(f, lam, x) for x in X)
        assume(radius <= 4.0)  # within the dense scan's default window
        got = prox_batch(f, lam, X)
    except MoreauKitError:
        assume(False)
    vals = np.concatenate([f.batch(envelope.axis_product(
        [np.linspace(-radius, radius, 21) + xj for xj in x])) for x in X])
    assume(np.all(np.abs(vals[np.isfinite(vals)]) < 1e8))
    ref = prox_batch(dataclasses.replace(f, terms=None), lam, X)
    for x, p, q, a, b in zip(X, got.points[got.offsets[:-1]],
                             ref.points[ref.offsets[:-1]], got.value.tolist(),
                             ref.value.tolist()):
        slack = _resolution_slack(f, lam, x, p) + _resolution_slack(f, lam, x, q)
        assert abs(a - b) <= 64 * _EPS * (1.0 + abs(b)) + slack
        assert a == envelope._objective(f, lam, x, p)
        assert a <= brute_envelope_2d(f, lam, x) + 100.0 * f.grid_step ** 2 + 1e-9


def _curved(f, lam: float, x: np.ndarray, p: np.ndarray) -> bool:
    """Whether the prox objective of f at x curves by at least 1 along each
    axis around p, by second differences.  Where it does not, as at
    double_well's triple root (lambda 0.25, x = 0, objective w^4 + 1),
    rounding alone hides its minimizer within far more than 1e-7."""
    d = 1e-3 * np.eye(f.dim)
    W = np.concatenate([p + d, p - d, p[None]])
    v = f(W) + ((W - x) ** 2).sum(axis=1) / (2.0 * lam)
    return bool(np.all(v[:f.dim] + v[f.dim:-1] - 2.0 * v[-1] >= 1e-6))


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), frac=st.floats(0.05, 0.5), data=st.data())
def test_refined_grid_answers_match_the_closed_form(dim, frac, data):
    # wherever the refiner stops, the grid oracle's value is the closed
    # form's to rounding, and a single prox point of a curved objective
    # lies far inside the grid step of the closed form's
    f = _draw_catalog(data.draw, dim)
    lam = _lam(f, frac)
    X = np.array(data.draw(points(f.dim, max_size=4)))
    for x, g, c in zip(X, prox_batch(grid_view(f), lam, X), prox_batch(f, lam, X)):
        e = c.envelope_value
        assert abs(g.envelope_value - e) <= 1e-12 * (1.0 + abs(e))
        if (len(g.minimizers) == len(c.minimizers) == 1
                and _curved(f, lam, x, c.minimizers[0])):
            assert np.linalg.norm(g.minimizers[0] - c.minimizers[0]) <= 1e-7


# ---------------------------------------------------------------------------
# every reported value is the objective at a reported point
# ---------------------------------------------------------------------------

NON_SEPARABLE_2D = "(x1^2-1)^2+abs(x2)+0.5*x1*x2"


@st.composite
def solve_cases(draw):
    """A function, a lam and points, solved on every path: a catalog
    function, a quad_shift of one or a parsed expression (the non-separable
    NON_SEPARABLE_2D among the 2-D ones), taken as it is (its closed form,
    where it has one), as its grid view (the per-axis scan, where it has
    terms) or as that view without terms (the row scan), at a lam below its
    threshold or at or above a finite one (the divergence scan)."""
    dim = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        f = draw(catalog_or_shift(dim))
    else:
        expr = _expressions(dim)
        f = parse_function(draw(st.just(NON_SEPARABLE_2D) | expr if dim == 2
                                else expr), dim)
        assume(f.certificate.source == "derived")
    view = draw(st.sampled_from(["as is", "grid", "rows"]))
    if view != "as is":
        f = _grid_or_row_view(f, view == "rows")
    th = f.certificate.threshold
    if math.isfinite(th) and draw(st.booleans()):
        lam = draw(st.floats(1.0, 3.0)) * th
    else:
        lam = _lam(f, draw(st.floats(0.05, 0.95)))
    return f, lam, np.array(draw(points(dim, max_size=2)))


@settings(max_examples=80, deadline=None)
@given(case=solve_cases())
# at its threshold, the per-axis divergence scan's term sums
# ((-0.0156) - x1) + x1, which rounds to -0.015600000000000058 at x1 = 1
@example(case=(parse_function("-(0.0156+(x1-x1))", 1), 0.49999999999999734,
               np.array([[1.0]])))
# the row scan adds the quadratics to f in another order than _objective
@example(case=(parse_function(NON_SEPARABLE_2D, 2), 0.3, np.array([[-1.0, 0.0]])))
# a grid step (about 5e3) below rounding of the candidate's coordinate: the
# refiner's round one still evaluates it
@example(case=(grid_view(catalog_function("abs")), 0.5, np.array([[1e20]])))
# alpha = beta ~ -5.2e205: B^2 - 4 A C of the search radius overflows unscaled
@example(case=(parse_function("(x1/9.6e-207)", 1), 4.7999999999999866e-207,
               np.array([[0.0]])))
def test_every_value_is_the_objective_at_its_first_point(case):
    # the value of every row that did not diverge is f(p) + ||p - x||^2 /
    # (2 lam) at its first representative p, bit for bit, on every path:
    # the scans' own sums locate candidates but give no value
    f, lam, X = case
    try:
        batch = prox_batch(f, lam, X)
    except MoreauKitError:
        return  # a raised error reports no value
    for i, x in enumerate(X):
        if not batch.diverged[i]:
            p = batch.points[batch.offsets[i]]
            assert batch.value[i] == envelope._objective(f, lam, x, p)
