"""Properties of the batched prox solver and of the checks that call it."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from moreaukit import (
    FunctionSpec,
    ProxBoundCertificate,
    ProxSolveConfig,
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
from moreaukit import envelope
from moreaukit.errors import InvalidFunctionValue, MoreauKitError

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


def points(dim: int, min_size: int = 1, max_size: int = 6):
    return st.lists(st.lists(coord, min_size=dim, max_size=dim),
                    min_size=min_size, max_size=max_size)


def _lam(f, frac: float) -> float:
    return frac * min(1.0, f.certificate.threshold)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(CATALOG_1D + ("well_plus_abs_2d",)),
       frac=st.floats(0.05, 0.95), grid=st.booleans(),
       data=st.data())
def test_batch_rows_match_single_solves(name, frac, grid, data):
    # an answer depends on its own x only: any batch, in any order, gives
    # each row what prox_map gives that point alone, on either oracle
    f = catalog_function(name)
    if grid:
        f = grid_view(f)
    lam = _lam(f, frac)
    X = np.array(data.draw(points(f.dim, max_size=3 if grid else 8)))
    order = data.draw(st.permutations(range(len(X))))
    batch = prox_batch(f, lam, X[order])
    for i, res in zip(order, batch):
        single = prox_map(f, lam, X[i])
        assert len(res.minimizers) == len(single.minimizers)
        assert abs(res.envelope_value - single.envelope_value) <= 1e-12


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
    cands = f.closed_form_prox(lam, np.array(xs)[:, None])
    assert cands.shape[0] == len(xs) and cands.shape[2] == 1
    for x, c in zip(xs, cands[:, :, 0]):
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
    tol = 100.0 * ProxSolveConfig().step_for(1) ** 2 + 1e-9
    for x, res in zip(xs, prox_batch(grid_view(f), lam, np.array(xs)[:, None])):
        ref = brute_envelope_1d(f, lam, x, lo=-80.0, hi=80.0)
        assert abs(res.envelope_value - ref) <= tol


@settings(max_examples=6, deadline=None)
@given(frac=st.floats(0.05, 0.95), X=points(2, max_size=3))
def test_grid_batch_matches_brute_force_2d(frac, X):
    f = catalog_function("well_plus_abs_2d")
    lam = _lam(f, frac)
    tol = 100.0 * ProxSolveConfig().step_for(2) ** 2 + 1e-9
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


def test_empty_batch_has_no_results():
    assert prox_batch(catalog_function("abs"), 0.5, np.empty((0, 1))) == []


def test_function_spec_call_shapes():
    f = catalog_function("abs")
    assert f([-2.0]) == 2.0
    assert np.array_equal(f(np.array([[-2.0], [0.5]])), [2.0, 0.5])


# ---------------------------------------------------------------------------
# the two-level grid scan
# ---------------------------------------------------------------------------

CATALOG_2D = ("quadratic", "abs", "huber", "box", "neg_quad", "double_well",
              "well_plus_abs_2d")


@st.composite
def catalog_or_shift(draw, dim: int):
    """A catalog function of dimension dim, or its quad_shift by a random
    sigma and centre."""
    if dim == 1:
        f = catalog_function(draw(st.sampled_from(CATALOG_1D)))
    else:
        name = draw(st.sampled_from(CATALOG_2D))
        f = catalog_function(name) if name == "well_plus_abs_2d" \
            else catalog_function(name, dim=2)
    if draw(st.booleans()):
        sigma = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
        center = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
        f = quad_shift(f, QuadShift(sigma, center))
    return f


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), frac=st.floats(0.05, 0.4),
       coarse_always=st.booleans(), data=st.data())
def test_two_level_scan_matches_brute_force(dim, frac, coarse_always, data):
    # criterion 08's envelope budget against the independent dense scan;
    # lam <= 0.4 of the threshold keeps every prox point within 5 of x, and
    # both oracles have the box ends 0 and 1 on their grids.  Most grids here
    # are below the coarse pass's size floor, so half the draws lower the
    # floor to 0.
    f = data.draw(catalog_or_shift(dim))
    lam = _lam(f, frac)
    X = np.array(data.draw(points(dim, max_size=2)))
    tol = 100.0 * ProxSolveConfig().step_for(dim) ** 2 + 1e-9
    with pytest.MonkeyPatch.context() as mp:
        if coarse_always:
            mp.setattr(envelope, "_COARSE_MIN_ROWS", 0)
        results = prox_batch(grid_view(f), lam, X)
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
        pytest.approx(0.5625, abs=100.0 * ProxSolveConfig().step_for(2) ** 2 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(frac=st.floats(0.05, 0.95), coarse_always=st.booleans(), data=st.data())
def test_prox_points_lie_within_the_search_radius(frac, coarse_always, data):
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
        res = prox_map(grid_view(f), lam, x)
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
                   elements=st.sampled_from([0.0, 1.0, 2.0, 0.5, math.inf])))
def test_local_minima_match_the_padded_reference(vals):
    # a few distinct values force ties; +inf marks points outside the domain
    assert np.array_equal(envelope._local_minima(vals), _local_minima_padded(vals))


def _cluster_sorted(points, values, best: float, value_tol: float,
                    radius: float) -> list:
    """The clustering rule without its single-candidate shortcut: the points
    within value_tol of best in (value, lexicographic) order, each kept
    unless within radius of one kept before."""
    keep = [(v, tuple(p), p) for p, v in zip(points, values)
            if v <= best + value_tol]
    keep.sort(key=lambda t: (t[0], t[1]))
    reps: list = []
    for _, _, p in keep:
        if all(math.dist(p, r) > radius for r in reps):
            reps.append(p)
    return reps


def _clustered(f, lam: float, X: np.ndarray, cfg: ProxSolveConfig) -> list:
    """Closed-form results with every row clustered by _cluster_sorted."""
    C = f.closed_form_prox(lam, X)
    vals = envelope._objective(f, lam, X[:, None, :], C)
    best = np.fmin.reduce(vals, axis=1)
    out = []
    for x, cands, v, b in zip(X, C, vals.tolist(), best.tolist()):
        reps = _cluster_sorted(cands, v, b, cfg.value_tol, cfg.cluster_for(f.dim))
        out.append((b, reps, max(math.dist(w, x) for w in reps)))
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
    cfg = ProxSolveConfig()
    got = prox_batch(f, lam, X, cfg)
    for res, (b, reps, r) in zip(got, _clustered(f, lam, X, cfg)):
        assert res.envelope_value == b and res.radius_used == r
        assert len(res.minimizers) == len(reps)
        assert all(np.array_equal(m, w) for m, w in zip(res.minimizers, reps))
        assert not res.diverged


# ---------------------------------------------------------------------------
# the per-axis scan of separable functions
# ---------------------------------------------------------------------------

def _grid_outcome(f, lam: float, X: np.ndarray):
    """prox_batch on the grid path, or the exception it raises."""
    try:
        return prox_batch(grid_view(f), lam, X)
    except MoreauKitError as exc:
        return exc


def _assert_same_grid_answers(f, lam: float, X: np.ndarray) -> None:
    """The per-axis scan of f gives the answers of the row scan of the same
    function with terms=None: the same exception, or envelope values within
    1e-12 and every prox point within cluster_radius of one of the other."""
    assert f.terms is not None
    got = _grid_outcome(f, lam, X)
    ref = _grid_outcome(dataclasses.replace(f, terms=None), lam, X)
    if isinstance(ref, Exception) or isinstance(got, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    radius = ProxSolveConfig().cluster_for(f.dim)
    for a, b in zip(got, ref):
        assert a.diverged == b.diverged and a.radius_used == b.radius_used
        assert a.envelope_value == pytest.approx(b.envelope_value,
                                                 rel=1e-12, abs=1e-12)
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


@settings(max_examples=60, deadline=None)
@given(f=separable_2d(), frac=st.floats(0.05, 0.95), coarse_always=st.booleans(),
       data=st.data())
def test_per_axis_scan_matches_the_row_scan(f, frac, coarse_always, data):
    lam = _lam(f, frac)
    X = np.array(data.draw(points(2, max_size=3)))
    try:
        radius = max(search_radius(f, lam, x) for x in X)
        assume(radius <= 6.0)  # keeps the row scan of the reference small
        vals = np.concatenate([f.batch(envelope.grid(x, radius, 21)) for x in X])
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
@given(f=separable_2d(parsed=False), frac=st.floats(0.05, 0.95),
       coarse_always=st.booleans(), data=st.data())
def test_per_axis_candidates_are_the_row_scan_ones(f, frac, coarse_always, data):
    # the same radius, step and grid-local minima, in the same C order, with
    # values within rounding: catalog and shift objectives have no flat
    # stretch where the two sums could round to different neighbour orders
    lam = _lam(f, frac)
    rows = dataclasses.replace(f, terms=None)
    h = ProxSolveConfig().step_for(2)
    with pytest.MonkeyPatch.context() as mp:
        if coarse_always:
            mp.setattr(envelope, "_COARSE_MIN_ROWS", 0)
        for x in np.array(data.draw(points(2, max_size=2))):
            R, pts, vals, step = envelope._grid_candidates(f, lam, x, h)
            R0, pts0, vals0, step0 = envelope._grid_candidates(rows, lam, x, h)
            assert (R, step) == (R0, step0)
            np.testing.assert_array_equal(pts, pts0)
            np.testing.assert_allclose(vals, vals0, rtol=1e-12, atol=1e-12)


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
@given(bad=st.sampled_from([math.nan, -math.inf]), where=st.floats(-1.0, 4.0),
       coarse_always=st.booleans(), data=st.data())
def test_bad_term_values_act_as_in_the_row_scan(bad, where, coarse_always, data):
    # NaN is outside the domain in both scans; -inf raises, naming the same
    # point, exactly where the row scan meets it, and not where the scanned
    # grid stays below where
    f = _separable_spec_with_bad_value(bad, where)
    X = np.array(data.draw(points(2, max_size=2)))
    with pytest.MonkeyPatch.context() as mp:
        if coarse_always:
            mp.setattr(envelope, "_COARSE_MIN_ROWS", 0)
        _assert_same_grid_answers(f, 0.5, X)


def test_separable_scan_skips_the_evaluator():
    # the scan calls the terms; the evaluator sees only the certificate's
    # feasible points and the refiner's lattices, a small fraction of the
    # rows the row scan reads
    f = parse_function("(x1^2-1)^2+abs(x2)", 2)
    rows = {}
    for key, spec in (("terms", f), ("rows", dataclasses.replace(f, terms=None))):
        seen = []
        inner = spec.evaluator
        spec.evaluator = lambda P, seen=seen, inner=inner: seen.append(len(P)) or inner(P)
        res = prox_map(spec, 0.3, [0.3, -0.2])
        rows[key] = (sum(seen), res.envelope_value)
    assert rows["terms"][1] == rows["rows"][1]
    assert rows["terms"][0] < rows["rows"][0] / 5
