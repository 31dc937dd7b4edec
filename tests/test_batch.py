"""Properties of the batched prox solver and of the checks that call it."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moreaukit import (
    FunctionSpec,
    ProxBoundCertificate,
    ProxSolveConfig,
    catalog_function,
    check_min_transfer,
    estimate_strong_modulus,
    prox_batch,
    prox_map,
    verify_local_min,
)
from moreaukit.errors import InvalidFunctionValue

from conftest import brute_envelope_1d, brute_envelope_2d

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
       frac=st.floats(0.05, 0.95), force_grid=st.booleans(),
       data=st.data())
def test_batch_rows_match_single_solves(name, frac, force_grid, data):
    # an answer depends on its own x only: any batch, in any order, gives
    # each row what prox_map gives that point alone
    f = catalog_function(name)
    lam = _lam(f, frac)
    X = np.array(data.draw(points(f.dim, max_size=3 if force_grid else 8)))
    order = data.draw(st.permutations(range(len(X))))
    batch = prox_batch(f, lam, X[order], force_grid=force_grid)
    for i, res in zip(order, batch):
        single = prox_map(f, lam, X[i], force_grid=force_grid)
        assert len(res.minimizers) == len(single.minimizers)
        assert abs(res.envelope_value - single.envelope_value) <= 1e-12


def _roots_reference(lam: float, x: float) -> list:
    """Minimizers of (w^2-1)^2 + (w-x)^2/(2 lam) from np.roots of the
    stationarity cubic 4 lam w^3 + (1 - 4 lam) w - x = 0."""
    roots = np.roots([4.0 * lam, 0.0, 1.0 - 4.0 * lam, -x])
    real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)
    vals = [(w * w - 1.0) ** 2 + (w - x) ** 2 / (2.0 * lam) for w in real]
    best = min(vals)
    return [w for w, v in zip(real, vals) if v <= best + 1e-12 * max(1.0, abs(best))]


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
        assert np.allclose(got, ref, rtol=0.0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.01, 3.0), xs=st.lists(coord, min_size=1, max_size=10))
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
    for x, res in zip(xs, prox_batch(f, lam, np.array(xs)[:, None],
                                     force_grid=True)):
        ref = brute_envelope_1d(f, lam, x, lo=-80.0, hi=80.0)
        assert abs(res.envelope_value - ref) <= tol


@settings(max_examples=6, deadline=None)
@given(frac=st.floats(0.05, 0.95), X=points(2, max_size=3))
def test_grid_batch_matches_brute_force_2d(frac, X):
    f = catalog_function("well_plus_abs_2d")
    lam = _lam(f, frac)
    tol = 100.0 * ProxSolveConfig().step_for(2) ** 2 + 1e-9
    for x, res in zip(X, prox_batch(f, lam, np.array(X), force_grid=True)):
        assert abs(res.envelope_value - brute_envelope_2d(f, lam, x)) <= tol


def test_evaluator_calls_stay_under_the_grid_cap():
    # a far point gives a certified radius whose 2-D grid is coarsened
    f = catalog_function("abs", dim=2)
    rows = []
    inner = f.evaluator
    f.evaluator = lambda P: rows.append(len(P)) or inner(P)
    res = prox_map(f, 1.0, [30.0, -30.0], force_grid=True)
    assert max(rows) <= 4_000_000
    assert max(rows) > 3_000_000  # the cap was reached
    assert res.envelope_value == pytest.approx(59.0, abs=1e-6)


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
    f = _spec_with_bad_value(bad, where)
    with pytest.raises(InvalidFunctionValue):
        f(np.array([[0.0], [where + 0.01]]))
    with pytest.raises(InvalidFunctionValue):
        verify_local_min(f, [0.0], 0.5)
    with pytest.raises(InvalidFunctionValue):
        estimate_strong_modulus(f, [0.0], 0.5)
    with pytest.raises(InvalidFunctionValue):
        check_min_transfer(f, [0.0], 0.1, 0.5)


def test_function_spec_call_shapes():
    f = catalog_function("abs")
    assert f([-2.0]) == 2.0
    assert np.array_equal(f(np.array([[-2.0], [0.5]])), [2.0, 0.5])
