import dataclasses

import numpy as np
import pytest

from moreaukit import (
    catalog_function,
    compare_traces,
    envelope_gd_run,
    ppm_gd_runs,
    proximal_point_run,
)
from moreaukit import optimize, suite
from moreaukit.errors import InvalidArgument, ThresholdExceeded

from conftest import grid_view


class TestProximalPoint:
    def test_quadratic_geometric_decay(self):
        # for x^2 at lam=0.5 the prox is x/2: iterates halve each step
        trace = proximal_point_run(catalog_function("quadratic"), [1.0], 0.5,
                                   max_iters=10, stop_tol=0.0)
        for k, p in enumerate(trace.points):
            assert p[0] == pytest.approx(0.5 ** k)

    def test_abs_soft_threshold_chain(self):
        # |.| at lam=1: each step moves one unit toward 0, then sticks
        trace = proximal_point_run(catalog_function("abs"), [3.0], 1.0,
                                   max_iters=6, stop_tol=0.0)
        xs = [p[0] for p in trace.points]
        assert xs[:5] == pytest.approx([3.0, 2.0, 1.0, 0.0, 0.0])

    def test_monotone_envelope_descent(self):
        trace = proximal_point_run(catalog_function("double_well"), [0.4],
                                   0.05, max_iters=30)
        for a, b in zip(trace.values, trace.values[1:]):
            assert b <= a + 1e-9

    def test_converges_to_local_min(self):
        trace = proximal_point_run(catalog_function("piecewise"), [3.0], 0.1,
                                   max_iters=200)
        assert trace.converged
        assert trace.points[-1][0] == pytest.approx(2.0, abs=1e-6)

    def test_threshold_rejected(self):
        with pytest.raises(ThresholdExceeded):
            proximal_point_run(catalog_function("neg_quad"), [1.0], 1.5)

    def test_a_nan_lambda_is_rejected(self):
        with pytest.raises(InvalidArgument):
            proximal_point_run(catalog_function("abs"), [1.0], float("nan"))

    def test_multivalued_step_recorded(self):
        trace = proximal_point_run(catalog_function("double_well"), [0.0], 0.5,
                                   max_iters=5, stop_tol=0.0)
        assert 0 in trace.multivalued_steps
        # a branch is selected deterministically and then stays put
        assert abs(trace.points[1][0]) == pytest.approx(np.sqrt(0.5), abs=1e-9)
        repeat = proximal_point_run(catalog_function("double_well"), [0.0],
                                    0.5, max_iters=5, stop_tol=0.0)
        assert repeat.points[1][0] == trace.points[1][0]


class TestEnvelopeGD:
    def test_equals_ppm_with_step_lambda(self):
        for name, x0, lam in (("quadratic", [1.0], 0.5), ("abs", [3.0], 1.0),
                              ("huber", [2.0], 0.5)):
            f = catalog_function(name)
            ppm = proximal_point_run(f, x0, lam, max_iters=20, stop_tol=0.0)
            gd = envelope_gd_run(f, x0, lam, step=lam, max_iters=20,
                                 stop_tol=0.0)
            assert compare_traces(ppm, gd) <= 1e-12

    def test_zero_step_is_constant(self):
        trace = envelope_gd_run(catalog_function("quadratic"), [1.0], 0.5,
                                step=0.0, max_iters=3, stop_tol=-1.0)
        for p in trace.points:
            assert p[0] == 1.0

    def test_negative_step_rejected(self):
        with pytest.raises(InvalidArgument):
            envelope_gd_run(catalog_function("quadratic"), [1.0], 0.5,
                            step=-0.1)

    def test_multivalued_aborts_with_partial_trace(self):
        trace = envelope_gd_run(catalog_function("double_well"), [0.0], 0.5,
                                step=0.5, max_iters=5, stop_tol=0.0)
        assert trace.aborted
        assert len(trace.points) == 1
        assert trace.iterations == 0 and not trace.converged
        # the multivalued prox that stops GD is not a step GD took: PPM,
        # from the same start, steps from it and records it
        assert trace.multivalued_steps == []
        ppm = proximal_point_run(catalog_function("double_well"), [0.0], 0.5,
                                 max_iters=5, stop_tol=0.0)
        assert not ppm.aborted and ppm.multivalued_steps == [0]

    def test_one_solve_per_iterate(self):
        # the prox at x_{k+1} gives both its value and the next gradient
        f = catalog_function("quadratic")
        solves = []
        inner = f.closed_form_prox
        f.closed_form_prox = lambda lam, X: solves.append(len(X)) or inner(lam, X)
        trace = envelope_gd_run(f, [1.0], 0.5, step=0.5, max_iters=5,
                                stop_tol=0.0)
        assert len(solves) == len(trace.points) == 6

    def test_2d(self):
        f = catalog_function("well_plus_abs_2d")
        ppm = proximal_point_run(f, [0.6, 0.8], 0.05, max_iters=15,
                                 stop_tol=0.0)
        gd = envelope_gd_run(f, [0.6, 0.8], 0.05, step=0.05, max_iters=15,
                             stop_tol=0.0)
        assert compare_traces(ppm, gd) <= 1e-10


class TestTrace:
    def test_csv_format(self):
        trace = proximal_point_run(catalog_function("quadratic"), [1.0], 0.5,
                                   max_iters=2, stop_tol=0.0)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "iter,x1,envelope_value"
        assert lines[1].startswith("0,1,")
        assert len(lines) == 1 + len(trace.points)

    def test_csv_17_digit_round_trip(self):
        trace = proximal_point_run(catalog_function("double_well"), [0.37],
                                   0.05, max_iters=3, stop_tol=0.0)
        lines = trace.to_csv().strip().split("\n")[1:]
        for line, p, v in zip(lines, trace.points, trace.values):
            _, x, val = line.split(",")
            assert float(x) == p[0]
            assert float(val) == v

    def test_compare_traces_common_prefix(self):
        a = proximal_point_run(catalog_function("quadratic"), [1.0], 0.5,
                               max_iters=5, stop_tol=0.0)
        b = proximal_point_run(catalog_function("quadratic"), [1.0], 0.5,
                               max_iters=3, stop_tol=0.0)
        assert compare_traces(a, b) == 0.0


def _same_trace(a, b) -> bool:
    """Whether two traces are equal field by field, points bit for bit."""
    return (len(a.points) == len(b.points)
            and all(np.array_equal(p, q) for p, q in zip(a.points, b.points))
            and (a.values, a.converged, a.iterations, a.multivalued_steps,
                 a.aborted) == (b.values, b.converged, b.iterations,
                                b.multivalued_steps, b.aborted))


class TestLockstep:
    @pytest.mark.parametrize("f, x0, lam, step, stop_tol", [
        # the prox of the double well at 0 is the pair +-p: GD aborts at once
        # while PPM steps on from the multivalued solve
        (catalog_function("double_well"), [0.0], 0.5, 0.5, 0.0),
        # GD's shorter step converges later than PPM
        (catalog_function("quadratic"), [1.0], 0.5, 0.2, 1e-8),
        # the grid oracle in 2-D, and a GD step longer than lam
        (grid_view(catalog_function("well_plus_abs_2d")), [0.6, 0.8], 0.05,
         0.08, 1e-5),
    ])
    def test_runs_in_lockstep_are_the_separate_runs(self, f, x0, lam, step,
                                                    stop_tol, monkeypatch):
        # one prox_batch per step solves the distinct iterates of the runs
        # that have one, and each trace is the one its run gives alone
        rows = []
        batch = optimize.prox_batch
        with monkeypatch.context() as mp:
            mp.setattr(optimize, "prox_batch",
                       lambda f, lam, X: rows.append(len(X)) or batch(f, lam, X))
            ppm, gd = ppm_gd_runs(f, x0, lam, step, max_iters=30,
                                  stop_tol=stop_tol)
        assert _same_trace(ppm, proximal_point_run(f, x0, lam, 30, stop_tol))
        assert _same_trace(gd, envelope_gd_run(f, x0, lam, step, 30, stop_tol))
        assert rows == [len({t.points[k].tobytes() for t in (ppm, gd)
                             if len(t.points) > k})
                        for k in range(max(len(ppm.points), len(gd.points)))]
        assert len(ppm.points) != len(gd.points)

    @pytest.mark.parametrize("start", [s for s in suite.PPM_GD_STARTS if s[3]])
    def test_equal_iterates_take_one_row(self, start, monkeypatch):
        # with step lam, as in the suite, GD's iterates are PPM's bit for
        # bit on the grid starts, so every step solves one row
        name, x0, lam, _ = start
        f = grid_view(catalog_function(name))
        rows = []
        batch = optimize.prox_batch
        monkeypatch.setattr(optimize, "prox_batch",
                            lambda f, lam, X: rows.append(len(X)) or batch(f, lam, X))
        ppm, gd = ppm_gd_runs(f, x0, lam, lam, max_iters=suite.PPM_GD_ITERS,
                              stop_tol=0.0)
        monkeypatch.undo()
        assert _same_trace(ppm, gd)
        assert _same_trace(ppm, proximal_point_run(f, x0, lam,
                                                   suite.PPM_GD_ITERS, 0.0))
        assert rows == [1] * len(ppm.points)

    def test_suite_reports_are_those_of_separate_runs(self, monkeypatch):
        def separate(f, x0, lam, step, max_iters, stop_tol):
            return (proximal_point_run(f, x0, lam, max_iters, stop_tol),
                    envelope_gd_run(f, x0, lam, step, max_iters, stop_tol))

        together = [r.to_dict() for r in suite.run_ppm_gd_suite()]
        monkeypatch.setattr(suite, "ppm_gd_runs", separate)
        assert together == [r.to_dict() for r in suite.run_ppm_gd_suite()]

    def test_a_negative_step_is_rejected_before_any_solve(self):
        f = dataclasses.replace(catalog_function("quadratic"),
                                closed_form_prox=None, evaluator=None)
        with pytest.raises(InvalidArgument):
            ppm_gd_runs(f, [1.0], 0.5, step=-1.0)

