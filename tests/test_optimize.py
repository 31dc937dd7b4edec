import numpy as np
import pytest

from moreaukit import (
    catalog_function,
    compare_traces,
    envelope_gd_run,
    proximal_point_run,
)
from moreaukit.errors import InvalidArgument, ThresholdExceeded


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
