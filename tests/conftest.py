"""Shared fixtures and the independent brute-force envelope oracle.

The oracle here is intentionally naive (a dense vectorized scan with no
refinement and no certified radius) so it stays independent of the package's
grid solver.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moreaukit
from moreaukit import FunctionSpec


def brute_envelope_1d(f: FunctionSpec, lam: float, x: float,
                      lo: float = -12.0, hi: float = 12.0,
                      n: int = 1_200_001) -> float:
    """Dense-scan lower envelope value; accuracy ~ (grid step)^2 * curvature."""
    w = np.linspace(lo, hi, n)[:, None]
    vals = f.batch(w) + (w[:, 0] - x) ** 2 / (2.0 * lam)
    return float(np.min(vals))


def brute_argmin_1d(f: FunctionSpec, lam: float, x: float,
                    lo: float = -12.0, hi: float = 12.0,
                    n: int = 1_200_001) -> float:
    w = np.linspace(lo, hi, n)
    vals = f.batch(w[:, None]) + (w - x) ** 2 / (2.0 * lam)
    return float(w[int(np.argmin(vals))])


def brute_envelope_2d(f: FunctionSpec, lam: float, x,
                      half_width: float = 4.0, n: int = 801) -> float:
    """Dense-scan envelope value over the points within half_width of x per
    axis of the lattice through the origin with step 2 half_width / (n - 1),
    so a box whose corners are multiples of the step has them on the scan."""
    x = np.asarray(x, dtype=float)
    per_unit = (n - 1) / (2.0 * half_width)
    g1, g2 = np.meshgrid(*[
        np.arange(math.ceil((xj - half_width) * per_unit),
                  math.floor((xj + half_width) * per_unit) + 1) / per_unit
        for xj in x], indexing="ij")
    w = np.stack([g1.ravel(), g2.ravel()], axis=1)
    vals = f.batch(w) + np.sum((w - x) ** 2, axis=1) / (2.0 * lam)
    return float(np.min(vals))


def grid_view(f: FunctionSpec) -> FunctionSpec:
    """f without its closed-form prox, so every solve of it takes the grid
    oracle."""
    return dataclasses.replace(f, closed_form_prox=None)


def run_python(code: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that imports this package's source."""
    src = str(Path(moreaukit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
