"""Seeded inputs for the benchmark workloads.

Uses only numpy, so the benchmark runner, the setup probe and the
independent reference all derive the same inputs from the same seed without
importing the package under test.
"""

from __future__ import annotations

import math

import numpy as np

# Catalog entries at their default parameters: dimension and the
# prox-boundedness threshold that follows from their certificates
# (neg_quad is -a*||x||^2 with a = 0.5, so lambda must stay below 1/(2a)).
CATALOG = {
    "quadratic": (1, math.inf),
    "abs": (1, math.inf),
    "huber": (1, math.inf),
    "box": (1, math.inf),
    "neg_quad": (1, 1.0),
    "double_well": (1, math.inf),
    "piecewise": (1, math.inf),
    "well_plus_abs_2d": (2, math.inf),
}

# Distinct single-point prox calls in one pass of prox-closed.
PROX_OPS = 2000

# (name, expression, dimension, points per axis) of the definition files
# that envelope-parsed writes without a certificate.  The last one is not
# prox-bounded (its envelope is -inf everywhere) but the sampled
# certificate fit accepts it; it is kept so that the defect shows.
PARSED_FILES = (
    ("well_1d", "(x1^2-1)^2", 1, 121),
    ("well_abs_2d", "(x1^2-1)^2+abs(x2)", 2, 5),
    ("unsound", "x1^2-0.001*x1^4", 1, 21),
)
UNSOUND = "unsound"


def prox_closed_ops(seed: int) -> list:
    """(catalog name, lambda, x) triples; lambda is below the threshold and
    x lies in [-3, 3]^n, so every op takes the closed-form path.

    Each function gets the same number of ops, with (lambda, x) drawn as a
    Latin hypercube, so the mix of cheap and expensive cases hardly changes
    from seed to seed; the order of the ops is shuffled.
    """
    rng = np.random.default_rng([seed, 1])
    per_fn = PROX_OPS // len(CATALOG)
    ops = []
    for name, (dim, threshold) in CATALOG.items():
        strata = [(rng.permutation(per_fn) + rng.uniform(size=per_fn)) / per_fn
                  for _ in range(1 + dim)]
        lams = (0.05 + 0.85 * strata[0]) * min(1.0, threshold)
        xs = -3.0 + 6.0 * np.stack(strata[1:], axis=1)
        ops += [(name, float(lam), [float(v) for v in x]) for lam, x in zip(lams, xs)]
    return [ops[k] for k in rng.permutation(len(ops))]


def envelope_parsed_jobs(seed: int) -> list:
    """One `moreaukit envelope` job per definition file: lambda near 0.3 and
    a window [-3, 3]^n shifted by the seed; expressions and point counts are
    fixed."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for name, expr, dim, n in PARSED_FILES:
        lam = 0.3 * float(rng.uniform(0.9, 1.1))
        shift = float(rng.uniform(-0.25, 0.25))
        jobs.append({"name": name, "expr": expr, "dim": dim, "grid_points": n,
                     "lam": lam, "xmin": -3.0 + shift, "xmax": 3.0 + shift})
    return jobs


def job_points(job: dict) -> np.ndarray:
    """The (m, dim) points the envelope subcommand tabulates, in its order."""
    axis = np.linspace(job["xmin"], job["xmax"], job["grid_points"])
    if job["dim"] == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * job["dim"]), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def definition_file_text(job: dict) -> str:
    return f"expr = {job['expr']}\ndim = {job['dim']}\n"
