"""Checks every op's output against the reference and against the first
same-seed repetition, and tallies the failures.

An op fails when it raised, gave a wrong verdict, missed its reference
tolerance, returned a prox point that does not attain the envelope value,
or produced output that differs from the first pass of the same seed.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

import inputs
from reference import FUNCTIONS, objective

# Acceptance tolerances (criterion 08): closed-form answers within 1e-6,
# grid answers within 100 h^2 + 1e-9 for the solver's default grid step h.
CLOSED_TOL = 1e-6
GRID_STEP = {1: 1e-3, 2: 1e-2}


def grid_tol(dim: int) -> float:
    h = GRID_STEP[dim]
    return 100.0 * h * h + 1e-9


RAISED = "raised"
MISSING = "missing"
MISMATCH = "differs_between_repetitions"
WRONG_VERDICT = "wrong_verdict"
UNEXPECTED_CHECK = "unexpected_check"
WRONG_POINT = "wrong_point"
NOT_FINITE = "not_finite"
ENV_ERR = "envelope_outside_tolerance"
PROX_NOT_OPTIMAL = "prox_point_not_optimal"
FINITE_FOR_UNBOUNDED = "finite_value_for_unbounded"

# The one failure the program is known to have: the sampled certificate of
# the unsound definition file passes validation, so `moreaukit envelope`
# writes finite values where the envelope is -inf.  It is counted as
# failed; `correct` stays true only while no other failure appears.
KNOWN_DEFECTS = {("envelope-parsed", inputs.UNSOUND, FINITE_FOR_UNBOUNDED)}


class Tally:
    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.reasons: Counter = Counter()
        self.env_err_max = 0.0

    def add(self, reason, group: str = "") -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        self.reasons[reason] += 1
        if (self.workload, group, reason) in KNOWN_DEFECTS:
            self.known += 1

    @property
    def correct(self) -> bool:
        return self.failed == self.known


def value_reason(tally: Tally, fn, lam: float, x, out: tuple, ref: float,
                 tol: float):
    """Failure reason for one envelope answer, or None.

    out is ("ok", envelope, prox points), ("not_finite",) or ("raised", msg).
    """
    if out[0] == RAISED:
        return RAISED
    finite = out[0] == "ok" and math.isfinite(out[1])
    if ref == -math.inf:
        return FINITE_FOR_UNBOUNDED if finite else None
    if not finite:
        return NOT_FINITE
    err = abs(out[1] - ref)
    tally.env_err_max = max(tally.env_err_max, err)
    if err > tol:
        return ENV_ERR
    if out[2]:
        vals = objective(fn, lam, np.asarray(x, dtype=float),
                         np.asarray(out[2], dtype=float))
        if np.any(vals - ref > tol):
            return PROX_NOT_OPTIMAL
    return None


def repeat_reasons(flat: list, first: list, first_reasons: list) -> list:
    """A later same-seed pass: an op fails if its output differs from the
    first pass, and otherwise shares the first pass's verdict."""
    return [MISMATCH if out != ref else reason
            for out, ref, reason in zip(flat, first, first_reasons)]


def prox_closed_reasons(tally: Tally, ops: list, flat: list, ref: dict) -> list:
    """flat holds one entry per op, as value_reason takes it."""
    return [value_reason(tally, FUNCTIONS[name], lam, x, out,
                         ref["envelope"][k], CLOSED_TOL)
            for k, ((name, lam, x), out) in enumerate(zip(ops, flat))]


def parse_row(row: str, dim: int):
    """A CSV row of the envelope subcommand -> (x, ("ok", env, prox))."""
    cells = row.split(",")
    x = [float(c) for c in cells[:dim]]
    env = float(cells[dim])
    prox = [[float(c) for c in p.split()] for p in cells[dim + 2].split("|") if p]
    return x, ("ok", env, prox)


def envelope_parsed_reasons(tally: Tally, jobs: list, flat: list,
                            ref: dict) -> list:
    """flat holds one entry per tabulated point, jobs in order: ("row", csv
    text), ("not_finite",) or ("raised", msg)."""
    reasons = []
    it = iter(flat)
    for j, job in enumerate(jobs):
        fn = FUNCTIONS[job["name"]]
        tol = grid_tol(job["dim"])
        for k, x in enumerate(inputs.job_points(job)):
            out = next(it)
            if out[0] == "row":
                try:
                    got_x, out = parse_row(out[1], job["dim"])
                except (ValueError, IndexError):
                    reasons.append(RAISED)
                    continue
                if got_x != x.tolist():
                    reasons.append(WRONG_POINT)
                    continue
            reasons.append(value_reason(tally, fn, job["lam"], x, out,
                                        ref["jobs"][j][k], tol))
    return reasons


def verify_reasons(tally: Tally, flat: list, ref: dict) -> list:
    """flat holds one check record (JSON text) per expected check, or
    MISSING where the run produced fewer."""
    expected = ref["checks"]
    seen: Counter = Counter()
    reasons = []
    for out in flat:
        if out == MISSING:
            reasons.append(MISSING)
            continue
        rec = json.loads(out)
        kind = rec.get("theorem_id")
        if rec.get("passed") is not True:
            reasons.append(WRONG_VERDICT)
        elif seen[kind] >= expected.get(kind, 0):
            reasons.append(UNEXPECTED_CHECK)
        else:
            seen[kind] += 1
            reasons.append(None)
    return reasons
