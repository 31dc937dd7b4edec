"""Self-tests of the benchmark's reference and checker.

    python3 -m pytest bench/test_checker.py

Each kind of wrong output must count as a failed op: a perturbed envelope
value, a flipped verdict, a finite value for the unbounded definition file
and an output that differs between same-seed repetitions.
"""

import json
import math

import pytest

import checker
import inputs
import reference


def huber_envelope_of_abs(lam, x):
    return x * x / (2 * lam) if abs(x) <= lam else abs(x) - lam / 2


@pytest.mark.parametrize("lam,x", [(0.3, 0.1), (0.3, 2.0), (0.9, -2.5)])
def test_reference_matches_closed_form_of_abs(lam, x):
    got = reference.envelope(reference.FUNCTIONS["abs"], lam, [x])
    assert got == pytest.approx(huber_envelope_of_abs(lam, x), abs=1e-10)


def test_reference_widens_its_scan_for_far_prox_points():
    lam, x = 0.9, 3.0  # prox of -0.5 w^2 is x / (1 - lam) = 30
    w = x / (1 - lam)
    expected = -0.5 * w * w + (w - x) ** 2 / (2 * lam)
    got = reference.envelope(reference.FUNCTIONS["neg_quad"], lam, [x])
    assert got == pytest.approx(expected, abs=1e-9)


def test_reference_sees_the_unsound_file_unbounded():
    assert reference.envelope(reference.FUNCTIONS[inputs.UNSOUND], 0.3, [0.5]) \
        == -math.inf


def prox_case():
    ops = [("abs", 0.5, [2.0]), ("quadratic", 0.25, [1.0])]
    ref = {"envelope": [reference.envelope(reference.FUNCTIONS[n], lam, x)
                        for n, lam, x in ops]}
    # prox of |w| at 2 is 1.5 (envelope 1.75); of w^2 at 1 is 1/1.5
    p = 1.0 / 1.5
    good = [("ok", 1.75, ((1.5,),)),
            ("ok", p * p + (p - 1.0) ** 2 / 0.5, ((p,),))]
    return ops, ref, good


def tally_of(workload, reasons, groups=None):
    t = checker.Tally(workload)
    for r, g in zip(reasons, groups or [""] * len(reasons)):
        t.add(r, g)
    return t


def test_correct_prox_answers_pass():
    ops, ref, good = prox_case()
    t = checker.Tally("prox-closed")
    reasons = checker.prox_closed_reasons(t, ops, good, ref)
    assert reasons == [None, None]


def test_perturbed_envelope_value_fails():
    ops, ref, good = prox_case()
    bad = [good[0], ("ok", good[1][1] + 1e-4, good[1][2])]
    t = checker.Tally("prox-closed")
    reasons = checker.prox_closed_reasons(t, ops, bad, ref)
    assert reasons == [None, checker.ENV_ERR]
    t = tally_of("prox-closed", reasons)
    assert (t.failed, t.correct) == (1, False)


def test_suboptimal_prox_point_fails():
    ops, ref, good = prox_case()
    bad = [("ok", 1.75, ((1.4,),)), good[1]]
    reasons = checker.prox_closed_reasons(checker.Tally("prox-closed"), ops, bad, ref)
    assert reasons == [checker.PROX_NOT_OPTIMAL, None]


def test_same_seed_mismatch_fails():
    ops, ref, good = prox_case()
    first = checker.prox_closed_reasons(checker.Tally("prox-closed"), ops, good, ref)
    again = [good[0], ("ok", good[1][1], ((good[1][2][0][0] + 1e-12,),))]
    reasons = checker.repeat_reasons(again, good, first)
    assert reasons == [None, checker.MISMATCH]


def test_flipped_verdict_fails():
    ref = {"checks": {"prox-fixed-point": 2}}
    ok = json.dumps({"theorem_id": "prox-fixed-point", "passed": True})
    flipped = json.dumps({"theorem_id": "prox-fixed-point", "passed": False})
    t = checker.Tally("verify-catalog")
    assert checker.verify_reasons(t, [ok, ok], ref) == [None, None]
    assert checker.verify_reasons(t, [ok, flipped], ref) == [None, checker.WRONG_VERDICT]
    assert checker.verify_reasons(t, [ok, checker.MISSING], ref) == [None, checker.MISSING]


def envelope_job(name, n):
    _, expr, dim, _ = next(f for f in inputs.PARSED_FILES if f[0] == name)
    return {"name": name, "expr": expr, "dim": dim, "grid_points": n,
            "lam": 0.3, "xmin": -1.0, "xmax": 1.0}


def test_finite_value_for_unsound_file_fails_as_the_known_defect():
    jobs = [envelope_job("well_1d", 3), envelope_job(inputs.UNSOUND, 2)]
    ref = {"jobs": [[reference.envelope(reference.FUNCTIONS[j["name"]], j["lam"], x)
                     for x in inputs.job_points(j)] for j in jobs]}
    rows = [("row", f"{float(x[0])!r},{v!r},0,")
            for x, v in zip(inputs.job_points(jobs[0]), ref["jobs"][0])]
    finite = [("row", "-1,0.5,1,-0.9"), ("row", "1,0.5,1,0.9")]
    groups = ["well_1d"] * 3 + [inputs.UNSOUND] * 2

    t = checker.Tally("envelope-parsed")
    reasons = checker.envelope_parsed_reasons(t, jobs, rows + finite, ref)
    assert reasons == [None] * 3 + [checker.FINITE_FOR_UNBOUNDED] * 2
    t = tally_of("envelope-parsed", reasons, groups)
    assert (t.failed, t.known, t.correct) == (2, 2, True)

    not_finite = [(checker.NOT_FINITE,)] * 2
    reasons = checker.envelope_parsed_reasons(t, jobs, rows + not_finite, ref)
    assert reasons == [None] * 5

    x0, v0 = float(inputs.job_points(jobs[0])[0][0]), ref["jobs"][0][0]
    perturbed = [("row", f"{x0!r},{v0 + 1e-3!r},0,")] + rows[1:]
    reasons = checker.envelope_parsed_reasons(t, jobs, perturbed + finite, ref)
    assert reasons[0] == checker.ENV_ERR
    t = tally_of("envelope-parsed", reasons, groups)
    assert (t.failed, t.known, t.correct) == (3, 2, False)
