"""The benchmark workloads.  Each runs its fixed op list once per pass, in
this process with one caller thread, and returns the output of every op for
the checker together with the pass time.  The timed region of a pass is run
under the `speed.SpeedClock` it is given; `kernel` names the calibration
kernel it is timed with, None for the wall clock alone (see speed.py)."""

from __future__ import annotations

import contextlib
import io
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

import checker
import inputs
from reference import VERIFY_CHECKS


def load_package() -> SimpleNamespace:
    import moreaukit
    from moreaukit import (cli, envelope, functions, minimizers, optimize,
                           parsing, suite)
    return SimpleNamespace(top=moreaukit, cli=cli, suite=suite,
                           minimizers=minimizers, optimize=optimize,
                           envelope=envelope, functions=functions,
                           parsing=parsing)


@dataclass
class Pass:
    """One run of the op list."""

    wall: float                       # seconds for the op list (SpeedClock.scaled)
    raw: float                        # the same on the wall clock (SpeedClock.raw)
    outputs: list                     # one entry per op, compared by the checker
    latencies: Optional[array] = None  # seconds per op, where ops are timed


def _run_cli(mk, argv: list) -> int:
    """cli.main with its console output captured.  It is looked up at call
    time, so that the tracer's wrapper is used when installed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return mk.cli.main(argv)


class VerifyCatalog:
    """`moreaukit verify --json-summary` over the 8 catalog functions at the
    CLI defaults; one op is one check.

    The benchmark seed does not reach the CLI: its --seed picks the 50
    shift-identity draws, and whether one of them builds a 4M-point grid
    swings peak RSS between 165 and 313 MB (24 seeds measured), which no
    bound on peak_rss_mb could absorb.  The CLI default seed 0 is used.
    """

    name = "verify-catalog"
    cli_seed = 0
    # The pass time assumed when a run of --seconds S is given its fixed
    # number of passes, max(2, round(S / nominal_pass_s)).  Measured on a
    # 2-vCPU VM: 9-14 s here, 9-13 s for envelope-parsed, 0.10-0.17 s for
    # prox-closed.
    nominal_pass_s = 12.0
    kernel = "small_arrays"

    def __init__(self, mk, seed: int, work: Path):
        self.mk = mk
        self.n_ops = sum(VERIFY_CHECKS.values())
        self.groups = [""] * self.n_ops

    def reasons(self, tally, flat: list, ref: dict) -> list:
        return checker.verify_reasons(tally, flat, ref)

    def run_pass(self, out: Path, clock) -> Pass:
        argv = ["verify", "--seed", str(self.cli_seed), "--out", str(out),
                "--json-summary"]
        with clock:
            try:
                code = _run_cli(self.mk, argv)
            except Exception:  # no summary: every check counts as failed
                code = None
        summary = out / "summary.json"
        flat = []
        if code in (0, 1) and summary.is_file():
            doc = json.loads(summary.read_text(encoding="utf-8"))
            flat = [json.dumps(c, sort_keys=True) for c in doc["checks"]]
        flat = flat[:self.n_ops] + [checker.MISSING] * (self.n_ops - len(flat))
        return Pass(clock.scaled, clock.raw, flat)


class EnvelopeParsed:
    """`moreaukit envelope` on definition files written without a
    certificate; one op is one tabulated point."""

    name = "envelope-parsed"
    nominal_pass_s = 11.0
    kernel = "small_arrays_faults"

    def __init__(self, mk, seed: int, work: Path):
        self.mk = mk
        self.jobs = inputs.envelope_parsed_jobs(seed)
        for job in self.jobs:
            job["path"] = work / f"{job['name']}.txt"
            job["path"].write_text(inputs.definition_file_text(job),
                                   encoding="utf-8")
            job["n_points"] = len(inputs.job_points(job))
        self.groups = [job["name"] for job in self.jobs
                       for _ in range(job["n_points"])]

    def reasons(self, tally, flat: list, ref: dict) -> list:
        return checker.envelope_parsed_reasons(tally, self.jobs, flat, ref)

    def run_pass(self, out: Path, clock) -> Pass:
        codes = []
        with clock:
            self._run_jobs(out, codes)
        return Pass(clock.scaled, clock.raw,
                    [o for job in codes for o in _job_outputs(*job)])

    def _run_jobs(self, out: Path, codes: list) -> None:
        for job in self.jobs:
            dest = out / job["name"]
            argv = ["envelope", "--function", f"file:{job['path']}",
                    "--lambda", repr(job["lam"]), "--xmin", repr(job["xmin"]),
                    "--xmax", repr(job["xmax"]),
                    "--grid-points", str(job["grid_points"]),
                    "--out", str(dest)]
            try:
                code = _run_cli(self.mk, argv)
            except Exception as exc:  # counted as failed ops
                code = f"{type(exc).__name__}: {exc}"
            codes.append((dest, code, job["n_points"]))


def _job_outputs(dest: Path, code, n: int) -> list:
    if code == 0:
        files = sorted(dest.glob("envelope_00_*.csv"))
        rows = files[0].read_text(encoding="utf-8").splitlines()[1:] if files else []
        got = [("row", r) for r in rows[:n]]
        return got + [(checker.RAISED, "missing row")] * (n - len(got))
    if code == 3:  # threshold exceeded: the envelope is reported as -inf
        return [(checker.NOT_FINITE,)] * n
    return [(checker.RAISED, f"exit {code}")] * n


class ProxClosed:
    """A closed loop of single-point prox_map calls on catalog functions,
    each on the closed-form path; one op is one call, timed on its own."""

    name = "prox-closed"
    nominal_pass_s = 0.15
    kernel = "small_arrays"

    def __init__(self, mk, seed: int, work: Path):
        self.mk = mk
        self.ops = inputs.prox_closed_ops(seed)
        self.groups = [""] * len(self.ops)

    def reasons(self, tally, flat: list, ref: dict) -> list:
        return checker.prox_closed_reasons(tally, self.ops, flat, ref)

    def run_pass(self, out: Path, clock) -> Pass:
        # The specs are built before the timed loop on every pass, so that
        # under tracing their fields are the traced ones.
        mk = self.mk
        specs = {name: mk.top.catalog_function(name) for name in inputs.CATALOG}
        calls = [(specs[name], lam, np.array(x)) for name, lam, x in self.ops]
        prox_map = mk.top.prox_map
        perf = time.perf_counter
        results = []
        ends = array("d")
        with clock:
            t0 = perf()
            for f, lam, x in calls:
                try:
                    res = prox_map(f, lam, x)
                except Exception as exc:  # counted as a failed op
                    res = exc
                ends.append(perf())
                results.append(res)
        latencies = np.diff(np.concatenate(([t0], ends)))
        # a calibration tick lands inside one op; its time is not the op's
        for t, spent, _ in clock.samples:
            k = int(np.searchsorted(ends, t))
            if t >= t0 and k < len(latencies):
                latencies[k] -= spent
        return Pass(clock.scaled, clock.raw, [_canonical(r) for r in results],
                    array("d", latencies))


def _canonical(res) -> tuple:
    if isinstance(res, Exception):
        return (checker.RAISED, f"{type(res).__name__}: {res}")
    if res.diverged:
        return (checker.NOT_FINITE,)
    return ("ok", res.envelope_value,
            tuple(tuple(float(v) for v in m) for m in res.minimizers))


WORKLOADS = {w.name: w for w in (VerifyCatalog, EnvelopeParsed, ProxClosed)}
