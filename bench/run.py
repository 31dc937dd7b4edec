"""moreaukit benchmark.

    python3 bench/run.py --workload verify-catalog --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  The workload's fixed op list runs
repeatedly in this process with one caller thread and BLAS pinned to one
thread; every op is checked against the independent reference
(bench/reference.py, computed in a child process outside the timed region)
and against the first pass of the same seed.  Untraced passes and set-up
probes are timed at the machine's reference speed (bench/speed.py).  The
last line printed is one JSON object {"correct", "attempted", "failed",
"metrics"}: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass.  Results, with machine info, and the spans go under .bench_out/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
CHILD_TIMEOUT = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child(script: str, *args) -> str:
    proc = subprocess.run([sys.executable, str(BENCH / script), *map(str, args)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed:\n{proc.stderr}")
    return proc.stdout


def machine_info() -> dict:
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
    }


def probe_slots(passes: int, probes: int) -> Counter:
    """How many set-up probes run before each pass (key `passes`: after the
    last).  They are spread evenly over the run, because this machine's
    speed drifts over tens of seconds and probes taken back to back all see
    the same speed."""
    return Counter(round(k * passes / (probes - 1)) for k in range(probes))


class Measurement:
    """Runs passes of one workload and checks each against the reference
    and against the first pass."""

    def __init__(self, wl, work: Path, ref: dict, tally):
        self.wl, self.work, self.ref, self.tally = wl, work, ref, tally
        self.first = self.first_reasons = None
        self.count = 0
        self.kernel = wl.kernel  # None: time passes plainly

    def run(self, passes: int, probe=None) -> list:
        slots = probe_slots(passes, SETUP_REPEATS) if probe else Counter()
        done = []
        for j in range(passes + 1):
            for _ in range(slots[j]):
                probe()
            if j < passes:
                done.append(self.one_pass())
        return done

    def one_pass(self):
        d = self.work / f"pass{self.count}"
        d.mkdir(parents=True)
        p = self.wl.run_pass(d, SpeedClock(self.kernel))
        shutil.rmtree(d)
        if self.first is None:
            self.first = p.outputs
            self.first_reasons = self.wl.reasons(self.tally, p.outputs, self.ref)
            reasons = self.first_reasons
        else:
            reasons = checker.repeat_reasons(p.outputs, self.first,
                                             self.first_reasons)
        for reason, group in zip(reasons, self.wl.groups):
            self.tally.add(reason, group)
        p.outputs = None
        self.count += 1
        return p


def metric_units() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def op_percentiles_ms(passes: list) -> tuple:
    """p50 and p99 over every timed op of every pass; (0, 0) where the
    workload does not time single ops."""
    lat = [np.frombuffer(p.latencies) for p in passes if p.latencies is not None]
    if not lat:
        return 0.0, 0.0
    return tuple(float(v) for v in np.percentile(np.concatenate(lat), [50, 99]) * 1e3)


def run(args) -> int:
    mk = workloads.load_package()
    if not Path(mk.top.__file__).resolve().is_relative_to(SRC):
        print(f"error: moreaukit imported from {mk.top.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    units = metric_units()
    info = machine_info()
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    wl_cls = workloads.WORKLOADS[args.workload]
    # A fixed number of passes, set by --seconds and the workload's nominal
    # pass time, not by how fast the program runs.
    n_passes = max(2, round(args.seconds / wl_cls.nominal_pass_s))
    setup, setup_raw = [], []

    def probe():
        d = work / f"setup{len(setup)}"
        d.mkdir(parents=True)
        scaled, raw = map(float, _child("probe_setup.py", args.workload,
                                        args.seed, d).split())
        setup.append(scaled)
        setup_raw.append(raw)

    try:
        ref = json.loads(_child("reference.py", "--workload", args.workload,
                                "--seed", args.seed))
        (work / "inputs").mkdir(parents=True)
        wl = wl_cls(mk, args.seed, work / "inputs")
        tally = checker.Tally(args.workload)
        m = Measurement(wl, work, ref, tally)
        if not args.trace:
            plain = m.run(n_passes, probe)
        else:
            # traced and untraced passes are compared on the wall clock
            m.kernel = None
            plain = m.run(n_passes // 2)
            tr = tracing.Tracer()
            patches = tracing.install(tr, mk)
            try:
                traced = m.run(n_passes - n_passes // 2)
            finally:
                patches.undo()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [p.wall for p in plain]
    wall = statistics.median(walls)
    p50, p99 = op_percentiles_ms(plain)
    notes = {"passes": len(plain), "ops_per_pass": len(wl.groups)}
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        printed = {"op_p50_ms": (p50, "ms"), "op_p99_ms": (p99, "ms")}
    else:
        spans = tr.arrays()
        metrics = tracing.layer_metrics(spans, len(traced))
        metrics["check.env_err_max"] = tally.env_err_max
        # layer times are per-pass means, so their shares use the mean pass
        mean_traced = statistics.mean(p.wall for p in traced)
        metrics["trace.overhead_frac"] = mean_traced / statistics.mean(walls) - 1.0
        metrics["op.p50_ms"], metrics["op.p99_ms"] = p50, p99
        printed = {}
        notes["traced_passes"] = len(traced)
        notes["traced_pass_mean_s"] = mean_traced
        notes.update(tracing.traffic(metrics, spans, len(traced), mean_traced))
        notes["roots_calls_per_pass"] = tr.roots_calls / len(traced)
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        np.savez(OUT / "traces" / f"{args.workload}.npz", **spans)

    shown = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    shown.update({k: {"value": v, "unit": u} for k, (v, u) in printed.items()})
    failed_frac = tally.failed / max(tally.attempted, 1)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": info, "setup_samples_s": setup,
        "setup_samples_raw_s": setup_raw, "pass_walls_s": walls,
        "pass_walls_raw_s": [p.raw for p in plain],
        "failed_frac": failed_frac, "failure_reasons": dict(tally.reasons),
        "known_defect_failures": tally.known, "notes": notes,
        "metrics": shown,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)}")
    print(f"# machine {json.dumps(info)}")
    for k, m in shown.items():
        print(f"{k:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {failed_frac:14.6g} ratio  "
          f"({tally.failed} of {tally.attempted} ops; known defect "
          f"{tally.known}; {dict(tally.reasons)})")
    for k, v in notes.items():
        print(f"# {k}: {v}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: shown[k] for k in metrics},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="moreaukit benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "moreaukit" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'moreaukit'}; run from the "
              "root of a moreaukit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
