"""Command-line front end.

Subcommands: envelope, prox, verify, optimize, threshold.  Options can come
from a plain-text config file (key = value, repeated keys form lists) with
command-line flags taking precedence.  Exit codes: 0 success, 1 verification
failures, 2 configuration errors, 3 threshold exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .envelope import ProxSolveConfig, axis_product, prox_batch, prox_map
from .errors import MoreauKitError, ThresholdExceeded
from .functions import CATALOG, FunctionSpec, catalog_function
from .minimizers import jsonable
from .optimize import compare_traces, envelope_gd_run, proximal_point_run
from .parsing import load_function_file, read_key_values
from .suite import DEFAULT_FUNCTIONS, run_full_suite

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_CONFIG = 2
EXIT_THRESHOLD = 3


class ConfigError(Exception):
    pass


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def read_config_file(path: str) -> dict:
    """Parse 'key = value' lines; repeated keys accumulate into lists."""
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        entries = read_key_values(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    out: dict[str, list[str]] = {}
    for key, value in entries:
        out.setdefault(key, []).append(value)
    return out


def merge_config(args: argparse.Namespace) -> dict:
    cfg: dict[str, list[str]] = {}
    if getattr(args, "config", None):
        cfg = read_config_file(args.config)
    for key in ("lambda", "function", "out", "seed", "x", "x0", "draws",
                "step", "iters", "xmin", "xmax", "grid_points", "h"):
        v = getattr(args, key, None)
        if v is not None:  # a repeatable flag gives a list
            cfg[key] = [str(e) for e in v] if isinstance(v, list) else [str(v)]
    return cfg


def cfg_get(cfg: dict, key: str, default=None) -> str | None:
    vals = cfg.get(key)
    if not vals:
        return default
    return vals[-1]


def cfg_floats(cfg: dict, key: str) -> list:
    try:
        return [float(v) for v in cfg.get(key, [])]
    except ValueError as exc:
        raise ConfigError(f"bad numeric value for {key}: {exc}") from None


def resolve_function(cfg: dict) -> FunctionSpec:
    ref = cfg_get(cfg, "function")
    if ref is None:
        raise ConfigError("missing 'function' (catalog name or file:PATH)")
    if ref.startswith("file:"):
        try:
            return load_function_file(ref[5:])
        except (OSError, MoreauKitError) as exc:
            raise ConfigError(f"cannot load function file: {exc}") from None
    name, _, params = ref.partition(":")
    kwargs = {}
    if params:
        for item in params.split(","):
            k, _, v = item.partition("=")
            if not v:
                raise ConfigError(f"bad function parameter {item!r}")
            k, val = k.strip(), float(v)
            if k == "dim":
                if not val.is_integer():
                    raise ConfigError(f"dim must be an integer, got {v!r}")
                val = int(val)
            kwargs[k] = val
    if name not in CATALOG:
        raise ConfigError(
            f"unknown catalog function {name!r}; available: {sorted(CATALOG)}"
        )
    try:
        return catalog_function(name, **kwargs)
    except (TypeError, MoreauKitError) as exc:
        raise ConfigError(f"bad parameters for {name}: {exc}") from None


def solver_config(cfg: dict) -> ProxSolveConfig:
    kwargs = {}
    h = cfg_get(cfg, "h")
    if h is not None:
        kwargs["grid_step"] = float(h)
    vt = cfg_get(cfg, "value_tol")
    if vt is not None:
        kwargs["value_tol"] = float(vt)
    cr = cfg_get(cfg, "cluster_radius")
    if cr is not None:
        kwargs["cluster_radius"] = float(cr)
    return ProxSolveConfig(**kwargs)


def out_dir(cfg: dict) -> Path:
    d = Path(cfg_get(cfg, "out", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_envelope(cfg: dict) -> int:
    f = resolve_function(cfg)
    lams = cfg_floats(cfg, "lambda")
    if not lams:
        raise ConfigError("at least one lambda is required")
    if any(l <= 0 for l in lams):
        raise ConfigError("all lambda values must be positive")
    xmin = float(cfg_get(cfg, "xmin", "-3"))
    xmax = float(cfg_get(cfg, "xmax", "3"))
    n = int(cfg_get(cfg, "grid_points", "121"))
    scfg = solver_config(cfg)
    dest = out_dir(cfg)

    xs = axis_product(np.linspace(xmin, xmax, n), f.dim)
    for i, lam in enumerate(lams):
        # at or above the threshold each point runs a divergence scan; one
        # diverged point decides the exit, so the first is tried alone
        results = []
        if lam >= f.certificate.threshold:
            results = prox_batch(f, lam, xs[:1], scfg)
        if not any(res.diverged for res in results):
            results = prox_batch(f, lam, xs, scfg)
        if any(res.diverged for res in results):
            raise ThresholdExceeded(lam, f.certificate.threshold)
        rows = []
        for x, res in zip(xs, results):
            reps = "|".join(" ".join(_fmt(c) for c in m) for m in res.minimizers)
            rows.append(
                ",".join(_fmt(c) for c in x)
                + f",{_fmt(res.envelope_value)},{len(res.minimizers)},{reps}"
            )
        header = (",".join(f"x{j+1}" for j in range(f.dim))
                  + ",envelope,n_prox,prox_points")
        path = dest / f"envelope_{i:02d}_lambda_{_fmt(lam)}.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_prox(cfg: dict) -> int:
    f = resolve_function(cfg)
    lams = cfg_floats(cfg, "lambda")
    if not lams:
        raise ConfigError("a lambda value is required")
    x = [float(t) for t in (cfg_get(cfg, "x", "0") or "0").split()]
    scfg = solver_config(cfg)
    res = prox_map(f, lams[0], x, scfg)
    if res.diverged:
        raise ThresholdExceeded(lams[0], f.certificate.threshold)
    doc = {
        "function": f.name,
        "lambda": lams[0],
        "x": [float(v) for v in x],
        "envelope_value": res.envelope_value,
        "prox_points": [[float(v) for v in m] for m in res.minimizers],
        "radius_used": res.radius_used,
        "certificate_source": f.certificate.source,
    }
    print(json.dumps(jsonable(doc), indent=2, sort_keys=True,
                     allow_nan=False))
    return EXIT_OK


def cmd_threshold(cfg: dict) -> int:
    f = resolve_function(cfg)
    t = f.certificate.threshold
    print(f"function: {f.name}")
    print(f"certificate: alpha={_fmt(f.certificate.alpha)} "
          f"beta={_fmt(f.certificate.beta)} source={f.certificate.source}")
    print(f"prox-boundedness threshold: {'inf' if t == float('inf') else _fmt(t)}")
    return EXIT_OK


def cmd_verify(cfg: dict, json_summary: bool = False) -> int:
    seed = int(cfg_get(cfg, "seed", "0"))
    draws = int(cfg_get(cfg, "draws", "50"))
    samples = int(cfg_get(cfg, "samples", "32"))
    names = cfg.get("function") or list(DEFAULT_FUNCTIONS)
    scfg = solver_config(cfg)
    dest = out_dir(cfg)
    functions = [resolve_function({"function": [n]}) for n in names]

    reports = run_full_suite(seed=seed, draws=draws, functions=functions,
                             samples=samples, cfg=scfg)
    n_pass = 0
    lines = []
    for i, rep in enumerate(reports):
        path = dest / f"report_{i:03d}_{rep.theorem_id}.json"
        path.write_text(rep.to_json() + "\n", encoding="utf-8")
        status = "PASS" if rep.passed else "FAIL"
        n_pass += rep.passed
        fn = rep.params.get("function", "-")
        lines.append(f"{status}  {rep.theorem_id:<28} {fn:<20} "
                     f"violation={rep.worst_violation:+.3e}")
    print("\n".join(lines))
    print(f"{n_pass}/{len(reports)} checks passed")
    if json_summary:
        summary = {
            "seed": seed,
            "total": len(reports),
            "passed": n_pass,
            "failed": len(reports) - n_pass,
            "checks": [rep.to_dict() for rep in reports],
        }
        (dest / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
            + "\n",
            encoding="utf-8")
    return EXIT_OK if n_pass == len(reports) else EXIT_FAILURES


def cmd_optimize(cfg: dict) -> int:
    f = resolve_function(cfg)
    lams = cfg_floats(cfg, "lambda")
    if not lams:
        raise ConfigError("a lambda value is required")
    lam = lams[0]
    x0 = [float(t) for t in (cfg_get(cfg, "x0", "1") or "1").split()]
    step = float(cfg_get(cfg, "step", str(lam)))
    iters = int(cfg_get(cfg, "iters", "50"))
    scfg = solver_config(cfg)
    dest = out_dir(cfg)

    ppm = proximal_point_run(f, x0, lam, max_iters=iters, cfg=scfg)
    gd = envelope_gd_run(f, x0, lam, step=step, max_iters=iters, cfg=scfg)
    (dest / "ppm_trace.csv").write_text(ppm.to_csv(), encoding="utf-8")
    (dest / "gd_trace.csv").write_text(gd.to_csv(), encoding="utf-8")
    dev = compare_traces(ppm, gd)
    doc = {
        "function": f.name,
        "lambda": lam,
        "step": step,
        "x0": x0,
        "ppm_iterations": ppm.iterations,
        "gd_iterations": gd.iterations,
        "ppm_converged": ppm.converged,
        "gd_converged": gd.converged,
        "gd_aborted_multivalued": gd.aborted,
        "max_deviation": dev,
    }
    (dest / "deviation.json").write_text(
        json.dumps(jsonable(doc), indent=2, sort_keys=True, allow_nan=False)
        + "\n",
        encoding="utf-8")
    print(f"PPM: {ppm.iterations} iters, converged={ppm.converged}")
    print(f"GD : {gd.iterations} iters, converged={gd.converged}")
    print(f"max iterate deviation: {_fmt(dev)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moreaukit",
        description="Moreau envelopes, proximal mappings, and theorem verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads
    optional = {
        "out": {"help": "output directory"},
        "seed": {"type": int, "help": "seed for random draws"},
        "lambda": {"action": "append", "type": float,
                   "help": "regularization parameter (repeatable)"},
        "json-summary": {"action": "store_true",
                         "help": "also write a machine-readable summary"},
    }

    def common(p, *flags):
        p.add_argument("--config", help="plain-text key = value config file")
        p.add_argument("--function", action="append",
                       help="catalog name[:k=v,...] or file:PATH (repeatable; "
                            "verify reads every one, the others the last)")
        for flag in flags:
            p.add_argument(f"--{flag}", **optional[flag])

    p = sub.add_parser("envelope", help="tabulate the envelope on a grid")
    common(p, "lambda", "out")
    p.add_argument("--xmin", type=float)
    p.add_argument("--xmax", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--h", type=float, help="prox solver grid step")

    p = sub.add_parser("prox", help="proximal points at a single x")
    common(p, "lambda")
    p.add_argument("--x", help="point coordinates, space-separated")

    p = sub.add_parser("verify", help="run the theorem verification suite")
    common(p, "seed", "out", "json-summary")
    p.add_argument("--draws", type=int, help="shift-identity random draws")

    p = sub.add_parser("optimize", help="proximal point vs envelope descent")
    common(p, "lambda", "out")
    p.add_argument("--x0", help="start coordinates, space-separated")
    p.add_argument("--step", type=float, help="gradient step (default lambda)")
    p.add_argument("--iters", type=int)

    p = sub.add_parser("threshold", help="print the prox-boundedness threshold")
    common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        if args.command == "envelope":
            return cmd_envelope(cfg)
        if args.command == "prox":
            return cmd_prox(cfg)
        if args.command == "threshold":
            return cmd_threshold(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, json_summary=args.json_summary)
        if args.command == "optimize":
            return cmd_optimize(cfg)
        raise ConfigError(f"unknown command {args.command}")
    except ThresholdExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (ConfigError, ValueError, MoreauKitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
