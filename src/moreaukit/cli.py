"""Command-line front end.

Subcommands: envelope, prox, verify, optimize, threshold.  Each one's parser
reads its options from flags and from a config file (--config) alike: the
line 'key = value' is the flag --key=value ('key =' the bare --key), with
'_' in a key read as '-'.  So types, defaults, repetition and the exit 2 for
an unregistered key follow the flag rules.  A command-line flag replaces the
file's value, a repeatable one the file's whole list.  Exit codes: 0 success,
1 verification failures, 2 configuration errors, 3 threshold exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .envelope import _lambdas, axis_product, prox_batch, prox_map
from .errors import MoreauKitError, ThresholdExceeded
from .functions import CATALOG, FunctionSpec, catalog_function
from .minimizers import jsonable
from .optimize import compare_traces, ppm_gd_runs
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


def _json(doc) -> str:
    return json.dumps(jsonable(doc), indent=2, sort_keys=True, allow_nan=False)


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def coords(text: str) -> list:
    return [float(t) for t in text.split()]


class _Repeat(argparse._AppendAction):
    """append, except that the first use in a parse replaces what the
    namespace held, the default or a config file's tuple, so that a
    command-line flag replaces a config file's whole list."""

    def __call__(self, parser, namespace, values, option_string=None):
        if not isinstance(getattr(namespace, self.dest), list):
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


def read_config(sub: argparse.ArgumentParser, path: str) -> argparse.Namespace:
    """The options of subcommand parser sub as the config file at path sets
    them, each line read as a flag (see the module docstring); a repeated
    key's list becomes a tuple, which a command-line flag replaces."""
    try:
        entries = read_key_values(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    ns, unread = sub.parse_known_args(
        [f"--{key.replace('_', '-')}" + (f"={value}" if value else "")
         for key, value in entries])
    if unread:
        sub.error(f"config file {path}: unrecognized arguments: "
                  + " ".join(unread))
    if ns.config is not None:
        raise ConfigError(f"config file {path} names another config file")
    for key, value in vars(ns).items():
        if isinstance(value, list):
            setattr(ns, key, tuple(value))
    return ns


def resolve_function(ref: str | None) -> FunctionSpec:
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


def out_dir(args) -> Path:
    d = Path(args.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_envelope(args) -> int:
    f = replace(resolve_function(args.function), grid_step=args.h)
    if not args.lam:
        raise ConfigError("at least one lambda is required")
    _lambdas(args.lam, len(args.lam))
    dest = out_dir(args)

    xs = axis_product([np.linspace(args.xmin, args.xmax, args.grid_points)]
                      * f.dim)
    for i, lam in enumerate(args.lam):
        # at or above the threshold each point runs a divergence scan; one
        # diverged point decides the exit, so the first is tried alone
        batch = None
        if lam >= f.certificate.threshold:
            batch = prox_batch(f, lam, xs[:1])
        if batch is None or not batch.diverged.any():
            batch = prox_batch(f, lam, xs)
        if batch.diverged.any():
            raise ThresholdExceeded(lam, f.certificate.threshold)
        pts, cuts = batch.points.tolist(), batch.offsets.tolist()
        rows = []
        for x, v, lo, hi in zip(xs.tolist(), batch.value.tolist(), cuts, cuts[1:]):
            reps = "|".join(" ".join(_fmt(c) for c in m) for m in pts[lo:hi])
            rows.append(",".join(_fmt(c) for c in x)
                        + f",{_fmt(v)},{hi - lo},{reps}")
        header = (",".join(f"x{j+1}" for j in range(f.dim))
                  + ",envelope,n_prox,prox_points")
        path = dest / f"envelope_{i:02d}_lambda_{_fmt(lam)}.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_prox(args) -> int:
    f = replace(resolve_function(args.function), grid_step=args.h)
    if args.lam is None:
        raise ConfigError("a lambda value is required")
    res = prox_map(f, args.lam, args.x)
    if res.diverged:
        raise ThresholdExceeded(args.lam, f.certificate.threshold)
    doc = {
        "function": f.name,
        "lambda": args.lam,
        "x": args.x,
        "envelope_value": res.envelope_value,
        "prox_points": [[float(v) for v in m] for m in res.minimizers],
        "radius_used": res.radius_used,
        "certificate_source": f.certificate.source,
    }
    print(_json(doc))
    return EXIT_OK


def cmd_threshold(args) -> int:
    f = resolve_function(args.function)
    print(f"function: {f.name}")
    print(f"certificate: alpha={_fmt(f.certificate.alpha)} "
          f"beta={_fmt(f.certificate.beta)} source={f.certificate.source}")
    print(f"prox-boundedness threshold: {_fmt(f.certificate.threshold)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    functions = [replace(resolve_function(ref), grid_step=args.h)
                 for ref in args.function or DEFAULT_FUNCTIONS]
    dest = out_dir(args)

    reports = run_full_suite(seed=args.seed, draws=args.draws,
                             functions=functions, samples=args.samples)
    checks = [rep.to_dict() for rep in reports]
    n_pass = 0
    lines = []
    for i, (rep, doc) in enumerate(zip(reports, checks)):
        path = dest / f"report_{i:03d}_{rep.theorem_id}.json"
        path.write_text(_json(doc) + "\n", encoding="utf-8")
        status = "PASS" if rep.passed else "FAIL"
        n_pass += rep.passed
        fn = rep.params.get("function", "-")
        lines.append(f"{status}  {rep.theorem_id:<28} {fn:<20} "
                     f"violation={rep.worst_violation:+.3e}")
    print("\n".join(lines))
    print(f"{n_pass}/{len(reports)} checks passed")
    if args.json_summary:
        summary = {
            "seed": args.seed,
            "total": len(reports),
            "passed": n_pass,
            "failed": len(reports) - n_pass,
            "checks": checks,
        }
        (dest / "summary.json").write_text(_json(summary) + "\n",
                                           encoding="utf-8")
    return EXIT_OK if n_pass == len(reports) else EXIT_FAILURES


def cmd_optimize(args) -> int:
    f = replace(resolve_function(args.function), grid_step=args.h)
    lam = args.lam
    if lam is None:
        raise ConfigError("a lambda value is required")
    _lambdas(lam, 1)
    step = lam if args.step is None else args.step
    if not step >= 0:
        raise ConfigError("step must be nonnegative")
    dest = out_dir(args)

    ppm, gd = ppm_gd_runs(f, args.x0, lam, step=step, max_iters=args.iters)
    (dest / "ppm_trace.csv").write_text(ppm.to_csv(), encoding="utf-8")
    (dest / "gd_trace.csv").write_text(gd.to_csv(), encoding="utf-8")
    dev = compare_traces(ppm, gd)
    doc = {
        "function": f.name,
        "lambda": lam,
        "step": step,
        "x0": args.x0,
        "ppm_iterations": ppm.iterations,
        "gd_iterations": gd.iterations,
        "ppm_converged": ppm.converged,
        "gd_converged": gd.converged,
        "gd_aborted_multivalued": gd.aborted,
        "max_deviation": dev,
    }
    (dest / "deviation.json").write_text(_json(doc) + "\n", encoding="utf-8")
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

    # each subcommand registers only the options its cmd_* reads
    shared = {
        "function": {"help": "catalog name[:k=v,...] or file:PATH"},
        "lambda": {"dest": "lam", "type": float,
                   "help": "regularization parameter"},
        "out": {"default": ".", "help": "output directory"},
        "h": {"type": float, "help": "prox solver grid step (default 1e-3 "
                                     "in 1-D, 1e-2 per axis in 2-D)"},
    }

    def command(name, run, about, *flags, repeated=()):
        p = sub.add_parser(name, help=about, allow_abbrev=False)
        p.set_defaults(run=run, parser=p)
        p.add_argument("--config", help="plain-text key = value config file")
        for flag in flags:
            opts = dict(shared[flag])
            if flag in repeated:
                opts.update(action=_Repeat, help=opts["help"] + " (repeatable)")
            p.add_argument(f"--{flag}", **opts)
        return p

    p = command("envelope", cmd_envelope, "tabulate the envelope on a grid",
                "function", "lambda", "out", "h", repeated=("lambda",))
    p.add_argument("--xmin", type=float, default=-3.0)
    p.add_argument("--xmax", type=float, default=3.0)
    p.add_argument("--grid-points", type=nonnegative_int, default=121)

    p = command("prox", cmd_prox, "proximal points at a single x",
                "function", "lambda", "h")
    p.add_argument("--x", type=coords, default="0",
                   help="point coordinates, space-separated")

    p = command("verify", cmd_verify, "run the theorem verification suite",
                "function", "out", "h", repeated=("function",))
    p.add_argument("--seed", type=int, default=0, help="seed for random draws")
    p.add_argument("--draws", type=nonnegative_int, default=50,
                   help="shift-identity random draws")
    p.add_argument("--samples", type=nonnegative_int, default=32,
                   help="Halton points per check, added to each check's "
                        "fixed grid")
    p.add_argument("--json-summary", action="store_true",
                   help="also write a machine-readable summary")

    p = command("optimize", cmd_optimize, "proximal point vs envelope descent",
                "function", "lambda", "out", "h")
    p.add_argument("--x0", type=coords, default="1",
                   help="start coordinates, space-separated")
    p.add_argument("--step", type=float, help="gradient step (default lambda)")
    p.add_argument("--iters", type=nonnegative_int, default=50)

    command("threshold", cmd_threshold, "print the prox-boundedness threshold",
            "function")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: main never changes it."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    try:
        if args.config:
            # the subcommand's flags parsed again into the file's values,
            # which they replace; the file's namespace holds every option,
            # so no default of the shared parser is read or changed
            args = args.parser.parse_args(
                argv[argv.index(args.command) + 1:],
                namespace=read_config(args.parser, args.config))
        return args.run(args)
    except ThresholdExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (ConfigError, ValueError, MoreauKitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
