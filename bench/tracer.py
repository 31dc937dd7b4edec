"""Span tracing of moreaukit from outside the package.

The tracer replaces public functions, and the evaluator / closed_form_prox
fields of the FunctionSpecs that the public factories return, at every name
where callers look them up.  Each call becomes a span (name, start, end,
parent, op id) kept in memory; nothing under src/ changes, and uninstalling
restores the original objects.

An op ends where the workload's op ends: when a VerificationReport is built
that run_full_suite returns (one check of `verify`; the suites build other
reports too), or when a prox_map call returns that was made from outside the
package or directly by `cli.main` (one tabulated point, or one call of the
closed loop).  The last op of a `cli.main` call runs to its end.
"""

from __future__ import annotations

import time

import numpy as np

# run_*_suite function -> span name (suite spans are reported inclusive: they
# partition the verify run)
SUITE_SPANS = {
    "run_claimed_minimizer_suite": "suite.claimed",
    "run_min_transfer_suite": "suite.min_transfer",
    "run_error_bound_suite": "suite.error_bound",
    "run_fixed_point_suite": "suite.fixed_point",
    "run_strong_transfer_suite": "suite.strong_transfer",
    "run_shift_identity_suite": "suite.shift_identity",
    "run_ppm_gd_suite": "suite.ppm_gd",
}
SUITE_NAMES = ("claimed", "min_transfer", "error_bound", "error_bound_grid",
               "fixed_point", "strong_transfer", "shift_identity", "ppm_gd")
CHECKS = ("check_min_transfer", "check_error_bound", "check_strong_transfer",
          "check_prox_fixed_point", "verify_local_min", "estimate_strong_modulus")
PATHS = ("closed", "grid", "divergence")


class Tracer:
    """Columnar in-memory span store; spans nest strictly (one thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.value: list[float] = []
        self.stack: list[int] = []
        self.op_ends: list[float] = []
        self.closed_form_calls = 0
        self.roots_calls = 0

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        stack = self.stack
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        self.value.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, value: float = 0.0, nid: int = -1) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        if value:
            self.value[idx] = value
        if nid >= 0:
            self.name[idx] = nid

    def wrap(self, name: str, fn):
        nid = self.nid(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def end_op(self) -> None:
        self.op_ends.append(time.perf_counter())

    def arrays(self) -> dict:
        """Spans as numpy columns; a span's op is the first op ending after
        it starts."""
        start = np.array(self.start)
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": start,
            "end": np.array(self.end),
            "value": np.array(self.value),
            "op": np.searchsorted(np.asarray(self.op_ends), start).astype(np.int64),
            "op_ends": np.array(self.op_ends),
        }


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def set_all(self, modules, attr: str, original, value) -> None:
        """Replace attr on every module where it names `original`."""
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self.set(mod, attr, value)

    def undo(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


def install(tr: Tracer, mk) -> Patches:
    """Wrap the package's public names; `mk` holds its modules as attributes
    (top, cli, suite, minimizers, optimize, envelope, functions, parsing)."""
    p = Patches()
    mods = (mk.top, mk.cli, mk.suite, mk.minimizers, mk.optimize,
            mk.envelope, mk.functions, mk.parsing)

    p.set(mk.cli, "main", _cli_main(tr, mk.cli.main))
    made: dict = {}  # id of each report built -> when
    report = mk.minimizers.VerificationReport
    p.set_all(mods, "VerificationReport", report, _report(report, made))
    p.set(mk.cli, "run_full_suite", _full_suite(tr, mk.cli.run_full_suite, made))

    for attr, name in SUITE_SPANS.items():
        orig = getattr(mk.suite, attr, None)
        if orig is None:
            continue
        if attr == "run_error_bound_suite":
            p.set_all(mods, attr, orig, _error_bound_suite(tr, orig))
        else:
            p.set_all(mods, attr, orig, tr.wrap(name, orig))

    for attr in CHECKS:
        orig = getattr(mk.minimizers, attr, None)
        if orig is not None:
            p.set_all(mods, attr, orig, tr.wrap(f"minimizers.{attr}", orig))

    for attr, name in (("proximal_point_run", "optimize.ppm"),
                       ("envelope_gd_run", "optimize.gd")):
        orig = getattr(mk.optimize, attr, None)
        if orig is not None:
            p.set_all(mods, attr, orig, tr.wrap(name, orig))

    orig = getattr(mk.envelope, "prox_map", None)
    if orig is not None:
        p.set_all(mods, "prox_map", orig, _prox_map(tr, orig))
    orig = getattr(mk.envelope, "search_radius", None)
    if orig is not None:
        p.set_all(mods, "search_radius", orig, _search_radius(tr, orig))

    orig = getattr(mk.functions, "catalog_function", None)
    if orig is not None:
        p.set_all(mods, "catalog_function", orig, _catalog_function(tr, orig))
    orig = getattr(mk.parsing, "load_function_file", None)
    if orig is not None:
        p.set_all(mods, "load_function_file", orig, _load_function_file(tr, orig))

    # np.roots is counted, not spanned, so closed_form_s keeps its cost
    roots = mk.functions.np.roots

    def counted_roots(*args, **kwargs):
        tr.roots_calls += 1
        return roots(*args, **kwargs)
    p.set(mk.functions.np, "roots", counted_roots)
    return p


def _cli_main(tr: Tracer, fn):
    nid = tr.nid("cli.main")

    def traced(*args, **kwargs):
        i = tr.open(nid)
        ops = len(tr.op_ends)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(i)
            if len(tr.op_ends) > ops:
                tr.op_ends[-1] = tr.end[i]
    return traced


def _report(cls, made: dict):
    def traced(*args, **kwargs):
        rep = cls(*args, **kwargs)
        made[id(rep)] = time.perf_counter()
        return rep
    return traced


def _full_suite(tr: Tracer, fn, made: dict):
    """Ends one op at the build time of each report returned, in order."""
    def traced(*args, **kwargs):
        made.clear()
        reports = fn(*args, **kwargs)
        tr.op_ends.extend(made[id(r)] for r in reports if id(r) in made)
        made.clear()
        return reports
    return traced


def _error_bound_suite(tr: Tracer, fn):
    plain, grid = tr.nid("suite.error_bound"), tr.nid("suite.error_bound_grid")

    def traced(*args, **kwargs):
        i = tr.open(grid if kwargs.get("force_grid") else plain)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(i)
    return traced


def _prox_map(tr: Tracer, fn):
    """Span named by the path taken: divergence scan at or above the
    certificate threshold, closed form when the spec's closed_form_prox ran,
    grid otherwise."""
    paths = {k: tr.nid(f"envelope.prox.{k}") for k in PATHS}
    pending = tr.nid("envelope.prox")
    cli = tr.nid("cli.main")

    def traced(f, lam, *args, **kwargs):
        i = tr.open(pending)
        seen = tr.closed_form_calls
        try:
            return fn(f, lam, *args, **kwargs)
        finally:
            if lam >= f.certificate.threshold:
                path = "divergence"
            elif tr.closed_form_calls != seen:
                path = "closed"
            else:
                path = "grid"
            tr.close(i, nid=paths[path])
            parent = tr.parent[i]
            if parent < 0 or tr.name[parent] == cli:
                tr.end_op()
    return traced


def _search_radius(tr: Tracer, fn):
    nid = tr.nid("envelope.search_radius")

    def traced(*args, **kwargs):
        i = tr.open(nid)
        radius = 0.0
        try:
            radius = fn(*args, **kwargs)
            return radius
        finally:
            tr.close(i, value=radius)
    return traced


def _wrap_evaluator(tr: Tracer, fn, name: str):
    nid = tr.nid(name)

    def traced(pts):
        i = tr.open(nid)
        try:
            return fn(pts)
        finally:
            tr.close(i, value=len(pts))
    return traced


def _wrap_closed_form(tr: Tracer, fn):
    nid = tr.nid("envelope.closed_form")

    def traced(lam, x):
        i = tr.open(nid)
        tr.closed_form_calls += 1
        try:
            return fn(lam, x)
        finally:
            tr.close(i)
    return traced


def _catalog_function(tr: Tracer, fn):
    def traced(*args, **kwargs):
        spec = fn(*args, **kwargs)
        spec.evaluator = _wrap_evaluator(tr, spec.evaluator, "functions.eval")
        if spec.closed_form_prox is not None:
            spec.closed_form_prox = _wrap_closed_form(tr, spec.closed_form_prox)
        return spec
    return traced


def _load_function_file(tr: Tracer, fn):
    load = tr.wrap("parsing.load", fn)

    def traced(*args, **kwargs):
        spec = load(*args, **kwargs)
        spec.evaluator = _wrap_evaluator(tr, spec.evaluator, "parsing.eval")
        return spec
    return traced


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ids(names: list, *wanted: str) -> list:
    return [names.index(w) for w in wanted if w in names]


def layer_metrics(a: dict, passes: int) -> dict:
    """Per-layer metrics: counts and times per pass of the workload's op
    list, plus per-solve ratios and the mean search radius.

    Times are self times (span duration minus the time its child spans
    cover), except suite.* which are inclusive.
    """
    names = list(a["names"])
    name, parent, value = a["name"], a["parent"], a["value"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - cover

    def ids(*wanted):
        return _ids(names, *wanted)

    def mask(*wanted):
        return np.isin(name, ids(*wanted))

    # nearest enclosing prox span, and nearest enclosing span outside the
    # envelope and function layers (the layer that asked for a prox solve)
    prox_ids = set(ids(*(f"envelope.prox.{k}" for k in PATHS)))
    caller_ids = {i for i, n in enumerate(names)
                  if not n.startswith(("envelope.", "functions.", "parsing.eval"))}
    name_l, prox_l, caller_l = name.tolist(), [], []
    for par in parent.tolist():
        if par < 0:
            prox_l.append(-1)
            caller_l.append(-1)
        else:
            prox_l.append(par if name_l[par] in prox_ids else prox_l[par])
            caller_l.append(par if name_l[par] in caller_ids else caller_l[par])
    prox_anc = np.array(prox_l, dtype=np.int64)
    caller_anc = np.array(caller_l, dtype=np.int64)

    out: dict = {}
    evals = mask("functions.eval", "parsing.eval")
    for layer in ("functions", "parsing"):
        m = mask(f"{layer}.eval")
        out[f"{layer}.eval_calls"] = int(m.sum())
        out[f"{layer}.eval_rows"] = float(value[m].sum())
        out[f"{layer}.eval_s"] = float(self_t[m].sum())
    out["functions.eval_single_row_calls"] = int(
        (mask("functions.eval") & (value == 1)).sum())

    prox = mask(*(f"envelope.prox.{k}" for k in PATHS))
    n_prox = int(prox.sum())
    ratios = {}
    ratios["envelope.single_row_evals_per_solve"] = (
        int((evals & (value == 1) & (prox_anc >= 0)).sum()) / max(n_prox, 1))
    gridlike = mask("envelope.prox.grid", "envelope.prox.divergence")
    under_grid = (prox_anc >= 0) & np.isin(name[np.maximum(prox_anc, 0)],
                                           ids("envelope.prox.grid",
                                               "envelope.prox.divergence"))
    ratios["envelope.grid_rows_per_solve"] = (
        float(value[evals & (value > 1) & under_grid].sum())
        / max(int(gridlike.sum()), 1))
    for k in PATHS:
        m = mask(f"envelope.prox.{k}")
        out[f"envelope.prox_calls.{k}"] = int(m.sum())
        out[f"envelope.prox_s.{k}"] = float(self_t[m].sum())
    m = mask("envelope.closed_form")
    out["envelope.closed_form_calls"] = int(m.sum())
    out["envelope.closed_form_s"] = float(self_t[m].sum())
    m = mask("envelope.search_radius")
    out["envelope.search_radius_calls"] = int(m.sum())
    out["envelope.search_radius_s"] = float(self_t[m].sum())
    ratios["envelope.radius_mean"] = float(value[m].mean()) if m.any() else 0.0

    out["parsing.load_s"] = float(self_t[mask("parsing.load")].sum())
    for attr in CHECKS:
        out[f"minimizers.{attr}_s"] = float(self_t[mask(f"minimizers.{attr}")].sum())
    caller_name = np.where(caller_anc >= 0, name[np.maximum(caller_anc, 0)], -1)
    out["minimizers.prox_calls"] = int(
        (prox & np.isin(caller_name, ids(*(f"minimizers.{c}" for c in CHECKS)))).sum())
    for s in SUITE_NAMES:
        out[f"suite.{s}_s"] = float(dur[mask(f"suite.{s}")].sum())
    out["optimize.ppm_s"] = float(self_t[mask("optimize.ppm")].sum())
    out["optimize.gd_s"] = float(self_t[mask("optimize.gd")].sum())
    out["optimize.prox_calls"] = int(
        (prox & np.isin(caller_name, ids("optimize.ppm", "optimize.gd"))).sum())
    out["cli.self_s"] = float(self_t[mask("cli.main")].sum())
    return {**{k: v / passes for k, v in out.items()}, **ratios}


def traffic(layers: dict, a: dict, passes: int, wall: float) -> dict:
    """Where the traced time goes, per pass: the figures the ROADMAP
    baseline estimated from a profile.  `layers` is layer_metrics(a, passes);
    `wall` is the mean traced pass."""
    names = list(a["names"])
    name, value, start, end = a["name"], a["value"], a["start"], a["end"]

    def mask(*wanted):
        return np.isin(name, _ids(names, *wanted))

    single = mask("functions.eval", "parsing.eval") & (value == 1)
    out = {
        "eval_calls_per_pass": layers["functions.eval_calls"]
        + layers["parsing.eval_calls"],
        "single_row_eval_share_of_wall":
            float((end - start)[single].sum()) / passes / wall,
        "eval_share_of_wall":
            (layers["functions.eval_s"] + layers["parsing.eval_s"]) / wall,
        "op_ends_per_pass": len(a["op_ends"]) / passes,
    }
    radius = mask("envelope.search_radius")
    within = [radius & (start >= start[c]) & (end <= end[c])
              for c in np.flatnonzero(mask("cli.main"))]
    if any(m.any() for m in within):
        out["radius_mean_per_cli_call"] = [float(value[m].mean())
                                           for m in within if m.any()]
    suite_s = sum(layers[f"suite.{s}_s"] for s in SUITE_NAMES)
    if suite_s:
        out["suite_sum_over_wall"] = suite_s / wall
    return out
