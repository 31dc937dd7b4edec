"""Lint of the package's signatures and records: every parameter and every
dataclass field is read.

A parameter that no line reads is an option that changes nothing, so each
function and lambda under src/moreaukit must read every parameter it takes.
The one exception is the closed-form prox(lam, X) of a catalog factory,
which keeps the signature FunctionSpec.closed_form_prox gives all of them
even where the prox does not depend on lam (the box's projection).

Likewise a dataclass field that no code reads is a value computed for no
one: each field declared under src/moreaukit must be read as an attribute,
obj.field, somewhere in the package or its tests.  The lint goes by name,
so a field is missed when another record has a field of the same name.

And an option a subcommand registers but does not read is a setting that
changes nothing: each option of the CLI, other than --config, must be read
as args.<dest> by the subcommand's cmd_* or by a module function it calls.

A certificate's source is its only claim (proven or a hypothesis), so each
ProxBoundCertificate(...) built under src/moreaukit must pass source= by
keyword; the default, 'supplied', is for callers of the API.
"""

import argparse
import ast
import importlib.util
from pathlib import Path

import moreaukit
from moreaukit import cli

SRC = Path(moreaukit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# (module, enclosing function, function, parameter) allowed to stay unread
ALLOWED = {("functions.py", "make_box", "prox", "lam")}


def _params(node) -> list:
    a = node.args
    named = a.posonlyargs + a.args + a.kwonlyargs
    extra = [p for p in (a.vararg, a.kwarg) if p is not None]
    return [p.arg for p in named + extra]


def _reads(node) -> set:
    """Names loaded anywhere in node's body, nested scopes included."""
    body = node.body if isinstance(node.body, list) else [node.body]
    return {n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unread(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, outer: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                reads = _reads(child)
                for p in _params(child):
                    key = (path.name, outer, name, p)
                    if p not in reads and key not in ALLOWED:
                        found.append(f"{path.name}:{child.lineno} {name}({p})")
                visit(child, name)
            else:
                visit(child, outer)

    visit(tree, "<module>")
    return found


def test_every_parameter_is_read():
    unread = [u for path in sorted(SRC.glob("*.py")) for u in _unread(path)]
    assert unread == []


def test_the_lint_sees_an_unread_parameter(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b, *, c=None):\n    g = lambda d: a\n"
                   "    return g(b)\n", encoding="utf-8")
    assert _unread(mod) == ["mod.py:1 f(c)", "mod.py:2 <lambda>(d)"]


def _is_dataclass(decorator) -> bool:
    d = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(d, "id", getattr(d, "attr", None)) == "dataclass"


def _fields(path: Path) -> list:
    """(class, field) of every dataclass field declared in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.name, stmt.target.id) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(_is_dataclass(d) for d in node.decorator_list)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def _attributes_read(paths) -> set:
    """Attribute names loaded anywhere in the files at paths."""
    return {n.attr for path in paths
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _unread_fields(declared, readers) -> list:
    reads = _attributes_read(readers)
    return [f"{path.name} {cls}.{name}" for path in declared
            for cls, name in _fields(path) if name not in reads]


def test_every_dataclass_field_is_read():
    readers = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert _unread_fields(sorted(SRC.glob("*.py")), readers) == []


def test_the_lint_sees_an_unread_field(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from dataclasses import dataclass\n\n"
                   "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n\n"
                   "def f(a):\n    return a.x\n", encoding="utf-8")
    assert _unread_fields([mod], [mod]) == ["mod.py A.y"]


def _args_read(tree) -> dict:
    """name -> (attributes read off args, names called) of each function
    defined at the top level of a module."""
    out = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            nodes = list(ast.walk(fn))
            out[fn.name] = (
                {n.attr for n in nodes if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == "args"},
                {n.func.id for n in nodes if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Name)})
    return out


def _unread_options(module) -> list:
    """'<subcommand> <flag>' for each option that module.build_parser()
    registers and that the subcommand's run default does not read."""
    funcs = _args_read(ast.parse(Path(module.__file__).read_text("utf-8")))
    (subs,) = [a.choices for a in module.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    found = []
    for name, sub in subs.items():
        todo, seen, reads = [sub.get_default("run").__name__], set(), set()
        while todo:
            fn = todo.pop()
            if fn in funcs and fn not in seen:
                seen.add(fn)
                reads |= funcs[fn][0]
                todo += funcs[fn][1]
        found += [f"{name} {a.option_strings[0]}" for a in sub._actions
                  if a.dest not in reads | {"help", "config"}]
    return found


def test_every_option_is_read():
    assert _unread_options(cli) == []


def test_the_lint_sees_an_unread_option(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import argparse\n\n"
                   "def build_parser():\n"
                   "    parser = argparse.ArgumentParser()\n"
                   "    p = parser.add_subparsers().add_parser('a')\n"
                   "    for flag in ('--config', '--x', '--y', '--z'):\n"
                   "        p.add_argument(flag)\n"
                   "    p.set_defaults(run=cmd_a)\n"
                   "    return parser\n\n"
                   "def helper(args):\n    return args.y\n\n"
                   "def cmd_a(args):\n    return args.x + helper(args)\n",
                   encoding="utf-8")
    spec = importlib.util.spec_from_file_location("mod", mod)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert _unread_options(module) == ["a --z"]


def _unsourced_certificates(path: Path) -> list:
    """'<file>:<line>' of each ProxBoundCertificate(...) call in path that
    does not pass source= by keyword."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None))
            == "ProxBoundCertificate"
            and "source" not in {k.arg for k in n.keywords}]


def test_every_certificate_names_its_source():
    unsourced = [u for path in sorted(SRC.glob("*.py"))
                 for u in _unsourced_certificates(path)]
    assert unsourced == []


def test_the_lint_sees_a_certificate_without_a_source(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("a = ProxBoundCertificate(0, 0, [0], source='catalog')\n"
                   "b = functions.ProxBoundCertificate(0, 0, [0])\n"
                   "c = ProxBoundCertificate(0, 0, [0], 'sampled')\n",
                   encoding="utf-8")
    assert _unsourced_certificates(mod) == ["mod.py:2", "mod.py:3"]
