"""Mutation runs over single functions of the package.

    python tests/mutants.py analysis.twist_partition edits.check_edit
    python tests/mutants.py --pytest "tests/test_diagram.py" diagram.flip_crossing

Each argument names a function of ``src/altknot`` as ``MODULE.FUNCTION``
(or ``MODULE.CLASS.METHOD``).  For every mutation site in that function,
one mutant is made: a comparison swapped (``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``),
``and`` and ``or`` swapped, a ``not`` dropped, an int constant raised
by one, or a call statement dropped.  Each mutant is written into a
copy of the repository, one at a time, and the tests run there with
``-x --hypothesis-seed=0``; a mutant survives when they pass, and is
killed when they fail or outlast ``TIMEOUT`` seconds.  The run
prints one line per mutant and a table of mutants, survivors and time
per function.  Standard library only; pytest is not asked to collect
this file, and a run takes minutes per function.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 900  # seconds per test run; a mutant that loops is killed
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def sites(fn: ast.AST) -> list[tuple[ast.AST, str]]:
    """(node, what) for each mutation of ``fn``, in a fixed order."""
    out = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            out += [(node, f"op{i}") for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.BoolOp):
            out.append((node, "boolop"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, "not"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, "int"))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            out.append((node, "call"))
    return out


def mutate(fn: ast.AST, k: int) -> tuple[ast.AST, str]:
    """A copy of ``fn`` with its k-th site mutated, and a description."""
    fn = copy.deepcopy(fn)
    node, what = sites(fn)[k]
    before = ast.unparse(node)
    if what.startswith("op"):
        i = int(what[2:])
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif what == "boolop":
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif what == "not":
        # the operand takes the place of the ``not`` in its parent
        for parent in ast.walk(fn):
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, node.operand)
                elif isinstance(value, list) and any(v is node for v in value):
                    value[[v is node for v in value].index(True)] = node.operand
        return fn, f"line {node.lineno}: {before} -> {ast.unparse(node.operand)}"
    elif what == "int":
        node.value += 1
    else:
        node.value = ast.Constant(None)
    return fn, f"line {node.lineno}: {before} -> {ast.unparse(node)}"


def find(tree: ast.Module, path: list[str]) -> ast.AST:
    body = tree.body
    for name in path:
        node = next(n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
        body = node.body
    return node


def splice(text: str, fn: ast.AST, new: ast.AST) -> str:
    """``text`` with the source of ``fn`` replaced by ``new`` unparsed."""
    lines = text.splitlines(keepends=True)
    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list]) - 1
    body = textwrap.indent(ast.unparse(new), " " * fn.col_offset) + "\n"
    return "".join(lines[:first]) + body + "".join(lines[fn.end_lineno:])


def run_tests(repo: Path, pytest_args: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "--hypothesis-seed=0", "-p", "no:cacheprovider", *pytest_args]
    try:
        return subprocess.run(cmd, cwd=repo, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("functions", nargs="+", help="MODULE.FUNCTION of src/altknot")
    p.add_argument("--pytest", default="", help="extra pytest arguments, space-separated (default: every test)")
    args = p.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="altknot-mutants-"))
    repo = work / "repo"
    shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    rows = []
    try:
        for name in args.functions:
            module, *path = name.split(".")
            src = repo / "src" / "altknot" / f"{module}.py"
            text = src.read_text()
            fn = find(ast.parse(text), path)
            n, survivors, start = len(sites(fn)), [], time.monotonic()
            for k in range(n):
                mutant, what = mutate(fn, k)
                src.write_text(splice(text, fn, mutant))
                try:
                    survived = run_tests(repo, args.pytest.split())
                finally:
                    src.write_text(text)
                print(f"{name} #{k} {'SURVIVED' if survived else 'killed'} {what}", flush=True)
                if survived:
                    survivors.append(what)
            rows.append((name, n, survivors, time.monotonic() - start))
    finally:
        shutil.rmtree(work)
    print("\n| function | mutants | survived | time |\n|---|---|---|---|")
    for name, n, survivors, seconds in rows:
        print(f"| `{name}` | {n} | {len(survivors)} | {seconds:.0f} s |")
    for name, _n, survivors, _s in rows:
        for what in survivors:
            print(f"survivor: {name} {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
