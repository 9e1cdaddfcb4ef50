"""Reach: the src/fqft functions that a list of CLI commands never enters.

The list mirrors the CLI commands of the CI workflow, at small sizes where
CI runs large ones (l_max 6 where CI runs 16, QM dim 8 where it runs 32 and
above).  The formal theories are the ones CI reads: the deform workload's
11-marginal theory from perfbench/workloads.py (imported read-only), and
the hostile, one-row and zero-denominator theories of tests/theories/.
The commands run in process under a sys.setprofile hook, and the script
prints each function defined in src/fqft that no call entered, with its
executable line count, then the total.  fqft is imported afresh under the
hook, so calls made at import time count, and the modules loaded before
are put back afterwards.  Left out: CI's FQFT_LOG runs, which enter the same
functions as the plain ones, and its inline Python checks, which are not
CLI commands (the anomalous dilation identity among them).  The hook sees
functions, not branches.  Standard library only:

    python tools/reach.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import os
import random
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fqft"
THEORIES = ROOT / "tests" / "theories"

FREE_BOSON = [
    ["verify-cutting", "--lmax", "6"],
    ["ope", "--lmax", "6"],
    ["all", "--lmax", "6"],
    ["beta", "--lmax", "6"],
    ["ope", "--lmax", "2"],
    ["all", "--lmax", "2", "--arithmetic", "float64"],
    ["verify-cutting", "--lmax", "0"],
    ["verify-cutting", "--lmax", "1"],
]
QM = [
    ["qm", "--dim", "8", "--seed", "1"],
    ["qm", "--dim", "8"],
    ["qm", "--dim", "8", "--seed", "7"],
    ["qm", "--dim", "2", "--seed", "3"],
    ["qm", "--dim", "4", "--seed", "0"],
    ["qm", "--dim", "1"],
]


def _deform_theory(n_marginals):
    """The deform workload's formal theory on seed 1, as CI writes it."""
    name = "_reach_workloads"  # dataclasses look the module up in sys.modules
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[name] = workloads
    try:
        spec.loader.exec_module(workloads)
        rows = workloads.random_formal_rows(random.Random(1), n_marginals)
        return workloads.formal_theory_json(*rows)
    finally:
        del sys.modules[name]


def run_ci_commands():
    """Run the command list through fqft.cli.main, each writing its report
    into a temporary directory; usage errors (exit code 2) are expected
    where CI expects them, and their messages are dropped."""
    from fqft.cli import QM_DIM_HARD_CAP, main

    with tempfile.TemporaryDirectory() as tmp:
        def path(name, text=None):
            p = os.path.join(tmp, name)
            if text is not None:
                with open(p, "w") as fh:
                    fh.write(text)
            return p

        def run(argv, code=0):
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    got = main([*argv, "--out", path("report.json")])
                except SystemExit as stop:
                    got = stop.code
            if got != code:
                raise RuntimeError(f"fqft {' '.join(argv)} exited {got}, not {code}")

        for argv in FREE_BOSON + QM:
            run(argv)
        run(["qm", "--dim", str(QM_DIM_HARD_CAP + 1)], code=2)
        formal = ["--backend", "formal", "--theory"]
        run(["beta", *formal, path("theory-11.json", _deform_theory(11))])
        run(["beta", *formal, str(THEORIES / "hostile.json")])
        run(["beta", *formal, path("deep.json", "[" * 100000 + "]" * 100000)], code=2)
        for command in ("beta", "all"):
            for theory in ("one-row.json", "zero-den.json"):
                run([command, *formal, str(THEORIES / theory)], code=2)


def _lines(code):
    """The distinct line numbers a code object's instructions carry."""
    return {line for _, _, line in code.co_lines() if line is not None}


def functions(package=PACKAGE):
    """{(file, first line): (name, line count)} of every function defined in
    the package, methods and nested functions too, read off the code
    objects that compiling each module makes.  The name is
    "module.Qualified.name"; the first line is the code object's
    co_firstlineno (the first decorator's), and the count is the number of
    lines its instructions carry, its comprehensions' and lambdas' too and
    its nested functions' not: a docstring, a comment or a blank line
    counts nothing."""
    out = {}

    def visit(path, code, prefix, lines):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_name.startswith("<"):  # a comprehension or a lambda
                if lines is not None:
                    lines |= _lines(const)
                visit(path, const, prefix, lines)
            elif const.co_flags & inspect.CO_OPTIMIZED:  # a function
                own = _lines(const)
                visit(path, const, prefix + const.co_name + ".", own)
                out[str(path), const.co_firstlineno] = (prefix + const.co_name, len(own))
            else:  # a class body
                visit(path, const, prefix + const.co_name + ".", None)

    for path in sorted(package.glob("*.py")):
        visit(path, compile(path.read_text(), str(path), "exec"), path.stem + ".", None)
    return out


def never_entered(run=run_ci_commands, package=PACKAGE):
    """{name: line count} of the package's functions that run() never
    enters.  fqft is imported afresh under the hook; the fqft modules loaded
    before are restored, and so is the previous profile function."""
    defined = functions(package)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    def ours(name):
        return name == "fqft" or name.startswith("fqft.")

    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    added = str(SRC) not in sys.path
    if added:
        sys.path.insert(0, str(SRC))
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
        if added:
            sys.path.remove(str(SRC))
    return {name: lines for key, (name, lines) in defined.items() if key not in entered}


def main():
    missed = never_entered()
    for name, lines in sorted(missed.items()):
        print(f"{lines:5d}  {name}")
    print(f"{sum(missed.values()):5d}  lines in {len(missed)} functions never entered")


if __name__ == "__main__":
    main()
