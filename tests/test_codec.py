"""Tests for the one JSON scalar codec shared by every report and golden file."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import fqft
from fqft.cli import _jsonable
from fqft.deformation import fb_theory, theory_from_json, theory_to_json
from fqft.fock import build_space, build_virasoro, current_mode
from fqft.observables import OpeTable, marginal_observable, ope_extract
from fqft.scalars import decode_scalar, encode_scalar


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
def test_writers_share_one_codec(exact):
    space = build_space(4, exact=exact)
    ops = {"j_-1": current_mode(space, -1), "L_0": build_virasoro(space, 0)}
    doc = json.loads(space.to_json(ops))
    for name, op in ops.items():
        back = {(i, j): decode_scalar(v) for i, j, v in doc["operators"][name]}
        assert back == op.entries
        assert all(type(v) is (str if exact else float) for _, _, v in doc["operators"][name])

    o = marginal_observable(space)
    table = ope_extract(space, o, o)
    back = OpeTable.from_json(table.to_json())
    assert (back.primaries, back.rows, back.mixing) == (table.primaries, table.rows, table.mixing)
    primaries = json.loads(table.to_json())["primaries"]
    dims = [(p["h"], p["hbar"]) for p in primaries]
    assert dims == [("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")]

    theory = fb_theory(space)
    text = theory_to_json(theory)
    back = theory_from_json(text)
    assert [(p.label, p.h, p.hbar) for p in back.primaries] == [
        (p.label, p.h, p.hbar) for p in theory.primaries
    ]
    assert (back.rows, back.mixing) == (theory.rows, theory.mixing)
    assert json.loads(text)["mixing"] == [{"a": "1", "gamma": "jjbar", "value": "1"}]

    # the CLI report: integral Fractions are strings there too
    assert _jsonable({("a", "b"): [Fraction(3), Fraction(-1, 2), 0.5, 2, True, None]}) == {
        "a,b": ["3", "-1/2", 0.5, 2, True, None]
    }
    assert encode_scalar(Fraction(3)) == "3" and decode_scalar("3") == Fraction(3)


def test_numpy_values_become_python_numbers():
    assert _jsonable([np.float64(0.25), np.int64(3), np.bool_(True), np.array([[1.5, 2.0]])]) == [
        0.25,
        3,
        True,
        [[1.5, 2.0]],
    ]
    assert type(encode_scalar(np.int64(3))) is int


def _leaves_out(code, modules):
    """Run `code` in a fresh interpreter; True when none of `modules` got imported."""
    check = f"\nimport sys\nsys.exit(any(m in sys.modules for m in {modules!r}))\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fqft.__file__)))
    return subprocess.run([sys.executable, "-c", code + check], env=env).returncode == 0


def test_exact_pipeline_modules_do_not_import_numpy():
    # neither the exact modules nor one formal op load numpy or sympy
    code = (
        "import fqft.fock, fqft.geometry, fqft.observables, fqft.deformation, fqft.scalars\n"
        "import fqft.rexp, fqft.jets\n"
        "from fqft.deformation import FormalTheory, anomalous_dilation, beta, double_deform\n"
        "th = FormalTheory([('1', 0, 0), ('e', 1, 1)], [('e', 'e', 'e', (), (), 3), ('e', 'e', '1', (), (), 5)])\n"
        "double_deform(th)\n"
        "lhs, rhs = anomalous_dilation(th, 'e')\n"
        "assert lhs == rhs\n"
        "beta(th).running()\n"
    )
    assert _leaves_out(code, ["numpy", "sympy"])


def test_cli_loads_numpy_for_qm_only():
    # `import fqft.cli` and the exact subcommands run as a real process load
    # none of numpy, scipy and sympy; `fqft qm` and `import fqft.qm` load
    # numpy but not scipy
    run = (
        "import contextlib, io\n"
        "from fqft.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in {argvs!r}:\n"
        "        assert main(argv) == 0\n"
    )
    exact = [["verify-cutting", "--lmax", "2"], ["ope", "--lmax", "2"], ["beta", "--lmax", "2"]]
    assert _leaves_out("import fqft.cli\n", ["numpy", "scipy", "sympy"])
    assert _leaves_out(run.format(argvs=exact), ["numpy", "scipy", "sympy"])
    assert _leaves_out(run.format(argvs=[["qm", "--dim", "4", "--seed", "1"]]), ["scipy", "sympy"])
    assert _leaves_out("import fqft.qm\n", ["scipy", "sympy"])
