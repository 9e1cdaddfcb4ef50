"""Tests for the one JSON scalar codec shared by every report and golden file."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import fqft
import fqft.scalars
from fqft.cli import _jsonable
from fqft.deformation import fb_theory, theory_from_json
from fqft.fock import build_space, build_virasoro
from fqft.observables import marginal_observable, ope_extract
from fqft.scalars import SCALAR_MAX_DIGITS, decode_scalar, encode_scalar
from theory_json import theory_to_json


def _written(x):
    """x as the CLI report writes it and a reader parses it back."""
    return json.loads(json.dumps(_jsonable(x)))


def test_writers_share_one_codec():
    # the CLI's _jsonable is the one writer: operator entries, OPE rows and a
    # theory read back through decode_scalar and theory_from_json
    space = build_space(4)
    ops = {n: build_virasoro(space, n) for n in (-2, -1, 0)}
    doc = _written({f"L_{n}": sorted(op.entries.items()) for n, op in ops.items()})
    forms = set()
    for n, op in ops.items():
        entries = op.entries
        back = {(i, j): decode_scalar(v) for (i, j), v in doc[f"L_{n}"]}
        assert back == entries
        # an integral entry is written as a JSON int, any other as "p/q"
        for (i, j), v in doc[f"L_{n}"]:
            want = int if type(entries[i, j]) is int else str
            assert type(v) is want and (want is int or "/" in v), (n, v)
            forms.add(want)
    assert forms == {int, str}

    o = marginal_observable(space)
    table = ope_extract(space, o, o)
    rows = _written(table.rows)
    assert [decode_scalar(r["coefficient"]) for r in rows] == [
        r["coefficient"] for r in table.rows
    ]
    assert [(r["mu"], r["mubar"], r["exponents"]) for r in rows] == [
        (list(r["mu"]), list(r["mubar"]), list(r["exponents"])) for r in table.rows
    ]

    theory = fb_theory(space)
    dims = _written([(p.h, p.hbar) for p in theory.primaries])
    assert dims == [["0", "0"], ["1", "1"]]
    doc = _written(
        {
            "primaries": [{"label": p.label, "h": p.h, "hbar": p.hbar} for p in theory.primaries],
            "coefficients": [
                {"a": a, "b": b, "c": c, "mu": mu, "mubar": mubar, "value": val}
                for (a, b), rows in sorted(theory.rows.items())
                for (c, mu, mubar, val) in rows
            ],
            "mixing": [
                {"a": a, "gamma": g, "value": v} for (a, g), v in sorted(theory.mixing.items())
            ],
        }
    )
    # the tests' theory writer and the CLI codec write the same document
    assert json.loads(theory_to_json(theory)) == doc
    back = theory_from_json(json.dumps(doc))
    assert [(p.label, p.h, p.hbar) for p in back.primaries] == [
        (p.label, p.h, p.hbar) for p in theory.primaries
    ]
    assert (back.rows, back.mixing) == (theory.rows, theory.mixing)
    assert doc["mixing"] == [{"a": "1", "gamma": "jjbar", "value": "1"}]

    # the CLI report: integral Fractions are strings there too
    assert _jsonable({("a", "b"): [Fraction(3), Fraction(-1, 2), 0.5, 2, True, None]}) == {
        "a,b": ["3", "-1/2", 0.5, 2, True, None]
    }
    assert encode_scalar(Fraction(3)) == "3" and decode_scalar("3") == Fraction(3)


def test_decode_scalar_rejects_bools_and_values_past_its_bound(monkeypatch):
    # a JSON bool is not a number, and a value past the bound is rejected
    # before Fraction sees it: Fraction("1e999999999") would build a
    # billion-digit integer, so here Fraction must not be called at all
    def no_parse(*args):
        raise AssertionError(f"Fraction{args!r} was called")

    monkeypatch.setattr(fqft.scalars, "Fraction", no_parse)
    cap = SCALAR_MAX_DIGITS
    for bad, reason in [
        (True, "bool"),
        (False, "bool"),
        ("1e999999999", "exponent"),
        (f"1E-{cap + 1}", "exponent"),
        ("9" * (cap + 1), "characters"),
    ]:
        with pytest.raises(ValueError, match=reason):
            decode_scalar(bad)
    monkeypatch.undo()
    assert decode_scalar(f"1e{cap}") == 10**cap and decode_scalar("9" * cap) == int("9" * cap)
    with pytest.raises(ZeroDivisionError):
        decode_scalar("1/0")


def test_theory_from_json_decodes_each_string_once():
    # equal strings of one document decode to one Fraction, so mirrored rows
    # share their values; JSON ints still become Fractions, bools are refused
    doc = {
        "primaries": [
            {"label": "1", "h": 0, "hbar": "0"},
            {"label": "e", "h": "1", "hbar": 1},
            {"label": "f", "h": "1", "hbar": "1"},
        ],
        "coefficients": [
            {"a": "e", "b": "f", "c": "e", "mu": [], "mubar": [], "value": "3/4"},
            {"a": "f", "b": "e", "c": "e", "mu": [], "mubar": [], "value": "3/4"},
            {"a": "e", "b": "e", "c": "1", "mu": [1], "mubar": [1], "value": 2},
            {"a": "f", "b": "f", "c": "1", "mu": [1], "mubar": [1], "value": 2},
        ],
        "mixing": [{"a": "1", "gamma": "e", "value": "3/4"}],
    }
    th = theory_from_json(json.dumps(doc))
    (ef,), (fe,) = th.rows["e", "f"], th.rows["f", "e"]
    assert ef[3] is fe[3] and th.mixing["1", "e"] == Fraction(3, 4)
    assert th._pair("e", "f") is th._pair("f", "e")
    (ee,), (ff,) = th.rows["e", "e"], th.rows["f", "f"]
    assert type(ee[3]) is type(ff[3]) is Fraction and ee[3] == ff[3] == 2
    assert [(p.h, p.hbar) for p in th.primaries] == [(0, 0), (1, 1), (1, 1)]
    assert all(type(x) is Fraction for p in th.primaries for x in (p.h, p.hbar))
    doc["primaries"][1]["hbar"] = True
    with pytest.raises(ValueError, match="bool"):
        theory_from_json(json.dumps(doc))


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
    env.pop("FQFT_LOG", None)  # logging loads where FQFT_LOG is set
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
    # `import fqft.cli`, a cap space and the exact subcommands run as a real
    # process load none of numpy, scipy, sympy and logging (FQFT_LOG unset);
    # `fqft qm` and `import fqft.qm` load numpy but not scipy
    run = (
        "import contextlib, io\n"
        "from fqft.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in {argvs!r}:\n"
        "        assert main(argv) == 0\n"
    )
    theory = os.path.join(os.path.dirname(__file__), "theories", "hostile.json")
    exact = [
        ["verify-cutting", "--lmax", "2"],
        ["ope", "--lmax", "2"],
        ["beta", "--lmax", "2"],
        ["beta", "--backend", "formal", "--theory", theory],
    ]
    unused = ["numpy", "scipy", "sympy", "logging"]
    assert _leaves_out("import fqft.cli\n", unused)
    assert _leaves_out("from fqft.fock import build_space\nbuild_space(16)\n", ["logging"])
    assert _leaves_out(run.format(argvs=exact), unused)
    assert _leaves_out(run.format(argvs=[["qm", "--dim", "4", "--seed", "1"]]), ["scipy", "sympy"])
    assert _leaves_out("import fqft.qm\n", ["scipy", "sympy"])
