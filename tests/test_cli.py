"""Tests for the command-line interface and JSON reports."""

import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fqft.cli
import fqft.geometry
from fqft.cli import main
from fqft.deformation import FormalTheory
from theory_json import theory_to_json


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_cutting_exact(capsys):
    code, report = run_cli(capsys, ["verify-cutting", "--lmax", "2"])
    assert code == 0
    assert report["schema_version"] == 6
    # the exact check is exact equality: it reads, and records, no tolerance
    assert set(report["config"]) == {"l_max", "arithmetic"}
    assert report["passed"] is True
    assert report["results"]["exact_zero"] is True
    assert report["wall_time_s"] is None


def test_verify_cutting_float(capsys):
    # --arithmetic float64 cuts in exact rationals: zero residuals, and no
    # tolerance is read or recorded
    code, report = run_cli(
        capsys, ["verify-cutting", "--lmax", "3", "--arithmetic", "float64"]
    )
    assert code == 0 and report["passed"] is True
    assert report["results"]["exact_zero"] is True
    assert report["results"]["max_residual"] == 0.0
    assert report["config"] == {"arithmetic": "float64", "l_max": 3}


def test_ope_report(capsys):
    code, report = run_cli(capsys, ["ope", "--lmax", "4"])
    assert code == 0
    rows = report["results"]["rows"]
    singular = [r for r in rows if r["exponents"][0] < 0 and r["coefficient"] != "0"]
    assert len(singular) == 1
    assert singular[0]["exponents"] == [-2, 0]
    assert report["results"]["marginal_constants"]["K"]["jjbar,jjbar"] == "1"


def test_beta_free_boson(capsys):
    code, report = run_cli(capsys, ["beta", "--lmax", "3"])
    assert code == 0
    assert report["results"]["zero"] is True
    assert report["config"] == {"backend": "free-boson", "l_max": 3}


def _nonzero_beta_theory():
    return FormalTheory([("1", 0, 0), ("e", 1, 1)], [("e", "e", "e", (), (), 1)])


def test_beta_free_boson_fails_on_nonzero_beta(capsys, monkeypatch):
    # the free-boson pass bit is the vanishing of beta, in `beta` and in `all`
    monkeypatch.setattr(fqft.cli, "fb_theory", lambda space: _nonzero_beta_theory())
    code, report = run_cli(capsys, ["beta", "--lmax", "2"])
    assert code == 1 and report["passed"] is False
    code, report = run_cli(capsys, ["all", "--lmax", "2"])
    assert code == 1 and report["results"]["beta"]["passed"] is False


@pytest.mark.parametrize("arithmetic, built", [("exact", [3]), ("float64", [3])])
def test_all_builds_one_space_per_arithmetic(capsys, monkeypatch, arithmetic, built):
    # cutting, ope and free-boson beta share one space, whatever --arithmetic
    made, build_space = [], fqft.cli.build_space

    def counted(l_max):
        made.append(l_max)
        return build_space(l_max)

    monkeypatch.setattr(fqft.cli, "build_space", counted)
    code, report = run_cli(capsys, ["all", "--lmax", "3", "--arithmetic", arithmetic])
    assert code == 0 and report["passed"] is True
    assert made == built


def test_beta_formal_backend(capsys, tmp_path):
    path = tmp_path / "theory.json"
    path.write_text(theory_to_json(_nonzero_beta_theory()))
    code, report = run_cli(
        capsys, ["beta", "--backend", "formal", "--theory", str(path)]
    )
    assert code == 0
    assert report["results"]["zero"] is False
    assert report["results"]["beta"]["e"]["gc[e]*gc[e]"] == "1/2"
    # the formal backend reads no Fock space, so --lmax 0 is no usage error there
    argv = ["beta", "--backend", "formal", "--lmax", "0", "--theory", str(path)]
    code, at_zero = run_cli(capsys, argv)
    assert code == 0 and at_zero["results"] == report["results"]


def test_beta_formal_running_golden(capsys, tmp_path):
    # the running couplings print each rational multiple of log(lam) as
    # sympy printed it: these strings are the report of the sympy backend
    theory = FormalTheory(
        [("1", 0, 0), ("x", 1, 1), ("y", 1, 1), ("z", 1, 1)],
        [
            ("x", "x", "x", (), (), -7),
            ("x", "y", "x", (), (), 3),
            ("y", "x", "x", (), (), 3),
            ("y", "y", "z", (), (), -1),
            ("z", "z", "y", (), (), 2),
            ("x", "z", "z", (), (), -1),
            ("z", "x", "z", (), (), -1),
        ],
    )
    path = tmp_path / "theory.json"
    path.write_text(theory_to_json(theory))
    code, report = run_cli(capsys, ["beta", "--backend", "formal", "--theory", str(path)])
    assert code == 0
    assert report["results"]["running"] == {
        "x": {"gc[x]": "1", "gc[x]*gc[x]": "-7*log(lam)/2", "gc[x]*gc[y]": "3*log(lam)"},
        "y": {"gc[y]": "1", "gc[z]*gc[z]": "log(lam)"},
        "z": {"gc[x]*gc[z]": "-log(lam)", "gc[y]*gc[y]": "-log(lam)/2", "gc[z]": "1"},
    }


def test_qm_report(capsys):
    code, report = run_cli(capsys, ["qm", "--dim", "4", "--seed", "7"])
    assert code == 0
    # every order the segment computes is checked: three oracle diffs
    assert len(report["results"]["oracle_diffs"]) == 3
    assert all(d < 1e-10 for d in report["results"]["oracle_diffs"])
    assert report["results"]["cutting_residual"] < 1e-12
    assert report["schema_version"] == 6
    assert set(report["config"]) == {"dim", "seed", "tolerances"}
    assert set(report["config"]["tolerances"]) == {"oracle", "qm_cutting"}


def test_all_aggregates(capsys):
    code, report = run_cli(capsys, ["all", "--lmax", "2", "--timing"])
    assert code == 0
    assert set(report["results"]) == {"verify-cutting", "ope", "beta", "qm"}
    assert all(v["passed"] for v in report["results"].values())
    assert report["wall_time_s"] > 0
    # exact cutting and OPE checks read no tolerance; qm reads its two
    assert set(report["config"]["tolerances"]) == {"oracle", "qm_cutting"}


def test_report_determinism(capsys):
    main(["ope", "--lmax", "3"])
    first = capsys.readouterr().out
    main(["ope", "--lmax", "3"])
    second = capsys.readouterr().out
    assert first == second


# SHA-256 of the reports as commit 78d3fec wrote them, and of `all --lmax 8`
# as commit 13fcb2d wrote it, the last to carry a float64 free boson, each
# moved to schema 6: schema_version 6, and no `mode` or `orders` key.  The
# `all` report is hashed without its qm section, whose residuals are
# rounding-level floats that depend on the BLAS numpy links; the rest is
# pure Python.  Its config.tolerances pins the QM tolerances.
REPORT_DIGESTS = {
    "ope --lmax 12": "1517581ef64fb68682ad4a090e70dc073696a3849d414c70a070260bee43daef",
    "all --lmax 8": "a93644726f3d420e95a1d8b9f58c98a45f59b8b0c99e012c137180382f0f1aad",
    "beta --lmax 8": "e3b71330dac31d41926d6f1a5d098115fff7e7e994d1e838db134130346f403c",
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS))
def test_report_matches_pinned_digest(capsys, argv):
    # byte identity
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    if argv.startswith("all"):
        report = json.loads(out)
        del report["results"]["qm"]
        out = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[argv]


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify-cutting", "--lmax", "2", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(path.read_text())
    assert report["command"] == "verify-cutting"


def test_failed_cutting_check_exits_1(capsys, monkeypatch):
    # a glued annulus off at one level fails the exact cutting check: exit 1,
    # passed false, and the report names the level
    glue, Annulus = fqft.geometry.glue, fqft.geometry.Annulus

    def faulty_glue(outer, inner):
        out = glue(outer, inner)
        if not isinstance(inner, Annulus):
            return out
        by_level = out.by_level
        by_level[1] *= Fraction(101, 100)
        return Annulus(out.space, out.R, out.r, by_level, out.anomaly)

    monkeypatch.setattr(fqft.geometry, "glue", faulty_glue)
    code, report = run_cli(capsys, ["verify-cutting", "--lmax", "2"])
    assert code == 1 and report["passed"] is False
    assert report["results"]["offending_level"] == 1


@pytest.mark.parametrize("argv, key", [(["qm"], "oracle")], ids=["qm"])
def test_failed_float_check_exits_1(capsys, monkeypatch, argv, key):
    # an absurdly tight tolerance fails the float check: exit 1, passed false
    monkeypatch.setitem(fqft.cli.TOLERANCES, key, 1e-300)
    code, report = run_cli(capsys, argv)
    assert code == 1 and report["passed"] is False


@pytest.mark.parametrize(
    "argv, tolerances",
    [
        (["ope", "--lmax", "2", "--arithmetic", "float64"], None),
        (["qm"], {"oracle": 1e-10, "qm_cutting": 1e-12}),
    ],
    ids=["ope", "qm"],
)
def test_reports_record_the_fixed_tolerances(capsys, argv, tolerances):
    # the tolerances are constants, not options: a loosened one shows here.
    # The free-boson checks are exact equalities and read none, whatever
    # --arithmetic says
    code, report = run_cli(capsys, argv)
    assert code == 0 and report["config"].get("tolerances") == tolerances


@pytest.mark.parametrize("command", ["verify-cutting", "ope", "all"])
def test_float64_run_is_the_exact_run(capsys, command):
    # --arithmetic is accepted and recorded, and selects nothing: a float64
    # run computes in exact rationals and reports what the exact run does
    runs = {
        arithmetic: run_cli(capsys, [command, "--lmax", "3", "--arithmetic", arithmetic])
        for arithmetic in ("exact", "float64")
    }
    assert [code for code, _ in runs.values()] == [0, 0]
    (_, exact), (_, float64) = runs.values()
    assert float64["passed"] is True
    assert float64["config"].pop("arithmetic") == "float64"
    assert exact["config"].pop("arithmetic") == "exact"
    assert float64 == exact


@pytest.mark.parametrize("command", list(fqft.cli.COMMANDS))
def test_tolerance_is_not_an_option(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--tolerance", "oracle=1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("fqft: error: ")] == [
        "fqft: error: unrecognized arguments: --tolerance oracle=1"
    ]


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["ope", "--tolerance", "nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["ope", "--tolerance", "cutting=-1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["ope", "--lmax", "-1"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["qm", "--dim", "0"],
        ["qm", "--dim", "-3"],
        ["qm", "--dim", str(fqft.cli.QM_DIM_HARD_CAP + 1)],
        ["all", "--dim", str(fqft.cli.QM_DIM_HARD_CAP + 1)],
        ["qm", "--tolerance", "oracle=nan"],
        ["qm", "--tolerance", "bogus=1"],
        ["qm", "--seed", "-1"],
        ["all", "--seed", "-1"],
        # qm checks the three orders it computes: no flag selects fewer
        ["qm", "--orders", "1"],
        ["all", "--orders", "1"],
    ],
    ids=[
        "dim-0",
        "dim-negative",
        "dim-above-cap",
        "all-dim-above-cap",
        "tolerance-nan",
        "tolerance-unknown-key",
        "seed-negative",
        "all-seed-negative",
        "orders",
        "all-orders",
    ],
)
def test_bad_qm_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.strip().splitlines()[-1].startswith("fqft: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["ope", "--lmax", "0"],
        ["ope", "--lmax", "1"],
        ["beta", "--lmax", "0"],
        ["beta", "--lmax", "1"],
        ["all", "--lmax", "0"],
        ["all", "--lmax", "1"],
        ["verify-cutting", "--lmax", "17"],
        ["ope", "--lmax", "17"],
        ["beta", "--backend", "formal", "--theory", "{tmp}/missing.json"],
        ["beta", "--backend", "formal", "--theory", "{tmp}/malformed.json"],
        ["beta", "--backend", "formal"],
        ["beta", "--backend", "qm"],
        ["beta", "--arithmetic", "float64"],
        ["qm", "--lmax", "5"],
        ["verify-cutting", "--dim", "3"],
        ["ope", "--theory", "x.json"],
        ["verify-cutting", "--tolerance", "oracle=1e-3"],
        ["ope", "--tolerance", "qm_cutting=1e-3"],
        ["qm", "--tolerance", "cutting=1e-3"],
        ["verify-cutting", "--lmax", "2", "--tolerance", "cutting=1e-3"],
        ["ope", "--lmax", "2", "--tolerance", "ope=1e-3"],
        ["all", "--lmax", "2", "--tolerance", "cutting=1e-3"],
        ["verify-cutting", "--lmax", "2", "--out", "{tmp}/missing/report.json"],
        ["beta", "--lmax", "2", "--theory", "{tmp}/missing.json"],
        ["beta", "--backend", "formal", "--theory", "{tmp}/value-inf.json"],
        ["beta", "--backend", "formal", "--theory", "{tmp}/h-inf.json"],
        ["beta", "--backend", "formal", "--theory", "{tmp}/float-part.json"],
        ["beta", "--backend", "formal", "--theory", "{tmp}/bool-part.json"],
        ["beta", "--backend", "formal", "--theory", "{tmp}/int-label.json"],
        ["beta", "--backend", "formal", "--theory", "{tmp}/deep.json"],
        ["beta", "--backend", "formal", "--theory", "{tmp}/one-row.json"],
        ["all", "--backend", "formal", "--theory", "{tmp}/one-row.json"],
    ],
    ids=[
        "ope-lmax-0",
        "ope-lmax-1",
        "beta-lmax-0",
        "beta-lmax-1",
        "all-lmax-0",
        "all-lmax-1",
        "verify-cutting-above-cap",
        "ope-above-cap",
        "theory-missing-file",
        "theory-malformed",
        "theory-not-given",
        "beta-backend-qm",
        "beta-arithmetic",
        "qm-lmax",
        "verify-cutting-dim",
        "ope-theory",
        "verify-cutting-tolerance-oracle",
        "ope-tolerance-qm_cutting",
        "qm-tolerance-cutting",
        "verify-cutting-exact-tolerance-cutting",
        "ope-exact-tolerance-ope",
        "all-exact-tolerance-cutting",
        "out-unwritable",
        "beta-theory-without-formal",
        "theory-value-1e400",
        "theory-h-infinity",
        "theory-float-part",
        "theory-bool-part",
        "theory-label-not-string",
        "theory-deeply-nested",
        "beta-theory-without-gc-form",
        "all-theory-without-gc-form",
    ],
)
def test_bad_input_is_usage_error(capsys, tmp_path, argv):
    (tmp_path / "malformed.json").write_text("{}")
    # both numbers decode to float('inf'), which has no Fraction
    primaries = '[{"label": "1", "h": "0", "hbar": "0"}, {"label": "e", "h": "1", "hbar": "1"}]'
    row = '{"a": "e", "b": "e", "c": "e", "mu": [], "mubar": [], "value": 1e400}'
    (tmp_path / "value-inf.json").write_text(
        f'{{"primaries": {primaries}, "coefficients": [{row}]}}'
    )
    (tmp_path / "h-inf.json").write_text(
        '{"primaries": [{"label": "e", "h": Infinity, "hbar": "1"}]}'
    )
    # descendant labels must be partitions of ints: 0.5 and true are not parts
    for name, part in [("float-part", "0.5"), ("bool-part", "true")]:
        bad = f'{{"a": "e", "b": "e", "c": "1", "mu": [{part}], "mubar": [{part}], "value": 1}}'
        (tmp_path / f"{name}.json").write_text(
            f'{{"primaries": {primaries}, "coefficients": [{bad}]}}'
        )
    # a primary label is a JSON string, not a number
    (tmp_path / "int-label.json").write_text(
        '{"primaries": [{"label": 1, "h": "0", "hbar": "0"}], "coefficients": []}'
    )
    # nested past the parser's recursion limit
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    (tmp_path / "one-row.json").write_text(theory_to_json(_one_row_theory()))
    with pytest.raises(SystemExit) as err:
        main([a.format(tmp=tmp_path) for a in argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.strip().splitlines()[-1].startswith("fqft: error: ")


def _one_row_theory():
    """C_mn^m = 1 but C_nm = 0: the OPE orders disagree, so there is no g_c form."""
    return FormalTheory([("1", 0, 0), ("m", 1, 1), ("n", 1, 1)], [("m", "n", "m", (), (), 1)])


@pytest.mark.parametrize("command", ["beta", "all"])
def test_theory_without_gc_form_fails_at_load(capsys, tmp_path, monkeypatch, command):
    # the theory is rejected as it loads: before --out is opened, and before
    # `all` runs its cutting and OPE checks
    def no_run(*args):
        raise AssertionError("the cutting check ran")

    monkeypatch.setattr(fqft.cli, "verify_cutting", no_run)
    theory, out = tmp_path / "one-row.json", tmp_path / "report.json"
    theory.write_text(theory_to_json(_one_row_theory()))
    with pytest.raises(SystemExit) as err:
        main([command, "--backend", "formal", "--theory", str(theory), "--out", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = [ln for ln in captured.err.splitlines() if ln.startswith("fqft: error: ")]
    assert line.startswith(f"fqft: error: invalid --theory {theory}: ")
    assert "not symmetric in (m, n)" in line
    assert "Traceback" not in captured.err


def _theory_skeleton():
    """A valid theory document: two marginals whose off-diagonal rows are
    symmetric, a mixing channel and an identity row."""
    return {
        "primaries": [
            {"label": "1", "h": 0, "hbar": 0},
            {"label": "e", "h": 1, "hbar": 1},
            {"label": "f", "h": "1", "hbar": "1"},
        ],
        "coefficients": [
            {"a": "e", "b": "f", "c": "e", "mu": [], "mubar": [], "value": "1/2"},
            {"a": "f", "b": "e", "c": "e", "mu": [], "mubar": [], "value": "1/2"},
            {"a": "e", "b": "e", "c": "1", "mu": [1], "mubar": [1], "value": 3},
            {"a": "e", "b": "e", "c": "1", "mu": [2, 1], "mubar": [3], "value": -0.25},
            {"a": "f", "b": "f", "c": "1", "mu": [], "mubar": [], "value": "-7/3"},
        ],
        "mixing": [{"a": "1", "gamma": "e", "value": "2/3"}],
    }


# leaves a theory file may hold: zero denominators, bools, floats, NaN and
# infinities, containers, unknown labels, bad and large (bounded) partition
# parts, and strings the scalar bound rejects before Fraction parses them
HOSTILE = st.sampled_from(
    [
        "1/0", "0/0", "-3/0", True, False, None, 0.5, -1e300, 1e400,
        float("nan"), float("inf"), "NaN", "Infinity", "-inf", "1e999999999", "9" * 1001,
        [], {}, [[1]], {"a": 1}, [1, 2], [True], [0], [-1], [1.5], [10**6], [3, 3, 1],
        "x", "", "1", "e", -1, 0, 2, 10**6, 10**30, "1e-3",
    ]
).map(copy.deepcopy)  # a fresh container per draw: later edits may change it


def _nodes(doc):
    """(container, key) for every value below the root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value)


@st.composite
def _hostile_theory_documents(draw):
    """The skeleton with one to three edits: a value replaced, a key or an
    item removed, an extra key, or an item duplicated."""
    doc = _theory_skeleton()
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        parent, key = draw(st.sampled_from(nodes))
        edit = draw(st.sampled_from(["replace", "remove", "extra", "duplicate"]))
        if edit == "replace":
            parent[key] = draw(HOSTILE)
        elif edit == "remove":
            del parent[key]
        elif isinstance(parent, dict):
            parent["extra" if edit == "extra" else key] = draw(HOSTILE)
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def _edited(path, key, value):
    """The skeleton with doc[path...][key] set to value."""
    doc = node = _theory_skeleton()
    for step in path:
        node = node[step]
    node[key] = value
    return doc


@given(_hostile_theory_documents())
@example(_theory_skeleton())
@example(_edited(["coefficients", 0], "value", "1/0"))
@example(_edited(["primaries", 1], "h", "1/0"))
@example(_edited(["mixing", 0], "value", "2/0"))
@example(_edited(["primaries", 2], "label", True))
@settings(max_examples=150, deadline=None)
def test_theory_file_surface_has_no_traceback(tmp_path_factory, doc):
    # whatever a theory file holds, formal beta and all end in a report
    # (exit 0 or 1) or in one "fqft: error:" line and exit 2
    path = tmp_path_factory.mktemp("theory") / "theory.json"
    path.write_text(json.dumps(doc))
    for argv in (["beta"], ["all", "--lmax", "2"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--backend", "formal", "--theory", str(path)])
            except SystemExit as exit_:
                code = exit_.code
                lines = [ln for ln in err.getvalue().splitlines() if ln.startswith("fqft: error:")]
                assert code == 2 and len(lines) == 1, err.getvalue()
            else:
                assert code in (0, 1)


def test_log_name_that_is_not_a_level_falls_back_to_warning(monkeypatch):
    # logging.BASIC_FORMAT is a format string, not a level.  Run in a fresh
    # process: basicConfig reads the level only while the root logger has no
    # handlers, and pytest's log capture installs some
    monkeypatch.setenv("FQFT_LOG", "basic_format")
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(fqft.__file__)))
    argv = [sys.executable, "-m", "fqft.cli", "verify-cutting", "--lmax", "2"]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["passed"] is True
    assert run.stderr == ""


FINISHED = "INFO:fqft:verify-cutting finished in <t>s (passed=True)"


@pytest.mark.parametrize(
    "level, lines",
    [
        (None, []),
        ("info", ["INFO:fqft:running verify-cutting", FINISHED]),
        (
            "debug",
            [
                "INFO:fqft:running verify-cutting",
                "DEBUG:fqft:fock space l_max=3 dim=18 blocks=14",
                "DEBUG:fqft:verify_cutting l_max=3 radii=4",
                FINISHED,
            ],
        ),
    ],
    ids=["unset", "info", "debug"],
)
def test_fqft_log_prints_its_lines_in_a_fresh_process(monkeypatch, level, lines):
    # a fresh process, for the same reason as above; logging loads only
    # when FQFT_LOG is set
    if level is None:
        monkeypatch.delenv("FQFT_LOG", raising=False)
    else:
        monkeypatch.setenv("FQFT_LOG", level)
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(fqft.__file__)))
    argv = [sys.executable, "-m", "fqft.cli", "verify-cutting", "--lmax", "3"]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["passed"] is True
    # the elapsed time varies, so it is matched as a pattern
    assert re.sub(r" in \d+\.\d{3}s ", " in <t>s ", run.stderr).splitlines() == lines


def test_all_extracts_the_marginal_ope_once(monkeypatch):
    # ope's marginal constants and free-boson beta read one jjbar x jjbar
    # table of the space `all` shares
    monkeypatch.setenv("FQFT_LOG", "debug")
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(fqft.__file__)))
    argv = [sys.executable, "-m", "fqft.cli", "all", "--lmax", "4"]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    stages = [ln.split(" rows=")[0] for ln in run.stderr.splitlines() if "ope_extract" in ln]
    assert stages == ["DEBUG:fqft:ope_extract a=jjbar b=jjbar", "DEBUG:fqft:ope_extract a=j b=j"]


@pytest.mark.parametrize("bad", ["1/0", "9" * 1001, True], ids=["zero-den", "long", "bool"])
def test_a_repeated_bad_scalar_is_a_usage_error(capsys, tmp_path, bad):
    # theory_from_json decodes each distinct string once: a bad value met
    # again is rejected as on its first reading, and a bool is never decoded
    doc = _theory_skeleton()
    for c in doc["coefficients"][:2]:
        c["value"] = bad
    doc["primaries"][2]["h"] = bad
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as err:
        main(["beta", "--backend", "formal", "--theory", str(path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.strip().splitlines()[-1].startswith("fqft: error: invalid --theory")


def test_verify_cutting_at_low_lmax(capsys):
    # verify-cutting needs no level-2 state, so l_max 0 and 1 stay valid
    for lmax in ("0", "1"):
        code, report = run_cli(capsys, ["verify-cutting", "--lmax", lmax])
        assert code == 0 and report["results"]["exact_zero"] is True


def test_cached_parser_keeps_no_state(capsys, tmp_path):
    # build_parser is built once per process; a run after a usage error and
    # after other subcommands reports exactly what a fresh parser gives
    path = tmp_path / "theory.json"
    path.write_text(theory_to_json(_nonzero_beta_theory()))
    runs = [
        ["verify-cutting", "--lmax", "2"],
        ["beta", "--backend", "formal", "--theory", str(path)],
        ["qm", "--dim", "2"],
    ]
    with pytest.raises(SystemExit) as err:
        main(["qm", "--dim", "two"])
    assert err.value.code == 2
    capsys.readouterr()
    shared = [run_cli(capsys, argv) for argv in runs]
    fresh = []
    for argv in runs:
        fqft.cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 0]
