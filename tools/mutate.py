"""Mutation score: which checks kill each mutant of a fixed list.

A mutant is an id, a file, one old text that occurs exactly once in it,
its replacement, and the paper identity (or library invariant) the edit
breaks.  For each mutant the script copies the tree into a temporary
directory and applies the edit there.  It runs the CLI steps of the CI
workflow (the steps of .github/workflows/tests.yml whose script calls
fqft.cli), each as CI does under bash -e, then tier-1 with -x (without
tests/test_mutate.py, which every mutant fails by design), and records
which of them failed: a CLI step by its first failing command, tier-1 by
its first failing test.  It also lists the JSON reports those steps write
that differ from the unmutated tree's, a change no pass condition needs to
see.  The unmutated tree runs first, and every check must pass there.

An equivalent mutant computes what the original does, so no check can
kill it without comparing bits; it stays in the list with its reason, and
is never dropped.  A non-equivalent mutant that survives tier-1 is a
missing test.  The results go to MUT_<label>.json at the root.  Standard
library only; a full run of 50 mutants takes about 12 minutes on a 2-core
Xeon, so it is not a CI step:

    python tools/mutate.py --label 42
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# tier-1 but tests/test_mutate.py, which checks that each mutant's old text
# is in the tree: a mutated tree fails it by construction
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutate.py"]
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", ".perfbench-*"
)
STEP_TIMEOUT_S = 600
TIER1_TIMEOUT_S = 1200


class Mutant(NamedTuple):
    id: str
    path: str
    old: str
    new: str
    breaks: str
    equivalent: str | None = None  # the reason, for an equivalent mutant


MUTANTS = [
    Mutant("beta-den", "src/fqft/deformation.py",
           "frac(n, 2 * den)", "frac(n, den)",
           "beta^gamma = (1/2) g_c^alpha g_c^beta C_{alpha beta}^gamma: the 1/2"),
    Mutant("beta-weight", "src/fqft/deformation.py",
           "weight = 1 if alpha == b_ else 2", "weight = 1",
           "beta sums both orders of an off-diagonal pair: weight 2"),
    Mutant("annulus-anomaly", "src/fqft/geometry.py",
           "1 if shifted else ratio)", "1 if shifted else 1 / ratio)",
           "the unshifted annulus carries (r/R)^{c/12}, not (R/r)^{c/12}"),
    Mutant("disk-anomaly", "src/fqft/geometry.py",
           "anomaly = 1 if shifted else Fraction(1, R)",
           "anomaly = 1 if shifted else R",
           "the unshifted disk carries R^{-c/12}, not R^{c/12}"),
    Mutant("glue-anomaly", "src/fqft/geometry.py",
           "anomaly = outer.anomaly * inner.anomaly", "anomaly = outer.anomaly",
           "cutting: the anomalies of glued surfaces multiply"),
    Mutant("glue-denominator-outer", "src/fqft/geometry.py",
           "outer.den * inner.den", "outer.den",
           "cutting: a glued level is the product of its pieces' levels, denominators too"),
    Mutant("cutting-not-cross-multiplied", "src/fqft/geometry.py",
           "crossed = [x * want_den for x in got], [y * got_den for y in want]",
           "crossed = got, want",
           "cutting compares levels as values: numerators over unequal denominators "
           "compare cross-multiplied"),
    Mutant("sugawara-half", "src/fqft/fock.py",
           "denominator, half = 24, 12", "denominator, half = 24, 24",
           "L_n = (1/2) sum_k :j_{-k} j_{k+n}:, the Sugawara weight 1/2"),
    Mutant("lift-canonical", "src/fqft/fock.py",
           "canonical_rational(Fraction(sign * s, den))", "Fraction(sign * s, den)",
           "an integral mode-operator entry is an int, so consumers' arithmetic skips Fraction"),
    Mutant("pade-theta", "src/fqft/qm.py",
           "_THETA = 4.25", "_THETA = 8.5",
           "the degree-13 Pade step needs ||2^-s A|| below its backward-error bound"),
    Mutant("qm-glue-drop", "src/fqft/qm.py",
           "p[3] + p[4] + p[5]", "p[3] + p[4]",
           "QM cutting: order 2 of a glued segment sums all three products"),
    Mutant("qm-glue-reversed", "src/fqft/qm.py",
           "p = self.orders.take(_OUTER, axis=0) @ inner.orders.take(_INNER, axis=0)",
           "p = inner.orders.take(_INNER, axis=0) @ self.orders.take(_OUTER, axis=0)",
           "QM cutting: the later segment multiplies the earlier from the left",
           equivalent="every segment of one theory and one observable is a truncated jet "
           "of exp(-t(H - g O)), and these commute, so the reversed product is equal in "
           "exact arithmetic; only a bit-for-bit comparison can see it"),
    Mutant("fb-annulus-moment", "src/fqft/deformation.py",
           "(ratio ** (-2 * n) - 1) / (2 * n)", "(ratio ** (-2 * n) - 1) / n",
           "the deformed annulus moment c_n = ((R/r)^{2n} - 1) / (2n)"),
    Mutant("fb-disk-weight", "src/fqft/deformation.py",
           "state.scale(Fraction(1, 2 * k))", "state.scale(Fraction(1, k))",
           "the deformed disk is |0> + g sum_k j_{-k} jbar_{-k}|0> / (2k)"),
    Mutant("correction-c-negated", "src/fqft/deformation.py",
           "terms = {(0, 1): _channel(theory, record.C)}",
           "terms = {(0, 1): _channel(theory, record.C, sign=-1)}",
           "minimal subtraction: delta v = +log(r) C <O_gamma> + ..., which makes v~ good"),
    Mutant("k-exponents", "src/fqft/deformation.py",
           "if d == -2:  # s = 0", "if d in (-2, -1):  # s = 0",
           "the K counterterm -K/(2 r^2) sits at s = 0 alone"),
    Mutant("codec-float", "src/fqft/scalars.py",
           "    if isinstance(x, Fraction):\n        return str(x)",
           "    if isinstance(x, Fraction):\n        return float(x)",
           "exact rationals are reported exactly"),
    Mutant("oracle-tol", "src/fqft/qm.py",
           "_ORACLE_TOL = 1e-16", "_ORACLE_TOL = 1e-6",
           "the Taylor oracle sums exp(-T(H + g O)) to float accuracy"),
    Mutant("marginal-target", "src/fqft/observables.py",
           '_MARGINAL_TARGETS = (("jjbar", (), ()), ("1", (1,), (1,)))',
           '_MARGINAL_TARGETS = (("jjbar", (), ()),)',
           "C sums both |z|^{-2} targets: j jbar and j_{-1} jbar_{-1}|0>"),
    Mutant("ope-memo-without-b-state", "src/fqft/observables.py",
           "memo = (a.label, a.word, b.label, tuple(b.state.nonzero()))",
           "memo = (a.label, a.word, b.label)",
           "the OPE rows of O_a O_b read b's state: a kept table is keyed by b's nonzeros"),
    Mutant("ope-foreign-space-unchecked", "src/fqft/observables.py",
           "    if b.state.space is not space:\n"
           "        raise SpaceMismatchError(\"OPE extraction across different truncated spaces\")\n",
           "",
           "the space keeps a table under a key that holds no space: b must lie over it"),
    Mutant("handoff-any-second-read", "src/fqft/deformation.py",
           "if kept is not None and kept[0] == alpha:", "if kept is not None:",
           "a twin record keeps dilation sides only between the twins' two reads: "
           "a repeated read for one beta leaves them kept"),
    Mutant("handoff-never-cleared", "src/fqft/deformation.py",
           "record.sides = None", "pass",
           "a twin record keeps dilation sides only between the twins' two reads: "
           "the twin's read clears them"),
    Mutant("handoff-diagonal-keeps", "src/fqft/deformation.py",
           "if alpha != beta and theory._pairs.get((beta, alpha)) is record:",
           "if theory._pairs.get((beta, alpha)) is record:",
           "only a twin record keeps dilation sides: a diagonal record has no twin"),
    Mutant("handoff-unshared-keeps", "src/fqft/deformation.py",
           "if alpha != beta and theory._pairs.get((beta, alpha)) is record:",
           "if alpha != beta:",
           "only a twin record keeps dilation sides: an unshared record has no twin read"),
    Mutant("twin-not-shared", "src/fqft/deformation.py",
           "self._pairs[beta, alpha] = record  # a mirrored pair: its twin's record", "pass",
           "a mirrored pair, whose two row lists are equal, has one record for both orders"),
    Mutant("oracle-tolerance-loose", "src/fqft/cli.py",
           '"oracle": 1e-10', '"oracle": 1e-2',
           "the QM orders match the Taylor oracle of exp(-T(H + g O)) to 1e-10"),
    Mutant("qm-cutting-tolerance-loose", "src/fqft/cli.py",
           '"qm_cutting": 1e-12', '"qm_cutting": 1e-2',
           "QM cutting: glued segments match the whole segment to 1e-12"),
    Mutant("dilate-shift-without-p", "src/fqft/deformation.py",
           "canonical_rational(weight + p - D)", "canonical_rational(weight - D)",
           "Dil_lambda sends r^p to lam^p r^p: a symbol's lam shift is weight + p - D"),
    Mutant("dilate-memo-without-lam", "src/fqft/deformation.py",
           "memo = (id(val), lam, dj, n)", "memo = (id(val), dj, n)",
           "one value under two lam shifts is two shifted values: the memo key holds lam"),
    Mutant("dilate-memo-shared", "src/fqft/deformation.py",
           "self._dimensions, self._shifted = {}, {}",
           'self._dimensions, self._shifted = {}, globals().setdefault("_SHIFTED", {})',
           "no two theories share a memo: one module-level table outlives every theory"),
    Mutant("qm-endpoints-reversed", "src/fqft/qm.py",
           "if not (finite and alpha <= beta):", "if not finite:",
           "a segment runs forward: beta >= alpha"),
    Mutant("qm-endpoints-zero-length", "src/fqft/qm.py",
           "if not (finite and alpha <= beta):", "if not (finite and alpha < beta):",
           "a zero-length segment is a segment, whose value is the identity"),
    Mutant("dilation-exact-coercion", "src/fqft/observables.py",
           "lam = Fraction(lam)", "lam = lam",
           "the free boson keeps exact scalars: Dil_lambda takes lambda as Fraction(lambda)"),
    Mutant("dilation-scale-inf", "src/fqft/observables.py",
           "if not (lam > 0 and lam != math.inf):", "if not lam > 0:",
           "Dil_lambda is defined for a positive finite scale lambda alone"),
    Mutant("log-power-truncated", "src/fqft/rexp.py",
           "q >= 0 and q % 1 == 0", "q >= 0",
           "a Laurent-log key's log powers are non-negative integers: 0.5 is not 0"),
    Mutant("pade-inner-b0", "src/fqft/qm.py",
           "_PADE_MATRIX[:2, 0] = 0.0\n", "",
           "the degree-13 Pade sums that A^6 multiplies have no identity term"),
    Mutant("pade-index-b13", "src/fqft/qm.py",
           "[0, 9, 11, 13]", "[0, 9, 11, 12]",
           "the degree-13 Pade numerator multiplies A^6 A^6 A by b_13"),
    Mutant("van-loan-transposed", "src/fqft/qm.py",
           "row[:, n : 2 * n] = O", "row[:, n : 2 * n] = O.T",
           "the Van Loan generator's block above -H is the observable O itself"),
    Mutant("hbar-negative", "src/fqft/deformation.py",
           "if h < 0 or hbar < 0:", "if h < 0:",
           "a primary's dimensions h and hbar are both non-negative"),
    Mutant("spin-antichiral", "src/fqft/deformation.py",
           "if (h, hbar) in ((1, 0), (0, 1)):", "if (h, hbar) == (1, 0):",
           "both chiral spin-1 primaries, (1, 0) and (0, 1), are unsupported"),
    Mutant("label-not-string", "src/fqft/deformation.py",
           "if type(label) is not str:", "if label is None:",
           "a theory document's primary labels are JSON strings"),
    Mutant("beta-formal-lmax", "src/fqft/cli.py",
           '(args.command == "beta" and not formal)', '(args.command == "beta")',
           "the formal beta reads no Fock space, so it takes any --lmax in range"),
    Mutant("space-imports-logging", "src/fqft/fock.py",
           "log = _logger(10)", 'log = __import__("logging").getLogger("fqft")',
           "building a space imports no logging: fqft._logger looks it up only where loaded"),
    Mutant("cli-configures-unset", "src/fqft/cli.py",
           'os.environ.get("FQFT_LOG")', 'os.environ.get("FQFT_LOG", "warning")',
           "an unset FQFT_LOG configures no logging, so the CLI never imports it"),
    Mutant("cli-running-at-debug", "src/fqft/cli.py",
           "log = _logger(20)", "log = _logger(10)",
           "FQFT_LOG=info prints the running and finished lines (logging.INFO is 20)"),
    Mutant("disk-foreign-state-unchecked", "src/fqft/geometry.py",
           "        if state.space is not space:\n"
           "            raise SpaceMismatchError(\"gluing across different truncated spaces\")\n",
           "",
           "a disk's state lies over the disk's space, as glue needs of its pieces"),
    Mutant("radius-numerator-only", "src/fqft/geometry.py",
           "if type(x) is Fraction and x.denominator == 1:", "if type(x) is Fraction:",
           "a radius enters by one rule: canonical keeps a non-integral Fraction whole"),
    Mutant("radius-float-kept", "src/fqft/geometry.py",
           "return canonical_rational(R), canonical_rational(r)", "return R, r",
           "a radius enters by one rule: a float, once checked, is taken exactly"),
    Mutant("key-zero-part", "src/fqft/fock.py",
           "type(p) is not int or p <= 0", "type(p) is not int or p < 0",
           "a partition's parts are positive: j_0 is no creation mode"),
    Mutant("spin-reads-h-for-hbar", "src/fqft/deformation.py",
           "if (h, hbar) in ((1, 0), (0, 1)):", "if (h, h) in ((1, 0), (0, 1)):",
           "both chiral spin-1 primaries, (1, 0) and (0, 1), are unsupported: "
           "the check reads h and hbar"),
    Mutant("marginal-reads-h-alone", "src/fqft/deformation.py",
           "if dims == (1, 1)]", "if dims[0] == 1]",
           "a marginal primary has h = hbar = 1: (1, 2) is not marginal"),
]


def ci_cli_steps(text):
    """(name, script) of each workflow step whose run script calls
    fqft.cli, the script dedented as the runner's shell gets it."""
    steps, name, lines, indent = [], None, None, None
    for line in text.splitlines() + ["  - name: end"]:
        if lines is not None:
            if not line.strip() or len(line) - len(line.lstrip()) > indent:
                lines.append(line)
                continue
            depth = min(len(s) - len(s.lstrip()) for s in lines if s.strip())
            script = "\n".join(s[depth:] for s in lines) + "\n"
            if "fqft.cli" in script:
                steps.append((name, script))
            lines = None
        step = re.match(r"\s*- name: (.*)$", line)
        if step:
            name = step.group(1)
        run = re.match(r"(\s*)run: \|\s*$", line)
        if run:
            lines, indent = [], len(run.group(1))
    return steps


def _env(tree, runner_temp):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), RUNNER_TEMP=str(runner_temp))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PATH"] = str(Path(sys.executable).parent) + os.pathsep + env.get("PATH", "")
    return env


def run_checks(tree, steps):
    """Run the CI steps, then tier-1 with -x, in tree.  Returns the outcomes
    (each step's first failing command, with the runner's temporary
    directory written as $RUNNER_TEMP, tier-1's first failing test and its
    last line) and the JSON files the steps wrote, as {file name: text}."""
    runner_temp = Path(tempfile.mkdtemp(prefix="runner-", dir=tree.parent))
    env, cli = _env(tree, runner_temp), []
    for name, script in steps:
        path = runner_temp / "step.sh"
        path.write_text(script)
        try:
            proc = subprocess.run(
                ["bash", "--noprofile", "--norc", "-x", "-eo", "pipefail", str(path)],
                cwd=tree, env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
            )
            traced = [s for s in proc.stderr.splitlines() if s.startswith("+")]
            failure = None
            if proc.returncode:
                failure = (traced or ["?"])[-1].lstrip("+ ")
                failure = failure.replace(str(runner_temp), "$RUNNER_TEMP")
        except subprocess.TimeoutExpired:
            failure = f"timed out after {STEP_TIMEOUT_S} s"
        cli.append({"step": name, "first_failure": failure})
    reports = {p.name: p.read_text() for p in sorted(runner_temp.glob("*.json"))}
    try:
        proc = subprocess.run(
            TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIER1_TIMEOUT_S
        )
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
        tier1 = None if proc.returncode == 0 else (failed or [last])[0]
    except subprocess.TimeoutExpired:
        tier1 = last = f"timed out after {TIER1_TIMEOUT_S} s"
    outcome = {"cli": cli, "tier1_first_failure": tier1, "tier1_last_line": last}
    return outcome, reports


def apply(tree, mutant):
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"mutant {mutant.id}: old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes MUT_<label>.json")
    args = parser.parse_args(argv)
    steps = ci_cli_steps(WORKFLOW.read_text())
    with tempfile.TemporaryDirectory(prefix="fqft-mutate-") as scratch:
        base = Path(scratch) / "base"
        shutil.copytree(ROOT, base, ignore=IGNORE)
        for m in MUTANTS:  # every old text must be there before anything runs
            apply(base, m)
            shutil.copy2(ROOT / m.path, base / m.path)
        start = time.perf_counter()
        unmutated, want = run_checks(base, steps)
        if unmutated["tier1_first_failure"] or any(s["first_failure"] for s in unmutated["cli"]):
            raise SystemExit(f"the unmutated tree fails: {unmutated}")
        print(f"unmutated: every check passes ({time.perf_counter() - start:.0f} s)", flush=True)
        results = []
        for m in MUTANTS:
            tree = Path(scratch) / m.id
            shutil.copytree(base, tree, ignore=IGNORE)
            apply(tree, m)
            start = time.perf_counter()
            outcome, got = run_checks(tree, steps)
            # a step stops at its first failing command, so later reports go missing
            changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
            killed = [s["step"] for s in outcome["cli"] if s["first_failure"]]
            killed += ["tier-1"] * bool(outcome["tier1_first_failure"])
            results.append({
                **m._asdict(), **outcome, "reports_changed": changed,
                "reports_missing": sorted(want.keys() - got.keys()), "killed_by": killed,
                "seconds": round(time.perf_counter() - start, 1),
            })
            print(f"{m.id}: {'killed by ' + ', '.join(killed) if killed else 'SURVIVED'}",
                  flush=True)
            shutil.rmtree(tree)
    doc = {
        "label": args.label,
        "command": "python tools/mutate.py --label " + args.label,
        "ci_steps": [name for name, _ in steps],
        "tier1": " ".join(["python"] + TIER1[1:]),
        "unmutated": unmutated,
        "summary": {
            "mutants": len(results),
            "equivalent": [r["id"] for r in results if r["equivalent"]],
            "killed_by_cli": sum(any(s["first_failure"] for s in r["cli"]) for r in results),
            "killed_by_tier1": sum(r["tier1_first_failure"] is not None for r in results),
            "reports_changed": sum(bool(r["reports_changed"]) for r in results),
            "survivors": [r["id"] for r in results if not r["killed_by"]],
        },
        "mutants": results,
    }
    out = ROOT / f"MUT_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}: {doc['summary']}")


if __name__ == "__main__":
    main()
