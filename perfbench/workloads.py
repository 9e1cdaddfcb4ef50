"""Seeded op lists for the three workloads, and each op's output check.

A workload's `setup(seed, passes, ...)` imports what it needs, generates
its inputs from the seed, builds spaces and theories, and returns the op
list.  A workload is a fixed menu of items, each a (kind, size): the seed
draws the items' random inputs and the order in which they run, but never
changes which sizes are measured, so runs on different seeds do the same
work and compare.  The op list runs the menu `passes` times, each pass in
its own seeded order, so every item is timed once per pass, at moments
spread over the run; run.py takes each item's median over the passes.

Repeats share nothing that an op could cache: each pass of fb-session has
its own spaces (ops of one pass share them, as a session would), and every
deform op gets a freshly built theory.

Each op returns a dict with "passed" (the CLI's own pass condition) plus
optional diagnostic values.  An op that raises counts as failed.  Ops whose
check is a floating-point tolerance set `tolerance=True`; every other check
is an exact identity.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

PASS_NOMINAL_S = 8.3


@dataclass
class Op:
    kind: str
    label: str
    item: int  # index of the op's item in its workload's menu
    run: Callable[[], dict]
    tolerance: bool = False


def passes_for(seconds):
    """Passes of the menu in a run of about `seconds` on the parent commit.
    Each menu is sized so that one pass took about PASS_NOMINAL_S on the
    2-core Intel Xeon the benchmark was defined on; a faster commit runs the
    same passes in less time."""
    return max(2, round(seconds / PASS_NOMINAL_S))


def schedule(n_items, seed, passes):
    """(rng, [(pass, item), ...]): each pass runs every item once, in its own
    seeded order."""
    rng = random.Random(seed)
    order = []
    for p in range(passes):
        batch = list(range(n_items))
        rng.shuffle(batch)
        order.extend((p, i) for i in batch)
    return rng, order


# ------------------------------------------------------------- fb-session

# Every kind at l_max 6-10, and the two cheaper kinds also at 11 and 12.
# Ops of one pass share one space per l_max, so a per-space cache shows here.
FB_MENU = [(k, l) for l in (6, 7, 8, 9, 10) for k in ("ope", "cutting", "beta", "virasoro")] + [
    (k, l) for l in (11, 12) for k in ("cutting", "virasoro")
]


def fb_session(seed, passes, workdir):
    from fqft.deformation import beta, fb_theory
    from fqft.fock import build_space, build_virasoro, commutator
    from fqft.geometry import verify_cutting
    from fqft.observables import current_observable, marginal_observable, ope_extract

    radii = [Fraction(k) for k in (4, 3, 2, 1)]

    def ope(space):
        j = current_observable(space)
        table = ope_extract(space, j, j)
        o = marginal_observable(space)
        consts = ope_extract(space, o, o).marginal_constants()
        singular = [
            r
            for r in table.rows
            if r["coefficient"] != 0 and (r["exponents"][0] < 0 or r["exponents"][1] < 0)
        ]
        passed = (
            len(singular) == 1
            and singular[0]["c"] == "1"
            and tuple(singular[0]["exponents"]) == (-2, 0)
            and singular[0]["coefficient"] == 1
            and consts["K"].get(("jjbar", "jjbar")) == 1
            and all(v == 0 for v in consts["C"].values())
        )
        return {"passed": passed}

    def cutting(space):
        reports = [verify_cutting(space, radii, shifted=s) for s in (True, False)]
        return {"passed": all(r["exact_zero"] for r in reports)}

    def beta_op(space):
        return {"passed": beta(fb_theory(space)).is_zero()}

    def virasoro(space):
        # [L_2, L_-2] = 4 L_0 + 1/2 on every column whose state L_-2 keeps
        # inside the truncation
        L2, Lm2, L0 = (build_virasoro(space, n) for n in (2, -2, 0))
        comm = commutator(L2, Lm2).entries
        want = {k: 4 * v for k, v in L0.entries.items()}
        for i, level in enumerate(space.levels):
            if level + 2 <= space.l_max:
                want[(i, i)] = want.get((i, i), 0) + Fraction(1, 2)
        interior = [
            {k: v for k, v in entries.items() if space.levels[k[1]] + 2 <= space.l_max and v != 0}
            for entries in (comm, want)
        ]
        return {"passed": interior[0] == interior[1]}

    runs = {"ope": ope, "cutting": cutting, "beta": beta_op, "virasoro": virasoro}
    _, order = schedule(len(FB_MENU), seed, passes)
    levels = sorted({l for _, l in FB_MENU})
    spaces = [{l: build_space(l) for l in levels} for _ in range(passes)]
    # warm-up a session pays once: every kind once on a tiny space
    tiny = build_space(4)
    for run in runs.values():
        run(tiny)
    return [
        Op(kind, f"{kind} l_max={l}", i, lambda run=runs[kind], s=spaces[p][l]: run(s))
        for p, i in order
        for kind, l in [FB_MENU[i]]
    ]


# ---------------------------------------------------------------- deform

DEFORM_MENU = (
    [("qm", "generic", d, None) for d in (16, 24, 32)]
    # eigenvalue pairs closer than the eigen path resolves: known accuracy
    # misses of the eigen path, kept in the list on purpose
    + [("qm", "clustered", d, gap) for d in (4, 8, 16) for gap in (1e-3, 1e-5, 1e-7)]
    # exactly defective: the eigen path is refused and quadrature runs
    + [("qm", "defective", 8, None)]
    # a Jordan block under a fixed similarity that rounding splits into a
    # pair the eigen path accepts: a gross oracle miss, kept on purpose
    + [("qm", "jordan-similar", 8, None)]
    + [("formal", n, None, None) for n in range(2, 12)]
)
QM_SPLIT = 0.4


def _clustered(rng, dim, gap):
    import numpy as np

    ev = rng.standard_normal(dim)
    ev[1] = ev[0] + gap
    V = rng.standard_normal((dim, dim))
    return V @ np.diag(ev) @ np.linalg.inv(V)


def _defective(rng, dim):
    import numpy as np

    H = 0.5 * np.triu(rng.standard_normal((dim, dim)), 1)
    H += np.diag(rng.standard_normal(dim))
    H[1, 1] = H[0, 0]
    H[0, 1] = 1.0
    # a fixed norm keeps the quadrature's matrix exponentials equally costly
    # on every seed
    return H * (4.0 / np.linalg.norm(H, 1))


def _jordan_similar(dim):
    import numpy as np

    # not seeded by the run: on other draws the pair is refused and the op
    # becomes a quadrature op, which would change the workload per seed
    fixed = np.random.default_rng(3)
    J = np.diag(fixed.standard_normal(dim))
    J[1, 1] = J[0, 0]
    J[0, 1] = 1.0
    V = fixed.standard_normal((dim, dim))
    return V @ J @ np.linalg.inv(V)


def random_formal_rows(rng, n_marginals):
    """Symmetric random marginal-sector data: (primaries, rows, mixing).

    The seed draws the values and which marginals each pair feeds, but every
    pair has the same number of rows, so the cost depends on n_marginals only.
    """

    def value(limit, denominator=1):
        return Fraction(rng.choice([v for v in range(-limit, limit + 1) if v]), denominator)

    labels = [f"m{i}" for i in range(n_marginals)]
    primaries = [("1", 0, 0)] + [(l, 1, 1) for l in labels] + [("phi", 2, 2)]
    rows = []
    for ia, a in enumerate(labels):
        for b in labels[ia:]:
            targets = rng.sample(labels, (n_marginals + 1) // 2)
            new = [(a, b, c, (), (), value(5)) for c in sorted(targets)]
            new.append((a, b, "1", (), (), value(6, 2)))
            new.append((a, b, "1", (1,), (1,), value(3)))
            new.append((a, b, "phi", (1,), (1,), value(3, 3)))
            rows.extend(new)
            if a != b:
                rows.extend((b, a, c, mu, mubar, v) for (_, _, c, mu, mubar, v) in new)
    mixing = {("1", l): value(2) for l in sorted(rng.sample(labels, (n_marginals + 1) // 2))}
    return primaries, rows, mixing


def formal_theory_json(primaries, rows, mixing):
    """The `fqft beta --backend formal --theory` file format."""
    return json.dumps(
        {
            "primaries": [{"label": l, "h": h, "hbar": hb} for l, h, hb in primaries],
            "coefficients": [
                {"a": a, "b": b, "c": c, "mu": list(mu), "mubar": list(mubar), "value": str(v)}
                for a, b, c, mu, mubar, v in rows
            ],
            "mixing": [{"a": a, "gamma": g, "value": str(v)} for (a, g), v in mixing.items()],
        }
    )


def deform(seed, passes, workdir):
    import numpy as np

    from fqft.deformation import FormalTheory, anomalous_dilation, beta, double_deform
    from fqft.qm import QmTheory, qm_double_deform, taylor_series_oracle

    monos = [(), ("gc[o]",), ("gc[o]", "gc[o]")]

    def qm_op(theory, H, O):
        # the `fqft qm` pipeline: deforming by -O matches exp(-(H + gO)) order by order
        obs = {"o": -O}
        seg = qm_double_deform(theory, obs, 0.0, 1.0)
        glued = qm_double_deform(theory, obs, QM_SPLIT, 1.0).glue(
            qm_double_deform(theory, obs, 0.0, QM_SPLIT)
        )
        oracle = taylor_series_oracle(H, O, 1.0)
        scale = max(max(float(np.max(np.abs(o))) for o in oracle), 1.0)
        diff = max(
            float(np.max(np.abs(seg.value.coefficient(m) - o))) / scale
            for m, o in zip(monos, oracle)
        )
        residual = max(
            float(np.max(np.abs(glued.value.coefficient(m) - seg.value.coefficient(m)))) / scale
            for m in monos
        )
        return {
            "passed": diff < 1e-10 and residual < 1e-12,
            "oracle_diff": diff,
            "cutting_residual": residual,
        }

    def formal_op(theory):
        double_deform(theory)
        identities = [anomalous_dilation(theory, b) for b in theory.marginals]
        beta(theory)
        return {"passed": all(lhs == rhs for lhs, rhs in identities)}

    rng, order = schedule(len(DEFORM_MENU), seed, passes)
    nprng = np.random.default_rng(seed)
    # one input per item, drawn in menu order; each op builds its own theory
    # from it in set-up, so no op finds another's cached eigen-decomposition
    inputs = []
    for kind, variant, dim, gap in DEFORM_MENU:
        if kind == "formal":
            inputs.append(random_formal_rows(rng, variant))
            continue
        if variant == "generic":
            H = nprng.standard_normal((dim, dim))
        elif variant == "clustered":
            H = _clustered(nprng, dim, gap)
        elif variant == "defective":
            H = _defective(nprng, dim)
        else:
            H = _jordan_similar(dim)
        inputs.append((H, nprng.standard_normal((dim, dim))))
    ops = []
    for _, i in order:
        kind, variant, dim, gap = DEFORM_MENU[i]
        if kind == "formal":
            theory = FormalTheory(*inputs[i])
            ops.append(Op("formal", f"formal marginals={variant}", i, lambda t=theory: formal_op(t)))
            continue
        H, O = inputs[i]
        label = f"qm {variant} dim={dim}" + (f" gap={gap:g}" if gap else "")
        theory = QmTheory(H)
        ops.append(Op("qm", label, i, lambda t=theory, H=H, O=O: qm_op(t, H, O), tolerance=True))
    # warm-up a session pays once: one tiny op of each kind
    warm = np.array([[1.0, 0.5], [0.0, 2.0]])
    qm_op(QmTheory(warm), warm, warm)
    formal_op(FormalTheory(*random_formal_rows(random.Random(0), 1)))
    return ops


# ------------------------------------------------------------------- cli

# Every subcommand, each with only its own flags, exact and float64, at
# small to moderate sizes.  `qm --dim 8 --seed 0` is a known tolerance miss
# (cutting residual 2.1e-12 > 1e-12) kept on purpose.
CLI_MENU = (
    [["verify-cutting", "--lmax", l] for l in ("2", "4", "8", "10")]
    + [["verify-cutting", "--lmax", l, "--arithmetic", "float64"] for l in ("6", "12", "14")]
    + [["ope", "--lmax", l] for l in ("4", "8", "10")]
    + [["ope", "--lmax", l, "--arithmetic", "float64"] for l in ("6", "10", "11", "12")]
    + [["beta", "--lmax", l] for l in ("2", "4", "6", "8")]
    + [["beta", "--backend", "formal", "--theory", t] for t in ("{theory4}", "{theory8}")]
    + [["qm", "--dim", d, "--seed", "{seed}"] for d in ("4", "8", "16", "24", "32")]
    + [["qm", "--dim", "8", "--seed", "0"]]
    + [["all", "--lmax", l] for l in ("2", "4", "6", "8")]
)


def _cli_check(rc, stdout):
    """(passed, crashed): exit 0 with `passed: true`; no report is a crash."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return False, True
    return rc == 0 and report.get("passed") is True, False


def cli(seed, passes, workdir):
    """One call of `fqft.cli.main(argv)` per op, in this process: argument
    parsing, the command's own space or theory set-up, and its JSON report.
    The import of `fqft.cli` is paid once, in set-up."""
    import contextlib
    import io

    import fqft.cli

    rng, order = schedule(len(CLI_MENU), seed, passes)
    paths = {}
    for n in (4, 8):
        paths[f"theory{n}"] = f"{workdir}/theory{n}.json"
        with open(paths[f"theory{n}"], "w") as fh:
            fh.write(formal_theory_json(*random_formal_rows(rng, n)))
    qm_seed = rng.randrange(1, 10**6)
    argvs = [[a.format(seed=qm_seed, **paths) for a in template] for template in CLI_MENU]

    def invoke(argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = fqft.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()

    def op(argv):
        rc, stdout = invoke(argv)
        passed, crashed = _cli_check(rc, stdout)
        if crashed:
            raise RuntimeError(f"fqft {' '.join(argv)} exited {rc} without a report")
        return {"passed": passed, "exit_code": rc}

    # warm-up a session pays once: every subcommand at l_max 2
    invoke(["all", "--lmax", "2"])
    ops = []
    for _, i in order:
        argv = argvs[i]
        tolerance = argv[0] == "qm" or "float64" in argv
        label = "fqft " + " ".join(a if not a.endswith(".json") else a.rsplit("/", 1)[1] for a in argv)
        ops.append(Op("cli", label, i, lambda argv=argv: op(argv), tolerance=tolerance))
    return ops


WORKLOADS = {"fb-session": fb_session, "deform": deform, "cli": cli}

# modules each workload's process imports; the traced run measures their
# import cost with -X importtime
IMPORTS = {
    "fb-session": ["fqft.fock", "fqft.geometry", "fqft.observables", "fqft.deformation"],
    "deform": ["fqft.qm", "fqft.deformation", "fqft.jets"],
    "cli": ["fqft.cli"],
}
