"""Command-line front end: runs the pipelines and emits JSON reports."""

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import sys
import time
from fractions import Fraction

from .deformation import beta as beta_fn
from .deformation import fb_theory, theory_from_json
from .fock import L_MAX_HARD_CAP, build_space
from .geometry import verify_cutting
from .jets import Jet
from .observables import current_observable, marginal_observable, ope_extract
from .scalars import encode_scalar

SCHEMA_VERSION = 5

DEFAULT_TOLERANCES = {
    "cutting": 1e-12,
    "ope": 1e-10,
    "oracle": 1e-10,
    "qm_cutting": 1e-12,
}

log = logging.getLogger("fqft")


def _jsonable(x):
    """Deterministic JSON form: jets as monomial -> value maps, containers
    recursively, scalars by the shared codec."""
    if isinstance(x, Jet):
        return {("*".join(m) if m else "1"): _jsonable(c) for m, c in sorted(x.terms.items())}
    if isinstance(x, dict):
        return {
            (",".join(map(str, k)) if isinstance(k, tuple) else str(k)): _jsonable(v)
            for k, v in x.items()
        }
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return encode_scalar(x)


# tolerances of the free-boson checks, which exact arithmetic replaces by
# exact equality
FLOAT_ONLY_TOLERANCES = {"cutting", "ope"}


def _parse_tolerances(command, arithmetic, pairs):
    """The tolerances `command` reads in `arithmetic` (None when it takes no
    --arithmetic): defaults, overridden by KEY=VAL pairs."""
    tol = {
        key: DEFAULT_TOLERANCES[key]
        for key in COMMANDS[command][2]
        if arithmetic != "exact" or key not in FLOAT_ONLY_TOLERANCES
    }
    for item in pairs or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"expected KEY=VAL, got {item!r}")
        if key not in tol:
            known = ", ".join(tol) or "none"
            where = f" with --arithmetic {arithmetic}" if arithmetic else ""
            raise argparse.ArgumentTypeError(
                f"{command} reads no tolerance {key!r}{where} (it reads: {known})"
            )
        val = float(val)
        if not (math.isfinite(val) and val > 0):
            raise argparse.ArgumentTypeError(f"tolerance {key} must be positive and finite")
        tol[key] = val
    return tol


# ----------------------------------------------------------------- commands


def cmd_verify_cutting(args, tol):
    exact = args.arithmetic == "exact"
    space = build_space(args.l_max, exact=exact)
    radii = [Fraction(k) for k in (4, 3, 2, 1)] if exact else [4.0, 3.0, 2.0, 1.0]
    report = verify_cutting(space, radii)
    if exact:
        passed = report["exact_zero"]
    else:
        passed = (
            max(report["max_residual"], report["disk_residual"]) < tol["cutting"]
        )
    return report, passed


def cmd_ope(args, tol):
    space = build_space(args.l_max, exact=args.arithmetic == "exact")
    j = current_observable(space)
    table = ope_extract(space, j, j)
    o = marginal_observable(space)
    consts = ope_extract(space, o, o).marginal_constants()
    singular = [
        r
        for r in table.rows
        if r["coefficient"] != 0 and (r["exponents"][0] < 0 or r["exponents"][1] < 0)
    ]
    eps = 0 if space.exact else tol["ope"]
    passed = (
        len(singular) == 1
        and singular[0]["c"] == "1"
        and singular[0]["exponents"] == (-2, 0)
        and abs(singular[0]["coefficient"] - 1) <= eps
        and abs(consts["K"][("jjbar", "jjbar")] - 1) <= eps
        and all(abs(v) <= eps for v in consts["C"].values())
    )
    results = {
        "rows": [_jsonable(r) for r in table.rows],
        "marginal_constants": _jsonable(consts),
    }
    return results, passed


def cmd_beta(args, tol):
    if args.backend == "formal":
        theory = args.formal_theory
    else:
        theory = fb_theory(build_space(args.l_max))
    res = beta_fn(theory)
    results = {
        "marginals": sorted(theory.marginals),
        "beta": _jsonable(res.coefficients),
        "running": _jsonable(res.running()),
        "zero": res.is_zero(),
    }
    # the free boson's beta vanishes identically; the formal backend has no
    # cheap identity to check yet
    return results, args.backend == "formal" or res.is_zero()


def cmd_qm(args, tol):
    # numpy loads here only, so the exact subcommands never pay for it
    import numpy as np

    from .qm import QmTheory, qm_double_deform, taylor_series_oracle

    rng = np.random.default_rng(args.seed)
    dim = args.dim
    T = 1.0
    H = rng.standard_normal((dim, dim))
    O = rng.standard_normal((dim, dim))
    theory = QmTheory(H)
    # deforming by -O matches exp(-T (H + g O)) order by order
    seg = qm_double_deform(theory, {"o": -O}, 0.0, T)
    oracle = taylor_series_oracle(H, O, T, order=args.orders)
    monos = [(), ("gc[o]",), ("gc[o]", "gc[o]")][: args.orders + 1]
    scale = max(max(float(np.max(np.abs(o))) for o in oracle), 1.0)
    diffs = [
        float(np.max(np.abs(seg.value.coefficient(m) - o))) / scale
        for m, o in zip(monos, oracle)
    ]
    split = 0.4 * T
    glued = qm_double_deform(theory, {"o": -O}, split, T).glue(
        qm_double_deform(theory, {"o": -O}, 0.0, split)
    )
    cut_res = max(
        float(np.max(np.abs(glued.value.coefficient(m) - seg.value.coefficient(m))))
        / scale
        for m in monos
    )
    results = {
        "dim": dim,
        "orders": args.orders,
        "oracle_diffs": diffs,
        "cutting_residual": cut_res,
    }
    passed = all(d < tol["oracle"] for d in diffs) and cut_res < tol["qm_cutting"]
    return results, passed


def cmd_all(args, tol):
    results, passed = {}, True
    for name, fn in [
        ("verify-cutting", cmd_verify_cutting),
        ("ope", cmd_ope),
        ("beta", cmd_beta),
        ("qm", cmd_qm),
    ]:
        sub, ok = fn(args, tol)
        results[name] = {"results": sub, "passed": ok}
        passed = passed and ok
    return results, passed


FLAGS = {
    "--lmax": dict(dest="l_max", type=int, default=4),
    "--arithmetic": dict(choices=["exact", "float64"], default="exact"),
    "--backend": dict(choices=["free-boson", "formal"], default="free-boson"),
    "--theory": dict(help="formal theory JSON file"),
    "--dim": dict(type=int, default=4, help="qm Hilbert dimension"),
    "--seed": dict(type=int, default=0),
    "--orders": dict(type=int, default=2, choices=[0, 1, 2]),
}

# each subcommand: its command, the flags it reads and the tolerance keys its
# checks read in float64; it also takes --out and --timing, and --tolerance
# when it reads a tolerance
COMMANDS = {
    "verify-cutting": (cmd_verify_cutting, ["--lmax", "--arithmetic"], ["cutting"]),
    "ope": (cmd_ope, ["--lmax", "--arithmetic"], ["ope"]),
    "beta": (cmd_beta, ["--lmax", "--backend", "--theory"], []),
    "qm": (cmd_qm, ["--dim", "--seed", "--orders"], ["oracle", "qm_cutting"]),
}
COMMANDS["all"] = (
    cmd_all,
    list(dict.fromkeys(f for _, fs, _ in COMMANDS.values() for f in fs)),
    [key for _, _, keys in COMMANDS.values() for key in keys],
)

# the report's config holds those of these settings the subcommand takes
SETTINGS = ("l_max", "arithmetic", "backend", "dim", "seed", "orders")


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fqft",
        description="Functorial QFT at finite truncation: cutting checks, "
        "OPE extraction, beta functions, and the quantum-mechanics oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, tolerances) in COMMANDS.items():
        # errors propagate to the top parser, so every usage error reads "fqft: error: ..."
        p = sub.add_parser(name, exit_on_error=False)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        if tolerances:
            p.add_argument(
                "--tolerance",
                action="append",
                metavar="KEY=VAL",
                help="override a tolerance: "
                + ", ".join(
                    f"{key} (float64 only)" if key in FLOAT_ONLY_TOLERANCES else key
                    for key in tolerances
                ),
            )
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--timing", action="store_true", help="include wall time")
    return parser


def main(argv=None):
    level = os.environ.get("FQFT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    formal = getattr(args, "backend", None) == "formal"
    if "l_max" in args:
        if not 0 <= args.l_max <= L_MAX_HARD_CAP:
            parser.error(f"--lmax must be in 0..{L_MAX_HARD_CAP}")
        uses_marginal = args.command in ("ope", "all") or (args.command == "beta" and not formal)
        if args.l_max < 2 and uses_marginal:
            parser.error(f"{args.command} needs --lmax >= 2 (j jbar sits at level 2)")
    if "dim" in args and args.dim < 1:
        parser.error("--dim must be >= 1")
    args.formal_theory = None
    if getattr(args, "theory", None) and not formal:
        parser.error("--theory needs --backend formal")
    if formal:
        if not args.theory:
            parser.error("--theory is required with --backend formal")
        try:
            with open(args.theory) as fh:
                args.formal_theory = theory_from_json(fh.read())
        except OSError as err:
            parser.error(f"cannot read --theory {args.theory}: {err.strerror}")
        except (ValueError, KeyError, TypeError, OverflowError) as err:
            # OverflowError: Fraction of an infinite number (1e400, Infinity)
            parser.error(f"invalid --theory {args.theory}: {err!r}")
    config = {key: getattr(args, key) for key in SETTINGS if key in args}
    tol = None
    if "tolerance" in args:
        try:
            tol = _parse_tolerances(args.command, config.get("arithmetic"), args.tolerance)
        except (argparse.ArgumentTypeError, ValueError) as err:
            parser.error(str(err))
        if tol:
            config["tolerances"] = tol
    # opened before the run, so an unwritable path fails at once
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as err:
        parser.error(f"cannot write --out {args.out}: {err.strerror}")
    with out as sink:
        log.info("running %s", args.command)
        start = time.perf_counter()
        results, passed = COMMANDS[args.command][0](args, tol)
        elapsed = time.perf_counter() - start
        log.info("%s finished in %.3fs (passed=%s)", args.command, elapsed, passed)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": config,
            "results": _jsonable(results),
            "passed": passed,
            "wall_time_s": elapsed if args.timing else None,
        }
        sink.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
