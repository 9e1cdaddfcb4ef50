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

from .deformation import _unordered_pairs, fb_theory, theory_from_json
from .deformation import beta as beta_fn
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

# Hard cap on `qm --dim`.  One process and one BLAS thread on a 2-core Xeon,
# Python 3.11, numpy 2.4 (OpenBLAS), `fqft qm` reports a wall time of
# 0.24-0.30 s at dim 128 (peak RSS 53 MB), 1.2-1.3 s at 256 (100 MB) and
# 8.6-8.7 s at 512 (267 MB): per doubling, 4-7x the time and 2-3x the memory.
QM_DIM_HARD_CAP = 512


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


# the free-boson commands build their space, or read the one `all` shares

def cmd_verify_cutting(args, tol, space=None):
    exact = args.arithmetic == "exact"
    space = space or build_space(args.l_max, exact=exact)
    radii = [Fraction(k) for k in (4, 3, 2, 1)] if exact else [4.0, 3.0, 2.0, 1.0]
    report = verify_cutting(space, radii)
    if exact:
        passed = report["exact_zero"]
    else:
        passed = (
            max(report["max_residual"], report["disk_residual"]) < tol["cutting"]
        )
    return report, passed


def cmd_ope(args, tol, space=None):
    space = space or build_space(args.l_max, exact=args.arithmetic == "exact")
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
    return {"rows": table.rows, "marginal_constants": consts}, passed


def cmd_beta(args, tol, space=None):
    if args.backend == "formal":
        theory = args.formal_theory
    else:  # in exact arithmetic whatever the --arithmetic
        theory = fb_theory(space or build_space(args.l_max))
    res = beta_fn(theory)
    results = {
        "marginals": sorted(theory.marginals),
        "beta": res.coefficients,
        "running": res.running(),
        "zero": res.is_zero(),
    }
    # the free boson's beta vanishes identically; the formal backend has no
    # cheap identity to check yet (a theory with no g_c form fails at load)
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
    # deforming by -O matches exp(-T (H + g O)) order by order; one mapping,
    # so the glued segments share their observable
    obs = {"o": -O}
    seg = qm_double_deform(theory, obs, 0.0, T)
    oracle = taylor_series_oracle(H, O, T, order=args.orders)
    scale = max(max(float(np.max(np.abs(o))) for o in oracle), 1.0)
    diffs = [float(np.max(np.abs(seg.orders[k] - o))) / scale for k, o in enumerate(oracle)]
    split = 0.4 * T
    glued = qm_double_deform(theory, obs, split, T).glue(
        qm_double_deform(theory, obs, 0.0, split)
    )
    k = len(oracle)
    cut_res = float(np.max(np.abs(glued.orders[:k] - seg.orders[:k]))) / scale
    results = {
        "dim": dim,
        "orders": args.orders,
        "oracle_diffs": diffs,
        "cutting_residual": cut_res,
    }
    passed = all(d < tol["oracle"] for d in diffs) and cut_res < tol["qm_cutting"]
    return results, passed


def cmd_all(args, tol):
    # one space per arithmetic: free-boson beta reads an exact one, formal beta none
    space = build_space(args.l_max, exact=args.arithmetic == "exact")
    exact = space if space.exact or args.backend == "formal" else build_space(args.l_max)
    runs = {
        "verify-cutting": cmd_verify_cutting(args, tol, space),
        "ope": cmd_ope(args, tol, space),
        "beta": cmd_beta(args, tol, exact),
        "qm": cmd_qm(args, tol),
    }
    results = {name: {"results": sub, "passed": ok} for name, (sub, ok) in runs.items()}
    return results, all(ok for _, ok in runs.values())


FLAGS = {
    "--lmax": dict(dest="l_max", type=int, default=4),
    "--arithmetic": dict(choices=["exact", "float64"], default="exact"),
    "--backend": dict(choices=["free-boson", "formal"], default="free-boson"),
    "--theory": dict(help="formal theory JSON file"),
    "--dim": dict(type=int, default=4, help=f"qm Hilbert dimension, 1..{QM_DIM_HARD_CAP}"),
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
    # only int attributes are levels: logging.BASIC_FORMAT is a format string
    level = getattr(logging, os.environ.get("FQFT_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    formal = getattr(args, "backend", None) == "formal"
    if "l_max" in args:
        if not 0 <= args.l_max <= L_MAX_HARD_CAP:
            parser.error(f"--lmax must be in 0..{L_MAX_HARD_CAP}")
        uses_marginal = args.command in ("ope", "all") or (args.command == "beta" and not formal)
        if args.l_max < 2 and uses_marginal:
            parser.error(f"{args.command} needs --lmax >= 2 (j jbar sits at level 2)")
    if "dim" in args and not 1 <= args.dim <= QM_DIM_HARD_CAP:
        parser.error(f"--dim must be in 1..{QM_DIM_HARD_CAP}")
    if "seed" in args and args.seed < 0:
        # numpy's default_rng takes non-negative seeds only
        parser.error("--seed must be >= 0")
    args.formal_theory = None
    if getattr(args, "theory", None) and not formal:
        parser.error("--theory needs --backend formal")
    if formal:
        if not args.theory:
            parser.error("--theory is required with --backend formal")
        try:
            with open(args.theory) as fh:
                args.formal_theory = theory_from_json(fh.read())
            # the walk beta and double_deform share: it builds each pair's
            # record and rejects a theory with no g_c form before any work
            for _ in _unordered_pairs(args.formal_theory):
                pass
        except OSError as err:
            parser.error(f"cannot read --theory {args.theory}: {err.strerror}")
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as err:
            # OverflowError: Fraction of an infinite number (1e400, Infinity);
            # RecursionError: json.loads of deeply nested arrays or objects;
            # RecombinationError, a ValueError: a pair whose OPE orders disagree
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
