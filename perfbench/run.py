"""fqft benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {fb-session,deform,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark imports fqft from its src/.
With --trace 0 it prints the end-to-end metrics, each time scaled to the
reference host speed by a reference kernel timed between ops; with
--trace 1 the per-layer metrics of a traced run, unscaled.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are the same numbers for a reader, with the machine and the failed ops.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import LAYERS
from workloads import IMPORTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
# the reference kernel's time (worker.reference_kernel) at the reference host
# speed: about its median on the 2-core Intel Xeon the benchmark was defined on
REFERENCE_KERNEL_S = 0.010
IMPORT_SAMPLES = 3
DEADLINE_S = 170
SPANS_DIR = ROOT / ".perfbench-trace"
KINDS = ["cutting", "ope", "beta", "virasoro", "qm", "formal"]
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PACKAGES = ["fqft", "sympy", "scipy", "numpy"]

# per-layer metric -> (span name, summary field) in the traced worker's output
SPAN_METRICS = {
    "cli.main_self_s": ("cli.main", "self_s"),
    "fock.build_space_s": ("fock.build_space", "inclusive_s"),
    "fock.build_space_calls": ("fock.build_space", "calls"),
    "fock.current_mode_s": ("fock.current_mode", "inclusive_s"),
    "fock.current_mode_calls": ("fock.current_mode", "calls"),
    "fock.apply_mode_s": ("fock.apply_mode", "inclusive_s"),
    "fock.apply_mode_calls": ("fock.apply_mode", "calls"),
    "fock.build_virasoro_self_s": ("fock.build_virasoro", "self_s"),
    "fock.commutator_s": ("fock.commutator", "inclusive_s"),
    "geometry.verify_cutting_self_s": ("geometry.verify_cutting", "self_s"),
    "geometry.annulus_pf_s": ("geometry.annulus_pf", "inclusive_s"),
    "geometry.annulus_pf_calls": ("geometry.annulus_pf", "calls"),
    "geometry.glue_s": ("geometry.glue", "inclusive_s"),
    "geometry.disk_pf_s": ("geometry.disk_pf", "inclusive_s"),
    "observables.ope_extract_self_s": ("observables.ope_extract", "self_s"),
    "observables.ope_extract_calls": ("observables.ope_extract", "calls"),
    "observables.two_point_self_s": ("observables.two_point", "self_s"),
    "deformation.fb_theory_self_s": ("deformation.fb_theory", "self_s"),
    "deformation.double_deform_s": ("deformation.double_deform", "inclusive_s"),
    "deformation.anomalous_dilation_s": ("deformation.anomalous_dilation", "inclusive_s"),
    "deformation.beta_s": ("deformation.beta", "inclusive_s"),
    "jets.recombine_s": ("jets.recombine", "inclusive_s"),
    "jets.jet_mul_calls": ("jets.jet_mul", "calls"),
    "qm.first_order_integral_s": ("qm.first_order_integral", "inclusive_s"),
    "qm.second_order_ordered_s": ("qm.second_order_ordered", "inclusive_s"),
    "qm.second_order_calls": ("qm.second_order_ordered", "calls"),
    "qm.evolve_s": ("qm.evolve", "inclusive_s"),
    "qm.segment_glue_s": ("qm.SegmentPF.glue", "inclusive_s"),
    "qm.taylor_series_oracle_s": ("qm.taylor_series_oracle", "inclusive_s"),
}


class BenchError(Exception):
    pass


def unit_of(name):
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls") or name in ("fock.dim_max", "fock.truncation_loss", "observables.ope_rows"):
        return "count"
    return "1"


def worker_env():
    env = {k: v for k, v in os.environ.items() if k not in ("FQFT_LOG", "PYTHONPATH")}
    env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def run_child(cmd, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(cmd[1:4]))
    # own process group, so a timeout also ends the fqft processes a cli worker started
    with subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{stderr[-2000:]}")
    return stdout, stderr


def run_worker(args, deadline, *flags):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), *flags,
    ]
    lines = run_child(cmd, deadline)[0].strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def import_times(workload, deadline):
    """Median over IMPORT_SAMPLES cold starts of -X importtime, per package."""
    stmt = "import " + ", ".join(IMPORTS[workload])
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, stderr = run_child([sys.executable, "-X", "importtime", "-c", stmt], deadline)
        samples.append(parse_importtime(stderr))
    return {p: statistics.median(s[p] for s in samples) for p in IMPORT_PACKAGES}


def parse_importtime(stderr):
    """Cumulative import seconds per package, counting each package where it
    is first imported and not again under its own parent entries."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        field = parts[2][1:]
        rows.append(((len(field) - len(field.lstrip(" "))) // 2, field.strip(), int(parts[1])))

    def owns(package, name):
        return name == package or name.startswith(package + ".")

    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    ancestors = []
    # -X importtime prints children before their parent; reversed, parents come first
    for level, name, cumulative_us in reversed(rows):
        del ancestors[level:]
        for p in IMPORT_PACKAGES:
            if owns(p, name) and not any(owns(p, a) for a in ancestors):
                totals[p] += cumulative_us / 1e6
        ancestors.append(name)
    return totals


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of
    the order statistics.  With ~20 ops of several sizes the sample median
    jumps between sizes from run to run; this estimate moves smoothly."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    if n == 1 or p >= 1:
        return ordered[-1]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def scaled(seconds, kernel_s):
    """A time measured while the reference kernel took `kernel_s`, scaled to
    the reference host speed, at which the kernel takes REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def item_times(ops):
    """Each menu item's median time over the run's passes, scaled to the
    reference host speed: {item: (kind, seconds)}."""
    times = {}
    for o in ops:
        times.setdefault(o["item"], (o["kind"], []))[1].append(scaled(o["wall_s"], o["ref_s"]))
    return {item: (kind, statistics.median(t)) for item, (kind, t) in times.items()}


def tail(walls):
    """The highest percentile with at least 10 items beyond it: (value, pct, beyond)."""
    n = len(walls)
    rank = max(1, n - 10)
    return quantile(walls, rank / n), 100.0 * rank / n, n - rank


def kind_medians(items):
    kinds = [k for k, _ in items.values()]
    return {
        f"{k}_p50_s": quantile([t for kind, t in items.values() if kind == k], 0.5)
        for k in KINDS
        if k in kinds
    }


def verdict(ops):
    """(correct, failed): a run is correct when no op raised and every failed
    check is a floating-point tolerance; every failure counts in `failed`."""
    failed = [o for o in ops if not o["passed"]]
    correct = all(o["error"] is None and o["tolerance"] for o in failed)
    return correct, failed


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": THREAD_ENV,
        "python": platform.python_version(),
        **versions,
    }


def end_to_end(args, deadline):
    docs = [run_worker(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(args, deadline)
    docs.append(res)
    ops = res["ops"]
    items = item_times(ops)
    walls = [t for _, t in items.values()]
    tail_s, pct, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(scaled(d["setup_s"], d["setup_ref_s"]) for d in docs),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_s": quantile(walls, 0.5),
        "op_tail_s": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    n, passes = len(walls), res["passes"]
    kernel_ms = 1000 * statistics.median(o["ref_s"] for o in ops)
    notes = {
        "setup_s": f"median of {len(docs)} set-ups; unscaled {statistics.median(d['setup_s'] for d in docs):.4g} s",
        "ops_per_s": f"{n} items / sum of their times; {len(ops)} ops took {res['ops_wall_s']:.2f} s unscaled,"
        f" reference kernel {kernel_ms:.2f} ms",
        "op_p50_s": f"Harrell-Davis median of {n} items, each the median of {passes} passes",
        "op_tail_s": f"p{pct:.0f} of {n} items, {beyond} beyond it",
    }
    return ops, metrics, kind_medians(items), notes


def per_layer(args, deadline):
    base = run_worker(args, deadline)
    traced = run_worker(args, deadline, "--trace")
    if [o["passed"] for o in base["ops"]] != [o["passed"] for o in traced["ops"]]:
        raise BenchError("tracing changed the result of an op check")
    imports = import_times(args.workload, deadline)
    summary = traced["trace"]
    spans, counts, maxima = summary["spans"], summary["counts"], summary["maxima"]

    metrics = {
        "import.total_s": imports["fqft"],
        "import.sympy_s": imports["sympy"],
        "import.scipy_s": imports["scipy"],
        "import.numpy_s": imports["numpy"],
    }
    for name, (span, field) in SPAN_METRICS.items():
        metrics[name] = spans.get(span, {}).get(field, 0)
    metrics["fock.dim_max"] = maxima.get("fock.dim_max", 0)
    metrics["fock.truncation_loss"] = counts.get("fock.truncation_loss", 0)
    metrics["observables.ope_rows"] = counts.get("observables.ope_rows", 0)
    integrals = counts.get("qm.integral_calls", 0)
    metrics["qm.eigen_path_ratio"] = counts.get("qm.eigen_path_calls", 0) / integrals if integrals else 0.0
    for key, name in (("oracle_diff", "qm.oracle_max_diff"), ("cutting_residual", "qm.cutting_max_residual")):
        metrics[name] = max((o[key] for o in base["ops"] if key in o), default=0.0)
    ops_wall = spans["bench.op"]["inclusive_s"]
    layer_self = summary["layer_self_s"]
    if abs(sum(layer_self.values()) - ops_wall) > 1e-9 * max(ops_wall, 1.0):
        raise BenchError(f"layer self times {sum(layer_self.values())} != op wall {ops_wall}")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    metrics["trace.ops_wall_s"] = ops_wall
    metrics["trace.overhead_ratio"] = base["ops_wall_s"] / traced["ops_wall_s"]
    medians = kind_medians(item_times(base["ops"]))
    for k in KINDS:
        metrics[f"{k}_p50_s"] = medians.get(f"{k}_p50_s", 0.0)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": traced["spans"]}))
    notes = {
        "trace.ops_wall_s": f"sum of the layer self times above; spans in {spans_file.relative_to(ROOT)}",
        "trace.overhead_ratio": "untraced / traced summed op wall time, unscaled",
    }
    return base["ops"], metrics, {}, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["fb-session", "deform", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fqft" / "__init__.py").is_file():
        print(f"error: no fqft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: fqft sources do not compile", file=sys.stderr)
        return 2

    try:
        measure = per_layer if args.trace else end_to_end
        ops, metrics, kinds, notes = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct, failed = verdict(ops)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"ops: {len(ops)} attempted, {len(failed)} failed, fail_ratio {len(failed) / len(ops):.4f}")
    for name, value in {**metrics, **kinds}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:>14.6g} {unit_of(name)}{note}")
    if not args.trace:
        print(f"  {'fail_ratio':34s} {len(failed) / len(ops):>14.6g} 1")
    first = {}  # label -> [first failed op, times failed]
    for o in failed:
        first.setdefault(o["label"], [o, 0])[1] += 1
    for label, (o, times) in first.items():
        detail = o["error"] or ", ".join(
            f"{k}={o[k]:.3g}" for k in ("oracle_diff", "cutting_residual", "exit_code") if k in o
        )
        print(f"  failed {times}x: {label}: {detail}")

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
