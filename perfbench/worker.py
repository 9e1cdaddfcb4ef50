"""One benchmark worker process: set up a workload, then run its op list.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--trace]

Prints one JSON line: set-up seconds, each op's wall time, check result
and reference-kernel time, the peak RSS, and with --trace the span
summary.  run.py starts it with one BLAS/OpenMP thread and PYTHONPATH
pointing at the checkout's src/.
"""

from __future__ import annotations

import gc
import os
import time
from fractions import Fraction

SETUP_KERNELS = 11  # reference kernels just before and just after set-up


def reference_kernel():
    """A fixed piece of pure-Python work, the same on every commit: Fraction
    arithmetic on a sparse dict vector and integer dict updates, the kind
    of work fqft's exact code does.  Its time tracks the host's speed."""
    vec = {i: Fraction(i + 1, 7) for i in range(200)}
    for _ in range(10):
        vec = {(i * 5) % 200: v * Fraction(3, 2) + vec.get(i ^ 1, 0) for i, v in vec.items()}
    table = {}
    for i in range(20000):
        table[(i * 7919) % 5003] = table.get((i * 31) % 5003, 0) + i


def kernel_seconds():
    """Wall time of one reference kernel, with the garbage collector off so
    that the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# one CPU for this process, so that the reference kernel times the CPU the
# ops run on
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
# the host speed just before set-up, measured before its timer starts
KERNELS_BEFORE_SETUP = sorted(kernel_seconds() for _ in range(SETUP_KERNELS))
WORKER_START = time.perf_counter()  # set-up is timed from here, before `import fqft`

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402


def run_ops(ops, tracer=None):
    """Run the ops one after another, with a reference kernel between each
    two; an op's `ref_s` is the mean of the kernels just before and after it."""
    results = []
    before = kernel_seconds()
    for op in ops:
        if tracer is not None:
            tracer.open("bench.op")
        start = time.perf_counter()
        error = None
        try:
            out = op.run()
            passed = bool(out.pop("passed"))
        except Exception as exc:  # one failing op must not stop the run
            out, passed = {}, False
            error = f"{type(exc).__name__}: {exc}"[:300]
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close()
        after = kernel_seconds()
        results.append(
            {
                "kind": op.kind,
                "label": op.label,
                "item": op.item,
                "wall_s": wall,
                "ref_s": (before + after) / 2,
                "passed": passed,
                "tolerance": op.tolerance,
                "error": error,
                **out,
            }
        )
        before = after
    return results, sum(r["wall_s"] for r in results)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        wrapped = tracing.install(tracer)
        tracer.open("bench.setup")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        passes = workloads.passes_for(args.seconds)
        ops = workloads.WORKLOADS[args.workload](args.seed, passes, workdir)
        setup_s = time.perf_counter() - WORKER_START
        kernels_after = sorted(kernel_seconds() for _ in range(SETUP_KERNELS))
        doc = {
            "setup_s": setup_s,
            "setup_ref_s": (KERNELS_BEFORE_SETUP[SETUP_KERNELS // 2] + kernels_after[SETUP_KERNELS // 2]) / 2,
            "passes": passes,
        }
        if tracer is not None:
            tracer.close()
            doc["wrapped"] = wrapped
        if not args.setup_only:
            doc["ops"], doc["ops_wall_s"] = run_ops(ops, tracer)
            if tracer is not None:
                doc["trace"] = tracer.summary()
                doc["spans"] = tracer.spans
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
