"""Spans and counts around fqft's public functions, recorded from outside.

`install()` wraps each function in TARGETS and rebinds the wrapper in every
loaded `fqft.*` module namespace that holds the original, so calls between
fqft's own modules are traced too.  A function that no longer exists is
skipped and its metrics read 0.  `rexp` and `scalars` are leaf value types
called once per coefficient; their cost stays in their callers' self time.

Spans (name, start, end, parent) are kept in memory.  A span's self time is
its duration minus its children's.  Every op is a root span "bench.op", so
the per-layer self times under ops add up to the traced op wall time;
set-up runs under "bench.setup" and stays out of those sums.
"""

from __future__ import annotations

import functools
import sys
import time

TARGETS = {
    "fock": ["build_space", "current_mode", "apply_mode", "build_virasoro", "commutator"],
    "geometry": ["verify_cutting", "annulus_pf", "glue", "disk_pf"],
    "observables": ["current_observable", "marginal_observable", "two_point", "ope_extract"],
    "deformation": ["fb_theory", "double_deform", "anomalous_dilation", "beta"],
    "jets": ["recombine", "jet_mul"],
    "qm": [
        "evolve",
        "first_order_integral",
        "second_order_ordered",
        "qm_double_deform",
        "taylor_series_oracle",
        "SegmentPF.glue",
    ],
    "cli": ["main"],
}
LAYERS = list(TARGETS) + ["bench"]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.maxima = {}

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def summary(self):
        """Per span name: calls, inclusive and self seconds.  Per layer: the
        self seconds of spans under an op (not under set-up)."""
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
        names = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = names.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            self_s = end - start - child[i]
            row["calls"] += 1
            row["self_s"] += self_s
            if self.spans[root[i]][0] == "bench.op":
                layers[name.split(".", 1)[0]] += self_s
            # inclusive time counts only the outermost of nested same-name spans
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["inclusive_s"] += end - start
        return {"spans": names, "layer_self_s": layers, "counts": self.counts, "maxima": self.maxima}


def _after_hooks(tracer):
    # attributes read with defaults, so a later change of these types leaves
    # the count at 0 instead of failing the traced op
    def build_space(args, out):
        tracer.peak("fock.dim_max", getattr(out, "dim", 0))

    def apply_mode(args, out):
        before = getattr(args[1], "truncation_loss", 0) if len(args) > 1 else 0
        tracer.count("fock.truncation_loss", getattr(out, "truncation_loss", before) - before)

    def ope_extract(args, out):
        tracer.count("observables.ope_rows", len(getattr(out, "rows", ())))

    def integral(args, out):
        # path read from outside: QmTheory.eigen() is cached after the call
        eigen = getattr(args[0], "eigen", None) if args else None
        tracer.count("qm.integral_calls")
        if eigen is not None and eigen() is not None:
            tracer.count("qm.eigen_path_calls")

    return {
        "fock.build_space": build_space,
        "fock.apply_mode": apply_mode,
        "observables.ope_extract": ope_extract,
        "qm.first_order_integral": integral,
        "qm.second_order_ordered": integral,
    }


def _wrap(tracer, name, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out
        finally:
            tracer.close()

    return traced


def install(tracer):
    """Wrap every target that exists; returns the names wrapped."""
    import importlib

    hooks = _after_hooks(tracer)
    modules = {m: importlib.import_module(f"fqft.{m}") for m in TARGETS}
    loaded = [mod for key, mod in sys.modules.items() if key == "fqft" or key.startswith("fqft.")]
    wrapped = []
    for layer, names in TARGETS.items():
        for qualname in names:
            owner = modules[layer]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            name = f"{layer}.{qualname}"
            wrapper = _wrap(tracer, name, fn, hooks.get(name))
            if path:
                setattr(owner, attr, wrapper)
            else:
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
            wrapped.append(name)
    return wrapped
