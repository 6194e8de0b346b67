"""In-memory spans and counters placed on kmslab's layer boundaries from outside.

`instrument(tracer)` swaps the public functions of each layer for wrappers,
wherever a kmslab module holds a reference to them (the layer's own module,
the modules that imported the name, the package root), plus the n-D
transforms of `numpy.fft` and `scipy.fft`.  The returned callable puts every
original back.  Nothing under `src/` is edited.

A span records name, start, end, parent and request.  Counts are attributed
to the innermost open span, so ratios such as "symbol evaluations per swept
frequency" are measured where the work happens.  High-frequency calls (symbol
and multiplier evaluations, one per frequency in the sweep) are counters
only, without a span of their own.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
import weakref


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "counts", "attrs")

    def __init__(self, name, start, parent, request, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.counts = {}
        self.attrs = attrs

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "counts": self.counts,
            "attrs": self.attrs,
        }


class Tracer:
    """Spans kept in memory; single-threaded (the benchmark forces serial kmslab)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        # counts made while no span is open
        self.root_counts = {}
        # per-guard nesting depth, so nested calls of one layer count once
        self.depth = {}

    def open(self, name, attrs=None):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, self.request, attrs or {}))
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def count(self, key, amount):
        target = self.spans[self.stack[-1]].counts if self.stack else self.root_counts
        target[key] = target.get(key, 0) + amount

    def span(self, name, fn, attrs=None, after=None, guard=None):
        """Wrap fn in a span; attrs(args, kwargs) and after(span, args, result) annotate it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if guard is not None and self.depth.get(guard):
                return fn(*args, **kwargs)
            if guard is not None:
                self.depth[guard] = 1
            index = self.open(name, attrs(args, kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self.spans[index], args, result)
                return result
            finally:
                self.close(index)
                if guard is not None:
                    self.depth[guard] = 0

        return wrapper

    def counter(self, key, fn, amount, guard):
        """Wrap fn so each outermost call adds amount(args) to key."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.depth.get(guard):
                return fn(*args, **kwargs)
            self.depth[guard] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.depth[guard] = 0
            self.count(key() if callable(key) else key, amount(args))
            return result

        return wrapper


def _freq_count(freqs):
    shape = getattr(freqs, "shape", None)
    if shape is None:
        return 1
    return int(math.prod(shape[:-1]))


def _estimate_attrs(args, kwargs):
    config = args[0] if args else kwargs["config"]
    family = args[1] if len(args) > 1 else kwargs.get("family")
    grid = config.grid
    return {
        "M": int(grid.points_per_axis),
        "n": int(grid.n),
        "sweep": family is None or bool(family.sweep),
    }


def instrument(tracer: Tracer):
    """Wrap every layer boundary; returns a callable that restores the originals."""
    import numpy.fft
    import scipy.fft

    # import_module, since the package re-exports a function named `classify`
    mod = {
        name: importlib.import_module(f"kmslab.{name}")
        for name in ("operators", "classify", "multipliers", "torus", "verify", "specfile", "cli")
    }
    restore = []

    def replace(module, attr, make):
        """Swap module.attr and every kmslab-held reference to the same object."""
        original = getattr(module, attr)
        wrapper = make(original)
        holders = [module] + [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "kmslab" or name.startswith("kmslab."))
        ]
        seen = set()
        for holder in holders:
            if id(holder) in seen:
                continue
            seen.add(id(holder))
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    restore.append((holder, name, original))

    tables_seen = {}

    # operators: symbol evaluations, counted per frequency
    # (both take the frequencies as their second argument)
    for attr in ("symbol_on_frequencies", "eval_symbol"):
        replace(
            mod["operators"],
            attr,
            lambda fn: tracer.counter(
                "operators.freqs", fn, lambda a: _freq_count(a[1]), guard="operators"
            ),
        )

    # classify
    for attr in ("classify", "classify_on_kernel", "is_c_elliptic"):
        replace(mod["classify"], attr, lambda fn, attr=attr: tracer.span(f"classify.{attr}", fn))

    # multipliers: descriptor construction, grid tables, frequency evaluations
    replace(
        mod["multipliers"],
        "composed_correction_symbol",
        lambda fn: tracer.span("multipliers.build", fn),
    )

    def table_after(span, args, table):
        ref = tables_seen.get(id(table))
        hit = ref is not None and ref() is table
        span.attrs["build"] = not hit
        if not hit:
            tables_seen[id(table)] = weakref.ref(table)
            span.counts["multipliers.table_bytes"] = int(table.nbytes)

    def mult_key():
        return "multipliers.table_freqs" if tracer.depth.get("table") else "multipliers.freqs"

    descriptor = mod["multipliers"].MultiplierDescriptor
    original_table = descriptor.grid_table
    original_on_freqs = descriptor.on_frequencies
    original_init = descriptor.__init__

    descriptor.grid_table = tracer.span(
        "multipliers.grid_table", original_table, after=table_after, guard="table"
    )
    descriptor.on_frequencies = tracer.counter(
        mult_key, original_on_freqs, lambda a: _freq_count(a[1]), guard="multipliers"
    )

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.evaluate = tracer.counter(mult_key, self.evaluate, lambda a: 1, guard="multipliers")

    descriptor.__init__ = init
    restore += [
        (descriptor, "grid_table", original_table),
        (descriptor, "on_frequencies", original_on_freqs),
        (descriptor, "__init__", original_init),
    ]

    # torus: transforms, spectral application, norms, field generators
    def fft_after(span, args, result):
        span.counts["torus.fft_bytes"] = int(getattr(args[0], "nbytes", 0)) + int(result.nbytes)

    for module in (numpy.fft, scipy.fft):
        for attr in ("fftn", "ifftn", "rfftn", "irfftn"):
            replace(module, attr, lambda fn: tracer.span("torus.fft", fn, after=fft_after, guard="fft"))
    groups = {
        "torus.apply": ("apply_multiplier", "apply_operator", "apply_partmap"),
        "torus.norm": ("lp_norm", "homog_sobolev_norm", "negative_sobolev_norm_l2"),
        "torus.fieldgen": ("random_bandlimited", "plane_wave_field", "bump_field"),
    }
    for name, attrs in groups.items():
        for attr in attrs:
            replace(mod["torus"], attr, lambda fn, name=name: tracer.span(name, fn))

    # verify
    replace(
        mod["verify"],
        "estimate_constant",
        lambda fn: tracer.span("verify.estimate_constant", fn, attrs=_estimate_attrs),
    )
    for attr, name in (
        ("refinement_study", "verify.refinement_study"),
        ("check_hypotheses", "verify.check_hypotheses"),
        ("search_kernel_witness", "verify.witness"),
        ("kms_sides", "verify.kms_sides"),
    ):
        replace(mod["verify"], attr, lambda fn, name=name: tracer.span(name, fn))

    # specfile and cli
    for attr in ("load_verify_config", "parse_operator_file"):
        replace(mod["specfile"], attr, lambda fn: tracer.span("specfile.parse", fn, guard="specfile"))
    replace(mod["cli"], "main", lambda fn: tracer.span("cli.main", fn))

    def undo():
        for holder, name, original in reversed(restore):
            setattr(holder, name, original)

    return undo


# --------------------------------------------------------------------------
# per-layer metrics from spans
# --------------------------------------------------------------------------

def _self_times(indices, all_spans):
    """Span index -> its duration minus the time its child spans cover."""
    out = {i: all_spans[i].duration for i in indices}
    for i in indices:
        parent = all_spans[i].parent
        if parent in out:
            out[parent] -= all_spans[i].duration
    return out


def _raw_sums(spans, all_spans, root_counts):
    """Additive per-layer sums over spans (a subset of all_spans, by index)."""
    self_time = _self_times(spans, all_spans).__getitem__

    def inside(i, name):
        while i is not None:
            if all_spans[i].name == name:
                return True
            i = all_spans[i].parent
        return False

    raw = {
        "sym_freqs": root_counts.get("operators.freqs", 0),
        "mult_freqs": root_counts.get("multipliers.freqs", 0),
        "classify_calls": 0, "classify_samples": 0, "classify_busy_s": 0.0,
        "table_builds": 0, "table_hits": 0, "table_bytes": 0, "table_build_s": 0.0,
        "fft_calls": 0, "fft_bytes": 0, "fft_s": 0.0,
        "apply_s": 0.0, "norm_s": 0.0, "fieldgen_s": 0.0,
        "sweep_s": 0.0, "sweep_freqs": 0, "sweep_evals": 0,
        "witness_s": 0.0, "witness_scanned": 0,
        "kms_sides_calls": 0, "kms_sides_s": 0.0, "hypotheses_calls": 0,
        "estimate_M8": 0.0, "estimate_M16": 0.0, "estimate_M32": 0.0, "estimate_M48": 0.0,
        "parse_s": 0.0, "cli_self_s": 0.0,
    }
    for i in spans:
        s = all_spans[i]
        counts = s.counts
        sym = counts.get("operators.freqs", 0)
        mult = counts.get("multipliers.freqs", 0)
        raw["sym_freqs"] += sym
        raw["mult_freqs"] += mult
        parent_layer = all_spans[s.parent].layer if s.parent is not None else None
        if s.layer == "classify":
            if parent_layer != "classify":
                raw["classify_busy_s"] += s.duration
            if s.name == "classify.classify":
                raw["classify_calls"] += 1
        if sym and inside(i, "classify.classify"):
            raw["classify_samples"] += sym
        if sym and inside(i, "verify.witness"):
            raw["witness_scanned"] += sym
        if s.name == "multipliers.grid_table":
            if s.attrs.get("build"):
                raw["table_builds"] += 1
                raw["table_bytes"] += counts.get("multipliers.table_bytes", 0)
                raw["table_build_s"] += s.duration
            else:
                raw["table_hits"] += 1
        elif s.name == "torus.fft":
            raw["fft_calls"] += 1
            raw["fft_bytes"] += counts.get("torus.fft_bytes", 0)
            raw["fft_s"] += s.duration
        elif s.name == "torus.apply":
            raw["apply_s"] += self_time(i)
        elif s.name == "torus.norm":
            raw["norm_s"] += self_time(i)
        elif s.name == "torus.fieldgen":
            raw["fieldgen_s"] += self_time(i)
        elif s.name == "verify.estimate_constant":
            m = s.attrs["M"]
            key = f"estimate_M{m}"
            if key in raw:
                raw[key] += s.duration
            if s.attrs["sweep"]:
                # the sweep is the estimate's own time: everything no named child covers
                raw["sweep_s"] += self_time(i)
                raw["sweep_freqs"] += ((m - 1) ** s.attrs["n"] - 1) // 2
                raw["sweep_evals"] += sym + mult
        elif s.name == "verify.witness":
            raw["witness_s"] += s.duration
        elif s.name == "verify.kms_sides":
            raw["kms_sides_calls"] += 1
            raw["kms_sides_s"] += s.duration
        elif s.name == "verify.check_hypotheses":
            raw["hypotheses_calls"] += 1
        elif s.name == "specfile.parse":
            raw["parse_s"] += s.duration
        elif s.name == "cli.main":
            raw["cli_self_s"] += self_time(i)
    return raw


def layer_self_times(tracer: Tracer, spans):
    """Self time per layer over the given span indices."""
    out = {}
    for i, t in _self_times(spans, tracer.spans).items():
        layer = tracer.spans[i].layer
        out[layer] = out.get(layer, 0.0) + t
    return out


def per_layer_metrics(tracer: Tracer, npass: int):
    """Per-layer metrics for the traced set-up plus one average traced pass.

    Spans opened during set-up carry the request "setup"; spans of timed
    passes carry a request starting with "pass".
    """
    setup = [i for i, s in enumerate(tracer.spans) if s.request == "setup"]
    passes = [i for i, s in enumerate(tracer.spans) if str(s.request).startswith("pass")]
    a = _raw_sums(setup, tracer.spans, tracer.root_counts)
    b = _raw_sums(passes, tracer.spans, {})
    raw = {k: a[k] + b[k] / max(1, npass) for k in a}
    lookups = raw["table_builds"] + raw["table_hits"]
    return {
        "operators.symbol_freqs": (raw["sym_freqs"], "count"),
        "classify.calls": (raw["classify_calls"], "count"),
        "classify.samples": (raw["classify_samples"], "count"),
        "classify.busy_s": (raw["classify_busy_s"], "s"),
        "multipliers.table_builds": (raw["table_builds"], "count"),
        "multipliers.table_hit_ratio": (raw["table_hits"] / lookups if lookups else 0.0, "ratio"),
        "multipliers.table_bytes": (raw["table_bytes"], "bytes"),
        "multipliers.table_build_s": (raw["table_build_s"], "s"),
        "multipliers.eval_freqs": (raw["mult_freqs"], "count"),
        "torus.fft_calls": (raw["fft_calls"], "count"),
        "torus.fft_bytes": (raw["fft_bytes"], "bytes_computed"),
        "torus.fft_s": (raw["fft_s"], "s"),
        "torus.apply_s": (raw["apply_s"], "s"),
        "torus.norm_s": (raw["norm_s"], "s"),
        "torus.fieldgen_s": (raw["fieldgen_s"], "s"),
        "verify.sweep_s": (raw["sweep_s"], "s"),
        "verify.sweep_freqs": (raw["sweep_freqs"], "count"),
        "verify.symbol_evals_per_freq": (
            raw["sweep_evals"] / raw["sweep_freqs"] if raw["sweep_freqs"] else 0.0,
            "ratio",
        ),
        "verify.witness_s": (raw["witness_s"], "s"),
        "verify.witness_scanned": (raw["witness_scanned"], "count"),
        "verify.kms_sides_calls": (raw["kms_sides_calls"], "count"),
        "verify.kms_sides_s": (raw["kms_sides_s"], "s"),
        "verify.hypotheses_calls": (raw["hypotheses_calls"], "count"),
        "verify.estimate_s.M8": (raw["estimate_M8"], "s"),
        "verify.estimate_s.M16": (raw["estimate_M16"], "s"),
        "verify.estimate_s.M32": (raw["estimate_M32"], "s"),
        "verify.estimate_s.M48": (raw["estimate_M48"], "s"),
        "specfile.parse_s": (raw["parse_s"], "s"),
        "cli.self_s": (raw["cli_self_s"], "s"),
    }
