"""Spans and counters around colorlie's layer boundaries, from outside.

`Tracer.install()` replaces the public functions named in LAYERS with timing
wrappers, everywhere colorlie holds a reference to them (so the names that
`cli` and `repmod` bind with `from ... import` are wrapped too).  Spans and
counts stay in memory; `write()` dumps the spans once at the end and
`metrics()` folds them into per-layer totals.  A layer's self time is its
duration minus the time covered by the wrapped calls made inside it.
"""

import json
import sys
import time
from collections import defaultdict

MODULES = ("field", "algebra", "linalg", "envelope", "repmod", "cli")


def _hc_cold(counts, args, kwargs):
    spec, triple = args[0], args[1]
    return triple.deltas not in (getattr(spec, "_hc_cache", None) or {})


def _count(key, fn):
    def after(counts, args, kwargs, result, dur, token):
        counts[key] += fn(args, result)
    return after


def _hc_after(counts, args, kwargs, result, dur, token):
    counts["envelope.harish_chandra.terms_in"] += len(args[0].terms)
    counts["envelope.harish_chandra.terms_kept"] += len(result.terms)


def _f_via_hc_after(counts, args, kwargs, result, dur, token):
    if token:
        counts["repmod.f_via_hc.cold_s"] += dur


def _is_simple_after(counts, args, kwargs, result, dur, token):
    counts["repmod.is_simple.lines"] += result["lines"]
    counts["repmod.is_simple.randomized"] += result["method"] == "randomized"


def _rref_cells(args, result):
    r, c, k = args[0].a.shape
    return r * c * k


# layer name -> (module, attribute path, before hook, after hook)
LAYERS = {
    "field.Field": ("field", "Field.__init__", None, None),
    "algebra.make_gl": ("algebra", "make_gl", None, None),
    "cli.load_spec": ("cli", "load_spec", None, None),
    "linalg.echelon_insert": ("linalg", "Echelon.insert", None,
                              _count("linalg.echelon_insert.accepted",
                                     lambda a, r: bool(r))),
    "linalg.matmul": ("linalg", "Mat.__matmul__", None, None),
    "linalg.rref": ("linalg", "Mat.rref", None,
                    _count("linalg.rref.cells", _rref_cells)),
    "envelope.nf_product": ("envelope", "nf_product", None,
                            _count("envelope.nf_product.terms_out",
                                   lambda a, r: len(r.terms))),
    "envelope.harish_chandra": ("envelope", "harish_chandra", None,
                                _hc_after),
    "envelope.frobenius_gram": ("envelope", "frobenius_gram", None,
                                _count("envelope.frobenius_gram.dim_sum",
                                       lambda a, r: r["dimension"])),
    "repmod.f_closed": ("repmod", "f_closed", None, None),
    "repmod.f_via_hc": ("repmod", "f_via_hc", _hc_cold, _f_via_hc_after),
    "repmod.verma_build": ("repmod", "verma_build", None,
                           _count("repmod.verma_build.dim_sum",
                                  lambda a, r: r.dim)),
    "repmod.singular_vectors": ("repmod", "singular_vectors", None,
                                _count("repmod.singular_vectors.vectors",
                                       lambda a, r: sum(map(len, r.values())))),
    "repmod.is_simple": ("repmod", "is_simple", None, _is_simple_after),
    "cli.cli_main": ("cli", "cli_main", None, None),
}

# metric names beyond calls / s / self_s, in report order
EXTRA = ("linalg.echelon_insert.accepted", "linalg.echelon_insert.useful_ratio",
         "linalg.rref.cells", "envelope.nf_product.terms_out",
         "envelope.harish_chandra.terms_in", "envelope.harish_chandra.terms_kept",
         "envelope.harish_chandra.kept_ratio", "repmod.f_via_hc.cold_s",
         "envelope.frobenius_gram.dim_sum", "repmod.verma_build.dim_sum",
         "repmod.singular_vectors.vectors", "repmod.is_simple.lines",
         "repmod.is_simple.randomized", "cli.report_bytes")

UNITS = {"s": "s", "self_s": "s", "cold_s": "s", "overhead_s": "s",
         "useful_ratio": "ratio", "kept_ratio": "ratio",
         "report_bytes": "bytes"}


def metric_names():
    """Every per-layer metric the traced run reports."""
    names = []
    for layer in LAYERS:
        if layer == "cli.cli_main":
            names += ["cli.cli_main.calls", "cli.cli_main.s", "cli.self_s"]
        else:
            names += [layer + ".calls", layer + ".s", layer + ".self_s"]
    return names + list(EXTRA) + ["trace.overhead_s"]


def unit_of(name):
    return UNITS.get(name.rsplit(".", 1)[1], "count")


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        # span: [layer index, start, end, parent span index, child time]
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.depth = defaultdict(int)
        self._undo = []

    def wrap(self, layer, fn, before, after):
        tid = self.names.index(layer)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            token = before(self.counts, args, kwargs) if before else None
            parent = stack[-1] if stack else -1
            rec = [tid, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            self.depth[layer] += 1
            rec[1] = t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent >= 0:
                    spans[parent][4] += dur
                self.depth[layer] -= 1
                self.calls[layer] += 1
                self.self_time[layer] += dur - rec[4]
                if not self.depth[layer]:
                    self.total[layer] += dur
            if after:
                after(self.counts, args, kwargs, result, dur, token)
            return result

        return traced

    def install(self):
        """Wrap every layer in LAYERS wherever colorlie refers to it."""
        import colorlie
        mods = [colorlie] + [sys.modules["colorlie." + m] for m in MODULES]
        for layer, (mod, path, before, after) in LAYERS.items():
            owner = sys.modules["colorlie." + mod]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self.wrap(
                    layer, getattr(owner, attr), before, after))
                continue
            fn = getattr(owner, path)
            traced = self.wrap(layer, fn, before, after)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, attr, traced)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def metrics(self):
        out = {}
        for layer in LAYERS:
            short = "cli.self_s" if layer == "cli.cli_main" else layer + ".self_s"
            out[layer + ".calls"] = self.calls[layer]
            out[layer + ".s"] = self.total[layer]
            out[short] = self.self_time[layer]
        for key in EXTRA:
            v = self.counts[key]
            out[key] = v if unit_of(key) == "s" else int(v)
        ins = self.calls["linalg.echelon_insert"]
        out["linalg.echelon_insert.useful_ratio"] = (
            self.counts["linalg.echelon_insert.accepted"] / ins if ins else 0.0)
        tin = self.counts["envelope.harish_chandra.terms_in"]
        out["envelope.harish_chandra.kept_ratio"] = (
            self.counts["envelope.harish_chandra.terms_kept"] / tin
            if tin else 0.0)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"layers": self.names,
                       "fields": ["layer", "start", "end", "parent",
                                  "child_s"],
                       "spans": self.spans}, fh)
