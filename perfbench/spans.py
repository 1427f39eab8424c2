"""Outside-in tracing of a `resonorm` process, and the per-layer metrics.

`Tracer.install` replaces functions by timing wrappers at every module
attribute through which callers look them up: each `resonorm` module
global bound to the original function, plus `numpy.linalg.eigh`,
`eigvalsh` and `norm` (the program calls them as `np.linalg.X`, and the
matrix 2-norm runs its SVD inside `norm`).  Nothing in the program
changes.  Spans (name, start, end, parent, attributes) stay in memory
and are written out once, when the process ends.

`layer_metrics` turns the spans of one process into the per-layer
metrics; a layer's self time is its span duration minus the part of that
interval its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _bracket_attrs(args, kwargs, result):
    nf, ng = len(_arg(args, kwargs, 0, "f")), len(_arg(args, kwargs, 1, "g"))
    return {"pairs": nf * ng, "terms_out": len(result), "max_operand": max(nf, ng)}


def _norm_attrs(args, kwargs, result):
    import numpy as np
    order = _arg(args, kwargs, 1, "ord")
    return {"ord2": bool(order == 2 and np.ndim(args[0]) == 2)}


# (module, attribute, span name, attribute extractor)
TARGETS = (
    ("resonorm.series", "poisson_bracket", "series.bracket", _bracket_attrs),
    ("resonorm.series", "lie_transform_auto", "series.lie",
     lambda a, k, r: {"order": r[1]}),
    ("resonorm.kam", "iterate", "kam.iterate",
     lambda a, k, r: {"p_terms": len(r.state.P),
                      "ledger_terms": sum(len(s) for _, s in r.state.rterms)}),
    ("resonorm.kam", "kam_step", "kam.step", None),
    ("resonorm.kam", "check_divisors", "kam.divisors",
     lambda a, k, r: {"modes": len(r[1])}),
    ("resonorm.kam", "_solve_modes", "kam.solve", None),
    ("resonorm.kam", "homological_residual", "kam.residual", None),
    ("resonorm.reduction", "reduce_hamiltonian", "reduction.reduce",
     lambda a, k, r: {"p1_terms": len(r.P1)}),
    ("resonorm.gevrey", "majorant_norm", "gevrey.majorant_norm", None),
    ("resonorm.gevrey", "gamma_extremal", "gevrey.gamma_extremal", None),
    ("resonorm.gevrey", "lemma_ba_bound", "gevrey.lemma_ba_bound", None),
    ("resonorm.quantize", "predict_spectrum", "quantize.predict",
     lambda a, k, r: {"levels": len(r.entries)}),
    ("resonorm.oracle", "build_operator", "oracle.build",
     lambda a, k, r: {"dim": r.dim}),
    ("resonorm.oracle", "diagonalize", "oracle.diagonalize", None),
    ("resonorm.oracle", "match_spectrum", "oracle.match", None),
    ("resonorm.freqsets", "zone_measure_mc", "freqsets.zone",
     lambda a, k, r: {"samples": _arg(a, k, 2, "samples")}),
    ("resonorm.freqsets", "excluded_set_measure", "freqsets.union",
     lambda a, k, r: {"samples": _arg(a, k, 5, "samples")}),
    ("resonorm.freqsets", "summability_check", "freqsets.summability", None),
    ("resonorm.scarring", "separation_check", "scarring.separation", None),
    ("resonorm.scarring", "window_census", "scarring.census", None),
    ("resonorm.scarring", "local_diffeo_check", "scarring.diffeo", None),
    ("resonorm.scarring", "mass_on_torus", "scarring.mass", None),
    ("resonorm.cli", "_interior_filter", "cli.filter", None),
    ("resonorm.cli", "write_csv", "cli.write", None),
    ("resonorm.cli", "write_json", "cli.write", None),
    ("resonorm.series", "to_text", "cli.write", None),
    ("numpy.linalg", "eigh", "linalg.eigh", None),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", None),
    ("numpy.linalg", "norm", "linalg.norm", _norm_attrs),
)


class Tracer:
    """In-memory span recorder for one process (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index, attrs]
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result
        return timed

    def install(self):
        """Wrap every target at each module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "resonorm" or n.startswith("resonorm.")]
        for mod_name, attr, name, attrs in TARGETS:
            owner = importlib.import_module(mod_name)
            original = getattr(owner, attr)
            timed = self.wrap(name, original, attrs)
            if mod_name == "numpy.linalg":
                setattr(owner, attr, timed)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, timed)
        from resonorm.series import FourierTaylorSeries
        FourierTaylorSeries.__init__ = self.wrap("series.construct",
                                                 FourierTaylorSeries.__init__)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one process
# ---------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Span duration minus the part covered by its direct children."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_length(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


# eigensolves on the operator or its interior submatrix
_SOLVE_PARENTS = ("oracle.diagonalize", "cli.filter")


def layer_metrics(spans) -> dict:
    """Values of the per-layer metrics of one traced process, keyed by the
    names BENCHMARK.json lists, except those the caller measures itself
    (the scipy import, the traced solve time and the tracing overhead)."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    solves, solve_s, norm2_s = 0, 0.0, 0.0
    for (name, start, end, parent, attrs), st in zip(spans, own):
        self_s[name] += st
        calls[name] += 1
        for key, value in (attrs or {}).items():
            attr_sum[name, key] += value
            attr_max[name, key] = max(attr_max[name, key], value)
        if name in ("linalg.eigh", "linalg.eigvalsh") and parent >= 0 \
                and spans[parent][0] in _SOLVE_PARENTS:
            solves += 1
            solve_s += end - start
        if name == "linalg.norm" and attrs["ord2"]:
            norm2_s += end - start

    def ratio(a, b):
        return a / b if b else 0.0

    pairs = attr_sum["series.bracket", "pairs"]
    modes = attr_sum["kam.divisors", "modes"]
    samples = attr_sum["freqsets.zone", "samples"] + \
        attr_sum["freqsets.union", "samples"]
    dim = attr_max["oracle.build", "dim"]
    last_iterate = next((s[4] for s in reversed(spans)
                         if s[0] == "kam.iterate"), None) or {}
    return {
        "series.bracket.calls": calls["series.bracket"],
        "series.bracket.self_s": self_s["series.bracket"],
        "series.bracket.pairs": pairs,
        "series.bracket.terms_out": attr_sum["series.bracket", "terms_out"],
        "series.bracket.yield": ratio(attr_sum["series.bracket", "terms_out"],
                                      pairs),
        "series.bracket.pairs_per_s": ratio(pairs, self_s["series.bracket"]),
        "series.bracket.max_operand_terms":
            attr_max["series.bracket", "max_operand"],
        "series.lie.calls": calls["series.lie"],
        "series.lie.self_s": self_s["series.lie"],
        "series.lie.orders": attr_sum["series.lie", "order"],
        "series.construct.self_s": self_s["series.construct"],
        "kam.step.calls": calls["kam.step"],
        "kam.step.self_s": self_s["kam.step"],
        "kam.divisors.self_s": self_s["kam.divisors"],
        "kam.divisors.modes": modes,
        "kam.divisors.us_per_mode": 1e6 * ratio(self_s["kam.divisors"], modes),
        "kam.solve.self_s": self_s["kam.solve"],
        "kam.residual.self_s": self_s["kam.residual"],
        "kam.p_terms_final": last_iterate.get("p_terms", 0),
        "kam.ledger_terms_final": last_iterate.get("ledger_terms", 0),
        "reduction.reduce.self_s": self_s["reduction.reduce"],
        "reduction.p1_terms": attr_sum["reduction.reduce", "p1_terms"],
        "gevrey.majorant_norm.self_s": self_s["gevrey.majorant_norm"],
        "gevrey.gamma_extremal.self_s": self_s["gevrey.gamma_extremal"],
        "gevrey.lemma_ba_bound.self_s": self_s["gevrey.lemma_ba_bound"],
        "quantize.predict.self_s": self_s["quantize.predict"],
        "quantize.levels": attr_sum["quantize.predict", "levels"],
        "oracle.build.self_s": self_s["oracle.build"],
        "oracle.dim": dim,
        "oracle.matrix_mb": dim * dim * 16 / 1e6,
        "oracle.diagonalize.self_s": self_s["oracle.diagonalize"],
        "oracle.solves": solves,
        "oracle.solve_s": solve_s,
        "oracle.norm2_s": norm2_s,
        "oracle.match.self_s": self_s["oracle.match"],
        "freqsets.zone.self_s": self_s["freqsets.zone"],
        "freqsets.union.self_s": self_s["freqsets.union"],
        "freqsets.samples": samples,
        "freqsets.samples_per_s": ratio(
            samples, self_s["freqsets.zone"] + self_s["freqsets.union"]),
        "freqsets.summability.self_s": self_s["freqsets.summability"],
        "scarring.separation.self_s": self_s["scarring.separation"],
        "scarring.census.self_s": self_s["scarring.census"],
        "scarring.diffeo.self_s": self_s["scarring.diffeo"],
        "scarring.mass.self_s": self_s["scarring.mass"],
        "scarring.mass.calls": calls["scarring.mass"],
        "cli.filter.self_s": self_s["cli.filter"],
        "cli.write.self_s": self_s["cli.write"],
    }
