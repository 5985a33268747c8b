"""Trace mode of the benchmark: spans and counters recorded from outside lattes.

`Tracer.install` rebinds public functions and methods of lattes to
wrappers.  Coarse calls get spans (id, parent id, name, start, end);
element arithmetic gets a bare counter, to keep the overhead bounded.
A function is rebound under every name any lattes module holds it by, so
`from .x import f` call sites are wrapped too.  Nothing is written until
`Tracer.dump`, after the run.
"""

from __future__ import annotations

import json
import os
import statistics
import time

# (module, attribute path, span name); "mult_x_map" is split by its curve argument
SPANS = [
    ("fields", "FiniteField.__init__", "fields.field_init"),
    ("fields", "QuadExtField.__init__", "fields.field_init"),
    ("legendre", "LegendreCurve.count_and_trace", "legendre.count_and_trace"),
    ("legendre", "LegendreCurve.torsion_order", "legendre.torsion_order"),
    ("legendre", "mult_x_map", None),
    ("legendre", "verify_composition", "legendre.verify_composition"),
    ("legendre", "psihat_eval", "legendre.psihat_eval"),
    ("legendre", "supersingular_lambdas", "legendre.supersingular_lambdas"),
    ("poly", "poly_gcd", "poly.gcd"),
    ("poly", "squarefree_part", "poly.squarefree_part"),
    ("poly", "discriminant", "poly.discriminant"),
    ("poly", "QuotientElement.inverse", "poly.quotient_inverse"),
    ("moduli", "build_selfmap", "moduli.build_selfmap"),
    ("moduli", "classify_field", "moduli.classify_field"),
    ("moduli", "orbit", "moduli.orbit"),
    ("moduli", "supersingular_identity_check", "moduli.supersingular_identity_check"),
    ("pvi", "torsion_locus", "pvi.torsion_locus"),
    ("pvi", "implicit_derivatives", "pvi.implicit_derivatives"),
    ("pvi", "pvi_residual", "pvi.pvi_residual"),
    ("pvi", "etale_check", "pvi.etale_check"),
    ("detect", "detect", "detect.detect"),
    ("detect", "local_order", "detect.local_order"),
    ("cli", "main", "cli.main"),
]

COUNTERS = [
    ("fields", "FFElement.__mul__", "fields.ffe_mul_calls"),
    ("fields", "QuadExtElement.__mul__", "fields.quadext_mul_calls"),
    ("fields", "FFElement.inverse", "fields.inverse_calls"),
    ("fields", "QuadExtElement.inverse", "fields.inverse_calls"),
    ("fields", "FiniteField.sqrt", "fields.sqrt_calls"),
    ("legendre", "LegendreCurve.__init__", "legendre.curve_inits"),
    ("poly", "Poly.__mul__", "poly.mul_calls"),
    ("poly", "Poly.divrem", "poly.divrem_calls"),
    ("serialize", "value_to_json", "serialize.value_to_json_calls"),
]

# per-layer metric -> (kind, argument); kinds are read by `round_metrics`
METRICS = {
    "fields.ffe_mul_calls": ("counter", "fields.ffe_mul_calls"),
    "fields.quadext_mul_calls": ("counter", "fields.quadext_mul_calls"),
    "fields.inverse_calls": ("counter", "fields.inverse_calls"),
    "fields.sqrt_calls": ("counter", "fields.sqrt_calls"),
    "fields.field_inits": ("calls", "fields.field_init"),
    "legendre.curve_inits": ("counter", "legendre.curve_inits"),
    "legendre.count_and_trace_calls": ("calls", "legendre.count_and_trace"),
    "legendre.count_and_trace_s": ("time", "legendre.count_and_trace"),
    "legendre.torsion_order_s": ("time", "legendre.torsion_order"),
    "legendre.mult_x_map_fq_s": ("time", "legendre.mult_x_map_fq"),
    "legendre.mult_x_map_symbolic_s": ("time", "legendre.mult_x_map_symbolic"),
    "legendre.verify_composition_s": ("time", "legendre.verify_composition"),
    "legendre.psihat_eval_calls": ("calls", "legendre.psihat_eval"),
    "legendre.psihat_eval_s": ("time", "legendre.psihat_eval"),
    "poly.mul_calls": ("counter", "poly.mul_calls"),
    "poly.divrem_calls": ("counter", "poly.divrem_calls"),
    "poly.gcd_s": ("time", "poly.gcd"),
    "poly.squarefree_part_s": ("time", "poly.squarefree_part"),
    "poly.discriminant_s": ("time", "poly.discriminant"),
    "poly.quotient_inverse_s": ("time", "poly.quotient_inverse"),
    "moduli.build_selfmap_calls": ("calls", "moduli.build_selfmap"),
    "moduli.build_selfmap_s": ("time", "moduli.build_selfmap"),
    "moduli.classify_field_s": ("time", "moduli.classify_field"),
    "moduli.orbit_s": ("time", "moduli.orbit"),
    "moduli.supersingular_identity_check_s": ("time", "moduli.supersingular_identity_check"),
    "pvi.torsion_locus_s": ("time", "pvi.torsion_locus"),
    "pvi.implicit_derivatives_s": ("time", "pvi.implicit_derivatives"),
    "pvi.pvi_residual_s": ("time", "pvi.pvi_residual"),
    "pvi.etale_check_s": ("time", "pvi.etale_check"),
    "detect.detect_s": ("time", "detect.detect"),
    "detect.local_order_s": ("time", "detect.local_order"),
    "detect.psihat_tests_per_query": ("per_query", ("legendre.psihat_eval", "detect.detect")),
    "cli.self_s": ("self", "cli.main"),
    "serialize.value_to_json_calls": ("counter", "serialize.value_to_json_calls"),
}


def _resolve(owner, path):
    """(holder, attribute name, current value) for 'Class.attr' or 'func'."""
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, op]
        self.stack = []
        self.op = -1  # index of the running operation in its round
        self.counts = {name: 0 for _, _, name in COUNTERS}
        self.round_marks = []  # (first span id, counter snapshot) at each round start
        self._undo = []

    # -- wrappers

    def _span(self, fn, name):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            label = name
            if label is None:  # mult_x_map(m, curve=None)
                curve = args[1] if len(args) > 1 else kwargs.get("curve")
                label = "legendre.mult_x_map_symbolic" if curve is None else "legendre.mult_x_map_fq"
            sid = len(spans)
            rec = [sid, stack[-1] if stack else -1, label, clock(), 0.0, tracer.op]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, lattes):
        """Rebind every name under which lattes holds a traced callable."""
        modules = [lattes] + [getattr(lattes, m) for m in ("fields", "poly", "legendre", "moduli", "pvi", "detect", "serialize", "cli")]
        plan = [(m, path, "span", name) for m, path, name in SPANS]
        plan += [(m, path, "counter", name) for m, path, name in COUNTERS]
        for mod, path, kind, name in plan:
            holder, attr, fn = _resolve(getattr(lattes, mod), path)
            wrapped = self._span(fn, name) if kind == "span" else self._counter(fn, name)
            if isinstance(holder, type):
                # aliases such as __rmul__ = __mul__ share the function object
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._rebind(holder, key, wrapped)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._rebind(module, key, wrapped)

    def _rebind(self, holder, key, value):
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    # -- rounds and metrics

    def start_round(self):
        self.round_marks.append((len(self.spans), dict(self.counts)))

    def round_metrics(self):
        """Per-layer metrics of each round, then their median over rounds."""
        bounds = [mark[0] for mark in self.round_marks] + [len(self.spans)]
        snaps = [mark[1] for mark in self.round_marks] + [dict(self.counts)]
        rounds = []
        for r in range(len(self.round_marks)):
            rounds.append(self._metrics(self.spans[bounds[r]:bounds[r + 1]], snaps[r], snaps[r + 1]))
        return {name: statistics.median(rd[name] for rd in rounds) for name in METRICS}, rounds

    def _metrics(self, spans, before, after):
        by_id = {s[0]: s for s in spans}
        calls, total, child_time = {}, {}, {}
        under_detect = 0
        for sid, parent, name, start, end, _ in spans:
            calls[name] = calls.get(name, 0) + 1
            if parent in by_id:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            # inclusive time counts only the outermost span of each name
            anc, nested, in_detect = parent, False, False
            while anc in by_id:
                aname = by_id[anc][2]
                nested = nested or aname == name
                in_detect = in_detect or aname == "detect.detect"
                anc = by_id[anc][1]
            if not nested:
                total[name] = total.get(name, 0.0) + (end - start)
            if name == "legendre.psihat_eval" and in_detect:
                under_detect += 1
        out = {}
        for metric, (kind, arg) in METRICS.items():
            if kind == "counter":
                out[metric] = after[arg] - before[arg]
            elif kind == "calls":
                out[metric] = calls.get(arg, 0)
            elif kind == "time":
                out[metric] = total.get(arg, 0.0)
            elif kind == "per_query":
                queries = calls.get(arg[1], 0)
                out[metric] = under_detect / queries if queries else 0.0
            else:  # self time of the named span
                out[metric] = sum(end - start - child_time.get(sid, 0.0) for sid, _, name, start, end, _ in spans if name == arg)
        return out

    def dump(self, path, header, rounds):
        """Write spans, counters and per-round metrics as one JSON file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(header)
        doc["rounds"] = rounds
        doc["counters"] = self.counts
        doc["span_fields"] = ["id", "parent", "name", "start", "end", "op"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
