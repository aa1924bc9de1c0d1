"""Spans and counters recorded around calls into each qwebs layer.

The tracer replaces a public function by a wrapper in every qwebs module
that holds a reference to it, so each caller's lookup goes through the
wrapper; qwebs itself is not changed.  A span records (name, start, end,
parent, op); spans stay in memory until the run ends.  Ring arithmetic is
too fine-grained to span without distorting the run, so it is only counted.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, span name).  Every reference to the same function in
# any loaded qwebs module is wrapped, e.g. qwebs.cli.cartan_matrix as well.
SPANNED = (
    ("qwebs.webalg", "cartan_matrix", "webalg.cartan_matrix"),
    ("qwebs.webalg", "frobenius_check", "webalg.frobenius_check"),
    ("qwebs.bases", "gram_matrix", "bases.gram_matrix"),
    ("qwebs.bases", "pairing", "bases.pairing"),
    ("qwebs.bases", "lt_vector", "bases.lt_vector"),
    ("qwebs.bases", "dual_canonical", "bases.dual_canonical"),
    ("qwebs.webs", "web_form", "webs.web_form"),
    ("qwebs.webs", "evaluate_dense", "webs.evaluate_dense"),
    ("qwebs.webs", "validate", "webs.validate"),
    ("qwebs.webs", "evaluate_statesum", "webs.evaluate_statesum"),
    ("qwebs.tensor", "apply_split", "tensor.apply_split"),
    ("qwebs.tensor", "apply_merge", "tensor.apply_merge"),
    ("qwebs.tensor", "apply_tag", "tensor.apply_tag_cup_cap"),
    ("qwebs.tensor", "apply_cup", "tensor.apply_tag_cup_cap"),
    ("qwebs.tensor", "apply_cap", "tensor.apply_tag_cup_cap"),
    ("qwebs.howe", "act_E", "howe.act_E"),
    ("qwebs.howe", "act_divided", "howe.act_divided"),
    ("qwebs.tableaux", "enumerate_tableaux", "tableaux.enumerate"),
    ("qwebs.tableaux", "peel_word", "tableaux.peel_word"),
    ("qwebs.verify", "check_relations", "verify.relations"),
    ("qwebs.verify", "check_evaluators", "verify.evaluators"),
    ("qwebs.verify", "check_howe", "verify.howe"),
    ("qwebs.verify", "check_dual_blocks", "verify.dual"),
    ("qwebs.verify", "check_form_consistency", "verify.form"),
    ("qwebs.verify", "check_shapovalov", "verify.shapovalov"),
    ("qwebs.verify", "check_commutator", "verify.commutator"),
    ("qwebs.verify", "check_serre", "verify.serre"),
    ("qwebs.verify", "check_cartan", "verify.cartan"),
)

# (class path, method, counter name): counted, never spanned.
COUNTED_METHODS = (
    ("qwebs.ring", "LaurentPoly", "__add__", "ring.add_calls"),
    ("qwebs.ring", "LaurentPoly", "__mul__", "ring.mul_calls"),
    ("qwebs.ring", "LaurentPoly", "shift", "ring.shift_calls"),
    ("qwebs.tableaux", "Tableau", "__post_init__", "tableaux.tableaux_constructed"),
)
COUNTED_FUNCTIONS = (("qwebs.ring", "exact_divide", "ring.exact_divide_calls"),)


def _len_coords(result) -> int:
    return len(result.coords)


# Counters read off a span's arguments or result: span name -> [(counter, fn)].
# A counter named "*.peak_*" keeps the maximum instead of the sum.
SPAN_COUNTS = {
    "webs.evaluate_dense": [("webs.slices_evaluated", lambda a, r: len(a[0].slices))],
    "tensor.apply_split": [("tensor.terms_in", lambda a, r: len(a[0].coords)),
                           ("tensor.peak_terms", lambda a, r: _len_coords(r))],
    "tensor.apply_merge": [("tensor.terms_in", lambda a, r: len(a[0].coords)),
                           ("tensor.peak_terms", lambda a, r: _len_coords(r))],
    "howe.act_E": [("howe.terms_out", lambda a, r: _len_coords(r))],
    "tableaux.enumerate": [("tableaux.tableaux_enumerated", lambda a, r: len(r))],
    "bases.dual_canonical": [("bases.corrections", lambda a, r: len(r.beta))],
}
# every verify sweep returns a report; its cases are the checks it made
for _mod, _attr, _name in SPANNED:
    if _name.startswith("verify."):
        SPAN_COUNTS[_name] = [("verify.checks", lambda a, r: r.cases)]


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span; returns its index.  Close it with `close`."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op)
        self._stack.pop()

    def spanned(self, name: str, fn):
        counters = SPAN_COUNTS.get(name, ())
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            counts[name + "_calls"] += 1
            for key, read in counters:
                value = read(args, result)
                if ".peak_" in key:
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing the wrappers --------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qwebs" or mod_name.startswith("qwebs.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        # the CLI serializes with json.dumps before printing; writes are
        # spanned as "cli.emit" by the capture buffer
        self._patch(sys.modules["qwebs.cli"], "json", _JsonProxy(self.spanned("cli.emit", json.dumps)))
        for mod_name, attr, name in SPANNED:
            fn = getattr(sys.modules[mod_name], attr)
            self._patch_everywhere(fn, self.spanned(name, fn))
        for mod_name, attr, key in COUNTED_FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            self._patch_everywhere(fn, self.counted(key, fn))
        for mod_name, cls_name, attr, key in COUNTED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, attr, self.counted(key, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)


class _JsonProxy:
    """Stands in for the json module inside qwebs.cli, with dumps spanned."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


# -- reading the spans ----------------------------------------------------


def self_times(spans) -> dict[str, float]:
    """Per name: span time minus the time of its direct child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Per name: wall time under the outermost spans of that name."""
    out: dict[str, float] = {}
    for i, (name, start, end, parent, _op) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] = out.get(name, 0.0) + end - start
    return out


# (metric, unit, how it is read): "self"/"incl" read a span time, "count" a
# counter.  Layers a workload never enters read 0.
LAYER_METRICS = (
    ("cli.emit_s", "s", "incl", "cli.emit"),
    ("cli.output_bytes", "bytes", "count", "cli.output_bytes"),
    ("webalg.cartan_matrix_calls", "count", "count", "webalg.cartan_matrix_calls"),
    ("webalg.cartan_matrix_s", "s", "incl", "webalg.cartan_matrix"),
    ("webalg.frobenius_check_s", "s", "incl", "webalg.frobenius_check"),
    ("bases.gram_matrix_s", "s", "self", "bases.gram_matrix"),
    ("bases.pairing_calls", "count", "count", "bases.pairing_calls"),
    ("bases.pairing_s", "s", "incl", "bases.pairing"),
    ("bases.lt_vector_calls", "count", "count", "bases.lt_vector_calls"),
    ("bases.lt_vector_s", "s", "self", "bases.lt_vector"),
    ("bases.dual_canonical_s", "s", "self", "bases.dual_canonical"),
    ("bases.corrections", "count", "count", "bases.corrections"),
    ("bases.lt_block_calls", "count", "count", "bases.lt_block_calls"),
    ("bases.lt_block_hit_ratio", "ratio", "count", "bases.lt_block_hit_ratio"),
    ("webs.web_form_calls", "count", "count", "webs.web_form_calls"),
    ("webs.web_form_s", "s", "self", "webs.web_form"),
    ("webs.evaluate_dense_calls", "count", "count", "webs.evaluate_dense_calls"),
    ("webs.evaluate_dense_s", "s", "self", "webs.evaluate_dense"),
    ("webs.slices_evaluated", "count", "count", "webs.slices_evaluated"),
    ("webs.validate_calls", "count", "count", "webs.validate_calls"),
    ("webs.validate_s", "s", "incl", "webs.validate"),
    ("webs.evaluate_statesum_s", "s", "incl", "webs.evaluate_statesum"),
    ("tensor.apply_split_calls", "count", "count", "tensor.apply_split_calls"),
    ("tensor.apply_split_s", "s", "incl", "tensor.apply_split"),
    ("tensor.apply_merge_calls", "count", "count", "tensor.apply_merge_calls"),
    ("tensor.apply_merge_s", "s", "incl", "tensor.apply_merge"),
    ("tensor.terms_in", "count", "count", "tensor.terms_in"),
    ("tensor.peak_terms", "count", "count", "tensor.peak_terms"),
    ("tensor.apply_tag_cup_cap_s", "s", "incl", "tensor.apply_tag_cup_cap"),
    ("howe.act_E_calls", "count", "count", "howe.act_E_calls"),
    ("howe.act_E_s", "s", "incl", "howe.act_E"),
    ("howe.act_divided_calls", "count", "count", "howe.act_divided_calls"),
    ("howe.act_divided_s", "s", "self", "howe.act_divided"),
    ("howe.terms_out", "count", "count", "howe.terms_out"),
    ("tableaux.enumerate_calls", "count", "count", "tableaux.enumerate_calls"),
    ("tableaux.enumerate_s", "s", "incl", "tableaux.enumerate"),
    ("tableaux.tableaux_enumerated", "count", "count", "tableaux.tableaux_enumerated"),
    ("tableaux.peel_word_s", "s", "incl", "tableaux.peel_word"),
    ("tableaux.tableaux_constructed", "count", "count", "tableaux.tableaux_constructed"),
    ("ring.add_calls", "count", "count", "ring.add_calls"),
    ("ring.mul_calls", "count", "count", "ring.mul_calls"),
    ("ring.shift_calls", "count", "count", "ring.shift_calls"),
    ("ring.exact_divide_calls", "count", "count", "ring.exact_divide_calls"),
    ("verify.relations_s", "s", "incl", "verify.relations"),
    ("verify.evaluators_s", "s", "incl", "verify.evaluators"),
    ("verify.howe_s", "s", "incl", "verify.howe"),
    ("verify.dual_s", "s", "incl", "verify.dual"),
    ("verify.form_s", "s", "incl", "verify.form"),
    ("verify.shapovalov_s", "s", "incl", "verify.shapovalov"),
    ("verify.commutator_s", "s", "incl", "verify.commutator"),
    ("verify.serre_s", "s", "incl", "verify.serre"),
    ("verify.cartan_s", "s", "incl", "verify.cartan"),
    ("verify.checks", "count", "count", "verify.checks"),
    ("trace.overhead_s", "s", "count", "trace.overhead_s"),
)


def layer_metrics(spans, counts) -> dict[str, dict]:
    """The per-layer metrics of one traced pass, in benchmark output form."""
    own, incl = self_times(spans), inclusive_times(spans)
    read = {"self": own, "incl": incl, "count": counts}
    return {
        metric: {"value": read[kind].get(key, 0), "unit": unit}
        for metric, unit, kind, key in LAYER_METRICS
    }
