"""Traced runs: time each layer of convderiv from outside the program.

Every public function and public method of the layer modules is replaced,
in every convderiv namespace that binds it, by a wrapper that records a
span (name, parent span, job id, start, end).  Rebinding every namespace
matters: ``derivations`` imports ``validate_tail`` by name and ``cli``
imports ``convolve`` by name, so wrapping only the defining module would
miss those calls.  Calls made per index or per basis pair are aggregated
rather than stored.

A span's self time is its duration minus the time its child spans cover.
Each job runs inside a root span whose self time is the part no wrapper
covers (``bench``), so the layers' self times add up to the job spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("rules", "convolution", "derivations", "cheese", "bimodules",
          "reports", "cli")

# eval_rule recurses through its own module binding, so a wrapper there
# would time every node of the rule tree; evaluations are counted through
# the callables that rule_callable returns instead.
SKIP = {"rules.eval_rule"}

# Dunder methods that are public behaviour: the validating constructors
# and the call aliases.
DUNDERS = {"DualSequence": ("__call__",), "FiniteMap": ("__call__",),
           "FiniteAlgebra": ("__init__",), "FiniteBimodule": ("__init__",)}

# Called per index, per basis pair or per value: aggregated, not stored.
HOT = {"convolution.DualSequence.at", "convolution.DualSequence.bulk",
       "convolution.DualSequence.values", "bimodules.FiniteAlgebra.multiply",
       "bimodules.FiniteBimodule.act_left", "bimodules.FiniteBimodule.act_right",
       "bimodules.FiniteMap.__call__", "cheese.CheeseSet.disc",
       "cheese.midpoint", "cheese.landing_interval", "reports.complex_to_json"}

# Evaluating a sequence through these counts towards the function that
# returned the sequence (see POST: act_on_dual, Derivation.apply).
EVALUATORS = {"convolution.DualSequence.at", "convolution.DualSequence.bulk"}

EVAL = "rules.eval"
DERIVED_FROM = {"bimodules.FiniteAlgebra.self_bimodule",
                "bimodules.FiniteBimodule.dual"}


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.stack = []  # open frames: [span id, child seconds, start, name]
        self.spans = []  # (id, parent id, job id, name, start, end)
        self.calls = Counter()
        self.incl = defaultdict(float)  # outermost calls only
        self.depth = Counter()
        self.self_s = defaultdict(float)  # per layer
        self.count = defaultdict(float)  # counters computed at boundaries
        self.producer = weakref.WeakKeyDictionary()
        self.job = None
        self.jobs = 0
        self.job_s = 0.0
        self.indices = set()
        self.distinct = 0
        self._ids = 0

    def _frame(self, name):
        self._ids += 1
        frame = [self._ids, 0.0, perf_counter(), name]
        self.stack.append(frame)
        return frame

    def begin_job(self, job_id) -> None:
        self.job = job_id
        self.indices = set()
        self._frame("job")

    def end_job(self) -> float:
        end = perf_counter()
        frame = self.stack.pop()
        duration = end - frame[2]
        self.self_s["bench"] += duration - frame[1]
        self.job_s += duration
        self.jobs += 1
        self.distinct += len(self.indices)
        self.spans.append((frame[0], None, self.job, "job", frame[2], end))
        return duration

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        tracer, pre, post = self, PRE.get(name), POST.get(name)
        store, evaluator = name not in HOT, name in EVALUATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (pre(tracer, args, kwargs) if pre else None) or name
            made_by = tracer.producer.get(args[0]) if evaluator else None
            if made_by:
                tracer.depth[made_by] += 1
            tracer.depth[key] += 1
            frame = tracer._frame(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                duration = end - frame[2]
                parent = tracer.stack[-1]
                parent[1] += duration
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[key] += 1
                tracer.depth[key] -= 1
                if not tracer.depth[key]:
                    tracer.incl[key] += duration
                if made_by:
                    tracer.depth[made_by] -= 1
                    if not tracer.depth[made_by]:
                        tracer.incl[made_by] += duration
                if store:
                    tracer.spans.append((frame[0], parent[0], tracer.job, key,
                                         frame[2], end))
            return post(tracer, args, result) if post else result

        return traced

    def counted_rule(self, rule):
        """A rule evaluation is a leaf span, aggregated for speed."""
        tracer = self

        def evaluate(n):
            start = perf_counter()
            try:
                return rule(n)
            finally:
                duration = perf_counter() - start
                tracer.stack[-1][1] += duration
                tracer.self_s["rules"] += duration
                tracer.calls[EVAL] += 1
                tracer.incl[EVAL] += duration
                if type(n) is int:
                    tracer.indices.add(n)

        return evaluate

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str, header: dict) -> None:
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span_id, parent, job, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "job": job, "name": name,
                    "start_ms": (start - origin) * 1e3,
                    "end_ms": (end - origin) * 1e3}) + "\n")


# -- computed counters at layer boundaries ---------------------------------

def _gaussian(coeffs: np.ndarray):
    re, im = coeffs.real, coeffs.imag
    if np.all(re == np.rint(re)) and np.all(im == np.rint(im)):
        return max(1, int(np.abs(re).max(initial=0)),
                   int(np.abs(im).max(initial=0)))
    return None


def _convolve_path(tracer, args, kwargs):
    a, b = args[0].coeffs, args[1].coeffs
    if a.size == 0 or b.size == 0:
        return None
    ga, gb = _gaussian(a), _gaussian(b)
    exact = ga is not None and gb is not None \
        and 2 * min(a.size, b.size) * ga * gb < 1 << 62
    tracer.count["convolution.convolve_macs"] += a.size * b.size * (
        4 if exact else 1)
    return "convolution.convolve.exact" if exact else \
        "convolution.convolve.float"


def _bulk(tracer, args, kwargs):
    tracer.count["convolution.bulk_indices"] += np.size(
        _arg(args, kwargs, 1, "indices"))


def _validate_tail(tracer, args, kwargs):
    seq = args[0]
    tail = seq.tail
    if getattr(tail, "certificate", None) is not None:
        tracer.count["convolution.validate_tail_indices"] += \
            _arg(args, kwargs, 1, "upto") + 1 \
            - _arg(args, kwargs, 2, "first_index", 0)


def _algebra_init(tracer, args, kwargs):
    d = np.shape(_arg(args, kwargs, 1, "structure"))[0]
    tracer.count["bimodules.validate_elems"] += 2 * d ** 4
    tracer.count["bimodules.validate_user"] += 1


def _bimodule_init(tracer, args, kwargs):
    d = _arg(args, kwargs, 1, "algebra").dim
    m = np.shape(_arg(args, kwargs, 2, "left"))[1]
    tracer.count["bimodules.validate_elems"] += 6 * d * d * m * m
    if tracer.stack[-1][3] not in DERIVED_FROM:
        tracer.count["bimodules.validate_user"] += 1


def _verify(tracer, args, kwargs):
    X = _arg(args, kwargs, 0, "X")
    tracer.count["cheese.verify_points"] += \
        _arg(args, kwargs, 1, "grid", 2001) * X.n_max


def _noncompact(tracer, args, kwargs):
    X = _arg(args, kwargs, 0, "X")
    n = _arg(args, kwargs, 1, "n_hi") or X.n_max
    grid = _arg(args, kwargs, 2, "grid", 2001)
    tracer.count["cheese.noncompact_pair_points"] += n * (n - 1) // 2 * (
        grid + n)


PRE = {
    "convolution.convolve": _convolve_path,
    "convolution.DualSequence.bulk": _bulk,
    "convolution.validate_tail": _validate_tail,
    "bimodules.FiniteAlgebra.__init__": _algebra_init,
    "bimodules.FiniteBimodule.__init__": _bimodule_init,
    "cheese.verify_cheese": _verify,
    "cheese.noncompact_report": _noncompact,
}


def _mark_producer(name):
    def post(tracer, args, result):
        tracer.producer[result] = name
        return result
    return post


def _rendered(tracer, args, result):
    tracer.count["reports.bytes"] += len(result)
    return result


def _heights(tracer, args, result):
    tracer.count["cheese.build_heights_tried"] += sum(
        round(-math.log2(disc.center.imag)) for disc in result.discs)
    return result


POST = {
    "convolution.act_on_dual": _mark_producer("convolution.act_on_dual"),
    "derivations.Derivation.apply": _mark_producer(
        "derivations.Derivation.apply"),
    "rules.rule_callable": lambda tracer, args, result:
        tracer.counted_rule(result),
    "reports.render_report": _rendered,
    "cheese.build_cheese": _heights,
}


# -- installation ----------------------------------------------------------

def _wrap_class(tracer, cls, layer, wrapped):
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr not in DUNDERS.get(cls.__name__, ()):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, (classmethod, staticmethod)):
            setattr(cls, attr, type(value)(
                tracer.wrap(value.__func__, name, layer)))
        elif inspect.isfunction(value):
            if value not in wrapped:  # DualSequence.__call__ is at
                wrapped[value] = tracer.wrap(value, name, layer)
            setattr(cls, attr, wrapped[value])


def install(tracer: Tracer) -> None:
    """Wrap the public API of every layer, wherever it is bound."""
    import convderiv

    modules = [importlib.import_module(f"convderiv.{layer}")
               for layer in LAYERS]
    wrapped = {}
    for layer, module in zip(LAYERS, modules):
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or \
                    getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) and f"{layer}.{attr}" not in SKIP:
                wrapped[value] = tracer.wrap(value, f"{layer}.{attr}", layer)
            elif inspect.isclass(value) and \
                    not issubclass(value, BaseException):
                _wrap_class(tracer, value, layer, wrapped)
    for module in (convderiv, *modules):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])


# -- per-layer metrics -----------------------------------------------------

def _ms(*names):
    return lambda t: 1e3 * sum(t.incl[n] for n in names) / t.jobs


def _calls(*names):
    return lambda t: sum(t.calls[n] for n in names) / t.jobs


def _counted(name):
    return lambda t: t.count[name] / t.jobs


def _self(layer):
    return lambda t: 1e3 * t.self_s[layer] / t.jobs


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


VALIDATE = ("bimodules.FiniteAlgebra.__init__",
            "bimodules.FiniteBimodule.__init__")

# name -> (unit, value from a Tracer).  Times and counts are per traced job;
# *_macs, *_points, *_elems and heights_tried are computed from arguments
# or results at the boundary, not counted inside the program.
METRICS = {
    "rules.eval_calls": ("count", _calls(EVAL)),
    "rules.eval_ms": ("ms", _ms(EVAL)),
    "rules.evals_per_index": ("ratio", lambda t: t.calls[EVAL] / t.distinct
                              if t.distinct else 0.0),
    "rules.analysis_ms": ("ms", _ms("rules.rational_profile",
                                    "rules.certificate_for")),
    "rules.parse_ms": ("ms", _ms("rules.parse_rule")),
    "rules.self_ms": ("ms", _self("rules")),
    "convolution.validate_tail_ms": ("ms", _ms("convolution.validate_tail")),
    "convolution.validate_tail_indices": (
        "count", _counted("convolution.validate_tail_indices")),
    "convolution.bulk_calls": ("count", _calls("convolution.DualSequence.bulk")),
    "convolution.bulk_indices": ("count", _counted("convolution.bulk_indices")),
    "convolution.bulk_ms": ("ms", _ms("convolution.DualSequence.bulk")),
    "convolution.act_on_dual_ms": ("ms", _ms("convolution.act_on_dual")),
    "convolution.pair_ms": ("ms", _ms("convolution.pair")),
    "convolution.convolve_exact_ms": ("ms", _ms("convolution.convolve.exact")),
    "convolution.convolve_float_ms": ("ms", _ms("convolution.convolve.float")),
    "convolution.convolve_exact_calls": (
        "count", _calls("convolution.convolve.exact")),
    "convolution.convolve_float_calls": (
        "count", _calls("convolution.convolve.float")),
    "convolution.convolve_macs": ("count",
                                  _counted("convolution.convolve_macs")),
    "convolution.at_calls": ("count", _calls("convolution.DualSequence.at")),
    "convolution.self_ms": ("ms", _self("convolution")),
    "derivations.norm_ms": ("ms", _ms("derivations.Derivation.norm")),
    "derivations.classify_ms": ("ms", _ms(
        "derivations.Derivation.classify_compact")),
    "derivations.truncate_ms": ("ms", _ms("derivations.Derivation.truncate")),
    "derivations.witness_ms": ("ms", _ms("derivations.Derivation.witness")),
    "derivations.apply_ms": ("ms", _ms("derivations.Derivation.apply")),
    "derivations.construct_ms": ("ms", _ms("derivations.Derivation.from_mu",
                                           "derivations.Derivation.from_phi")),
    "derivations.self_ms": ("ms", _self("derivations")),
    "cheese.build_ms": ("ms", _ms("cheese.build_cheese")),
    "cheese.build_heights_tried": ("count",
                                   _counted("cheese.build_heights_tried")),
    "cheese.verify_ms": ("ms", _ms("cheese.verify_cheese")),
    "cheese.verify_points": ("count", _counted("cheese.verify_points")),
    "cheese.bound_sum_grid_calls": ("count", _calls(
        "cheese.CheeseSet.bound_sum_grid")),
    "cheese.grid_sweeps_per_verify": ("ratio", _ratio(
        _calls("cheese.CheeseSet.bound_sum_grid"),
        _calls("cheese.verify_cheese"))),
    "cheese.noncompact_ms": ("ms", _ms("cheese.noncompact_report")),
    "cheese.noncompact_pair_points": (
        "count", _counted("cheese.noncompact_pair_points")),
    "cheese.self_ms": ("ms", _self("cheese")),
    "bimodules.validate_calls": ("count", _calls(*VALIDATE)),
    "bimodules.validate_ms": ("ms", _ms(*VALIDATE)),
    "bimodules.validate_user_frac": ("ratio", _ratio(
        _counted("bimodules.validate_user"), _calls(*VALIDATE))),
    "bimodules.validate_elems": ("count", _counted("bimodules.validate_elems")),
    "bimodules.defect_ms": ("ms", _ms("bimodules.derivation_defect")),
    "bimodules.dual_hom_ms": ("ms", _ms("bimodules.dual_homomorphism")),
    "bimodules.transfer_ms": ("ms", _ms("bimodules.transfer")),
    "bimodules.square_span_ms": ("ms", _ms("bimodules.square_span")),
    "bimodules.find_functional_ms": ("ms", _ms(
        "bimodules.find_transfer_functional")),
    "bimodules.load_ms": ("ms", _ms("bimodules.algebra_catalog",
                                    "bimodules.algebra_from_file")),
    "bimodules.self_ms": ("ms", _self("bimodules")),
    "reports.render_ms": ("ms", _ms("reports.render_report")),
    "reports.bytes": ("B", _counted("reports.bytes")),
    "reports.self_ms": ("ms", _self("reports")),
    "cli.self_ms": ("ms", _self("cli")),
    "trace.unattributed_ms": ("ms", _self("bench")),
    "trace.job_ms": ("ms", lambda t: 1e3 * t.job_s / t.jobs),
}

# Each per-layer metric must be non-zero on the workload it is mapped to,
# so a wrapper that missed a binding site fails the traced run loudly.
_CLI = ["reports.render_ms", "reports.bytes", "cli.self_ms"]
REQUIRED = {
    "deriv-rules": [
        "rules.eval_calls", "rules.eval_ms", "rules.evals_per_index",
        "rules.analysis_ms", "rules.parse_ms",
        "convolution.validate_tail_ms", "convolution.validate_tail_indices",
        "convolution.at_calls", "derivations.norm_ms",
        "derivations.classify_ms", "derivations.truncate_ms",
        "derivations.witness_ms", "derivations.apply_ms",
        "derivations.construct_ms"] + _CLI,
    "algebra-ops": [
        "convolution.validate_tail_ms", "convolution.validate_tail_indices",
        "convolution.bulk_calls", "convolution.bulk_indices",
        "convolution.bulk_ms", "convolution.act_on_dual_ms",
        "convolution.pair_ms", "convolution.convolve_exact_ms",
        "convolution.convolve_float_ms", "convolution.convolve_exact_calls",
        "convolution.convolve_float_calls", "convolution.convolve_macs",
        "derivations.norm_ms", "derivations.apply_ms",
        "derivations.construct_ms"],
    "cheese": [
        "cheese.build_ms", "cheese.build_heights_tried", "cheese.verify_ms",
        "cheese.verify_points", "cheese.bound_sum_grid_calls",
        "cheese.grid_sweeps_per_verify", "cheese.noncompact_ms",
        "cheese.noncompact_pair_points"] + _CLI,
    "bimodule": [
        "bimodules.validate_calls", "bimodules.validate_ms",
        "bimodules.validate_user_frac", "bimodules.validate_elems",
        "bimodules.defect_ms", "bimodules.dual_hom_ms",
        "bimodules.transfer_ms", "bimodules.square_span_ms",
        "bimodules.find_functional_ms", "bimodules.load_ms"] + _CLI,
}


def layer_metrics(tracer: Tracer) -> dict:
    return {name: (unit, fn(tracer)) for name, (unit, fn) in METRICS.items()}
