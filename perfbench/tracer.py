"""Spans around the calls into qpiverify's layers, recorded from outside.

`Tracer.installed()` replaces each layer function with a wrapper in every
qpiverify module that holds it, so the names re-bound by ``from .factored
import ...`` are traced as well, and puts the originals back on exit.  The
benchmark's worker opens one root span, ``check``, around each case.  Spans
are kept in memory as (name, start, end, parent index, case index) and
written out when the sweep ends; `layer_metrics` derives calls and self
time from them.

Importing this module does not import qpiverify.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time

ROOT = "check"


def _bits(values) -> int:
    return max((abs(int(v)).bit_length() for v in values), default=0)


def _terms_in(args, out):
    return len(args[0])


def _terms_used(args, out):
    return out.terms_used


#: (layer name, module, attribute, counters).  A dotted attribute is a
#: method looked up on a class.  A counter is (how the calls' values
#: combine, the value of one call from its arguments and result).
LAYERS = (
    ("qseries.summand_brackets", "qpiverify.qseries", "summand_brackets", {}),
    ("wz.wz_term_brackets", "qpiverify.wz", "wz_term_brackets", {}),
    (
        "factored.sum_terms",
        "qpiverify.factored",
        "sum_terms",
        {
            "terms_in": (sum, _terms_in),
            "max_degree": (max, lambda args, out: len(out.num) - 1),
            "max_coeff_bits": (max, lambda args, out: _bits(out.num)),
        },
    ),
    ("factored.cyclo_multiplicity", "qpiverify.factored", "FactoredSum.cyclo_multiplicity", {}),
    ("factored.to_ratfunc", "qpiverify.factored", "FactoredSum.to_ratfunc", {}),
    (
        "factored.sum_terms_mod",
        "qpiverify.factored",
        "sum_terms_mod",
        {
            "terms_in": (sum, _terms_in),
            "mod_degree": (max, lambda args, out: len(args[1]) - 1),
            "max_coeff_bits": (max, lambda args, out: max(_bits(out[0]), _bits(out[1]))),
        },
    ),
    (
        "polys.poly_gcd_ext",
        "qpiverify.polys",
        "poly_gcd_ext",
        {"max_in_degree": (max, lambda args, out: max(args[0].degree, args[1].degree))},
    ),
    ("polys.poly_gcd", "qpiverify.polys", "poly_gcd", {}),
    ("numerics.eval_series", "qpiverify.numerics", "eval_series", {"terms": (sum, _terms_used)}),
    ("numerics.qpoch_inf", "qpiverify.numerics", "_qpoch_inf", {"terms": (sum, _terms_used)}),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts = {name: dict.fromkeys(counters, 0) for name, _, _, counters in LAYERS}
        self._stack: list[int] = []
        self._case = -1

    def _wrap(self, name, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._case)
            totals = counts[name]
            for key, (combine, measure) in counters.items():
                totals[key] = combine((totals[key], measure(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function wherever qpiverify binds it."""
        undo = []
        try:
            for name, module_name, attr, counters in LAYERS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[meth]
                    undo.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(name, fn, counters))
                    continue
                fn = getattr(module, attr)
                wrapper = self._wrap(name, fn, counters)
                for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "qpiverify"]:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, fn in reversed(undo):
                setattr(owner, key, fn)

    @contextlib.contextmanager
    def case(self, index: int):
        """The root span of one case."""
        span = len(self.spans)
        self.spans.append(None)
        self._case = index
        self._stack.append(span)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span] = (ROOT, start, end, -1, index)
            self._case = -1


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def misnested(spans) -> int:
    """Spans that break the tree the self times assume: a layer span with no
    enclosing case, or a span that is not inside its parent's interval or
    belongs to another case."""
    bad = 0
    for name, start, end, parent, case in spans:
        if parent < 0:
            bad += name != ROOT
            continue
        _, p_start, p_end, _, p_case = spans[parent]
        bad += not (p_start <= start <= end <= p_end and case == p_case)
    return bad


def layer_metrics(spans, counts) -> dict[str, float]:
    """calls and self_s for every layer (zero when idle), the layer counters,
    and check.self_s, the case time outside every layer span."""
    out: dict[str, float] = {}
    for name, _, _, _ in LAYERS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        for key, value in counts[name].items():
            out[f"{name}.{key}"] = value
    out[f"{ROOT}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        if name != ROOT:
            out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
    return out


def shares_by_group(spans, groups) -> dict[str, dict[str, float]]:
    """Per case group, each layer's self time as a share of the group's
    root-span time."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    by_group: dict[str, dict[str, float]] = {}
    for span, t in zip(spans, own):
        name, start, end, _, case = span
        group = groups[case]
        if name == ROOT:
            totals[group] = totals.get(group, 0.0) + (end - start)
        layer = by_group.setdefault(group, {})
        layer[name] = layer.get(name, 0.0) + t
    return {
        g: {name: t / totals[g] for name, t in sorted(layers.items(), key=lambda kv: -kv[1])}
        for g, layers in by_group.items()
    }
