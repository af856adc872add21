"""Spans and counters recorded around calls into fliftlab's public functions.

The wrappers are installed from the benchmark's own files; nothing in
src/fliftlab changes.  `fliftlab.criteria` binds the engine functions by
name at import, so each wrapper replaces the name both in the defining
module and in `fliftlab.criteria`; otherwise every call made from the
pipeline would be missed.

A span is (name, start_ms, end_ms, parent, input_id, size, tracked); the
root span of each verdict is named "verdict".  The hot `Poly` methods get
counters and busy time only (no spans), and busy time is taken at the
outermost hot call, so a multiply inside `pow` counts toward `pow`.

This module imports fliftlab only inside `Tracer.install`, so the
benchmark's parent process can aggregate spans without loading it.
"""

from __future__ import annotations

import functools
import time

TRACED = (
    ("criteria", "isolated_singularity_check"),
    ("groebner", "buchberger"),
    ("groebner", "reduce_by_generators"),
    ("groebner", "normal_form"),
    ("groebner", "normal_form_with_cofactors"),
    ("groebner", "supported_only_at_origin"),
    ("groebner", "module_buchberger"),
    ("groebner", "module_normal_form"),
    ("frobsplit", "build_splitting"),
    ("frobsplit", "delta1"),
    ("frobsplit", "apply_sigma"),
    ("report", "report_to_json"),
)

# (metric prefix, Poly attributes sharing one wrapper)
HOT = (
    ("fp_poly.mul", ("__mul__", "__rmul__")),
    ("fp_poly.pow", ("__pow__",)),
    ("fp_poly.frobenius", ("frobenius",)),
)

ROOT = "verdict"

# The stages of a report's own `timings_ms`.
STAGES = ("isolated", "fedder", "delta1", "groebner")


def _size(name: str, out) -> int:
    """The work measure recorded with a span of `name`."""
    if out is None:
        return 0
    if name in ("groebner.buchberger", "groebner.module_buchberger",
                "frobsplit.delta1", "frobsplit.apply_sigma"):
        return len(out)  # basis length or output terms
    if name == "groebner.reduce_by_generators":
        return int(out.is_zero())
    if name == "report.report_to_json":
        return len(out.encode())
    return 0


class Tracer:
    """Holds the spans and counters of one traced pass in memory."""

    def __init__(self):
        self.spans: list = []
        self.counters = {f"{prefix}.{kind}": 0
                         for prefix, _ in HOT for kind in ("calls", "busy_ms")}
        self.counters["fp_poly.mul.terms_out"] = 0
        self._stack: list[int] = []
        self._input = -1
        self._hot_depth = 0
        self._saved: list = []
        self._t0 = time.perf_counter()

    def install(self) -> None:
        from fliftlab import criteria, frobsplit, groebner, report
        from fliftlab.fp_poly import Poly

        modules = {"criteria": criteria, "groebner": groebner,
                   "frobsplit": frobsplit, "report": report}
        for module_name, fn_name in TRACED:
            home = modules[module_name]
            original = getattr(home, fn_name)
            wrapped = self._wrap(f"{module_name}.{fn_name}", original)
            for target in {home, criteria}:
                if getattr(target, fn_name, None) is original:
                    self._patch(target, fn_name, wrapped)
        for prefix, attrs in HOT:
            wrapped = self._wrap_hot(prefix, getattr(Poly, attrs[0]))
            for attr in attrs:
                self._patch(Poly, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr: str, value) -> None:
        self._saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _ms(self, t: float) -> float:
        return (t - self._t0) * 1000.0

    def run_root(self, input_id: int, fn, *args):
        """Call fn(*args) inside the root span of input `input_id`."""
        self._input = input_id
        return self._wrap(ROOT, fn)(*args)

    def _wrap(self, name: str, original):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, self._ms(start), self._ms(end), parent,
                              self._input, _size(name, out),
                              bool(kwargs.get("track")))
        return wrapper

    def _wrap_hot(self, prefix: str, original):
        counters = self.counters
        calls, busy = f"{prefix}.calls", f"{prefix}.busy_ms"
        count_terms = prefix == "fp_poly.mul"

        @functools.wraps(original)
        def wrapper(*args):
            counters[calls] += 1
            if self._hot_depth:
                out = original(*args)
            else:
                self._hot_depth = 1
                start = time.perf_counter()
                try:
                    out = original(*args)
                finally:
                    counters[busy] += (time.perf_counter() - start) * 1000.0
                    self._hot_depth = 0
            if count_terms:
                counters["fp_poly.mul.terms_out"] += len(out)
            return out
        return wrapper


# Per-layer metrics of one traced pass, in output order, with units.
_CALLS_BUSY = ("groebner.normal_form", "groebner.normal_form_with_cofactors",
               "groebner.supported_only_at_origin",
               "groebner.module_normal_form",
               "frobsplit.build_splitting", "frobsplit.delta1",
               "frobsplit.apply_sigma")

SPAN_METRICS = (
    [("groebner.buchberger.calls", "count"),
     ("groebner.buchberger.tracked_calls", "count"),
     ("groebner.buchberger.busy_ms", "ms"),
     ("groebner.buchberger.self_ms", "ms"),
     ("groebner.buchberger.screen_ms", "ms"),
     ("groebner.buchberger.membership_ms", "ms"),
     ("groebner.buchberger.basis_len_sum", "count"),
     ("groebner.buchberger.basis_len_max", "count"),
     ("groebner.reduce_by_generators.calls", "count"),
     ("groebner.reduce_by_generators.busy_ms", "ms"),
     ("groebner.reduce_by_generators.zero_ratio", "ratio"),
     ("groebner.module_buchberger.calls", "count"),
     ("groebner.module_buchberger.busy_ms", "ms"),
     ("groebner.module_buchberger.basis_len_sum", "count"),
     ("criteria.isolated_singularity_check.calls", "count"),
     ("criteria.isolated_singularity_check.busy_ms", "ms"),
     ("criteria.isolated_singularity_check.self_ms", "ms")]
    + [(f"{name}.{kind}", unit) for name in _CALLS_BUSY
       for kind, unit in (("calls", "count"), ("busy_ms", "ms"))]
    + [("frobsplit.delta1.terms_out", "count"),
       ("frobsplit.apply_sigma.terms_out", "count"),
       ("report.report_to_json.calls", "count"),
       ("report.report_to_json.busy_ms", "ms"),
       ("report.report_to_json.bytes_out", "B")]
    + [(f"{prefix}.{kind}", unit) for prefix, _ in HOT
       for kind, unit in (("calls", "count"), ("busy_ms", "ms"))]
    + [("fp_poly.mul.terms_out", "count")]
)


def span_metrics(spans: list, counters: dict) -> dict:
    """Aggregate one traced pass into the SPAN_METRICS values."""
    m = {name: 0 for name, _ in SPAN_METRICS}
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ms[parent] += end - start
    zero_hits = 0
    for idx, (name, start, end, parent, _, size, tracked) in enumerate(spans):
        if name == ROOT:
            continue
        dur = end - start
        m[f"{name}.calls"] += 1
        m[f"{name}.busy_ms"] += dur
        self_key = f"{name}.self_ms"
        if self_key in m:
            m[self_key] += dur - child_ms[idx]
        if name == "groebner.buchberger":
            m["groebner.buchberger.tracked_calls"] += tracked
            m["groebner.buchberger.basis_len_sum"] += size
            m["groebner.buchberger.basis_len_max"] = max(
                m["groebner.buchberger.basis_len_max"], size)
            if _under(spans, parent, "criteria.isolated_singularity_check"):
                m["groebner.buchberger.screen_ms"] += dur
            elif parent >= 0 and spans[parent][0] == ROOT:
                m["groebner.buchberger.membership_ms"] += dur
        elif name == "groebner.module_buchberger":
            m["groebner.module_buchberger.basis_len_sum"] += size
        elif name == "groebner.reduce_by_generators":
            zero_hits += size
        elif name in ("frobsplit.delta1", "frobsplit.apply_sigma"):
            m[f"{name}.terms_out"] += size
        elif name == "report.report_to_json":
            m["report.report_to_json.bytes_out"] += size
    calls = m["groebner.reduce_by_generators.calls"]
    m["groebner.reduce_by_generators.zero_ratio"] = (
        zero_hits / calls if calls else 0.0)
    m.update(counters)
    return m


def _under(spans: list, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def root_ms(spans: list) -> dict:
    """Duration of each input's root span, keyed by input id."""
    return {s[4]: s[2] - s[1] for s in spans if s[0] == ROOT}
