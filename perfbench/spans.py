"""Span recorder and per-module wrappers for the traced benchmark run.

The package has no tracing of its own, so the benchmark records spans
around the public entry points of each charflow module by wrapping
them from outside.  A span has a name, a start, an end, the span that
caused it and a few counts.  A layer's self time is its duration minus
the part of that interval its child spans cover; calls are nested and
single-threaded, so children never overlap.

``Tracer.install()`` patches the module attributes in place and
``Tracer.uninstall()`` puts the originals back.
"""

from __future__ import annotations

import functools
import resource
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


def _rows(result):
    return result.shape[0] if result.ndim > 1 else 1


def _count_rows(key):
    """Count callback storing the result's row count under ``key``."""

    def count(sp, args, kwargs, result):
        sp.counts[key] = _rows(result)

    return count


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, perf_counter(), parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += sp.duration

    def _patch(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``name`` may be a callable of the call arguments, so one entry
        point can be split into several layers.  ``count(span, args,
        kwargs, result)`` adds counts after the call returns.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            with self.span(label) as sp:
                result = original(*args, **kwargs)
                if count is not None:
                    count(sp, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self, charflow_modules):
        """Wrap the entry points named in the benchmark's README."""
        relu_net = charflow_modules["relu_net"]
        lip_interp = charflow_modules["lip_interp"]
        tc = charflow_modules["transport_core"]
        oracle = charflow_modules["oracle"]
        catalog = charflow_modules["catalog"]
        harness = charflow_modules["harness"]

        rows = _count_rows("rows")
        self._patch(relu_net.ReluNetwork, "eval", "relu_net.template_eval", rows)
        # rho_values is imported by name into these modules; patching
        # relu_net alone would miss every call on the evaluation path.
        for mod in (relu_net, tc, harness):
            self._patch(mod, "rho_values", "relu_net.rho_values")

        self._patch(
            lip_interp.InterpolantNet,
            "eval",
            lambda args: (
                "lip_interp.interp_eval_s1"
                if args[0].s == 1
                else "lip_interp.interp_eval_multi"
            ),
            _count_rows("points"),
        )
        self._patch(lip_interp, "lip_stable_net", "lip_interp.lip_stable_net")
        self._patch(lip_interp.InterpolantNet, "size", "lip_interp.size")

        self._patch(tc, "schedule", "transport_core.schedule")
        self._patch(tc.AffineSlabNet, "__init__", "transport_core.slab_build")

        def slab_rows(sp, args, kwargs, result):
            mask = args[4] if len(args) > 4 else kwargs.get("mask")
            sp.counts["rows"] = len(args[2])
            sp.counts["useful"] = 0 if mask is None else int(mask.sum())

        self._patch(
            tc.AffineSlabNet, "eval_with_junction", "transport_core.slab_eval", slab_rows
        )
        self._patch_char_eval(tc)
        self._patch(tc.SolutionNetwork, "eval_parts", "transport_core.source_loop")
        self._patch(tc, "lipschitz_certificate", "transport_core.lipschitz_certificate")

        self._patch(oracle, "rk4_char", "oracle.rk4_char")
        self._patch(oracle, "solution_oracle", "oracle.solution_oracle")
        self._patch(tc.AffineConvection, "eval", "oracle.field_evals", rows)

        self._patch(catalog.FieldComponent, "slab_average", "catalog.slab_average")

    def _patch_char_eval(self, tc):
        original = tc.CharNetwork.eval

        @functools.wraps(original)
        def wrapper(net, t, x, y):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with self.span("transport_core.char_eval") as sp:
                result = original(net, t, x, y)
            sp.counts["rows"] = _rows(result)
            sp.counts["maxrss_growth_kb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            )
            return result

        tc.CharNetwork.eval = wrapper
        self._patched.append((tc.CharNetwork, "eval", original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer, n_query):
    """Per-layer metrics of one traced rung, keyed as in BENCHMARK.json."""
    spans = tracer.spans
    by_name = {}
    for sp in spans:
        agg = by_name.setdefault(
            sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}}
        )
        agg["calls"] += 1
        agg["s"] += sp.duration
        agg["self_s"] += sp.self_s
        for key, value in sp.counts.items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value

    def get(name, key):
        agg = by_name.get(name)
        if agg is None:
            return 0
        if key in ("calls", "s", "self_s"):
            return agg[key]
        return agg["counts"].get(key, 0)

    def parent_name(sp):
        return spans[sp.parent].name if sp.parent >= 0 else None

    def under(sp, name):
        while sp.parent >= 0:
            sp = spans[sp.parent]
            if sp.name == name:
                return True
        return False

    interp = ("lip_interp.interp_eval_s1", "lip_interp.interp_eval_multi")
    eval_points = sum(
        sp.counts.get("points", 0)
        for sp in spans
        if sp.name in interp and under(sp, "stage.eval")
    )
    source_loops = get("transport_core.source_loop", "calls")
    back_chains = sum(
        1
        for sp in spans
        if sp.name == "transport_core.char_eval"
        and parent_name(sp) == "transport_core.source_loop"
    )
    cert_chains = sum(
        1
        for sp in spans
        if sp.name == "transport_core.char_eval"
        and under(sp, "transport_core.lipschitz_certificate")
    )
    field_spans = [
        sp for sp in spans if sp.name == "oracle.field_evals" and under(sp, "oracle.rk4_char")
    ]
    slab_rows = get("transport_core.slab_eval", "rows")

    m = {
        "relu_net.template_eval.calls": (get("relu_net.template_eval", "calls"), "count"),
        "relu_net.template_eval.rows": (get("relu_net.template_eval", "rows"), "count"),
        "relu_net.template_eval.self_s": (get("relu_net.template_eval", "self_s"), "s"),
        "relu_net.rho_values.calls": (get("relu_net.rho_values", "calls"), "count"),
        "relu_net.rho_values.self_s": (get("relu_net.rho_values", "self_s"), "s"),
    }
    for name in interp:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.points"] = (get(name, "points"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    m.update(
        {
            "lip_interp.points_per_query": (eval_points / n_query, "ratio"),
            "lip_interp.lip_stable_net.calls": (get("lip_interp.lip_stable_net", "calls"), "count"),
            "lip_interp.lip_stable_net.s": (get("lip_interp.lip_stable_net", "s"), "s"),
            "lip_interp.size.calls": (get("lip_interp.size", "calls"), "count"),
            "lip_interp.size.s": (get("lip_interp.size", "s"), "s"),
            "transport_core.schedule.s": (get("transport_core.schedule", "s"), "s"),
            "transport_core.slab_build.count": (get("transport_core.slab_build", "calls"), "count"),
            "transport_core.slab_build.s": (get("transport_core.slab_build", "s"), "s"),
            "transport_core.slab_eval.calls": (get("transport_core.slab_eval", "calls"), "count"),
            "transport_core.slab_eval.rows": (slab_rows, "count"),
            "transport_core.slab_eval.self_s": (get("transport_core.slab_eval", "self_s"), "s"),
            "transport_core.char_eval.calls": (get("transport_core.char_eval", "calls"), "count"),
            "transport_core.char_eval.rows": (get("transport_core.char_eval", "rows"), "count"),
            "transport_core.char_eval.self_s": (get("transport_core.char_eval", "self_s"), "s"),
            "transport_core.slab_rows_useful_ratio": (
                get("transport_core.slab_eval", "useful") / slab_rows if slab_rows else 0.0,
                "ratio",
            ),
            "transport_core.char_eval.maxrss_growth_mb": (
                get("transport_core.char_eval", "maxrss_growth_kb") / 1024.0,
                "MB",
            ),
            "transport_core.source_loop.self_s": (get("transport_core.source_loop", "self_s"), "s"),
            "transport_core.back_chains_per_query": (
                back_chains / source_loops if source_loops else 0.0,
                "count",
            ),
            "transport_core.lipschitz_certificate.s": (
                get("transport_core.lipschitz_certificate", "s"),
                "s",
            ),
            "transport_core.lipschitz_certificate.char_evals": (cert_chains, "count"),
            "oracle.rk4_char.calls": (get("oracle.rk4_char", "calls"), "count"),
            "oracle.rk4_char.s": (get("oracle.rk4_char", "s"), "s"),
            "oracle.solution_oracle.s": (get("oracle.solution_oracle", "s"), "s"),
            "oracle.field_evals.calls": (len(field_spans), "count"),
            "oracle.field_evals.rows": (
                sum(sp.counts.get("rows", 0) for sp in field_spans),
                "count",
            ),
            "catalog.slab_average.calls": (get("catalog.slab_average", "calls"), "count"),
            "catalog.slab_average.s": (get("catalog.slab_average", "s"), "s"),
        }
    )
    for stage in ("build", "eval", "oracle", "certify"):
        m[f"stage.{stage}.s"] = (get(f"stage.{stage}", "s"), "s")
        m[f"stage.{stage}.self_s"] = (get(f"stage.{stage}", "self_s"), "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.self_sum_s"] = (sum(sp.self_s for sp in spans), "s")
    return m
