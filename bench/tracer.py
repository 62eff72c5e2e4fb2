"""Spans and counts around sfexplain's public functions, for the traced run.

The tracer replaces each wrapped function or method, wherever the package
holds it, with a wrapper that records a span: name, duration, and self time
(duration minus the time of spans opened inside it). Spans are aggregated in
memory as they close; nothing is written until the run ends. Counts that
only make sense at a boundary (members kept by a fit, nodes grown by a
forest, cache hits seen by the analyst) are taken by hooks on those spans.

A wrapped function that no longer exists marks its layer as not measured:
the layer's metrics are left out and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

from workloads import EXPLAINERS


def _module(name: str):
    """The sfexplain submodule of that name, or None if it is gone."""
    try:
        return importlib.import_module(f"sfexplain.{name}")
    except ImportError:
        return None


ANALYST_COUNTERS = ("cache_hits", "trained_count", "loaded_count")
# Spans whose durations are kept for percentiles; the rest keep sums only.
PERCENTILE_SPANS = {"density.query", "forest.fit", "forest.predict"}



@dataclass
class Aggregate:
    """Per-span-name counts, self times and durations, plus loose counters."""

    count: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    durations: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def record(self, name: str, duration: float, self_time: float) -> None:
        self.count[name] = self.count.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + self_time
        if name in PERCENTILE_SPANS:
            self.durations.setdefault(name, []).append(duration)

    def bump(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Tracer:
    """Installs span wrappers into sfexplain and removes them again."""

    def __init__(self):
        self.agg = Aggregate()
        self.enabled = True  # cleared while the benchmark checks outputs
        self.unmeasured: set[str] = set()
        self._stack: list[list] = []  # [span name, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def take(self) -> Aggregate:
        """Return what was recorded so far and start a fresh aggregate."""
        agg, self.agg = self.agg, Aggregate()
        return agg

    def _inside(self, prefix: str) -> str | None:
        for name, _ in reversed(self._stack):
            if name.startswith(prefix):
                return name
        return None

    def _wrap(self, name, fn, on_enter=None, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args)
            frame = [name, 0.0]
            stack = tracer._stack
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.agg.record(name, duration, duration - frame[1])
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch_function(self, layer, module, attr, name, **hooks):
        original = getattr(_module(module), attr, None)
        if original is None:
            self.unmeasured.add(layer)
            return
        wrapper = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sfexplain" and not mod_name.startswith("sfexplain."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, layer, module, cls_name, attr, name=None, wrap=None, **hooks):
        cls = getattr(_module(module), cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            self.unmeasured.add(layer)
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = wrap(fn) if wrap is not None else self._wrap(name, fn, **hooks)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def install(self) -> None:
        agg = lambda: self.agg  # noqa: E731 - the aggregate is swapped by take()

        def fitted_members(args, model):
            agg().bump("density.members", len(model.members))
            agg().bump("density.components", sum(len(m.components) for m in model.members))

        def density_query(args):
            owner = self._inside("explain.")
            if owner is not None:
                agg().bump(owner + "_queries")

        def forest_nodes(args, fitted):
            try:
                agg().bump("forest.nodes", sum(len(tree.feature) for tree in fitted.trees))
            except (AttributeError, TypeError):
                self.unmeasured.add("forest.nodes")

        def analyst_query(args):
            if self._inside("evaluate.optoracle") is not None:
                agg().bump("evaluate.optoracle_subsets")

        def evaluated(args, report):
            agg().bump("evaluate.anomalies", len({p.point_index for p in report.per_point}))

        def classifier_for(fn):
            @functools.wraps(fn)
            def wrapper(model, *args, **kwargs):
                if not self.enabled:
                    return fn(model, *args, **kwargs)
                before = [getattr(model, a, 0) for a in ANALYST_COUNTERS]
                result = fn(model, *args, **kwargs)
                after = [getattr(model, a, 0) for a in ANALYST_COUNTERS]
                for key, b, a in zip(("analyst.hits", "analyst.trained", "analyst.loaded"), before, after):
                    agg().bump(key, a - b)
                return result

            return wrapper

        self._patch_function("dataset", "dataset", "load_csv", "dataset.load_csv")
        self._patch_function("report", "evaluate", "write_summary_csv", "report.write")
        self._patch_function("report", "evaluate", "write_per_point_csv", "report.write")
        self._patch_function("density.fit", "density", "egmm_fit", "density.fit", on_exit=fitted_members)
        self._patch_function(
            "density.query", "density", "egmm_log_marginal", "density.query", on_enter=density_query
        )
        self._patch_function("density.query", "density", "rank_points", "density.rank")
        for method, attr in EXPLAINERS.items():
            self._patch_function("explain", "explain", attr, f"explain.{method}")
        self._patch_method(
            "forest.train", "forest", "BaggedForest", "fit", "forest.fit", on_exit=forest_nodes
        )
        self._patch_method("forest.read", "forest", "BaggedForest", "prob_normal", "forest.predict")
        self._patch_method("forest.read", "forest", "BaggedForest", "load", "forest.load")
        self._patch_method("forest.read", "forest", "BaggedForest", "save", "forest.save")
        self._patch_method(
            "analyst", "analyst", "AnalystModel", "prob_normal", "analyst.query", on_enter=analyst_query
        )
        self._patch_method("analyst", "analyst", "AnalystModel", "classifier_for", wrap=classifier_for)
        self._patch_function("analyst", "analyst", "certainty_curve", "analyst.curve")
        self._patch_function("evaluate", "evaluate", "run_evaluation", "evaluate.run", on_exit=evaluated)
        self._patch_function("evaluate", "evaluate", "explain_opt_oracle", "evaluate.optoracle")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- metrics ------------------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


LAYER_OF_METRIC_PREFIX = (
    ("density.fit_s", "density.fit"),
    ("density.members", "density.fit"),
    ("density.components", "density.fit"),
    ("density.", "density.query"),
    ("explain.", "explain"),
    ("forest.fit", "forest.train"),
    ("forest.nodes", "forest.train"),
    ("forest.", "forest.read"),
    ("analyst.", "analyst"),
    ("evaluate.", "evaluate"),
    ("dataset.", "dataset"),
    ("report.", "report"),
)


def layer_metrics(setup: Aggregate, rounds: Aggregate, n_rounds: int, cache_bytes: int) -> dict:
    """Per-layer metrics for one set-up plus one average round.

    Counts and self times add the set-up's share to the per-round mean of
    the timed phase; percentiles pool every span of both.
    """

    def total(kind: str, name: str) -> float:
        a = getattr(setup, kind).get(name, 0)
        b = getattr(rounds, kind).get(name, 0)
        return a + b / n_rounds

    def count(name):
        return total("count", name)

    def self_s(*names):
        return sum(total("self_s", n) for n in names)

    def counter(name):
        return total("counters", name)

    def durations(name):
        return setup.durations.get(name, []) + rounds.durations.get(name, [])

    queries = count("analyst.query")
    out = {
        "density.fit_s": (self_s("density.fit"), "s"),
        "density.members": (counter("density.members"), "count"),
        "density.components": (counter("density.components"), "count"),
        "density.queries": (count("density.query"), "count"),
        "density.query_s": (self_s("density.query"), "s"),
        "density.query_p50_ms": (1e3 * _quantile(durations("density.query"), 0.50), "ms"),
        "density.query_p99_ms": (1e3 * _quantile(durations("density.query"), 0.99), "ms"),
        "density.rank_s": (self_s("density.rank"), "s"),
        "forest.fits": (count("forest.fit"), "count"),
        "forest.fit_s": (self_s("forest.fit"), "s"),
        "forest.fit_p50_ms": (1e3 * _quantile(durations("forest.fit"), 0.50), "ms"),
        "forest.nodes": (counter("forest.nodes"), "count"),
        "forest.predicts": (count("forest.predict"), "count"),
        "forest.predict_s": (self_s("forest.predict"), "s"),
        "forest.predict_p50_us": (1e6 * _quantile(durations("forest.predict"), 0.50), "us"),
        "forest.loads": (count("forest.load"), "count"),
        "forest.load_s": (self_s("forest.load"), "s"),
        "forest.saves": (count("forest.save"), "count"),
        "forest.save_s": (self_s("forest.save"), "s"),
        "analyst.queries": (queries, "count"),
        "analyst.hits": (counter("analyst.hits"), "count"),
        "analyst.hit_ratio": (counter("analyst.hits") / queries if queries else 0.0, "ratio"),
        "analyst.trained": (counter("analyst.trained"), "count"),
        "analyst.loaded": (counter("analyst.loaded"), "count"),
        "analyst.cache_mb": (cache_bytes / 1e6, "MB"),
        "analyst.curves": (count("analyst.curve"), "count"),
        "analyst.curve_s": (self_s("analyst.curve"), "s"),
        "evaluate.anomalies": (counter("evaluate.anomalies"), "count"),
        "evaluate.optoracle_subsets": (counter("evaluate.optoracle_subsets"), "count"),
        "evaluate.optoracle_s": (self_s("evaluate.optoracle"), "s"),
        "evaluate.self_s": (self_s("evaluate.run"), "s"),
        "dataset.load_csv_s": (self_s("dataset.load_csv"), "s"),
        "report.write_s": (self_s("report.write"), "s"),
    }
    for method in EXPLAINERS:
        out[f"explain.{method}_s"] = (self_s(f"explain.{method}"), "s")
        out[f"explain.{method}_queries"] = (counter(f"explain.{method}_queries"), "count")
    return out


def measured(metrics: dict, unmeasured: set[str]) -> dict:
    """Drop the metrics of layers whose wrapped functions were missing."""
    kept = {}
    for name, value in metrics.items():
        layer = next((layer for prefix, layer in LAYER_OF_METRIC_PREFIX if name.startswith(prefix)), None)
        if layer not in unmeasured and name not in unmeasured:
            kept[name] = value
    return kept
