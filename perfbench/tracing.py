"""Outside-in spans around the public entry points of the gapdecomp modules.

A Tracer replaces each traced function, wherever a gapdecomp module holds a
reference to it, by a wrapper that records one span: name, start, end,
parent span and op id, plus an optional count taken from the call.  Spans
stay in memory until the run writes them out.  ``layer_metrics`` turns the
spans of one op into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, span name, count taken from (args, result))
_FUNCTIONS = (
    ("gapdecomp.data", "load_csv", "data.load_csv", None),
    ("gapdecomp.data", "write_csv", "data.write_csv", None),
    ("gapdecomp.data", "add_missing_indicators", "data.preprocess", None),
    ("gapdecomp.data", "first_principal_component", "data.preprocess", None),
    ("gapdecomp.data", "quantile_bin", "data.preprocess", None),
    ("gapdecomp.regression", "fit_ols", "regression.fit_ols",
     lambda args, result: 2 * args[0].matrix.shape[0] * args[0].matrix.shape[1] ** 2),
    ("gapdecomp.regression", "fit_logistic", "regression.fit_logistic",
     lambda args, result: result.n_iter),
    ("gapdecomp.parametric", "analysis_rows", "parametric.analysis_rows", None),
    ("gapdecomp.parametric", "decompose_successive_linear", "parametric.decompose", None),
    ("gapdecomp.parametric", "decompose_successive_multiX", "parametric.decompose", None),
    ("gapdecomp.parametric", "decompose_product_coefficients", "parametric.decompose", None),
    ("gapdecomp.parametric", "decompose_logistic_rare", "parametric.decompose", None),
    ("gapdecomp.plugin", "plugin_mu", "plugin.standardize", None),
    ("gapdecomp.plugin", "plugin_mu_timedep", "plugin.standardize", None),
    ("gapdecomp.oaxaca", "proposition_via_oaxaca", "oaxaca", None),
    ("gapdecomp.oaxaca", "oaxaca_decompose", "oaxaca", None),
    ("gapdecomp.oaxaca", "interaction_model_estimates", "oaxaca", None),
    ("gapdecomp.engine", "estimate", "engine.estimate", lambda args, result: _route(args[1])),
    ("gapdecomp.inference", "bootstrap", "inference.bootstrap",
     lambda args, result: result.n_failed),
    ("gapdecomp.inference", "resample_indices", "inference.resample", None),
    ("gapdecomp.simulate", "generate", "simulate.generate", None),
    ("gapdecomp.cli", "main", "cli.main", None),
    ("gapdecomp.cli", "load_config", "cli.load_config", None),
    ("gapdecomp.cli", "run", "cli.run", None),
    ("gapdecomp.cli", "execute", "cli.execute", None),
    ("gapdecomp.cli", "render_table", "cli.render_table", None),
)

# (module, class, method, span name, count); the counts are computed bytes
_METHODS = (
    ("gapdecomp.data", "Dataset", "__post_init__", "data.dataset_build",
     lambda args, result: sum(a.nbytes for a in args[0].columns.values())),
    ("gapdecomp.data", "Dataset", "take", "data.take", None),
    ("gapdecomp.regression", "DesignMatrix", "from_dataset", "regression.design_build",
     lambda args, result: result.matrix.nbytes),
    ("gapdecomp.plugin", "StratumTable", "__init__", "plugin.stratum_table", None),
)


def _route(spec) -> str:
    """The engine's dispatch order: plug-in, interactions, rare binary, family."""
    if spec.estimator.value == "PLUGIN":
        return "plugin"
    if spec.option("interactions"):
        return "interactions"
    if spec.outcome_family.value == "RARE_BINARY":
        return "rare_binary"
    return spec.estimator.value.lower()


class Tracer:
    """Records spans while installed; ``op`` tags every span recorded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op, count]
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float, count=None) -> None:
        """A span timed by the caller, e.g. a module import."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.op, count])

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced entry point in the gapdecomp modules loaded now."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "gapdecomp" or k.startswith("gapdecomp."))]
        for module_name, attr, name, count in _FUNCTIONS:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            original = getattr(home, attr)
            traced = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, traced)
        for module_name, cls_name, method, name, count in _METHODS:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            cls = getattr(home, cls_name)
            raw = cls.__dict__[method]
            self._undo.append((cls, method, raw))
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self._wrap(raw.__func__, name, count)))
            else:
                setattr(cls, method, self._wrap(raw, name, count))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def as_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": o, "count": c}
            for i, (n, s, e, p, o, c) in enumerate(self.spans)
        ]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children of a span are disjoint and
    nested inside it; their durations add up to the time they cover.
    """
    position = {s["id"]: i for i, s in enumerate(spans)}
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] in position:
            own[position[s["parent"]]] -= s["end"] - s["start"]
    return own


def covered_seconds(spans: list[dict]) -> float:
    """Time covered by root spans (those with no parent), as a union."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s["start"], s["end"]) for s in spans if s["parent"] is None):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


# name -> unit; the order is the order of printing
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.execute.self_s": "s",
    "cli.report_write_s": "s",
    "data.load_csv_s": "s",
    "data.load_csv_mb_per_s": "MB/s",
    "data.preprocess_s": "s",
    "data.dataset_build.calls": "count",
    "data.dataset_build.self_s": "s",
    "data.dataset_build.bytes_computed": "B",
    "data.take.calls": "count",
    "data.take.self_s": "s",
    "data.write_csv_s": "s",
    "engine.estimate.calls": "count",
    "engine.estimate.successive_s": "s",
    "engine.estimate.product_s": "s",
    "engine.estimate.plugin_s": "s",
    "engine.estimate.rare_binary_s": "s",
    "engine.estimate.interactions_s": "s",
    "parametric.analysis_rows.self_s": "s",
    "parametric.decompose.self_s": "s",
    "regression.design_build.calls": "count",
    "regression.design_build.self_s": "s",
    "regression.design_build.bytes_computed": "B",
    "regression.fit_ols.calls": "count",
    "regression.fit_ols.self_s": "s",
    "regression.fit_ols.flops_computed": "flop",
    "regression.fit_logistic.calls": "count",
    "regression.fit_logistic.self_s": "s",
    "regression.fit_logistic.newton_iters": "count",
    "plugin.stratum_table.calls": "count",
    "plugin.stratum_table.self_s": "s",
    "plugin.standardize.self_s": "s",
    "oaxaca.self_s": "s",
    "inference.replicates": "count",
    "inference.replicates_failed": "count",
    "inference.replicate_ms": "ms",
    "inference.resample.self_s": "s",
    "inference.bootstrap.self_s": "s",
    "simulate.generate_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_share": "ratio",
}

#: Metrics that count work; they must repeat exactly from op to op and run to run.
COUNT_METRICS = tuple(k for k, u in LAYER_UNITS.items() if u in ("count", "B", "flop"))


def layer_metrics(spans: list[dict], csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (set-up spans excluded)."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counted: dict[str, float] = {}
    routes: dict[str, float] = {}
    for s, own_s in zip(spans, own):
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + own_s
        if name == "engine.estimate":
            routes[s["count"]] = routes.get(s["count"], 0.0) + dur
        elif s["count"] is not None:
            counted[name] = counted.get(name, 0) + s["count"]

    load_s = incl.get("data.load_csv", 0.0)
    replicates = calls.get("inference.resample", 0)
    return {
        "cli.import_s": incl.get("cli.import", 0.0),
        "cli.execute.self_s": self_s.get("cli.execute", 0.0),
        "cli.report_write_s": self_s.get("cli.run", 0.0) + incl.get("cli.render_table", 0.0),
        "data.load_csv_s": load_s,
        "data.load_csv_mb_per_s": csv_bytes / 1e6 / load_s if load_s else 0.0,
        "data.preprocess_s": incl.get("data.preprocess", 0.0),
        "data.dataset_build.calls": calls.get("data.dataset_build", 0),
        "data.dataset_build.self_s": self_s.get("data.dataset_build", 0.0),
        "data.dataset_build.bytes_computed": counted.get("data.dataset_build", 0),
        "data.take.calls": calls.get("data.take", 0),
        "data.take.self_s": self_s.get("data.take", 0.0),
        "engine.estimate.calls": calls.get("engine.estimate", 0),
        "engine.estimate.successive_s": routes.get("successive", 0.0),
        "engine.estimate.product_s": routes.get("product", 0.0),
        "engine.estimate.plugin_s": routes.get("plugin", 0.0),
        "engine.estimate.rare_binary_s": routes.get("rare_binary", 0.0),
        "engine.estimate.interactions_s": routes.get("interactions", 0.0),
        "parametric.analysis_rows.self_s": self_s.get("parametric.analysis_rows", 0.0),
        "parametric.decompose.self_s": self_s.get("parametric.decompose", 0.0),
        "regression.design_build.calls": calls.get("regression.design_build", 0),
        "regression.design_build.self_s": self_s.get("regression.design_build", 0.0),
        "regression.design_build.bytes_computed": counted.get("regression.design_build", 0),
        "regression.fit_ols.calls": calls.get("regression.fit_ols", 0),
        "regression.fit_ols.self_s": self_s.get("regression.fit_ols", 0.0),
        "regression.fit_ols.flops_computed": counted.get("regression.fit_ols", 0),
        "regression.fit_logistic.calls": calls.get("regression.fit_logistic", 0),
        "regression.fit_logistic.self_s": self_s.get("regression.fit_logistic", 0.0),
        "regression.fit_logistic.newton_iters": counted.get("regression.fit_logistic", 0),
        "plugin.stratum_table.calls": calls.get("plugin.stratum_table", 0),
        "plugin.stratum_table.self_s": self_s.get("plugin.stratum_table", 0.0),
        "plugin.standardize.self_s": self_s.get("plugin.standardize", 0.0),
        "oaxaca.self_s": self_s.get("oaxaca", 0.0),
        "inference.replicates": replicates,
        "inference.replicates_failed": counted.get("inference.bootstrap", 0),
        "inference.replicate_ms": (
            1e3 * incl.get("inference.bootstrap", 0.0) / replicates if replicates else 0.0
        ),
        "inference.resample.self_s": self_s.get("inference.resample", 0.0),
        "inference.bootstrap.self_s": self_s.get("inference.bootstrap", 0.0),
    }


def setup_metrics(spans: list[dict]) -> dict[str, float]:
    """Set-up layer times from the spans of one set-up."""
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    return {"simulate.generate_s": total("simulate.generate"),
            "data.write_csv_s": total("data.write_csv")}
