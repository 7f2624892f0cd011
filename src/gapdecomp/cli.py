"""Batch front-end.

``gapdecomp run <config.json>`` reads one dataset, executes a list of
decomposition runs against it, and writes a machine-readable JSON report plus
a plain-text table (rows: initial disparity, residual disparity, % reduction;
columns: one per run).  ``gapdecomp selfcheck`` exercises the cross-family
equivalence identities on generated data and exits nonzero if any of them is
violated.  ``gapdecomp generate <params.json> <out.csv>`` writes a synthetic
cohort.

Reports are deterministic: rerunning the same config against the same file
at the same BLAS thread count produces byte-identical output (no timestamps,
no environment capture). With OpenBLAS, whose dot product runs on one thread
up to 10,000 terms (measured on 0.3.31), the output is also the same at any
thread count, ``principal_component`` included (its correlation matrix
measured the same at 1 and 2 threads); other BLAS builds may add threaded
sums in another order, so pin the thread count with those.
Every numeric field is either finite or ``null`` with a reason string
alongside it; warnings are part of the report, not log chatter.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import pathlib
import sys
import typing
import warnings

import numpy as np

from .analysis import AnalysisSpec, is_finite_number, is_integer
from .data import (
    Dataset,
    Role,
    add_missing_indicators,
    first_principal_component,
    load_csv,
    normalize_roles,
    quantile_bin,
)
from .data import write_csv as _write_csv
from .engine import estimate
from .errors import AnalysisError, ConfigError, NotUtf8, UnreadCells, outcome_of
from .inference import bootstrap_runs, bootstrap_statistic
from .oaxaca import interaction_model_estimates, proposition_via_oaxaca
from .parametric import Sample
from .regression import DesignMatrix, fit_logistic, fit_ols
from .simulate import StructuralParams, generate


# --------------------------------------------------------------------------
# config


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything ``run`` needs: one dataset, many runs, two output files."""

    input: str
    bindings: dict
    runs: tuple[AnalysisSpec, ...]
    preprocess: dict = dataclasses.field(default_factory=dict)  # as in _SCHEMA
    bootstrap: dict | None = None  # {"replicates": int, "seed": int, "stratify_by_group": bool}, as written
    report_path: str = "report.json"
    table_path: str = "table.txt"


def _is_column_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(name, str) for name in value)


# (test, description) of one config value
_ANY = (lambda v: True, "")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_STRING = (lambda v: isinstance(v, str), "a string")
_INTEGER = (is_integer, "an integer")
_COLUMNS = (_is_column_list, "a list of column names")
_TWO_OR_MORE = (lambda v: is_integer(v) and v >= 2, "an integer >= 2")

#: Every config key with the values it accepts; a dict is a nested object.
_SCHEMA = {
    "input": _STRING,
    "bindings": (lambda v: isinstance(v, dict) and all(
        isinstance(c, str) or _is_column_list(c) for c in v.values()),
        "an object mapping roles to column names"),
    "runs": (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list"),
    "options": _OBJECT,
    "preprocess": {
        "missing_indicators": _COLUMNS,
        "principal_component": {"columns": _COLUMNS, "name": _STRING},
        "discretize": {"columns": _COLUMNS, "bins": _TWO_OR_MORE},
    },
    "bootstrap": {"replicates": _TWO_OR_MORE,
                  "seed": _INTEGER,
                  "stratify_by_group": (lambda v: isinstance(v, bool), "true or false")},
    "output": {"report": _STRING, "table": _STRING},
}
_RUN = {"proposition": _ANY, "estimator": _ANY, "outcome_family": _ANY,
        "conditioning_value_x": _ANY, "options": _OBJECT, "bindings": _SCHEMA["bindings"]}
#: The keys a nested object must hold, by its key.
_REQUIRED = {"principal_component": ("columns", "name"), "discretize": ("columns",)}


#: The rule of each StructuralParams field, by the field's type.
_FIELD_RULES = {
    float: (is_finite_number, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    float | None: (lambda v: v is None or is_finite_number(v), "a finite number or null"),
}
_FIELD_TYPES = typing.get_type_hints(StructuralParams)
#: Every key of a `generate` parameter file: the row count, the seed, and
#: each structural field.
_GENERATE = {"n": (lambda v: is_integer(v) and v >= 1, "an integer >= 1"),
             "seed": (lambda v: is_integer(v) and v >= 0, "an integer >= 0"),
             **{f.name: _FIELD_RULES[_FIELD_TYPES[f.name]] for f in dataclasses.fields(StructuralParams)}}


def _check(value, keys: dict, path, location: str = "", required=()) -> None:
    """Refuse, naming the key, a config object with a key outside `keys`, a
    `required` key missing, or a value its rule does not accept."""
    where = f"{path}: {location}" if location else str(path)
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    extra = sorted(set(value) - set(keys))
    if extra:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, extra))}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{where}: missing required key {key!r}")
    for key, item in value.items():
        rule = keys[key]
        if isinstance(rule, dict):
            if item is not None:
                _check(item, rule, path, f"{location}.{key}".lstrip("."), _REQUIRED.get(key, ()))
        elif not rule[0](item):
            raise ConfigError(f"{where}: {key!r} must be {rule[1]}, got {item!r}")


def _read_json(path, what: str):
    """The JSON value in file `path`; ConfigError naming `what` if it cannot be read or parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate a run config into one AnalysisSpec per run.

    Raises ConfigError naming the offending key: for the config's shape, for
    a value only the CLI reads, or for a run naming no known proposition,
    estimator or outcome family. Never touches the dataset: ``execute``
    checks each run against it with `validate_spec`. The input, the report
    and the table must be three different files, and neither output a
    directory or in a directory that does not exist.
    """
    raw = _read_json(path, "config")
    _check(raw, _SCHEMA, path, required=("input", "bindings", "runs"))

    runs = []
    for i, entry in enumerate(raw["runs"]):
        _check(entry, _RUN, path, f"runs[{i}]", required=("proposition", "estimator"))
        try:
            runs.append(AnalysisSpec(
                proposition=entry["proposition"],
                estimator=entry["estimator"],
                outcome_family=entry.get("outcome_family", "CONTINUOUS"),
                conditioning_value_x=entry.get("conditioning_value_x"),
                bindings=entry.get("bindings"),
                options={**raw.get("options", {}), **entry.get("options", {})},
            ))
        except ValueError as exc:
            raise ConfigError(f"{path}: runs[{i}]: {exc}") from exc

    indicated = set((raw.get("preprocess") or {}).get("missing_indicators") or ())
    for where, bindings in [("bindings", raw["bindings"])] + [
            (f"runs[{i}].bindings", e["bindings"]) for i, e in enumerate(raw["runs"]) if "bindings" in e]:
        outcome = next((v for k, v in bindings.items() if k.lower() == Role.OUTCOME.value), [])
        for name in indicated.intersection([outcome] if isinstance(outcome, str) else outcome):
            raise ConfigError(f"{path}: preprocess.missing_indicators names {name!r}, bound as the "
                              f"outcome in {where}; its indicator would fill blank outcomes with 0.0")

    output = raw.get("output") or {}
    paths = {"input": raw["input"], "output.report": output.get("report", "report.json"),
             "output.table": output.get("table", "table.txt")}
    seen = {}
    for key, name in paths.items():
        other = seen.setdefault(os.path.realpath(name), key)
        if other != key:
            raise ConfigError(f"{path}: {key!r} names the same file as {other!r}: {name!r}")
        if key != "input" and (os.path.isdir(name or ".") or not os.path.isdir(os.path.dirname(name) or ".")):
            raise ConfigError(f"{path}: {key!r} must name a file in a directory that exists: {name!r}")
    return RunConfig(
        input=paths["input"],
        bindings=raw["bindings"],
        runs=tuple(runs),
        preprocess=raw.get("preprocess") or {},
        bootstrap=raw.get("bootstrap"),
        report_path=paths["output.report"],
        table_path=paths["output.table"],
    )


# --------------------------------------------------------------------------
# run


def _prepare_dataset(cfg: RunConfig) -> Dataset:
    """The config's dataset, preprocessed. A role is bound as the file is
    read, so a blank group cell is refused before `missing_indicators` can
    fill it, unless it names a column preprocessing makes: it is bound after."""
    pre = cfg.preprocess
    pca, disc = pre.get("principal_component"), pre.get("discretize")
    made = {f"{name}_miss" for name in pre.get("missing_indicators") or ()}
    made |= {pca["name"]} if pca is not None else set()
    roles = normalize_roles(cfg.bindings)
    late = {role: names for role, names in roles.items() if made.intersection(names)}
    try:
        d = load_csv(cfg.input, {role: names for role, names in roles.items() if role not in late})
    except (OSError, NotUtf8) as exc:
        raise ConfigError(f"cannot read input {cfg.input!r}: {exc}") from exc
    if pre.get("missing_indicators"):
        d = add_missing_indicators(d, pre["missing_indicators"])
    if pca is not None:
        if pca["name"] in d.columns:
            raise ConfigError(f"preprocess.principal_component.name {pca['name']!r} is already "
                              "a column of the dataset; give the component a new name")
        d = d.with_columns({pca["name"]: first_principal_component(d, pca["columns"])})
    if disc is not None:
        d = quantile_bin(d, disc["columns"], bins=disc.get("bins", 5))
    return d.with_roles({**d.roles, **late}) if late else d


def _number_or_null(value):
    """JSON-safe number: finite floats pass, anything else becomes None."""
    if value is None:
        return None
    v = float(value)
    return v if math.isfinite(v) else None


def _number_field(report: dict, key: str, value, reason_if_null: str) -> None:
    report[key] = _number_or_null(value)
    if report[key] is None:
        report[f"{key}_reason"] = reason_if_null


def _estimate_payload(est) -> dict:
    payload: dict = {"scale": est.scale.value}
    for key in ("initial", "residual", "reduction"):
        _number_field(payload, key, getattr(est, key), "not finite on this sample")
    prop_reason = "undefined for this initial disparity"
    for note in est.notes:
        if "proportion" in note:
            prop_reason = note
    _number_field(payload, "proportion_reduced", est.proportion_reduced, prop_reason)
    if est.coefficients is None:
        payload["coefficients"] = None
    else:
        payload["coefficients"] = {
            model: {label: _number_or_null(val) for label, val in fit.items()}
            for model, fit in est.coefficients.items()
        }
    if est.logistic_fits:
        payload["logistic_fits"] = {model: dict(fit) for model, fit in est.logistic_fits.items()}
    return payload


def _bootstrap_payload(summary) -> dict:
    payload = summary.as_dict()
    for qty in payload["quantities"].values():
        for key, value in qty.items():
            qty[key] = _number_or_null(value)
    return payload


def _recorded(entry: dict, step):
    """step(), with its warnings added to the run's entry once each; an
    AnalysisError it raises or returns becomes the entry's error (None)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome_of(step)
    entry["warnings"] = list(dict.fromkeys(entry["warnings"] + [str(w.message) for w in caught]))
    if isinstance(result, AnalysisError):
        entry["error"] = {"type": type(result).__name__, "message": str(result)}
        return None
    return result


def execute(cfg: RunConfig) -> dict:
    """Run every request in the config and return the report object.

    All runs are validated against the dataset before the first estimate is
    computed; after that, one run failing does not abort its siblings — the
    failure is recorded in that run's report entry.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = _prepare_dataset(cfg)
    unread = next((w.message for w in caught if isinstance(w.message, UnreadCells)), None)
    bound = []
    for i, spec in enumerate(cfg.runs):
        try:
            bound.append(spec.resolve(d))
        except AnalysisError as exc:
            raise ConfigError(f"runs[{i}] ({spec.proposition.value}, {spec.estimator.value}): {exc}") from exc

    run_reports, ests = [], []
    for spec, binding in zip(cfg.runs, bound):
        entry: dict = {
            "proposition": spec.proposition.value,
            "estimator": spec.estimator.value,
            "outcome_family": spec.outcome_family.value,
            **({"bindings": dict(spec.bindings)} if spec.bindings else {}),
            "n_analysis": int(np.count_nonzero(Sample(binding).mask)),
            "estimate": None,
            "notes": [],
            "warnings": [],
            "bootstrap": None,
            "error": None,
        }
        est = _recorded(entry, lambda: estimate(d, spec))
        if est is not None:
            entry.update(estimate=_estimate_payload(est), estimator=est.estimator,
                         notes=list(est.notes))
        run_reports.append(entry)
        ests.append(est)

    # any bootstrap object asks for one, a missing key at `bootstrap_runs`' default;
    # each replicate is drawn once, and every run with an estimate is read from it
    boot = {"b" if key == "replicates" else key: value for key, value in (cfg.bootstrap or {}).items()}
    live = [i for i, est in enumerate(ests) if cfg.bootstrap is not None and est is not None]
    results = bootstrap_runs(d, [cfg.runs[i] for i in live], full=[ests[i] for i in live], **boot)
    for entry in (run_reports[i] for i in live):
        summary = _recorded(entry, lambda: next(results))
        if summary is not None:
            entry["bootstrap"] = _bootstrap_payload(summary)
            if summary.n_failed:
                entry["warnings"].append(
                    f"{summary.n_failed} bootstrap replicate(s) failed and were excluded"
                )

    return {
        "input": cfg.input,
        "bindings": {str(k): v for k, v in cfg.bindings.items()},
        "dataset": {
            "rows": d.n_rows,
            "columns": sorted(d.columns),
            "unparsed_cells": unread.unparsed if unread else {},
            "short_rows": unread.short_rows if unread else 0,
            "warnings": list(dict.fromkeys(str(w.message) for w in caught)),
        },
        "bootstrap": cfg.bootstrap,
        "runs": run_reports,
    }


def render_table(report: dict) -> str:
    """Three-row summary table, one column per run.

    The % reduction row is round(100 * proportion_reduced) of the JSON
    values, so the table never disagrees with the report.
    """
    runs = report["runs"]
    labels = [r["proposition"] for r in runs]
    if len(set(labels)) != len(labels):
        labels = [f"{r['proposition']}/{r['estimator']}" for r in runs]
    if len(set(labels)) != len(labels):
        labels = [f"#{i} {label}" for i, label in enumerate(labels, 1)]
    width = max(12, max((len(s) for s in labels), default=0) + 2)

    def row(title, values):
        return title.ljust(20) + "".join(v.rjust(width) for v in values)

    def cell(est, key, form):
        if est is None:
            return "error"
        return "—" if est[key] is None else form(est[key])

    quantities = (("initial disparity", "initial", "{:.3f}".format),
                  ("residual disparity", "residual", "{:.3f}".format),
                  ("% reduction", "proportion_reduced", lambda p: f"{round(100 * p):d}"))
    lines = [row("quantity", labels)]
    lines += [row(title, [cell(r["estimate"], key, form) for r in runs]) for title, key, form in quantities]
    return "\n".join(lines) + "\n"


def _write(where: str, name: str, write) -> None:
    """write(name), an OSError raised as a ConfigError naming `where` and the path."""
    try:
        write(name)
    except OSError as exc:
        raise ConfigError(f"cannot write {where} {name!r}: {exc}") from exc


def _write_all(outputs) -> None:
    """Write each (where, path, text) of `outputs`, all or none: each to a
    temporary file beside its path, all moved into place once every one is
    written. The ConfigError of a failed write (`_write`) is raised once the
    temporaries are removed."""
    temps = [f"{name}.{os.getpid()}.tmp" for _, name, _ in outputs]
    try:
        for (where, name, text), temp in zip(outputs, temps):
            _write(where, name, lambda _: pathlib.Path(temp).write_text(text, encoding="utf-8"))
        for (where, name, _), temp in zip(outputs, temps):
            _write(where, name, lambda path: os.replace(temp, path))
    except ConfigError:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise


def run(config_path) -> int:
    cfg = load_config(config_path)
    report = execute(cfg)
    text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    table = render_table(report)
    _write_all((("output.report", cfg.report_path, text), ("output.table", cfg.table_path, table)))
    sys.stdout.write(table)
    failed = [r for r in report["runs"] if r["error"] is not None]
    for r in failed:
        sys.stderr.write(
            f"run {r['proposition']}/{r['estimator']} failed: "
            f"{r['error']['type']}: {r['error']['message']}\n"
        )
    return 0 if not failed else 1


# --------------------------------------------------------------------------
# selfcheck


def _selfcheck_data():
    linear = StructuralParams(
        group_share=0.4, x_group_effect=-0.6, m_group_effect=-0.5, m_early_effect=0.7,
        y_group_effect=-0.3, y_early_effect=0.4, y_target_effect=0.5,
    )
    discrete = dataclasses.replace(linear, x_intercept=0.45, x_group_effect=0.2, m_intercept=0.35,
                                   m_group_effect=0.15, m_early_effect=0.2, discrete=True)
    confounded = dataclasses.replace(
        discrete, m_intercept=0.3, m_group_effect=0.1, m_early_effect=0.15, confounder=True,
        l_intercept=0.3, l_group_effect=0.1, l_early_effect=0.2, m_confounder_effect=0.15,
        y_confounder_effect=0.3,
    )
    rare = dataclasses.replace(linear, binary_outcome=True, outcome_prevalence=0.05)
    return tuple(generate(params, 4000, seed=seed)
                 for params, seed in ((linear, 17), (discrete, 23), (confounded, 29), (rare, 31)))


_PROPS = ("P1", "P2", "P3", "P4")


def _largest(gaps) -> float:
    """The largest of `gaps`, or infinity if one is not finite: a NaN fails its row."""
    gaps = list(gaps)
    return max(gaps) if all(map(math.isfinite, gaps)) else math.inf


def _largest_gap(pairs, relative=False) -> float:
    """Largest gap between the initial, residual and reduction of each pair
    (a, b) of estimates, relative to max(1, |a|) if `relative`."""
    gaps = []
    for a, b in pairs:
        for key in ("initial", "residual", "reduction"):
            x, y = getattr(a, key), getattr(b, key)
            gaps.append(abs(x - y) / (max(1.0, abs(x)) if relative else 1.0))
    return _largest(gaps)


def _check_additivity(d, specs) -> float:
    return _largest(abs(e.initial - (e.residual + e.reduction))
                    for e in (estimate(d, spec) for spec in specs))


def _check_family_agreement(continuous) -> float:
    return _largest_gap(((estimate(continuous, AnalysisSpec(prop, "SUCCESSIVE")),
                          estimate(continuous, AnalysisSpec(prop, "PRODUCT"))) for prop in _PROPS),
                        relative=True)


def _check_plugin_saturated_fit(discrete) -> float:
    """A regression of the outcome on one indicator per (group, early,
    target, covariate) cell fits each row its cell's mean, so the plug-in
    estimates must not move when the outcome is replaced by the fitted values."""
    names = [discrete.single_role_column(Role.GROUP), *discrete.role_columns(Role.EARLY),
             *discrete.role_columns(Role.TARGET), *discrete.covariate_names()]
    cells = np.unique(np.column_stack([discrete.column(name) for name in names]),
                      axis=0, return_inverse=True)[1].ravel()
    design = (cells[:, None] == np.arange(cells.max() + 1)).astype(float)
    design[:, 0] = 1.0  # cell 0 is the reference level
    labels = ("intercept",) + tuple(f"cell_{j}" for j in range(1, design.shape[1]))
    outcome = discrete.single_role_column(Role.OUTCOME)
    fitted = design @ fit_ols(DesignMatrix(labels, design), discrete.column(outcome)).values
    saturated = discrete.with_columns({outcome: fitted})
    return _largest_gap((estimate(discrete, AnalysisSpec(prop, "PLUGIN")),
                         estimate(saturated, AnalysisSpec(prop, "PLUGIN"))) for prop in _PROPS)


def _check_constant_confounder_collapse(discrete) -> float:
    constant = discrete.with_columns({"always_one": np.ones(discrete.n_rows)})
    return _largest_gap(
        (estimate(constant, AnalysisSpec(timedep, "PLUGIN", bindings={"confounder": "always_one"})),
         estimate(constant, AnalysisSpec(base, "PLUGIN")))
        for timedep, base in (("P5", "P2"), ("P6", "P3"), ("P7", "P4")))


def _check_interaction_duality(continuous) -> float:
    specs = [AnalysisSpec(prop, "SUCCESSIVE", options={"interactions": True}) for prop in _PROPS]
    return _largest_gap((proposition_via_oaxaca(continuous, spec),
                         interaction_model_estimates(continuous, spec)) for spec in specs)


def _check_nested_shift_identity(continuous) -> float:
    """Dropping a regressor moves the group coefficient by (its slope) x
    (group gap in the dropped regressor) — the algebra the product family
    rests on, checked directly on three nested fits."""
    rows = np.arange(continuous.n_rows)
    narrow = fit_ols(DesignMatrix.from_dataset(continuous, ["group"], rows), continuous.column("outcome"))
    wide = fit_ols(
        DesignMatrix.from_dataset(continuous, ["group", "early"], rows), continuous.column("outcome")
    )
    aux = fit_ols(DesignMatrix.from_dataset(continuous, ["group"], rows), continuous.column("early"))
    return abs(narrow["group"] - (wide["group"] + wide["early"] * aux["group"]))


def _check_logistic_score(rare) -> float:
    """max|Aᵀ(y - 1/(1 + exp(-Aβ)))| / n at the logistic outcome fit: the
    score vanishes at the maximum likelihood. The probabilities are computed
    here with plain numpy, not with the solver's own `expit`."""
    design = DesignMatrix.from_dataset(rare, ["group", "early", "target"])
    y = rare.column("outcome")
    beta = fit_logistic(design, y).values
    mu = 1.0 / (1.0 + np.exp(-(design.matrix @ beta)))
    return float(np.max(np.abs(design.matrix.T @ (y - mu)))) / rare.n_rows


def _check_replicate_indices(discrete) -> float:
    """Largest relative gap between the bootstrap read from replicate row
    indices and one that estimates on each replicate's `Dataset.take`
    (`bootstrap_statistic`), over every spread of P1-P4 in all three
    families and in SUCCESSIVE with "interactions"; infinite if they fail on
    different replicates, or if a spread is NaN on one side only."""
    specs = [AnalysisSpec(p, e) for p in _PROPS for e in ("SUCCESSIVE", "PRODUCT", "PLUGIN")]
    specs += [AnalysisSpec(p, "SUCCESSIVE", options={"interactions": True}) for p in _PROPS]
    gaps = []
    for spec, indexed in zip(specs, bootstrap_runs(discrete, specs, b=20, seed=5)):
        if isinstance(indexed, AnalysisError):
            raise indexed
        taken = bootstrap_statistic(discrete, lambda r: estimate(r, spec), b=20, seed=5)
        if indexed.failure_reasons != taken.failure_reasons:
            return math.inf
        x, y = (np.array([[q.se, q.lower, q.upper] for q in s.quantities.values()])
                for s in (indexed, taken))
        same = (x == y) | (np.isnan(x) & np.isnan(y))
        gaps += np.where(same, 0.0, abs(x - y) / np.maximum(abs(x), abs(y))).ravel().tolist()
    return _largest(gaps)


_SELFCHECK_IDENTITIES = (
    ("additivity (initial = residual + reduction)", lambda d: _check_additivity(
        d, [AnalysisSpec(p, e) for p in _PROPS for e in ("SUCCESSIVE", "PRODUCT")]),
     "continuous", 1e-10),
    ("nested-regression vs coefficient-product", _check_family_agreement, "continuous", 1e-8),
    ("plug-in cell means vs saturated regression", _check_plugin_saturated_fit, "discrete", 1e-8),
    ("constant-confounder collapse (bitwise)", _check_constant_confounder_collapse, "discrete", 0.0),
    ("group-stratified vs pooled-interaction fit", _check_interaction_duality, "continuous", 1e-8),
    ("nested-fit coefficient-shift identity", _check_nested_shift_identity, "continuous", 1e-10),
    ("logistic score at the fit", _check_logistic_score, "rare", 1e-8),
    ("replicate-index bootstrap vs per-replicate take", _check_replicate_indices, "discrete",
     1e-12),
    ("confounder-adjusted plug-in additivity",
     lambda d: _check_additivity(d, [AnalysisSpec("P7", "PLUGIN")]), "confounded", 1e-10),
)


def selfcheck() -> int:
    """Exercise the cross-family identities on generated data.

    Prints one line per identity with its observed max deviation; returns 0
    only if every deviation is within tolerance.
    """
    data = dict(zip(("continuous", "discrete", "confounded", "rare"), _selfcheck_data()))
    failures = 0
    for name, check, which, tol in _SELFCHECK_IDENTITIES:
        try:
            dev = check(data[which])
        except AnalysisError as exc:
            sys.stdout.write(f"{name:48s} FAIL    {type(exc).__name__}: {exc}\n")
            failures += 1
            continue
        ok = dev <= tol
        verdict = "ok" if ok else "FAIL"
        sys.stdout.write(f"{name:48s} {verdict:6s} max deviation {dev:.3e} (tolerance {tol:.0e})\n")
        failures += 0 if ok else 1

    sys.stdout.write("selfcheck: " + ("all identities hold\n" if failures == 0 else f"{failures} FAILED\n"))
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# generate


def generate_csv(params_path, out_path) -> int:
    raw = _read_json(params_path, "params")
    _check(raw, _GENERATE, params_path)
    n, seed = raw.pop("n", 1000), raw.pop("seed", 0)
    d = generate(StructuralParams(**raw), n, seed=seed)
    _write("output CSV", out_path, lambda path: _write_csv(d, path))
    sys.stdout.write(f"wrote {d.n_rows} rows x {len(d.columns)} columns to {out_path}\n")
    return 0


# --------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapdecomp",
        description="Decompose a between-group disparity under distribution-equalizing interventions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute every run in a JSON config against one dataset")
    p_run.add_argument("config", help="path to a run config (JSON)")
    sub.add_parser("selfcheck", help="verify the cross-family equivalence identities")
    p_gen = sub.add_parser("generate", help="write a synthetic cohort as CSV")
    p_gen.add_argument("params", help="path to a parameter file (JSON; keys: n, seed, structural fields)")
    p_gen.add_argument("out", help="output CSV path")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return run(args.config)
        if args.command == "selfcheck":
            return selfcheck()
        return generate_csv(args.params, args.out)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except AnalysisError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
