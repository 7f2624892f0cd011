"""The benchmark's workloads: how inputs are made, what one op is, and its checks.

``batch`` and ``bootstrap`` run ``gapdecomp run`` in a fresh process per op
on a generated CSV; ``fit_large`` calls the library in the benchmark's own
process on pre-generated arrays.  Inputs depend only on the seed and the
scale, and the program sees only the generated files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

#: The input files of every workload are rebuilt from these parameters.
DISCRETE = dict(
    group_share=0.4, covariate_share=0.3, discrete=True, confounder=True,
    x_intercept=0.35, x_group_effect=0.2, x_covariate_effect=0.1,
    l_intercept=0.3, l_group_effect=0.1, l_early_effect=0.2,
    m_intercept=0.25, m_group_effect=0.1, m_early_effect=0.15,
    m_confounder_effect=0.15, m_covariate_effect=0.1,
    y_group_effect=-0.3, y_early_effect=0.4, y_target_effect=0.5,
    y_confounder_effect=0.3, y_covariate_effect=0.2,
)
CONTINUOUS = dict(
    group_share=0.4, covariate_share=0.3,
    x_group_effect=-0.6, x_covariate_effect=0.3,
    m_group_effect=-0.5, m_early_effect=0.7, m_covariate_effect=0.2,
    y_group_effect=-0.3, y_early_effect=0.4, y_target_effect=0.5, y_covariate_effect=0.25,
)
RARE = dict(CONTINUOUS, binary_outcome=True, outcome_prevalence=0.05)

#: Rows per input ("fit_large" has a continuous and a rare-outcome dataset)
#: and bootstrap replicates, at full size and at the self-test's toy size.
SIZES = {
    "full": {"batch": 200_000, "bootstrap": 10_000, "continuous": 1_000_000,
             "rare": 200_000, "replicates": 200},
    "toy": {"batch": 60_000, "bootstrap": 5_000, "continuous": 20_000,
            "rare": 20_000, "replicates": 20},
}

BLANK_SHARE = 0.01  # of the outcome and covariate cells in the CSV workloads
BOOTSTRAP_SEED = 2017  # fixed in the config, so every op draws the same resamples
FAMILY_RTOL = 1e-8  # SUCCESSIVE vs PRODUCT
IDENTITY_ATOL = 1e-10  # initial = residual + reduction (additive scale)
TRUTH_SE_MULTIPLE = 10.0  # reduction within 10/sqrt(n) of the closed-form truth

BINDINGS = {"outcome": "outcome", "group": "group", "early": ["early"],
            "target": "target", "confounder": "confounder", "covariate": ["covariate"]}


def _runs(pairs):
    return [{"proposition": p, "estimator": e} for p, e in pairs]


BATCH_RUNS = _runs(
    [(f"P{i}", e) for i in range(1, 5) for e in ("SUCCESSIVE", "PRODUCT", "PLUGIN")]
    + [(f"P{i}", "PLUGIN") for i in (5, 6, 7)]
)
BOOTSTRAP_RUNS = _runs([("P4", "SUCCESSIVE"), ("P4", "PRODUCT"), ("P3", "PLUGIN"), ("P7", "PLUGIN")])
FIT_LARGE_CONTINUOUS = (
    [{"proposition": f"P{i}", "estimator": e} for i in range(1, 5) for e in ("SUCCESSIVE", "PRODUCT")]
    + [{"proposition": "P4", "estimator": "SUCCESSIVE", "options": {"interactions": True}}]
)
FIT_LARGE_RARE = [{"proposition": "P4", "estimator": e, "outcome_family": "RARE_BINARY"}
                  for e in ("SUCCESSIVE", "PRODUCT")]


def _blanked(columns: dict, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    out = dict(columns)
    for name in ("outcome", "covariate"):
        values = np.array(out[name])
        values[rng.random(values.shape[0]) < BLANK_SHARE] = np.nan
        out[name] = values
    return out


def make_inputs(workload: str, seed: int, scale: str) -> dict:
    """Write the workload's inputs into the current directory.

    Returns what the provenance records: rows and bytes of every input.
    """
    from gapdecomp import Dataset, StructuralParams, generate, write_csv

    sizes = SIZES[scale]
    if workload == "fit_large":
        cont = generate(StructuralParams(**CONTINUOUS), sizes["continuous"], seed=seed)
        rare = generate(StructuralParams(**RARE), sizes["rare"], seed=seed + 1)
        arrays = {f"continuous.{k}": v for k, v in cont.columns.items()}
        arrays.update({f"rare.{k}": v for k, v in rare.columns.items()})
        np.savez("inputs.npz", **arrays)
        return {"n": {"continuous": cont.n_rows, "rare": rare.n_rows},
                "input_bytes": os.path.getsize("inputs.npz")}

    n = sizes[workload]
    d = generate(StructuralParams(**DISCRETE), n, seed=seed)
    write_csv(Dataset(_blanked(d.columns, seed), d.roles), "input.csv")
    config = {
        "input": "input.csv",
        "bindings": BINDINGS,
        "output": {"report": "report.json", "table": "table.txt"},
    }
    if workload == "batch":
        config["runs"] = BATCH_RUNS
        config["preprocess"] = {"missing_indicators": ["covariate"]}
    else:
        # Rows with a blank cell are dropped rather than given an indicator:
        # the indicator's ~1% stratum empties in most resamples of P7's cells.
        config["runs"] = BOOTSTRAP_RUNS
        config["bootstrap"] = {"replicates": sizes["replicates"], "seed": BOOTSTRAP_SEED}
    with open("config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return {"n": n, "input_bytes": os.path.getsize("input.csv")}


def estimates_per_op(workload: str, scale: str) -> int:
    """A bootstrap replicate counts as one estimate, as does the full-sample one."""
    if workload == "batch":
        return len(BATCH_RUNS)
    if workload == "bootstrap":
        return len(BOOTSTRAP_RUNS) * (SIZES[scale]["replicates"] + 1)
    return len(FIT_LARGE_CONTINUOUS) + len(FIT_LARGE_RARE)


# -- fit_large: one op in-process -----------------------------------------


def load_arrays(path) -> dict:
    with np.load(path) as npz:
        return {k: npz[k] for k in npz.files}


def fit_large_op(arrays: dict) -> list[dict]:
    """Build fresh Datasets from the arrays and run every estimate of the op.

    Returns one report-shaped entry per estimate.  Library functions are
    looked up at call time so that a tracer's wrappers are seen.
    """
    import gapdecomp.data as data
    import gapdecomp.engine as engine
    from gapdecomp import AnalysisSpec
    from gapdecomp.errors import AnalysisError

    roles = {"outcome": "outcome", "group": "group", "early": ["early"],
             "target": "target", "covariate": ["covariate"]}
    entries = []
    for prefix, requests in (("continuous", FIT_LARGE_CONTINUOUS), ("rare", FIT_LARGE_RARE)):
        d = data.Dataset({k.split(".", 1)[1]: v for k, v in arrays.items()
                          if k.startswith(prefix + ".")}, roles)
        for req in requests:
            entry = {**req, "outcome_family": req.get("outcome_family", "CONTINUOUS"),
                     "estimate": None, "error": None}
            try:
                est = engine.estimate(d, AnalysisSpec(**req))
                entry["estimator"] = est.estimator
                entry["estimate"] = {
                    "scale": est.scale.value, "initial": est.initial, "residual": est.residual,
                    "reduction": est.reduction, "proportion_reduced": est.proportion_reduced,
                }
            except AnalysisError as exc:
                entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            entries.append(entry)
    return entries


# -- checks -----------------------------------------------------------------


def _close(a, b, rtol) -> bool:
    if a is None or b is None:
        return a is b
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def check_runs(runs: list[dict], truth_n: int | None = None) -> list[str]:
    """Correctness problems in one op's run entries; empty when it is right.

    Checks: no run has an error; SUCCESSIVE and PRODUCT agree to 1e-8
    (relative) on the same continuous proposition, bootstrap spreads
    included; initial = residual + reduction to 1e-10 on every additive run
    (residual * reduction, relative, on the ratio scale); and, when
    ``truth_n`` is given, every continuous reduction lies within
    10/sqrt(truth_n) of the generator's closed-form truth.
    """
    problems = []
    by_family: dict[tuple, dict] = {}
    for i, r in enumerate(runs):
        where = f"runs[{i}] {r['proposition']}/{r['estimator']}"
        if r.get("error") is not None:
            problems.append(f"{where}: error {r['error']}")
            continue
        est = r["estimate"]
        if est["scale"] == "ADDITIVE":
            gap = abs(est["initial"] - (est["residual"] + est["reduction"]))
            if not gap <= IDENTITY_ATOL:
                problems.append(f"{where}: initial - (residual + reduction) = {gap:.3e}")
        elif not _close(est["initial"], est["residual"] * est["reduction"], IDENTITY_ATOL):
            problems.append(f"{where}: initial != residual * reduction")
        if r["estimator"] in ("SUCCESSIVE", "PRODUCT") and r["outcome_family"] == "CONTINUOUS":
            by_family[(r["proposition"], r["estimator"])] = r
    for (prop, family), a in by_family.items():
        b = by_family.get((prop, "PRODUCT"))
        if family != "SUCCESSIVE" or b is None:
            continue
        pairs = [(k, a["estimate"][k], b["estimate"][k])
                 for k in ("initial", "residual", "reduction", "proportion_reduced")]
        if a.get("bootstrap") and b.get("bootstrap"):
            for q, qa in a["bootstrap"]["quantities"].items():
                for k, v in qa.items():
                    pairs.append((f"bootstrap {q} {k}", v, b["bootstrap"]["quantities"][q][k]))
        for key, x, y in pairs:
            if not _close(x, y, FAMILY_RTOL):
                problems.append(f"{prop}: SUCCESSIVE {key} {x!r} != PRODUCT {y!r}")
    if truth_n is not None:
        from gapdecomp import StructuralParams, true_values

        params = StructuralParams(**CONTINUOUS)
        tol = TRUTH_SE_MULTIPLE / math.sqrt(truth_n)
        for r in runs:
            if r.get("error") is None and r["outcome_family"] == "CONTINUOUS":
                truth = true_values(params, r["proposition"]).reduction
                if not abs(r["estimate"]["reduction"] - truth) <= tol:
                    problems.append(
                        f"{r['proposition']}/{r['estimator']}: reduction "
                        f"{r['estimate']['reduction']!r} is off truth {truth!r} by more than {tol:.4g}"
                    )
    return problems
