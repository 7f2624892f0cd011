"""validate_spec is the one gate: every entry point refuses, by name, a request
it cannot answer as written, before any estimate is computed."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from gapdecomp import (
    AnalysisSpec,
    StructuralParams,
    decompose_logistic_rare,
    decompose_product_coefficients,
    decompose_successive_linear,
    estimate,
    generate,
    interaction_model_estimates,
    plugin_mu,
    plugin_mu_timedep,
    proposition_via_oaxaca,
)
from gapdecomp.analysis import _OPTIONS, Estimator
from gapdecomp.errors import InvalidSpec

RARE = StructuralParams(
    group_share=0.5, x_group_effect=-0.3, m_group_effect=-0.3,
    m_early_effect=0.3, y_group_effect=0.4, y_early_effect=0.2,
    y_target_effect=0.3, binary_outcome=True, outcome_prevalence=0.05,
)


def rare_cohort(kind=1):
    """The rare-outcome cohort with `kind` early columns (1 or 2), or with a
    continuous outcome in its place ("continuous")."""
    if kind == "continuous":
        return generate(dataclasses.replace(RARE, binary_outcome=False, outcome_prevalence=None),
                        2000, seed=61)
    d = generate(RARE, 2000, seed=61)
    if kind == 1:
        return d
    return d.with_columns({"early2": d.column("early") ** 2},
                          roles={"early": ["early", "early2"]})


def bad_option(family, key, value):
    return estimate, AnalysisSpec("P1", family, options={key: value}), 1, repr(key)


def bad_anchor(value):
    return estimate, AnalysisSpec("P2", "SUCCESSIVE", conditioning_value_x=value), 1, \
        "conditioning_value_x"


def other_estimator(entry, prop, family, runs):
    return entry, AnalysisSpec(prop, family), 1, f"runs {runs}, not {family}"


def plugin_only(prop, family):
    return estimate, AnalysisSpec(prop, family), 1, \
        f"{prop} is implemented by the PLUGIN estimator only; SUCCESSIVE and PRODUCT answer P1-P4"


def not_binary(family):
    return estimate, AnalysisSpec("P1", family, "RARE_BINARY"), "continuous", \
        "RARE_BINARY outcome column 'outcome' must be 0/1 in every non-missing cell"


def bound_twice(family, **options):
    return estimate, AnalysisSpec("P3", family, bindings={"target": "early"}, options=options), \
        1, "column 'early' is bound more than once, as early and target"


@pytest.mark.parametrize("entry,spec,kind,named", [
    bad_option("SUCCESSIVE", "interactions", "no"),
    bad_option("PRODUCT", "interactions", 1),
    bad_option("PLUGIN", "max_levels", 2.7),
    bad_option("PLUGIN", "max_levels", "abc"),
    bad_option("PLUGIN", "max_levels", 0),
    bad_option("PLUGIN", "max_levels", True),
    bad_option("PLUGIN", "mean_model", "ols"),
    bad_option("PLUGIN", "aggregation_weight", "both"),
    bad_anchor(True),
    bad_anchor("abc"),
    bad_anchor(math.nan),
    bad_anchor(math.inf),
    (decompose_logistic_rare, AnalysisSpec("P4", "SUCCESSIVE"), 2, "ratio-scale"),
    (decompose_logistic_rare, AnalysisSpec("P4", "PRODUCT", options={"interactions": True}), 1,
     "ratio-scale"),
    other_estimator(plugin_mu, "P2", "SUCCESSIVE", "PLUGIN"),
    other_estimator(plugin_mu_timedep, "P5", "SUCCESSIVE", "PLUGIN"),
    other_estimator(decompose_successive_linear, "P3", "PLUGIN", "SUCCESSIVE"),
    other_estimator(decompose_successive_linear, "P3", "PRODUCT", "SUCCESSIVE"),
    other_estimator(decompose_product_coefficients, "P3", "SUCCESSIVE", "PRODUCT"),
    other_estimator(decompose_logistic_rare, "P3", "PLUGIN", "SUCCESSIVE or PRODUCT"),
    other_estimator(proposition_via_oaxaca, "P3", "PLUGIN", "SUCCESSIVE or PRODUCT"),
    other_estimator(interaction_model_estimates, "P3", "PLUGIN", "SUCCESSIVE or PRODUCT"),
    bad_anchor(10**400),  # too large for a float
    plugin_only("P5", "SUCCESSIVE"),
    plugin_only("P6", "PRODUCT"),
    plugin_only("P7", "SUCCESSIVE"),
    bound_twice("PLUGIN"),
    bound_twice("SUCCESSIVE"),
    bound_twice("PRODUCT"),
    bound_twice("SUCCESSIVE", interactions=True),
    not_binary("SUCCESSIVE"),
    not_binary("PRODUCT"),
    not_binary("PLUGIN"),
])
def test_an_unanswerable_request_is_refused_by_name_before_any_estimate(
    monkeypatch, entry, spec, kind, named
):
    d = rare_cohort(kind)

    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate was started for a refused request")

    for module in ("parametric", "plugin", "oaxaca"):
        monkeypatch.setattr(f"gapdecomp.{module}.analysis_rows", no_estimate)
    with pytest.raises(InvalidSpec, match=named):
        entry(d, spec)


def test_the_readme_option_table_lists_every_option_validate_spec_reads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| estimator "):].split("\n\n")[0].splitlines()
    assert "accepted values" in table[0]
    listed = set()
    for row in table[2:]:
        estimators, option = row.split("|")[1:3]
        key = re.fullmatch(r"\s*`(\w+)`\s*", option).group(1)
        listed |= {(Estimator(name.strip()), key) for name in estimators.split(",")}
    assert listed == {(estimator, key) for estimator, keys in _OPTIONS.items() for key in keys}
