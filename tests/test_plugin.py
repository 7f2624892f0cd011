import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import batch_cohort, dataset_from, random_discrete_params, saturated_fit
from gapdecomp import (
    AnalysisSpec,
    Dataset,
    StratumTable,
    add_missing_indicators,
    bootstrap_runs,
    generate,
    plugin_mu,
    plugin_mu_timedep,
)
from gapdecomp.errors import EmptyStratum, InvalidSpec, NearZeroDenominator, TooManyLevels
from gapdecomp.parametric import Sample
from gapdecomp.plugin import Replicates, _sample


def crossed_binary_dataset(seed=0, n_per_cell=2):
    """All 8 (r, x, m) cells populated, outcomes drawn once per row."""
    rng = np.random.default_rng(seed)
    r, x, m = [], [], []
    for rv in (0.0, 1.0):
        for xv in (0.0, 1.0):
            for mv in (0.0, 1.0):
                reps = n_per_cell + rng.integers(0, 3)
                r += [rv] * reps
                x += [xv] * reps
                m += [mv] * reps
    r, x, m = map(np.asarray, (r, x, m))
    y = 1.0 + 0.5 * r + 0.3 * x - 0.7 * m + rng.normal(size=r.shape[0])
    return dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )


def cell_mean(d, r, x=None, m=None):
    mask = d.column("r") == r
    if x is not None:
        mask &= d.column("x") == x
    if m is not None:
        mask &= d.column("m") == m
    return float(d.column("y")[mask].mean())


def cell_prob(d, col, value, r, given=None):
    mask = d.column("r") == r
    if given:
        for k, v in given.items():
            mask &= d.column(k) == v
    sub = d.column(col)[mask]
    return float((sub == value).sum() / mask.sum())


def test_early_equalization_matches_hand_enumeration():
    d = crossed_binary_dataset(seed=1)
    e = plugin_mu(d, AnalysisSpec("P1", "PLUGIN"))
    mu = sum(cell_mean(d, 1, x=xv) * cell_prob(d, "x", xv, r=0) for xv in (0.0, 1.0))
    assert e.residual == pytest.approx(mu - cell_mean(d, 0), abs=1e-12)
    assert e.reduction == pytest.approx(cell_mean(d, 1) - mu, abs=1e-12)
    assert e.initial == pytest.approx(cell_mean(d, 1) - cell_mean(d, 0), abs=1e-12)


def test_marginal_target_matches_hand_enumeration():
    d = crossed_binary_dataset(seed=2)
    e = plugin_mu(d, AnalysisSpec("P4", "PLUGIN"))
    mu = sum(
        cell_mean(d, 1, x=xv, m=mv) * cell_prob(d, "m", mv, r=0) * cell_prob(d, "x", xv, r=1)
        for xv in (0.0, 1.0)
        for mv in (0.0, 1.0)
    )
    assert e.residual == pytest.approx(mu - cell_mean(d, 0), abs=1e-12)
    assert e.reduction == pytest.approx(cell_mean(d, 1) - mu, abs=1e-12)


def test_joint_equalization_matches_hand_enumeration():
    d = crossed_binary_dataset(seed=3)
    e = plugin_mu(d, AnalysisSpec("P3", "PLUGIN"))
    mu = sum(
        cell_mean(d, 1, x=xv, m=mv)
        * cell_prob(d, "m", mv, r=0, given={"x": xv})
        * cell_prob(d, "x", xv, r=0)
        for xv in (0.0, 1.0)
        for mv in (0.0, 1.0)
    )
    assert e.residual == pytest.approx(mu - cell_mean(d, 0), abs=1e-12)


def test_target_within_early_matches_hand_enumeration():
    d = crossed_binary_dataset(seed=4)
    e = plugin_mu(d, AnalysisSpec("P2", "PLUGIN", conditioning_value_x=1.0))
    mu = sum(
        cell_mean(d, 1, x=1.0, m=mv) * cell_prob(d, "m", mv, r=0, given={"x": 1.0})
        for mv in (0.0, 1.0)
    )
    assert e.residual == pytest.approx(mu - cell_mean(d, 0, x=1.0), abs=1e-12)
    assert e.reduction == pytest.approx(cell_mean(d, 1, x=1.0) - mu, abs=1e-12)
    assert any("anchored at early-measure stratum (1.0,)" in note for note in e.notes)


def test_anchor_defaults_to_level_nearest_group1_mean():
    d = crossed_binary_dataset(seed=5)
    x1 = d.column("x")[d.column("r") == 1.0]
    mean1 = float(x1.mean())
    nearest = min((0.0, 1.0), key=lambda level: (level - mean1) ** 2)
    default = plugin_mu(d, AnalysisSpec("P2", "PLUGIN"))
    matching = plugin_mu(d, AnalysisSpec("P2", "PLUGIN", conditioning_value_x=nearest))
    assert default.residual == matching.residual
    assert default.reduction == matching.reduction
    assert f"anchored at early-measure stratum ({nearest},)" in default.notes[0]


def test_already_equalized_distributions_reduce_nothing():
    # identical, fully crossed (x, m) pattern in both groups (so the target is
    # also independent of the early measure), arbitrary outcomes
    rng = np.random.default_rng(6)
    pattern_x = np.array([0.0, 0.0, 1.0, 1.0])
    pattern_m = np.array([0.0, 1.0, 0.0, 1.0])
    r = np.repeat([0.0, 1.0], 4)
    x = np.tile(pattern_x, 2)
    m = np.tile(pattern_m, 2)
    y = rng.normal(size=8)
    d = dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )
    for prop in ("P1", "P3", "P4"):
        e = plugin_mu(d, AnalysisSpec(prop, "PLUGIN"))
        assert e.reduction == pytest.approx(0.0, abs=1e-12), prop


def test_outcome_flat_in_early_and_target_within_groups():
    # group-1 outcomes constant: standardization of a constant is the constant
    r = np.repeat([0.0, 1.0], 8)
    x = np.tile([0.0, 0.0, 1.0, 1.0], 4)
    m = np.tile([0.0, 1.0], 8)
    y = np.where(r == 1.0, 3.0, 1.0)
    d = dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )
    e = plugin_mu(d, AnalysisSpec("P3", "PLUGIN"))
    assert e.reduction == pytest.approx(0.0, abs=1e-12)
    assert e.residual == pytest.approx(2.0, abs=1e-12)


def test_relabeling_invariance():
    d = crossed_binary_dataset(seed=7)
    relabeled = d.with_columns(
        {"x": np.where(d.column("x") == 0.0, 7.0, 2.0),
         "m": np.where(d.column("m") == 0.0, -3.0, 11.0)}
    )
    for prop in ("P1", "P3", "P4"):
        a = plugin_mu(d, AnalysisSpec(prop, "PLUGIN"))
        b = plugin_mu(relabeled, AnalysisSpec(prop, "PLUGIN"))
        assert a.residual == b.residual and a.reduction == b.reduction, prop


def test_empty_stratum_names_the_cell():
    # x=2 occurs only in group 0: group-1 mean at that level does not exist
    d = dataset_from(
        {
            "y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "r": [0, 0, 0, 1, 1, 1],
            "x": [0.0, 1.0, 2.0, 0.0, 1.0, 1.0],
        },
        {"outcome": "y", "group": "r", "early": ["x"]},
    )
    with pytest.raises(EmptyStratum) as err:
        plugin_mu(d, AnalysisSpec("P1", "PLUGIN"))
    msg = str(err.value)
    assert "group=1" in msg and "2.0" in msg


def crossed_with(extra, hide_group1_early=False):
    """Every (r, x, m) cell once at l = c = 0, plus `extra` (r, x, m, l, c) rows."""
    rows = [(r, x, m, 0.0, 0.0) for r in (0.0, 1.0) for x in (0.0, 1.0) for m in (0.0, 1.0)]
    r, x, m, l, c = (np.array(col) for col in zip(*(rows + extra)))
    if hide_group1_early:
        x = np.where(r == 1.0, np.nan, x)
    return dataset_from(
        {"y": np.arange(r.size) % 5 * 0.5, "r": r, "x": x, "m": m, "l": l, "c": c},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m", "confounder": "l",
         "covariate": ["c"]},
    )


# One sample per place the formula first meets an empty cell, in the order
# it needs them within a covariate level. The group-mean cells it reads last
# are covered by the earlier sites: no sample reaches them empty.
EMPTY_SITES = {
    "covariate weight group": (crossed_with([], hide_group1_early=True), "P1", {}, "group=1"),
    "P3 conditioning cell": (crossed_with([(1.0, 0.0, 0.0, 0.0, 1.0)]), "P3", {},
                             "group=0, covariate ('c',)=(1.0,)"),
    "P2 conditioning cell": (crossed_with([(1.0, 2.0, 0.0, 0.0, 0.0)]), "P2", {"x": 2.0},
                             "group=0, early ('x',)=(2.0,), covariate ('c',)=(0.0,)"),
    "P4 conditioning cell": (crossed_with([(0.0, 0.0, 0.0, 0.0, 1.0)]), "P4",
                             {"weight": "group0"}, "group=1, covariate ('c',)=(1.0,)"),
    "P4 target cell": (crossed_with([(1.0, 0.0, 0.0, 0.0, 1.0)]), "P4", {},
                       "group=0, covariate ('c',)=(1.0,)"),
    "group-1 early row": (crossed_with([(0.0, 2.0, 0.0, 0.0, 0.0)]), "P3", {},
                          "group=1, early ('x',)=(2.0,), covariate ('c',)=(0.0,)"),
    "group-1 outcome cell": (crossed_with([(1.0, 0.0, 0.0, 1.0, 0.0)]), "P6", {},
                             "group=1, early ('x',)=(0.0,), target ('m',)=(1.0,), "
                             "confounder ('l',)=(1.0,), covariate ('c',)=(0.0,)"),
}


@pytest.mark.parametrize("d, prop, how, cell", EMPTY_SITES.values(), ids=EMPTY_SITES)
def test_empty_stratum_names_the_first_needed_cell(d, prop, how, cell):
    spec = AnalysisSpec(prop, "PLUGIN", conditioning_value_x=how.get("x"),
                        options={"aggregation_weight": how.get("weight", "group1")})
    with pytest.raises(EmptyStratum) as err:
        plugin_mu(d, spec)
    assert str(err.value) == f"no observations in required stratum: {cell}"


def test_an_empty_analysis_sample_is_refused_by_name():
    # every early cell is blank, so no row enters the analysis sample
    d = crossed_with([])
    d = d.with_columns({"x": np.full(d.n_rows, np.nan)})
    for prop in ("P1", "P2", "P3", "P4"):
        with pytest.raises(EmptyStratum, match="stratum: group=1$"):
            plugin_mu(d, AnalysisSpec(prop, "PLUGIN"))


def test_too_many_levels():
    rng = np.random.default_rng(9)
    n = 120
    r = np.tile([0.0, 1.0], n // 2)
    x = rng.normal(size=n)  # effectively n distinct levels
    y = rng.normal(size=n)
    d = dataset_from(
        {"y": y, "r": r, "x": x}, {"outcome": "y", "group": "r", "early": ["x"]}
    )
    with pytest.raises(TooManyLevels):
        plugin_mu(d, AnalysisSpec("P1", "PLUGIN"))
    # configurable ceiling, checked also after a run with a higher one tabulated the columns
    small = dataset_from(
        {"y": y, "r": r, "x": np.round(x)}, {"outcome": "y", "group": "r", "early": ["x"]}
    )
    first = plugin_mu(small, AnalysisSpec("P1", "PLUGIN"))
    with pytest.raises(TooManyLevels, match="column 'x' has [0-9]+ levels, more than the allowed 2"):
        plugin_mu(small, AnalysisSpec("P1", "PLUGIN", options={"max_levels": 2}))
    again = plugin_mu(small, AnalysisSpec("P1", "PLUGIN", options={"max_levels": 20}))
    assert (again.initial, again.residual, again.reduction) == (
        first.initial, first.residual, first.reduction)


def test_too_many_levels_names_the_first_column_in_dimension_order():
    rng = np.random.default_rng(28)
    n = 200
    columns = {
        "y": rng.normal(size=n), "r": np.tile([0.0, 1.0], n // 2),
        "c": np.arange(n) % 30.0, "x": np.arange(n) % 3.0, "x2": np.arange(n) % 25.0,
        "m": np.arange(n) % 40.0,
    }
    roles = {"covariate": ["c"], "outcome": "y", "group": "r", "target": "m",
             "early": ["x", "x2"]}
    with pytest.raises(TooManyLevels, match="column 'x2' has 25 levels"):
        plugin_mu(dataset_from(columns, roles), AnalysisSpec("P4", "PLUGIN"))
    roles["early"] = ["x"]
    with pytest.raises(TooManyLevels, match="column 'm' has 40 levels"):
        plugin_mu(dataset_from(columns, roles), AnalysisSpec("P4", "PLUGIN"))


def test_boolean_rows_give_the_same_table_as_their_indices():
    d = covariate_dataset(seed=29)
    keep = np.random.default_rng(30).random(d.n_rows) < 0.7
    columns = {"early": ("early",), "target": ("target",), "confounder": (),
               "covariate": ("covariate",)}
    by_mask = StratumTable(d, keep, columns)
    by_index = StratumTable(d, np.flatnonzero(keep), columns)
    assert by_mask.levels == by_index.levels and by_mask.columns == by_index.columns
    assert np.array_equal(by_mask.counts, by_index.counts)
    assert np.array_equal(by_mask.sums, by_index.sums)
    assert by_mask.counts.sum() == int(keep.sum())


def test_a_table_over_repeated_rows_counts_each_as_a_take_does():
    d = covariate_dataset(seed=31)
    idx = np.random.default_rng(32).integers(0, d.n_rows, d.n_rows)
    columns = {"early": ("early",), "target": ("target",), "confounder": (),
               "covariate": ("covariate",)}
    drawn = StratumTable(d, idx, columns)
    taken = StratumTable(d.take(idx), np.arange(idx.size), columns)
    assert np.unique(idx).size < idx.size and drawn.counts.sum() == idx.size
    assert drawn.levels == taken.levels
    assert np.array_equal(drawn.counts, taken.counts)
    assert np.array_equal(drawn.sums, taken.sums)


def test_saturated_regression_mean_model_matches_cell_means():
    d = generate(random_discrete_params(np.random.default_rng(10)), 900, seed=11)
    fitted = d.with_columns({"outcome": saturated_fit(d)})
    for prop in ("P1", "P2", "P3", "P4"):
        cells = plugin_mu(d, AnalysisSpec(prop, "PLUGIN"))
        saturated = plugin_mu(fitted, AnalysisSpec(prop, "PLUGIN"))
        assert saturated.residual == pytest.approx(cells.residual, abs=1e-8), prop
        assert saturated.reduction == pytest.approx(cells.reduction, abs=1e-8), prop


def test_unknown_mean_model_rejected():
    d = crossed_binary_dataset(seed=12)
    with pytest.raises(InvalidSpec, match="'mean_model'"):
        plugin_mu(d, AnalysisSpec("P1", "PLUGIN", options={"mean_model": "ols"}))


# -- covariate strata ---------------------------------------------------------


def covariate_dataset(seed=13):
    params = dataclasses.replace(
        random_discrete_params(np.random.default_rng(seed)),
        covariate_share=0.4,
        x_covariate_effect=0.1,
        m_covariate_effect=0.1,
        y_covariate_effect=0.4,
    )
    return generate(params, 1200, seed=seed + 1)


def test_aggregation_weight_conventions():
    d = covariate_dataset()
    by_weight = {}
    for weight in ("group1", "group0", "pooled"):
        e = plugin_mu(d, AnalysisSpec("P4", "PLUGIN", options={"aggregation_weight": weight}))
        by_weight[weight] = e
        assert any(f"aggregated with {weight} weights" in note for note in e.notes)
        assert e.initial == pytest.approx(e.residual + e.reduction, abs=1e-12)
    assert by_weight["group1"].residual != by_weight["group0"].residual
    with pytest.raises(InvalidSpec):
        plugin_mu(d, AnalysisSpec("P4", "PLUGIN", options={"aggregation_weight": "equal"}))


def test_covariate_weights_are_group1_shares_by_hand():
    d = covariate_dataset(seed=14)
    e = plugin_mu(d, AnalysisSpec("P1", "PLUGIN"))
    c = d.column("covariate")
    r = d.column("group")
    by_stratum = []
    weights = []
    for cv in (0.0, 1.0):
        sub = d.take(np.flatnonzero(c == cv))
        sub = sub.with_roles({"outcome": "outcome", "group": "group", "early": ["early"],
                              "target": "target"})
        stratum = plugin_mu(sub, AnalysisSpec("P1", "PLUGIN"))
        by_stratum.append(stratum.residual)
        weights.append(float(((c == cv) & (r == 1.0)).sum()))
    weights = np.asarray(weights) / sum(weights)
    assert e.residual == pytest.approx(float(np.dot(weights, by_stratum)), abs=1e-12)


# -- time-dependent confounder ------------------------------------------------


def crossed_confounder_dataset(seed=20):
    """All 16 (r, x, m, l) cells populated, ~200 rows."""
    rng = np.random.default_rng(seed)
    rows = {"y": [], "r": [], "x": [], "m": [], "l": []}
    for rv in (0.0, 1.0):
        for xv in (0.0, 1.0):
            for mv in (0.0, 1.0):
                for lv in (0.0, 1.0):
                    reps = 10 + int(rng.integers(0, 6))
                    rows["r"] += [rv] * reps
                    rows["x"] += [xv] * reps
                    rows["m"] += [mv] * reps
                    rows["l"] += [lv] * reps
                    rows["y"] += list(
                        1.0 + 0.4 * rv + 0.3 * xv - 0.5 * mv + 0.6 * lv
                        + rng.normal(0, 1, reps)
                    )
    return dataset_from(
        rows,
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m", "confounder": "l"},
    )


def test_confounder_aware_marginal_target_matches_enumeration():
    d = crossed_confounder_dataset()
    e = plugin_mu_timedep(d, AnalysisSpec("P7", "PLUGIN"))

    def mean_y(rv, xv, mv, lv):
        mask = (
            (d.column("r") == rv) & (d.column("x") == xv)
            & (d.column("m") == mv) & (d.column("l") == lv)
        )
        return float(d.column("y")[mask].mean())

    mu = sum(
        mean_y(1.0, xv, mv, lv)
        * cell_prob(d, "l", lv, r=1, given={"x": xv})
        * cell_prob(d, "m", mv, r=0)
        * cell_prob(d, "x", xv, r=1)
        for xv in (0.0, 1.0)
        for mv in (0.0, 1.0)
        for lv in (0.0, 1.0)
    )
    assert e.residual == pytest.approx(mu - cell_mean(d, 0), abs=1e-12)
    assert e.reduction == pytest.approx(cell_mean(d, 1) - mu, abs=1e-12)


def test_confounder_aware_within_early_matches_enumeration():
    d = crossed_confounder_dataset(seed=21)
    e = plugin_mu_timedep(d, AnalysisSpec("P5", "PLUGIN", conditioning_value_x=0.0))

    def mean_y(rv, xv, mv, lv):
        mask = (
            (d.column("r") == rv) & (d.column("x") == xv)
            & (d.column("m") == mv) & (d.column("l") == lv)
        )
        return float(d.column("y")[mask].mean())

    mu = sum(
        mean_y(1.0, 0.0, mv, lv)
        * cell_prob(d, "l", lv, r=1, given={"x": 0.0})
        * cell_prob(d, "m", mv, r=0, given={"x": 0.0})
        for mv in (0.0, 1.0)
        for lv in (0.0, 1.0)
    )
    assert e.residual == pytest.approx(mu - cell_mean(d, 0, x=0.0), abs=1e-12)


def test_constant_confounder_collapses_bitwise():
    d = crossed_binary_dataset(seed=22)
    with_l = d.with_columns({"l": np.full(d.n_rows, 4.0)}, roles={"confounder": "l"})
    for timedep, plain in (("P5", "P2"), ("P6", "P3"), ("P7", "P4")):
        a = plugin_mu_timedep(with_l, AnalysisSpec(timedep, "PLUGIN"))
        b = plugin_mu(d, AnalysisSpec(plain, "PLUGIN"))
        assert a.initial == b.initial, timedep
        assert a.residual == b.residual, timedep
        assert a.reduction == b.reduction, timedep


def test_nothing_to_equalize_with_confounder():
    # within every early-measure level the target's distribution already
    # matches across groups, and within group 1 the confounder is crossed
    # independently of the target
    rows = {"y": [], "r": [], "x": [], "m": [], "l": []}
    rng = np.random.default_rng(23)
    for rv in (0.0, 1.0):
        for xv in (0.0, 1.0):
            for mv in (0.0, 1.0):
                for lv in (0.0, 1.0):
                    rows["r"] += [rv] * 5
                    rows["x"] += [xv] * 5
                    rows["m"] += [mv] * 5
                    rows["l"] += [lv] * 5
                    rows["y"] += list(rng.normal(0, 1, 5))
    d = dataset_from(
        rows,
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m", "confounder": "l"},
    )
    e = plugin_mu_timedep(d, AnalysisSpec("P5", "PLUGIN", conditioning_value_x=1.0))
    assert e.reduction == pytest.approx(0.0, abs=1e-12)


def test_timedep_requires_confounder_and_plugin():
    d = crossed_binary_dataset(seed=24)
    with pytest.raises(InvalidSpec):
        plugin_mu_timedep(d, AnalysisSpec("P5", "PLUGIN"))  # no confounder bound
    with_l = d.with_columns({"l": np.zeros(d.n_rows)}, roles={"confounder": "l"})
    with pytest.raises(InvalidSpec):
        plugin_mu_timedep(with_l, AnalysisSpec("P2", "PLUGIN"))  # not a timedep prop
    with pytest.raises(InvalidSpec):
        AnalysisSpec("P5", "SUCCESSIVE").resolve(with_l)


def test_plugin_requires_discrete_level_counts_not_roles():
    # binned continuous data flows through the same estimator
    params = random_discrete_params(np.random.default_rng(25))
    d = generate(params, 600, seed=26)
    e = plugin_mu(d, AnalysisSpec("P1", "PLUGIN"))
    assert np.isfinite(e.residual)


def test_standardized_risk_ratio_scale_for_rare_binary():
    rng = np.random.default_rng(27)
    n = 4000
    r = (rng.random(n) < 0.5).astype(float)
    x = (rng.random(n) < 0.4 + 0.2 * r).astype(float)
    m = (rng.random(n) < 0.3 + 0.2 * r + 0.2 * x).astype(float)
    y = (rng.random(n) < 0.02 + 0.02 * r + 0.015 * x + 0.02 * m).astype(float)
    d = dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )
    e = plugin_mu(d, AnalysisSpec("P4", "PLUGIN", outcome_family="RARE_BINARY"))
    assert e.scale.value == "RATIO"
    assert e.initial == pytest.approx(e.residual * e.reduction, rel=1e-12)
    mu = sum(
        cell_mean(d, 1, x=xv, m=mv) * cell_prob(d, "m", mv, r=0) * cell_prob(d, "x", xv, r=1)
        for xv in (0.0, 1.0)
        for mv in (0.0, 1.0)
    )
    assert e.residual == pytest.approx(mu / cell_mean(d, 0), abs=1e-12)
    assert e.reduction == pytest.approx(cell_mean(d, 1) / mu, abs=1e-12)


@pytest.mark.parametrize("events_in, label", [(1.0, "group-0"), (0.0, "equalized")])
def test_a_zero_risk_ratio_denominator_is_refused_by_name(events_in, label):
    # outcome events in one group only: the group-0 mean, or else the
    # equalized mean (all group-1 means are 0), is 0
    rng = np.random.default_rng(31)
    r = np.tile([0.0, 1.0], 100)
    x = (rng.random(200) < 0.5).astype(float)
    y = ((r == events_in) & (rng.random(200) < 0.1)).astype(float)
    d = dataset_from({"y": y, "r": r, "x": x}, {"outcome": "y", "group": "r", "early": ["x"]})
    with pytest.raises(NearZeroDenominator, match=f"the {label} outcome mean is 0"):
        plugin_mu(d, AnalysisSpec("P1", "PLUGIN", outcome_family="RARE_BINARY"))


def test_a_replicate_anchors_at_the_nearest_level_it_observes():
    # x takes 0, 1 and 2; the anchor 2.0 is nearest level 2, which the first
    # and last replicates do not draw: they anchor at level 1, as a table of
    # their own rows does
    d = crossed_binary_dataset(seed=5, n_per_cell=3)
    x = np.array(d.column("x"))
    x[np.flatnonzero(x == 1.0)[::3]] = 2.0
    d = d.with_columns({"x": x})
    spec = AnalysisSpec("P2", "PLUGIN", conditioning_value_x=2.0)
    replicates = [np.flatnonzero(x != 2.0), np.arange(d.n_rows), np.flatnonzero(x != 2.0)[::-1]]
    run = Replicates(d, spec)
    for idx in replicates:
        run(Sample(d, idx))
    notes = []
    for idx, got in zip(replicates, run.finish()):
        want = plugin_mu(d.take(idx), spec)
        assert (got.initial, got.residual, got.reduction) == pytest.approx(
            (want.initial, want.residual, want.reduction), rel=1e-12)
        assert got.notes == want.notes
        notes.append(got.notes[0])
    assert notes == [f"anchored at early-measure stratum ({level},)" for level in (1.0, 2.0, 1.0)]


def test_a_joint_covariate_of_more_than_255_tuples_matches_enumeration():
    # two 20-level covariates: 400 joint tuples, past what one byte codes
    rng = np.random.default_rng(31)
    cells = np.array(list(itertools.product((0.0, 1.0), (0.0, 1.0), range(20), range(20))), float)
    g, x, c1, c2 = np.repeat(cells, rng.integers(1, 4, len(cells)), axis=0).T
    y = rng.normal(size=g.size) + 0.5 * g + 0.3 * x + 0.01 * c1 * c2
    d = dataset_from({"y": y, "g": g, "x": x, "c1": c1, "c2": c2},
                     {"outcome": "y", "group": "g", "early": ["x"], "covariate": ["c1", "c2"]})
    table = StratumTable(d, np.ones(g.size, bool),
                         {"early": ["x"], "target": [], "confounder": [], "covariate": ["c1", "c2"]})
    assert len(table.levels["covariate"]) == 400
    est = plugin_mu(d, AnalysisSpec("P1", "PLUGIN"))

    totals = np.zeros(3)
    for a, b in itertools.product(range(20), repeat=2):
        in_c = (c1 == a) & (c2 == b)
        weight = np.count_nonzero(in_c & (g == 1)) / np.count_nonzero(g == 1)
        g1, g0 = y[in_c & (g == 1)].mean(), y[in_c & (g == 0)].mean()
        mu = sum(y[in_c & (g == 1) & (x == v)].mean()
                 * np.count_nonzero(in_c & (g == 0) & (x == v)) / np.count_nonzero(in_c & (g == 0))
                 for v in (0.0, 1.0))
        totals += weight * np.array([g1 - g0, mu - g0, g1 - mu])
    assert np.abs(np.array([est.initial, est.residual, est.reduction]) - totals).max() <= 1e-12


def test_a_plugin_estimate_holds_a_few_bytes_per_analysis_row():
    # a table build holds its cell codes and one dimension's level indices,
    # then the codes and the outcome; the first build also sorts each column
    d = add_missing_indicators(batch_cohort(200_000), ["covariate"])
    d = d.with_roles({**d.roles, "confounder": ["confounder"]})
    tracemalloc.start()
    try:
        for prop in ("P1", "P2", "P3", "P4", "P5", "P6", "P7"):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            plugin_mu(d, AnalysisSpec(prop, "PLUGIN"))
            assert tracemalloc.get_traced_memory()[1] - before <= 6e6, prop
    finally:
        tracemalloc.stop()



def counted_tables(monkeypatch):
    """The (early, target, confounder, covariate) columns of every table built from now on."""
    builds, real = [], StratumTable.__init__

    def counted(self, d, rows, columns, *args):
        builds.append(tuple(tuple(columns[dim]) for dim in ("early", "target", "confounder", "covariate")))
        real(self, d, rows, columns, *args)

    monkeypatch.setattr(StratumTable, "__init__", counted)
    return builds


def estimate_fields(e):
    return e.initial, e.residual, e.reduction, e.proportion_reduced, e.notes


def test_plugin_runs_over_the_same_columns_share_one_table(monkeypatch):
    builds = counted_tables(monkeypatch)
    d = batch_cohort(4000)
    props = ("P2", "P3", "P4", "P5", "P6", "P7")
    shared = [plugin_mu(d, AnalysisSpec(prop, "PLUGIN")) for prop in props[:3]]
    assert builds == [(("early",), ("target",), (), ("covariate",))]
    shared += [plugin_mu(d, AnalysisSpec(prop, "PLUGIN")) for prop in props[3:]]
    assert len(builds) == 2 and builds[1][2] == ("confounder",)
    fresh = [plugin_mu(Dataset(dict(d.columns), dict(d.roles)), AnalysisSpec(prop, "PLUGIN"))
             for prop in props]
    assert len(builds) == 2 + len(props)
    assert [estimate_fields(e) for e in shared] == [estimate_fields(e) for e in fresh]

    # handed out by the memo: read-only, and the cell code in its smallest unsigned type
    table = _sample(d, AnalysisSpec("P6", "PLUGIN"))
    assert len(builds) == 2 + len(props)
    for arr in (table.code, table.counts, table.sums):
        assert not arr.flags.writeable
    assert table.code.dtype == np.min_scalar_type(table.counts.size) == np.uint8


def test_a_plugin_bootstrap_builds_no_table_beyond_its_estimates(monkeypatch):
    builds = counted_tables(monkeypatch)
    d = batch_cohort(3000)
    specs = [AnalysisSpec("P3", "PLUGIN"), AnalysisSpec("P7", "PLUGIN")]
    shared = [summary.as_dict() for summary in bootstrap_runs(d, specs, b=30, seed=4)]
    assert len(builds) == len(specs)
    alone = [summary.as_dict() for summary in bootstrap_runs(
        Dataset(dict(d.columns), dict(d.roles)), specs, b=30, seed=4)]
    assert shared == alone


@pytest.mark.parametrize("prop", ["P1", "P2", "P3", "P4", "P5", "P6", "P7"])
def test_the_replicate_of_every_row_is_the_estimate(prop):
    # blank outcome and covariate cells put some rows in the dump cell
    d, spec = batch_cohort(3000), AnalysisSpec(prop, "PLUGIN")
    run = Replicates(d, spec)
    run(Sample(d, np.arange(d.n_rows)))
    assert run.table.counts.sum() < d.n_rows
    (got,) = run.finish()
    want = plugin_mu(d, spec)
    assert (got.initial, got.residual, got.reduction, got.notes) == (
        want.initial, want.residual, want.reduction, want.notes)


def test_estimates_and_replicates_count_cells_through_one_call(monkeypatch):
    calls, cells = [], StratumTable.cells
    monkeypatch.setattr(StratumTable, "cells", lambda self, idx: calls.append(idx) or cells(self, idx))
    specs = [AnalysisSpec("P3", "PLUGIN"), AnalysisSpec("P7", "PLUGIN")]
    list(bootstrap_runs(batch_cohort(3000), specs, b=5, seed=4))
    assert len(calls) == 2 + 2 * 5


def test_bindings_share_the_table_and_new_columns_do_not(monkeypatch):
    builds = counted_tables(monkeypatch)
    d = batch_cohort(2000)
    spec = AnalysisSpec("P6", "PLUGIN")
    first = estimate_fields(plugin_mu(d, spec))
    restated = AnalysisSpec("P6", "PLUGIN", bindings={"target": "target"})
    assert estimate_fields(plugin_mu(d, restated)) == first
    assert estimate_fields(plugin_mu(d.with_roles(dict(d.roles)), spec)) == first
    assert len(builds) == 1
    swapped = AnalysisSpec("P6", "PLUGIN", bindings={"target": "confounder", "confounder": "target"})
    plugin_mu(d, swapped)
    plugin_mu(d.with_roles({**d.roles, "target": ("confounder",), "confounder": ("target",)}), spec)
    assert builds[1:] == [(("early",), ("confounder",), ("target",), ("covariate",))]
    for child in (d.take(np.arange(d.n_rows)), d.with_columns({"extra": np.zeros(d.n_rows)})):
        assert estimate_fields(plugin_mu(child, spec)) == first
    assert len(builds) == 4


def test_the_anchor_read_off_the_table_picks_the_level_nearest_the_row_mean():
    # two early columns; the group-1 mean of each falls between its levels
    rng = np.random.default_rng(12)
    n = 600
    r = (rng.random(n) < 0.5).astype(float)
    x1 = (rng.random(n) < 0.35 + 0.1 * r).astype(float) * 2.0
    x2 = rng.integers(0, 3, n) / 3.0
    m = (rng.random(n) < 0.5).astype(float)
    y = rng.normal(size=n) + r + x1 - x2 + m
    d = dataset_from({"y": y, "r": r, "x1": x1, "x2": x2, "m": m},
                     {"outcome": "y", "group": "r", "early": ["x1", "x2"], "target": "m"})

    def row_mean(rows):
        return np.array([x1[rows][r[rows] == 1].mean(), x2[rows][r[rows] == 1].mean()])

    def nearest_to_row_mean(rows):
        levels = sorted(set(zip(x1[rows].tolist(), x2[rows].tolist())))
        return min(levels, key=lambda level: ((np.array(level) - row_mean(rows)) ** 2).sum())

    mean = row_mean(np.arange(n))
    assert not np.isin(mean[0], x1) and not np.isin(mean[1], x2)
    spec = AnalysisSpec("P2", "PLUGIN")
    assert plugin_mu(d, spec).notes[0] == (
        f"anchored at early-measure stratum {nearest_to_row_mean(np.arange(n))}")
    replicates = [rng.integers(0, n, n) for _ in range(8)]
    run = Replicates(d, spec)
    for idx in replicates:
        run(Sample(d, idx))
    assert [e.notes[0] for e in run.finish()] == [
        f"anchored at early-measure stratum {nearest_to_row_mean(idx)}" for idx in replicates]
