import warnings

import numpy as np
import pytest

from conftest import (BATCH_PARAMS, TWO_BY_TWO_DEVIANCE, dataset_from, random_continuous_params,
                      two_by_two_crossed)
from gapdecomp import (
    AnalysisSpec,
    StructuralParams,
    decompose_product_coefficients,
    decompose_successive_linear,
    decompose_successive_multiX,
    estimate,
    generate,
)
from gapdecomp.analysis import QUANTITIES, validate_spec
from gapdecomp.errors import InvalidSpec, NearZeroDenominator, PrevalenceWarning
from gapdecomp.parametric import Sample


def exact_gap_dataset():
    """Noise-free construction pinning the fitted group coefficients.

    y = 1 - 0.11*x - 0.30*r exactly, with a group gap of 1 in x, so the
    adjusted group coefficient is -0.30 and the unadjusted one is
    -0.30 + (-0.11)*1 = -0.41 by the in-sample omitted-variable identity.
    """
    r = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    x = np.array([0.0, 1.0, 2.0, 1.0, 2.0, 3.0])
    y = 1.0 - 0.11 * x - 0.30 * r
    return dataset_from({"y": y, "r": r, "x": x}, {"outcome": "y", "group": "r", "early": ["x"]})


def test_early_equalization_published_pair():
    d = exact_gap_dataset()
    e = decompose_successive_linear(d, AnalysisSpec("P1", "SUCCESSIVE"))
    assert e.initial == pytest.approx(-0.41, abs=1e-10)
    assert e.residual == pytest.approx(-0.30, abs=1e-10)
    assert e.reduction == pytest.approx(-0.11, abs=1e-10)
    assert e.proportion_reduced == pytest.approx(0.11 / 0.41, abs=1e-10)
    assert round(e.proportion_reduced, 3) == 0.268


def test_additivity_by_construction():
    d = generate(random_continuous_params(np.random.default_rng(0)), 400, seed=1)
    for prop in ("P1", "P2", "P3", "P4"):
        for family in ("SUCCESSIVE", "PRODUCT"):
            e = estimate(d, AnalysisSpec(prop, family))
            assert e.initial == pytest.approx(e.residual + e.reduction, abs=1e-12)


@pytest.mark.parametrize("n", [300, 20_017])  # one factor block, and three
def test_p1_residual_is_adjusted_group_coefficient(n):
    from gapdecomp import DesignMatrix, fit_ols

    d = generate(random_continuous_params(np.random.default_rng(3)), n, seed=4)
    e = decompose_successive_linear(d, AnalysisSpec("P1", "SUCCESSIVE"))
    dm = DesignMatrix.from_dataset(d, ["group", "early"], np.arange(d.n_rows))
    direct = fit_ols(dm, d.column("outcome"))["group"]
    assert e.residual == direct  # definitional, bit-exact


def orthogonalize(v, others):
    basis = np.column_stack([np.ones(len(v))] + list(others))
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    return v - basis @ coef


def test_marginal_target_collapses_when_slopes_match():
    # target orthogonal to (1, r, x) in-sample leaves the early-measure slope
    # unchanged by its inclusion, so the gap-reweighting term carries nothing
    rng = np.random.default_rng(5)
    r = (rng.random(300) < 0.5).astype(float)
    x = 0.6 * r + rng.normal(size=300)
    m = orthogonalize(rng.normal(size=300), [r, x])
    y = 0.4 + 0.5 * r + 0.7 * x + 0.9 * m + rng.normal(size=300)
    d = dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )
    p2 = decompose_successive_linear(d, AnalysisSpec("P2", "SUCCESSIVE"))
    p4 = decompose_successive_linear(d, AnalysisSpec("P4", "SUCCESSIVE"))
    assert p4.reduction == pytest.approx(p2.reduction, abs=1e-10)


def test_marginal_target_collapses_when_outcome_ignores_early():
    # noise-free outcome built without the early measure: the full model's
    # early slope is exactly zero, so the marginal-target residual equals the
    # joint-equalization residual
    rng = np.random.default_rng(6)
    r = (rng.random(200) < 0.4).astype(float)
    x = 0.5 * r + rng.normal(size=200)
    m = 0.3 * r + 0.8 * x + rng.normal(size=200)
    y = 0.5 + 0.3 * r + 0.7 * m
    d = dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )
    p3 = decompose_successive_linear(d, AnalysisSpec("P3", "SUCCESSIVE"))
    p4 = decompose_successive_linear(d, AnalysisSpec("P4", "SUCCESSIVE"))
    assert p4.residual == pytest.approx(p3.residual, abs=1e-10)
    assert p4.residual == pytest.approx(0.3, abs=1e-10)


def test_near_zero_denominator():
    # early measure orthogonal to (1, r, y): its slope in the outcome ladder
    # is exactly zero and the marginal-target ratio is undefined
    rng = np.random.default_rng(7)
    r = (rng.random(150) < 0.5).astype(float)
    y = 1.0 + 0.4 * r + rng.normal(size=150)
    x = orthogonalize(rng.normal(size=150), [r, y])
    m = 0.2 * r + rng.normal(size=150)
    d = dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )
    with pytest.raises(NearZeroDenominator):
        decompose_successive_linear(d, AnalysisSpec("P4", "SUCCESSIVE"))
    # the other propositions never divide by that slope
    decompose_successive_linear(d, AnalysisSpec("P3", "SUCCESSIVE"))


def test_families_agree_in_sample():
    d = generate(random_continuous_params(np.random.default_rng(10)), 500, seed=11)
    for prop in ("P1", "P2", "P3", "P4"):
        a = decompose_successive_linear(d, AnalysisSpec(prop, "SUCCESSIVE"))
        b = decompose_product_coefficients(d, AnalysisSpec(prop, "PRODUCT"))
        for field in ("initial", "residual", "reduction"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-8, abs=1e-10)


def test_product_zero_pathway_cases():
    rng = np.random.default_rng(12)
    n = 400
    r = (rng.random(n) < 0.5).astype(float)
    # no group gap in the early measure, in-sample exactly
    x = orthogonalize(rng.normal(size=n), [r])
    m = 0.4 * r + 0.6 * x + rng.normal(size=n)
    y = 0.2 + 0.3 * r + 0.5 * x + 0.7 * m + rng.normal(size=n)
    d = dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )
    p1 = decompose_product_coefficients(d, AnalysisSpec("P1", "PRODUCT"))
    assert p1.reduction == pytest.approx(0.0, abs=1e-10)
    p4 = decompose_product_coefficients(d, AnalysisSpec("P4", "PRODUCT"))
    assert p4.residual == pytest.approx(p4.initial - p4.reduction, abs=1e-12)

    # additionally remove the target's own group gap: nothing left to equalize
    m2 = 0.5 * x + orthogonalize(rng.normal(size=n), [r, x])
    y2 = 0.2 + 0.3 * r + 0.5 * x + 0.7 * m2 + rng.normal(size=n)
    d2 = dataset_from(
        {"y2": y2, "r": r, "x": x, "m2": m2},
        {"outcome": "y2", "group": "r", "early": ["x"], "target": "m2"},
    )
    p4b = decompose_product_coefficients(d2, AnalysisSpec("P4", "PRODUCT"))
    assert p4b.reduction == pytest.approx(0.0, abs=1e-10)


def test_p4_affine_invariance_of_early_measure():
    d = generate(random_continuous_params(np.random.default_rng(13)), 600, seed=14)
    base = decompose_successive_linear(d, AnalysisSpec("P4", "SUCCESSIVE"))
    rescaled = d.with_columns({"early": 10.0 * d.column("early") - 5.0})
    moved = decompose_successive_linear(rescaled, AnalysisSpec("P4", "SUCCESSIVE"))
    assert moved.residual == pytest.approx(base.residual, rel=1e-8)
    assert moved.reduction == pytest.approx(base.reduction, rel=1e-8)


def test_p1_without_target_binding():
    rng = np.random.default_rng(15)
    r = (rng.random(100) < 0.5).astype(float)
    x = 0.5 * r + rng.normal(size=100)
    y = 0.3 * r + 0.4 * x + rng.normal(size=100)
    d = dataset_from({"y": y, "r": r, "x": x}, {"outcome": "y", "group": "r", "early": ["x"]})
    e = estimate(d, AnalysisSpec("P1", "SUCCESSIVE"))
    assert np.isfinite(e.initial)
    with pytest.raises(InvalidSpec):
        estimate(d, AnalysisSpec("P2", "SUCCESSIVE"))


def test_covariates_and_missing_indicators_enter_every_model():
    params = random_continuous_params(np.random.default_rng(16))
    params = StructuralParams(**{**params.__dict__, "covariate_share": 0.4,
                                 "x_covariate_effect": 0.3, "m_covariate_effect": 0.2,
                                 "y_covariate_effect": 0.5})
    d = generate(params, 500, seed=17)
    e = decompose_successive_linear(d, AnalysisSpec("P4", "SUCCESSIVE"))
    for model, coefs in e.coefficients.items():
        assert "covariate" in coefs, model


# -- several early measures ---------------------------------------------------


def multi_early_dataset(seed=20, n=500):
    rng = np.random.default_rng(seed)
    r = (rng.random(n) < 0.45).astype(float)
    x1 = 0.6 * r + rng.normal(size=n)
    m = 0.4 * r + 0.7 * x1 + rng.normal(size=n)
    # extra measures orthogonal in-sample to (1, r, x1, m): they explain
    # outcome variance but carry no group information beyond x1
    x2 = orthogonalize(rng.normal(size=n), [r, x1, m])
    x3 = orthogonalize(rng.normal(size=n), [r, x1, m, x2])
    y = 0.2 + 0.5 * r + 0.6 * x1 + 0.5 * x2 - 0.3 * x3 + 0.8 * m + rng.normal(size=n)
    wide = dataset_from(
        {"y": y, "r": r, "x1": x1, "x2": x2, "x3": x3, "m": m},
        {"outcome": "y", "group": "r", "early": ["x1", "x2", "x3"], "target": "m"},
    )
    narrow = dataset_from(
        {"y": y, "r": r, "x1": x1, "x2": x2, "x3": x3, "m": m},
        {"outcome": "y", "group": "r", "early": ["x1"], "target": "m",
         "covariate": ["x2", "x3"]},
    )
    return wide, narrow


def test_multi_early_collapses_to_single_when_extras_carry_no_gap():
    wide, _ = multi_early_dataset()
    cols = {k: wide.column(k) for k in ("y", "r", "x1", "m")}
    single = dataset_from(
        cols, {"outcome": "y", "group": "r", "early": ["x1"], "target": "m"}
    )
    for prop in ("P1", "P2", "P3", "P4"):
        multi = decompose_successive_multiX(wide, AnalysisSpec(prop, "SUCCESSIVE"))
        # the single-early run must see the same conditioning set, so the
        # inert measures ride along as plain covariates
        _, narrow = multi_early_dataset()
        one = decompose_successive_linear(narrow, AnalysisSpec(prop, "SUCCESSIVE"))
        assert multi.residual == pytest.approx(one.residual, rel=1e-8, abs=1e-10), prop
        assert multi.reduction == pytest.approx(one.reduction, rel=1e-8, abs=1e-10), prop


def test_multi_early_residual_when_outcome_ignores_all_early():
    rng = np.random.default_rng(22)
    n = 400
    r = (rng.random(n) < 0.5).astype(float)
    x1 = 0.5 * r + rng.normal(size=n)
    x2 = 0.3 * r + 0.4 * x1 + rng.normal(size=n)
    m = 0.4 * r + 0.5 * x1 + 0.2 * x2 + rng.normal(size=n)
    y = 0.1 + 0.45 * r + 0.8 * m  # noise-free, no early-measure terms
    d = dataset_from(
        {"y": y, "r": r, "x1": x1, "x2": x2, "m": m},
        {"outcome": "y", "group": "r", "early": ["x1", "x2"], "target": "m"},
    )
    e = decompose_successive_multiX(d, AnalysisSpec("P4", "SUCCESSIVE"))
    assert e.residual == pytest.approx(0.45, abs=1e-10)


def test_multi_early_additivity_and_agreement_with_joint():
    wide, _ = multi_early_dataset(seed=23)
    for prop in ("P1", "P2", "P3", "P4"):
        e = decompose_successive_multiX(wide, AnalysisSpec(prop, "SUCCESSIVE"))
        assert e.initial == pytest.approx(e.residual + e.reduction, abs=1e-10)
    # joint equalization does not depend on the gap substitution at all
    p3 = decompose_successive_multiX(wide, AnalysisSpec("P3", "SUCCESSIVE"))
    p1 = decompose_successive_multiX(wide, AnalysisSpec("P1", "SUCCESSIVE"))
    assert p3.initial == p1.initial


def test_multi_early_near_zero_denominator_names_column():
    rng = np.random.default_rng(24)
    n = 300
    r = (rng.random(n) < 0.5).astype(float)
    x1 = 0.5 * r + rng.normal(size=n)
    y_partial = 0.2 + 0.4 * r + 0.6 * x1
    # second measure orthogonal to everything that could give it a slope
    m = 0.3 * r + 0.5 * x1 + rng.normal(size=n)
    noise = rng.normal(size=n)
    y = y_partial + 0.7 * m + noise
    x2 = orthogonalize(rng.normal(size=n), [r, x1, m, y])
    d = dataset_from(
        {"y": y, "r": r, "x1": x1, "x2": x2, "m": m},
        {"outcome": "y", "group": "r", "early": ["x1", "x2"], "target": "m"},
    )
    with pytest.raises(NearZeroDenominator) as err:
        decompose_successive_multiX(d, AnalysisSpec("P4", "SUCCESSIVE"))
    assert "x2" in str(err.value)


# -- rare binary outcome ------------------------------------------------------


def crossed_rare_dataset(positives_per_cell=1, rows_per_cell=10):
    """Fully crossed (r, x, m) cells with identical outcome proportions, so
    every fitted slope is exactly zero by exchangeability."""
    rows = {"y": [], "r": [], "x": [], "m": []}
    for r in (0.0, 1.0):
        for x in (0.0, 1.0):
            for m in (0.0, 1.0):
                for i in range(rows_per_cell):
                    rows["y"].append(1.0 if i < positives_per_cell else 0.0)
                    rows["r"].append(r)
                    rows["x"].append(x)
                    rows["m"].append(m)
    return dataset_from(
        rows, {"outcome": "y", "group": "r", "early": ["x"], "target": "m"}
    )


def test_rare_binary_null_model_gives_unit_ratios():
    d = crossed_rare_dataset()
    cases = [("SUCCESSIVE", p) for p in ("P1", "P2", "P3")] + [
        ("PRODUCT", p) for p in ("P1", "P2", "P3", "P4")
    ]
    for family, prop in cases:
        e = estimate(d, AnalysisSpec(prop, family, outcome_family="RARE_BINARY"))
        assert e.scale.value == "RATIO"
        assert e.residual == pytest.approx(1.0, abs=1e-8)
        assert e.reduction == pytest.approx(1.0, abs=1e-8)
    # the marginal-target ladder ratio is 0/0 when every slope vanishes
    with pytest.raises(NearZeroDenominator):
        estimate(d, AnalysisSpec("P4", "SUCCESSIVE", outcome_family="RARE_BINARY"))


def test_rare_binary_multiplicative_identity():
    rng = np.random.default_rng(30)
    params = StructuralParams(
        group_share=0.45, x_group_effect=-0.4, m_group_effect=-0.3,
        m_early_effect=0.4, y_group_effect=0.3, y_early_effect=0.2,
        y_target_effect=0.3, binary_outcome=True, outcome_prevalence=0.03,
    )
    d = generate(params, 30_000, seed=31)
    for family in ("SUCCESSIVE", "PRODUCT"):
        for prop in ("P1", "P2", "P3", "P4"):
            e = estimate(d, AnalysisSpec(prop, family, outcome_family="RARE_BINARY"))
            assert e.initial == pytest.approx(e.residual * e.reduction, rel=1e-10)


def test_rare_binary_p2_reads_off_ladder_coefficients():
    params = StructuralParams(
        group_share=0.5, x_group_effect=-0.3, m_group_effect=-0.3,
        m_early_effect=0.3, y_group_effect=0.4, y_early_effect=0.2,
        y_target_effect=0.3, binary_outcome=True, outcome_prevalence=0.04,
    )
    d = generate(params, 20_000, seed=32)
    e = estimate(d, AnalysisSpec("P2", "SUCCESSIVE", outcome_family="RARE_BINARY"))
    ladder = {name: coefs for name, coefs in e.coefficients.items()}
    gamma = next(c for name, c in ladder.items() if "target" not in name and "early" in name)
    theta = next(c for name, c in ladder.items() if "target" in name)
    assert e.residual == pytest.approx(np.exp(theta["group"]), rel=1e-12)
    assert e.reduction == pytest.approx(np.exp(gamma["group"] - theta["group"]), rel=1e-12)


def test_prevalence_warning_fires_and_result_returned():
    d = crossed_rare_dataset(positives_per_cell=2)  # prevalence 0.2
    with pytest.warns(PrevalenceWarning):
        e = estimate(d, AnalysisSpec("P2", "SUCCESSIVE", outcome_family="RARE_BINARY"))
    assert np.isfinite(e.residual)
    assert any("prevalence" in note for note in e.notes)


def test_rare_binary_rejects_continuous_outcome():
    d = generate(random_continuous_params(np.random.default_rng(33)), 200, seed=34)
    with pytest.raises(InvalidSpec):
        estimate(d, AnalysisSpec("P2", "SUCCESSIVE", outcome_family="RARE_BINARY"))


# -- one shared factor per analysis sample ------------------------------------


def estimate_fields(e):
    return (e.initial, e.residual, e.reduction, e.proportion_reduced, e.coefficients)


def test_parametric_runs_on_one_dataset_share_one_factor_and_repeat_bitwise():
    d = generate(random_continuous_params(np.random.default_rng(40)), 400, seed=41)
    first = {
        (prop, family): estimate_fields(estimate(d, AnalysisSpec(prop, family)))
        for prop in ("P1", "P2", "P3", "P4") for family in ("SUCCESSIVE", "PRODUCT")
    }
    assert sorted(key[0] for key in d._memo) == ["rows", "sample"]  # one sample: its mask and memo
    assert len(Sample(d).memo) == 1
    for (prop, family), fields in first.items():
        assert estimate_fields(estimate(d, AnalysisSpec(prop, family))) == fields


def test_factor_memo_is_keyed_by_the_ordered_column_tuple():
    from gapdecomp.parametric import sample_factor

    d = generate(random_continuous_params(np.random.default_rng(39)), 200, seed=38)
    d = d.with_columns({"target": np.where(np.arange(200) % 7 == 0, np.nan, d.column("target"))})
    a = sample_factor(Sample(d), ["group", "early", "outcome"])
    assert sample_factor(Sample(d), ["group", "early", "outcome"]) is a
    swapped = sample_factor(Sample(d), ["early", "group", "outcome"])
    assert swapped.labels[1:] == ("early", "group", "outcome") and swapped is not a
    with_target = sample_factor(Sample(d), ["group", "early", "target"])
    assert with_target.n_rows == a.n_rows == 171  # the binding, not the columns, fixes the rows
    assert list(Sample(d).memo) == [("factor", ("group", "early", "outcome")),
                                    ("factor", ("early", "group", "outcome")),
                                    ("factor", ("group", "early", "target"))]
    # a binding without the target is another sample, with a memo of its own
    untargeted = d.with_roles({role: names for role, names in d.roles.items() if role != "target"})
    wide = sample_factor(Sample(untargeted), ["group", "early", "outcome"])
    assert wide is not a and wide.n_rows == 200
    assert sorted(key[0] for key in d._memo) == ["rows", "rows", "sample", "sample"]


def test_new_rows_or_columns_never_reuse_the_parent_factor():
    d = generate(random_continuous_params(np.random.default_rng(42)), 300, seed=43)
    spec = AnalysisSpec("P4", "SUCCESSIVE")
    parent = estimate_fields(estimate(d, spec))

    idx = np.random.default_rng(44).integers(0, d.n_rows, size=d.n_rows)
    child = d.take(idx)
    assert child._memo == {}
    fresh = dataset_from({k: v[idx] for k, v in d.columns.items()}, dict(d.roles))
    assert estimate_fields(estimate(child, spec)) == estimate_fields(estimate(fresh, spec))
    assert estimate_fields(estimate(child, spec)) != parent

    # replacing a column cannot serve the old column's factor
    shifted = d.with_columns({"outcome": d.column("outcome") + 0.5 * d.column("early")})
    assert shifted._memo == {}
    moved = estimate(shifted, spec)
    assert moved.residual != parent[1]
    again = dataset_from(dict(shifted.columns), dict(shifted.roles))
    assert estimate_fields(moved) == estimate_fields(estimate(again, spec))


@pytest.mark.parametrize("family", ["SUCCESSIVE", "PRODUCT", "PLUGIN"])
def test_every_rebinding_shares_the_datasets_memo(family):
    d = generate(BATCH_PARAMS, 600, seed=48)
    d = d.with_columns({"early2": d.column("early")})
    restate = AnalysisSpec("P4", family, bindings={"early": ["early"]})
    rebind = AnalysisSpec("P4", family, bindings={"early": ["early2"], "covariate": []})
    first = estimate_fields(estimate(d, restate))
    entries = len(d._memo)
    for spec in (restate, rebind):
        bound = spec.resolve(d)
        assert bound is not d and bound._memo is d._memo
        assert bound.column("early") is d.column("early")  # read-only, uncopied
    assert d.with_roles(dict(d.roles))._memo is d._memo
    # the same columns are served from the memo, bitwise as a fresh dataset computes them
    assert estimate_fields(estimate(d, restate)) == first and len(d._memo) == entries
    fresh = dataset_from(dict(d.columns), {**d.roles, "early": ["early2"], "covariate": []})
    assert estimate_fields(estimate(d, rebind)) == estimate_fields(
        estimate(fresh, AnalysisSpec("P4", family)))
    assert len(d._memo) > entries  # the rebinding's own columns joined the parent's memo


def test_dependent_target_is_named_by_rank_deficiency():
    from gapdecomp.errors import RankDeficient

    d = generate(random_continuous_params(np.random.default_rng(45)), 200, seed=46)
    collinear = d.with_columns({"target": 2.0 * d.column("early") - d.column("group")})
    with pytest.raises(RankDeficient) as err:
        estimate(collinear, AnalysisSpec("P3", "SUCCESSIVE"))
    assert err.value.columns == ("target",)


def test_rare_binary_with_interactions_is_refused():
    params = StructuralParams(
        group_share=0.5, x_group_effect=-0.3, m_group_effect=-0.3,
        m_early_effect=0.3, y_group_effect=0.4, y_early_effect=0.2,
        y_target_effect=0.3, binary_outcome=True, outcome_prevalence=0.05,
    )
    d = generate(params, 5000, seed=47)
    spec = AnalysisSpec("P4", "SUCCESSIVE", outcome_family="RARE_BINARY",
                        options={"interactions": True})
    with pytest.raises(InvalidSpec, match="ratio-scale"):
        estimate(d, spec)
    plain = estimate(d, AnalysisSpec("P4", "SUCCESSIVE", outcome_family="RARE_BINARY"))
    assert plain.scale.value == "RATIO"


@pytest.mark.parametrize("family,key", [
    ("SUCCESSIVE", "interaction"), ("PRODUCT", "mean_model"), ("PLUGIN", "interactions"),
])
def test_unknown_option_keys_are_refused_by_name(family, key):
    d = generate(random_continuous_params(np.random.default_rng(48)), 200, seed=49)
    with pytest.raises(InvalidSpec, match=repr(key)):
        estimate(d, AnalysisSpec("P1", family, options={key: True}))


@pytest.mark.parametrize("family,options", [
    ("SUCCESSIVE", {}), ("SUCCESSIVE", {"interactions": True}), ("PLUGIN", {}),
])
def test_one_anchor_for_several_early_columns_is_refused(family, options):
    d = generate(random_continuous_params(np.random.default_rng(50)), 300, seed=51)
    two_early = d.with_columns({"early2": d.column("early") ** 2},
                               roles={"early": ["early", "early2"]})
    spec = AnalysisSpec("P2", family, conditioning_value_x=0.5, options=options)
    with pytest.raises(InvalidSpec, match="conditioning_value_x"):
        validate_spec(spec, two_early)
    with pytest.raises(InvalidSpec, match="conditioning_value_x"):
        estimate(two_early, spec)


# -- logistic outcome fits: one per sample and model, with their diagnostics --


def test_successive_and_product_share_their_common_logistic_fit(monkeypatch):
    import gapdecomp.parametric as parametric
    from gapdecomp import Dataset

    calls = []
    real = parametric.fit_logistic

    def counted(design, y, factor=None):
        calls.append(design.labels)
        return real(design, y, factor)

    monkeypatch.setattr(parametric, "fit_logistic", counted)
    params = StructuralParams(
        group_share=0.45, x_group_effect=-0.4, m_group_effect=-0.3,
        m_early_effect=0.4, y_group_effect=0.3, y_early_effect=0.2,
        y_target_effect=0.3, binary_outcome=True, outcome_prevalence=0.05,
    )
    d = generate(params, 6000, seed=50)
    specs = [AnalysisSpec("P4", family, outcome_family="RARE_BINARY")
             for family in ("SUCCESSIVE", "PRODUCT")]
    shared = [estimate(d, spec) for spec in specs]
    assert len(calls) == 3  # PRODUCT's outcome model is SUCCESSIVE's full model
    fits = {key: fit for key, fit in Sample(d).memo.items() if key[0] == "logistic fit"}
    # and one factor, and one outcome prevalence
    assert len(set(calls)) == 3 and len(fits) == 3
    assert sorted(key[0] for key in Sample(d).memo) == ["factor", *3 * ["logistic fit"], "prevalence"]
    for fit in fits.values():
        assert not fit.values.flags.writeable
    full_model = "outcome ~ group + early + target"
    successive, product = shared
    assert successive.coefficients[full_model] == product.coefficients[full_model]
    assert successive.logistic_fits[full_model] == product.logistic_fits[full_model]

    fresh = [estimate(Dataset(dict(d.columns), dict(d.roles)), spec) for spec in specs]
    assert len(calls) == 3 + 4
    assert [estimate_fields(e) + (e.logistic_fits,) for e in shared] == [
        estimate_fields(e) + (e.logistic_fits,) for e in fresh
    ]
    for child in (d.take(np.arange(d.n_rows)), d.with_columns({"extra": np.zeros(d.n_rows)})):
        assert child._memo == {}
    rebound = [estimate(d.with_roles(dict(d.roles)), spec) for spec in specs]
    assert len(calls) == 3 + 4  # a new role map over the same columns reuses the fits
    assert [estimate_fields(e) for e in rebound] == [estimate_fields(e) for e in shared]


def test_a_rare_binary_sample_is_read_once_and_warned_of_per_estimate(monkeypatch):
    import gapdecomp.parametric as parametric

    calls = []
    real = parametric.analysis_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(parametric, "analysis_rows", counted)
    params = StructuralParams(binary_outcome=True, outcome_prevalence=0.2)
    d = generate(params, 4000, seed=52)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ests = [estimate(d, AnalysisSpec("P4", family, outcome_family="RARE_BINARY"))
                for family in ("SUCCESSIVE", "PRODUCT")]
    # the sample's rows are found once, for the factor and the prevalence of both runs
    assert len(calls) == 1
    assert [issubclass(w.category, PrevalenceWarning) for w in caught] == [True, True]
    for est in ests:
        assert any(note.startswith("outcome prevalence 0.2") for note in est.notes)


def test_logistic_outcome_models_carry_iterations_convergence_and_deviance():
    from gapdecomp import DesignMatrix, fit_logistic

    d = two_by_two_crossed()
    with pytest.warns(PrevalenceWarning):
        ladder = estimate(d, AnalysisSpec("P3", "SUCCESSIVE", outcome_family="RARE_BINARY"))
        product = estimate(d, AnalysisSpec("P3", "PRODUCT", outcome_family="RARE_BINARY"))
    assert set(ladder.logistic_fits) == set(ladder.coefficients) == {
        "y ~ r", "y ~ r + x", "y ~ r + x + m",
    }
    assert set(product.logistic_fits) == {"y ~ r + x + m"}  # its target and early models are OLS
    direct = fit_logistic(DesignMatrix.from_dataset(d, ["r"]), d.column("y"))
    assert ladder.logistic_fits["y ~ r"]["n_iter"] == direct.n_iter
    for fits in (ladder.logistic_fits, product.logistic_fits):
        for fit in fits.values():
            assert fit["converged"] is True and fit["n_iter"] >= 1
            assert fit["deviance"] == pytest.approx(TWO_BY_TWO_DEVIANCE, rel=1e-12)
    assert estimate(d, AnalysisSpec("P3", "SUCCESSIVE")).logistic_fits is None


# -- bootstrap replicates read off whitened Gram matrices ----------------------


def read_replicates(d, spec, replicates):
    """The linear route's outcome for each replicate given as row indices."""
    from gapdecomp.engine import replicates as route_of
    from gapdecomp.parametric import LinearReplicates, Sample

    route = route_of(d, spec, {}, replicates.__getitem__)
    assert isinstance(route, LinearReplicates)
    for idx in replicates:
        route(Sample(d, idx))
    return route.finish()


def assert_read_as_taken(d, spec, replicates):
    """Each replicate refused with the take route's error, or estimated as it is."""
    from gapdecomp.errors import AnalysisError

    kinds = []
    for idx, got in zip(replicates, read_replicates(d, spec, replicates)):
        try:
            want = estimate(d.take(idx), spec)
        except AnalysisError as err:
            assert type(got) is type(err) and str(got) == str(err)
            kinds.append(type(err).__name__)
            continue
        for key in QUANTITIES:
            assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12)
        kinds.append("estimate")
    return kinds


def test_a_replicate_with_an_all_zero_covariate_is_refused_as_its_take_is():
    rng = np.random.default_rng(3)
    n = 200
    r = (rng.random(n) < 0.5).astype(float)
    c = np.zeros(n)
    c[[5, 50, 150]] = 1.0
    x = 0.5 * r + rng.normal(size=n)
    m = 0.4 * x + rng.normal(size=n)
    y = r + x + m + c + rng.normal(size=n)
    d = dataset_from({"y": y, "r": r, "c": c, "x": x, "m": m},
                     {"outcome": "y", "group": "r", "covariate": ["c"], "early": ["x"],
                      "target": "m"})
    without = np.setdiff1d(np.arange(n), [5, 50, 150])
    # among 30 other replicates, so that no draw a percentile reads is set aside
    replicates = [rng.choice(without, n), *(rng.integers(0, n, n) for _ in range(30)), without[::-1]]
    for family in ("SUCCESSIVE", "PRODUCT"):
        kinds = assert_read_as_taken(d, AnalysisSpec("P4", family), replicates)
        assert kinds[0] == kinds[-1] == "RankDeficient" and kinds.count("estimate") >= 25


def test_a_replicate_with_a_near_zero_p4_denominator_is_refused_as_its_take_is():
    # on the first 100 rows the outcome's noise is orthogonal to x given
    # (1, r), so their x slope is rounding noise; the last 100 give x a slope.
    # Their group coefficient puts their quantities mid-way among 30 other
    # replicates', so no draw a percentile reads is set aside
    rng = np.random.default_rng(8)
    n, half = 200, np.arange(100)
    r = (rng.random(n) < 0.5).astype(float)
    x = 0.5 * r + rng.normal(size=n)
    m = 0.4 * x + rng.normal(size=n)
    design = np.column_stack([np.ones(100), r[half], x[half]])
    noise = rng.normal(size=100)
    noise -= design @ np.linalg.lstsq(design, noise, rcond=None)[0]
    y = np.concatenate([1.0 + 1.6 * r[half] + noise, r[100:] + x[100:] + rng.normal(size=100)])
    d = dataset_from({"y": y, "r": r, "x": x, "m": m},
                     {"outcome": "y", "group": "r", "early": ["x"], "target": "m"})
    replicates = [half, *(rng.integers(0, n, n) for _ in range(30)), half[::-1]]
    kinds = assert_read_as_taken(d, AnalysisSpec("P4", "SUCCESSIVE"), replicates)
    assert kinds == ["NearZeroDenominator", *["estimate"] * 30, "NearZeroDenominator"]


def test_successive_and_product_runs_over_one_sample_fill_one_gram_stack(monkeypatch):
    from gapdecomp import bootstrap_runs
    from gapdecomp.parametric import LinearReplicates
    from gapdecomp.regression import WhitenedGrams

    calls, refitted, finish = {"build": 0, "add": 0}, [], LinearReplicates.finish

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(WhitenedGrams, "__init__", counted("build", WhitenedGrams.__init__))
    monkeypatch.setattr(WhitenedGrams, "add", counted("add", WhitenedGrams.add))
    monkeypatch.setattr(LinearReplicates, "finish",
                        lambda self: (finish(self), refitted.append(int(self.exact.sum())))[0])
    d = generate(random_continuous_params(np.random.default_rng(30)), 300, seed=31)
    results = list(bootstrap_runs(d, [AnalysisSpec("P4", "SUCCESSIVE"), AnalysisSpec("P4", "PRODUCT")],
                                  b=40, seed=4))
    assert calls == {"build": 1, "add": 40}
    assert all(result.n_failed == 0 for result in results)
    # only the draws next to the 2.5% and 97.5% percentiles (ranks 0, 1, 38
    # and 39 of each of the four quantities) are refitted on this sample
    assert len(refitted) == 2 and all(0 < count <= 16 for count in refitted)


def test_linear_bootstrap_percentiles_are_those_of_each_replicates_own_fit_bit_for_bit():
    # a sample whose P3 proportion reduced has its 2.5% percentile near zero,
    # where the stack's values differ from a fit of each replicate's own rows
    # by more than 1e-12 relative; the draws a percentile reads are refitted
    from gapdecomp import bootstrap_runs, bootstrap_statistic
    from test_properties import replicate_sample

    d = replicate_sample(29984, 126)
    specs = [AnalysisSpec("P4", "SUCCESSIVE"), AnalysisSpec("P3", "PRODUCT")]
    for spec, indexed in zip(specs, bootstrap_runs(d, specs, b=20, seed=29984)):
        taken = bootstrap_statistic(d, lambda r: {k: getattr(estimate(r, spec), k) for k in (
            "initial", "residual", "reduction", "proportion_reduced")}, b=20, seed=29984)
        for name, want in taken.quantities.items():
            got = indexed.quantities[name]
            assert (got.lower, got.upper) == (want.lower, want.upper)
            assert got.se == pytest.approx(want.se, rel=1e-12)
    assert abs(taken.quantities["proportion_reduced"].lower) < 1e-4


def test_a_replicate_with_a_near_null_initial_disparity_is_refitted():
    # no group gap within levels of x: P2's initial disparity is near null in
    # every replicate, and the one nearest null drives the proportion's
    # spread. Read off the stack, that replicate moved the spread by 2.5e-11
    from gapdecomp import bootstrap_runs, bootstrap_statistic

    rng = np.random.default_rng(0)
    n = 300
    r = (rng.random(n) < 0.5).astype(float)
    x = r + rng.normal(size=n)
    c = rng.normal(size=n) + 3.0
    m = 0.4 * x + rng.normal(size=n)
    y = x + m + c + rng.normal(size=n) + 5.0
    d = dataset_from({"y": y, "r": r, "x": x, "m": m, "c": c},
                     {"outcome": "y", "group": "r", "early": ["x"], "target": "m",
                      "covariate": ["c"]})
    spec = AnalysisSpec("P2", "SUCCESSIVE")
    indexed = next(bootstrap_runs(d, [spec], b=200, seed=0))
    taken = bootstrap_statistic(d, lambda t: {k: getattr(estimate(t, spec), k) for k in (
        "initial", "residual", "reduction", "proportion_reduced")}, b=200, seed=0)
    for name, want in taken.quantities.items():
        got = indexed.quantities[name]
        assert (got.lower, got.upper) == (want.lower, want.upper)
        assert got.se == pytest.approx(want.se, rel=1e-13)
    assert taken.quantities["proportion_reduced"].se > 50.0


def test_replicates_past_the_whitening_limit_are_read_as_their_takes_are():
    # a covariate with mean 3.5 against unit spread: the replicates'
    # condition numbers run from 91 to 113, 24 of 40 past the limit. The gap
    # is large against sd(y)/sd(r), so only the condition number sends them
    # back to their own rows
    rng = np.random.default_rng(12)
    n = 200
    r = (rng.random(n) < 0.5).astype(float)
    c = 3.5 + rng.normal(size=n)
    x = 0.5 * r + rng.normal(size=n)
    m = 0.4 * x + rng.normal(size=n)
    y = 3.0 * r + 0.3 * (x + m + c) + 0.1 * rng.normal(size=n)
    d = dataset_from({"y": y, "r": r, "c": c, "x": x, "m": m},
                     {"outcome": "y", "group": "r", "covariate": ["c"], "early": ["x"],
                      "target": "m"})
    replicates = [rng.integers(0, n, n) for _ in range(40)]
    for family in ("SUCCESSIVE", "PRODUCT"):
        assert assert_read_as_taken(d, AnalysisSpec("P4", family), replicates) == ["estimate"] * 40
