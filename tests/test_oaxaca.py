import numpy as np
import pytest

from conftest import dataset_from, random_continuous_params
from gapdecomp import (
    AnalysisSpec,
    DesignMatrix,
    fit_ols,
    generate,
    interaction_model_estimates,
    oaxaca_decompose,
    proposition_via_oaxaca,
)
from gapdecomp import oaxaca, regression
from gapdecomp.errors import EmptyGroup, InvalidSpec


def two_group_dataset(seed=0, n=400):
    rng = np.random.default_rng(seed)
    r = (rng.random(n) < 0.5).astype(float)
    x = 0.2 + 0.6 * r + rng.normal(size=n)
    m = -0.1 + 0.4 * r + 0.5 * x + rng.normal(size=n)
    y = 1.0 + 0.7 * r + 0.3 * x + 0.8 * m + rng.normal(size=n)
    return dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )


def group_fit(d, y, regressors, group_value):
    rows = d.column("r") == group_value
    design = DesignMatrix.from_dataset(d, regressors, rows=rows)
    return fit_ols(design, d.column(y)[rows])


def test_marginal_split_sums_to_raw_gap():
    d = two_group_dataset()
    for reference in ("group1", "group0"):
        ob = oaxaca_decompose(d, explanatory=["x", "m"], reference=reference)
        assert ob.mode == "MARGINAL"
        assert ob.profile == {}
        raw = float(d.column("y")[d.column("r") == 1.0].mean()
                    - d.column("y")[d.column("r") == 0.0].mean())
        assert ob.total_gap == pytest.approx(raw, abs=1e-12)
        assert ob.unexplained + ob.explained == pytest.approx(raw, abs=1e-10)
        assert ob.unexplained == pytest.approx(sum(ob.unexplained_terms.values()), abs=1e-12)
        assert ob.explained == pytest.approx(sum(ob.explained_terms.values()), abs=1e-12)
        assert ob.reference == reference


def test_terms_match_independent_groupwise_fits():
    d = two_group_dataset(seed=1)
    ob = oaxaca_decompose(d, explanatory=["x", "m"], reference="group0")
    fit1 = group_fit(d, "y", ["x", "m"], 1.0)
    fit0 = group_fit(d, "y", ["x", "m"], 0.0)
    r = d.column("r")
    for v in ("x", "m"):
        gap = float(d.column(v)[r == 1.0].mean() - d.column(v)[r == 0.0].mean())
        assert ob.explained_terms[v] == pytest.approx(fit0[v] * gap, abs=1e-12)
        mean1 = float(d.column(v)[r == 1.0].mean())
        assert ob.unexplained_terms[v] == pytest.approx((fit1[v] - fit0[v]) * mean1, abs=1e-12)
    assert ob.unexplained_terms["intercept"] == pytest.approx(
        fit1["intercept"] - fit0["intercept"], abs=1e-12
    )


def test_identical_regressor_multisets_explain_nothing():
    # same x and m values (same order) in both groups; only outcomes differ
    rng = np.random.default_rng(2)
    base_x = rng.normal(size=50)
    base_m = rng.normal(size=50)
    r = np.repeat([0.0, 1.0], 50)
    x = np.tile(base_x, 2)
    m = np.tile(base_m, 2)
    y = rng.normal(size=100) + 2.0 * r
    d = dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )
    ob = oaxaca_decompose(d, explanatory=["x", "m"])
    assert ob.explained == 0.0
    assert ob.explained_terms == {"x": 0.0, "m": 0.0}
    assert ob.unexplained == pytest.approx(ob.total_gap, abs=1e-10)


def test_identical_outcome_function_leaves_nothing_unexplained():
    # both groups share y = 2 + 3x exactly; only the x distributions differ
    x = np.concatenate([np.linspace(-1, 1, 30), np.linspace(0, 2, 30)])
    r = np.repeat([0.0, 1.0], 30)
    y = 2.0 + 3.0 * x
    d = dataset_from(
        {"y": y, "r": r, "x": x}, {"outcome": "y", "group": "r", "early": ["x"]}
    )
    ob = oaxaca_decompose(d, explanatory=["x"])
    assert ob.unexplained == pytest.approx(0.0, abs=1e-10)
    assert ob.explained == pytest.approx(3.0, abs=1e-10)  # slope times mean gap of 1


def test_conditional_mode_decomposes_model_implied_gap():
    d = two_group_dataset(seed=3)
    ob = oaxaca_decompose(d, explanatory=["m"], conditioning=["x"])
    assert ob.mode == "CONDITIONAL"
    assert set(ob.profile) == {"x"}
    group0_x = float(d.column("x")[d.column("r") == 0.0].mean())
    assert ob.profile["x"] == pytest.approx(group0_x, abs=1e-12)
    assert ob.unexplained + ob.explained == pytest.approx(ob.total_gap, abs=1e-10)
    assert "x" in ob.unexplained_terms and "x" not in ob.explained_terms


def test_conditional_profile_override_zeroes_conditioning_term():
    d = two_group_dataset(seed=4)
    ob = oaxaca_decompose(d, explanatory=["m"], conditioning=["x"], profile={"x": 0.0})
    assert ob.profile == {"x": 0.0}
    assert ob.unexplained_terms["x"] == 0.0
    assert ob.unexplained + ob.explained == pytest.approx(ob.total_gap, abs=1e-10)


def test_bad_reference_rejected():
    d = two_group_dataset(seed=5)
    with pytest.raises(InvalidSpec):
        oaxaca_decompose(d, explanatory=["x"], reference="pooled")


def test_empty_group_is_a_named_error():
    d = dataset_from(
        {"y": [1.0, 2.0, 3.0], "r": [1.0, 1.0, 1.0], "x": [0.0, 1.0, 2.0]},
        {"outcome": "y", "group": "r", "early": ["x"]},
    )
    with pytest.raises(EmptyGroup):
        oaxaca_decompose(d, explanatory=["x"])


# -- proposition readings ------------------------------------------------------


def test_interventions_read_off_the_split():
    d = two_group_dataset(seed=6)
    ob = oaxaca_decompose(d, explanatory=["x", "m"])
    p3 = proposition_via_oaxaca(d, AnalysisSpec("P3", "SUCCESSIVE"))
    p4 = proposition_via_oaxaca(d, AnalysisSpec("P4", "SUCCESSIVE"))
    assert p3.reduction == ob.explained
    assert p3.residual == ob.unexplained
    assert p4.reduction == ob.explained_terms["m"]
    assert p4.residual == ob.unexplained + ob.explained_terms["x"]
    assert p3.initial == pytest.approx(p4.initial, abs=1e-12)
    p1 = proposition_via_oaxaca(d, AnalysisSpec("P1", "SUCCESSIVE"))
    ob1 = oaxaca_decompose(d, explanatory=["x"])
    assert p1.reduction == ob1.explained
    assert p1.estimator == "SUCCESSIVE+interactions"


def test_target_with_no_group_gap_reduces_nothing_marginally():
    # the early measure differs by group, the target's multiset does not
    rng = np.random.default_rng(7)
    base_m = rng.normal(size=40)
    r = np.repeat([0.0, 1.0], 40)
    m = np.tile(base_m, 2)
    x = rng.normal(size=80) + 0.8 * r
    y = 0.5 * x + 0.9 * m + rng.normal(size=80) + 0.3 * r
    d = dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )
    p4 = proposition_via_oaxaca(d, AnalysisSpec("P4", "SUCCESSIVE"))
    assert p4.reduction == 0.0
    p1 = proposition_via_oaxaca(d, AnalysisSpec("P1", "SUCCESSIVE"))
    assert p1.reduction != 0.0


def exact_linear_dataset():
    """Noise-free outcome and target equations with shared slopes.

    Within each group: m = f_r + 0.5 x + w (w chosen in-sample orthogonal to
    (1, x)), y = a_r + 0.3 x + 0.8 m, with f0, f1 = 0.2, 0.7 and
    a0, a1 = 1.0, 1.6. Group-wise fits recover every coefficient exactly, so
    the within-early-level reading has closed-form residual 0.6 and
    reduction 0.8 * 0.5 = 0.4 at any anchor.
    """
    x_base = np.array([0.0, 1.0, 2.0, 3.0])
    w = np.array([0.1, -0.1, -0.1, 0.1])  # sum 0, dot with x_base 0
    r = np.repeat([0.0, 1.0], 4)
    x = np.tile(x_base, 2)
    f = np.where(r == 1.0, 0.7, 0.2)
    a = np.where(r == 1.0, 1.6, 1.0)
    m = f + 0.5 * x + np.tile(w, 2)
    y = a + 0.3 * x + 0.8 * m
    return dataset_from(
        {"y": y, "r": r, "x": x, "m": m},
        {"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
    )


def test_within_early_level_closed_form():
    d = exact_linear_dataset()
    for spec in (
        AnalysisSpec("P2", "SUCCESSIVE"),
        AnalysisSpec("P2", "SUCCESSIVE", conditioning_value_x=2.0),
    ):
        e = proposition_via_oaxaca(d, spec)
        assert e.residual == pytest.approx(0.6, abs=1e-9)
        assert e.reduction == pytest.approx(0.4, abs=1e-9)
        assert any("anchored at early-measure profile" in note for note in e.notes)
        pooled = interaction_model_estimates(d, spec)
        assert pooled.residual == pytest.approx(0.6, abs=1e-9)
        assert pooled.reduction == pytest.approx(0.4, abs=1e-9)


def test_stratified_and_pooled_interaction_routes_agree():
    d = generate(random_continuous_params(np.random.default_rng(8)), 2500, seed=9)
    for prop in ("P1", "P2", "P3", "P4"):
        a = proposition_via_oaxaca(d, AnalysisSpec(prop, "SUCCESSIVE"))
        b = interaction_model_estimates(d, AnalysisSpec(prop, "SUCCESSIVE"))
        assert b.estimator == "POOLED_INTERACTION"
        assert a.residual == pytest.approx(b.residual, rel=1e-9, abs=1e-9), prop
        assert a.reduction == pytest.approx(b.reduction, rel=1e-9, abs=1e-9), prop


def test_confounder_declaration_is_refused():
    d = two_group_dataset(seed=10)
    with_l = d.with_columns(
        {"l": np.zeros(d.n_rows)}, roles={"confounder": "l"}
    )
    with pytest.raises(InvalidSpec):
        proposition_via_oaxaca(with_l, AnalysisSpec("P3", "SUCCESSIVE"))
    with pytest.raises(InvalidSpec):
        interaction_model_estimates(with_l, AnalysisSpec("P3", "SUCCESSIVE"))


def test_pooled_fit_refuses_a_column_bound_to_two_roles():
    d = two_group_dataset(seed=13)
    spec = AnalysisSpec("P3", "SUCCESSIVE", bindings={"covariate": ["x"]})
    with pytest.raises(InvalidSpec, match="column 'x' is bound more than once"):
        interaction_model_estimates(d, spec)


def test_target_required_beyond_first_intervention():
    d = dataset_from(
        {
            "y": [1.0, 2.0, 3.0, 4.0, 5.0, 7.0],
            "r": [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            "x": [0.0, 1.0, 2.0, 0.0, 1.0, 2.0],
        },
        {"outcome": "y", "group": "r", "early": ["x"]},
    )
    proposition_via_oaxaca(d, AnalysisSpec("P1", "SUCCESSIVE"))  # fine without target
    with pytest.raises(InvalidSpec):
        proposition_via_oaxaca(d, AnalysisSpec("P4", "SUCCESSIVE"))


def test_each_group_is_factored_once_per_call(monkeypatch):
    d = two_group_dataset(seed=11)
    d = d.with_columns({"c": np.random.default_rng(12).normal(size=d.n_rows)},
                       roles={"covariate": ["c"]})
    factored = []
    fold_rows = regression.fold_rows

    def counted(r, block):
        factored.append(block.shape)
        return fold_rows(r, block)

    def refused(*args, **kwargs):
        raise AssertionError("no separate design or fit expected")

    monkeypatch.setattr(regression, "fold_rows", counted)
    monkeypatch.setattr(regression, "fit_ols", refused)
    monkeypatch.setattr(oaxaca, "fit_ols", refused)
    monkeypatch.setattr(regression.DesignMatrix, "from_dataset", refused)
    folds = {}
    for prop in ("P1", "P2", "P3", "P4"):
        factored.clear()
        proposition_via_oaxaca(d, AnalysisSpec(prop, "SUCCESSIVE"))
        folds[prop] = len(factored)
    # P4 reads P3's factors of [1, c, x, m, y], memoized on the dataset
    assert folds == {"P1": 2, "P2": 2, "P3": 2, "P4": 0}
    factored.clear()
    oaxaca_decompose(d, explanatory=["m"], conditioning=["x", "c"])
    assert factored == []  # P2's factors of [1, x, c, m, y]
    oaxaca_decompose(d.take(np.arange(d.n_rows)), explanatory=["m"], conditioning=["x", "c"])
    # [1, x, c, m, y] over each group's rows
    assert [p for _, p in factored] == [5, 5]
    assert sum(n for n, _ in factored) == d.n_rows


INTERACTIONS_CONFIG = [AnalysisSpec(prop, family, options={"interactions": True})
                       for prop in ("P1", "P2", "P3", "P4") for family in ("SUCCESSIVE", "PRODUCT")]


def counted_factors(monkeypatch):
    """The labels of each `TriangularFactor.of` call, appended as it is made."""
    built, of = [], regression.TriangularFactor.of
    monkeypatch.setattr(regression.TriangularFactor, "of",
                        staticmethod(lambda labels, *args: built.append(labels) or of(labels, *args)))
    return built


def covariate_dataset(seed):
    d = two_group_dataset(seed=seed)
    return d.with_columns({"c": np.random.default_rng(seed + 1).normal(size=d.n_rows)},
                          roles={"covariate": ["c"]})


def test_an_interactions_config_builds_one_factor_per_group_and_column_tuple(monkeypatch):
    from gapdecomp.engine import estimate

    d, built = covariate_dataset(14), counted_factors(monkeypatch)
    first, factors = [], []
    for spec in INTERACTIONS_CONFIG:
        first.append(estimate(d, spec))
        factors.append(len(built))
    # P1 [c, x, y], P2 [x, c, m, y], P3 and P4 [c, x, m, y], each in both groups:
    # PRODUCT reads SUCCESSIVE's factors, and P4 reads P3's
    assert factors == [2, 2, 4, 4, 6, 6, 6, 6]
    assert sorted(built) == sorted(2 * [("intercept", "c", "x", "y"), ("intercept", "x", "c", "m", "y"),
                                        ("intercept", "c", "x", "m", "y")])
    assert sorted(key[0] for key in d._memo) == 3 * ["group factors"]
    fresh = [estimate(d.take(np.arange(d.n_rows)), spec) for spec in INTERACTIONS_CONFIG]
    assert [(e.initial, e.residual, e.reduction) for e in first] == [
        (e.initial, e.residual, e.reduction) for e in fresh]


def test_a_replicates_interactions_runs_share_its_memo_and_leave_the_datasets(monkeypatch):
    from gapdecomp.engine import estimate, replicates
    from gapdecomp.inference import resample_indices
    from gapdecomp.parametric import Sample

    d = covariate_dataset(16)
    for spec in INTERACTIONS_CONFIG:
        estimate(d, spec)
    full = dict(d._memo)
    routes = [replicates(d, spec, {}, None) for spec in INTERACTIONS_CONFIG]
    built = counted_factors(monkeypatch)
    for k in range(2):
        s = Sample(d, resample_indices(d, 3, k))
        got = [route(s) for route in routes]
        assert len(built) == 6 * (k + 1)  # as on the full sample: 3 column tuples, 2 groups
        assert sorted(key[0] for key in s.memo) == 3 * ["group factors"]
        taken = d.take(s.idx)
        assert [(e.initial, e.residual, e.reduction) for e in got] == [
            (e.initial, e.residual, e.reduction) for e in (estimate(taken, c) for c in INTERACTIONS_CONFIG)]
        del built[6 * (k + 1):]  # the take's own factors
    assert d._memo.keys() == full.keys() and all(d._memo[key] is full[key] for key in full)


@pytest.mark.parametrize("estimated_first", [False, True])
def test_a_replicate_sample_never_writes_into_the_full_samples_memo(estimated_first):
    # a replicate's factors once went into the dataset's memo under the full
    # sample's keys, and a later estimate read them
    from gapdecomp.engine import estimate
    from gapdecomp.inference import resample_indices
    from gapdecomp.parametric import Sample, _decompose

    d = generate(random_continuous_params(np.random.default_rng(1)), 2000, seed=1)
    specs = [AnalysisSpec("P3", "SUCCESSIVE", options={"interactions": True}),
             AnalysisSpec("P3", "SUCCESSIVE")]
    for spec in specs if estimated_first else ():
        estimate(d, spec)
    full = dict(d._memo)
    s = Sample(d, resample_indices(d, 7, 0))
    replicate = [oaxaca._stratified(s, specs[0]), _decompose(s, specs[1])]
    assert sorted(key[0] for key in s.memo) == ["factor", "group factors"]
    assert d._memo.keys() == full.keys() and all(d._memo[key] is full[key] for key in full)
    taken, fresh = d.take(s.idx), d.take(np.arange(d.n_rows))
    for spec, read in zip(specs, replicate):
        for got, want in ((read, estimate(taken, spec)), (estimate(d, spec), estimate(fresh, spec))):
            assert (got.initial, got.residual, got.reduction) == (
                want.initial, want.residual, want.reduction)
