import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dataset_from, random_continuous_params, random_rare_binary_params
from gapdecomp import (
    AnalysisSpec,
    Scale,
    bootstrap,
    bootstrap_runs,
    bootstrap_statistic,
    estimate,
    generate,
    proportion_reduced,
    proportion_with_note,
    resample_indices,
)
from gapdecomp.errors import (
    AnalysisError,
    DegenerateInitial,
    EmptyStratum,
    InvalidB,
    InvalidSpec,
    NearZeroDenominator,
    TooManyFailures,
)
from gapdecomp.inference import DEFAULT_REPLICATES, percentile


def plain_dataset(seed=0, n=300):
    rng = np.random.default_rng(seed)
    return dataset_from({"y": rng.normal(size=n)}, {"outcome": "y"})


def mean_y(d):
    return float(np.mean(d.column("y")))


def test_proportion_reduced_additive():
    assert proportion_reduced(2.0, 0.5) == pytest.approx(0.75)
    assert proportion_reduced(-0.41, -0.30) == pytest.approx(0.11 / 0.41)
    # overshoot and sign flips are allowed
    assert proportion_reduced(1.0, -0.5) == pytest.approx(1.5)
    assert proportion_reduced(1.0, 2.0) == pytest.approx(-1.0)


def test_proportion_reduced_ratio_scale():
    # a ratio of exactly 1 means no disparity, so reductions are measured
    # against (initial - 1)
    assert proportion_reduced(1.5, 1.2, Scale.RATIO) == pytest.approx(0.6)
    assert proportion_reduced(1.5, 1.2, "RATIO") == pytest.approx(0.6)
    assert proportion_reduced(1.5, 1.2, "RELATIVE") == pytest.approx(0.6)
    assert proportion_reduced(2.0, 2.0, Scale.RATIO) == pytest.approx(0.0)
    assert proportion_reduced(2.0, 1.0, Scale.RATIO) == pytest.approx(1.0)


def test_proportion_reduced_refuses_a_scale_it_does_not_know():
    # a near-miss spelling must not fall back to the additive scale
    assert proportion_reduced(1.5, 1.2, "ratio") == pytest.approx(0.6)
    assert proportion_reduced(1.5, 1.2, "Additive") == pytest.approx(0.2)
    for scale in ("ratios", "log", None):
        with pytest.raises(InvalidSpec, match=repr(scale)):
            proportion_reduced(1.5, 1.2, scale)


def test_degenerate_initial_disparity():
    for initial in (0.0, 5e-13, -5e-13):
        with pytest.raises(DegenerateInitial):
            proportion_reduced(initial, 0.3)
    for initial in (1.0, 1.0 + 5e-13):
        with pytest.raises(DegenerateInitial):
            proportion_reduced(initial, 1.3, Scale.RATIO)
    value, notes = proportion_with_note(0.0, 0.3, Scale.ADDITIVE)
    assert value is None
    assert len(notes) == 1 and "undefined" in notes[0]
    value, notes = proportion_with_note(2.0, 0.5, Scale.ADDITIVE)
    assert value == pytest.approx(0.75) and notes == ()


def test_b_must_be_at_least_two():
    d = plain_dataset()
    for b in (0, 1):
        with pytest.raises(InvalidB):
            bootstrap_statistic(d, mean_y, b=b)
    assert DEFAULT_REPLICATES == 1000


@pytest.mark.parametrize("b,seed,error", [
    (2.5, 0, InvalidB), (10.0, 0, InvalidB), ("10", 0, InvalidB), (True, 0, InvalidB),
    (10, 1.7, InvalidSpec), (10, "3", InvalidSpec), (10, True, InvalidSpec),
])
def test_a_b_or_seed_that_is_not_an_integer_is_refused_before_any_estimate(monkeypatch, b, seed,
                                                                           error):
    import gapdecomp.engine as engine
    import gapdecomp.inference as inference

    d = generate(random_continuous_params(np.random.default_rng(11)), 200, seed=1)
    estimates = []
    monkeypatch.setattr(engine, "estimate", lambda *args: estimates.append(args))
    monkeypatch.setattr(inference, "estimate", lambda *args: estimates.append(args))
    with pytest.raises(error, match=f"got {b if error is InvalidB else seed!r}"):
        next(bootstrap_runs(d, [AnalysisSpec("P4", "SUCCESSIVE")], b=b, seed=seed))
    with pytest.raises(error):
        bootstrap_statistic(d, lambda r: estimates.append(r), b=b, seed=seed)
    with pytest.raises(error):
        bootstrap(d, AnalysisSpec("P4", "SUCCESSIVE"), b=b, seed=seed)
    assert estimates == []


def test_numpy_integers_are_a_b_and_a_seed():
    d = plain_dataset(seed=4)
    summary = bootstrap_statistic(d, mean_y, b=np.int64(12), seed=np.uint32(7))
    assert summary == bootstrap_statistic(d, mean_y, b=12, seed=7)
    assert type(summary.b) is int and type(summary.seed) is int


@settings(max_examples=200, deadline=None)
@given(draws=st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]) | st.floats(-1e6, 1e6),
                      min_size=2, max_size=40),
       q=st.sampled_from([2.5, 97.5]) | st.floats(0.0, 100.0))
def test_the_percentile_is_numpys_bit_for_bit(draws, q):
    draws = np.array(draws) + 0.0  # -0.0 + 0.0 is 0.0: no zeros of both signs
    got, want = percentile(np.sort(draws), q), np.percentile(draws, q)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert percentile(np.array([1.0, 1.0]), 97.5) == 1.0
    assert percentile(np.array([1.0, 3.0]), 2.5) == float(np.percentile([3.0, 1.0], 2.5))


def test_point_is_full_sample_value_and_runs_are_deterministic():
    d = plain_dataset(seed=1)
    first = bootstrap_statistic(d, mean_y, b=40, seed=11)
    again = bootstrap_statistic(d, mean_y, b=40, seed=11)
    assert first.as_dict() == again.as_dict()
    assert first.quantities["statistic"].point == mean_y(d)
    other_seed = bootstrap_statistic(d, mean_y, b=40, seed=12)
    assert other_seed.quantities["statistic"].se != first.quantities["statistic"].se


def test_replicates_are_keyed_by_seed_and_index():
    d = plain_dataset(seed=2, n=150)
    # extending B must not change earlier replicates, so the spread of the
    # first 50 replicates can be reproduced from the indices alone
    draws = [mean_y(d.take(resample_indices(d, 7, i))) for i in range(50)]
    summary = bootstrap_statistic(d, mean_y, b=50, seed=7)
    assert summary.quantities["statistic"].se == float(np.asarray(draws).std(ddof=1))
    assert summary.quantities["statistic"].lower == float(np.percentile(draws, 2.5))
    # same (seed, index) pair, same indices, regardless of call order
    assert np.array_equal(resample_indices(d, 7, 31), resample_indices(d, 7, 31))
    assert not np.array_equal(resample_indices(d, 7, 31), resample_indices(d, 8, 31))


def test_stratified_resampling_preserves_group_counts():
    rng = np.random.default_rng(3)
    r = (rng.random(200) < 0.3).astype(float)
    d = dataset_from(
        {"y": rng.normal(size=200), "r": r}, {"outcome": "y", "group": "r"}
    )
    n1 = int(r.sum())
    for index in range(10):
        idx = resample_indices(d, 5, index, stratify_by_group=True)
        assert idx.shape == (200,)
        assert int(r[idx].sum()) == n1
    plain_counts = {int(r[resample_indices(d, 5, i)].sum()) for i in range(10)}
    assert plain_counts != {n1}
    summary = bootstrap_statistic(d, mean_y, b=20, seed=5, stratify_by_group=True)
    assert summary.stratified is True
    assert summary.as_dict()["stratified"] is True


def test_failed_replicates_are_recorded_and_excluded():
    d = plain_dataset(seed=4, n=80)
    calls = {"n": -1}  # call 0 is the full sample; replicate i is call i + 1

    def flaky(data):
        calls["n"] += 1
        if calls["n"] in (2, 5):
            raise DegenerateInitial("synthetic failure")
        return mean_y(data)

    summary = bootstrap_statistic(d, flaky, b=30, seed=9)
    assert summary.n_failed == 2
    assert summary.failures_by_type == {"DegenerateInitial": 2}
    assert summary.failure_reasons[0].startswith("replicate 1: DegenerateInitial")
    assert summary.failure_reasons[1].startswith("replicate 4: DegenerateInitial")
    surviving = [
        mean_y(d.take(resample_indices(d, 9, i))) for i in range(30) if i not in (1, 4)
    ]
    assert summary.quantities["statistic"].se == float(np.asarray(surviving).std(ddof=1))


def test_a_replicate_with_a_zero_risk_ratio_denominator_is_counted_as_failed():
    # group 0 has its only three outcome events in rows 0, 2 and 4: a replicate
    # that draws none of them has a group-0 mean of 0 to divide the ratios by
    rng = np.random.default_rng(32)
    r = np.tile([0.0, 1.0], 150)
    x = (rng.random(300) < 0.5).astype(float)
    y = ((r == 1.0) & (rng.random(300) < 0.1)).astype(float)
    y[[0, 2, 4]] = 1.0
    d = dataset_from({"y": y, "r": r, "x": x}, {"outcome": "y", "group": "r", "early": ["x"]})
    summary = bootstrap(d, AnalysisSpec("P1", "PLUGIN", outcome_family="RARE_BINARY"), b=40, seed=4)
    missed = [i for i in range(40) if not {0, 2, 4} & set(resample_indices(d, 4, i).tolist())]
    assert missed and summary.n_failed == len(missed)
    assert summary.as_dict()["failures_by_type"] == {"NearZeroDenominator": len(missed)}
    assert summary.failure_reasons == tuple(
        f"replicate {i}: NearZeroDenominator: the group-0 outcome mean is 0; "
        "the risk ratios divide by it and are undefined" for i in missed
    )


def test_failures_are_counted_by_type_in_name_order():
    d = plain_dataset(seed=4, n=80)
    calls = {"n": -1}
    raised = {3: EmptyStratum, 5: DegenerateInitial, 6: NearZeroDenominator, 9: EmptyStratum}

    def flaky(data):
        calls["n"] += 1
        if calls["n"] in raised:
            raise raised[calls["n"]]("synthetic failure")
        return mean_y(data)

    summary = bootstrap_statistic(d, flaky, b=40, seed=9)
    assert summary.n_failed == 4
    assert list(summary.as_dict()["failures_by_type"].items()) == [
        ("DegenerateInitial", 1), ("EmptyStratum", 2), ("NearZeroDenominator", 1)]


def test_too_many_failures_aborts():
    d = plain_dataset(seed=5, n=60)
    calls = {"n": -1}

    def mostly_broken(data):
        calls["n"] += 1
        if 0 < calls["n"] <= 4:
            raise DegenerateInitial("synthetic failure")
        return mean_y(data)

    with pytest.raises(TooManyFailures) as err:
        bootstrap_statistic(d, mostly_broken, b=20, seed=13)
    assert "4 of 20" in str(err.value)


def test_full_sample_failure_propagates():
    d = plain_dataset(seed=6)

    def broken(data):
        raise DegenerateInitial("nothing to see")

    with pytest.raises(DegenerateInitial):
        bootstrap_statistic(d, broken, b=10, seed=0)


def test_nothing_is_drawn_once_every_run_failed_on_the_full_sample(monkeypatch):
    import gapdecomp.inference as inference
    from gapdecomp.errors import TooManyLevels

    draws = []
    real = inference.resample_indices
    monkeypatch.setattr(inference, "resample_indices",
                        lambda *args, **kw: draws.append(1) or real(*args, **kw))
    d = generate(random_continuous_params(np.random.default_rng(7)), 200, seed=8)
    with pytest.raises(TooManyLevels):  # a continuous early measure has 200 levels
        bootstrap(d, AnalysisSpec("P4", "PLUGIN"), b=300)

    def broken(data):
        raise DegenerateInitial("nothing to see")

    with pytest.raises(DegenerateInitial):
        bootstrap_statistic(d, broken, b=300)
    assert draws == []


def test_none_valued_quantities_keep_null_point_and_nan_spread():
    d = plain_dataset(seed=7, n=50)

    def partial(data):
        return {"mean": mean_y(data), "undefined": None}

    summary = bootstrap_statistic(d, partial, b=16, seed=3)
    assert summary.quantities["undefined"].point is None
    assert math.isnan(summary.quantities["undefined"].se)
    assert summary.quantities["mean"].point == mean_y(d)
    payload = summary.as_dict()["quantities"]["mean"]
    assert set(payload) == {"point", "se", "percentile_2.5", "percentile_97.5"}


def test_spread_tracks_the_analytic_standard_error():
    rng = np.random.default_rng(8)
    y = rng.normal(size=2000)
    d = dataset_from({"y": y}, {"outcome": "y"})
    summary = bootstrap_statistic(d, mean_y, b=400, seed=21)
    q = summary.quantities["statistic"]
    analytic = float(y.std(ddof=1)) / math.sqrt(y.size)
    assert q.se == pytest.approx(analytic, rel=0.15)
    assert q.lower < q.point < q.upper
    assert (q.upper - q.lower) == pytest.approx(2 * 1.96 * analytic, rel=0.2)


def test_decomposition_bootstrap_reports_all_four_quantities():
    d = generate(random_continuous_params(np.random.default_rng(9)), 1500, seed=10)
    spec = AnalysisSpec("P4", "SUCCESSIVE")
    summary = bootstrap(d, spec, b=64, seed=2)
    point = estimate(d, spec)
    assert set(summary.quantities) == {
        "initial", "residual", "reduction", "proportion_reduced"
    }
    assert summary.quantities["initial"].point == point.initial
    assert summary.quantities["residual"].point == point.residual
    assert summary.quantities["reduction"].point == point.reduction
    assert summary.quantities["proportion_reduced"].point == point.proportion_reduced
    for q in summary.quantities.values():
        assert q.se > 0.0
        assert q.lower < q.upper
    assert summary.b == 64 and summary.seed == 2 and summary.n_failed == 0


def test_bootstrap_runs_refuses_b_below_two_before_any_estimate(monkeypatch):
    import gapdecomp.engine as engine

    d = generate(random_continuous_params(np.random.default_rng(11)), 200, seed=1)
    specs = [AnalysisSpec("P4", "SUCCESSIVE"), AnalysisSpec("P4", "PRODUCT")]
    estimates = []
    monkeypatch.setattr(engine, "estimate", lambda *args: estimates.append(args))
    for b in (0, 1):
        with pytest.raises(InvalidB, match=f"got {b}"):
            list(bootstrap_runs(d, specs, b=b))
    assert estimates == []


def test_bootstrap_runs_yields_what_bootstrap_returns_for_each_spec():
    d = generate(random_continuous_params(np.random.default_rng(12)), 400, seed=2)
    d = d.with_columns({"early2": d.column("early") + np.random.default_rng(0).normal(size=400)})
    specs = [
        AnalysisSpec("P4", "SUCCESSIVE"),
        AnalysisSpec("P3", "PRODUCT", bindings={"early": "early2"}),
        AnalysisSpec("P1", "SUCCESSIVE", bindings={"early": ["early", "early2"]}),
        AnalysisSpec("P3", "SUCCESSIVE", options={"interactions": True}),
        AnalysisSpec("P2", "PRODUCT", bindings={"early": "early2"}, options={"interactions": True}),
        AnalysisSpec("P2", "PLUGIN"),  # continuous early: TooManyLevels on the full sample
    ]
    rare = generate(random_rare_binary_params(np.random.default_rng(13), prevalence=0.08), 2000, seed=4)
    rare_specs = [AnalysisSpec("P4", family, outcome_family="RARE_BINARY")
                  for family in ("SUCCESSIVE", "PRODUCT")]
    for data, runs in ((d, specs), (rare, rare_specs)):
        for stratify in (False, True):
            results = list(bootstrap_runs(data, runs, b=16, seed=3, stratify_by_group=stratify))
            for spec, result in zip(runs, results):
                try:
                    alone = bootstrap(data, spec, b=16, seed=3, stratify_by_group=stratify)
                except AnalysisError as err:
                    assert type(result) is type(err) and str(result) == str(err)
                    continue
                assert repr(result) == repr(alone)  # floats by repr: bitwise
            names = [type(r).__name__ for r in results]
            assert names == (["BootstrapSummary"] * 5 + ["TooManyLevels"] if runs is specs
                             else ["BootstrapSummary"] * 2)


def test_an_interactions_bootstrap_binds_its_run_once_whatever_b(monkeypatch):
    import gapdecomp.analysis as analysis
    import gapdecomp.data as data
    import gapdecomp.oaxaca as oaxaca

    calls = {"validate": 0, "build": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    validate = counted("validate", analysis.validate_spec)
    monkeypatch.setattr(analysis, "validate_spec", validate)
    monkeypatch.setattr(oaxaca, "validate_spec", validate)
    monkeypatch.setattr(data.Dataset, "__post_init__", counted("build", data.Dataset.__post_init__))
    d = generate(random_continuous_params(np.random.default_rng(40)), 400, seed=41)
    spec = AnalysisSpec("P4", "SUCCESSIVE", bindings={"target": "target"},
                        options={"interactions": True})
    seen = []
    for b in (5, 25):
        for key in calls:
            calls[key] = 0
        assert bootstrap(d, spec, b=b, seed=2).n_failed == 0
        seen.append(dict(calls))
    assert seen[0] == seen[1] and seen[0]["validate"] > 0
