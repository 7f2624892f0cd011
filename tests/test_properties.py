"""Invariants that must hold on whole families of inputs, not just fixtures.

Each property draws structural coefficients (and RNG seeds) and checks an
algebraic identity of the estimators: additivity of the reported quantities,
agreement between estimator families on the same sample, invariance under
affine re-coding / level relabeling, the collapse of the confounder-aware
propositions when the confounder is constant, determinism of the
replicate-keyed bootstrap streams, and the bootstrap read from replicate row
indices against one that estimates on each replicate's `Dataset.take`.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from conftest import dataset_from
from gapdecomp import (
    AnalysisSpec,
    Dataset,
    DesignMatrix,
    Role,
    StratumTable,
    StructuralParams,
    bootstrap_runs,
    bootstrap_statistic,
    estimate,
    fit_ols,
    generate,
    oaxaca_decompose,
    proposition_via_oaxaca,
    quantile_bin,
    resample_indices,
)
from gapdecomp.errors import (
    AnalysisError,
    EmptyStratum,
    NearZeroDenominator,
    NotConverged,
    Separation,
)
from gapdecomp import regression
from gapdecomp.data import _SEARCH_ROWS
from gapdecomp.analysis import TIMEDEP_BASE, Proposition

PROPS = ("P1", "P2", "P3", "P4")


def estimate_or_skip(d, spec):
    """Estimate, skipping draws that legitimately refuse (degenerate slopes,
    unpopulated strata, non-converged likelihoods)."""
    try:
        return estimate(d, spec)
    except (NearZeroDenominator, EmptyStratum, NotConverged, Separation):
        assume(False)

effect = st.floats(-0.8, 0.8, allow_nan=False)
share = st.floats(0.3, 0.7)
noise = st.floats(0.6, 1.5)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def continuous_params(draw):
    return StructuralParams(
        group_share=draw(share),
        x_group_effect=draw(effect),
        x_noise_sd=draw(noise),
        m_group_effect=draw(effect),
        m_early_effect=draw(effect),
        m_noise_sd=draw(noise),
        y_group_effect=draw(effect),
        y_early_effect=draw(effect),
        y_target_effect=draw(effect),
        y_noise_sd=draw(noise),
    )


@st.composite
def discrete_params(draw):
    return StructuralParams(
        group_share=draw(share),
        x_intercept=draw(st.floats(0.3, 0.5)),
        x_group_effect=draw(st.floats(0.05, 0.25)),
        m_intercept=draw(st.floats(0.25, 0.4)),
        m_group_effect=draw(st.floats(0.05, 0.2)),
        m_early_effect=draw(st.floats(0.05, 0.25)),
        y_group_effect=draw(effect),
        y_early_effect=draw(effect),
        y_target_effect=draw(effect),
        y_noise_sd=draw(noise),
        discrete=True,
    )


@settings(max_examples=25, deadline=None)
@given(params=continuous_params(), seed=seeds)
def test_parametric_families_agree_and_add_up(params, seed):
    d = generate(params, 300, seed=seed)
    for prop in PROPS:
        a = estimate_or_skip(d, AnalysisSpec(prop, "SUCCESSIVE"))
        b = estimate_or_skip(d, AnalysisSpec(prop, "PRODUCT"))
        assert abs(a.initial - (a.residual + a.reduction)) <= 1e-10
        assert abs(b.initial - (b.residual + b.reduction)) <= 1e-10
        scale = max(1.0, abs(a.residual), abs(a.reduction))
        assert abs(a.residual - b.residual) <= 1e-8 * scale
        assert abs(a.reduction - b.reduction) <= 1e-8 * scale
        if a.proportion_reduced is not None:
            assert a.proportion_reduced == (a.initial - a.residual) / a.initial


@settings(max_examples=25, deadline=None)
@given(
    params=continuous_params(),
    seed=seeds,
    x_scale=st.floats(0.25, 4.0),
    x_flip=st.booleans(),
    x_shift=st.floats(-3.0, 3.0),
    m_scale=st.floats(0.25, 4.0),
    m_flip=st.booleans(),
    m_shift=st.floats(-3.0, 3.0),
)
def test_affine_recoding_never_moves_the_estimates(
    params, seed, x_scale, x_flip, x_shift, m_scale, m_flip, m_shift
):
    d = generate(params, 300, seed=seed)
    a = (-x_scale if x_flip else x_scale, x_shift)
    b = (-m_scale if m_flip else m_scale, m_shift)
    recoded = d.with_columns(
        {
            "early": a[0] * d.column("early") + a[1],
            "target": b[0] * d.column("target") + b[1],
        }
    )
    for prop in PROPS:
        for family in ("SUCCESSIVE", "PRODUCT"):
            before = estimate_or_skip(d, AnalysisSpec(prop, family))
            after = estimate_or_skip(recoded, AnalysisSpec(prop, family))
            scale = max(1.0, abs(before.residual))
            assert abs(before.residual - after.residual) <= 1e-7 * scale
            assert abs(before.reduction - after.reduction) <= 1e-7 * scale


@settings(max_examples=20, deadline=None)
@given(
    params=discrete_params(),
    seed=seeds,
    x_levels=st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
    m_levels=st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
)
def test_plugin_sees_levels_not_values(params, seed, x_levels, m_levels):
    assume(x_levels[0] != x_levels[1] and m_levels[0] != m_levels[1])
    d = generate(params, 800, seed=seed)
    relabeled = d.with_columns(
        {
            "early": np.where(d.column("early") == 0.0, *x_levels),
            "target": np.where(d.column("target") == 0.0, *m_levels),
        }
    )
    for prop in ("P1", "P3", "P4"):
        before = estimate_or_skip(d, AnalysisSpec(prop, "PLUGIN"))
        after = estimate(relabeled, AnalysisSpec(prop, "PLUGIN"))
        assert abs(before.residual - after.residual) <= 1e-12
        assert abs(before.reduction - after.reduction) <= 1e-12
        assert abs(before.initial - (before.residual + before.reduction)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(params=discrete_params(), seed=seeds, level=st.floats(-1e9, 1e9, allow_nan=False))
def test_constant_confounder_changes_nothing(params, seed, level):
    d = generate(params, 800, seed=seed)
    constant = d.with_columns(
        {"flat": np.full(d.n_rows, level)}, roles={"confounder": "flat"}
    )
    for timedep, base in (("P5", "P2"), ("P6", "P3"), ("P7", "P4")):
        plain = estimate_or_skip(d, AnalysisSpec(base, "PLUGIN"))
        aware = estimate(constant, AnalysisSpec(timedep, "PLUGIN"))
        assert aware.initial == plain.initial
        assert aware.residual == plain.residual
        assert aware.reduction == plain.reduction


@settings(max_examples=15, deadline=None)
@given(seed=seeds, prevalence=st.floats(0.03, 0.06), group_effect=st.floats(-0.5, 0.5))
def test_ratio_scale_quantities_multiply_back(seed, prevalence, group_effect):
    params = StructuralParams(
        x_group_effect=0.4,
        m_group_effect=0.3,
        m_early_effect=0.3,
        y_group_effect=group_effect,
        y_early_effect=0.3,
        y_target_effect=0.4,
        binary_outcome=True,
        outcome_prevalence=prevalence,
    )
    d = generate(params, 900, seed=seed)
    for family in ("SUCCESSIVE", "PRODUCT"):
        for prop in PROPS:
            e = estimate_or_skip(d, AnalysisSpec(prop, family, outcome_family="RARE_BINARY"))
            assert e.scale.value == "RATIO"
            assert e.initial == e.residual * e.reduction
            assert e.residual > 0.0 and e.reduction > 0.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 300), seed=seeds, index=st.integers(0, 10_000))
def test_bootstrap_streams_are_keyed_and_in_range(n, seed, index):
    rng = np.random.default_rng(seed)
    d = dataset_from(
        {"y": rng.normal(size=n), "r": (rng.random(n) < 0.5).astype(float)},
        {"outcome": "y", "group": "r"},
    )
    idx = resample_indices(d, seed, index)
    assert idx.shape == (n,)
    assert idx.min() >= 0 and idx.max() < n
    assert np.array_equal(idx, resample_indices(d, seed, index))
    if index > 0 and n >= 30:
        assert not np.array_equal(idx, resample_indices(d, seed, index - 1))
    r = d.column("r")
    if 0.0 in r and 1.0 in r:
        strat = resample_indices(d, seed, index, stratify_by_group=True)
        assert int(r[strat].sum()) == int(r.sum())


#: A quiet NaN with another payload than np.nan's: equal to it as a level,
#: different in bits.
OTHER_NAN = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]

#: Cells that repeat, so levels are shared; 0.0 and -0.0 (equal, different
#: bits) and two NaN payloads included.
cells = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, np.nan, OTHER_NAN]),
                  st.floats(allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(cells, min_size=1, max_size=60), memo_first=st.booleans(),
       long=st.booleans(), data=st.data())
def test_memoized_level_codes_equal_sorting_each_subset(values, memo_first, long, data):
    column = np.array(values)
    if long:  # past the first block of the memo's search, with a tail only the last block reads
        tail = data.draw(st.lists(cells, max_size=3))
        column = np.concatenate([np.tile(column, _SEARCH_ROWS // column.size + 1), tail])
    n = column.size
    d = Dataset({"v": column})

    def check(dataset, rows, expected):
        levels, codes = dataset.level_codes("v", rows)
        want_levels, want_codes = np.unique(expected, return_inverse=True)
        assert levels.dtype == want_levels.dtype and levels.tobytes() == want_levels.tobytes()
        # the codes' type counts the levels of the whole column, whichever rows are read
        assert codes.dtype == np.min_scalar_type(np.unique(dataset.column("v")).size)
        assert np.array_equal(codes, want_codes)

    if memo_first:
        check(d, slice(None), column)
        # equal cells with identical bits are served from the memo, not re-sorted
        exact = np.unique(column.view(np.int64)).size == np.unique(column).size
        assert (d._memo[("levels", "v")][1] is not None) == exact
    rows = st.lists(st.integers(0, n - 1), max_size=2 * len(values)).map(
        lambda r: np.array(r, dtype=np.intp))
    subset = np.unique(data.draw(rows))
    mask = np.resize(data.draw(st.lists(st.booleans(), min_size=len(values),
                                        max_size=len(values))), n)
    check(d, subset, column[subset])
    check(d, mask, column[mask])
    first = data.draw(rows)
    child = d.take(first)  # sorts its own columns
    check(child, slice(None), column[first])
    within = np.unique(data.draw(st.lists(st.integers(0, max(first.size - 1, 0)),
                                          max_size=first.size).map(lambda r: np.array(r, dtype=np.intp))))
    check(child, within, column[first][within])


def replicate_sample(seed, n):
    """Binary early, target and confounder with sparse cells (EmptyStratum in
    some replicates of P7), a covariate level on 3 rows (a replicate without
    them leaves it constant: RankDeficient), a few blank outcomes, and few
    group-0 events in the 0/1 outcome `yb` (a replicate can draw none of
    them: NearZeroDenominator on the ratio scale). The confounder `l` is left
    unbound, as "interactions" runs refuse one; P7 binds it. Covariates `big`
    (mean 1e4) and `twin` (big plus 1e-4 noise) give a design of condition
    number about 1e8."""
    rng = np.random.default_rng(seed)
    r = (rng.random(n) < 0.5).astype(float)
    x = (rng.random(n) < 0.3 + 0.3 * r).astype(float)
    l = (rng.random(n) < 0.3 + 0.2 * x).astype(float)
    m = (rng.random(n) < 0.2 + 0.3 * x + 0.2 * l).astype(float)
    c = np.zeros(n)
    c[rng.choice(n, 3, replace=False)] = 1.0
    y = 0.5 * r + x + m + 0.5 * l + rng.normal(size=n)
    y[rng.random(n) < 0.05] = np.nan
    yb = (rng.random(n) < 0.02 + 0.2 * r).astype(float)
    big = 1e4 + rng.normal(size=n)
    twin = big + 1e-4 * rng.normal(size=n)
    return dataset_from({"y": y, "yb": yb, "r": r, "x": x, "m": m, "l": l, "c": c, "big": big,
                         "twin": twin},
                        {"outcome": "y", "group": "r", "early": ["x"], "target": "m",
                         "covariate": ["c"]})


BINARY = {"outcome": "yb", "covariate": []}
REPLICATE_SPECS = [
    AnalysisSpec("P4", "SUCCESSIVE"),
    AnalysisSpec("P3", "PRODUCT"),
    AnalysisSpec("P7", "PLUGIN", bindings={"covariate": [], "confounder": "l"}),
    AnalysisSpec("P2", "PLUGIN", bindings={"covariate": []}),
    AnalysisSpec("P1", "PLUGIN", "RARE_BINARY", bindings=BINARY),
    AnalysisSpec("P4", "SUCCESSIVE", "RARE_BINARY", bindings=BINARY),
    AnalysisSpec("P2", "PRODUCT", bindings={"covariate": []}, options={"interactions": True}),
    AnalysisSpec("P4", "SUCCESSIVE", bindings={"covariate": []}, options={"interactions": True}),
    AnalysisSpec("P4", "SUCCESSIVE", bindings={"covariate": ["big", "twin"]}),
]


def quantities(est):
    return {k: getattr(est, k) for k in ("initial", "residual", "reduction", "proportion_reduced")}


def summary_or_error(run):
    """What a bootstrap yields or raises, and the replicate warnings it re-issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run()
        except AnalysisError as err:
            result = err
    return result, [(w.category, str(w.message)) for w in caught
                    if "bootstrap replicates" in str(w.message)]


@example(seed=4, n=180, stratify=False)  # RankDeficient and EmptyStratum replicates
@example(seed=4, n=100, stratify=False)  # NearZeroDenominator replicates
@example(seed=5, n=180, stratify=True)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(100, 250), stratify=st.booleans())
def test_replicate_indices_bootstrap_as_a_take_per_replicate_does(seed, n, stratify):
    d = replicate_sample(seed, n)
    draws = dict(b=20, seed=seed, stratify_by_group=stratify)
    results = bootstrap_runs(d, REPLICATE_SPECS, **draws)
    for spec in REPLICATE_SPECS:
        indexed, indexed_warned = summary_or_error(lambda: next(results))
        taken, taken_warned = summary_or_error(lambda: bootstrap_statistic(
            d, lambda r: quantities(estimate(r, spec)), **draws))
        assert indexed_warned == taken_warned
        if isinstance(taken, AnalysisError):
            assert type(indexed) is type(taken) and str(indexed) == str(taken)
            continue
        assert indexed.failure_reasons == taken.failure_reasons
        assert indexed.failures_by_type == taken.failures_by_type
        assert indexed.n_failed == taken.n_failed
        for name, want in taken.quantities.items():
            got = indexed.quantities[name]
            assert got.point == want.point
            for x, y in ((got.se, want.se), (got.lower, want.lower), (got.upper, want.upper)):
                assert math.isclose(x, y, rel_tol=1e-12) or (math.isnan(x) and math.isnan(y))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(30, 400), bins=st.integers(2, 8))
def test_quantile_bins_are_monotone_and_bounded(seed, n, bins):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    values[rng.random(n) < 0.1] = np.nan
    d = dataset_from({"v": values, "y": rng.normal(size=n)}, {"outcome": "y"})
    binned = quantile_bin(d, ["v"], bins=bins).column("v")
    nan_mask = np.isnan(values)
    assert np.array_equal(np.isnan(binned), nan_mask)
    kept = binned[~nan_mask]
    assert np.unique(kept).size <= bins
    order = np.argsort(values[~nan_mask], kind="stable")
    assert np.all(np.diff(kept[order]) >= 0.0)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(40, 200))
def test_dropping_a_regressor_shifts_the_group_coefficient_by_the_product(seed, n):
    rng = np.random.default_rng(seed)
    r = (rng.random(n) < 0.5).astype(float)
    x = 0.4 * r + rng.normal(size=n)
    y = 0.5 * r + 0.7 * x + rng.normal(size=n)
    d = dataset_from({"y": y, "r": r, "x": x}, {"outcome": "y", "group": "r"})
    assume(0.0 in r and 1.0 in r)
    rows = np.ones(n, dtype=bool)
    narrow = fit_ols(DesignMatrix.from_dataset(d, ["r"], rows), y)
    wide = fit_ols(DesignMatrix.from_dataset(d, ["r", "x"], rows), y)
    aux = fit_ols(DesignMatrix.from_dataset(d, ["r"], rows), x)
    shift = wide["r"] + wide["x"] * aux["r"]
    assert abs(narrow["r"] - shift) <= 1e-9 * max(1.0, abs(narrow["r"]))


# -- SUCCESSIVE / PRODUCT against models fitted one by one --------------------


def lstsq_fit(columns, rows, response, regressors):
    """One model on its own: no factor shared with any other model."""
    X = np.column_stack([np.ones(int(rows.sum()))] + [columns[k][rows] for k in regressors])
    coef, *_ = np.linalg.lstsq(X, columns[response][rows], rcond=None)
    return dict(zip(["intercept", *regressors], coef))


def oracle(columns, xs, covariates, prop, family):
    """(initial, residual, reduction) from separately fitted models.

    The marginal-target split uses each early measure's group gap from its
    own regression on (group, covariates), rather than the ladder's forward
    substitution.
    """
    r, m, y, c = "r", "m", "y", list(covariates)
    rows = np.ones(columns[r].shape[0], dtype=bool)
    for name in [r, *c, *xs, m, y]:
        rows &= ~np.isnan(columns[name])
    fit = lambda response, regressors: lstsq_fit(columns, rows, response, regressors)
    if family == "PRODUCT":
        (x,) = xs
        outcome, target, early = fit(y, [r, x, m, *c]), fit(m, [r, x, *c]), fit(x, [r, *c])
        via_m, via_x = target[r] * outcome[m], early[r] * outcome[x]
        chained = early[r] * target[x] * outcome[m]
        residual, reduction = {
            "P1": (outcome[r] + via_m, via_x + chained),
            "P2": (outcome[r], via_m),
            "P3": (outcome[r], via_x + via_m + chained),
            "P4": (outcome[r] + via_x, via_m + chained),
        }[prop]
        return residual + reduction, residual, reduction
    base, widest, full = fit(y, [r, *c]), fit(y, [r, *xs, *c]), fit(y, [r, *xs, m, *c])
    if prop == "P1":
        return base[r], widest[r], base[r] - widest[r]
    if prop == "P2":
        return widest[r], full[r], widest[r] - full[r]
    if prop == "P3":
        return base[r], full[r], base[r] - full[r]
    gaps = {x: fit(x, [r, *c])[r] for x in xs}
    residual = full[r] + sum(full[x] * gaps[x] for x in xs)
    reduction = widest[r] - full[r] + sum((widest[x] - full[x]) * gaps[x] for x in xs)
    return base[r], residual, reduction


@pytest.mark.parametrize("block_rows", [regression.BLOCK_ROWS, 7])  # one block, or many
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=seeds,
    n=st.integers(40, 160),
    k=st.sampled_from([1, 2]),
    with_covariate=st.booleans(),
    missing=st.floats(0.0, 0.08),
)
def test_shared_factor_matches_models_fitted_one_by_one(monkeypatch, block_rows, seed, n, k,
                                                         with_covariate, missing):
    monkeypatch.setattr(regression, "BLOCK_ROWS", block_rows)  # the same value every example
    rng = np.random.default_rng(seed)
    r = (rng.random(n) < 0.5).astype(float)
    cov = rng.normal(size=n)
    x1 = 0.5 * r + 0.3 * cov + rng.normal(size=n)
    x2 = 0.3 * r + 0.4 * x1 + rng.normal(size=n)
    m = 0.4 * r + 0.5 * x1 + 0.2 * x2 + rng.normal(size=n)
    y = 0.3 * r + 0.4 * x1 - 0.3 * x2 + 0.6 * m + 0.2 * cov + rng.normal(size=n)
    columns = {"r": r, "cov": cov, "x1": x1, "x2": x2, "m": m, "y": y}
    for name in ("cov", "x1", "x2", "m", "y"):
        columns[name] = np.where(rng.random(n) < missing, np.nan, columns[name])
    xs = ["x1", "x2"][:k]
    covariates = ["cov"] if with_covariate else []
    roles = {"outcome": "y", "group": "r", "early": xs, "target": "m", "covariate": covariates}
    d = dataset_from(columns, roles)
    families = ("SUCCESSIVE", "PRODUCT") if k == 1 else ("SUCCESSIVE",)
    for prop in PROPS:
        for family in families:
            e = estimate_or_skip(d, AnalysisSpec(prop, family))
            expected = oracle(columns, xs, covariates, prop, family)
            for got, want in zip((e.initial, e.residual, e.reduction), expected):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (prop, family)


class MaskTable:
    """Stratum table with one boolean row mask per level, as first written.

    An independent oracle for `StratumTable`: same constructor, levels and
    EmptyStratum messages, every count and mean taken from the rows themselves.
    """

    def __init__(self, d, rows, max_levels=20, columns=None):
        self.outcome = d.column(d.single_role_column(Role.OUTCOME))[rows]
        self.group = d.column(d.single_role_column(Role.GROUP))[rows]
        self.columns = dict(columns)
        self.levels, self.masks = {}, {}
        for dim, names in self.columns.items():
            arrays = [d.column(name)[rows] for name in names]
            self.levels[dim] = sorted(set(zip(*(a.tolist() for a in arrays)))) if arrays else [()]
            self.masks[dim] = {
                level: np.logical_and.reduce([a == v for a, v in zip(arrays, level)])
                if arrays else np.ones(self.group.shape[0], dtype=bool)
                for level in self.levels[dim]
            }

    def _describe(self, group, pairs):
        parts = [f"group={int(group)}" if group is not None else "group=any"]
        for dim, level in pairs:
            if self.columns[dim]:
                parts.append(f"{dim} {self.columns[dim]}={level}")
        return ", ".join(parts)

    def cell_mask(self, group, pairs=()):
        mask = np.ones(self.group.shape[0], dtype=bool) if group is None else self.group == group
        for dim, level in pairs:
            mask = mask & self.masks[dim][level]
        return mask

    def mean(self, group, pairs=()):
        mask = self.cell_mask(group, pairs)
        if not mask.any():
            raise EmptyStratum(self._describe(group, pairs))
        return float(np.mean(self.outcome[mask]))

    def probability(self, dim, level, group, given=()):
        base = self.cell_mask(group, given)
        if not base.any():
            raise EmptyStratum(self._describe(group, given))
        return int((base & self.masks[dim][level]).sum()) / int(base.sum())


def standardized_mean(table, prop, c_level, x_star):
    """One covariate-stratum's equalized mean, per the proposition's formula."""
    c = ("covariate", c_level)
    base = TIMEDEP_BASE.get(prop, prop)

    def averaged_outcome(x_level, m_level):
        # Group-1 outcome mean at (early, target, covariate), averaged over the
        # group-1 confounder distribution within (early, covariate). Without a
        # bound confounder this is a single pass with probability exactly 1.0.
        value = 0.0
        for l_level in table.levels["confounder"]:
            p_l = table.probability("confounder", l_level, 1.0, (("early", x_level), c))
            if p_l == 0.0:
                continue
            value += p_l * table.mean(
                1.0,
                (("early", x_level), ("target", m_level), ("confounder", l_level), c),
            )
        return value

    def target_sum(x_level, target_given):
        # Sum over target levels of P(target | group 0, target_given) times the
        # confounder-averaged group-1 outcome mean at (x_level, target).
        total = 0.0
        for m_level in table.levels["target"]:
            p_m = table.probability("target", m_level, 0.0, target_given)
            if p_m == 0.0:
                continue
            total += p_m * averaged_outcome(x_level, m_level)
        return total

    if base == Proposition.P2:
        return target_sum(x_star, (("early", x_star), c))
    # P1 is P3 over a table whose target is the single pseudo-level: its
    # target probability is exactly 1.0. P4 draws early from group 1 and the
    # target from group 0's marginal within the covariate stratum.
    early_group = 1.0 if base == Proposition.P4 else 0.0
    total = 0.0
    for x_level in table.levels["early"]:
        p_x = table.probability("early", x_level, early_group, (c,))
        if p_x == 0.0:
            continue
        given = (c,) if base == Proposition.P4 else (("early", x_level), c)
        total += p_x * target_sum(x_level, given)
    return total


def loop_estimate(d, spec):
    """(initial, residual, reduction) of a continuous-outcome PLUGIN spec:
    the proposition's formula as nested loops over `MaskTable` lookups, on
    the rows complete in every bound column, with the dimensions the
    proposition reads."""
    prop = spec.proposition
    early = d.role_columns(Role.EARLY)
    dims = {"early": early,
            "target": () if prop == Proposition.P1 else d.role_columns(Role.TARGET),
            "confounder": d.role_columns(Role.CONFOUNDER_L) if prop in TIMEDEP_BASE else (),
            "covariate": d.covariate_names()}
    used = [name for names in d.roles.values() for name in names]
    rows = np.flatnonzero(~np.isnan(np.column_stack([d.column(c) for c in used])).any(axis=1))
    table = MaskTable(d, rows, columns=dims)

    x_star, anchor = None, ()
    if TIMEDEP_BASE.get(prop, prop) == Proposition.P2:
        if spec.conditioning_value_x is not None:
            target = np.array([float(spec.conditioning_value_x)])
        else:
            group = d.column(d.single_role_column(Role.GROUP))[rows]
            target = np.array([float(np.mean(d.column(name)[rows][group == 1.0]))
                               for name in early])
        x_star = min(table.levels["early"],
                     key=lambda level: float(np.sum((np.asarray(level) - target) ** 2)))
        anchor = (("early", x_star),)

    weight_mode = spec.option("aggregation_weight", "group1")
    weight_group = {"group1": 1.0, "group0": 0.0, "pooled": None}[weight_mode]
    mu = group0_mean = group1_mean = 0.0
    for c_level in table.levels["covariate"]:
        weight = table.probability("covariate", c_level, weight_group)
        if weight == 0.0:
            continue
        pairs = (("covariate", c_level),) + anchor
        mu += weight * standardized_mean(table, prop, c_level, x_star)
        group0_mean += weight * table.mean(0.0, pairs)
        group1_mean += weight * table.mean(1.0, pairs)
    return group1_mean - group0_mean, mu - group0_mean, group1_mean - mu


def lookup(fn, *args):
    try:
        return fn(*args)
    except EmptyStratum as exc:
        return "empty", str(exc)


@settings(max_examples=30, deadline=None)
@given(
    seed=seeds,
    n=st.integers(20, 160),
    k=st.sampled_from([1, 2]),
    n_covariates=st.integers(0, 2),
    with_confounder=st.booleans(),
    missing=st.floats(0.0, 0.1),
    weight=st.sampled_from(["group1", "group0", "pooled"]),
    x_value=st.one_of(st.none(), st.floats(-2.0, 3.0)),
)
def test_count_table_matches_a_mask_per_level(seed, n, k, n_covariates, with_confounder, missing,
                                              weight, x_value):
    rng = np.random.default_rng(seed)
    early = ["x1", "x2"][:k]
    covariates = ["c1", "c2"][:n_covariates]
    columns = {"y": rng.normal(size=n), "r": (rng.random(n) < 0.5).astype(float)}
    for name in early + covariates + ["m", "l"]:
        columns[name] = rng.integers(0, int(rng.integers(1, 4)), size=n) * 1.5 - 1.0
    for name in ["y", "m", "l"] + early + covariates:
        columns[name] = np.where(rng.random(n) < missing, np.nan, columns[name])
    roles = {"outcome": "y", "group": "r", "early": early, "target": "m",
             "covariate": covariates}
    if with_confounder:
        roles["confounder"] = "l"
    d = dataset_from(columns, roles)

    dims = {"early": tuple(early), "target": ("m",),
            "confounder": ("l",) if with_confounder else (), "covariate": tuple(covariates)}
    used = ["y", "r"] + [name for names in dims.values() for name in names]
    rows = np.flatnonzero(~np.isnan(np.column_stack([columns[c] for c in used])).any(axis=1))
    table = StratumTable(d, rows, columns=dims)
    oracle = MaskTable(d, rows, columns=dims)
    assert table.levels == oracle.levels and table.columns == oracle.columns
    for group in (0, 1):
        for index in itertools.product(*(range(len(oracle.levels[dim])) for dim in dims)):
            mask = oracle.cell_mask(group, [(dim, oracle.levels[dim][i])
                                            for dim, i in zip(dims, index)])
            count, total = table.counts[(group,) + index], table.sums[(group,) + index]
            assert count == int(mask.sum())
            if count:
                assert abs(total / count - float(np.mean(oracle.outcome[mask]))) <= 1e-12

    props = PROPS + (("P5", "P6", "P7") if with_confounder else ())
    for prop in props:
        anchored = prop in ("P2", "P5") and k == 1
        spec = AnalysisSpec(prop, "PLUGIN", conditioning_value_x=x_value if anchored else None,
                            options={"aggregation_weight": weight})
        want = lookup(loop_estimate, d, spec)
        got = lookup(estimate, d, spec)
        if want[0] == "empty":
            assert got == want, prop
            continue
        for a, b in zip((got.initial, got.residual, got.reduction), want):
            assert abs(a - b) <= 1e-12, prop


# -- group-stratified (interactions) route against per-group fits -------------


def group_split(d, explanatory, conditioning, reference="group1", profile=None, anchored=(),
                complete=()):
    """(total gap, unexplained terms, explained terms), every model fitted on
    its own by `fit_ols` and every plain mean taken by `np.mean`, on the rows
    complete in the columns it reads and in `complete`.

    The conditioning profile takes the values in `profile`, the `anchored`
    columns' group-1 means, and every other column's group-0 mean.
    """
    y, r = d.single_role_column(Role.OUTCOME), d.single_role_column(Role.GROUP)
    used = [y, r, *explanatory, *conditioning, *complete]
    rows = ~np.isnan(np.column_stack([d.column(k) for k in used])).any(axis=1)
    in_group = {g: rows & (d.column(r) == g) for g in (1.0, 0.0)}

    def fit(name, regressors, g):
        design = DesignMatrix.from_dataset(d, regressors, rows=in_group[g])
        return fit_ols(design, d.column(name)[in_group[g]])

    def mean(name, g):
        return float(np.mean(d.column(name)[in_group[g]]))

    given = profile or {}
    profile = {k: given[k] if k in given else mean(k, 1.0 if k in anchored else 0.0)
               for k in conditioning}
    outcome = {g: fit(y, [*explanatory, *conditioning], g) for g in in_group}
    means = {g: {} for g in in_group}
    for g in in_group:
        for v in explanatory:
            if conditioning:
                aux = fit(v, conditioning, g)
                means[g][v] = aux["intercept"] + sum(aux[k] * profile[k] for k in conditioning)
            else:
                means[g][v] = mean(v, g)
    if conditioning:
        implied = {g: outcome[g]["intercept"]
                   + sum(outcome[g][v] * means[g][v] for v in explanatory)
                   + sum(outcome[g][k] * profile[k] for k in conditioning) for g in in_group}
        total = implied[1.0] - implied[0.0]
    else:
        total = mean(y, 1.0) - mean(y, 0.0)
    ref, other = (1.0, 0.0) if reference == "group1" else (0.0, 1.0)
    explained = {v: outcome[ref][v] * (means[1.0][v] - means[0.0][v]) for v in explanatory}
    unexplained = {"intercept": outcome[1.0]["intercept"] - outcome[0.0]["intercept"]}
    for v in explanatory:
        unexplained[v] = (outcome[1.0][v] - outcome[0.0][v]) * means[other][v]
    for k in conditioning:
        unexplained[k] = (outcome[1.0][k] - outcome[0.0][k]) * profile[k]
    return total, unexplained, explained


def stratified_oracle(d, prop, xs, covariates, anchor):
    """(residual, reduction) of one proposition from `group_split`, on the
    rows complete in every bound column, which a run reads whatever its
    proposition."""
    if prop == "P2":
        given = {} if anchor is None else {xs[0]: anchor}
        _, unexplained, explained = group_split(d, ["m"], xs + covariates,
                                                profile=given, anchored=xs)
        return sum(unexplained.values()), explained["m"]
    explanatory = xs if prop == "P1" else xs + ["m"]
    _, unexplained, explained = group_split(d, explanatory, covariates, complete=["m"])
    if prop == "P4":
        return sum(unexplained.values()) + sum(explained[x] for x in xs), explained["m"]
    return sum(unexplained.values()), sum(explained.values())


@pytest.mark.parametrize("block_rows", [regression.BLOCK_ROWS, 7])  # one block, or many
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=seeds,
    n=st.integers(60, 200),
    k=st.sampled_from([1, 2]),
    n_covariates=st.integers(0, 2),
    missing=st.floats(0.0, 0.08),
    given_profile=st.booleans(),
)
def test_stratified_route_matches_per_group_fits(monkeypatch, block_rows, seed, n, k, n_covariates,
                                                 missing, given_profile):
    monkeypatch.setattr(regression, "BLOCK_ROWS", block_rows)  # the same value every example
    rng = np.random.default_rng(seed)
    r = (rng.random(n) < 0.5).astype(float)
    columns = {"r": r}
    for name in ("c1", "c2"):
        columns[name] = 0.3 * r + rng.normal(size=n)
    columns["x1"] = 0.5 * r + 0.3 * columns["c1"] + rng.normal(size=n)
    columns["x2"] = 0.3 * r + 0.4 * columns["x1"] + rng.normal(size=n)
    columns["m"] = 0.4 * r + 0.5 * columns["x1"] + 0.2 * columns["x2"] + rng.normal(size=n)
    columns["y"] = (0.3 * r + 0.4 * columns["x1"] - 0.3 * columns["x2"] + 0.6 * columns["m"]
                    + 0.2 * columns["c2"] + 0.5 * r * columns["m"] + rng.normal(size=n))
    for name in ("c1", "c2", "x1", "x2", "m", "y"):
        columns[name] = np.where(rng.random(n) < missing, np.nan, columns[name])
    xs, covariates = ["x1", "x2"][:k], ["c1", "c2"][:n_covariates]
    assume(min(np.sum(r == 1.0), np.sum(r == 0.0)) >= 15)
    d = dataset_from(columns, {"outcome": "y", "group": "r", "early": xs, "target": "m",
                               "covariate": covariates})

    def close(got, want):
        return abs(got - want) <= 1e-10 * max(1.0, abs(want))

    anchor = float(rng.normal()) if given_profile and k == 1 else None
    for prop in PROPS:
        e = proposition_via_oaxaca(d, AnalysisSpec(prop, "SUCCESSIVE", conditioning_value_x=anchor))
        residual, reduction = stratified_oracle(d, prop, xs, covariates, anchor)
        assert close(e.residual, residual) and close(e.reduction, reduction), prop

    conditioning = xs + covariates
    profile = {name: float(rng.normal()) for name in conditioning} if given_profile else None
    for reference in ("group1", "group0"):
        for explanatory, cond in ((xs + ["m"], []), (["m"], conditioning)):
            ob = oaxaca_decompose(d, explanatory, cond, reference=reference,
                                  profile=profile if cond else None)
            total, unexplained, explained = group_split(d, explanatory, cond, reference,
                                                        profile=profile if cond else None)
            assert ob.mode == ("CONDITIONAL" if cond else "MARGINAL")
            assert close(ob.total_gap, total)
            assert list(ob.unexplained_terms) == list(unexplained)
            assert list(ob.explained_terms) == list(explained)
            for got, want in zip(ob.unexplained_terms.values(), unexplained.values()):
                assert close(got, want), (reference, cond)
            for got, want in zip(ob.explained_terms.values(), explained.values()):
                assert close(got, want), (reference, cond)
