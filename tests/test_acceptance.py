"""Package-level acceptance checks.

Ten numbered requirements cover the whole surface: the bookkeeping
identities, cross-family equivalences, enumeration and ground-truth
oracles, the rare-outcome approximation, printed-table arithmetic,
bootstrap behaviour, and recoding invariance. Each test prints exactly
one scorecard line (PASS/FAIL) that survives pytest's capture, so a
full run ends with a ten-line verdict. Tolerances, dataset counts and
runtime budgets are part of the contract and are asserted in-test.
"""

import dataclasses
import inspect
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    dataset_from,
    random_continuous_params,
    random_discrete_params,
    random_rare_binary_params,
    saturated_fit,
)
from gapdecomp import (
    AnalysisSpec,
    StructuralParams,
    bootstrap,
    bootstrap_statistic,
    estimate,
    generate,
    interaction_model_estimates,
    plugin_mu,
    proportion_reduced,
    proposition_via_oaxaca,
    quantile_bin,
    true_values,
    write_csv,
)
from gapdecomp.cli import main
from gapdecomp.errors import PrevalenceWarning
from gapdecomp.inference import DEFAULT_REPLICATES

PROPS = ("P1", "P2", "P3", "P4")
PARAMETRIC = ("SUCCESSIVE", "PRODUCT")


@contextmanager
def verdict(capsys, label):
    """Print one always-visible PASS/FAIL line for a numbered requirement."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS", flush=True)


def close(a, b, rel, floor=1e-3):
    """|a-b| within `rel` of the larger magnitude (floored for near-zeros)."""
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)


def discrete_confounded_params(rng):
    return dataclasses.replace(
        random_discrete_params(rng),
        confounder=True,
        l_intercept=0.35, l_group_effect=0.10, l_early_effect=0.15,
        m_confounder_effect=0.10, y_confounder_effect=0.30,
    )


def discrete_covariate_params(rng):
    return dataclasses.replace(
        random_discrete_params(rng),
        covariate_share=0.4,
        x_covariate_effect=0.08, m_covariate_effect=0.08, y_covariate_effect=0.30,
    )


def discrete_rare_params(rng):
    return dataclasses.replace(
        random_rare_binary_params(rng),
        discrete=True,
        x_intercept=0.40, x_group_effect=0.15,
        m_intercept=0.35, m_group_effect=0.10, m_early_effect=0.20,
    )


def test_01_additive_and_ratio_identities(capsys):
    """Reported quantities recompose on 50 datasets, every defined combo.

    Additive scale: initial = residual + reduction to 1e-10. Ratio scale:
    initial = residual * reduction to 1e-10 relative. Confounder-aware
    propositions are covered on the confounded datasets (they are only
    defined for the plug-in family); the plug-in family is covered on the
    discrete datasets (it refuses continuous measures by design). Budget:
    under ten seconds for all 50.
    """
    with verdict(capsys, "1/10 additive and ratio identities on 50 datasets"):
        started = time.perf_counter()

        def check_additive(e):
            assert abs(e.initial - (e.residual + e.reduction)) <= 1e-10

        def check_ratio(e):
            assert abs(e.initial - e.residual * e.reduction) <= 1e-10 * abs(e.initial)

        for i in range(20):  # continuous measures: parametric families
            d = generate(random_continuous_params(np.random.default_rng(100 + i)), 800, seed=200 + i)
            for prop in PROPS:
                for family in PARAMETRIC:
                    check_additive(estimate(d, AnalysisSpec(prop, family)))

        for i in range(15):  # discrete + confounder: all three families
            d = generate(discrete_confounded_params(np.random.default_rng(300 + i)), 1500, seed=400 + i)
            for prop in PROPS:
                for family in PARAMETRIC + ("PLUGIN",):
                    check_additive(estimate(d, AnalysisSpec(prop, family)))
            for prop in ("P5", "P6", "P7"):
                check_additive(estimate(d, AnalysisSpec(prop, "PLUGIN")))

        for i in range(10):  # rare binary outcome, continuous measures: ratio scale
            d = generate(random_rare_binary_params(np.random.default_rng(500 + i)), 4000, seed=600 + i)
            for prop in PROPS:
                for family in PARAMETRIC:
                    check_ratio(estimate(d, AnalysisSpec(prop, family, outcome_family="RARE_BINARY")))

        for i in range(5):  # rare binary outcome, discrete measures: plug-in ratio
            d = generate(discrete_rare_params(np.random.default_rng(700 + i)), 4000, seed=800 + i)
            for prop in PROPS:
                check_ratio(estimate(d, AnalysisSpec(prop, "PLUGIN", outcome_family="RARE_BINARY")))

        assert time.perf_counter() - started < 10.0


def test_02_nested_vs_product_equivalence(capsys):
    """The two parametric families agree to 1e-8 relative on 50 samples.

    Same fitted least-squares system read two ways (coefficient shifts vs
    coefficient products), so agreement is floating-point-exact algebra.
    """
    with verdict(capsys, "2/10 nested-regression vs coefficient-product agreement"):
        for i in range(50):
            d = generate(random_continuous_params(np.random.default_rng(1000 + i)), 500, seed=1100 + i)
            for prop in PROPS:
                a = estimate(d, AnalysisSpec(prop, "SUCCESSIVE"))
                b = estimate(d, AnalysisSpec(prop, "PRODUCT"))
                assert close(a.initial, b.initial, 1e-8)
                assert close(a.residual, b.residual, 1e-8)
                assert close(a.reduction, b.reduction, 1e-8)
                if a.proportion_reduced is not None and b.proportion_reduced is not None:
                    assert close(a.proportion_reduced, b.proportion_reduced, 1e-8)


def _cells_mask(d, **level):
    mask = np.ones(d.n_rows, dtype=bool)
    for col, v in level.items():
        mask &= d.column(col) == v
    return mask


def _cell_mean(d, **level):
    return float(d.column("outcome")[_cells_mask(d, **level)].mean())


def _cell_prob(d, col, value, **given):
    base = _cells_mask(d, **given)
    return float((d.column(col)[base] == value).sum() / base.sum())


def _enumerated(d, prop, x_star):
    """(initial, residual, reduction) by direct sums over the binary cells.

    Within each covariate level: standardize group-1 cell means over the
    intervention's reference distribution (early and/or target measure taken
    from group 0, except the early measure stays group-1 for the
    marginal-target intervention). Covariate levels aggregate with group-1
    shares, the reporting default.
    """
    levels = (0.0, 1.0)
    totals = np.zeros(3)
    for cv in levels:
        w = _cell_prob(d, "covariate", cv, group=1.0)
        if prop == "P1":
            mu = sum(
                _cell_mean(d, group=1.0, early=xv, covariate=cv)
                * _cell_prob(d, "early", xv, group=0.0, covariate=cv)
                for xv in levels
            )
            g1 = _cell_mean(d, group=1.0, covariate=cv)
            g0 = _cell_mean(d, group=0.0, covariate=cv)
        elif prop == "P2":
            mu = sum(
                _cell_mean(d, group=1.0, early=x_star, target=mv, covariate=cv)
                * _cell_prob(d, "target", mv, group=0.0, early=x_star, covariate=cv)
                for mv in levels
            )
            g1 = _cell_mean(d, group=1.0, early=x_star, covariate=cv)
            g0 = _cell_mean(d, group=0.0, early=x_star, covariate=cv)
        else:  # P3: joint equalization of early and target measures
            mu = sum(
                _cell_mean(d, group=1.0, early=xv, target=mv, covariate=cv)
                * _cell_prob(d, "target", mv, group=0.0, early=xv, covariate=cv)
                * _cell_prob(d, "early", xv, group=0.0, covariate=cv)
                for xv in levels
                for mv in levels
            )
            g1 = _cell_mean(d, group=1.0, covariate=cv)
            g0 = _cell_mean(d, group=0.0, covariate=cv)
        totals += w * np.array([g1 - g0, mu - g0, g1 - mu])
    return totals


def test_03_plugin_enumeration_and_saturated_fit(capsys):
    """Plug-in standardization equals a from-scratch enumeration oracle.

    Fully discrete cohorts (binary group, early, target, covariate): the
    plug-in answer must match probability-weighted sums computed directly
    from cell counts to 1e-12, and must match the saturated least-squares
    route (fitted cell means instead of raw ones) to 1e-8.
    """
    with verdict(capsys, "3/10 plug-in equals enumeration oracle and saturated fit"):
        for i in range(12):
            d = generate(discrete_covariate_params(np.random.default_rng(2000 + i)), 2500, seed=2100 + i)
            x1 = d.column("early")[d.column("group") == 1.0]
            x_star = min((0.0, 1.0), key=lambda level: (level - float(x1.mean())) ** 2)
            fitted = d.with_columns({"outcome": saturated_fit(d)})
            for prop in ("P1", "P2", "P3"):
                e = plugin_mu(d, AnalysisSpec(prop, "PLUGIN"))
                initial, residual, reduction = _enumerated(d, prop, x_star)
                assert abs(e.initial - initial) <= 1e-12
                assert abs(e.residual - residual) <= 1e-12
                assert abs(e.reduction - reduction) <= 1e-12
                s = plugin_mu(fitted, AnalysisSpec(prop, "PLUGIN"))
                assert abs(e.initial - s.initial) <= 1e-8
                assert abs(e.residual - s.residual) <= 1e-8
                assert abs(e.reduction - s.reduction) <= 1e-8


def test_04_constant_confounder_collapse_is_bitwise(capsys):
    """With a constant confounder, P5/P6/P7 equal P2/P3/P4 bit for bit.

    The confounder-aware loop then runs over one pseudo-level carrying
    probability exactly 1.0 on identical row masks, so every float matches.
    """
    with verdict(capsys, "4/10 constant-confounder collapse is bitwise"):
        for i in range(10):
            rng = np.random.default_rng(3000 + i)
            params = discrete_covariate_params(rng) if i % 2 else random_discrete_params(rng)
            d = generate(params, 1200, seed=3100 + i)
            flat = d.with_columns(
                {"steady": np.full(d.n_rows, 4.0)}, roles={"confounder": "steady"}
            )
            for heavy, base in (("P5", "P2"), ("P6", "P3"), ("P7", "P4")):
                a = estimate(flat, AnalysisSpec(heavy, "PLUGIN"))
                b = estimate(flat, AnalysisSpec(base, "PLUGIN"))
                assert a.initial == b.initial
                assert a.residual == b.residual
                assert a.reduction == b.reduction
                assert a.proportion_reduced == b.proportion_reduced


def test_05_stratified_equals_pooled_interaction(capsys):
    """Group-stratified route matches the pooled interaction-model formulas.

    The explained/unexplained split from two per-group fits and the linear
    combinations of one group-interacted fit are the same numbers to 1e-8,
    for all four propositions on 50 covariate-free samples.
    """
    with verdict(capsys, "5/10 group-stratified route equals pooled-interaction fit"):
        for i in range(50):
            d = generate(random_continuous_params(np.random.default_rng(4000 + i)), 400, seed=4100 + i)
            for prop in PROPS:
                spec = AnalysisSpec(prop, "SUCCESSIVE")
                a = proposition_via_oaxaca(d, spec)
                b = interaction_model_estimates(d, spec)
                assert close(a.initial, b.initial, 1e-8)
                assert close(a.residual, b.residual, 1e-8)
                assert close(a.reduction, b.reduction, 1e-8)


CONTINUOUS_SETTINGS = (
    StructuralParams(group_share=0.50, x_group_effect=0.6,
                     m_group_effect=0.4, m_early_effect=0.3,
                     y_group_effect=0.3, y_early_effect=0.4, y_target_effect=0.5),
    StructuralParams(group_share=0.30, x_group_effect=-0.5,
                     m_group_effect=0.3, m_early_effect=-0.4,
                     y_group_effect=0.2, y_early_effect=0.5, y_target_effect=0.4),
    StructuralParams(group_share=0.60, x_group_effect=0.4,
                     m_group_effect=-0.3, m_early_effect=0.5,
                     y_group_effect=-0.2, y_early_effect=0.3, y_target_effect=0.6,
                     y_noise_sd=1.2),
    StructuralParams(group_share=0.45, x_group_effect=0.7,
                     m_group_effect=0.2, m_early_effect=0.2,
                     y_group_effect=0.4, y_early_effect=-0.3, y_target_effect=0.5),
    StructuralParams(group_share=0.55, x_group_effect=-0.4,
                     m_group_effect=0.5, m_early_effect=0.3,
                     y_group_effect=0.1, y_early_effect=0.4, y_target_effect=-0.4,
                     x_noise_sd=0.8),
    StructuralParams(group_share=0.40, x_group_effect=0.5,
                     m_group_effect=0.4, m_early_effect=0.4,
                     y_group_effect=0.3, y_early_effect=0.2, y_target_effect=0.3,
                     m_noise_sd=1.2),
)

DISCRETE_SETTINGS = (
    StructuralParams(group_share=0.50, x_intercept=0.40, x_group_effect=0.20,
                     m_intercept=0.30, m_group_effect=0.15, m_early_effect=0.20,
                     y_group_effect=0.3, y_early_effect=0.4, y_target_effect=0.5,
                     discrete=True),
    StructuralParams(group_share=0.35, x_intercept=0.45, x_group_effect=0.15,
                     m_intercept=0.35, m_group_effect=0.10, m_early_effect=0.15,
                     y_group_effect=-0.3, y_early_effect=0.5, y_target_effect=0.4,
                     discrete=True),
    StructuralParams(group_share=0.60, x_intercept=0.35, x_group_effect=0.25,
                     m_intercept=0.30, m_group_effect=0.20, m_early_effect=0.20,
                     y_group_effect=0.2, y_early_effect=-0.4, y_target_effect=0.6,
                     discrete=True),
    StructuralParams(group_share=0.45, x_intercept=0.40, x_group_effect=0.10,
                     m_intercept=0.25, m_group_effect=0.15, m_early_effect=0.25,
                     y_group_effect=0.4, y_early_effect=0.3, y_target_effect=-0.5,
                     discrete=True),
)


def test_06_families_recover_generator_truth(capsys):
    """Estimates hit the closed-form truths within Monte Carlo error.

    Ten generator settings, n=100000, 20 seeds each: every family's
    reduction estimate (averaged over seeds) must land within three
    empirical standard errors of the closed-form value, for all four
    propositions. Plug-in is scored on the discrete settings, where its
    strata are well defined. Budget: under five minutes in total.
    """
    with verdict(capsys, "6/10 families recover generator ground truth (3 MC SEs)"):
        started = time.perf_counter()
        n, n_seeds = 100_000, 20
        settings = [(p, PARAMETRIC) for p in CONTINUOUS_SETTINGS]
        settings += [(p, PARAMETRIC + ("PLUGIN",)) for p in DISCRETE_SETTINGS]

        for idx, (params, families) in enumerate(settings):
            draws = {(f, p): [] for f in families for p in PROPS}
            for k in range(n_seeds):
                d = generate(params, n, seed=10_000 + 97 * idx + k)
                for family in families:
                    for prop in PROPS:
                        e = estimate(d, AnalysisSpec(prop, family))
                        draws[(family, prop)].append(e.reduction)
            for (family, prop), values in draws.items():
                values = np.asarray(values)
                truth = true_values(params, prop).reduction
                se = values.std(ddof=1) / math.sqrt(n_seeds)
                assert abs(values.mean() - truth) <= 3.0 * se, (
                    f"setting {idx}, {family} {prop}: mean {values.mean():.6f} "
                    f"vs truth {truth:.6f} (3 SE = {3 * se:.6f})"
                )
        assert time.perf_counter() - started < 300.0


def test_07_rare_outcome_ratio_tracks_plugin(capsys):
    """At 1% prevalence the log-linear ratio read tracks standardization.

    One large cohort (n=200000), early and target measures decile-binned:
    the nested-logistic marginal-target residual ratio must come within 10%
    relative of the plug-in standardized ratio. At 20% prevalence the
    rare-outcome approximation is no longer trustworthy and the estimator
    must say so with a PrevalenceWarning.
    """
    with verdict(capsys, "7/10 rare-outcome ratio approximation within 10%"):
        params = StructuralParams(
            group_share=0.45, x_group_effect=-0.4,
            m_group_effect=-0.3, m_early_effect=0.4,
            y_group_effect=0.3, y_early_effect=0.15, y_target_effect=0.25,
            binary_outcome=True, outcome_prevalence=0.01,
        )
        d = quantile_bin(generate(params, 200_000, seed=0), ["early", "target"], bins=10)
        succ = estimate(d, AnalysisSpec("P4", "SUCCESSIVE", outcome_family="RARE_BINARY"))
        plug = estimate(d, AnalysisSpec("P4", "PLUGIN", outcome_family="RARE_BINARY"))
        assert abs(succ.residual - plug.residual) <= 0.10 * abs(plug.residual)

        common = dataclasses.replace(params, outcome_prevalence=0.20)
        d20 = generate(common, 20_000, seed=1)
        with pytest.warns(PrevalenceWarning):
            estimate(d20, AnalysisSpec("P4", "SUCCESSIVE", outcome_family="RARE_BINARY"))


def _attainable_range(initial_2dp, residual_2dp):
    """Range of (i-r)/i over pairs rounding to the given two-decimal pair.

    The proportion is monotone in each argument over a rectangle that keeps
    the initial away from zero and the residual's sign fixed, so the corner
    values bound the attainable range.
    """
    corners = [
        (i - r) / i
        for i in (initial_2dp - 0.005, initial_2dp + 0.005)
        for r in (residual_2dp - 0.005, residual_2dp + 0.005)
    ]
    return min(corners), max(corners)


def test_08_proportion_arithmetic_after_rounding(capsys):
    """Percent-reduced arithmetic is consistent with two-decimal reporting.

    For each printed (initial, residual) pair, the printed percentage must
    be attainable from some pair that rounds to those two decimals; the
    canonical pair itself must reproduce to three decimals; and a reduction
    past the whole disparity (251%) must round-trip through the same
    arithmetic rather than being clamped.
    """
    with verdict(capsys, "8/10 proportion-reduced arithmetic under 2dp rounding"):
        p = proportion_reduced(-0.41, -0.30)
        assert round(p, 3) == 0.268
        lo, hi = _attainable_range(-0.41, -0.30)
        assert lo <= 0.26 <= hi

        lo, hi = _attainable_range(-0.14, -0.02)
        assert lo <= 0.85 <= hi
        assert round(proportion_reduced(-0.14, -0.02), 2) == 0.86  # unrounded inputs land next door

        lo, hi = _attainable_range(-0.04, 0.06)
        assert lo <= 2.51 <= hi
        over = proportion_reduced(-0.04, 0.0604)
        assert over > 1.0
        assert round(100 * over) == 251


def test_09_bootstrap_determinism_and_spread(capsys, tmp_path):
    """Same seed, same bytes; spread matches the analytic SE of a mean.

    Replicate counts default to 1000. A full CLI run with bootstrap enabled
    must write byte-identical reports when repeated. Bootstrapping the
    sample mean of 10000 draws with 1000 replicates must land within 15% of
    sigma/sqrt(n).
    """
    with verdict(capsys, "9/10 bootstrap determinism, default B, spread accuracy"):
        assert DEFAULT_REPLICATES == 1000
        assert inspect.signature(bootstrap).parameters["b"].default == 1000
        assert inspect.signature(bootstrap_statistic).parameters["b"].default == 1000

        cohort = tmp_path / "cohort.csv"
        write_csv(generate(CONTINUOUS_SETTINGS[0], 600, seed=7), cohort)
        report, table = tmp_path / "report.json", tmp_path / "table.txt"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input": str(cohort),
            "bindings": {"outcome": "outcome", "group": "group",
                         "early": ["early"], "target": "target"},
            "runs": [
                {"proposition": "P1", "estimator": "SUCCESSIVE"},
                {"proposition": "P4", "estimator": "PRODUCT"},
            ],
            "bootstrap": {"replicates": 40, "seed": 11},
            "output": {"report": str(report), "table": str(table)},
        }), encoding="utf-8")
        assert main(["run", str(config)]) == 0
        first = report.read_bytes(), table.read_bytes()
        assert main(["run", str(config)]) == 0
        assert (report.read_bytes(), table.read_bytes()) == first

        y = np.random.default_rng(77).normal(size=10_000)
        d = dataset_from({"y": y}, {"outcome": "y"})
        summary = bootstrap_statistic(d, lambda dd: float(np.mean(dd.column("y"))), b=1000, seed=5)
        analytic = float(np.std(y, ddof=1)) / math.sqrt(10_000)
        assert abs(summary.quantities["statistic"].se - analytic) <= 0.15 * analytic


def test_10_affine_invariance_of_marginal_target_split(capsys):
    """Rescaling the early measure cannot move the marginal-target answer.

    The marginal-target intervention only uses the early measure as a
    regressor/stratifier, so x -> a*x + b (a in {0.1, 10}, b in {-5, 7})
    must leave residual and reduction unchanged to 1e-8 relative for the
    parametric and stratified routes, and for the plug-in family (where the
    recode is a pure relabeling of the binary levels).
    """
    with verdict(capsys, "10/10 marginal-target split invariant to affine recoding"):
        d = generate(random_continuous_params(np.random.default_rng(900)), 2000, seed=901)
        dd = generate(random_discrete_params(np.random.default_rng(902)), 2000, seed=903)
        base = {family: estimate(d, AnalysisSpec("P4", family)) for family in PARAMETRIC}
        base["interactions"] = proposition_via_oaxaca(d, AnalysisSpec("P4", "SUCCESSIVE"))
        base["PLUGIN"] = estimate(dd, AnalysisSpec("P4", "PLUGIN"))

        for a in (0.1, 10.0):
            for b in (-5.0, 7.0):
                recoded = d.with_columns({"early": a * d.column("early") + b})
                relabeled = dd.with_columns({"early": a * dd.column("early") + b})
                moved = {family: estimate(recoded, AnalysisSpec("P4", family)) for family in PARAMETRIC}
                moved["interactions"] = proposition_via_oaxaca(recoded, AnalysisSpec("P4", "SUCCESSIVE"))
                moved["PLUGIN"] = estimate(relabeled, AnalysisSpec("P4", "PLUGIN"))
                for route, e in moved.items():
                    assert close(e.residual, base[route].residual, 1e-8), (route, a, b)
                    assert close(e.reduction, base[route].reduction, 1e-8), (route, a, b)
