import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import dataset_from
from gapdecomp import DesignMatrix, fit_logistic, fit_ols
from gapdecomp.errors import InvalidSpec, RankDeficient, Separation
from gapdecomp.regression import INTERCEPT


def design(columns, labels=None):
    mat = np.column_stack([np.ones(len(next(iter(columns.values()))))] + list(columns.values()))
    return DesignMatrix((INTERCEPT, *(labels or columns.keys())), mat)


def test_ols_intercept_only_is_mean():
    d = DesignMatrix((INTERCEPT,), np.ones((8, 1)))
    fit = fit_ols(d, np.full(8, 5.0))
    assert fit[INTERCEPT] == pytest.approx(5.0, abs=1e-12)


def test_ols_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = fit_ols(design({"x": x}), 2.0 * x)
    assert fit[INTERCEPT] == pytest.approx(0.0, abs=1e-12)
    assert fit["x"] == pytest.approx(2.0, abs=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(5)
    x1, x2 = rng.normal(size=5), rng.normal(size=5)
    y = rng.normal(size=5)
    fit = fit_ols(design({"x1": x1, "x2": x2}), y)

    X = np.column_stack([np.ones(5), x1, x2])
    beta = np.linalg.inv(X.T @ X) @ (X.T @ y)  # explicit 3x3 inversion
    np.testing.assert_allclose(fit.values, beta, atol=1e-10)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(6)
    cols = {f"x{j}": rng.normal(size=60) for j in range(4)}
    y = rng.normal(size=60)
    dm = design(cols)
    fit = fit_ols(dm, y)
    resid = y - dm.matrix @ fit.values
    scale = np.abs(y).max()
    assert np.abs(dm.matrix.T @ resid).max() < 1e-8 * scale


def test_nested_model_coefficient_shift_identity():
    # dropping a column moves the kept coefficient by slope x auxiliary slope
    rng = np.random.default_rng(8)
    r = (rng.random(200) < 0.5).astype(float)
    x = 0.7 * r + rng.normal(size=200)
    y = 1.0 + 0.5 * r - 0.8 * x + rng.normal(size=200)

    full = fit_ols(design({"r": r, "x": x}), y)
    reduced = fit_ols(design({"r": r}), y)
    aux = fit_ols(design({"r": r}), x)
    lhs = reduced["r"]
    rhs = full["r"] + full["x"] * aux["r"]
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_ols_rank_deficient_names_columns():
    x = np.arange(6.0)
    with pytest.raises(RankDeficient) as err:
        fit_ols(design({"x": x, "double_x": 2.0 * x}), np.ones(6))
    assert "double_x" in str(err.value) or "x" in str(err.value)


def test_ols_more_columns_than_rows():
    with pytest.raises(RankDeficient):
        fit_ols(design({"a": np.ones(2) * 2, "b": [1.0, 2.0]}), np.ones(2))


def test_design_matrix_from_dataset_interactions():
    d = dataset_from(
        {"y": [1.0, 2.0, 3.0, 4.0], "r": [0, 1, 0, 1], "x": [1.0, 2.0, 3.0, 4.0]},
        {"outcome": "y", "group": "r"},
    )
    dm = DesignMatrix.from_dataset(d, ["r", "x"], np.arange(4), interactions=[("r", "x")])
    assert dm.labels == (INTERCEPT, "r", "x", "r:x")
    np.testing.assert_array_equal(dm.matrix[:, 3], [0.0, 2.0, 0.0, 4.0])


def test_design_matrix_from_dataset_refuses_a_repeated_column():
    d = dataset_from({"y": [1.0, 2.0, 3.0], "x": [1.0, 2.0, 4.0]}, {"outcome": "y"})
    with pytest.raises(InvalidSpec, match="column 'x' is listed more than once"):
        DesignMatrix.from_dataset(d, ["x", "x"])


def test_design_matrix_requires_intercept_first():
    from gapdecomp.errors import UnknownColumn

    with pytest.raises(UnknownColumn):
        DesignMatrix(("x",), np.arange(4.0).reshape(4, 1))


# -- logistic -----------------------------------------------------------------


def test_logistic_balanced_intercept_zero():
    y = np.array([0.0, 1.0] * 20)
    fit = fit_logistic(DesignMatrix((INTERCEPT,), np.ones((40, 1))), y)
    assert fit[INTERCEPT] == pytest.approx(0.0, abs=1e-8)
    assert fit.converged


def test_logistic_two_by_two_closed_form():
    # counts (y=1|r=1, y=0|r=1, y=1|r=0, y=0|r=0) = (10, 40, 20, 30)
    r = np.concatenate([np.ones(50), np.zeros(50)])
    y = np.concatenate([np.ones(10), np.zeros(40), np.ones(20), np.zeros(30)])
    fit = fit_logistic(design({"r": r}), y)
    assert fit["r"] == pytest.approx(np.log(0.375), abs=1e-8)
    assert fit[INTERCEPT] == pytest.approx(np.log(20.0 / 30.0), abs=1e-8)


def test_logistic_gradient_vanishes_at_solution():
    rng = np.random.default_rng(12)
    x = rng.normal(size=500)
    z = rng.normal(size=500)
    p = 1.0 / (1.0 + np.exp(-(-0.4 + 0.9 * x - 0.6 * z)))
    y = (rng.random(500) < p).astype(float)
    dm = design({"x": x, "z": z})
    fit = fit_logistic(dm, y)
    mu = 1.0 / (1.0 + np.exp(-(dm.matrix @ fit.values)))
    gradient = dm.matrix.T @ (y - mu)
    assert np.abs(gradient).max() < 1e-6


def test_logistic_separation():
    x = np.linspace(-2, 2, 40)
    y = (x > 0).astype(float)
    with pytest.raises(Separation):
        fit_logistic(design({"x": x}), y)


def test_logistic_requires_binary_outcome():
    with pytest.raises(InvalidSpec):
        fit_logistic(DesignMatrix((INTERCEPT,), np.ones((10, 1))), np.full(10, 0.5))
    with pytest.raises(InvalidSpec):
        fit_logistic(DesignMatrix((INTERCEPT,), np.ones((10, 1))), np.zeros(10))


def test_logistic_matches_irls_rewrite_oracle():
    # independent implementation: Newton steps on the log-likelihood
    rng = np.random.default_rng(21)
    x = rng.normal(size=300)
    p = 1.0 / (1.0 + np.exp(-(0.3 - 0.7 * x)))
    y = (rng.random(300) < p).astype(float)
    dm = design({"x": x})
    fit = fit_logistic(dm, y)

    beta = np.zeros(2)
    for _ in range(60):
        eta = dm.matrix @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = mu * (1.0 - mu)
        hess = dm.matrix.T @ (dm.matrix * w[:, None])
        step = np.linalg.solve(hess, dm.matrix.T @ (y - mu))
        beta = beta + step
        if np.abs(step).max() < 1e-12:
            break
    np.testing.assert_allclose(fit.values, beta, atol=1e-8)


def test_rank_deficiency_names_the_first_dependent_column_in_declared_order():
    x = np.arange(6.0)
    with pytest.raises(RankDeficient) as err:
        fit_ols(design({"x": x, "double_x": 2.0 * x, "z": x ** 2}), np.ones(6))
    assert err.value.columns == ("double_x",)
    # a constant column depends on the intercept, whatever its position
    with pytest.raises(RankDeficient) as err:
        fit_ols(design({"x": x, "flat": np.full(6, 3.0)}), x)
    assert err.value.columns == ("flat",)


def test_a_rank_check_reads_the_column_past_the_prefix_only_when_asked(monkeypatch):
    from gapdecomp.regression import TriangularFactor

    rng = np.random.default_rng(44)
    a, b = rng.normal(size=40), rng.normal(size=40)
    factor = TriangularFactor.of((INTERCEPT, "a", "b", "c", "y"),
                                 [1.0, a, b, 2.0 * a - b, rng.normal(size=40)])
    norms = []
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kw: norms.append(1))
    factor.check_rank(3)  # "c", just past the prefix, is not read
    with pytest.raises(RankDeficient) as err:
        factor.check_rank(4)
    assert err.value.columns == ("c",)
    assert norms == []  # every prefix reads the one check made with the factor


def test_exactly_fitted_or_constant_response_is_not_rank_checked():
    x = np.arange(6.0)
    assert fit_ols(design({"x": x}), 3.0 - x)["x"] == pytest.approx(-1.0, abs=1e-12)
    assert fit_ols(design({"x": x}), np.zeros(6))["x"] == 0.0


def test_a_design_column_labelled_response_is_not_taken_for_the_response():
    rng = np.random.default_rng(43)
    x, z = rng.normal(size=50), rng.normal(size=50)
    y = 1.0 + 2.0 * x - z + rng.normal(size=50)
    named = fit_ols(design({"x": x, "response": z}), y)
    renamed = fit_ols(design({"x": x, "z": z}), y)
    assert named.labels == (INTERCEPT, "x", "response")
    assert np.array_equal(named.values, renamed.values)
    assert named.residual_variance == renamed.residual_variance


@pytest.mark.parametrize("fit", [fit_ols, fit_logistic])
def test_a_response_of_another_length_than_the_design_is_refused_by_name(fit):
    from gapdecomp.errors import UnknownColumn

    with pytest.raises(UnknownColumn, match="column 'response' has 4 rows, expected 5"):
        fit(design({"x": np.arange(5.0)}), np.array([0.0, 1.0, 0.0, 1.0]))


def test_prefix_fits_of_one_factor_equal_separate_fits_bitwise():
    from gapdecomp.regression import TriangularFactor

    rng = np.random.default_rng(40)
    cols = {name: rng.normal(size=120) for name in ("a", "b", "c", "y")}
    factor = TriangularFactor.of((INTERCEPT, *cols), [1.0, *cols.values()])
    for q, names in ((2, ["a"]), (3, ["a", "b"]), (4, ["a", "b", "c"])):
        shared = factor.fit("y", q)
        alone = fit_ols(design({k: cols[k] for k in names}), cols["y"])
        assert np.array_equal(shared.values, alone.values)
        # the residual norm also passes through the reflectors of later columns
        assert shared.residual_variance == pytest.approx(alone.residual_variance, rel=1e-12)
    # a later column regressed on an earlier prefix: b on (1, a)
    aux = factor.fit("b", 2)
    assert np.array_equal(aux.values, fit_ols(design({"a": cols["a"]}), cols["b"]).values)


def test_a_factor_holds_one_block_of_its_sample():
    import tracemalloc

    from gapdecomp.regression import TriangularFactor

    rng = np.random.default_rng(41)
    n = 200_000
    columns = [1.0, *(rng.normal(size=n) for _ in range(5))]
    rows = rng.random(n) < 0.98
    tracemalloc.start()
    try:
        factor = TriangularFactor.of(tuple("abcdef"), columns, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factor.n_rows == np.count_nonzero(rows)
    # the row indices (8 bytes a row) and one 10,000×6 block; the n×6 copy alone is 9.4 MB
    assert peak < 3e6


def test_a_mask_of_every_row_folds_by_slices():
    import tracemalloc

    from gapdecomp.regression import TriangularFactor

    rng = np.random.default_rng(42)
    n = 200_000
    columns = [1.0, *(rng.normal(size=n) for _ in range(5))]
    tracemalloc.start()
    try:
        factor = TriangularFactor.of(tuple("abcdef"), columns, np.ones(n, bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 10,000×6 block (480 kB) and no row indices (1.6 MB)
    assert factor.n_rows == n and peak < 1e6
    assert np.array_equal(factor.r, TriangularFactor.of(tuple("abcdef"), columns, np.arange(n)).r)


def test_a_logistic_fit_checks_rank_on_the_factor_its_caller_holds():
    from gapdecomp.regression import TriangularFactor

    rng = np.random.default_rng(42)
    x, z = rng.normal(size=300), rng.normal(size=300)
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(2.0 - 0.5 * x))).astype(float)
    for cols in ({"x": x, "z": z}, {"x": x, "z": 2.0 * x}):
        factor = TriangularFactor.of((INTERCEPT, *cols, "y"), [1.0, *cols.values(), y])
        dm = design(cols)
        assert np.array_equal(factor.r[:3, :3], TriangularFactor.of(dm.labels, list(dm.matrix.T)).r)
        try:
            own = fit_logistic(dm, y)
        except RankDeficient as exc:
            with pytest.raises(RankDeficient, match=f"^{exc}$"):
                fit_logistic(dm, y, factor)
        else:
            shared = fit_logistic(dm, y, factor)
            assert np.array_equal(shared.values, own.values) and shared.deviance == own.deviance


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-700.0, 700.0), max_size=40), st.data())
def test_the_deviance_from_the_shared_exponential_matches_logaddexp(eta, data):
    from gapdecomp.regression import _binomial_deviance, exp_neg_abs

    eta = np.array([*eta, 0.0, 700.0, -700.0])
    y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=eta.size,
                                    max_size=eta.size)))
    sign = 1.0 - 2.0 * y
    want = float(2.0 * np.sum(np.logaddexp(0.0, sign * eta)))
    assert _binomial_deviance(eta, sign, exp_neg_abs(eta)) == pytest.approx(want, rel=1e-14)


def test_non_finite_cells_are_refused_by_column_before_any_fit():
    from gapdecomp.errors import AnalysisError, NonFiniteCell

    x = np.arange(10.0)
    y = np.array([0.0, 1.0] * 5)
    for bad in (np.nan, np.inf, -np.inf):
        z = x.copy()
        z[3] = bad
        for fit in (fit_ols, fit_logistic):
            with pytest.raises(NonFiniteCell, match=r"column 'z' holds .* in row 3") as err:
                fit(design({"x": x, "z": z}), y)
            assert isinstance(err.value, AnalysisError)
            with pytest.raises(NonFiniteCell, match="column 'response'"):
                fit(design({"x": x}), np.where(x == 3, bad, y))


def test_cells_that_overflow_the_factor_are_refused_by_column():
    import warnings

    from gapdecomp.errors import NonFiniteCell

    # finite cells whose squares overflow: the factor's column norm is infinite
    x = np.arange(6.0)
    z = np.where(x == 2, 1e200, x)
    y = np.array([0.0, 1.0] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal comes without an overflow warning
        for fit in (fit_ols, fit_logistic):
            with pytest.raises(NonFiniteCell, match="column 'z' holds cells too large"):
                fit(design({"x": x, "z": z}), y)
        with pytest.raises(NonFiniteCell, match="column 'response' holds cells too large"):
            fit_ols(design({"x": x}), np.where(x == 2, -1e200, y))


# -- Gram-matrix Newton steps against the QR IRLS ------------------------------


def _qr_binomial_deviance(eta, y):
    return float(2.0 * np.sum(y * np.logaddexp(0.0, -eta) + (1.0 - y) * np.logaddexp(0.0, eta)))


def qr_irls(design, y):
    """The logistic fit whose every Newton step is the weighted least-squares
    solve of the QR kernel, rank-checked on each weighted design."""
    import math

    from gapdecomp.errors import NotConverged
    from gapdecomp.regression import CoefficientSet, TriangularFactor, expit

    y = np.asarray(y, dtype=float)
    n, k = design.matrix.shape
    if n <= k:
        raise RankDeficient(design.labels)
    classes = np.unique(y)
    if not np.array_equal(classes, [0.0, 1.0]):
        raise InvalidSpec("logistic outcome must contain both 0s and 1s (only)")

    mat = design.matrix
    beta = np.zeros(k)
    m = float(y.mean())
    beta[0] = math.log(m) - math.log1p(-m)
    eta = mat @ beta
    deviance = _qr_binomial_deviance(eta, y)
    previous_step = np.inf
    previous_norm = float(np.max(np.abs(beta)))
    divergence_run = 0

    for iteration in range(1, 101):
        p = expit(eta)
        w = np.clip(p * (1.0 - p), 1e-12, None)
        root_w = np.sqrt(w)
        weighted = np.empty((n, k + 1), order="F")
        np.multiply(mat, root_w[:, None], out=weighted[:, :k])
        np.divide(y - p, root_w, out=weighted[:, k])
        factor = TriangularFactor.of((*design.labels, "response"), list(weighted.T))
        delta = factor.fit("response", k).values
        beta = beta + delta
        step = float(np.max(np.abs(delta)))
        eta = mat @ beta  # carried into the next iteration
        new_deviance = _qr_binomial_deviance(eta, y)
        norm = float(np.max(np.abs(beta)))
        if norm > 1e3 and step >= previous_step:
            raise Separation(
                "logistic fit diverging (coefficient norm "
                f"{norm:.3g} after {iteration} iterations)"
            )
        if norm > previous_norm:
            divergence_run += 1
            if divergence_run >= 40:
                raise Separation(
                    "logistic fit diverging (coefficient norm grew for "
                    f"{divergence_run} straight iterations, reaching "
                    f"{norm:.3g}; the likelihood has no finite maximizer)"
                )
        else:
            divergence_run = 0
        previous_norm = norm
        if step < 1e-10 or abs(deviance - new_deviance) < 1e-12:
            break
        deviance = new_deviance
        previous_step = step
    else:
        iteration = None
    # below 2 ln 2, every row's fitted probability of its own outcome is above 1/2
    if new_deviance < 2 * math.log(2):
        raise Separation(f"logistic fit separates the outcome (deviance {new_deviance:.3g})")
    if iteration is None:
        raise NotConverged("logistic fit did not converge in 100 iterations")
    return CoefficientSet(
        design.labels, beta, deviance=new_deviance, n_iter=iteration, converged=True,
    )


def logistic_problem(prevalence, log_scales, kinds, seed):
    """(design, y, column scales): one regressor per kind, normal if True
    and 0/1 if not, scaled by 10**log_scale; about 40 events per column."""
    k = len(kinds)
    scales = 10.0 ** np.array(log_scales, dtype=float)
    rng = np.random.default_rng(seed)
    n = max(300, int(40 * (k + 1) / prevalence))
    raw = [rng.normal(size=n) if kind else (rng.random(n) < 0.3).astype(float) for kind in kinds]
    slopes = rng.uniform(-0.8, 0.8, size=k)
    eta = sum((b * col for b, col in zip(slopes, raw)), np.zeros(n))
    eta += np.log(prevalence / (1.0 - prevalence)) - eta.mean()
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    mat = np.column_stack([np.ones(n), *(c * s for c, s in zip(raw, scales))])
    return DesignMatrix((INTERCEPT, *(f"x{j}" for j in range(k))), mat), y, scales


@st.composite
def logistic_problems(draw):
    """`logistic_problem`s of 0-5 regressors, each scaled by 10**[-3, 3];
    prevalence 2-50%."""
    k = draw(st.integers(0, 5))
    prevalence = draw(st.floats(0.02, 0.5))
    log_scales = [draw(st.floats(-3.0, 3.0)) for _ in range(k)]
    kinds = [draw(st.booleans()) for _ in range(k)]
    problem = logistic_problem(prevalence, log_scales, kinds, draw(st.integers(0, 2**32 - 1)))
    assume(10 <= problem[1].sum() <= problem[1].size - 10)
    return problem


@settings(max_examples=40, deadline=None)
@given(logistic_problems())
def test_gram_newton_matches_the_qr_irls(problem):
    dm, y, scales = problem
    fit, oracle = fit_logistic(dm, y), qr_irls(dm, y)
    assert abs(fit.n_iter - oracle.n_iter) <= 1
    assert fit.deviance == pytest.approx(oracle.deviance, rel=1e-10)
    # a slope times its column's scale is its effect on the linear predictor
    effect = fit.values * np.r_[1.0, scales]
    reference = oracle.values * np.r_[1.0, scales]
    np.testing.assert_allclose(
        effect, reference, rtol=1e-10, atol=1e-10 * max(1.0, np.abs(reference).max())
    )


@settings(max_examples=25, deadline=None)
@given(logistic_problems(), st.integers(0, 2**32 - 1), st.floats(0.05, 0.5))
# separated designs whose deviance stops changing, or whose fit runs out of
# iterations, before either divergence rule fires
@example(problem=logistic_problem(0.5, [1, -3, 0], [False] * 3, 4), seed=4, share=0.25)
@example(problem=logistic_problem(0.5, [2, -1], [True, False], 1), seed=1, share=0.5)
def test_both_steps_refuse_a_separated_design(problem, seed, share):
    dm, _, _ = problem
    assume(dm.matrix.shape[1] > 1)
    # y = 1 exactly where a linear score of the regressors is in its top share
    score = dm.matrix[:, 1:] @ np.random.default_rng(seed).normal(size=dm.matrix.shape[1] - 1)
    y = (score > np.quantile(score, 1.0 - share)).astype(float)
    assume(0 < y.sum() < y.size)
    with pytest.raises(Separation):
        fit_logistic(dm, y)
    with pytest.raises(Separation):
        qr_irls(dm, y)


@settings(max_examples=25, deadline=None)
@given(logistic_problems(), st.data())
def test_both_steps_name_the_same_dependent_columns(problem, data):
    dm, y, _ = problem
    k = dm.matrix.shape[1]
    source = data.draw(st.integers(0, k - 1), label="copied column")
    at = data.draw(st.integers(1, k), label="insert position")
    copy = 2.0 * dm.matrix[:, source] + 3.0  # depends on the intercept and its source
    labels = (*dm.labels[:at], "copy", *dm.labels[at:])
    dependent = DesignMatrix(labels, np.insert(dm.matrix, at, copy, axis=1))
    with pytest.raises(RankDeficient) as fit_error:
        fit_logistic(dependent, y)
    with pytest.raises(RankDeficient) as oracle_error:
        qr_irls(dependent, y)
    assert fit_error.value.columns == oracle_error.value.columns
    assert fit_error.value.columns == (("copy",) if source < at else (dm.labels[source],))


def test_a_step_the_cholesky_factorization_refuses_is_the_qr_solve(monkeypatch):
    def refuse(h):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    rng = np.random.default_rng(23)
    x, z = rng.normal(size=400), 1e3 * rng.normal(size=400)
    y = (rng.random(400) < 1.0 / (1.0 + np.exp(1.5 - 0.8 * x))).astype(float)
    dm = design({"x": x, "z": z})
    gram = fit_logistic(dm, y)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    fallback, oracle = fit_logistic(dm, y), qr_irls(dm, y)
    assert np.array_equal(fallback.values, oracle.values)
    assert (fallback.deviance, fallback.n_iter) == (oracle.deviance, oracle.n_iter)
    np.testing.assert_allclose(gram.values, oracle.values, rtol=1e-10)
