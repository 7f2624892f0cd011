import numpy as np
import pytest

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


def test_exactly_fitted_or_constant_response_is_not_rank_checked():
    x = np.arange(6.0)
    assert fit_ols(design({"x": x}), 3.0 - x)["x"] == pytest.approx(-1.0, abs=1e-12)
    assert fit_ols(design({"x": x}), np.zeros(6))["x"] == 0.0


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
