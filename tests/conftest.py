"""Shared builders for the test suite."""

import numpy as np

from gapdecomp import Dataset, Role, StructuralParams


def dataset_from(columns, roles):
    return Dataset({k: np.asarray(v, dtype=float) for k, v in columns.items()}, roles)


def saturated_fit(d):
    """Outcome fitted by least squares on one indicator per observed
    (group, early, target, covariate) cell: each cell's mean, up to solver
    precision, computed without the stratum table."""
    names = [d.single_role_column(Role.GROUP), *d.role_columns(Role.EARLY),
             *d.role_columns(Role.TARGET), *d.covariate_names()]
    cells = np.unique(np.column_stack([d.column(name) for name in names]),
                      axis=0, return_inverse=True)[1].ravel()
    design = (cells[:, None] == np.arange(cells.max() + 1)).astype(float)
    y = d.column(d.single_role_column(Role.OUTCOME))
    return design @ np.linalg.lstsq(design, y, rcond=None)[0]


def signed(rng, lo, hi):
    return float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))


def random_continuous_params(rng):
    """Structural coefficients with every pathway active and mixed signs."""
    return StructuralParams(
        group_share=float(rng.uniform(0.25, 0.75)),
        x_intercept=signed(rng, 0.0, 0.5),
        x_group_effect=signed(rng, 0.2, 0.8),
        x_noise_sd=float(rng.uniform(0.6, 1.4)),
        m_intercept=signed(rng, 0.0, 0.5),
        m_group_effect=signed(rng, 0.2, 0.8),
        m_early_effect=signed(rng, 0.2, 0.8),
        m_noise_sd=float(rng.uniform(0.6, 1.4)),
        y_intercept=signed(rng, 0.0, 0.5),
        y_group_effect=signed(rng, 0.2, 0.8),
        y_early_effect=signed(rng, 0.2, 0.8),
        y_target_effect=signed(rng, 0.2, 0.8),
        y_noise_sd=float(rng.uniform(0.6, 1.4)),
    )


def random_discrete_params(rng):
    """Bernoulli early/target; coefficients kept small so cell means stay
    inside (0, 1) for every (group, early) combination."""
    return StructuralParams(
        group_share=float(rng.uniform(0.3, 0.7)),
        x_intercept=float(rng.uniform(0.3, 0.5)),
        x_group_effect=float(rng.uniform(0.05, 0.25)),
        m_intercept=float(rng.uniform(0.25, 0.4)),
        m_group_effect=float(rng.uniform(0.05, 0.2)),
        m_early_effect=float(rng.uniform(0.05, 0.25)),
        y_intercept=signed(rng, 0.0, 0.5),
        y_group_effect=signed(rng, 0.2, 0.8),
        y_early_effect=signed(rng, 0.2, 0.8),
        y_target_effect=signed(rng, 0.2, 0.8),
        y_noise_sd=float(rng.uniform(0.6, 1.4)),
        discrete=True,
    )


def random_rare_binary_params(rng, prevalence=0.05):
    return StructuralParams(
        group_share=float(rng.uniform(0.35, 0.65)),
        x_group_effect=signed(rng, 0.2, 0.5),
        m_group_effect=signed(rng, 0.1, 0.4),
        m_early_effect=signed(rng, 0.1, 0.4),
        y_group_effect=signed(rng, 0.1, 0.4),
        y_early_effect=signed(rng, 0.1, 0.3),
        y_target_effect=signed(rng, 0.1, 0.3),
        binary_outcome=True,
        outcome_prevalence=prevalence,
    )


def two_by_two_crossed():
    """The 2×2 closed-form sample (y = 1 in 10 of 50 rows with r = 1 and in
    20 of 50 with r = 0) once for each (x, m) in {0, 1}²: every fitted slope
    but the group's is exactly 0, and each logistic model's deviance is four
    times the 2×2 sample's."""
    rows = {"y": [], "r": [], "x": [], "m": []}
    for x in (0.0, 1.0):
        for m in (0.0, 1.0):
            for r, positives in ((1.0, 10), (0.0, 20)):
                rows["y"] += [1.0] * positives + [0.0] * (50 - positives)
                rows["r"] += [r] * 50
                rows["x"] += [x] * 50
                rows["m"] += [m] * 50
    return dataset_from(rows, {"outcome": "y", "group": "r", "early": ["x"], "target": "m"})


TWO_BY_TWO_DEVIANCE = -8.0 * (10 * np.log(0.2) + 40 * np.log(0.8) + 20 * np.log(0.4) + 30 * np.log(0.6))


#: The discrete cohort of the `batch` benchmark: binary early, target,
#: confounder and covariate.
BATCH_PARAMS = StructuralParams(
    group_share=0.4, covariate_share=0.3, discrete=True, confounder=True,
    x_intercept=0.35, x_group_effect=0.2, x_covariate_effect=0.1,
    l_intercept=0.3, l_group_effect=0.1, l_early_effect=0.2,
    m_intercept=0.25, m_group_effect=0.1, m_early_effect=0.15,
    m_confounder_effect=0.15, m_covariate_effect=0.1,
    y_group_effect=-0.3, y_early_effect=0.4, y_target_effect=0.5,
    y_confounder_effect=0.3, y_covariate_effect=0.2,
)


def batch_cohort(n, seed=3):
    """A `batch`-shaped cohort of n rows, roles bound, with 1% of the outcome
    and covariate cells blank."""
    from gapdecomp import generate

    d = generate(BATCH_PARAMS, n, seed=seed)
    rng = np.random.default_rng([seed, 1])
    columns = dict(d.columns)
    for name in ("outcome", "covariate"):
        columns[name] = np.where(rng.random(n) < 0.01, np.nan, columns[name])
    return Dataset(columns, dict(d.roles))
