"""Structural-equation generator with closed-form decomposition truths.

The generating process mirrors the assumed causal ordering: group -> early
measure -> (optional confounder) -> target -> outcome, everything linear in
the means. Because the means are linear, each intervention's true residual
and reduction are simple polynomial expressions in the structural
coefficients, which makes this module the ground-truth oracle for every
estimator family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .analysis import DecompositionEstimate, Proposition, Scale
from .data import Dataset, Role
from .errors import InvalidSpec, UnsupportedMode
from .regression import expit


@dataclass(frozen=True)
class StructuralParams:
    """Coefficients of the generating equations.

    Continuous mode draws normal noise around each linear mean; discrete mode
    draws the early measure and target as Bernoulli with the linear mean as
    success probability (so the closed-form truths still apply). The optional
    confounder sits between the early measure and the target and feeds both
    the target and the outcome; the optional binary covariate shifts
    everything downstream of it. Binary-outcome mode replaces the linear
    outcome equation by a logistic draw whose intercept is tuned to hit
    ``outcome_prevalence``.
    """

    group_share: float = 0.5

    x_intercept: float = 0.0
    x_group_effect: float = 0.0
    x_noise_sd: float = 1.0

    m_intercept: float = 0.0
    m_group_effect: float = 0.0
    m_early_effect: float = 0.0
    m_noise_sd: float = 1.0

    y_intercept: float = 0.0
    y_group_effect: float = 0.0
    y_early_effect: float = 0.0
    y_target_effect: float = 0.0
    y_noise_sd: float = 1.0

    confounder: bool = False
    l_intercept: float = 0.0
    l_group_effect: float = 0.0
    l_early_effect: float = 0.0
    l_noise_sd: float = 1.0
    m_confounder_effect: float = 0.0
    y_confounder_effect: float = 0.0

    covariate_share: float | None = None
    x_covariate_effect: float = 0.0
    m_covariate_effect: float = 0.0
    y_covariate_effect: float = 0.0

    discrete: bool = False
    binary_outcome: bool = False
    outcome_prevalence: float | None = None

    def __post_init__(self):
        if not 0.0 < self.group_share < 1.0:
            raise InvalidSpec("group_share must be strictly between 0 and 1")
        for name in ("x_noise_sd", "m_noise_sd", "y_noise_sd", "l_noise_sd"):
            if getattr(self, name) < 0.0:
                raise InvalidSpec(f"{name} must be nonnegative")
        if self.covariate_share is not None and not 0.0 < self.covariate_share < 1.0:
            raise InvalidSpec("covariate_share must be strictly between 0 and 1")
        if self.binary_outcome and self.outcome_prevalence is None:
            raise InvalidSpec("binary_outcome requires outcome_prevalence")
        if self.outcome_prevalence is not None and not 0.0 < self.outcome_prevalence < 1.0:
            raise InvalidSpec("outcome_prevalence must be strictly between 0 and 1")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


def _bernoulli_from_mean(rng, mean: np.ndarray, what: str) -> np.ndarray:
    low, high = float(mean.min()), float(mean.max())
    if low < 1e-9 or high > 1.0 - 1e-9:
        raise InvalidSpec(
            f"discrete mode needs the {what} mean inside (0, 1); got range "
            f"[{low:.3g}, {high:.3g}] — shrink the coefficients"
        )
    return (rng.random(mean.shape[0]) < mean).astype(float)


def _prevalence_intercept(shift: np.ndarray, target: float) -> float:
    """Bisect the outcome intercept so mean(expit(c + shift)) hits target."""
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.mean(expit(mid + shift))) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def generate(params: StructuralParams, n: int, seed: int = 0) -> Dataset:
    """Draw n rows from the structural equations; deterministic given seed."""
    if n < 1:
        raise InvalidSpec("n must be at least 1")
    rng = np.random.default_rng(seed)
    p = params

    columns: dict[str, np.ndarray] = {}
    roles: dict[str, object] = {
        "outcome": "outcome", "group": "group", "early": ["early"], "target": "target",
    }

    group = (rng.random(n) < p.group_share).astype(float)
    covariate = None
    if p.covariate_share is not None:
        covariate = (rng.random(n) < p.covariate_share).astype(float)
        columns["covariate"] = covariate
        roles["covariate"] = ["covariate"]

    def plus_covariate(mean, effect):
        return mean if covariate is None else mean + effect * covariate

    early_mean = plus_covariate(p.x_intercept + p.x_group_effect * group, p.x_covariate_effect)
    if p.discrete:
        early = _bernoulli_from_mean(rng, early_mean, "early-measure")
    else:
        early = early_mean + rng.normal(0.0, p.x_noise_sd, n)

    confounder = None
    if p.confounder:
        l_mean = p.l_intercept + p.l_group_effect * group + p.l_early_effect * early
        if p.discrete:
            confounder = _bernoulli_from_mean(rng, l_mean, "confounder")
        else:
            confounder = l_mean + rng.normal(0.0, p.l_noise_sd, n)
        columns["confounder"] = confounder
        roles["confounder"] = "confounder"

    target_mean = plus_covariate(
        p.m_intercept + p.m_group_effect * group + p.m_early_effect * early,
        p.m_covariate_effect,
    )
    if confounder is not None:
        target_mean = target_mean + p.m_confounder_effect * confounder
    if p.discrete:
        target = _bernoulli_from_mean(rng, target_mean, "target")
    else:
        target = target_mean + rng.normal(0.0, p.m_noise_sd, n)

    shift = plus_covariate(
        p.y_group_effect * group + p.y_early_effect * early + p.y_target_effect * target,
        p.y_covariate_effect,
    )
    if confounder is not None:
        shift = shift + p.y_confounder_effect * confounder
    if p.binary_outcome:
        intercept = _prevalence_intercept(shift, p.outcome_prevalence)
        outcome = (rng.random(n) < expit(intercept + shift)).astype(float)
    else:
        outcome = p.y_intercept + shift + rng.normal(0.0, p.y_noise_sd, n)

    columns.update({"outcome": outcome, "group": group, "early": early, "target": target})
    return Dataset(columns, roles)


def true_values(params: StructuralParams, proposition) -> DecompositionEstimate:
    """Closed-form population residual/reduction for the linear-mean process.

    Available when the outcome equation is linear and no confounder is in
    play (discrete early/target are fine — their means are still linear).
    Other configurations have no closed form here; estimate them by plug-in
    on a large generated sample instead.
    """
    prop = Proposition(proposition)
    if params.binary_outcome or params.confounder:
        raise UnsupportedMode(
            "closed-form truths cover the linear no-confounder process only"
        )
    group_gap_early = params.x_group_effect                      # E[X|1] - E[X|0]
    group_gap_target = params.m_group_effect + params.m_early_effect * group_gap_early
    direct = params.y_group_effect
    via_early = group_gap_early * params.y_early_effect
    via_target = group_gap_target * params.y_target_effect

    if prop == Proposition.P1:
        residual = direct + params.m_group_effect * params.y_target_effect
        reduction = via_early + group_gap_early * params.m_early_effect * params.y_target_effect
    elif prop == Proposition.P2:
        residual = direct
        reduction = params.m_group_effect * params.y_target_effect
    elif prop == Proposition.P3:
        residual = direct
        reduction = via_early + via_target
    elif prop == Proposition.P4:
        residual = direct + via_early
        reduction = via_target
    else:
        raise UnsupportedMode(f"no closed-form truth for {prop.value}")

    return DecompositionEstimate.of(prop, Scale.ADDITIVE, residual + reduction, residual,
                                    reduction, "TRUTH")
