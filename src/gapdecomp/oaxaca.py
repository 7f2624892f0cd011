"""Group-gap decompositions from group-stratified regressions.

`oaxaca_decompose` splits a gap into an explained portion (covariate-mean
gaps weighted by the reference group's coefficients) and an unexplained
portion (intercept gap plus coefficient gaps weighted at fixed covariate
values), within strata of conditioning variables at a fixed profile. With no
conditioning variables the split is marginal: the same algebra, with each
auxiliary fit intercept-only.

Each group's rows of a run's `parametric.Sample` are factored once: one
triangular factor R of [1, conditioning…, explanatory…, y] (see
regression.py), which `parametric.sample_factor` builds and memoizes in the
sample's memo, as it does the pooled factors: runs share it. Every stratified
quantity regresses a column on a prefix of the columns before it, so each is
a prefix solve on that R: the outcome model takes every column before y, the
model-based group mean of an explanatory variable at the profile takes
[1, conditioning…], and a plain group mean (the default profile, the
within-early anchor) takes [1].

`proposition_via_oaxaca` maps the four interventions onto those pieces, and
`interaction_model_estimates` computes the same quantities from a single
pooled regression with group interactions, fit on its own. On samples where
the conditioning set is empty (or fully group-interacted) the stratified and
pooled routes are the same algebra, and the test suite runs both to confirm
it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .analysis import (
    AnalysisSpec,
    DecompositionEstimate,
    Estimator,
    Proposition,
    Scale,
    validate_spec,
)
from .data import Dataset, Role
from .errors import EmptyGroup, InvalidSpec
from .parametric import Sample, sample_factor, _model_name, _run_roles
from .regression import INTERCEPT, DesignMatrix, fit_ols


@dataclass(frozen=True)
class OBResult:
    """Aggregate and per-term split of a group gap.

    unexplained_terms carries the intercept gap, one coefficient-gap term per
    explanatory variable, and (conditional mode) one per conditioning
    variable; explained_terms carries one mean-gap term per explanatory
    variable. Aggregates are the exact sums of their terms.
    """

    mode: str
    total_gap: float
    unexplained: float
    explained: float
    unexplained_terms: Mapping[str, float]
    explained_terms: Mapping[str, float]
    profile: Mapping[str, float]
    reference: str
    models: Mapping[str, Mapping[str, float]]


class _GroupFactors:
    """One triangular factor per group of [1, conditioning…, explanatory…, y]
    (`sample_factor`), over the group's analysis rows of the sample `s`."""

    def __init__(self, s: Sample, explanatory: Sequence[str], conditioning: Sequence[str]):
        self.y = s.d.single_role_column(Role.OUTCOME)
        self.explanatory, self.conditioning = list(explanatory), list(conditioning)
        self.factors = sample_factor(s, [*self.conditioning, *self.explanatory, self.y],
                                     s.d.single_role_column(Role.GROUP))
        for g in (1, 0):
            if not self.factors[g].n_rows:
                raise EmptyGroup(f"no usable rows in group {g}")

    def outcome_fit(self, g: int):
        return self.factors[g].fit(self.y, 1 + len(self.conditioning) + len(self.explanatory))

    def mean(self, g: int, name: str) -> float:
        """Group mean of a listed column: its intercept-only fit."""
        return self.factors[g].fit(name, 1)[INTERCEPT]

    def conditional_means(self, g: int, variables, profile_values) -> dict[str, float]:
        """Model-based E[V | group, conditioning = profile] for each variable."""
        q = 1 + len(self.conditioning)
        out = {}
        for name in variables:
            beta = self.factors[g].fit(name, q).values
            out[name] = beta[0] + float(np.dot(profile_values, beta[1:]))
        return out

    def profile(self, anchored: Sequence[str] = (), explicit: float | None = None):
        """Conditioning profile: each `anchored` column at `explicit` (when
        given) or its group-1 mean, every other column at its group-0 mean."""
        def value(name):
            if name not in anchored:
                return self.mean(0, name)
            return self.mean(1, name) if explicit is None else float(explicit)

        return {name: value(name) for name in self.conditioning}


def _split(groups: _GroupFactors, reference: str, profile: Mapping[str, float]) -> OBResult:
    """Explained/unexplained split of the model-implied gap at `profile`."""
    explanatory, conditioning, y = groups.explanatory, groups.conditioning, groups.y
    fit1, fit0 = groups.outcome_fit(1), groups.outcome_fit(0)
    labels = (INTERCEPT, *explanatory, *conditioning)
    models = {
        f"group{g}: {_model_name(y, labels[1:])}": {label: fit[label] for label in labels}
        for g, fit in ((1, fit1), (0, fit0))
    }
    profile = {name: float(profile[name]) for name in conditioning}
    profile_values = np.array([profile[name] for name in conditioning])
    means1 = groups.conditional_means(1, explanatory, profile_values)
    means0 = groups.conditional_means(0, explanatory, profile_values)

    def implied_mean(fit, means):
        return fit[INTERCEPT] \
            + sum(fit[v] * means[v] for v in explanatory) \
            + float(np.dot(profile_values, [fit[name] for name in conditioning]))

    reference_fit = fit1 if reference == "group1" else fit0
    weight_means = means0 if reference == "group1" else means1

    explained_terms = {
        v: reference_fit[v] * (means1[v] - means0[v]) for v in explanatory
    }
    unexplained_terms = {INTERCEPT: fit1[INTERCEPT] - fit0[INTERCEPT]}
    for v in explanatory:
        unexplained_terms[v] = (fit1[v] - fit0[v]) * weight_means[v]
    for c in conditioning:
        unexplained_terms[c] = (fit1[c] - fit0[c]) * profile[c]

    return OBResult(
        mode="CONDITIONAL" if conditioning else "MARGINAL",
        total_gap=implied_mean(fit1, means1) - implied_mean(fit0, means0),
        unexplained=sum(unexplained_terms.values()),
        explained=sum(explained_terms.values()),
        unexplained_terms=unexplained_terms,
        explained_terms=explained_terms,
        profile=profile,
        reference=reference,
        models=models,
    )


def oaxaca_decompose(
    d: Dataset,
    explanatory: Sequence[str],
    conditioning: Sequence[str] = (),
    reference: str = "group1",
    profile: Mapping[str, float] | None = None,
) -> OBResult:
    """Explained/unexplained split of the group gap in the outcome.

    Marginal mode (no conditioning variables) decomposes the gap in means.
    Conditional mode decomposes the model-implied gap at a fixed
    conditioning profile (default: group-0 means), with the conditioning
    coefficients' gaps entering the unexplained portion evaluated at that
    profile. Reference coefficients default to the group-1 fit. The rows are
    those complete in the outcome, the group and every listed column.
    """
    if reference not in ("group1", "group0"):
        raise InvalidSpec("reference must be 'group1' or 'group0'")
    y, r = d.single_role_column(Role.OUTCOME), d.single_role_column(Role.GROUP)
    bound = d.with_roles({Role.OUTCOME: y, Role.GROUP: r, Role.COVARIATE: (*conditioning, *explanatory)})
    groups = _GroupFactors(Sample(bound), explanatory, conditioning)
    return _split(groups, reference, groups.profile() if profile is None else profile)


def _bind(d: Dataset, spec: AnalysisSpec):
    """(proposition, bound dataset, y, r, xs, c, m) of a stratified run; the
    spec is validated as written, then as the "interactions" request this
    answers, whatever its options say."""
    bound = spec.resolve(d, Estimator.SUCCESSIVE, Estimator.PRODUCT)
    validate_spec(replace(spec, options={**spec.options, "interactions": True}), bound)
    return spec.proposition, bound, *_run_roles(bound)


def proposition_via_oaxaca(d: Dataset, spec: AnalysisSpec) -> DecompositionEstimate:
    """Each intervention's residual/reduction read off an explained/unexplained split.

    P1: early measures explain the gap within covariate strata. P2: the
    target explains the gap within (early, covariate) strata, anchored at
    the early profile. P3: early and target explain jointly. P4: only the
    target's detailed explained term counts as reduction; the early
    measures' explained share stays in the residual.
    """
    return _stratified(Sample(_bind(d, spec)[1]), spec)


def _groups(s: Sample, spec: AnalysisSpec):
    """The `_GroupFactors` of a stratified run on `s` (validate_spec leaves P1-P4) and its profile."""
    prop, (_, _, xs, c, m) = spec.proposition, _run_roles(s.d)
    if prop == Proposition.P2:  # the target within the early measures, at their anchor
        groups = _GroupFactors(s, [m], xs + c)
        return groups, groups.profile(xs, spec.conditioning_value_x)
    groups = _GroupFactors(s, xs if prop == Proposition.P1 else xs + [m], c)
    return groups, groups.profile()


def _stratified(s: Sample, spec: AnalysisSpec) -> DecompositionEstimate:
    """`proposition_via_oaxaca` on the sample `s` of the dataset `spec` binds, validated."""
    prop, (_, _, xs, c, m) = spec.proposition, _run_roles(s.d)
    groups, profile = _groups(s, spec)
    ob = _split(groups, "group1", profile)
    notes = [f"anchored at early-measure profile {ob.profile}"] if prop == Proposition.P2 else []
    residual, reduction = ob.unexplained, ob.explained
    if prop == Proposition.P4:
        reduction = ob.explained_terms[m]
        residual += sum(ob.explained_terms[x] for x in xs)
        notes.append(
            "early-measure explained terms are part of the residual: the "
            "intervention equalizes the target marginally and leaves the "
            "early measures' group association intact"
        )
    return DecompositionEstimate.of(prop, Scale.ADDITIVE, residual + reduction, residual, reduction,
                                    f"{spec.estimator.value}+interactions", ob.models, notes)


def interaction_model_estimates(d: Dataset, spec: AnalysisSpec) -> DecompositionEstimate:
    """The same four decompositions from one pooled, group-interacted fit.

    The outcome is regressed on group, the explanatory variables, their
    group interactions, and the covariates; residual/reduction are linear
    combinations of the group main effect, the interaction coefficients, and
    group-specific explanatory means. Mirrors proposition_via_oaxaca exactly
    when no covariates are bound.
    """
    prop, bound, y, r, xs, c, m = _bind(d, spec)

    explanatory = xs if prop == Proposition.P1 else xs + [m]
    s, interactions = Sample(bound), [(r, v) for v in explanatory]
    design = DesignMatrix.from_dataset(bound, [r, *explanatory, *c], rows=s.mask,
                                       interactions=interactions)
    fit = fit_ols(design, bound.column(y)[s.mask])
    models = {_model_name(y, [r, *explanatory, *c]
                          + [f"{r}:{v}" for v in explanatory]): fit.as_dict()}

    def slope(v):
        return fit[v] + fit[f"{r}:{v}"]

    groups, profile = _groups(s, spec)  # the explanatory variables' group means at the profile
    values = np.array(list(profile.values()))
    mean1 = groups.conditional_means(1, groups.explanatory, values)
    mean0 = groups.conditional_means(0, groups.explanatory, values)
    notes = []
    if prop == Proposition.P2:  # the target's, at the early anchor (and covariate profile)
        anchor = {x: profile[x] for x in xs}
        residual = fit[r] + sum(fit[f"{r}:{x}"] * anchor[x] for x in xs) \
            + fit[f"{r}:{m}"] * mean0[m]
        reduction = slope(m) * (mean1[m] - mean0[m])
        notes.append(f"anchored at early-measure profile {anchor}")
    elif prop == Proposition.P4:
        residual = fit[r] \
            + sum(fit[x] * (mean1[x] - mean0[x]) for x in xs) \
            + sum(fit[f"{r}:{x}"] * mean1[x] for x in xs) \
            + fit[f"{r}:{m}"] * mean0[m]
        reduction = slope(m) * (mean1[m] - mean0[m])
    else:  # P1 and P3: the explanatory variables are the early measures (and the target)
        residual = fit[r] + sum(fit[f"{r}:{v}"] * mean0[v] for v in explanatory)
        reduction = sum(slope(v) * (mean1[v] - mean0[v]) for v in explanatory)
    return DecompositionEstimate.of(prop, Scale.ADDITIVE, residual + reduction, residual, reduction,
                                    "POOLED_INTERACTION", models, notes)
