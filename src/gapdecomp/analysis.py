"""Shared vocabulary: propositions, estimator families, run specs, estimates.

Every family ends in the same closing step: `DecompositionEstimate.of` turns
(initial, residual, reduction) into an estimate, with the proportion reduced
(`proportion_reduced`, None with a note for a null initial disparity) and the
within-X anchor note that P2 and P5 carry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .data import Dataset, Role, is_integer, normalize_roles
from .errors import DegenerateInitial, InvalidSpec


class Proposition(str, Enum):
    """Which distribution-equalizing intervention is being evaluated.

    P1 equalizes the early measures X; P2 equalizes the target M within
    levels of X; P3 equalizes X and M jointly; P4 equalizes M marginally.
    P5/P6/P7 are P2/P3/P4 in the presence of a post-X confounder of the
    target-outcome relation, handled by the plug-in estimator only.
    """

    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    P6 = "P6"
    P7 = "P7"


TIMEDEP_PROPOSITIONS = (Proposition.P5, Proposition.P6, Proposition.P7)

#: Which plain proposition each confounder-aware one collapses to.
TIMEDEP_BASE = {
    Proposition.P5: Proposition.P2,
    Proposition.P6: Proposition.P3,
    Proposition.P7: Proposition.P4,
}


class Estimator(str, Enum):
    SUCCESSIVE = "SUCCESSIVE"  # nested regressions, coefficient differences
    PRODUCT = "PRODUCT"        # outcome/target/early models, coefficient products
    PLUGIN = "PLUGIN"          # nonparametric standardization over strata


class OutcomeFamily(str, Enum):
    CONTINUOUS = "CONTINUOUS"
    RARE_BINARY = "RARE_BINARY"


class Scale(str, Enum):
    ADDITIVE = "ADDITIVE"  # initial = residual + reduction
    RATIO = "RATIO"        # initial = residual * reduction


#: Attached to every within-X estimate: its reported starting point is the
#: early-measure-conditional gap, which differs from the marginal gap the
#: other propositions start from.
P2_ANCHOR_NOTE = (
    "initial disparity for this proposition is anchored at the early-measure-"
    "conditional gap, not the marginal gap"
)


@dataclass(frozen=True)
class AnalysisSpec:
    """Declarative description of one decomposition run.

    Parameters
    ----------
    proposition, estimator, outcome_family :
        What to estimate and with which family.
    bindings :
        Optional role -> column-name overrides; when None the dataset's own
        role map is used.
    conditioning_value_x :
        The early-measure value at which the within-X propositions (P2/P5)
        are anchored. Defaults to the group-1 mean of X (parametric paths)
        or the stratum closest to it (plug-in path). A single finite number
        (not a bool or a string), so `validate_spec` also refuses it when
        several early columns are bound.
    options :
        Estimator knobs; `validate_spec` refuses any key the estimator does
        not read and any value outside the ones listed. SUCCESSIVE and
        PRODUCT read "interactions" (True or False: route P1-P4 through the
        group-stratified decomposition instead of the pooled no-interaction
        formulas; continuous outcomes with no bound confounder only). PLUGIN
        reads "max_levels" (an integer >= 1, default 20) and
        "aggregation_weight" ("group1", "group0" or "pooled", default
        "group1").
    """

    proposition: Proposition
    estimator: Estimator
    outcome_family: OutcomeFamily = OutcomeFamily.CONTINUOUS
    bindings: Mapping | None = None
    conditioning_value_x: float | None = None
    options: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "proposition", Proposition(self.proposition))
        object.__setattr__(self, "estimator", Estimator(self.estimator))
        object.__setattr__(self, "outcome_family", OutcomeFamily(self.outcome_family))

    def option(self, key: str, default=None):
        return self.options.get(key, default)

    def resolve(self, d: Dataset, *estimators: Estimator) -> Dataset:
        """Dataset with this spec's bindings applied, after validation.

        Bindings are merged over the dataset's own role map: a role named in
        the spec replaces that role's columns, all other roles carry over.
        The bound dataset shares `d`'s memo (`Dataset.with_roles`). An entry
        point that runs only `estimators` names them: a spec naming another
        estimator is refused by name, not relabelled.
        """
        if estimators and self.estimator not in estimators:
            raise InvalidSpec(f"this entry point runs {' or '.join(e.value for e in estimators)}, "
                              f"not {self.estimator.value}; estimate() routes a spec to its estimator")
        bound = d.with_roles({**d.roles, **normalize_roles(self.bindings)}) if self.bindings else d
        validate_spec(self, bound)
        return bound


def is_finite_number(value) -> bool:
    """A real number, not a bool, that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


_INTERACTIONS = ("True or False", lambda v: isinstance(v, bool))

#: Each estimator's option keys, with the values each key accepts: a
#: description for the refusal, and the test a value must pass.
_OPTIONS = {
    Estimator.SUCCESSIVE: {"interactions": _INTERACTIONS},
    Estimator.PRODUCT: {"interactions": _INTERACTIONS},
    Estimator.PLUGIN: {
        "max_levels": ("an integer >= 1", lambda v: is_integer(v) and v >= 1),
        "aggregation_weight": ("'group1', 'group0' or 'pooled'",
                               lambda v: v in ("group1", "group0", "pooled")),
    },
}


def validate_spec(spec: AnalysisSpec, d: Dataset) -> None:
    """Check that `d` can answer `spec` as written, before any math.

    This is the one place that decides it: the estimators assume a request
    that passed here. Raises InvalidSpec naming the violated constraint.
    """
    table = _OPTIONS[spec.estimator]
    unknown = sorted(set(spec.options) - set(table))
    if unknown:
        raise InvalidSpec(f"unknown option(s) {unknown} for {spec.estimator.value}; "
                          f"it reads {list(table)}")
    for key, value in spec.options.items():
        accepted, test = table[key]
        if not test(value):
            raise InvalidSpec(f"option {key!r} of {spec.estimator.value} must be "
                              f"{accepted}, got {value!r}")
    bound = [(name, role.value) for role, names in d.roles.items() for name in names]
    for i, (name, _) in enumerate(bound):
        if any(name == other for other, _ in bound[:i]):
            roles = " and ".join(role for other, role in bound if other == name)
            raise InvalidSpec(f"column {name!r} is bound more than once, as {roles}; "
                              "each column plays one role")
    if spec.option("interactions") and d.role_columns(Role.CONFOUNDER_L):
        raise InvalidSpec(
            "a post-early confounder of the target is declared; the "
            "stratified-regression decomposition cannot absorb it into either "
            "portion — use the confounder-aware plug-in propositions instead"
        )
    if spec.outcome_family == OutcomeFamily.RARE_BINARY and spec.estimator != Estimator.PLUGIN:
        if spec.option("interactions"):
            raise InvalidSpec(
                "the group-stratified (interactions) route has no ratio-scale form; "
                "it would answer a RARE_BINARY request on the additive scale"
            )
        if len(d.role_columns(Role.EARLY)) > 1:
            raise InvalidSpec("the ratio-scale decomposition expects a single early measure")
    for role in (Role.OUTCOME, Role.GROUP):
        if not d.role_columns(role):
            raise InvalidSpec(f"spec requires a bound {role.value} column")
    if spec.outcome_family == OutcomeFamily.RARE_BINARY:
        outcome = d.single_role_column(Role.OUTCOME)
        y = d.column(outcome)
        if ((y != 0.0) & (y != 1.0) & (y == y)).any():  # y == y: not missing
            raise InvalidSpec(f"RARE_BINARY outcome column {outcome!r} must be 0/1 in every non-missing cell")
    if not d.role_columns(Role.EARLY):
        raise InvalidSpec("spec requires at least one early-measure column")
    cvx = spec.conditioning_value_x
    if cvx is not None:
        if not is_finite_number(cvx):
            raise InvalidSpec(f"conditioning_value_x must be a finite number, got {cvx!r}")
        if len(d.role_columns(Role.EARLY)) > 1:
            raise InvalidSpec(
                "conditioning_value_x is a single number; with several early "
                "columns leave it unset (the group-1 means anchor them)"
            )
    needs_target = not (
        spec.proposition == Proposition.P1 and spec.estimator != Estimator.PRODUCT
    )
    if needs_target and not d.role_columns(Role.TARGET):
        raise InvalidSpec(f"{spec.proposition.value} requires a bound target column")
    if spec.proposition in TIMEDEP_PROPOSITIONS:
        if spec.estimator != Estimator.PLUGIN:
            raise InvalidSpec(
                f"{spec.proposition.value} is implemented by the PLUGIN estimator only; "
                f"SUCCESSIVE and PRODUCT answer P1-P4, got {spec.estimator.value}"
            )
        if not d.role_columns(Role.CONFOUNDER_L):
            raise InvalidSpec(f"{spec.proposition.value} requires a confounder binding")
    if spec.estimator == Estimator.PRODUCT:
        if len(d.role_columns(Role.EARLY)) != 1 or len(d.role_columns(Role.TARGET)) != 1:
            raise InvalidSpec(
                "PRODUCT estimator requires exactly one early column and one target column"
            )


_DEGENERACY_TOL = 1e-12

#: What an estimate reports, and a bootstrap summarizes.
QUANTITIES = ("initial", "residual", "reduction", "proportion_reduced")


def proportion_reduced(initial: float, residual: float, scale=Scale.ADDITIVE) -> float:
    """Fraction of the initial disparity removed by the intervention.

    On the additive scale this is (initial - residual) / initial; for
    ratio-scale quantities the relative version (initial - residual) /
    (initial - 1) is used, which treats a ratio of 1 as "no disparity".
    Values outside [0, 1] are legitimate (overshoot / sign flips).

    `scale` is a Scale or its name in any case; "RELATIVE" names RATIO.

    Raises
    ------
    DegenerateInitial
        When the denominator is within 1e-12 of zero.
    InvalidSpec
        When `scale` names no scale.
    """
    name = scale.upper() if isinstance(scale, str) else None
    resolved = Scale.RATIO if name == "RELATIVE" else Scale.__members__.get(name)
    if resolved is None:
        raise InvalidSpec(f"unknown scale {scale!r}; expected ADDITIVE or RATIO")
    if resolved == Scale.ADDITIVE:
        if abs(initial) <= _DEGENERACY_TOL:
            raise DegenerateInitial(
                f"initial disparity {initial!r} is null; proportion reduced is undefined"
            )
        return (initial - residual) / initial
    if abs(initial - 1.0) <= _DEGENERACY_TOL:
        raise DegenerateInitial(
            f"initial ratio {initial!r} is 1; relative proportion reduced is undefined"
        )
    return (initial - residual) / (initial - 1.0)


def proportion_with_note(initial, residual, scale):
    """proportion_reduced, but degeneracy becomes (None, explanatory note)."""
    try:
        return proportion_reduced(initial, residual, scale), ()
    except DegenerateInitial as err:
        return None, (str(err),)


@dataclass(frozen=True)
class DecompositionEstimate:
    """One proposition's answer: where the disparity starts and what remains.

    On the ADDITIVE scale initial = residual + reduction; on the RATIO scale
    initial = residual * reduction. `proportion_reduced` is None (with a note)
    when the initial disparity is too close to null for the ratio to mean
    anything. `coefficients` snapshots the fitted models the estimate was read
    from (parametric families only); `logistic_fits` holds each logistic
    outcome model's `n_iter`, `converged` and `deviance` (RARE_BINARY only).
    Every family builds its estimates with `of`.
    """

    proposition: Proposition
    scale: Scale
    initial: float
    residual: float
    reduction: float
    proportion_reduced: float | None
    estimator: str
    coefficients: Mapping[str, Mapping[str, float]] | None = None
    notes: tuple[str, ...] = ()
    logistic_fits: Mapping[str, Mapping] | None = None

    @classmethod
    def of(cls, proposition: Proposition, scale: Scale, initial: float, residual: float,
           reduction: float, estimator: str, coefficients=None, notes=(),
           logistic_fits=None) -> "DecompositionEstimate":
        """The estimate of one split, with its proportion reduced.

        Its notes are the caller's `notes`, then P2_ANCHOR_NOTE for P2 and P5,
        then, when the initial disparity is null, the reason the proportion
        reduced is None.
        """
        if TIMEDEP_BASE.get(proposition, proposition) == Proposition.P2:
            notes = (*notes, P2_ANCHOR_NOTE)
        proportion, degenerate = proportion_with_note(initial, residual, scale)
        return cls(proposition, scale, initial, residual, reduction, proportion, estimator,
                   coefficients, (*notes, *degenerate), logistic_fits)
