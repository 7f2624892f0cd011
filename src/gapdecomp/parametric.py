"""Regression-coefficient decompositions for the four interventions.

* SUCCESSIVE — a ladder of nested outcome regressions (group; plus the early
  measures one at a time in declared order; plus the target), with each
  intervention's residual and reduction read off coefficient differences of
  the group term.
* PRODUCT — one outcome model plus auxiliary models for the target and the
  early measure, combined through coefficient products.

Every least-squares fit of both families regresses a column of
[1, r, c…, x1…xk, m, y] (group, covariates, early measures, target, outcome)
on a prefix of the columns before it, so all of them are read from one
triangular factor R of that matrix (see regression.py), and the families
agree to floating-point precision on the common analysis sample. For a rare
binary outcome the same two splits are applied on the log scale to logistic
outcome fits and exponentiated onto the ratio scale.

Every run reads a `Sample`: the rows complete in every column its dataset
binds, whatever the family and proposition, and a memo (its keys are listed
at `Dataset._memo`) where `sample_factor` builds R of the ordered columns
(r, c…, x…, m, y), and each group's R for the group-stratified route
(`oaxaca`), beside the logistic outcome fits. Every run over the same
columns of a sample shares one factor and its fits, whatever roles bind
them. A linear run
reads all replicates at once (`LinearReplicates`): the ladder and product
splits run over a stack of their factors, which `regression.WhitenedGrams`
builds, with a leading replicate axis; an estimate is the case of one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings

import numpy as np

from .analysis import (
    AnalysisSpec,
    QUANTITIES,
    DecompositionEstimate,
    Estimator,
    OutcomeFamily,
    Proposition,
    Scale,
)
from .data import Dataset, Role, memoized
from .errors import AnalysisError, NearZeroDenominator, PrevalenceWarning, outcome_of
from .regression import (
    INTERCEPT,
    CoefficientSet,
    DesignMatrix,
    WHITEN_LIMIT,
    TriangularFactor,
    WhitenedGrams,
    fit_logistic,
    stacked_columns,
)

#: Outcome prevalence above which the rare-outcome ratio algebra is suspect.
RARE_PREVALENCE_LIMIT = 0.10


def analysis_rows(d: Dataset) -> np.ndarray:
    """Boolean mask of the rows with no missing cell in any column `d` binds
    to a role: the one sample of every run over this binding."""
    mask = np.ones(d.n_rows, dtype=bool)
    for name in sum(d.roles.values(), ()):
        mask &= ~np.isnan(d.column(name))
    return mask


class Sample:
    """The analysis sample of the roles `d` binds (its `mask`), or its
    bootstrap replicate of rows `idx` into `d`. Its `memo`, of what is
    computed from its rows, is kept by the bound columns (`key`) in `shared`:
    `d._memo`, or a replicate's own dict, which its rebindings share (`over`)."""

    def __init__(self, d: Dataset, idx: np.ndarray | None = None, shared: dict | None = None):
        self.d, self.idx, self.shared = d, idx, (d._memo if idx is None else {}) if shared is None else shared
        self.key = tuple(sorted(sum(d.roles.values(), ())))
        self.mask = memoized(d._memo, ("rows", self.key), lambda: analysis_rows(d))
        self.memo = memoized(self.shared, ("sample", self.key), dict)

    def rows(self, where: np.ndarray | None = None) -> np.ndarray:
        """The sample's rows where the mask `where` holds too: a mask over `d`, or ``idx[mask[idx]]``."""
        mask = self.mask if where is None else self.mask & where
        return mask if self.idx is None else self.idx[mask[self.idx]]

    def over(self, d: Dataset) -> "Sample":
        """These rows over `d`, a rebinding of roles (`Dataset.with_roles`), sharing this replicate's memos."""
        return Sample(d, self.idx, self.shared)


def sample_factor(s: Sample, columns, group: str | None = None):
    """R of [1, columns…] over the rows of the sample `s`, memoized in its
    memo; with `group`, a 0/1 column, {g: R over group g's rows}."""
    columns, d = tuple(columns), s.d

    def factor(where=None):
        return TriangularFactor.of((INTERCEPT, *columns), [1.0, *map(d.column, columns)], s.rows(where))

    def build():
        return factor() if group is None else {g: factor(d.column(group) == g) for g in (1, 0)}

    key = ("factor", columns) if group is None else ("group factors", group, columns)
    return memoized(s.memo, key, build)


def _model_name(outcome: str, regressors) -> str:
    return f"{outcome} ~ " + " + ".join(regressors)


def _slope_scale(factor, outcome, column, logistic=False):
    """sd(y)/sd(x), or 1/sd(x) on the log-odds scale; sd = centred norm / sqrt(n)."""
    x_norm = factor.centered_norm(column)
    y_norm = 0.0 if logistic else factor.centered_norm(outcome)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(y_norm > 0.0, y_norm, np.sqrt(factor.n_rows)) / x_norm
    return np.where(x_norm > 0.0, scale, 1.0)[()]


def _run_roles(d: Dataset):
    """(outcome, group, early list, covariate list, target or None) columns of a run."""
    m = d.single_role_column(Role.TARGET) if d.role_columns(Role.TARGET) else None
    return (d.single_role_column(Role.OUTCOME), d.single_role_column(Role.GROUP),
            list(d.role_columns(Role.EARLY)), list(d.covariate_names()), m)


class _Run:
    """The bound columns of one run and the models it reads off `factor`:
    the `sample_factor` of its sample `s`, or a stack of its bootstrap
    replicates' factors. On a stack every coefficient, denominator and split
    carries a leading replicate axis, no model is recorded, and `near` flags
    each replicate whose P4 denominator is within 100 times of the refusal
    threshold instead of refusing it.

    Fits use the factor's column order (intercept, group, covariates, early
    measures, target); `models` records each in report order (group, early
    measures, target, covariates). `outcome_fit(q)` fits the outcome on the
    factor's first q columns.
    """

    def __init__(self, s: Sample, factor=None):
        self.y, self.r, self.xs, self.c, self.m = _run_roles(s.d)
        self.columns = (self.r, *self.c, *self.xs, *(() if self.m is None else (self.m,)), self.y)
        self.factor = sample_factor(s, self.columns) if factor is None else factor
        self.near = np.zeros(len(self.factor.r), bool) if self.factor.r.ndim == 3 else None
        self.models: dict[str, dict[str, float]] = {}
        self.fits: dict[str, dict] = {}  # logistic models' diagnostics

    def _record(self, fit: CoefficientSet, outcome: str, regressors) -> CoefficientSet:
        if self.near is None:
            name = _model_name(outcome, regressors)
            self.models[name] = {label: fit[label] for label in (INTERCEPT, *regressors)}
            if fit.n_iter is not None:
                self.fits[name] = {k: getattr(fit, k) for k in ("n_iter", "converged", "deviance")}
        return fit

    def _check_denominator(self, value, natural_scale, label: str) -> None:
        if self.near is not None:  # a stack: set aside what a fit of its own rows might refuse
            self.near |= abs(value) < 100 * 1e-8 * natural_scale
        elif abs(value) < 1e-8 * natural_scale:
            raise NearZeroDenominator(
                f"slope of {label} is {value:.3g}, below 1e-8 of its natural scale "
                f"({natural_scale:.3g}); the within-level share needed by this "
                "proposition is undefined"
            )

    def split(self, spec: AnalysisSpec, outcome_fit, logistic=False):
        """(initial, residual, reduction) of the spec's proposition and family."""
        if spec.estimator == Estimator.PRODUCT:
            return self.product_split(spec.proposition, outcome_fit)
        return self.ladder_split(spec.proposition, outcome_fit,
                                 lambda x: _slope_scale(self.factor, self.y, x, logistic))

    def ladder_split(self, prop, outcome_fit, slope_scale):
        """(initial, residual, reduction) from the nested-regression ladder.

        For the marginal-target intervention the group gap in each early
        measure, within covariate strata and in-sample, is recovered by
        forward substitution from the ladder's group and early-slope
        coefficients; the residual reweights those gaps by the full model's
        early slopes.
        """
        r, xs, c, m, y = self.r, self.xs, self.c, self.m, self.y
        head = 2 + len(c)
        base = self._record(outcome_fit(head), y, [r, *c])
        steps = [
            self._record(outcome_fit(head + j + 1), y, [r, *xs[: j + 1], *c])
            for j in range(len(xs))
        ]
        full = None if m is None else self._record(
            outcome_fit(head + len(xs) + 1), y, [r, *xs, m, *c]
        )
        widest = steps[-1]
        if prop == Proposition.P1:
            return base[r], widest[r], base[r] - widest[r]
        if prop == Proposition.P2:
            return widest[r], full[r], widest[r] - full[r]
        if prop == Proposition.P3:
            return base[r], full[r], base[r] - full[r]
        gaps = []  # P4: validate_spec leaves only P1-P4 to this family
        for j, fit in enumerate(steps):
            self._check_denominator(fit[xs[j]], slope_scale(xs[j]), xs[j])
            numerator = base[r] - fit[r]
            for i in range(j):
                numerator -= fit[xs[i]] * gaps[i]
            gaps.append(numerator / fit[xs[j]])
        residual = full[r] + sum(full[x] * g for x, g in zip(xs, gaps))
        reduction = (widest[r] - full[r]) + sum(
            (widest[x] - full[x]) * g for x, g in zip(xs, gaps)
        )
        return base[r], residual, reduction

    def product_split(self, prop, outcome_fit):
        """(initial, residual, reduction) from coefficient products.

        The group's indirect routes are the early model's group slope times
        the outcome's early slope, the target model's group slope times the
        outcome's target slope, and the chained product through both.
        """
        r, (x,), c, m, y = self.r, self.xs, self.c, self.m, self.y
        head = 2 + len(c)
        outcome = self._record(outcome_fit(head + 2), y, [r, x, m, *c])
        target = self._record(self.factor.fit(m, head + 1), m, [r, x, *c])
        early = self._record(self.factor.fit(x, head), x, [r, *c])
        through_target = target[r] * outcome[m]             # group -> target -> outcome
        through_early = early[r] * outcome[x]               # group -> early -> outcome
        chained = early[r] * target[x] * outcome[m]         # group -> early -> target -> outcome
        pairs = {
            Proposition.P1: (outcome[r] + through_target, through_early + chained),
            Proposition.P2: (outcome[r], through_target),
            Proposition.P3: (outcome[r], through_early + through_target + chained),
            Proposition.P4: (outcome[r] + through_early, through_target + chained),
        }
        residual, reduction = pairs[prop]
        return residual + reduction, residual, reduction


def _decompose(s: Sample, spec: AnalysisSpec):
    """The estimate of a spec on the sample `s` of the dataset it binds.
    PRODUCT combines coefficient products, SUCCESSIVE the nested ladder; a
    RARE_BINARY outcome is fit by logistic regression and reported as ratios."""
    logistic, d, memo = spec.outcome_family == OutcomeFamily.RARE_BINARY, s.d, s.memo
    run, prop, notes = _Run(s), spec.proposition, []
    factor, columns = run.factor, run.columns
    if logistic:
        @functools.cache
        def sample():  # the widest outcome design and the outcomes, read once per call at most
            rows = s.rows()
            return stacked_columns([1.0, *map(d.column, columns[:-1])], rows), d.column(run.y)[rows]

        # validate_spec has checked that the outcome is 0/1
        prevalence = memoized(memo, ("prevalence", columns), lambda: float(sample()[1].mean()))
        if prevalence > RARE_PREVALENCE_LIMIT:
            notes.append(
                f"outcome prevalence {prevalence:.3f} exceeds "
                f"{RARE_PREVALENCE_LIMIT:.2f}; ratio-scale results rest on a "
                "rare-outcome approximation and may be distorted"
            )
            warnings.warn(notes[-1], PrevalenceWarning, stacklevel=3)

        def outcome_fit(q):
            def fit():  # on an F-ordered column prefix, bitwise a fit of its own copy
                design, y = sample()
                coefficients = fit_logistic(DesignMatrix(factor.labels[:q], design[:, :q]), y, factor)
                coefficients.values.flags.writeable = False  # SUCCESSIVE and PRODUCT share it
                return coefficients
            return memoized(memo, ("logistic fit", columns, q), fit)
    else:
        def outcome_fit(q):
            return factor.fit(run.y, q)

    initial, residual, reduction = run.split(spec, outcome_fit, logistic)
    scale = Scale.ADDITIVE
    if logistic:
        residual, reduction = math.exp(residual), math.exp(reduction)
        initial, scale = residual * reduction, Scale.RATIO
    return DecompositionEstimate.of(prop, scale, initial, residual, reduction, spec.estimator.value,
                                    run.models, notes, run.fits or None)


class LinearReplicates:
    """A linear SUCCESSIVE or PRODUCT run over bootstrap replicates of `d`
    (`Sample`s), replicate k's indices drawn again by `draw(k)` to refit it.
    The runs of one bootstrap over one sample's columns share in `stacks`
    one `WhitenedGrams`, which the first of them (`owner`) adds each
    replicate to, and the memos, not the indices, of the replicates refitted;
    `finish` reads every replicate off the stack's factors at once, as an estimate."""

    def __init__(self, d: Dataset, spec: AnalysisSpec, stacks: dict, draw):
        s = Sample(d)
        self.d, self.spec, self.draw, run = d, spec, draw, _Run(s)
        self.owner = (s.key, run.columns) not in stacks
        self.grams, self.refits = memoized(stacks, (s.key, run.columns), lambda: (WhitenedGrams(
            run.factor, [1.0, *map(d.column, run.columns)], s.mask), {}))

    def __call__(self, s: Sample) -> None:
        if self.owner:
            self.grams.add(s.idx)

    def finish(self) -> list:
        """Each replicate's estimate (`DecompositionEstimate.of`), or the AnalysisError
        that ends it. `_decompose` refits replicate k at its own rows (`exact`)
        where its condition number passes WHITEN_LIMIT, its P4 denominator is
        within 100 times of the refusal threshold, its initial disparity is
        within 1e13 times of eps·condition·sd(y)/sd(group) (the two routes
        differ in it by at most 0.13 times that, measured), or a quantity is
        within 1e-8 (of the largest) of a draw that a 2.5% or 97.5% percentile
        interpolates between. So failures and percentiles are bitwise, and
        spreads within 1e-13 relative, those of fits of each replicate's rows."""
        def read(k):  # replicate k drawn again, with what another run of the stack built of it
            s = Sample(self.d, self.draw(k), self.refits.setdefault(k, {}))
            return outcome_of(_decompose, s, self.spec)
        factor, condition = self.grams.factors
        run, spec = _Run(Sample(self.d), factor), self.spec
        with np.errstate(divide="ignore", invalid="ignore"):  # as a `near` replicate may
            initial, residual, reduction = run.split(spec, lambda q: factor.fit(run.y, q))
            error = np.finfo(float).eps * condition * _slope_scale(factor, run.y, run.r)
        self.exact = (condition > WHITEN_LIMIT) | run.near | ~(abs(initial) > np.maximum(
            1e13 * error, 1e-10))
        outcomes = [read(k) if self.exact[k] else DecompositionEstimate.of(
            spec.proposition, Scale.ADDITIVE, *values, spec.estimator.value)
            for k, values in enumerate(zip(initial, residual, reduction))]
        for name in QUANTITIES:
            values = np.array([None if isinstance(o, AnalysisError) else getattr(o, name)
                               for o in outcomes], float)  # None reads as NaN
            ordered = np.sort(values[~np.isnan(values)])
            if ordered.size < 2:
                continue
            at = np.floor((ordered.size - 1) * np.array([0.025, 0.975])).astype(int)
            pivots = ordered[np.minimum(np.concatenate([at, at + 1]), ordered.size - 1)]
            close = np.abs(values[:, None] - pivots).min(axis=1) <= 1e-8 * abs(ordered).max()
            for k in np.flatnonzero(close & ~self.exact):
                outcomes[k], self.exact[k] = read(k), True
        return outcomes


def decompose_successive_multiX(d: Dataset, spec: AnalysisSpec) -> DecompositionEstimate:
    """Nested-regressions decomposition with one or more early measures.

    The ladder fits outcome-on-group, then adds the early measures one at a
    time (in their declared order), then the target, all on one common
    sample; each proposition's residual and reduction come from differences
    of the group coefficient. Rare binary outcomes take the ratio scale.
    """
    return _decompose(Sample(spec.resolve(d, Estimator.SUCCESSIVE)), spec)


#: The single-early ladder is the one-step case of the general ladder.
decompose_successive_linear = decompose_successive_multiX


def decompose_product_coefficients(d: Dataset, spec: AnalysisSpec) -> DecompositionEstimate:
    """Decomposition from outcome, target, and early-measure models.

    Combines coefficients through products; agrees with the
    nested-regressions family identically in-sample. Rare binary outcomes
    take the ratio scale.
    """
    return _decompose(Sample(spec.resolve(d, Estimator.PRODUCT)), spec)


def decompose_logistic_rare(d: Dataset, spec: AnalysisSpec) -> DecompositionEstimate:
    """Ratio-scale decomposition for a rare 0/1 outcome.

    The ladder and product splits are applied to logistic outcome fits on
    the log scale and exponentiated, valid because the logit and log links
    agree for rare outcomes; PRODUCT's target and early models stay least
    squares. Emits PrevalenceWarning (and a report note) when the outcome
    mean exceeds 10%. The spec is validated as the RARE_BINARY request this
    answers, whatever outcome family it names.
    """
    rare = dataclasses.replace(spec, outcome_family=OutcomeFamily.RARE_BINARY)
    return _decompose(Sample(rare.resolve(d, Estimator.SUCCESSIVE, Estimator.PRODUCT)), rare)
