"""Plug-in standardization over discrete strata (the nonparametric family).

Every proposition is a weighted sum of group-1 conditional outcome means,
with weights taken from whichever group's distribution the intervention
equalizes. All of them are read from one table per analysis sample: each row
gets one integer cell code over (group, early, target, confounder,
covariate), and two ``np.bincount`` calls over it give every cell's count
and outcome sum. A dimension with no bound column is a size-1 pseudo-level
axis, so the plain propositions (P1-P4) and their confounder-aware versions
(P5-P7) run the same loop over identically shaped tables; a constant
confounder yields the same codes and sums as none, and collapses to the
plain answer bit-for-bit.

Continuous early/target columns must be discretized first (see
``data.quantile_bin``); strata are never dropped silently — a needed cell
with no observations raises EmptyStratum naming the cell.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .analysis import (
    P2_ANCHOR_NOTE,
    AnalysisSpec,
    DecompositionEstimate,
    Estimator,
    OutcomeFamily,
    Proposition,
    Scale,
    TIMEDEP_BASE,
    TIMEDEP_PROPOSITIONS,
    resolve_for,
)
from .data import Dataset, Role
from .errors import EmptyStratum, InvalidSpec, TooManyLevels
from .inference import proportion_with_note
from .parametric import analysis_rows

DEFAULT_MAX_LEVELS = 20

#: Table axes after the group axis, in the order cell codes are combined.
_DIMENSIONS = ("early", "target", "confounder", "covariate")
_AXIS = {dim: axis for axis, dim in enumerate(_DIMENSIONS, start=1)}


def _dimension_codes(d: Dataset, rows: np.ndarray, names: Sequence[str], max_levels: int):
    """Sorted observed level tuples of one dimension and each row's level index.

    Each column's levels and codes over `rows` are read from the dataset's
    memo (`Dataset.level_codes`), so a column is sorted once per dataset;
    several columns combine mixed-radix (first column most significant, so
    code order is tuple order) and are re-coded to the jointly observed tuples.
    """
    code = 0  # no columns: the single pseudo-level, broadcast over the rows
    for name in names:
        distinct, inverse = d.level_codes(name, rows)
        if distinct.size > max_levels:
            raise TooManyLevels(
                f"column {name!r} has {distinct.size} levels, more than the "
                f"allowed {max_levels}; discretize it first"
            )
        code = code * distinct.size + inverse
    if len(names) < 2:
        return ([(v,) for v in distinct.tolist()] if names else [()]), code
    _, first, code = np.unique(code, return_index=True, return_inverse=True)
    return list(zip(*(d.column(name)[rows][first].tolist() for name in names))), code


class StratumTable:
    """Cell counts and outcome sums over the discrete strata of one analysis sample.

    Dimensions: "early" (joint tuple over the early columns), "target",
    "confounder", "covariate" (joint tuple). A row's cell code combines its
    group and its level index in each dimension; ``np.bincount`` of the code,
    unweighted and weighted by the outcome, fills (2, X, M, L, C) arrays of
    counts and sums. A dimension with no columns is a single all-rows
    pseudo-level, a size-1 axis that is always present. `rows` selects the
    analysis sample (index array or boolean mask); `columns` maps each
    dimension to its column names (default: the dataset's role map).
    """

    def __init__(self, d: Dataset, rows: np.ndarray, max_levels: int = DEFAULT_MAX_LEVELS,
                 columns: Mapping[str, tuple[str, ...]] | None = None):
        if columns is None:
            columns = {
                "early": d.role_columns(Role.EARLY),
                "target": d.role_columns(Role.TARGET),
                "confounder": d.role_columns(Role.CONFOUNDER_L),
                "covariate": d.covariate_names(),
            }
        self.columns: dict[str, tuple[str, ...]] = {dim: tuple(columns[dim]) for dim in _DIMENSIONS}
        outcome = d.column(d.single_role_column(Role.OUTCOME))[rows]
        code = d.column(d.single_role_column(Role.GROUP))[rows].astype(np.intp)
        self.levels: dict[str, list] = {}
        self._position: dict[str, dict] = {}
        for dim, names in self.columns.items():
            levels, inverse = _dimension_codes(d, rows, names, max_levels)
            self.levels[dim] = levels
            self._position[dim] = {level: i for i, level in enumerate(levels)}
            code = code * len(levels) + inverse
        shape = (2,) + tuple(len(self.levels[dim]) for dim in _DIMENSIONS)
        size = math.prod(shape)
        self._counts = np.bincount(code, minlength=size).reshape(shape)
        self._sums = np.bincount(code, weights=outcome, minlength=size).reshape(shape)

    def _describe(self, group, pairs) -> str:
        parts = [f"group={int(group)}" if group is not None else "group=any"]
        for dim, level in pairs:
            if self.columns[dim]:
                parts.append(f"{dim} {self.columns[dim]}={level}")
        return ", ".join(parts)

    def _cells(self, group, pairs) -> tuple:
        """Slices of the (2, X, M, L, C) arrays that make up one cell set."""
        index = [slice(None)] * 5
        if group is not None:
            index[0] = slice(int(group), int(group) + 1)
        for dim, level in pairs:
            i = self._position[dim][level]
            index[_AXIS[dim]] = slice(i, i + 1)
        return tuple(index)

    def count(self, group, pairs=()) -> int:
        return int(self._counts[self._cells(group, pairs)].sum())

    def mean(self, group, pairs=()) -> float:
        cells = self._cells(group, pairs)
        n = int(self._counts[cells].sum())
        if n == 0:
            raise EmptyStratum(self._describe(group, pairs))
        # fsum rounds once, so the order of the cells (hence of the levels)
        # cannot move the result
        return math.fsum(self._sums[cells].ravel().tolist()) / n

    def probability(self, dim: str, level, group, given=()) -> float:
        """P(dim = level | group, given cells), from raw counts."""
        denominator = self.count(group, given)
        if denominator == 0:
            raise EmptyStratum(self._describe(group, given))
        return self.count(group, tuple(given) + ((dim, level),)) / denominator


def _dimension_columns(d: Dataset, prop: Proposition) -> dict[str, tuple[str, ...]]:
    # Hide the confounder from the plain propositions so their stratum table
    # runs the pseudo-level path, and drop the target for P1 (not needed, and
    # a continuous target must not trip the level limit there).
    return {
        "early": d.role_columns(Role.EARLY),
        "target": () if prop == Proposition.P1 else d.role_columns(Role.TARGET),
        "confounder": (d.role_columns(Role.CONFOUNDER_L)
                       if prop in TIMEDEP_PROPOSITIONS else ()),
        "covariate": d.covariate_names(),
    }


def _choose_x_star(table: StratumTable, spec: AnalysisSpec, d: Dataset, rows) -> tuple:
    """The early-measure stratum the within-X propositions condition on."""
    levels = table.levels["early"]
    early_names = table.columns["early"]
    explicit = spec.conditioning_value_x
    if explicit is not None:
        target = np.array([float(explicit)])
    else:
        group = d.column(d.single_role_column(Role.GROUP))[rows]
        target = np.array([
            float(np.mean(d.column(name)[rows][group == 1.0])) for name in early_names
        ])
    distances = [float(np.sum((np.asarray(level) - target) ** 2)) for level in levels]
    return levels[int(np.argmin(distances))]


def _standardized_mean(table: StratumTable, prop: Proposition, c_level, x_star) -> float:
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


def plugin_mu_timedep(d: Dataset, spec: AnalysisSpec) -> DecompositionEstimate:
    """Plug-in decomposition with a post-early confounder of the target (P5-P7).

    The confounder's distribution is always taken from group 1 within
    (early, covariate) cells — the intervention equalizes the target, not
    the confounder — while target/early weights come from group 0 exactly as
    in the corresponding plain proposition.
    """
    if spec.proposition not in TIMEDEP_PROPOSITIONS:
        raise InvalidSpec(f"{spec.proposition.value} is not a confounder-aware proposition")
    return plugin_mu(d, spec)


def plugin_mu(d: Dataset, spec: AnalysisSpec) -> DecompositionEstimate:
    """Plug-in decomposition for the plain propositions (P1-P4), and for
    P5-P7 as `plugin_mu_timedep` describes.

    Residual is (equalized mean) - (group-0 mean); reduction is (group-1
    mean) - (equalized mean); covariate strata are averaged with the chosen
    aggregation weight (group-1 distribution by default). With outcome
    family RARE_BINARY the same three means are reported as ratios.
    """
    bound = resolve_for(spec, d, Estimator.PLUGIN)
    prop = spec.proposition
    columns = _dimension_columns(bound, prop)

    names = [bound.single_role_column(Role.OUTCOME), bound.single_role_column(Role.GROUP)]
    for dim_names in columns.values():
        names += dim_names
    rows = np.flatnonzero(analysis_rows(bound, names))

    table = StratumTable(bound, rows, max_levels=spec.option("max_levels", DEFAULT_MAX_LEVELS),
                         columns=columns)

    base = TIMEDEP_BASE.get(prop, prop)
    notes = []
    x_star = None
    anchor = ()
    if base == Proposition.P2:
        x_star = _choose_x_star(table, spec, bound, rows)
        anchor = (("early", x_star),)
        notes.append(f"anchored at early-measure stratum {x_star}")

    weight_mode = spec.option("aggregation_weight", "group1")
    notes.append(f"covariate strata aggregated with {weight_mode} weights")
    weight_group = {"group1": 1.0, "group0": 0.0, "pooled": None}[weight_mode]

    mu = group0_mean = group1_mean = 0.0
    for c_level in table.levels["covariate"]:
        weight = table.probability("covariate", c_level, weight_group)
        if weight == 0.0:
            continue
        pairs = (("covariate", c_level),) + anchor
        mu += weight * _standardized_mean(table, prop, c_level, x_star)
        group0_mean += weight * table.mean(0.0, pairs)
        group1_mean += weight * table.mean(1.0, pairs)

    if spec.outcome_family == OutcomeFamily.RARE_BINARY:
        scale = Scale.RATIO
        initial = group1_mean / group0_mean
        residual = mu / group0_mean
        reduction = group1_mean / mu
    else:
        scale = Scale.ADDITIVE
        initial = group1_mean - group0_mean
        residual = mu - group0_mean
        reduction = group1_mean - mu
    proportion, extra = proportion_with_note(initial, residual, scale)
    if base == Proposition.P2:
        notes.append(P2_ANCHOR_NOTE)
    return DecompositionEstimate(
        proposition=prop, scale=scale, initial=initial, residual=residual,
        reduction=reduction, proportion_reduced=proportion,
        estimator=spec.estimator.value, coefficients=None, notes=tuple(notes) + extra,
    )
