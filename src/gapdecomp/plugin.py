"""Plug-in standardization over discrete strata (the nonparametric family).

Every proposition is a weighted sum of group-1 conditional outcome means,
with weights taken from whichever group's distribution the intervention
equalizes. All of them are read from one table per analysis sample: each row
gets one integer cell code over (group, early, target, confounder,
covariate), and two ``np.bincount`` calls over it give every cell's count
and outcome sum. A proposition is one contraction of that table: each
probability is counts over their marginal along an axis, each cell mean is
sums over counts. A dimension with no bound column is a size-1 pseudo-level
axis, so the plain propositions (P1-P4) and their confounder-aware versions
(P5-P7) run the same contraction over identically shaped tables; a constant
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
from .errors import EmptyStratum, InvalidSpec, NearZeroDenominator, TooManyLevels
from .parametric import analysis_rows

DEFAULT_MAX_LEVELS = 20

#: Table axes after the group axis, in the order cell codes are combined.
_DIMENSIONS = ("early", "target", "confounder", "covariate")


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
    unweighted and weighted by the outcome, fills the public (2, X, M, L, C)
    arrays `counts` and `sums`, indexed by group and then by position in
    `levels[dim]`. A dimension with no columns is a single all-rows
    pseudo-level, a size-1 axis that is always present. `rows` selects the
    analysis sample (index array or boolean mask); `columns` maps each
    dimension to its column names.
    """

    def __init__(self, d: Dataset, rows: np.ndarray, columns: Mapping[str, Sequence[str]],
                 max_levels: int = DEFAULT_MAX_LEVELS):
        self.columns: dict[str, tuple[str, ...]] = {dim: tuple(columns[dim]) for dim in _DIMENSIONS}
        outcome = d.column(d.single_role_column(Role.OUTCOME))[rows]
        code = d.column(d.single_role_column(Role.GROUP))[rows].astype(np.intp)
        self.levels: dict[str, list] = {}
        for dim, names in self.columns.items():
            levels, inverse = _dimension_codes(d, rows, names, max_levels)
            self.levels[dim] = levels
            code = code * len(levels) + inverse
        shape = (2,) + tuple(len(self.levels[dim]) for dim in _DIMENSIONS)
        size = math.prod(shape)
        self.counts = np.bincount(code, minlength=size).reshape(shape)
        self.sums = np.bincount(code, weights=outcome, minlength=size).reshape(shape)

    def _describe(self, group, pairs) -> str:
        parts = [f"group={int(group)}" if group is not None else "group=any"]
        for dim, level in pairs:
            if self.columns[dim]:
                parts.append(f"{dim} {self.columns[dim]}={level}")
        return ", ".join(parts)


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


def _choose_x_star(table: StratumTable, spec: AnalysisSpec, d: Dataset, rows) -> int:
    """Position of the early-measure stratum the within-X propositions condition on."""
    early_names = table.columns["early"]
    explicit = spec.conditioning_value_x
    if explicit is not None:
        target = np.array([float(explicit)])
    else:
        group = d.column(d.single_role_column(Role.GROUP))[rows]
        target = np.array([
            float(np.mean(d.column(name)[rows][group == 1.0])) for name in early_names
        ])
    distances = [float(np.sum((np.asarray(level) - target) ** 2)) for level in table.levels["early"]]
    return int(np.argmin(distances))


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator, and 0.0 where the denominator is 0 (a cell no weight reaches)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denominator > 0, numerator / denominator, 0.0)


def _standardize(table: StratumTable, base: Proposition, x_index, needed: np.ndarray):
    """Per covariate level: the equalized mean, and the group-0 and group-1 means.

    Group-1 cell means are averaged over the confounder's group-1
    distribution within (early, covariate), the target's group-0 distribution
    within (early, covariate) (P4: within covariate), and the early measure's
    group-0 (P4: group-1) distribution within covariate. P1 is P3 with a
    size-1 target axis; P2 is P3 on the table cut to the anchor's early level.
    The first empty cell that a `needed` covariate level reaches, in the
    order the formula needs them, raises EmptyStratum.
    """
    counts, sums, early, anchor = table.counts, table.sums, table.levels["early"], ()
    if base == Proposition.P2:
        cut = slice(x_index, x_index + 1)
        counts, sums, early = counts[:, cut], sums[:, cut], early[cut]
        anchor = (("early", early[0]),)
    n_xlc = counts.sum(axis=2)      # (2, X, L, C)
    n_xc = n_xlc.sum(axis=2)        # (2, X, C)
    n_c = n_xc.sum(axis=1)          # (2, C)
    p4 = base == Proposition.P4
    early_group = 1 if p4 else 0
    p_x = _ratio(n_xc[early_group], n_c[early_group])
    p_m = (_ratio(counts[0].sum(axis=(0, 2)), n_c[0])[None] if p4
           else _ratio(counts[0].sum(axis=2), n_xc[0][:, None]))
    p_l = _ratio(n_xlc[1], n_xc[1][:, None])

    empty_row = (p_x > 0) & (n_xc[1] == 0)
    empty_cell = ((p_x[:, None, None] > 0) & (p_m[:, :, None] > 0) & (p_l[:, None] > 0)
                  & (counts[1] == 0))
    failing = needed & ((n_c == 0).any(axis=0) | empty_row.any(axis=0)
                        | empty_cell.any(axis=(0, 1, 2)))
    if failing.any():
        # Name the first empty cell in the order the formula needs them.
        k = int(np.argmax(failing))
        c = (("covariate", table.levels["covariate"][k]),)
        for group in (early_group, 0):
            if n_c[group, k] == 0:
                raise EmptyStratum(table._describe(group, anchor + c))
        for x in np.flatnonzero(p_x[:, k] > 0):
            at_x = (("early", early[x]),)
            if empty_row[x, k]:
                raise EmptyStratum(table._describe(1, at_x + c))
            cells = np.argwhere(empty_cell[x, :, :, k])
            if cells.size:
                m, l = cells[0]
                at_ml = (("target", table.levels["target"][m]),
                         ("confounder", table.levels["confounder"][l]))
                raise EmptyStratum(table._describe(1, at_x + at_ml + c))
        # the group-1 mean cell; its row above is empty first whenever it is
        raise EmptyStratum(table._describe(1, c + anchor))

    cell_mean = _ratio(sums[1], counts[1])
    equalized = (p_x * (p_m * (p_l[:, None] * cell_mean).sum(axis=2)).sum(axis=1)).sum(axis=0)
    # fsum rounds once, so the order of the cells (hence of the levels)
    # cannot move a group mean
    by_level = sums.reshape(2, -1, sums.shape[-1]).swapaxes(1, 2).tolist()
    group_sums = np.array([[math.fsum(cells) for cells in group] for group in by_level])
    return equalized, _ratio(group_sums, n_c)


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
    aggregation weight (group-1 distribution by default), always read from
    the whole table. With outcome family RARE_BINARY the same three means
    are reported as ratios.
    """
    bound = resolve_for(spec, d, Estimator.PLUGIN)
    prop = spec.proposition
    columns = _dimension_columns(bound, prop)

    names = [bound.single_role_column(Role.OUTCOME), bound.single_role_column(Role.GROUP)]
    for dim_names in columns.values():
        names += dim_names
    rows = np.flatnonzero(analysis_rows(bound, names))

    table = StratumTable(bound, rows, columns, spec.option("max_levels", DEFAULT_MAX_LEVELS))

    weight_mode = spec.option("aggregation_weight", "group1")
    weight_group = {"group1": 1, "group0": 0, "pooled": None}[weight_mode]
    by_covariate = table.counts.sum(axis=(1, 2, 3))
    weighted = by_covariate.sum(axis=0) if weight_group is None else by_covariate[weight_group]
    if not weighted.sum():  # also an empty analysis sample, which has no levels at all
        raise EmptyStratum(table._describe(weight_group, ()))
    weights = _ratio(weighted, weighted.sum())

    base = TIMEDEP_BASE.get(prop, prop)
    notes = []
    x_index = None
    if base == Proposition.P2:
        x_index = _choose_x_star(table, spec, bound, rows)
        notes.append(f"anchored at early-measure stratum {table.levels['early'][x_index]}")
    notes.append(f"covariate strata aggregated with {weight_mode} weights")

    equalized, group_means = _standardize(table, base, x_index, weights > 0)
    mu = float((weights * equalized).sum())
    group0_mean, group1_mean = ((weights * group_means).sum(axis=1)).tolist()

    if spec.outcome_family == OutcomeFamily.RARE_BINARY:
        for label, mean in (("group-0", group0_mean), ("equalized", mu)):
            if mean == 0.0:
                raise NearZeroDenominator(f"the {label} outcome mean is 0; the risk ratios "
                                          "divide by it and are undefined")
        scale = Scale.RATIO
        initial = group1_mean / group0_mean
        residual = mu / group0_mean
        reduction = group1_mean / mu
    else:
        scale = Scale.ADDITIVE
        initial = group1_mean - group0_mean
        residual = mu - group0_mean
        reduction = group1_mean - mu
    return DecompositionEstimate.of(prop, scale, initial, residual, reduction,
                                    spec.estimator.value, notes=notes)
