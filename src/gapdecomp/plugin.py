"""Plug-in standardization over discrete strata (the nonparametric family).

Every proposition is a weighted sum of group-1 conditional outcome means,
with weights taken from whichever group's distribution the intervention
equalizes. All of them are read from one table per analysis sample
(`parametric.Sample`): each row gets one integer cell code over (group,
early, target, confounder, covariate), and two ``np.bincount`` calls over
the codes of any rows give every cell's count and outcome sum
(`StratumTable.cells`). A proposition is one contraction of its marginal
(P1-P4 sum the confounder away, P1 the target too; P2 and P5 read their
default anchor off its group-1 early margin): each probability is counts
over their marginal along an axis, each cell mean is sums over counts. A
dimension with no bound column is a size-1 pseudo-level axis, so the plain
propositions (P1-P4) and their confounder-aware versions (P5-P7) run the
same contraction over identically shaped tables; a constant confounder
yields the same codes and sums as none, and collapses to the plain answer
bit-for-bit. The contraction takes a leading replicate axis, and an
estimate is the replicate drawn at the sample's own rows (`Replicates`).

Continuous early/target columns must be discretized first (see
``data.quantile_bin``); strata are never dropped silently — a needed cell
with no observations raises EmptyStratum naming the cell.
"""

from __future__ import annotations

import copy
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
)
from .data import Dataset, Role, memoized
from .errors import AnalysisError, EmptyStratum, InvalidSpec, NearZeroDenominator, TooManyLevels
from .parametric import Sample

DEFAULT_MAX_LEVELS = 20

#: Table axes after the group axis, in the order cell codes are combined.
_DIMENSIONS = ("early", "target", "confounder", "covariate")


def _dimension_codes(d: Dataset, rows: np.ndarray, names: Sequence[str], max_levels: int):
    """Sorted observed level tuples of one dimension and each row's level index.

    Each column's levels and codes over `rows` are read from the dataset's
    memo (`Dataset.level_codes`), so a column is sorted once per memo;
    each further column combines mixed-radix with the tuples before it
    (first column most significant, so code order is tuple order), and a
    presence count re-codes them to the jointly observed tuples, with no
    sort: a code stays below rows x max_levels. Codes are kept in the
    smallest unsigned type that holds them, widened before each product.
    """
    code, levels = 0, [()]  # no columns: the single pseudo-level, broadcast over the rows
    for name in names:
        distinct, inverse = d.level_codes(name, rows)
        if distinct.size > max_levels:
            raise TooManyLevels(
                f"column {name!r} has {distinct.size} levels, more than the "
                f"allowed {max_levels}; discretize it first"
            )
        size, values = distinct.size, distinct.tolist()
        if len(levels) == 1:  # one tuple so far: the combined codes are dense already
            code, levels = inverse, [levels[0] + (value,) for value in values]
            continue
        code = code.astype(np.min_scalar_type(len(levels) * size))  # so the product cannot wrap
        code *= size
        code += inverse
        seen = np.bincount(code, minlength=len(levels) * size) > 0
        levels = [levels[j // size] + (values[j % size],) for j in np.flatnonzero(seen).tolist()]
        code = (np.cumsum(seen) - 1).astype(np.min_scalar_type(len(levels)))[code]
    return levels, code


class StratumTable:
    """Cell counts and outcome sums over the discrete strata of one analysis sample.

    Dimensions: "early" (joint tuple over the early columns), "target",
    "confounder", "covariate" (joint tuple). A row's cell code (`code`, one
    per dataset row) combines its group and its level index in each
    dimension, or is the dump cell just past the last outside the sample.
    `cells(idx)` bincounts the codes at rows `idx` into (2, X, M, L, C)
    counts and outcome sums, indexed by group and then by position in
    `levels[dim]`; `counts` and `sums` are the cells of the sample's rows.
    A dimension with no columns is a single all-rows pseudo-level, a size-1
    axis that is always present. `rows` selects the analysis sample: the
    boolean mask of its rows, or an index array (a repeated row counts each
    time); `columns` maps each dimension to its column names. A dimension
    with a column of more than `max_levels` levels is left out (`refused`).

    The code is built in place, one dimension at a time, in the smallest
    unsigned type that holds the cells so far. The sample's memo shares a
    table (`Replicates`), so its arrays are read-only.
    """

    def __init__(self, d: Dataset, rows: np.ndarray, columns: Mapping[str, Sequence[str]],
                 max_levels: int = DEFAULT_MAX_LEVELS):
        self.columns: dict[str, tuple[str, ...]] = {dim: tuple(columns[dim]) for dim in _DIMENSIONS}
        code, size = d.column(d.single_role_column(Role.GROUP))[rows].astype(np.uint8), 2
        self.levels, self.refused = {}, {}
        for dim in _DIMENSIONS:
            try:
                levels, inverse = _dimension_codes(d, rows, self.columns[dim], max_levels)
            except TooManyLevels as err:  # a pseudo-level, for the runs that sum it away
                self.refused[dim], self.columns[dim], levels, inverse = err, (), [()], 0
            self.levels[dim], size = levels, size * len(levels)
            code = code.astype(np.min_scalar_type(size), copy=False)  # so the product cannot wrap
            code *= len(levels)
            code += inverse
        self.shape = (2,) + tuple(len(self.levels[dim]) for dim in _DIMENSIONS)
        self.code = np.full(d.n_rows, size, np.min_scalar_type(size))
        self.code[rows] = code
        self.outcome = d.column(d.single_role_column(Role.OUTCOME))
        self.counts, self.sums = self.cells(rows)
        for arr in (self.code, self.counts, self.sums):
            arr.flags.writeable = False

    def cells(self, idx: np.ndarray):
        """The counts and outcome sums of dataset rows `idx`, summed in their
        order, each repeat counted; rows outside the sample are dropped."""
        code, size = self.code[idx], math.prod(self.shape)
        return tuple(np.bincount(code, weights, size + 1)[:size].reshape(self.shape)
                     for weights in (None, self.outcome[idx]))

    def marginal(self, dims) -> "StratumTable":
        """This table summed over the axes of `dims` (`summed`), each then a
        pseudo-level; it shares the code, so its `cells` are this table's.
        Raises the TooManyLevels of a dimension left out that it does not sum."""
        for dim, err in self.refused.items():
            if dim not in dims:
                raise err
        view = copy.copy(self)
        view.summed = tuple(_DIMENSIONS.index(dim) - len(_DIMENSIONS) for dim in dims if self.columns[dim])
        view.columns = {dim: () if dim in dims else names for dim, names in self.columns.items()}
        view.levels = {dim: [()] if dim in dims else levels for dim, levels in self.levels.items()}
        view.counts, view.sums = (cells.sum(view.summed, keepdims=True) for cells in (self.counts, self.sums))
        return view

    def _describe(self, group, pairs) -> str:
        parts = [f"group={int(group)}" if group is not None else "group=any"]
        for dim, level in pairs:
            if self.columns[dim]:
                parts.append(f"{dim} {self.columns[dim]}={level}")
        return ", ".join(parts)


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator, and 0.0 where the denominator is 0 (a cell no weight reaches)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denominator > 0, numerator / denominator, 0.0)


def _standardize(table: StratumTable, counts, sums, p4: bool, x_index, needed):
    """Per replicate and covariate level: the equalized mean, and the group-0
    and group-1 means; and the EmptyStratum of each replicate that has one.

    `counts` and `sums` are (B, 2, X, M, L, C) over the levels of `table`.
    Group-1 cell means are averaged over the confounder's group-1
    distribution within (early, covariate), the target's group-0 distribution
    within (early, covariate) (P4: within covariate), and the early measure's
    group-0 (P4: group-1) distribution within covariate. P1 is P3 with a
    size-1 target axis; P2 is P3 on the table cut to each replicate's anchor
    level `x_index` (None off P2). The first empty cell that a `needed`
    covariate level reaches, in the order the formula needs them, is the
    replicate's error.
    """
    if x_index is not None:
        at = x_index[:, None, None, None, None, None]
        counts, sums = np.take_along_axis(counts, at, 2), np.take_along_axis(sums, at, 2)
    n_xlc = counts.sum(axis=3)      # (B, 2, X, L, C)
    n_xc = n_xlc.sum(axis=3)        # (B, 2, X, C)
    n_c = n_xc.sum(axis=2)          # (B, 2, C)
    early_group = 1 if p4 else 0
    p_x = _ratio(n_xc[:, early_group], n_c[:, early_group, None])
    p_m = (_ratio(counts[:, 0].sum(axis=(1, 3)), n_c[:, 0, None])[:, None] if p4
           else _ratio(counts[:, 0].sum(axis=3), n_xc[:, 0, :, None]))
    p_l = _ratio(n_xlc[:, 1], n_xc[:, 1, :, None])

    empty_row = (p_x > 0) & (n_xc[:, 1] == 0)
    empty_cell = ((p_x[:, :, None, None] > 0) & (p_m[:, :, :, None] > 0)
                  & (p_l[:, :, None] > 0) & (counts[:, 1] == 0))
    failing = needed & ((n_c == 0).any(axis=1) | empty_row.any(axis=1)
                        | empty_cell.any(axis=(1, 2, 3)))
    failures = {}
    for b in np.flatnonzero(failing.any(axis=1)).tolist():
        # Name the first empty cell in the order the formula needs them.
        k = int(np.argmax(failing[b]))
        c = (("covariate", table.levels["covariate"][k]),)
        early = table.levels["early"] if x_index is None else [table.levels["early"][x_index[b]]]
        anchor = () if x_index is None else (("early", early[0]),)
        named = [(group, anchor + c) for group in (early_group, 0) if n_c[b, group, k] == 0]
        for x in np.flatnonzero(p_x[b, :, k] > 0):
            at_x = (("early", early[x]),)
            named += [(1, at_x + c)] if empty_row[b, x, k] else [
                (1, at_x + (("target", table.levels["target"][m]),
                            ("confounder", table.levels["confounder"][l])) + c)
                for m, l in np.argwhere(empty_cell[b, x, :, :, k])]
        # the group-1 mean cell; its row above is empty first whenever it is
        group, pairs = (named or [(1, c + anchor)])[0]
        failures[b] = EmptyStratum(table._describe(group, pairs))

    cell_mean = _ratio(sums[:, 1], counts[:, 1])
    equalized = (p_x * (p_m * (p_l[:, :, None] * cell_mean).sum(axis=3)).sum(axis=2)).sum(axis=1)
    # fsum rounds once, so the order of the cells (hence of the levels)
    # cannot move a group mean
    by_level = sums.reshape(*sums.shape[:2], -1, sums.shape[-1]).swapaxes(2, 3).tolist()
    group_sums = np.array([[[math.fsum(cells) for cells in group] for group in replicate]
                           for replicate in by_level])
    return equalized, _ratio(group_sums, n_c), failures


def _estimates(table: StratumTable, spec: AnalysisSpec, counts, sums) -> list:
    """Each replicate's estimate, or the AnalysisError that ends it.

    `counts` and `sums` are (B, 2, X, M, L, C) over the levels of `table`,
    where a level that a replicate does not observe is a zero slice and gets
    no weight. P2 and P5 anchor at the observed early level nearest
    `conditioning_value_x`, or else the mean of the group-1 early margin.
    """
    prop = spec.proposition
    weight_mode = spec.option("aggregation_weight", "group1")
    weight_group = {"group1": 1, "group0": 0, "pooled": None}[weight_mode]
    by_covariate = counts.sum(axis=(2, 3, 4))
    weighted = by_covariate.sum(axis=1) if weight_group is None else by_covariate[:, weight_group]
    total = weighted.sum(axis=1, keepdims=True)
    weights = _ratio(weighted, total)
    # also an empty analysis sample, which has no levels at all
    failures = {b: EmptyStratum(table._describe(weight_group, ()))
                for b in np.flatnonzero(total[:, 0] == 0).tolist()}
    if len(failures) == len(counts):
        return list(failures.values())

    base = TIMEDEP_BASE.get(prop, prop)
    x_index = None
    if base == Proposition.P2:  # the level nearest the anchor among those observed
        early, n_x = np.array(table.levels["early"]), counts[:, 1].sum(axis=(2, 3, 4))
        with np.errstate(invalid="ignore"):  # no group-1 row: NaN, and the run fails on an empty stratum
            anchors = (n_x[:, :, None] * early).sum(axis=1) / n_x.sum(axis=1)[:, None]
        if spec.conditioning_value_x is not None:
            anchors = np.array([[spec.conditioning_value_x]], float)
        distances = ((early - anchors[:, None]) ** 2).sum(axis=2)
        observed = counts.sum(axis=(1, 3, 4, 5)) > 0
        x_index = np.where(observed, distances, np.inf).argmin(axis=1)

    equalized, group_means, empty = _standardize(table, counts, sums, base == Proposition.P4,
                                                 x_index, weights > 0)
    mu = (weights * equalized).sum(axis=1)
    group0_mean, group1_mean = (weights[:, None] * group_means).sum(axis=2).T
    for b, err in empty.items():
        failures.setdefault(b, err)

    if spec.outcome_family == OutcomeFamily.RARE_BINARY:
        for label, mean in (("group-0", group0_mean), ("equalized", mu)):
            message = (f"the {label} outcome mean is 0; "
                       "the risk ratios divide by it and are undefined")
            for b in np.flatnonzero(mean == 0.0).tolist():
                failures.setdefault(b, NearZeroDenominator(message))
        scale = Scale.RATIO
        with np.errstate(divide="ignore", invalid="ignore"):
            splits = (group1_mean / group0_mean, mu / group0_mean, group1_mean / mu)
    else:
        scale = Scale.ADDITIVE
        splits = (group1_mean - group0_mean, mu - group0_mean, group1_mean - mu)
    outcomes = []
    for b, split in enumerate(zip(*(s.tolist() for s in splits))):
        notes = [] if x_index is None else [
            f"anchored at early-measure stratum {table.levels['early'][x_index[b]]}"]
        notes.append(f"covariate strata aggregated with {weight_mode} weights")
        outcomes.append(failures.get(b) or DecompositionEstimate.of(
            prop, scale, *split, spec.estimator.value, notes=notes))
    return outcomes


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
    table = Replicates(d, spec).table
    (result,) = _estimates(table, spec, table.counts[None], table.sums[None])
    if isinstance(result, AnalysisError):
        raise result
    return result


class Replicates:
    """A plug-in run over bootstrap replicates of `d` (`parametric.Sample`s):
    `table` is the marginal of its sample's, `whole`, that its proposition
    reads. A replicate is the cells of `whole` at its row indices, counted
    once for all runs over it, as the estimate is at the sample's own rows."""

    def __init__(self, d: Dataset, spec: AnalysisSpec):
        self.bound, self.spec, self.drawn = spec.resolve(d, Estimator.PLUGIN), spec, []
        b, s, max_levels = self.bound, Sample(self.bound), spec.option("max_levels", DEFAULT_MAX_LEVELS)
        columns = {"early": b.role_columns(Role.EARLY), "target": b.role_columns(Role.TARGET),
                   "confounder": b.role_columns(Role.CONFOUNDER_L), "covariate": b.covariate_names()}
        self.key = ("table", max_levels, *sorted(b.roles.items()))
        self.whole = memoized(s.memo, self.key, lambda: StratumTable(b, s.mask, columns, max_levels))
        prop = spec.proposition  # P1-P4 read no confounder, and P1 no target
        self.table = self.whole.marginal(("target",) * (prop == Proposition.P1)
                                         + ("confounder",) * (prop not in TIMEDEP_PROPOSITIONS))

    def __call__(self, s) -> None:
        s = s.over(self.bound)
        self.drawn.append(memoized(s.memo, ("cells", *self.key), lambda: self.whole.cells(s.idx)))

    def finish(self) -> list:
        """Each replicate's estimate, or the AnalysisError that ends it."""
        counts, sums = (np.stack(cells).sum(self.table.summed, keepdims=True) for cells in zip(*self.drawn))
        return _estimates(self.table, self.spec, counts, sums)
