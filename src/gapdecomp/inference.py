"""Bootstrap standard errors and percentile intervals, on top of the estimators.

Replicate b is its row indices into the full sample, drawn from a stream
keyed by (seed, b) (Efron & Tibshirani, *An Introduction to the Bootstrap*,
1993). Every run is resolved once on the full sample and reads each
replicate from a `parametric.Sample` of those indices (`engine.replicates`);
only an arbitrary statistic (`bootstrap_statistic`) gets a `Dataset.take`.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .analysis import QUANTITIES, AnalysisSpec, DecompositionEstimate, is_integer
from .data import Dataset, Role
from .engine import estimate, replicates
from .errors import AnalysisError, InvalidB, InvalidSpec, TooManyFailures, outcome_of
from .parametric import Sample

DEFAULT_REPLICATES = 1000
_FAILURE_LIMIT = 0.10


@dataclass(frozen=True)
class QuantitySummary:
    """Point estimate plus bootstrap spread for one reported quantity."""

    point: float | None
    se: float
    lower: float
    upper: float

    def as_dict(self) -> dict:
        return {
            "point": self.point,
            "se": self.se,
            "percentile_2.5": self.lower,
            "percentile_97.5": self.upper,
        }


@dataclass(frozen=True)
class BootstrapSummary:
    """Resampling summary: point estimates are always the full-sample values."""

    b: int
    seed: int
    quantities: Mapping[str, QuantitySummary]
    n_failed: int
    failure_reasons: tuple[str, ...]
    stratified: bool = False
    failures_by_type: Mapping[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "replicates": self.b,
            "seed": self.seed,
            "stratified": self.stratified,
            "failed_replicates": self.n_failed,
            "failure_reasons": list(self.failure_reasons),
            "failures_by_type": dict(self.failures_by_type),
            "quantities": {k: v.as_dict() for k, v in self.quantities.items()},
        }


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    # Counter-based: each replicate's stream is keyed by (seed, index), so
    # draws are independent of evaluation order and stable under extending B.
    key = np.array([seed % (1 << 64), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def resample_indices(
    d: Dataset, seed: int, index: int, stratify_by_group: bool = False
) -> np.ndarray:
    """Row indices for one bootstrap replicate (same n, with replacement)."""
    rng = _replicate_rng(seed, index)
    n = d.n_rows
    if not stratify_by_group:
        return rng.integers(0, n, size=n)
    group = d.column(d.single_role_column(Role.GROUP))
    parts = []
    for value in (0.0, 1.0):
        rows = np.flatnonzero(group == value)
        parts.append(rows[rng.integers(0, rows.size, size=rows.size)])
    return np.concatenate(parts)


def _named(value):
    """A statistic's value as named floats, an estimate as its four reported
    quantities; None and errors pass through."""
    if isinstance(value, DecompositionEstimate):
        return {key: getattr(value, key) for key in QUANTITIES}
    if value is None or isinstance(value, (Mapping, AnalysisError)):
        return value
    return {"statistic": value}


def percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile`` of the sorted draws by its linear rule, without its
    ``numpy.ma`` import; equal as floats (a sort and a partition may order 0.0
    and -0.0 differently)."""
    at = (ordered.size - 1) * (q / 100)
    low, high = ordered[math.floor(at)], ordered[min(math.floor(at) + 1, ordered.size - 1)]
    t = at - math.floor(at)
    if math.isnan(ordered[-1]):
        return math.nan
    return float(high - (high - low) * (1 - t) if t >= 0.5 else low + (high - low) * t)


def _summary(full, outcomes, warned, b, seed, stratify_by_group) -> BootstrapSummary:
    """Re-issue the tallied warnings, refuse too many failures, and summarize."""
    for category, (count, first) in warned.items():
        warnings.warn(
            f"{category.__name__} in {count} of {b} bootstrap replicates; first: {first}",
            category, stacklevel=3,
        )
    failures = [(i, err) for i, err in enumerate(outcomes) if isinstance(err, AnalysisError)]
    reasons = tuple(f"replicate {i}: {type(err).__name__}: {err}" for i, err in failures)
    if len(failures) > _FAILURE_LIMIT * b:
        raise TooManyFailures(
            f"{len(failures)} of {b} bootstrap replicates failed "
            f"(limit {_FAILURE_LIMIT:.0%}); first: {reasons[0]}"
        )
    values = [v for v in outcomes if v is not None and not isinstance(v, AnalysisError)]
    quantities = {}
    for name, point in _named(full).items():
        draws = np.asarray([float(v[name]) for v in values if v.get(name) is not None])
        if draws.size >= 2:
            se = float(draws.std(ddof=1))
            ordered = np.sort(draws)
            lower, upper = percentile(ordered, 2.5), percentile(ordered, 97.5)
        else:
            se = lower = upper = float("nan")
        quantities[name] = QuantitySummary(
            point=None if point is None else float(point),
            se=se, lower=lower, upper=upper,
        )
    return BootstrapSummary(
        b=b, seed=seed, quantities=quantities, n_failed=len(failures),
        failure_reasons=reasons, stratified=stratify_by_group,
        failures_by_type=dict(sorted(Counter(type(err).__name__ for _, err in failures).items())),
    )


def _bootstrap_each(d: Dataset, statistics, routes, b, seed, stratify_by_group, full=None):
    """The replicate loop: each replicate's indices are drawn once, and
    every statistic reads the one `Sample` of them, sharing its memo.

    `routes(i, draw)` reads replicates for statistic i from their Samples
    (see `engine.replicates`), and may draw replicate k's indices again by
    `draw(k)`; one with a `finish` method
    returns every outcome from it. Yields per statistic its summary,
    or the AnalysisError that ended it (on the full sample, or
    TooManyFailures), re-issuing its replicate warnings (category ->
    [replicates, first message]) then. A replicate error fails only the
    statistic that raised it.
    """
    if not is_integer(b) or b < 2:  # not a bool, float or string either
        raise InvalidB(f"bootstrap needs an integer number of replicates, at least 2, got {b!r}")
    if not is_integer(seed):
        raise InvalidSpec(f"bootstrap seed must be an integer, got {seed!r}")
    b, seed = int(b), int(seed)
    if full is None:
        full = [outcome_of(statistic, d) for statistic in statistics]
    draw = lambda index: resample_indices(d, seed, index, stratify_by_group)
    live = [(routes(i, draw), [], {}) for i, f in enumerate(full) if not isinstance(f, AnalysisError)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for index in range(b if live else 0):  # no draw when every run failed on the full sample
            s = Sample(d, draw(index))
            for route, outcomes, warned in live:
                outcomes.append(_named(outcome_of(route, s)))  # only the named quantities outlive it
                for w in {w.category: w for w in reversed(caught)}.values():
                    warned.setdefault(w.category, [0, str(w.message)])[0] += 1
                caught.clear()
    tallies = iter(live)
    for result in full:
        if not isinstance(result, AnalysisError):
            route, outcomes, warned = next(tallies)
            if hasattr(route, "finish"):
                outcomes = [_named(outcome) for outcome in route.finish()]
            try:
                result = _summary(result, outcomes, warned, b, seed, stratify_by_group)
            except TooManyFailures as err:
                result = err
        yield result


def _only(results) -> BootstrapSummary:
    result = next(results)
    if isinstance(result, AnalysisError):
        raise result
    return result


def bootstrap_statistic(
    d: Dataset,
    statistic: Callable[[Dataset], Mapping[str, float | None] | float],
    b: int = DEFAULT_REPLICATES,
    seed: int = 0,
    stratify_by_group: bool = False,
) -> BootstrapSummary:
    """Nonparametric bootstrap of an arbitrary statistic of the dataset.

    ``statistic`` may return a single float or a mapping of named floats
    (None values are allowed and simply excluded from that quantity's
    spread). Replicates raising package errors are recorded and excluded;
    more than 10% failures aborts with TooManyFailures. A warning category
    raised by replicates is re-issued once, with the number of replicates
    that raised it and the first message.
    """
    taken = lambda s: statistic(d.take(s.idx))  # of each replicate's own Dataset
    return _only(_bootstrap_each(d, [statistic], lambda i, draw: taken, b, seed, stratify_by_group))


def bootstrap_runs(
    d: Dataset,
    specs: Sequence[AnalysisSpec],
    b: int = DEFAULT_REPLICATES,
    seed: int = 0,
    stratify_by_group: bool = False,
    full: Sequence[DecompositionEstimate] | None = None,
) -> Iterator[BootstrapSummary | AnalysisError]:
    """Bootstrap several runs, drawing each replicate's row indices once for all of them.

    Each run is resolved once on the full sample and reads a replicate from
    its indices (`engine.replicates`): a plug-in run bincounts its
    estimate's cell codes there; a SUCCESSIVE or PRODUCT run factors the full
    sample's columns at the replicate's analysis rows, or each group's rows
    of them with "interactions", once per replicate and analysis sample, and
    fits a rare outcome's logistic models once per replicate too. `full`
    may hold the runs' full-sample estimates, which are then not computed
    again. A generator: per spec it yields what ``bootstrap(d, spec, ...)``
    alone returns, bitwise, or the AnalysisError that ended it, and issues
    that run's replicate warnings as it does.
    """
    statistics, stacks = [lambda data, spec=spec: estimate(data, spec) for spec in specs], {}
    return _bootstrap_each(d, statistics, lambda i, draw: replicates(d, specs[i], stacks, draw),
                           b, seed, stratify_by_group, full)


def bootstrap(
    d: Dataset,
    spec: AnalysisSpec,
    b: int = DEFAULT_REPLICATES,
    seed: int = 0,
    stratify_by_group: bool = False,
) -> BootstrapSummary:
    """Bootstrap the four reported quantities of one decomposition run."""
    return _only(bootstrap_runs(d, [spec], b, seed, stratify_by_group))
