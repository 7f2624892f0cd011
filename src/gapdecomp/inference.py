"""Bootstrap standard errors and percentile intervals, on top of the estimators.

Replicate b resamples the rows from a stream keyed by (seed, b), and every
run is evaluated on that one replicate Dataset through `engine.estimate`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .analysis import AnalysisSpec, DecompositionEstimate
from .data import Dataset, Role
from .engine import estimate
from .errors import AnalysisError, InvalidB, TooManyFailures

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

    def as_dict(self) -> dict:
        return {
            "replicates": self.b,
            "seed": self.seed,
            "stratified": self.stratified,
            "failed_replicates": self.n_failed,
            "failure_reasons": list(self.failure_reasons),
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


def _summary(full, values, failures, warned, b, seed, stratify_by_group) -> BootstrapSummary:
    """Re-issue the tallied warnings, refuse too many failures, and summarize."""
    for category, (count, first) in warned.items():
        warnings.warn(
            f"{category.__name__} in {count} of {b} bootstrap replicates; first: {first}",
            category, stacklevel=3,
        )
    if len(failures) > _FAILURE_LIMIT * b:
        raise TooManyFailures(
            f"{len(failures)} of {b} bootstrap replicates failed "
            f"(limit {_FAILURE_LIMIT:.0%}); first: {failures[0]}"
        )
    if not isinstance(full, Mapping):
        full = {"statistic": float(full)}
    values = [v if isinstance(v, Mapping) else {"statistic": v} for v in values if v is not None]
    quantities = {}
    for name, point in full.items():
        draws = np.asarray([float(v[name]) for v in values if v.get(name) is not None])
        if draws.size >= 2:
            se = float(draws.std(ddof=1))
            lower, upper = (float(q) for q in np.percentile(draws, [2.5, 97.5]))
        else:
            se = lower = upper = float("nan")
        quantities[name] = QuantitySummary(
            point=None if point is None else float(point),
            se=se, lower=lower, upper=upper,
        )
    return BootstrapSummary(
        b=b, seed=seed, quantities=quantities, n_failed=len(failures),
        failure_reasons=tuple(failures), stratified=stratify_by_group,
    )


def _bootstrap_each(d: Dataset, statistics, b, seed, stratify_by_group, full=None):
    """The replicate loop: each replicate is drawn and taken once, and every
    statistic is evaluated on it.

    Yields per statistic its summary, or the AnalysisError that ended it (on
    the full sample, or TooManyFailures), re-issuing its replicate warnings
    (category -> [replicates, first message]) then. A replicate error fails
    only the statistic that raised it.
    """
    if b < 2:
        raise InvalidB(f"bootstrap needs at least 2 replicates, got {b}")
    if full is None:
        full = []
        for statistic in statistics:
            try:
                full.append(statistic(d))
            except AnalysisError as err:
                full.append(err)
    live = [(s, [], [], {}) for s, f in zip(statistics, full) if not isinstance(f, AnalysisError)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for index in range(b):
            resampled = d.take(resample_indices(d, seed, index, stratify_by_group))
            for statistic, values, failures, warned in live:
                try:
                    values.append(statistic(resampled))
                except AnalysisError as err:
                    failures.append(f"replicate {index}: {type(err).__name__}: {err}")
                for w in {w.category: w for w in reversed(caught)}.values():
                    warned.setdefault(w.category, [0, str(w.message)])[0] += 1
                caught.clear()
    tallies = iter(live)
    for result in full:
        if not isinstance(result, AnalysisError):
            try:
                result = _summary(result, *next(tallies)[1:], b, seed, stratify_by_group)
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
    return _only(_bootstrap_each(d, [statistic], b, seed, stratify_by_group))


def _quantities(result) -> dict:
    return {key: getattr(result, key)
            for key in ("initial", "residual", "reduction", "proportion_reduced")}


def bootstrap_runs(
    d: Dataset,
    specs: Sequence[AnalysisSpec],
    b: int = DEFAULT_REPLICATES,
    seed: int = 0,
    stratify_by_group: bool = False,
    full: Sequence[DecompositionEstimate] | None = None,
) -> Iterator[BootstrapSummary | AnalysisError]:
    """Bootstrap several runs, evaluating all of them on one Dataset per replicate.

    Runs on one analysis sample thus share its factor and stratum codes.
    `full` may hold the runs' full-sample estimates, which are then not
    computed again. A generator: per spec it yields what
    ``bootstrap(d, spec, ...)`` alone returns, bitwise, or the AnalysisError
    that ended it, and issues that run's replicate warnings as it does.
    """
    return _bootstrap_each(
        d, [lambda data, spec=spec: _quantities(estimate(data, spec)) for spec in specs],
        b, seed, stratify_by_group, None if full is None else [_quantities(e) for e in full],
    )


def bootstrap(
    d: Dataset,
    spec: AnalysisSpec,
    b: int = DEFAULT_REPLICATES,
    seed: int = 0,
    stratify_by_group: bool = False,
) -> BootstrapSummary:
    """Bootstrap the four reported quantities of one decomposition run."""
    return _only(bootstrap_runs(d, [spec], b, seed, stratify_by_group))
