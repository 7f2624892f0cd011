"""Single entry point mapping an AnalysisSpec to the right estimator."""

from __future__ import annotations

from .analysis import AnalysisSpec, DecompositionEstimate, Estimator, OutcomeFamily
from .data import Dataset
from .oaxaca import _stratified, proposition_via_oaxaca
from .parametric import (LinearReplicates, _decompose, decompose_product_coefficients,
                         decompose_successive_linear)
from .plugin import Replicates, plugin_mu


def estimate(d: Dataset, spec: AnalysisSpec) -> DecompositionEstimate:
    """Run one decomposition as described by the spec.

    PLUGIN handles the confounder-aware propositions as well as P1-P4;
    the parametric families route rare-binary outcomes to the ratio-scale
    fits, and the "interactions" option redirects to the group-stratified
    (explained/unexplained) formulas.
    """
    if spec.estimator == Estimator.PLUGIN:
        return plugin_mu(d, spec)
    if spec.option("interactions"):
        return proposition_via_oaxaca(d, spec)
    if spec.estimator == Estimator.PRODUCT:
        return decompose_product_coefficients(d, spec)
    return decompose_successive_linear(d, spec)


def replicates(d: Dataset, spec: AnalysisSpec, stacks: dict, draw):
    """The run of a spec over bootstrap replicates of `d`, a callable of a
    replicate's `Sample`, whose memo the runs reading it share. The spec is
    resolved once; each replicate is read at its analysis rows of `d`.
    Linear runs of one bootstrap share `stacks`, and draw replicate k's
    indices again by `draw(k)` to refit it (`LinearReplicates`)."""
    if spec.estimator == Estimator.PLUGIN:
        return Replicates(d, spec)
    bound = spec.resolve(d, Estimator.SUCCESSIVE, Estimator.PRODUCT)
    if spec.option("interactions") or spec.outcome_family == OutcomeFamily.RARE_BINARY:
        route = _stratified if spec.option("interactions") else _decompose
        return lambda s: route(s.over(bound), spec)
    return LinearReplicates(bound, spec, stacks, draw)
