"""`DecompositionEstimate.of` is every family's closing step: each route's
notes end with the within-X anchor note (P2, P5) and then the reason a null
initial disparity leaves the proportion reduced undefined."""

import itertools
import warnings

import pytest

from conftest import dataset_from
from gapdecomp import (
    AnalysisSpec,
    Scale,
    StructuralParams,
    estimate,
    interaction_model_estimates,
    proposition_via_oaxaca,
    true_values,
)
from gapdecomp.analysis import P2_ANCHOR_NOTE
from gapdecomp.errors import PrevalenceWarning

ANCHOR = 1.0  # the early-measure anchor of every within-X request below


def cohort(identical_groups: bool):
    """Binary r, x, m, l and y, every (group, x, m, l) cell holding both outcomes;
    with `identical_groups` group 1 holds exactly group 0's rows."""
    rows = []
    for r, x, m, l in itertools.product((0.0, 1.0), repeat=4):
        shift = 0 if identical_groups else int(r)
        events = 2 + shift + int(x) + int(m)
        rows += [(r, x, m, l, 1.0)] * events + [(r, x, m, l, 0.0)] * (10 + 2 * int(l) - shift)
    columns = dict(zip("rxmly", map(list, zip(*rows))))
    return dataset_from(columns, {"outcome": "y", "group": "r", "early": ["x"], "target": "m"})


def prevalence_note(identical_groups: bool) -> str:
    y = cohort(identical_groups).column("y")
    return (f"outcome prevalence {y.mean():.3f} exceeds 0.10; ratio-scale results rest "
            "on a rare-outcome approximation and may be distorted")


PLUGIN_NOTES = ("anchored at early-measure stratum (1.0,)",
                "covariate strata aggregated with group1 weights")
PROFILE_NOTES = ("anchored at early-measure profile {'x': 1.0}",)

#: route -> (estimate of P2 or P5 on the cohort, the notes the route adds itself)
ROUTES = {
    "SUCCESSIVE": (lambda same: estimate(cohort(same), AnalysisSpec("P2", "SUCCESSIVE")),
                   lambda same: ()),
    "PRODUCT": (lambda same: estimate(cohort(same), AnalysisSpec("P2", "PRODUCT")),
                lambda same: ()),
    "RARE_BINARY SUCCESSIVE": (
        lambda same: estimate(cohort(same), AnalysisSpec("P2", "SUCCESSIVE", "RARE_BINARY")),
        lambda same: (prevalence_note(same),)),
    "PLUGIN P2": (
        lambda same: estimate(cohort(same), AnalysisSpec("P2", "PLUGIN",
                                                         conditioning_value_x=ANCHOR)),
        lambda same: PLUGIN_NOTES),
    "PLUGIN P5": (
        lambda same: estimate(cohort(same), AnalysisSpec("P5", "PLUGIN", bindings={"confounder": "l"},
                                                         conditioning_value_x=ANCHOR)),
        lambda same: PLUGIN_NOTES),
    "stratified interactions": (
        lambda same: proposition_via_oaxaca(cohort(same), AnalysisSpec(
            "P2", "SUCCESSIVE", conditioning_value_x=ANCHOR, options={"interactions": True})),
        lambda same: PROFILE_NOTES),
    "pooled interactions": (
        lambda same: interaction_model_estimates(cohort(same), AnalysisSpec(
            "P2", "SUCCESSIVE", conditioning_value_x=ANCHOR, options={"interactions": True})),
        lambda same: PROFILE_NOTES),
    "true_values": (
        lambda same: true_values(StructuralParams() if same else StructuralParams(
            x_group_effect=0.5, m_group_effect=0.4, m_early_effect=0.3, y_group_effect=0.3,
            y_early_effect=0.4, y_target_effect=0.5), "P2"),
        lambda same: ()),
}


@pytest.mark.parametrize("identical_groups", [False, True], ids=["P2", "degenerate"])
@pytest.mark.parametrize("route", list(ROUTES))
def test_every_route_closes_its_estimate_with_the_same_notes(route, identical_groups):
    build, own_notes = ROUTES[route]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrevalenceWarning)
        est = build(identical_groups)
    ratio = est.scale == Scale.RATIO
    assert ratio == (route == "RARE_BINARY SUCCESSIVE")
    if not identical_groups:
        denominator = est.initial - 1.0 if ratio else est.initial
        assert est.proportion_reduced == (est.initial - est.residual) / denominator
        assert est.notes == (*own_notes(False), P2_ANCHOR_NOTE)
        return
    reason = (f"initial ratio {est.initial!r} is 1; relative proportion reduced is undefined"
              if ratio else
              f"initial disparity {est.initial!r} is null; proportion reduced is undefined")
    assert est.proportion_reduced is None
    assert est.notes == (*own_notes(True), P2_ANCHOR_NOTE, reason)
