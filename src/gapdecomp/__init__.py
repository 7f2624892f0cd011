"""gapdecomp: how a between-group disparity would change under
distribution-equalizing interventions, estimated three mutually consistent
ways (nested regressions, coefficient products, plug-in standardization),
with group-stratified decompositions and bootstrap inference on top."""

from . import errors
from .analysis import (
    AnalysisSpec,
    DecompositionEstimate,
    Estimator,
    OutcomeFamily,
    Proposition,
    Scale,
    proportion_reduced,
    proportion_with_note,
    validate_spec,
)
from .data import (
    Dataset,
    Role,
    add_missing_indicators,
    first_principal_component,
    load_csv,
    quantile_bin,
    write_csv,
)
from .engine import estimate
from .inference import (
    BootstrapSummary,
    QuantitySummary,
    bootstrap,
    bootstrap_runs,
    bootstrap_statistic,
    resample_indices,
)
from .oaxaca import OBResult, interaction_model_estimates, oaxaca_decompose, proposition_via_oaxaca
from .parametric import (
    decompose_logistic_rare,
    decompose_product_coefficients,
    decompose_successive_linear,
    decompose_successive_multiX,
)
from .plugin import StratumTable, plugin_mu, plugin_mu_timedep
from .regression import CoefficientSet, DesignMatrix, fit_logistic, fit_ols
from .simulate import StructuralParams, generate, true_values

__version__ = "0.1.0"

__all__ = [
    "AnalysisSpec", "BootstrapSummary", "CoefficientSet", "Dataset",
    "DecompositionEstimate", "DesignMatrix", "Estimator", "OBResult",
    "OutcomeFamily", "Proposition", "QuantitySummary", "Role", "Scale",
    "StratumTable", "StructuralParams", "add_missing_indicators", "bootstrap",
    "bootstrap_runs", "bootstrap_statistic", "decompose_logistic_rare",
    "decompose_product_coefficients", "decompose_successive_linear",
    "decompose_successive_multiX", "estimate", "first_principal_component",
    "fit_logistic", "fit_ols", "generate", "interaction_model_estimates",
    "load_csv", "oaxaca_decompose", "plugin_mu", "plugin_mu_timedep",
    "errors", "proportion_reduced", "proportion_with_note",
    "proposition_via_oaxaca", "quantile_bin", "resample_indices",
    "true_values", "validate_spec", "write_csv",
]
