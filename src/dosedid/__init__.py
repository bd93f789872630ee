"""Effect-curve estimation for difference-in-differences designs with a
continuous exposure.

The estimand is the average dose effect on the treated, ADT(delta): the
mean effect on the treated group had every treated unit received exposure
level delta, versus no intervention. The main estimator combines outcome
and treatment/dose models through influence-function pseudo-outcomes and a
local linear kernel smoother, and stays consistent when one model of each
(dose-side, control-side) pair is misspecified.
"""

from .curves import METHODS, EffectCurveEstimate, EstimatorConfig, estimate_curve, write_curve
from .data import (
    PanelDataset,
    PanelSchema,
    TwoPeriodDataset,
    ValidationReport,
    load_panel,
    pair_periods,
    validate,
    write_panel,
)
from .errors import (
    BandwidthError,
    ConfigError,
    DataParseError,
    DataValidationError,
    DoseDidError,
    EstimationError,
    ExtrapolationError,
    FitError,
    PeriodLookupError,
    SchemaError,
)
from .inference import (
    BootstrapResult,
    SandwichBands,
    bootstrap_weights,
    sandwich_bands,
    stacked_sandwich_variance,
    weighted_bootstrap,
)
from .numeric import (
    DensityEstimate,
    default_bandwidth_grid,
    fit_logistic,
    fit_wls,
    gaussian_kde,
    local_linear_fit,
)
from .nuisance import (
    NuisanceModelSet,
    NuisanceSpec,
    default_dose_grid,
    default_specs,
    fit_mu0,
    fit_mu1,
    fit_nuisances,
    fit_pi_a,
    fit_pi_d,
    kang_schafer_map,
    marginalize,
)
from .panel import RepeatedEstimate, estimate_repeated, placebo_curves, scale_outcomes
from .pseudo import compute_theta0, normalize_weights
from .simulation import (
    GroundTruth,
    InferenceConfig,
    ScenarioConfig,
    ScenarioReport,
    all_permutations,
    generate_null_data,
    generate_placebo_panel,
    generate_scenario_data,
    ground_truth_curve,
    run_permutation_study,
)

__version__ = "0.1.0"
