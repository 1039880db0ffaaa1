"""Population-wise error rate control with estimated strata prevalences.

Calibrates shared critical values so the estimated PWER of a multi-population
trial hits a target level, quantifies the resulting true PWER with
delta-method prediction intervals, and runs the coverage simulations that
characterize those intervals, including parametric/projection bootstrap
engines for the settings without a closed-form joint test distribution.
"""

from .boot import (
    EmpiricalNull,
    bootstrap_null_D,
    bootstrap_null_E,
    fwer_curves,
    generate_setting_E_study,
    project_to_null,
    satterthwaite_df,
    solve_critical_empirical,
    welch_df,
)
from .design import (
    CONTROL,
    Design,
    build_design,
    cell_layout,
    enumerate_strata,
    stratum_label,
    treatment_labels,
)
from .errors import ConfigError, InfeasibleDesignError, NumericalError, PwerError
from .mvprob import (
    CorrelationMatrix,
    ProbResult,
    bvn_cdf,
    mvn_cdf,
    mvt_cdf,
    std_normal_cdf,
    std_normal_quantile,
    t_cdf,
    t_quantile,
)
from .pwer import (
    CriticalValues,
    PredictionInterval,
    TestModel,
    build_test_model,
    delta_gamma,
    prediction_interval,
    pwer_value,
    solve_critical_values,
    test_statistics,
)
from .sim import (
    SimResult,
    SimScenario,
    StudyDistribution,
    generate_random_study,
    prevalences_from_biomarkers,
    resolve_pi_min,
    run_min_prevalence_grid,
    run_scenario,
    run_study_distribution,
    scheme_prevalences,
)

__version__ = "0.1.0"
