"""Two-arm Bayesian response-adaptive trial simulation and AP-test inference."""

__version__ = "0.1.0"

from .allocation import (
    DesignConfig,
    EqualRandomization,
    StandardBRAR,
    TrialTrajectory,
    TunedBRAR,
    simulate_trial,
    tune_probability,
)
from .calibration import (
    CriticalValue,
    NullDistribution,
    NullSpec,
    calibrate,
    calibrate_under_pooled,
    critical_value,
    simulate_null_distribution,
)
from .errors import ConfigError, DataError, NumericalError
from .models import (
    ArmPosterior,
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
    PosteriorState,
    initial_posterior,
    sample_outcome,
    superiority_probability,
    update_posterior,
)
from .stats import (
    APTestSpec,
    ComparatorTest,
    ap_statistic,
    fisher_exact_one_sided,
    lastblock_ap_test,
    lr_exponential,
    original_ap_test,
    timedirect_ap_test,
    z_test_normal,
)

# harness reads __version__ from this module, so it must come last
from .harness import (  # noqa: E402
    PerformanceReport,
    ScenarioSpec,
    TestEntry,
    patient_benefit,
    run_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
