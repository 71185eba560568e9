"""Distributions, moments, tails and pricing for discrete sums of GBM."""

from .distributions import (
    YorParams,
    inv_gamma_cdf,
    inv_gamma_pdf,
    multiplier_pdf,
    yor_moment_residual,
    yor_params,
    yor_pdf,
    yor_survival,
)
from .errors import (
    AccuracyWarning,
    CancellationWarning,
    CoarseGridWarning,
    ConvergenceError,
    DivergentExpectationError,
    GbmSumError,
    NoRootError,
    ParameterError,
    RegimeWarning,
)
from .mc import (
    FixedHorizon,
    GeneralHorizon,
    GeometricHorizon,
    McConfig,
    McEstimate,
    simulate_sum,
    simulate_time_integral,
)
from .moments import (
    gbm_multiplier_moments,
    inverse_moment_bound,
    levy_multiplier_moments,
    mean_finite_sum,
    moment_exists,
    moments_geometric,
    moments_infinite_product_form,
)
from .params import (
    ModelParams,
    ReducedParams,
    TailAsymptote,
    as_reduced,
    reduce,
    tail_exponent,
)
from .pricing import (
    AsianSpec,
    asian_prices,
    finite_sum_density,
    finite_sum_density_derivative_form,
    geometric_maturity_option,
    makeham_match_p,
    mixture_density,
    put_call_parity_gap,
)
from .solver import (
    GaussianStepOperator,
    Grid,
    GridDensity,
    SolveReport,
    cdf,
    density_at,
    expectation,
    left_tail_cdf,
    quadrature_error_bound,
    quantile,
    solve_geometric,
    solve_infinite,
    survival,
    survival_on_grid,
)
from .tails import (
    VarEstimate,
    finite_sum_right_tail_coefficient,
    fit_left_tail_coefficient,
    fit_survival_powerlaw,
    left_tail_coefficient,
    shortfall_continuous,
    shortfall_probability,
    tail_constant,
    value_at_risk,
)

__version__ = "0.1.0"


# read only by perfbench/child.py's env record; both go with ROADMAP item 1's benchmark change
def backend_name() -> str:
    return "numpy"
