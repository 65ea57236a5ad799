"""Numerical laboratory for randomized density-matrix dispersive estimates.

Periodic-grid Schatten calculus, three subgaussian randomizations of compact
operators, Monte Carlo verification of moment-growth laws for free-evolution
densities, and local/linearized solvers for the Hartree flow around a
translation-invariant background.
"""

__version__ = "0.1.0"

from .exponents import (
    AdmissibilityReport,
    ExponentRegion,
    deterministic_sharp_alpha,
    full_estimate_check,
    region_membership,
    singular_estimate_exponents,
    sobolev_admissible,
)
from .grid import (
    Field,
    FourierMultiplier,
    Grid,
    apply_multiplier,
    bessel_multiplier,
    convolve_potential,
    fourier_forward,
    fourier_inverse,
    free_propagate,
    free_propagator,
    identity_multiplier,
    make_grid,
    multiplier_from_function,
)
from .hartree import (
    BackgroundState,
    CalibrationResult,
    HartreeRun,
    LinearizedRun,
    ScatteringReport,
    background_density,
    calibrate_l1_constant,
    dense_rk4_oracle,
    duhamel_series,
    gamma_f_kernel,
    l1_apply_direct,
    l1_apply_fourier,
    linearized_solve,
    make_background,
    picard_solve,
    randomized_lwp_pipeline,
    scattering_diagnostic,
    spectrum_drift,
    stationarity_residual,
)
from .linop import (
    DenseOperator,
    LowRankOperator,
    SchattenReport,
    add,
    adjoint,
    compose,
    conjugate_free,
    density,
    localized_low_rank,
    multiplier_sandwich_schatten,
    random_low_rank,
    recompress,
    scale,
    schatten_norm,
    sobolev_schatten_norm,
    spectrum_hermitian,
    to_dense,
    trace,
)
from .montecarlo import (
    KeyEstimateResult,
    SlopeFit,
    analytic_abs_normal_moment,
    fit_moment_slope,
    full_moment_experiment,
    function_moment_experiment,
    key_estimate_probe,
    singular_moment_experiment,
    strichartz_admissible,
)
from .norms import (
    MomentTable,
    Trajectory,
    density_trajectory,
    empirical_moment,
    lebesgue_norm,
    mixed_norm,
)
from .randomize import (
    PartitionOfUnity,
    SubgaussianFamily,
    full_randomize,
    sample_coefficients,
    singular_value_randomize,
    sobolev_conjugated_randomize,
    unit_projection,
    wiener_randomize,
    wiener_weight,
)
