"""Heavy-ball dynamics with time-dependent friction: simulate and certify.

The package models ẍ(t) + λ(t)ẋ(t) + ∇Φ(x(t)) = 0 (and the bead-on-surface
system it approximates), integrates it, and turns the system's energy
identities and asymptotic properties into numerical pass/fail certificates.

Layering, bottom to top: :mod:`hbft.potentials` and :mod:`hbft.friction`
define the landscape Φ and the damping schedule λ; :mod:`hbft.dynamics`
exposes the vector fields and mechanical observables; :mod:`hbft.integrate`
produces sampled trajectories; :mod:`hbft.diagnostics` certifies them;
:mod:`hbft.cli` runs declarative scenarios from config files.
"""

from .dynamics import (
    MechanicalParams,
    PhaseState,
    dissipation_rate,
    energy,
    full_surface_field,
    hbft_field,
    reaction_force,
)
from .diagnostics import (
    CertificationReport,
    CheckRecord,
    SampledFunction,
    barbalat_check,
    check_acceleration_bound,
    check_energy_monotone,
    check_velocity_bound,
    energy_balance_residual,
    model_discrepancy,
    sqrt_friction_speed,
    tail_asymptotics,
)
from .errors import (
    CapabilityError,
    ConfigError,
    ContactLossWarning,
    DimensionMismatchError,
    DivergenceError,
    IntegrationError,
    ScheduleConsistencyError,
)
from .friction import (
    FrictionSchedule,
    builtin_schedules,
    lambda_at,
    lambda_dot_at,
    make_schedule,
    verify_friction_hypotheses,
)
from .integrate import (
    IntegratorConfig,
    StepStats,
    StopCondition,
    Trajectory,
    integrate,
)
from .potentials import (
    Potential,
    builtin_potentials,
    estimate_gradient_lipschitz,
    gradient,
    hessian_quadform,
    make_potential,
    validate_gradient,
    value,
    verify_potential_hypotheses,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CertificationReport",
    "CheckRecord",
    "ConfigError",
    "ContactLossWarning",
    "DimensionMismatchError",
    "DivergenceError",
    "FrictionSchedule",
    "IntegrationError",
    "IntegratorConfig",
    "MechanicalParams",
    "PhaseState",
    "Potential",
    "SampledFunction",
    "ScheduleConsistencyError",
    "StepStats",
    "StopCondition",
    "Trajectory",
    "barbalat_check",
    "builtin_potentials",
    "builtin_schedules",
    "check_acceleration_bound",
    "check_energy_monotone",
    "check_velocity_bound",
    "dissipation_rate",
    "energy",
    "energy_balance_residual",
    "estimate_gradient_lipschitz",
    "full_surface_field",
    "gradient",
    "hbft_field",
    "hessian_quadform",
    "integrate",
    "lambda_at",
    "lambda_dot_at",
    "make_potential",
    "make_schedule",
    "model_discrepancy",
    "reaction_force",
    "sqrt_friction_speed",
    "tail_asymptotics",
    "validate_gradient",
    "value",
    "verify_friction_hypotheses",
    "verify_potential_hypotheses",
    "__version__",
]
