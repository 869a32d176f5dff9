"""pacroute: calibrate and stress-test threshold routers on synthetic worlds.

Build piecewise-uniform worlds on [0,1] with expert/fast labels and router
scores, calibrate a single-threshold router to a marginal risk guarantee,
and probe pointwise guarantees: Monte-Carlo audits, exact closed-form
oracles, and an adversarial local-relabeling demo showing that pointwise
guarantees force near-total deferral.
"""

__version__ = "0.1.0"

from .adversary import (
    DemoPreconditionError,
    PerturbationSpec,
    find_radius,
    perturb,
    tv_product_bound,
    tv_single,
)
from .calibrate import CalibrationOutcome, PacConfig, select_threshold
from .risk import (
    ALWAYS_DEFER,
    LossSpec,
    exact_deferral_mass,
    exact_miscoverage,
)
from .simulate import (
    JOINT,
    AuditReport,
    DemoReport,
    McConfig,
    audit_profile,
    demo_with_replications,
    enumerate_distribution,
    mc_joint_risk,
)
from .worlds import (
    CalibrationSet,
    Cell,
    CellWorld,
    WorldValidationError,
    cell_at,
    interval_mass,
    load_world,
    normalized_masses,
    sample_calibration,
    split_at,
    validate_world,
)

__all__ = [
    "__version__",
    "ALWAYS_DEFER",
    "JOINT",
    "AuditReport",
    "CalibrationOutcome",
    "CalibrationSet",
    "Cell",
    "CellWorld",
    "DemoPreconditionError",
    "DemoReport",
    "LossSpec",
    "McConfig",
    "PacConfig",
    "PerturbationSpec",
    "WorldValidationError",
    "audit_profile",
    "cell_at",
    "demo_with_replications",
    "enumerate_distribution",
    "exact_deferral_mass",
    "exact_miscoverage",
    "find_radius",
    "interval_mass",
    "load_world",
    "mc_joint_risk",
    "normalized_masses",
    "perturb",
    "sample_calibration",
    "select_threshold",
    "split_at",
    "tv_product_bound",
    "tv_single",
    "validate_world",
]
