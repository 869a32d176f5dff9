"""pacroute: calibrate and stress-test threshold routers on synthetic worlds.

Build piecewise-uniform worlds on [0,1] with expert/fast labels and router
scores, calibrate a single-threshold router to a marginal risk guarantee,
and probe pointwise guarantees: Monte-Carlo audits, exact closed-form
oracles, and an adversarial local-relabeling demo showing that pointwise
guarantees force near-total deferral.

pacroute makes no BLAS call, so ``import pacroute`` loads numpy with OpenBLAS
limited to one thread, unless numpy is already loaded or the caller set an
OpenBLAS thread count; the environment is left as it was.
"""

import os
import sys

__version__ = "0.1.0"

# The OpenBLAS in numpy's wheels reads its thread count from the environment
# once, as it loads, and starts its worker threads then, which can add about
# 60 ms to a command's start-up on 2 vCPUs. A count the caller set is kept,
# and once numpy is loaded a count set here would change nothing.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                 "OPENBLAS_DEFAULT_NUM_THREADS")
if "numpy" not in sys.modules and os.environ.keys().isdisjoint(_BLAS_THREADS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
