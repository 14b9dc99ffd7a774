"""Stabilizer-code and feedback synthesis for continuously detected error
channels, with seeded jump-trajectory verification.

Given a set of monitored single-qubit error channels (each a 2x2 operator
with an optional complex unraveling offset), the package synthesizes a
stabilizer code whose codespace the errors cannot distort, the driving
Hamiltonian that cancels no-jump backaction, and per-channel correction
unitaries; a Monte Carlo trajectory engine and a master-equation
integrator check the construction end to end.
"""

__version__ = "0.1.0"

from .channels import (
    Backaction,
    ErrorChannel,
    KrausSet,
    effective_jump_operator,
    kraus_set,
)
from .codes import (
    CorrectabilityReport,
    EvenQubitCountRequired,
    RankThreeError,
    StabilizerCode,
    build_code,
    codespace_basis,
    null_space_involution,
    verify_correctability,
)
from .control import (
    ControlPlan,
    Correction,
    CorrectabilityError,
    NoJumpInvariance,
    build_control_plan,
    nojump_invariance_check,
)
from .linalg import bloch_matrix, tensor_embed
from .trajectory import (
    EnsembleResult,
    FidelityRecord,
    SimConfig,
    StepSizeError,
    master_equation_oracle,
    prepare,
    run_ensemble,
    simulation_code,
    trace_distance,
)

__all__ = [
    "__version__",
    "Backaction",
    "ErrorChannel",
    "KrausSet",
    "effective_jump_operator",
    "kraus_set",
    "CorrectabilityReport",
    "EvenQubitCountRequired",
    "RankThreeError",
    "StabilizerCode",
    "build_code",
    "codespace_basis",
    "null_space_involution",
    "verify_correctability",
    "ControlPlan",
    "Correction",
    "CorrectabilityError",
    "NoJumpInvariance",
    "build_control_plan",
    "nojump_invariance_check",
    "bloch_matrix",
    "tensor_embed",
    "EnsembleResult",
    "FidelityRecord",
    "SimConfig",
    "StepSizeError",
    "master_equation_oracle",
    "prepare",
    "run_ensemble",
    "simulation_code",
    "trace_distance",
]
