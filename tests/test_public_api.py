"""The package exports what its callers read, and nothing else.

A public name stays when the package itself, its CLI, the README's library
example or the benchmark harness reads it; the dense references that only
the tests use live in ``tests/helpers.py``.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import jumpqec
from jumpqec import _kernels, channels, cli, codes, control, linalg, trajectory

KEPT = {
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
}

REMOVED = [
    (trajectory, "step"),
    (trajectory, "TrajectoryState"),
    (trajectory, "run_trajectory"),
    (trajectory, "fidelity"),
    (channels, "cptp_defect"),
    (channels, "lindblad_rhs"),
    (channels, "lindblad_generator"),
    (channels, "jump_backaction"),
    (channels.KrausSet, "jumps"),
    (codes, "generator_matrix"),
    (codes.StabilizerCode, "add_local"),
    (codes, "sector_assignment"),
    (codes.CorrectabilityReport, "threshold"),
    (control, "correction_unitary"),
    (control, "DrivingTerm"),
    (control, "driving_hamiltonian"),
    (control.Correction, "matrix"),
    (control.Correction, "null_channel"),
    (control.ControlPlan, "sector_map"),
    (_kernels, "engine_arrays"),
    (_kernels.BlockResult, "failed_column"),
    (_kernels.BlockResult, "failure"),
    (trajectory, "_block_width"),
    (trajectory, "_BLOCK_BYTES"),
    (linalg, "is_unitary"),
    (linalg, "is_hermitian"),
    (linalg, "HERMITIAN_ATOL"),
    (linalg, "traceless_decompose"),
    (linalg, "bloch_decompose"),
    (linalg, "ORTHO_ATOL"),
    (linalg, "SIGMA_MINUS"),
    (linalg, "SIGMA_PLUS"),
    (cli, "pauli_coefficients"),
    (cli, "PAULI_PRUNE_TOL"),
]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_top_level_exports_are_the_kept_set():
    assert len(jumpqec.__all__) == len(set(jumpqec.__all__)) == 31
    assert set(jumpqec.__all__) == KEPT


@pytest.mark.parametrize(
    "module",
    [
        "jumpqec",
        "jumpqec.channels",
        "jumpqec.codes",
        "jumpqec.control",
        "jumpqec.linalg",
        "jumpqec.trajectory",
        "jumpqec.cli",
    ],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize(
    "owner, name", REMOVED, ids=[f"{o.__name__}.{n}" for o, n in REMOVED]
)
def test_names_no_caller_reads_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(jumpqec, name)


def test_setup_holds_no_time_grid():
    # The grid is the config's: ``run_ensemble`` derives it once.
    fields = {field.name for field in dataclasses.fields(trajectory.SimulationSetup)}
    assert fields == {"kraus", "corrections", "psi0"}


def test_readme_library_example_runs(capsys):
    # The one python block under "## Library" runs as documented, and its
    # closed loop keeps the final mean fidelity at 1.
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", library, re.S)
    exec(compile(example, str(README), "exec"), {})
    assert float(capsys.readouterr().out.splitlines()[-1]) >= 1.0 - 1e-12
