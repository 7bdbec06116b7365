"""Exact verification engine for a four-ququart (d = 4) deterministic
all-versus-nothing Bell-nonlocality argument.

Everything is integer arithmetic: Gaussian-integer amplitudes, phase
exponents mod 4, and rational probabilities.  See the README for the
module map and the CLI (``davn``) for the runnable verification suites.
"""

from .factory import (
    build_psi4_qubit,
    build_psi_1234,
    check_global_stabilizer,
    commutation_phase_audit,
    embed_qubit_state,
    joint_z_probability,
    nonstabilizer_test,
    reduced_density,
    z_support,
)
from .gauss import GaussInt
from .lhv import (
    Constraint,
    classify_type,
    minimal_unsat_core,
    satisfiable,
    verify_davn,
    verify_paradox,
)
from .postselect import (
    PairSelection,
    derive_constraints,
    postselect_pair,
    table_for_outcome,
)
from .states import StateVector

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "GaussInt",
    "PairSelection",
    "StateVector",
    "__version__",
    "build_psi4_qubit",
    "build_psi_1234",
    "check_global_stabilizer",
    "classify_type",
    "commutation_phase_audit",
    "derive_constraints",
    "embed_qubit_state",
    "joint_z_probability",
    "minimal_unsat_core",
    "nonstabilizer_test",
    "postselect_pair",
    "reduced_density",
    "satisfiable",
    "table_for_outcome",
    "verify_davn",
    "verify_paradox",
    "z_support",
]
