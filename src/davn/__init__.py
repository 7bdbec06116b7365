"""Exact verification engine for a four-ququart (d = 4) deterministic
all-versus-nothing Bell-nonlocality argument.

Everything is integer arithmetic: every amplitude is a unit i**t held
as its phase exponent t mod 4, and probabilities are pairs of ints
(numerator, norm_sq).  See the README for the
module map and the CLI (``davn``) for the runnable verification suites.

``import davn`` loads no submodule: each name in ``__all__`` is imported
from its home module on first access (PEP 562), so a ``davn`` command
compiles only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names of each home module.
_EXPORTS = {
    "checks": (
        "check_global_stabilizer", "commutation_phase_audit",
        "nonstabilizer_test", "reduced_density",
    ),
    "factory": (
        "build_psi4_qubit", "build_psi_1234", "embed_qubit_state",
        "joint_z_probability",
    ),
    "lhv": (
        "minimal_unsat_core", "satisfiable", "verify_davn", "verify_paradox",
    ),
    "postselect": (
        "Constraint", "PairSelection", "derive_constraints", "postselect_pair",
        "table_for_outcome",
    ),
    "states": ("StateVector",),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(
        name, getattr(import_module(f".{home}", __name__), name)
    )
