"""qeslab: exact operator calculus for quasi-exactly-solvable spectral problems.

The names below are exported lazily (PEP 562): ``import qeslab`` loads no
submodule, and the first use of a name imports its home module and keeps the
value in the package namespace.  ``from qeslab import spectrum`` works as an
eager import would, but a session that never reaches ``spectral`` never
compiles it.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "scalars": ("Scalar", "QParam", "qnumber", "qbinomial"),
    "poly": ("Poly",),
    "operators": ("LinOperator", "MatrixOperator", "OpContext", "compose",
                  "commutator", "to_matrix_operator"),
    "reps": ("RepSpec", "GeneratorSet", "make_rep", "verify_structure", "to_matrix_rep"),
    "enveloping": ("expand", "grading", "param_count", "verify_relations"),
    "spaces": ("SpaceSpec", "dimension", "action_matrix"),
    "classify": ("CoeffAssignment", "classify_grading", "match_cases", "verify_case"),
    "spectral": ("spectrum", "eigenlaw_check", "build_sextic", "sextic_potential",
                 "reduce_to_schrodinger", "schrodinger_residual", "build_matrix_example"),
    "identities": ("verify_identity",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
