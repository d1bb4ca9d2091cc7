"""qeslab: exact operator calculus for quasi-exactly-solvable spectral problems."""

from .scalars import Scalar, QParam, qnumber, qbinomial
from .poly import Poly
from .operators import (LinOperator, MatrixOperator, OpContext, compose,
                        commutator, to_matrix_operator)
from .reps import RepSpec, GeneratorSet, make_rep, verify_structure, to_matrix_rep
from .enveloping import expand, grading, param_count, verify_relations
from .spaces import SpaceSpec, dimension, action_matrix
from .classify import CoeffAssignment, classify_grading, match_cases, verify_case
from .spectral import (spectrum, eigenlaw_check, build_sextic, sextic_potential,
                       reduce_to_schrodinger, schrodinger_residual, build_matrix_example)
from .identities import verify_identity

__version__ = "0.1.0"
