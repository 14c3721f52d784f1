"""Exact su(3) irreducible-representation matrices.

Given nonnegative integers (p, q), this package constructs the eight basis
matrices {T+, T-, T3, U+, U-, U3, V+, V-} of the d-dimensional irrep,
d = (p+1)(q+1)(p+q+2)/2, with every entry an exact sum of rational
multiples of square roots, and verifies the su(3) algebra on them.
"""

from .radical import RadicalSum, sqrt_of_rational
from .matrices import RadMatrix
from .structure import (
    ConsistencyError,
    StateLabel,
    admissible_blocks,
    block_offsets,
    dimension,
    state_labels,
    tspin_list,
    u3_leads,
    weight_multiplicities,
)
from .su2 import ladder_coefficient
from .unknowns import block_unknown_squares
from .generators import (
    ComplexMatrix,
    GeneratorSet,
    build_cartan,
    build_generator_set,
    build_matrices,
    build_raising,
    build_t_plus,
    gell_mann_matrix,
    to_gell_mann,
)
from .verify import (
    CheckReport,
    RelationCheck,
    SweepRow,
    SweepSummary,
    casimir_eigenvalue,
    check_casimir,
    check_commutators,
    compare_with_oracle,
    oracle_solve,
    sweep,
    verify_irrep,
)

__all__ = [
    "CheckReport",
    "ComplexMatrix",
    "ConsistencyError",
    "GeneratorSet",
    "RadMatrix",
    "RadicalSum",
    "RelationCheck",
    "StateLabel",
    "SweepRow",
    "SweepSummary",
    "admissible_blocks",
    "block_offsets",
    "block_unknown_squares",
    "build_cartan",
    "build_generator_set",
    "build_matrices",
    "build_raising",
    "build_t_plus",
    "casimir_eigenvalue",
    "check_casimir",
    "check_commutators",
    "compare_with_oracle",
    "dimension",
    "gell_mann_matrix",
    "ladder_coefficient",
    "oracle_solve",
    "sqrt_of_rational",
    "state_labels",
    "sweep",
    "to_gell_mann",
    "tspin_list",
    "u3_leads",
    "verify_irrep",
    "weight_multiplicities",
]
