"""Exact su(3) irreducible-representation matrices.

Given nonnegative integers (p, q), this package constructs the eight basis
matrices {T+, T-, T3, U+, U-, U3, V+, V-} of the d-dimensional irrep,
d = (p+1)(q+1)(p+q+2)/2, with every entry an exact sum of rational
multiples of square roots, and verifies the su(3) algebra on them.

Every command is a fresh interpreter, so importing the package is paid on
each run.  ``su3rep.verify``, the checks and the oracle, is loaded on first
access of one of its names (PEP 562): ``import su3rep``, ``generate``,
``weights`` and ``unknowns`` never compile or run it.
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


def __getattr__(name: str):
    # Reached only for a name not bound above: those of __all__ are
    # su3rep.verify's, loaded on first access (PEP 562).  Each access reads
    # verify's own binding, so a name patched there is patched here too.
    if name in __all__:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
