"""Assembly of the eight basis matrices for any (p, q) irrep.

For p >= q each matrix built is one walk of its blocks into one
``RadMatrix.from_roots``, each entry's root split once.  T+ is block-diagonal
from the spin raising blocks; U+/V+ have one nonzero diagonal per admissible
block, its unit entries (``unit_raising_blocks``) times the block constant.
T3 and U3 are rational diagonals from one walk: T3 steps down by 1 from the
block's spin, U3 up by 1/2 from its lead component.  Each lowering matrix is
its raising partner's transpose (``LADDER_PAIRS``).  For q > p the raising and
Cartan matrices are the (q, p) ones flipped to their negative transposes first.

All eight matrices are real; complex values appear only in the hermitian
basis F1..F8, stored as (real, imaginary) matrix pairs.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, fields
from fractions import Fraction

from .matrices import RadMatrix, Root, _combine
from .radical import split_square
from .structure import (
    ConsistencyError,
    _check_label,
    admissible_blocks,
    block_offsets,
    dimension,
    tspin_list,
    u3_leads,
)
from .su2 import spin_entries
from .unknowns import block_unknown_squares

MATRIX_NAMES = ("Tp", "Tm", "T3", "Up", "Um", "U3", "Vp", "Vm")
# The hermitian basis, k -> (part, radicand, terms): Fk's part ("re" or "im")
# is sqrt(radicand) times the sum of c * X over its terms (c, X), and its
# other part is zero.  F1 = (T+ + T-)/2, F2 = -i(T+ - T-)/2, F3 = T3, F4/F5
# likewise from V, F6/F7 from U, and F8 = (2 U3 + T3)/sqrt(3).
_HALF = Fraction(1, 2)
GELL_MANN_TABLE: dict[int, tuple[str, int, tuple[tuple[Fraction, str], ...]]] = {
    1: ("re", 1, ((_HALF, "Tp"), (_HALF, "Tm"))),
    2: ("im", 1, ((-_HALF, "Tp"), (_HALF, "Tm"))),
    3: ("re", 1, ((Fraction(1), "T3"),)),
    4: ("re", 1, ((_HALF, "Vp"), (_HALF, "Vm"))),
    5: ("im", 1, ((-_HALF, "Vp"), (_HALF, "Vm"))),
    6: ("re", 1, ((_HALF, "Up"), (_HALF, "Um"))),
    7: ("im", 1, ((-_HALF, "Up"), (_HALF, "Um"))),
    8: ("re", 3, ((Fraction(2, 3), "U3"), (Fraction(1, 3), "T3"))),
}
GELL_MANN_NAMES = tuple(f"F{k}" for k in GELL_MANN_TABLE)


@dataclass(frozen=True)
class GeneratorSet:
    """The eight d x d basis matrices of one irrep."""

    p: int
    q: int
    t_plus: RadMatrix
    t_minus: RadMatrix
    t_three: RadMatrix
    u_plus: RadMatrix
    u_minus: RadMatrix
    u_three: RadMatrix
    v_plus: RadMatrix
    v_minus: RadMatrix

    @property
    def dim(self) -> int:
        return self.t_three.n

    def matrices(self) -> dict[str, RadMatrix]:
        """The eight matrices in field order, keyed by MATRIX_NAMES."""
        return {name: getattr(self, f.name) for name, f in zip(MATRIX_NAMES, fields(self)[2:])}


@dataclass(frozen=True)
class ComplexMatrix:
    """A matrix with separately stored real and imaginary parts."""

    re: RadMatrix
    im: RadMatrix

    def is_hermitian(self) -> bool:
        return self.re.is_transpose_of(self.re) and self.im.is_transpose_of(self.im, -1)

    def is_traceless(self) -> bool:
        return self.re.trace().is_zero and self.im.trace().is_zero


# Each raising matrix and its lowering partner, which is its transpose.
LADDER_PAIRS = {"Tp": "Tm", "Up": "Um", "Vp": "Vm"}
# One block's unit entries of U+ or V+, (row, col, sign, a's, b): see unit_raising_blocks.
UnitRun = tuple[int, int, int, Sequence[int], int]


def build_t_plus(p: int, q: int) -> RadMatrix:
    """T+, block-diagonal from the standard spin raising blocks."""
    return RadMatrix.from_roots(dimension(p, q), [
        (off + r, off + c, sign * k, m, b)
        for off, two_s in zip(block_offsets(p, q), tspin_list(p, q))
        for r, c, sign, a, b in spin_entries(two_s)
        for k, m in (split_square(a * b),)
    ])


def build_cartan(p: int, q: int, names: Iterable[str]) -> dict[str, RadMatrix]:
    """T3 ("T3") and U3 ("U3"), those of the two that ``names`` holds, from
    one walk of the blocks: at position a of a block with doubled spin 2s
    and doubled lead, 2 T3 = 2s - 2a and 2 U3 = 2 lead + a."""
    doubled: dict[str, list[int]] = {"T3": [], "U3": []}
    for two_s, two_lead in zip(tspin_list(p, q), u3_leads(p, q)):
        doubled["T3"].extend(range(two_s, -two_s - 1, -2))
        doubled["U3"].extend(range(two_lead, two_lead + two_s + 1))
    wanted = set(names)
    # v / 2, entered as 2v / 4: den 4, the form from_entries gives sqrt(v * v / 4)
    return {name: RadMatrix.from_roots(len(values), [
        (k, k, 2 * v, 1, 4) for k, v in enumerate(values)
    ]) for name, values in doubled.items() if name in wanted}


def unit_raising_blocks(
    p: int, q: int, names: Collection[str]
) -> list[tuple[tuple[int, int], dict[str, UnitRun]]]:
    """For each admissible block (i, j), in ``admissible_blocks`` order, the
    entries of U+ ("Up") and V+ ("Vp") that ``names`` holds when that block's
    squared unknown is 1 and every other is 0: ``build_raising`` scales them
    by sqrt(x_ij), and the oracle reads them as they are.  A family's entries
    in a block lie on one diagonal run (row, col, sign, a's, b): its t-th
    entry is sign * sqrt(a_t / b) at (row + t, col + t), every a_t >= 1.

    With two_s the doubled row spin and a the 0-based row position
    (sigma = s - a): for shift -1 the U+ entry sqrt(a) sits at column a-1
    and the V+ entry sqrt(2s - a) at column a; for shift +1 the U+ entry
    sqrt((2s - a + 1)/(2s + 1)) at column a and the V+ entry
    -sqrt((a + 1)/(2s + 1)) at column a+1.
    """
    offsets = block_offsets(p, q)
    spins = tspin_list(p, q)
    out = []
    for i, j, shift in admissible_blocks(p, q):
        two_s, row0, col0 = spins[i - 1], offsets[i - 1], offsets[j - 1]
        runs: dict[str, UnitRun] = {}
        if "Up" in names:
            runs["Up"] = ((row0 + 1, col0, 1, range(1, two_s + 1), 1) if shift == -1
                          else (row0, col0, 1, range(two_s + 1, 0, -1), two_s + 1))
        if "Vp" in names:
            runs["Vp"] = ((row0, col0, 1, range(two_s, 0, -1), 1) if shift == -1
                          else (row0, col0 + 1, -1, range(1, two_s + 2), two_s + 1))
        out.append(((i, j), runs))
    return out


def build_raising(
    p: int, q: int, unknowns: dict[tuple[int, int], Fraction], names: Iterable[str]
) -> dict[str, RadMatrix]:
    """U+ ("Up") and V+ ("Vp"), those of the two that ``names`` holds, from
    the squared block unknowns (positive roots), in one walk of the unit
    runs of the families asked for: each unit entry sign * sqrt(a/b) of
    block (i, j), times sqrt(x_ij) = sqrt(x/y), is one split of a * b * x * y
    over b * y, and each matrix is one ``from_roots``."""
    wanted = set(names)
    roots: dict[str, list[Root]] = {name: [] for name in ("Up", "Vp") if name in wanted}
    for (i, j), runs in unit_raising_blocks(p, q, roots):
        square = unknowns.get((i, j))
        if square is None:
            raise ConsistencyError(
                f"no block unknown for admissible block ({i},{j}) of ({p},{q})"
            )
        x, y = square.numerator, square.denominator
        if x < 0:
            raise ConsistencyError(
                f"negative squared unknown {square} at ({i},{j}) of ({p},{q})"
            )
        for name, (row, col, sign, nums, b) in runs.items():
            append, by, bxy = roots[name].append, b * y, b * x * y
            for t, a in enumerate(nums):
                k, m = split_square(a * bxy) if bxy else (0, 1)
                append((row + t, col + t, sign * k, m, by))
    return {name: RadMatrix.from_roots(dimension(p, q), part) for name, part in roots.items()}


def build_matrices(p: int, q: int, names: Iterable[str]) -> dict[str, RadMatrix]:
    """The named matrices of (p, q), either orientation, keyed by name in
    ``MATRIX_NAMES`` order.

    Only what the names need is built, at (max(p, q), min(p, q)): T3, U3 or
    both from one walk of the blocks; T+ only for Tp or Tm; U+ only for Up
    or Um and V+ only for Vp or Vm, both from one walk of the unit blocks
    when both are needed.  For q > p each raising and Cartan matrix built
    is then flipped to its negative transpose.  Each named lowering matrix
    is its raising partner's transpose in either orientation: the conjugate
    X- = -(X+^T)^T = -X+ is the transpose of the flipped X+, -X+^T.
    """
    _check_label(p, q)
    wanted = set(names)
    hi, lo = max(p, q), min(p, q)
    pluses = {plus for plus, minus in LADDER_PAIRS.items() if wanted & {plus, minus}}
    built = build_cartan(hi, lo, wanted) if wanted & {"T3", "U3"} else {}
    if "Tp" in pluses:
        built["Tp"] = build_t_plus(hi, lo)
    if pluses & {"Up", "Vp"}:
        built.update(build_raising(hi, lo, block_unknown_squares(hi, lo), pluses))
    if q > p:
        built = {name: m.transpose(-1) for name, m in built.items()}
    built.update((minus, built[plus].transpose())
                 for plus, minus in LADDER_PAIRS.items() if minus in wanted)
    return {name: built[name] for name in sorted(wanted, key=MATRIX_NAMES.index)}


def build_generator_set(p: int, q: int) -> GeneratorSet:
    """All eight matrices for (p, q), either orientation."""
    matrices = build_matrices(p, q, MATRIX_NAMES)
    return GeneratorSet(p, q, *(matrices[name] for name in MATRIX_NAMES))


def gell_mann_matrix(matrices: Mapping[str, RadMatrix], k: int) -> ComplexMatrix:
    """The hermitian basis matrix Fk, 1 <= k <= 8, as ``GELL_MANN_TABLE``
    states it, from the ladder matrices by name (``GeneratorSet.matrices()``,
    or any mapping that holds the names of Fk's terms)."""
    if not 1 <= k <= 8:
        raise IndexError("F index must be 1..8")
    part, radicand, terms = GELL_MANN_TABLE[k]
    value = _combine((c, matrices[name]) for c, name in terms)
    value = value if radicand == 1 else value.times_sqrt(radicand)
    zero = RadMatrix(value.n)
    return ComplexMatrix(value, zero) if part == "re" else ComplexMatrix(zero, value)


def to_gell_mann(gs: GeneratorSet) -> dict[int, ComplexMatrix]:
    """The hermitian basis {k: Fk} for k = 1..8; see gell_mann_matrix."""
    matrices = gs.matrices()
    return {k: gell_mann_matrix(matrices, k) for k in GELL_MANN_TABLE}
