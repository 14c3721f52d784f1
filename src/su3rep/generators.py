"""Assembly of the eight basis matrices for any (p, q) irrep.

For p >= q everything is built directly: the T-matrices are block-diagonal
standard spin matrices, U3 is diagonal with each block stepping up by 1/2
from its lead component, and U+/V+ have one nonzero diagonal per admissible
block whose entries are fixed radical multiples of a single block constant.
For q > p the matrices are the negative transposes of the (q, p) set.

All eight matrices are real; complex values appear only in the hermitian
basis F1..F8, stored as (real, imaginary) matrix pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import RadMatrix
from .radical import RadicalSum, sqrt_of_rational
from .structure import (
    _check_label,
    _check_ordered,
    block_layout,
    dimension,
    tspin_list,
    u3_leads,
)
from .su2 import spin_block
from .unknowns import ConsistencyError, block_unknown_squares

MATRIX_NAMES = ("Tp", "Tm", "T3", "Up", "Um", "U3", "Vp", "Vm")
GELL_MANN_NAMES = tuple(f"F{i}" for i in range(1, 9))


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
        return {
            "Tp": self.t_plus,
            "Tm": self.t_minus,
            "T3": self.t_three,
            "Up": self.u_plus,
            "Um": self.u_minus,
            "U3": self.u_three,
            "Vp": self.v_plus,
            "Vm": self.v_minus,
        }

    def negative_transpose(self) -> "GeneratorSet":
        """The (q, p) set: every matrix M replaced by -M^T."""
        return GeneratorSet(
            p=self.q,
            q=self.p,
            t_plus=self.t_plus.negative_transpose(),
            t_minus=self.t_minus.negative_transpose(),
            t_three=self.t_three.negative_transpose(),
            u_plus=self.u_plus.negative_transpose(),
            u_minus=self.u_minus.negative_transpose(),
            u_three=self.u_three.negative_transpose(),
            v_plus=self.v_plus.negative_transpose(),
            v_minus=self.v_minus.negative_transpose(),
        )


@dataclass(frozen=True)
class ComplexMatrix:
    """A matrix with separately stored real and imaginary parts."""

    re: RadMatrix
    im: RadMatrix

    @property
    def n(self) -> int:
        return self.re.n

    def is_hermitian(self) -> bool:
        return self.re.is_symmetric() and self.im.is_antisymmetric()

    def is_traceless(self) -> bool:
        return self.re.trace().is_zero and self.im.trace().is_zero


@dataclass(frozen=True)
class GellMannSet:
    """The eight hermitian basis matrices F1..F8 of one irrep."""

    p: int
    q: int
    matrices: tuple[ComplexMatrix, ...]

    def __getitem__(self, index: int) -> ComplexMatrix:
        """1-based access: fs[3] is F3."""
        if not 1 <= index <= 8:
            raise IndexError("F index must be 1..8")
        return self.matrices[index - 1]


def build_t_matrices(p: int, q: int) -> tuple[RadMatrix, RadMatrix, RadMatrix]:
    """Block-diagonal T+, T-, T3 from the standard spin matrices."""
    _check_ordered(p, q)
    layout = block_layout(p, q)
    spins = tspin_list(p, q).doubled_spins
    d = dimension(p, q)
    out = []
    for kind in ("plus", "minus", "three"):
        mat = RadMatrix(d)
        for off, two_s in zip(layout.offsets, spins):
            for r, c, v in spin_block(kind, two_s).items():
                mat.put(off + r, off + c, v)
        out.append(mat)
    return out[0], out[1], out[2]


def build_u3(p: int, q: int) -> RadMatrix:
    """Diagonal U3: block i starts at its lead and increases by 1/2 per state."""
    _check_ordered(p, q)
    layout = block_layout(p, q)
    spins = tspin_list(p, q).doubled_spins
    leads = u3_leads(p, q)
    u3 = RadMatrix(dimension(p, q))
    for off, two_s, two_lead in zip(layout.offsets, spins, leads):
        for a in range(two_s + 1):
            u3.put(off + a, off + a, Fraction(two_lead + a, 2))
    return u3


def admissible_blocks(p: int, q: int) -> list[tuple[int, int, int]]:
    """Block positions (i, j) where U+ and V+ may be nonzero, with the
    doubled spin shift 2t_j - 2s_i in {+1, -1}.

    A block qualifies when the column spin differs from the row spin by
    one half and the lead components differ by 1 (shift +1) or 1/2
    (shift -1); both conditions below are in doubled units.
    """
    _check_ordered(p, q)
    spins = tspin_list(p, q).doubled_spins
    leads = u3_leads(p, q)
    n = len(spins)
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            shift = spins[j - 1] - spins[i - 1]
            lead_gap = leads[i - 1] - leads[j - 1]
            if (shift == 1 and lead_gap == 2) or (shift == -1 and lead_gap == 1):
                out.append((i, j, shift))
    return out


def raising_entry_squares(two_s: int, shift: int, a: int) -> tuple[Fraction, Fraction]:
    """Squared in-block factors (u, v) multiplying the block constant.

    two_s is the doubled block-row spin, a the 0-based row position
    (sigma = s - a).  For shift -1 the U+ entry sits at column a-1 and the
    V+ entry at column a; for shift +1 at columns a and a+1, the V+ factor
    carrying a minus sign (returned value is the square; the sign is the
    caller's).
    """
    if shift == -1:
        return Fraction(a), Fraction(two_s - a)
    return Fraction(two_s - a + 1, two_s + 1), Fraction(a + 1, two_s + 1)


def build_uplus_vplus(
    p: int, q: int, unknowns: dict[tuple[int, int], Fraction]
) -> tuple[RadMatrix, RadMatrix]:
    """Assemble U+ and V+ from the squared block unknowns (positive roots)."""
    _check_ordered(p, q)
    layout = block_layout(p, q)
    spins = tspin_list(p, q).doubled_spins
    d = dimension(p, q)
    u_plus = RadMatrix(d)
    v_plus = RadMatrix(d)
    for i, j, shift in admissible_blocks(p, q):
        square = unknowns.get((i, j))
        if square is None:
            raise ConsistencyError(
                f"no block unknown for admissible block ({i},{j}) of ({p},{q})"
            )
        if square < 0:
            raise ConsistencyError(
                f"negative squared unknown {square} at ({i},{j}) of ({p},{q})"
            )
        if square == 0:
            continue
        c = sqrt_of_rational(square)
        two_s = spins[i - 1]
        row0 = layout.offsets[i - 1]
        col0 = layout.offsets[j - 1]
        if shift == -1:
            for a in range(1, two_s + 1):
                usq, _ = raising_entry_squares(two_s, shift, a)
                u_plus.put(row0 + a, col0 + a - 1, sqrt_of_rational(usq) * c)
            for a in range(0, two_s):
                _, vsq = raising_entry_squares(two_s, shift, a)
                v_plus.put(row0 + a, col0 + a, sqrt_of_rational(vsq) * c)
        else:
            for a in range(0, two_s + 1):
                usq, vsq = raising_entry_squares(two_s, shift, a)
                u_plus.put(row0 + a, col0 + a, sqrt_of_rational(usq) * c)
                v_plus.put(row0 + a, col0 + a + 1, -(sqrt_of_rational(vsq) * c))
    return u_plus, v_plus


def build_generator_set(p: int, q: int) -> GeneratorSet:
    """All eight matrices for (p, q), either orientation."""
    _check_label(p, q)
    if q > p:
        return build_generator_set(q, p).negative_transpose()
    t_plus, t_minus, t_three = build_t_matrices(p, q)
    u_three = build_u3(p, q)
    u_plus, v_plus = build_uplus_vplus(p, q, block_unknown_squares(p, q))
    return GeneratorSet(
        p=p,
        q=q,
        t_plus=t_plus,
        t_minus=t_minus,
        t_three=t_three,
        u_plus=u_plus,
        u_minus=u_plus.transpose(),
        u_three=u_three,
        v_plus=v_plus,
        v_minus=v_plus.transpose(),
    )


_SQRT3_THIRD = RadicalSum.from_terms([(Fraction(1, 3), 3)])  # 1/sqrt(3)


def to_gell_mann(gs: GeneratorSet) -> GellMannSet:
    """Convert to the hermitian basis.

    F1 = (T+ + T-)/2, F2 = -i(T+ - T-)/2, F3 = T3, F4/F5 likewise from V,
    F6/F7 from U, and F8 = (2 U3 + T3)/sqrt(3).
    """
    d = gs.dim
    half = Fraction(1, 2)
    zero = RadMatrix(d)

    def real(mat: RadMatrix) -> ComplexMatrix:
        return ComplexMatrix(mat, RadMatrix(d))

    f1 = real((gs.t_plus + gs.t_minus).scaled(half))
    f2 = ComplexMatrix(zero, (gs.t_minus - gs.t_plus).scaled(half))
    f3 = real(gs.t_three)
    f4 = real((gs.v_plus + gs.v_minus).scaled(half))
    f5 = ComplexMatrix(zero, (gs.v_minus - gs.v_plus).scaled(half))
    f6 = real((gs.u_plus + gs.u_minus).scaled(half))
    f7 = ComplexMatrix(zero, (gs.u_minus - gs.u_plus).scaled(half))
    f8 = real(
        (gs.u_three.scaled(2) + gs.t_three).scaled(_SQRT3_THIRD)
    )
    return GellMannSet(gs.p, gs.q, (f1, f2, f3, f4, f5, f6, f7, f8))
