"""Everything the pair (p, q) determines before any matrix entry is filled.

A (p, q) irrep of su(3) decomposes under the T-spin su(2) subalgebra into
(p+1)(q+1) blocks.  By the Gelfand-Tsetlin branching rule there is one
block (a, b) for each 0 <= a <= p, 0 <= b <= q, with doubled spin
2s = a + b and doubled U-spin lead 2*u3 = a - 2b - p + q (from the
hypercharge 3Y = 3(a - b) - 2(p - q)).  The block order is that table
sorted by (2s, lead): spins ascending, and within a run of equal spins the
smaller lead first.  Equal a + b and equal a - 2b force equal (a, b), so no
two blocks tie and the sort is the order.  U+ and V+ join block (a, b) to
(a - 1, b) and to (a, b + 1).  Spins and 3-components are stored doubled
(2s, 2*sigma, 2*u3) so every label is an integer.

All list builders here require p >= q; callers wanting q > p go through the
negative-transpose path in the generators module.  ``weight_multiplicities``,
a closed form in both orientations, reads no branching table, so the
verifier's weight certificate rests on nothing ``_block_table`` computes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate, product


class ConsistencyError(RuntimeError):
    """An internal cross-reference failed; signals a range or formula bug."""


def dimension(p: int, q: int) -> int:
    """Number of states in the (p, q) irrep: (p+1)(q+1)(p+q+2)/2."""
    _check_label(p, q)
    return (p + 1) * (q + 1) * (p + q + 2) // 2


@dataclass(frozen=True)
class StateLabel:
    """One basis state: irrep label, doubled T-spin data and flat position."""

    p: int
    q: int
    two_s: int
    two_sigma: int
    two_u3: int
    index: int  # 1-based flat index


@lru_cache(maxsize=None)
def _block_table(
    p: int, q: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(doubled spins, doubled leads, pairs (a, b)) of the branching table in
    block order."""
    _check_ordered(p, q)
    spins, leads, pairs = zip(*sorted(
        (a + b, a - 2 * b - p + q, (a, b)) for a in range(p + 1) for b in range(q + 1)
    ))
    assert sum(two_s + 1 for two_s in spins) == dimension(p, q)
    return spins, leads, pairs


def tspin_list(p: int, q: int) -> tuple[int, ...]:
    """Doubled T-spins 2s of the blocks in block order, ascending."""
    return _block_table(p, q)[0]


@lru_cache(maxsize=None)
def block_offsets(p: int, q: int) -> tuple[int, ...]:
    """0-based row/column offset of each diagonal block (block size 2s+1)."""
    return tuple(accumulate((two_s + 1 for two_s in tspin_list(p, q)[:-1]), initial=0))


def u3_leads(p: int, q: int) -> tuple[int, ...]:
    """Doubled U-spin lead components 2*u3(i, s_i), one per block; strictly
    increasing within each run of equal spins."""
    return _block_table(p, q)[1]


def admissible_blocks(p: int, q: int) -> list[tuple[int, int, int]]:
    """Block positions (i, j) where U+ and V+ may be nonzero, with the
    doubled spin shift 2t_j - 2s_i in {+1, -1}, sorted by (i, j).

    Row block (a, b) pairs with (a - 1, b) (shift -1) and (a, b + 1)
    (shift +1) where the table has them.  Blocks are in ascending spin, so
    the shift -1 partner comes before the shift +1 one.
    """
    pairs = _block_table(p, q)[2]
    index = {pair: j for j, pair in enumerate(pairs, 1)}
    return [
        (i, index[partner], shift)
        for i, (a, b) in enumerate(pairs, 1)
        for shift, partner in ((-1, (a - 1, b)), (1, (a, b + 1)))
        if partner in index
    ]


def state_labels(p: int, q: int) -> list[StateLabel]:
    """All d states in canonical order; valid for both orientations.

    For p >= q, block i contributes sigma = s_i, s_i - 1, ..., -s_i with
    u3 stepping up by 1/2 per state from the block lead.  For q > p the
    labels are those of (q, p) with sigma and u3 negated, in the same flat
    order (the order the negative-transpose construction induces).
    """
    _check_label(p, q)
    if q > p:
        return [
            replace(lbl, p=p, q=q, two_sigma=-lbl.two_sigma, two_u3=-lbl.two_u3)
            for lbl in state_labels(q, p)
        ]
    spins = tspin_list(p, q)
    leads = u3_leads(p, q)
    labels = []
    index = 1
    for two_s, two_lead in zip(spins, leads):
        for a in range(two_s + 1):
            labels.append(
                StateLabel(p, q, two_s, two_s - 2 * a, two_lead + a, index)
            )
            index += 1
    return labels


def weight_multiplicities(p: int, q: int) -> dict[tuple[int, int], int]:
    """Counts of states per weight point, keyed by (2*T3, 3*Y).

    By (p,0) x (0,q) = sum over k of (p-k, q-k), the weights of (p, q) are
    those of Sym^p(C^3) x Sym^q(C^3*) less those of Sym^(p-1) x Sym^(q-1).
    A weight x*u + y*d + z*s of the triplet weights u = (1, 1), d = (-1, 1),
    s = (0, -2), with x + y + z = p - q, is in them C(m+2, 2) and C(m+1, 2)
    times, m = q - sum of max(0, -x_i); so it has multiplicity m + 1.
    """
    _check_label(p, q)
    counts = {}
    for x, y in product(range(-q, p + 1), repeat=2):
        z = p - q - x - y
        n = q + 1 - max(0, -x) - max(0, -y) - max(0, -z)
        if n > 0:
            counts[(x - y, x + y - 2 * z)] = n
    return counts


def _check_label(p: int, q: int) -> None:
    if p < 0 or q < 0:
        raise ValueError(f"irrep label must be nonnegative, got ({p}, {q})")


def _check_ordered(p: int, q: int) -> None:
    _check_label(p, q)
    if p < q:
        raise ValueError(
            f"({p}, {q}) has q > p: use the negative-transpose path"
        )
