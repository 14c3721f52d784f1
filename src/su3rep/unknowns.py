"""Squared block unknowns of the raising matrices.

Each admissible block of U+ carries a single constant; its square is
rational and follows one of six closed-form families, arranged like the
T-spin list into top cap, middle and bottom cap, each with an upper and a
lower staggered diagonal.  The lower-middle family is a recursion consuming
the other families, so it is evaluated last.

Block indices are 1-based throughout, matching the triangular cap
numbering that cap_start() encodes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .structure import tspin_list, _check_ordered


class ConsistencyError(RuntimeError):
    """An internal cross-reference failed; signals a range or formula bug."""


def cap_start(q: int) -> int:
    """1-based index of the first block carrying doubled T-spin q-1.

    The top cap stacks doubled spins 0, 1, 1, 2, 2, 2, ..., so the run of
    spin q-1 starts right after the triangular count q(q-1)/2.  This index
    seeds the ranges of every block-unknown formula family.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    return q * (q - 1) // 2 + 1


def _closed_form_entries(p: int, q: int) -> Iterator[tuple[int, int, Fraction]]:
    """(i, j, square) for all families except the lower-middle recursion.

    With q = 0 there are no caps and no upper middle diagonal; the single
    lower diagonal is the closed form p - j + 1 and is yielded here.
    """
    n = (p + 1) * (q + 1)
    if q == 0:
        for j in range(1, p + 1):
            yield j + 1, j, Fraction(p - j + 1)
        return
    for q1 in range(1, q):
        # upper top cap: staggered diagonal at offset q1
        for i in range(cap_start(q1), cap_start(q1 + 1) + 1):
            d = cap_start(q1 + 1) - i
            yield i, i + q1, Fraction(d, q1 + 1) * (p + d + 1) * (q - d + 1)
    for q1 in range(1, q + 1):
        # lower top cap at offset q1 + 1
        for j in range(cap_start(q1), cap_start(q1 + 1)):
            e = j - cap_start(q1)
            yield j + q1 + 1, j, Fraction(e + 1, q1 * (q1 + 1)) * (p - e) * (q + e + 2)
    # upper middle diagonal at offset q
    for i in range(cap_start(q), n - q * (q + 1) // 2 + 1):
        m = (i - cap_start(q)) % (q + 1)
        f = (i - cap_start(q)) // (q + 1)
        yield i, i + q, Fraction(q - m, q + 1 + f) * (p + q + 1 - m) * (1 + m)
    for q1 in range(1, q):
        # upper bottom cap at offset q1
        for i in range(n - cap_start(q1 + 1) - q1 + 1, n - cap_start(q1) - q1 + 2):
            yield i, i + q1, Fraction(
                (cap_start(q1 + 1) + i - n + q1 - 1)
                * (q - q1 - cap_start(q1 + 1) + n + 2 - i)
                * (p + q - q1 - cap_start(q1 + 1) + n + 3 - i),
                p + q - q1 + 2,
            )
        # lower bottom cap at offset q1 + 1
        for j in range(n - cap_start(q1 + 1) + 1 - q1, n - cap_start(q1) - q1 + 1):
            yield j + q1 + 1, j, Fraction(
                (n - q1 - cap_start(q1) + 1 - j)
                * (p - n + q1 + cap_start(q1) + j)
                * (p + q + j - n + q1 + cap_start(q1) + 1),
                (p + q - q1 + 1) * (p + q - q1 + 2),
            )


@lru_cache(maxsize=None)
def _squares(p: int, q: int) -> dict[tuple[int, int], Fraction]:
    _check_ordered(p, q)
    n = (p + 1) * (q + 1)
    values: dict[tuple[int, int], Fraction] = {}

    def put(i: int, j: int, v: Fraction) -> None:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConsistencyError(f"({i},{j}) outside 1..{n} for ({p},{q})")
        if (i, j) in values:
            raise ConsistencyError(f"families overlap at ({i},{j}) for ({p},{q})")
        values[(i, j)] = v

    for i, j, v in _closed_form_entries(p, q):
        put(i, j, v)

    if q >= 1:
        spins = tspin_list(p, q)
        # The first middle row follows the last top-cap run and has no lower
        # entry; the recursion reads it as zero.
        start = cap_start(q + 1)
        zero = (start, start - q - 1)

        def look(i: int, j: int) -> Fraction:
            if (i, j) in values:
                return values[(i, j)]
            if (i, j) == zero:
                return Fraction(0)
            raise ConsistencyError(
                f"lower-middle recursion for ({p},{q}) references undefined ({i},{j})"
            )

        # The recursion walks a '+'-shaped stencil: the entry one cap-width
        # left in the same row, one above in the same column, and the upper
        # diagonal in the same row.  Its rows are middle and bottom blocks,
        # so the doubled spin two_s is at least q >= 1.
        for j in range(start, cap_start(q) + (p - q + 2) * (q + 1) - 2):
            two_s = spins[j - 1]
            v = look(j, j - q - 1) - 1 + look(j - q, j) / two_s - look(j, j + q) / (two_s + 1)
            put(j + q + 1, j, v)

    return values


def block_unknown_squares(p: int, q: int) -> dict[tuple[int, int], Fraction]:
    """Sparse map (block-row, block-col) -> squared unknown, for p >= q.

    Every admissible block position is covered; a few covered positions
    carry an exact zero (the matrices simply have no entries there).
    """
    return dict(_squares(p, q))
