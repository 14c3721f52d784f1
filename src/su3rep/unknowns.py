"""Squared block unknowns of the raising matrices.

Each admissible block (i, j) of U+ carries a single constant; its square x
is rational.  Label row block i by its Gelfand-Tsetlin pair (a, b) from the
branching table in the structure module (0 <= a <= p, 0 <= b <= q,
2s = a + b).  Its partner j is (a, b + 1) or (a - 1, b), and

    shift +1, (a, b) -> (a, b + 1):  x = (q - b)(b + 1)(p + b + 2) / (a + b + 2)
    shift -1, (a, b) -> (a - 1, b):  x = a(p + 1 - a)(q + a + 1) / ((a + b)(a + b + 1))

Both are positive wherever the partner exists.  The paper states them as
six piecewise families in a triangular top-cap numbering of the blocks, the
lower-middle one a recursion over the others.  On its range each family
equals one product:

    upper top cap, upper middle, upper bottom cap         -> shift +1
    lower top cap, lower middle (the recursion), lower
    bottom cap, and for q = 0 the diagonal x = p - j + 1  -> shift -1

The paper's upper diagonals also run one position past each spin run: every
run of equal 2s that holds two or more blocks adds the key (first, last) of
the run, with square 0.  No matrix entry sits there, but the map keeps the
key so that `su3rep unknowns` prints the paper's rows.

Block indices are 1-based.
"""

from __future__ import annotations

from fractions import Fraction

from .structure import _block_table, admissible_blocks


# Numerators: degree <= 1 in p, q and <= 3 in a, b.  The oracle's diagonal
# equations, times (a+b)(a+b+1)(a+b+2), have degree <= 1 in p, q and the state's
# position, <= 5 in a, b: 288 exact points prove them (tests/test_unknowns.py).
def shift_plus_square(p: int, q: int, a: int, b: int) -> Fraction:
    """x of the block (a, b) -> (a, b + 1)."""
    return Fraction((q - b) * (b + 1) * (p + b + 2), a + b + 2)


def shift_minus_square(p: int, q: int, a: int, b: int) -> Fraction:
    """x of the block (a, b) -> (a - 1, b)."""
    return Fraction(a * (p + 1 - a) * (q + a + 1), (a + b) * (a + b + 1))


def block_unknown_squares(p: int, q: int) -> dict[tuple[int, int], Fraction]:
    """Sparse map (block-row, block-col) -> squared unknown, for p >= q.

    Every admissible block position is covered with a positive square; the
    overhang key of each spin run carries an exact zero (the matrices simply
    have no entries there).
    """
    spins, _, pairs = _block_table(p, q)  # raises for q > p
    values: dict[tuple[int, int], Fraction] = {}
    for i, j, shift in admissible_blocks(p, q):
        a, b = pairs[i - 1]
        square = shift_plus_square if shift == 1 else shift_minus_square
        values[(i, j)] = square(p, q, a, b)
    runs: dict[int, list[int]] = {}
    for k, two_s in enumerate(spins, 1):
        runs.setdefault(two_s, []).append(k)
    values.update({(run[0], run[-1]): Fraction(0) for run in runs.values() if len(run) > 1})
    return values
