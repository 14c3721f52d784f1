"""Standard su(2) ladder coefficients and the spin raising block.

The raising blocks are the diagonal blocks of T+; T- is its transpose, and
T3 is built with U3 in ``generators.build_cartan``.  Rows and columns are
ordered by decreasing 3-component: position a (1-based) holds sigma = s-(a-1),
so the raising matrix has its entries on the superdiagonal.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import Entry
from .radical import RadicalSum, sqrt_of_rational


def ladder_coefficient(kind: str, two_s: int, two_sigma: int) -> RadicalSum:
    """r+(s, sigma) = sqrt((s-sigma)(s+sigma+1)), r- with sigma negated.

    Arguments are doubled; sigma must match s in parity and satisfy
    |sigma| <= s.  The assembly reads its radicands from spin_entries; this
    textbook form is kept as the independent reference the tests compare
    spin_entries against.
    """
    _check_component(two_s, two_sigma)
    if kind == "plus":
        radicand = Fraction((two_s - two_sigma) * (two_s + two_sigma + 2), 4)
    elif kind == "minus":
        radicand = Fraction((two_s + two_sigma) * (two_s - two_sigma + 2), 4)
    else:
        raise ValueError(f"kind must be 'plus' or 'minus', got {kind!r}")
    return sqrt_of_rational(radicand)


def spin_entries(two_s: int) -> list[Entry]:
    """Entries (row, col, sign, a, b), value sign * sqrt(a/b), of the
    (2s+1)-dimensional spin raising matrix, on the superdiagonal."""
    if two_s < 0:
        raise ValueError("two_s must be nonnegative")
    # entry (a, a+1) lifts sigma = s-a-1 to s-a: r+(s, s-a-1)^2 = (a+1)(two_s-a)
    return [(a, a + 1, 1, (a + 1) * (two_s - a), 1) for a in range(two_s)]


def _check_component(two_s: int, two_sigma: int) -> None:
    if two_s < 0:
        raise ValueError("two_s must be nonnegative")
    if abs(two_sigma) > two_s:
        raise ValueError(f"|sigma| exceeds s: 2s={two_s}, 2sigma={two_sigma}")
    if (two_s - two_sigma) % 2:
        raise ValueError(f"parity mismatch: 2s={two_s}, 2sigma={two_sigma}")
