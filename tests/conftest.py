from fractions import Fraction

import pytest

from su3rep import ComplexMatrix, RadicalSum, dimension
from su3rep.matrices import RadMatrix


def labels_below(max_d):
    """Every p >= q label with d < max_d, in (p, q) order."""
    p = 0
    while dimension(p, 0) < max_d:
        yield from ((p, q) for q in range(p + 1) if dimension(p, q) < max_d)
        p += 1


def run_entries(run):
    """The entries (row, col, sign, a, b), each sign * sqrt(a/b), of one unit
    run (row, col, sign, a's, b) of ``generators.unit_raising_blocks``."""
    row, col, sign, nums, b = run
    return [(row + t, col + t, sign, a, b) for t, a in enumerate(nums)]


def _complex3(re_entries, im_entries):
    re = RadMatrix(3)
    im = RadMatrix(3)
    for r, c, v in re_entries:
        re.put(r, c, v)
    for r, c, v in im_entries:
        im.put(r, c, v)
    return ComplexMatrix(re, im)


@pytest.fixture(scope="session")
def textbook_fundamental():
    """The standard 3x3 hermitian basis F1..F8 with exact entries,
    in the usual textbook state order (u, d, s)."""
    h = Fraction(1, 2)
    third_sqrt3 = RadicalSum.from_terms([(Fraction(1, 6), 3)])  # 1/(2*sqrt(3))
    return (
        _complex3([(0, 1, h), (1, 0, h)], []),
        _complex3([], [(0, 1, -h), (1, 0, h)]),
        _complex3([(0, 0, h), (1, 1, -h)], []),
        _complex3([(0, 2, h), (2, 0, h)], []),
        _complex3([], [(0, 2, -h), (2, 0, h)]),
        _complex3([(1, 2, h), (2, 1, h)], []),
        _complex3([], [(1, 2, -h), (2, 1, h)]),
        _complex3(
            [(0, 0, third_sqrt3), (1, 1, third_sqrt3), (2, 2, -2 * third_sqrt3)], []
        ),
    )
