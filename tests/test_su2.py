from fractions import Fraction

import pytest

from su3rep import RadicalSum, ladder_coefficient, sqrt_of_rational
from su3rep.matrices import RadMatrix, _combine
from su3rep.su2 import spin_entries


def spin_block(kind: str, two_s: int) -> RadMatrix:
    """The spin matrix of the given kind: 'plus' from spin_entries, and the
    references 'minus' from ladder_coefficient and 'three' = diag(s, ..., -s),
    entered with ``put``."""
    if kind == "plus":
        return RadMatrix.from_entries(two_s + 1, spin_entries(two_s))
    block = RadMatrix(two_s + 1)
    for a in range(two_s + 1):
        if kind == "three":
            block.put(a, a, Fraction(two_s - 2 * a, 2))
        elif a < two_s:
            block.put(a + 1, a, ladder_coefficient("minus", two_s, two_s - 2 * a))
    return block


class TestLadderCoefficient:
    def test_raising_spin_one(self):
        # r+(1, 0) = sqrt(2)
        assert ladder_coefficient("plus", 2, 0) == sqrt_of_rational(2)

    def test_top_of_ladder(self):
        assert ladder_coefficient("plus", 6, 6).is_zero

    def test_lowering_spin_half(self):
        assert ladder_coefficient("minus", 1, 1) == RadicalSum(1)

    def test_parity_mismatch(self):
        with pytest.raises(ValueError, match="parity"):
            ladder_coefficient("plus", 2, 1)

    def test_component_out_of_range(self):
        with pytest.raises(ValueError):
            ladder_coefficient("minus", 2, 4)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ladder_coefficient("up", 2, 0)


class TestSpinBlock:
    def test_three_spin_one(self):
        b = spin_block("three", 2)
        assert [(r, c, v) for r, c, v in b.items()] == [
            (0, 0, RadicalSum(1)),
            (2, 2, RadicalSum(-1)),
        ]
        assert b.get(1, 1).is_zero

    def test_plus_spin_one(self):
        b = spin_block("plus", 2)
        r2 = sqrt_of_rational(2)
        assert [(r, c, v) for r, c, v in b.items()] == [(0, 1, r2), (1, 2, r2)]

    def test_plus_spin_zero(self):
        assert spin_block("plus", 0).is_zero()

    def test_minus_is_transpose_of_plus(self):
        for two_s in range(0, 9):
            assert spin_block("minus", two_s) == spin_block("plus", two_s).transpose()


@pytest.mark.parametrize("two_s", range(0, 17))
def test_block_commutators(two_s):
    plus = spin_block("plus", two_s)
    minus = spin_block("minus", two_s)
    three = spin_block("three", two_s)
    assert _combine(((1, three, plus), (-1, plus, three), (-1, plus))).is_zero()
    assert _combine(((1, plus, minus), (-1, minus, plus), (-2, three))).is_zero()


@pytest.mark.parametrize("two_s", range(0, 17))
def test_block_casimir(two_s):
    plus = spin_block("plus", two_s)
    minus = spin_block("minus", two_s)
    three = spin_block("three", two_s)
    eigen = Fraction(two_s * (two_s + 2), 4)  # s(s+1)
    half = Fraction(1, 2)
    assert _combine(((half, plus, minus), (half, minus, plus), (1, three, three),
                     (-eigen, RadMatrix.identity(two_s + 1)))).is_zero()
