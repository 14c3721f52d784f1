from fractions import Fraction

import pytest

from su3rep import admissible_blocks, block_unknown_squares, dimension, tspin_list


def all_labels(max_d):
    p = 0
    while dimension(p, 0) <= max_d:
        for q in range(p + 1):
            if dimension(p, q) <= max_d:
                yield p, q
        p += 1


class TestKnownMaps:
    def test_20(self):
        assert block_unknown_squares(2, 0) == {
            (2, 1): Fraction(2),
            (3, 2): Fraction(1),
        }

    def test_11(self):
        # frozen from the brute-force solve of the (1,1) commutators
        assert block_unknown_squares(1, 1) == {
            (1, 2): Fraction(3, 2),
            (2, 3): Fraction(0),
            (3, 4): Fraction(1),
            (3, 1): Fraction(3, 2),
            (4, 2): Fraction(1, 2),
        }

    @pytest.mark.parametrize(
        "p,q,expected",
        [(3, 2, Fraction(6)), (5, 1, Fraction(15, 2)), (1, 1, Fraction(3, 2))],
    )
    def test_31_entry(self, p, q, expected):
        squares = block_unknown_squares(p, q)
        assert squares[(3, 1)] == expected
        assert expected == Fraction(p * (q + 2), 2)

    def test_rejects_q_above_p(self):
        with pytest.raises(ValueError, match="negative-transpose"):
            block_unknown_squares(2, 3)


class TestStructuralInvariants:
    def test_keys_are_admissible_blocks_or_run_overhangs_below_1000(self):
        # positive squares on exactly the admissible blocks; a zero on
        # (first, last) of each spin run of two or more blocks; nothing else
        for p, q in all_labels(999):
            admissible = {(i, j) for i, j, _ in admissible_blocks(p, q)}
            spins = tspin_list(p, q)
            overhang = {
                (spins.index(s) + 1, len(spins) - spins[::-1].index(s))
                for s in set(spins) if spins.count(s) > 1
            }
            squares = block_unknown_squares(p, q)
            assert set(squares) == admissible | overhang, (p, q)
            assert all(squares[key] > 0 for key in admissible), (p, q)
            assert all(squares[key] == 0 for key in overhang), (p, q)
            # each call returns a fresh map: a caller's edit does not stick
            want = dict(squares)
            squares.clear()
            assert block_unknown_squares(p, q) == want, (p, q)

    def test_q0_closed_form_satisfies_recursion(self):
        # interior identity of the paper's lower-middle recursion: with no caps the
        # stencil collapses to "one less than the entry a step back"
        for p in range(2, 11):
            squares = block_unknown_squares(p, 0)
            for j in range(2, p + 1):
                assert squares[(j + 1, j)] == squares[(j, j - 1)] - 1
            assert squares[(2, 1)] == p
