from fractions import Fraction
from itertools import product

import pytest

from su3rep import admissible_blocks, block_unknown_squares, tspin_list
from su3rep.generators import unit_raising_blocks
from su3rep.structure import _block_table, block_offsets, state_labels
from su3rep.unknowns import shift_minus_square, shift_plus_square

from conftest import labels_below, run_entries


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
        for p, q in labels_below(1000):
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


# The oracle's two equations at the state in position alpha of block (a, b),
# n = a + b: the diagonal of [U+,U-] = 2 U3 or of [V+,V-] = 2 U3 + 2 T3, with
# 2 U3 = a - 2b - p + q + alpha and 2 T3 = n - 2 alpha.  Its row carries the
# unit entries of the blocks (a, b) -> (a - 1, b) and (a, b) -> (a, b + 1),
# its column those of (a + 1, b) -> (a, b) and (a, b - 1) -> (a, b); a term
# with coefficient 0 is absent, so pole blocks drop out.


def _coefficients(relation, a, b, alpha):
    """((x-(a,b), x+(a,b)) on the row, (x-(a+1,b), x+(a,b-1)) on the column)."""
    n = a + b
    if relation == "U":
        return (alpha, Fraction(n + 1 - alpha, n + 1)), (alpha + 1, Fraction(n - alpha, n or 1))
    return (n - alpha, Fraction(alpha + 1, n + 1)), (n + 1 - alpha, Fraction(alpha, n or 1))


def _residual(relation, p, q, a, b, alpha):
    (row_minus, row_plus), (col_minus, col_plus) = _coefficients(relation, a, b, alpha)
    terms = ((row_minus, shift_minus_square, a, b), (row_plus, shift_plus_square, a, b),
             (-col_minus, shift_minus_square, a + 1, b), (-col_plus, shift_plus_square, a, b - 1))
    two_u3 = a - 2 * b - p + q + alpha
    rhs = two_u3 if relation == "U" else two_u3 + a + b - 2 * alpha
    return sum(c * square(p, q, aa, bb) for c, square, aa, bb in terms if c) - rhs


class TestClosedFormIdentities:
    """Times (a+b)(a+b+1)(a+b+2) each residual is a polynomial of degree at
    most 1 in p, q and alpha and at most 5 in a and b.  A polynomial that
    vanishes on a product grid with more points per variable than its degree
    there is zero (Alon, Combinatorial Nullstellensatz, Lemma 2.1), so the
    closed forms solve both equations for every (p, q) and every block off the
    pole a + b = 0."""

    @pytest.mark.parametrize("relation", ["U", "V"])
    def test_identity_on_the_grid(self, relation):
        grid = list(product((0, 1), (0, 1), range(1, 7), range(1, 7), (0, 1)))
        assert len(grid) == 288
        assert [point for point in grid if _residual(relation, *point)] == []

    @pytest.mark.parametrize("relation", ["U", "V"])
    def test_pole_block(self, relation):
        # block (0, 0) holds one state, alpha = 0: q(p + 2)/2 - p(q + 2)/2 = q - p,
        # degree 1 in p and in q
        assert [(p, q) for p, q in product((0, 1), (0, 1))
                if _residual(relation, p, q, 0, 0, 0)] == []

    def test_coefficients_are_the_squared_unit_entries_below_1000(self):
        for p, q in labels_below(1000):
            spins, _, pairs = _block_table(p, q)
            offsets = block_offsets(p, q)
            states = [(a, b, alpha) for (a, b), two_s in zip(pairs, spins)
                      for alpha in range(two_s + 1)]
            for (a, b, alpha), lbl in zip(states, state_labels(p, q)):
                assert (lbl.two_u3, lbl.two_sigma) == (a - 2 * b - p + q + alpha, a + b - 2 * alpha)
            blocks = zip(admissible_blocks(p, q), unit_raising_blocks(p, q, ("Up", "Vp")))
            for (i, j, shift), (key, runs) in blocks:
                assert key == (i, j)
                side = 0 if shift == -1 else 1
                for relation, name in (("U", "Up"), ("V", "Vp")):
                    entries = run_entries(runs[name])
                    for end, block in enumerate((i, j)):  # the row side, then the column
                        got = {entry[end]: Fraction(entry[3], entry[4]) for entry in entries}
                        assert len(got) == len(entries), (p, q, key, relation)
                        start, pair = offsets[block - 1], pairs[block - 1]
                        want = {start + alpha: _coefficients(relation, *pair, alpha)[end][side]
                                for alpha in range(spins[block - 1] + 1)}
                        assert got == {s: c for s, c in want.items() if c}, (p, q, key, end)


class TestReverseStateOrder:
    """Why the oracle's one substitution pass suffices for every (p, q).  At
    the last state of block (a, b), alpha = n, the [U+,U-] equation drops the
    square of (a, b - 1) -> (a, b) and the [V+,V-] one that of (a, b) ->
    (a - 1, b); the state's other two squares, of (a + 1, b) -> (a, b) and
    (a, b) -> (a, b + 1), are solved at the last states of blocks of spin
    n + 1, which sort after (a, b).  So in reverse state order each equation
    meets at most one unsolved square, and each one below alpha = n none."""

    def test_last_state_meets_at_most_one_new_square(self):
        # (a, b) = (0, 0) is the pole, n = 0, whose neighbours are all absent
        for a, b in product(range(12), range(12)):
            n = a + b
            (u_minus, _), (_, u_plus_below) = _coefficients("U", a, b, n)
            (v_minus, _), (_, v_plus_below) = _coefficients("V", a, b, n)
            # U keeps (a, b) -> (a - 1, b) and drops (a, b - 1) -> (a, b); V the reverse
            assert (u_plus_below, v_minus) == (0, 0), (a, b)
            assert not n or (u_minus, v_plus_below) == (n, 1), (a, b)

    def test_neighbours_of_spin_one_more_sort_after(self):
        for p, q in labels_below(1000):
            _, _, pairs = _block_table(p, q)
            position = {pair: k for k, pair in enumerate(pairs)}
            for (a, b), k in position.items():
                later = [position.get(pair, k + 1) for pair in ((a + 1, b), (a, b + 1))]
                assert min(later) > k, (p, q, a, b)
