from fractions import Fraction
from unittest import mock

import pytest

from su3rep import unknowns
from su3rep import (
    ConsistencyError,
    admissible_blocks,
    block_unknown_squares,
    dimension,
)


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
    def test_nonnegative_below_300(self):
        for p, q in all_labels(300):
            assert all(v >= 0 for v in block_unknown_squares(p, q).values())

    def test_nonzero_support_is_admissible(self):
        for p, q in all_labels(300):
            admissible = {(i, j) for i, j, _ in admissible_blocks(p, q)}
            squares = block_unknown_squares(p, q)
            nonzero = {k for k, v in squares.items() if v}
            assert nonzero <= admissible

    def test_every_admissible_block_is_covered(self):
        for p, q in all_labels(300):
            admissible = {(i, j) for i, j, _ in admissible_blocks(p, q)}
            assert admissible <= set(block_unknown_squares(p, q))

    def test_q0_closed_form_satisfies_recursion(self):
        # interior identity of the lower-middle recursion: with no caps the
        # stencil collapses to "one less than the entry a step back"
        for p in range(2, 11):
            squares = block_unknown_squares(p, 0)
            for j in range(2, p + 1):
                assert squares[(j + 1, j)] == squares[(j, j - 1)] - 1
            assert squares[(2, 1)] == p


@pytest.fixture
def uncached():
    """Clear every lru_cache in su3rep.unknowns before and after the test, so
    a patched family list is read and its result is not kept."""

    def clear():
        for obj in vars(unknowns).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    clear()
    yield
    clear()


def _patched_families(edit):
    """Patch _closed_form_entries(p, q) to yield edit(p, q, its entries)."""
    original = unknowns._closed_form_entries
    return mock.patch.object(
        unknowns, "_closed_form_entries", lambda p, q: edit(p, q, original(p, q))
    )


class TestGuards:
    """Negative controls: a broken family list must raise, never pass."""

    def test_repeated_entry_overlaps(self, uncached):
        def repeat_first(p, q, entries):
            entries = list(entries)
            return [entries[0]] + entries

        with _patched_families(repeat_first):
            with pytest.raises(ConsistencyError, match=r"families overlap at \(\d+,\d+\) for \(5,3\)"):
                block_unknown_squares(5, 3)

    def test_missing_upper_middle_is_undefined(self, uncached):
        # entries end with (i, j, value); offset q is the upper middle only
        def drop_upper_middle(p, q, entries):
            return [e for e in entries if e[-2] - e[-3] != q]

        with _patched_families(drop_upper_middle):
            with pytest.raises(ConsistencyError, match=r"references undefined \(4,7\)"):
                block_unknown_squares(5, 3)
        assert block_unknown_squares(5, 3)[(4, 7)] == Fraction(27, 4)
