"""Everything the pair (p, q) determines before any matrix entry is filled.

A (p, q) irrep of su(3) decomposes under the T-spin su(2) subalgebra into
(p+1)(q+1) blocks.  Ordered by increasing spin, the block list falls into
three regions - top cap, middle, bottom cap - and the per-block U-spin lead
components follow closed forms region by region.  Spins and 3-components are
stored doubled (2s, 2*sigma, 2*u3) so every label is an integer.

All list builders here require p >= q; callers wanting q > p go through the
negative-transpose path in the generators module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate


def dimension(p: int, q: int) -> int:
    """Number of states in the (p, q) irrep: (p+1)(q+1)(p+q+2)/2."""
    _check_label(p, q)
    return (p + 1) * (q + 1) * (p + q + 2) // 2


def cap_start(q: int) -> int:
    """1-based index of the first block carrying doubled T-spin q-1.

    The top cap stacks doubled spins 0, 1, 1, 2, 2, 2, ..., so the run of
    spin q-1 starts right after the triangular count q(q-1)/2.  This index
    seeds the ranges of every block-unknown formula family.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    return q * (q - 1) // 2 + 1


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
def tspin_list(p: int, q: int) -> tuple[int, ...]:
    """Doubled T-spins 2s of the blocks in block order, ascending.

    Top cap: spin k repeated k+1 times for k = 0..q-1.
    Middle:  spin k repeated q+1 times for k = q..p.
    Bottom:  spin p+j repeated q-j+1 times for j = 1..q.
    """
    _check_ordered(p, q)
    top = [k for k in range(q) for _ in range(k + 1)]
    middle = [k for k in range(q, p + 1) for _ in range(q + 1)]
    bottom = [p + j for j in range(1, q + 1) for _ in range(q + 1 - j)]
    spins = tuple(top + middle + bottom)
    assert len(spins) == (p + 1) * (q + 1)
    assert sum(s + 1 for s in spins) == dimension(p, q)
    return spins


@lru_cache(maxsize=None)
def block_offsets(p: int, q: int) -> tuple[int, ...]:
    """0-based row/column offset of each diagonal block (block size 2s+1)."""
    return tuple(accumulate((two_s + 1 for two_s in tspin_list(p, q)[:-1]), initial=0))


@lru_cache(maxsize=None)
def u3_leads(p: int, q: int) -> tuple[int, ...]:
    """Doubled U-spin lead components 2*u3(i, s_i), one per block.

    Each region runs over its own rectangular index table; within a run of
    equal T-spins the leads come out strictly increasing, which is the
    canonical state order (smaller lead first).
    """
    _check_ordered(p, q)
    top = [
        -(p - q) - 2 * (i - 1) + 3 * (j - 1)
        for i in range(1, q + 1)
        for j in range(1, i + 1)
    ]
    middle = [
        -p - q + i + 3 * j
        for i in range(0, p - q + 1)
        for j in range(0, q + 1)
    ]
    bottom = [
        1 - 2 * q + (i - 1) + 3 * (j - 1)
        for i in range(1, q + 1)
        for j in range(1, q - i + 2)
    ]
    leads = tuple(top + middle + bottom)
    # Ties inside an equal-spin run are impossible; assert rather than sort.
    spins = tspin_list(p, q)
    for k in range(1, len(leads)):
        if spins[k] == spins[k - 1] and leads[k] <= leads[k - 1]:
            raise AssertionError(f"lead order violated at block {k + 1} for ({p},{q})")
    return leads


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

    T3 = sigma and the hypercharge is Y = (4/3)u3 + (2/3)sigma, so in the
    doubled/tripled integer units 3Y = 2*(2u3) + 2*sigma.
    """
    counts: Counter[tuple[int, int]] = Counter()
    for lbl in state_labels(p, q):
        counts[(lbl.two_sigma, 2 * lbl.two_u3 + lbl.two_sigma)] += 1
    return dict(counts)


def _check_label(p: int, q: int) -> None:
    if p < 0 or q < 0:
        raise ValueError(f"irrep label must be nonnegative, got ({p}, {q})")


def _check_ordered(p: int, q: int) -> None:
    _check_label(p, q)
    if p < q:
        raise ValueError(
            f"({p}, {q}) has q > p: use the negative-transpose path"
        )
