"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
check is exact (no tolerances) except the wall-clock budgets.
"""

import dataclasses
import random
import time
from fractions import Fraction
from itertools import permutations

from su3rep import (
    RadicalSum,
    block_unknown_squares,
    build_generator_set,
    casimir_eigenvalue,
    check_casimir,
    check_commutators,
    compare_with_oracle,
    dimension,
    sweep,
    to_gell_mann,
    tspin_list,
    u3_leads,
    weight_multiplicities,
)
from su3rep.matrices import RadMatrix
from su3rep.radical import sqrt_of_rational


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_1_fundamental_golden(textbook_fundamental):
    start = time.perf_counter()
    fs = to_gell_mann(build_generator_set(1, 0))

    def matches(perm):
        for ours, ref in zip(fs.values(), textbook_fundamental):
            for r in range(3):
                for c in range(3):
                    if ours.re.get(r, c) != ref.re.get(perm[r], perm[c]):
                        return False
                    if ours.im.get(r, c) != ref.im.get(perm[r], perm[c]):
                        return False
        return True

    matching = [perm for perm in permutations(range(3)) if matches(perm)]
    elapsed = time.perf_counter() - start
    assert matching, "no permutation matches the textbook fundamental matrices"
    assert elapsed < 1.0
    _report(1, f"(1,0) equals the textbook basis under permutation {matching[0]} "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_irrep_32():
    start = time.perf_counter()
    gs = build_generator_set(3, 2)
    assert gs.dim == 42
    comm = check_commutators(gs)
    assert len(comm.relations) == 28 and comm.passed
    assert casimir_eigenvalue(3, 2) == Fraction(34, 3)
    assert check_casimir(gs).exact
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"(3,2): d=42, 28/28 commutators exact, casimir 34/3 "
               f"({elapsed:.2f} s)")


def test_criterion_3_full_sweep():
    start = time.perf_counter()
    summary = sweep(300)
    elapsed = time.perf_counter() - start
    assert summary.passed
    assert all(row.d < 300 for row in summary.rows)
    assert elapsed < 600.0
    _report(3, f"sweep below d=300: {len(summary.rows)} irreps, all exact "
               f"({elapsed:.1f} s)")


def test_criterion_4_structural_fixtures_53():
    assert tspin_list(5, 3) == (
        0, 1, 1, 2, 2, 2,
        3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5,
        6, 6, 6, 7, 7, 8,
    )
    leads = u3_leads(5, 3)
    assert leads[:6] == (-2, -4, -1, -6, -3, 0)
    assert leads[6:18] == (-8, -5, -2, 1, -7, -4, -1, 2, -6, -3, 0, 3)
    assert leads[18:] == (-5, -2, 1, -4, -1, -3)
    row = {
        t3: n for (t3, y), n in weight_multiplicities(5, 3).items() if y == -4
    }
    assert sum(row.values()) == 16
    assert [row[t3] for t3 in (-6, -4, -2, 0, 2, 4, 6)] == [1, 2, 3, 4, 3, 2, 1]
    _report(4, "(5,3) T-spin list, lead lists and the 16-state weight row check out")


# catalog of u+(3,1) squared from the numerical low-irrep survey
_SURVEY_TABLE = {
    (1, 1): Fraction(3, 2), (2, 1): Fraction(3), (3, 1): Fraction(9, 2),
    (4, 1): Fraction(6), (5, 1): Fraction(15, 2),
    (2, 2): Fraction(4), (3, 2): Fraction(6), (4, 2): Fraction(8),
    (5, 2): Fraction(10), (6, 2): Fraction(12),
    (3, 3): Fraction(15, 2), (4, 3): Fraction(10), (5, 3): Fraction(25, 2),
    (4, 4): Fraction(12), (5, 4): Fraction(15),
}


def test_criterion_5_survey_table():
    for (p, q), expected in _SURVEY_TABLE.items():
        assert block_unknown_squares(p, q)[(3, 1)] == expected
        assert expected == Fraction(p * (q + 2), 2)
    _report(5, f"u+(3,1)^2 matches the {len(_SURVEY_TABLE)}-point survey table "
               f"and p(q+2)/2")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    labels = [
        (p, q)
        for p in range(0, 12)
        for q in range(0, p + 1)
        if dimension(p, q) <= 64
    ]
    for p, q in labels:
        assert compare_with_oracle(p, q) == [], f"oracle mismatch at ({p},{q})"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(6, f"brute-force oracle agrees on all {len(labels)} irreps with "
               f"d<=64 ({elapsed:.1f} s)")


def test_criterion_7_swapped_orientation():
    for p, q in [(0, 1), (1, 2), (2, 3), (3, 5)]:
        gs = build_generator_set(p, q)
        assert check_commutators(gs).passed
        assert all(m.transpose(-1).transpose(-1) == m for m in gs.matrices().values())
    _report(7, "q>p irreps pass all 28 commutators; double negative transpose "
               "is the identity")


def test_criterion_8_negative_controls():
    base = build_generator_set(2, 1)
    entries = list(base.u_plus.items())
    assert entries
    for r, c, v in entries:
        corrupted = RadMatrix(base.dim)
        for rr, cc, vv in base.u_plus.items():
            corrupted.put(rr, cc, vv)
        corrupted.put(r, c, v + 1)
        bad = dataclasses.replace(
            base, u_plus=corrupted, u_minus=corrupted.transpose()
        )
        report = check_commutators(bad)
        assert not report.passed, f"corruption at ({r},{c}) went undetected"
        assert report.relations  # a verdict, never a vacuous pass
    _report(8, f"every one of {len(entries)} single-entry corruptions of "
               f"(2,1) U+ is detected")


def test_criterion_9_scalar_ring_laws():
    rng = random.Random(20260810)
    radicands = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30]

    def random_value():
        return RadicalSum.from_terms(
            (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.choice(radicands))
            for _ in range(rng.randint(0, 3))
        )

    cases = 10_000
    for _ in range(cases):
        a, b, c = random_value(), random_value(), random_value()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # constructed cancellation must be an exact zero
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        term = RadicalSum.from_terms([(coeff, rng.choice(radicands))])
        assert (a + term - term - a).is_zero
        assert (term - term).is_zero
    # spot values
    assert sqrt_of_rational(Fraction(9, 4)) == RadicalSum(Fraction(3, 2))
    assert (sqrt_of_rational(6) * sqrt_of_rational(10)).to_triples() == [(2, 1, 15)]
    _report(9, f"{cases} randomized ring-law cases and cancellation zero-tests pass")
