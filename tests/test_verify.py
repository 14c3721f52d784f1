import contextlib
import dataclasses
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import su3rep
from su3rep import (
    CheckReport,
    ComplexMatrix,
    ConsistencyError,
    RadicalSum,
    RelationCheck,
    block_unknown_squares,
    build_generator_set,
    casimir_eigenvalue,
    check_casimir,
    check_commutators,
    compare_with_oracle,
    dimension,
    oracle_solve,
    state_labels,
    sweep,
    to_gell_mann,
    verify_irrep,
    weight_multiplicities,
)
from su3rep import generators
from su3rep import verify as verify_module
from su3rep.generators import GELL_MANN_TABLE
from su3rep.matrices import RadMatrix, _combine
from su3rep.verify import (
    COMMUTATOR_TABLE,
    ORACLE_MAX_DIM,
    CHEVALLEY_RELATIONS,
    _relation_name,
    _substitute,
    sweep_labels,
)


class TestCommutators:
    def test_table_covers_all_pairs(self):
        pairs = {frozenset((a, b)) for a, b, _ in COMMUTATOR_TABLE}
        assert len(COMMUTATOR_TABLE) == 28
        assert len(pairs) == 28

    @pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (0, 1)])
    def test_all_exact(self, p, q):
        report = check_commutators(build_generator_set(p, q))
        assert len(report.relations) == 28
        assert report.passed
        assert all(r.residual == 0.0 for r in report.relations)

    def test_vacuous_report_is_not_a_pass(self):
        assert not CheckReport(0, 0, ()).passed


class TestCasimir:
    @pytest.mark.parametrize(
        "p,q,eigen",
        [
            (1, 0, Fraction(4, 3)),
            (1, 1, Fraction(3)),
            (3, 2, Fraction(34, 3)),
        ],
    )
    def test_eigenvalues(self, p, q, eigen):
        assert casimir_eigenvalue(p, q) == eigen
        check = check_casimir(build_generator_set(p, q))
        assert check.exact

    def test_fundamental_from_textbook_sum(self, textbook_fundamental):
        # independent route: sum of squares of the eight hermitian matrices
        squares = [(1, f.re, f.re) for f in textbook_fundamental]
        squares += [(-1, f.im, f.im) for f in textbook_fundamental]
        assert _combine(squares + [(Fraction(-4, 3), RadMatrix.identity(3))]).is_zero()

    def test_swapped_orientation(self):
        assert check_casimir(build_generator_set(2, 3)).exact


def _reference_structure_lines(gs):
    """The hermitian and traceless lines of the built F1..F8, each Fk tested
    by ``ComplexMatrix.is_hermitian`` and ``is_traceless``: the reference for
    verify's lines, which build no Fk."""
    fs = to_gell_mann(gs)
    lines = []
    for name, holds in (("F1..F8 hermitian", ComplexMatrix.is_hermitian),
                        ("F1..F8 traceless", ComplexMatrix.is_traceless)):
        bad = [k for k, f in fs.items() if not holds(f)]
        lines.append(RelationCheck(f"{name} (violated by F{bad})" if bad else name,
                                   not bad, 1.0 if bad else 0.0, "structure"))
    return tuple(lines)


class TestStructure:
    @pytest.mark.parametrize("p,q", [(1, 0), (2, 1), (1, 2)])
    def test_passes(self, p, q):
        lines = verify_irrep(p, q).of_kind("structure").relations[:2]
        assert [c.name for c in lines] == ["F1..F8 hermitian", "F1..F8 traceless"]
        assert all(c.exact for c in lines)
        assert lines == _reference_structure_lines(build_generator_set(p, q))

    def test_corrupted_f3_fails(self):
        # 1 added at (0, 0) of T3: F3 = T3 and F8 = (2 U3 + T3)/sqrt(3) gain a trace
        gs = build_generator_set(1, 0)
        bad = dataclasses.replace(gs, t_three=_added(gs.t_three, 0, 0, 1))
        lines, summed = _verify_structure_lines(bad)
        assert lines[:2] == _reference_structure_lines(bad)
        assert [c.name for c in lines[:2] if not c.exact] == [
            "F1..F8 traceless (violated by F[3, 8])"]
        assert summed == []  # T3 is still a rational diagonal


class TestOracle:
    def test_fundamental(self):
        assert oracle_solve(1, 0) == {(2, 1): Fraction(1)}

    def test_20_closed_form(self):
        assert oracle_solve(2, 0) == {(2, 1): Fraction(2), (3, 2): Fraction(1)}

    def test_11_squares(self):
        assert oracle_solve(1, 1) == {
            (1, 2): Fraction(3, 2),
            (3, 1): Fraction(3, 2),
            (3, 4): Fraction(1),
            (4, 2): Fraction(1, 2),
        }

    def test_desk_scale_guard(self):
        assert dimension(25, 12) == 6591 > ORACLE_MAX_DIM
        with pytest.raises(ValueError, match="desk-scale"):
            oracle_solve(25, 12)
        with pytest.raises(ValueError):
            oracle_solve(0, 1)

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_matches_closed_forms(self, p, q):
        assert compare_with_oracle(p, q) == []

    def test_agreement_tolerates_zero_only_entries(self):
        # the closed forms emit (2,3) -> 0 for (1,1); the oracle has no such
        # unknown, and the comparison treats the missing key as zero
        formula = block_unknown_squares(1, 1)
        solved = oracle_solve(1, 1)
        assert formula[(2, 3)] == 0
        assert (2, 3) not in solved
        assert compare_with_oracle(1, 1) == []

    def test_matches_closed_forms_below_1000(self):
        labels = [(p, q) for p, q in sweep_labels(1000) if p >= q]
        assert len(labels) == 150
        for p, q in labels:
            formula = block_unknown_squares(p, q)
            solved = oracle_solve(p, q)
            for key in set(formula) | set(solved):
                assert formula.get(key, 0) == solved.get(key, 0), (p, q, key)

    def test_one_block_walk_per_solve(self, monkeypatch):
        calls = Counter()
        for name in ("admissible_blocks", "build_raising"):
            original = getattr(generators, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(generators, name, counted)
        assert compare_with_oracle(4, 2) == []
        assert calls["admissible_blocks"] == 1
        assert calls["build_raising"] == 0

    def test_corrupted_closed_form_is_reported(self, monkeypatch):
        def shifted(p, q):
            squares = block_unknown_squares(p, q)
            squares[(3, 1)] += 1
            return squares

        monkeypatch.setattr("su3rep.verify.block_unknown_squares", shifted)
        assert compare_with_oracle(2, 1) == ["block (3, 1): closed form 4 != solved 3"]

    def test_no_equations_is_an_error_not_a_guess(self, monkeypatch):
        # a copy of the last block under a new key: every equation holds the
        # two squares only as their sum, so the first of them that meets the
        # pair raises rather than guess either
        def doubled(p, q, names):
            units = generators.unit_raising_blocks(p, q, names)
            return units + [((0, 0), units[-1][1])]

        monkeypatch.setattr("su3rep.verify.unit_raising_blocks", doubled)
        with pytest.raises(ConsistencyError) as raised:
            oracle_solve(1, 0)
        assert str(raised.value) == ("oracle equation at state 3, [U+,U-] holds two unsolved "
                                     "squares, of blocks (2, 1) and (0, 0)")

    def test_raised_v_unit_entry_is_inconsistent(self, monkeypatch):
        # one V+ unit square off by 1/b: no squares solve both diagonals
        def raised(p, q, names):
            units = generators.unit_raising_blocks(p, q, names)
            key, runs = units[0]
            row, col, sign, (a, *rest), b = runs["Vp"]
            units[0] = (key, {**runs, "Vp": (row, col, sign, [a + 1, *rest], b)})
            return units

        monkeypatch.setattr("su3rep.verify.unit_raising_blocks", raised)
        with pytest.raises(ConsistencyError, match="inconsistent"):
            oracle_solve(2, 1)

    def test_negated_unit_entries_give_a_negative_square(self, monkeypatch):
        # every a/b negated: the equations stay consistent, solved by the
        # negated squares, which no real matrix can carry
        def negated(p, q, names):
            return [(key, {name: (row, col, sign, [-a for a in nums], b)
                           for name, (row, col, sign, nums, b) in runs.items()})
                    for key, runs in generators.unit_raising_blocks(p, q, names)]

        monkeypatch.setattr("su3rep.verify.unit_raising_blocks", negated)
        with pytest.raises(ConsistencyError, match=r"negative square -2 at \(1,2\) for \(2,1\)"):
            oracle_solve(2, 1)

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 3)])
    def test_flipped_v_block_is_left_to_the_commutators(self, monkeypatch, p, q):
        # signs do not enter the oracle's equations: with one block's V+
        # entries negated its squares still equal the closed forms, and the
        # commutator check is what catches the sign
        original = generators.unit_raising_blocks

        def flipped(p, q, names):
            units = original(p, q, names)
            key, runs = units[0]
            if "Vp" in runs:
                row, col, sign, nums, b = runs["Vp"]
                units[0] = (key, {**runs, "Vp": (row, col, -sign, nums, b)})
            return units

        monkeypatch.setattr(generators, "unit_raising_blocks", flipped)
        monkeypatch.setattr(verify_module, "unit_raising_blocks", flipped)
        assert compare_with_oracle(p, q) == []
        failures = [r.name for r in check_commutators(build_generator_set(p, q)).failures()]
        assert "[Tp,Up] = Vp" in failures

    @pytest.mark.parametrize("p,q,state", [(1, 0, 0), (2, 1, 0), (3, 3, 0),
                                           (1, 0, -1), (2, 1, -1), (3, 3, -1)],
                             ids=["1-0", "2-1", "3-3", "1-0-last", "2-1-last", "3-3-last"])
    def test_shifted_right_hand_side_is_inconsistent(self, monkeypatch, p, q, state):
        # 2 U3 off by one at a single state: [U+,U-] is traceless, so no
        # squares can solve the corrupted system
        monkeypatch.setattr("su3rep.verify.state_labels", lambda *_: _shifted_labels(p, q, state))
        with pytest.raises(ConsistencyError, match="inconsistent") as raised:
            oracle_solve(p, q)
        if state == 0:
            # in reverse state order every unknown is solved before state 0,
            # whose two equations are checks; the error names the first
            assert str(raised.value) == "oracle equations are inconsistent at state 1, [V+,V-]"

    def test_one_solve_per_admissible_block(self, monkeypatch):
        # at (4,2), in reverse state order, 22 of the 120 equations each
        # solve one new square, one per admissible block; the other 98 hold
        # no unsolved square and are checked at the solution
        remainder, kinds = verify_module._remainder, Counter()

        def recorded(row, rhs, solved):
            num, den, new = remainder(row, rhs, solved)
            kinds["solve" if new else "check"] += 1
            return num, den, new

        monkeypatch.setattr(verify_module, "_remainder", recorded)
        assert compare_with_oracle(4, 2) == []
        assert 2 * dimension(4, 2) == 120 and len(su3rep.admissible_blocks(4, 2)) == 22
        assert kinds == {"solve": 22, "check": 98}


def _shifted_labels(p, q, state):
    """``state_labels(p, q)`` with 2 U3 raised by one at one state."""
    labels = state_labels(p, q)
    labels[state] = dataclasses.replace(labels[state], two_u3=labels[state].two_u3 + 1)
    return labels


def _eq(coeffs, rhs, where="an equation"):
    return dict(coeffs), rhs, where


class TestSubstitute:
    """Rows in processing order: each solves at most one new unknown."""

    def test_back_substitution(self):
        assert _substitute([_eq({1: 1}, 1), _eq({0: 1, 1: 1}, 3)], range(2)) == [2, 1]

    def test_two_unsolved_unknowns_raise(self):
        with pytest.raises(ConsistencyError,
                           match="at row 1 holds two unsolved squares, of blocks a and b"):
            _substitute([_eq({0: 1, 1: 1}, 3, "row 1"), _eq({1: 1}, 1)], ["a", "b"])

    def test_unsolved_unknown_is_underdetermined(self):
        with pytest.raises(ConsistencyError, match="underdetermined: no equation solves blocks c"):
            _substitute([_eq({0: 1}, 1), _eq({0: 1, 1: 1}, 3)], ["a", "b", "c"])

    def test_inconsistent_pair_raises(self):
        with pytest.raises(ConsistencyError, match="inconsistent at row 2"):
            _substitute([_eq({0: 1}, 1, "row 1"), _eq({0: 2}, 3, "row 2")], range(1))

    def test_duplicated_equation(self):
        rows = [_eq({1: 1}, 1), _eq({0: 1, 1: 1}, 3), _eq({0: 2, 1: 2}, 6)]
        assert _substitute(rows, range(2)) == [2, 1]

    def test_stored_zero_coefficient_is_not_an_unknown(self):
        rows = [_eq({0: 0, 1: 1}, 1), _eq({0: 1, 1: 1}, 3)]
        assert _substitute(rows, range(2)) == [2, 1]

    def test_no_variables(self):
        assert _substitute([], []) == []
        assert _substitute([_eq({}, 0)], []) == []
        with pytest.raises(ConsistencyError, match="inconsistent"):
            _substitute([_eq({}, 1)], [])

    def test_non_unit_coefficient_gives_a_rational(self):
        solution = _substitute([_eq({0: 2}, 3)], range(1))
        assert solution == [Fraction(3, 2)]
        assert isinstance(solution[0], Fraction)

    def test_negative_coefficients(self):
        rows = [_eq({1: -2}, -2), _eq({0: -3, 1: 1}, -5)]
        assert _substitute(rows, range(2)) == [2, 1]
        assert _substitute([_eq({0: -4}, 2)], range(1)) == [Fraction(-1, 2)]

    def test_common_factor_with_rhs(self):
        assert _substitute([_eq({1: 4}, 4), _eq({0: 6, 1: 4}, 10)], range(2)) == [1, 1]
        assert _substitute([_eq({0: 6}, 10)], range(1)) == [Fraction(5, 3)]

    def test_solved_unknown_checked_by_substitution(self):
        # 2 x0 = 3 solves x0 = 3/2, at which 4 x0 = 6 holds and 4 x0 = 5 does not
        assert _substitute([_eq({0: 2}, 3), _eq({0: 4}, 6)], range(1)) == [Fraction(3, 2)]
        with pytest.raises(ConsistencyError, match="inconsistent"):
            _substitute([_eq({0: 2}, 3), _eq({0: 4}, 5)], range(1))

    def test_row_mixing_solved_and_unsolved_unknowns_solves_the_new_one(self):
        # x0 = 3/2 is substituted, and x1 is solved from what is left
        rows = [_eq({0: 2}, 3), _eq({0: 4, 1: 3}, 12), _eq({0: 2, 1: 1}, 5)]
        assert _substitute(rows, range(2)) == [Fraction(3, 2), 2]
        with pytest.raises(ConsistencyError, match="inconsistent"):
            _substitute(rows[:2] + [_eq({0: 2, 1: 1}, 4)], range(2))

    def test_inconsistent_only_after_integer_scaling(self):
        # y = 1 makes 2x + 4y = 6 give x = 1, which 3x + 6y = 10 contradicts
        # only once both are scaled to a common denominator
        with pytest.raises(ConsistencyError, match="inconsistent"):
            _substitute([_eq({1: 5}, 5), _eq({0: 2, 1: 4}, 6), _eq({0: 3, 1: 6}, 10)], range(2))
        assert _substitute([_eq({1: 5}, 5), _eq({0: 2, 1: 4}, 6), _eq({0: 3, 1: 6}, 9)],
                           range(2)) == [1, 1]


class TestNegativeControls:
    def test_any_single_uplus_corruption_fails(self):
        base = build_generator_set(2, 1)
        entries = list(base.u_plus.items())
        assert entries
        for r, c, _ in entries:
            bad = _added(base.u_plus, r, c, 1)
            corrupt = dataclasses.replace(base, u_plus=bad, u_minus=bad.transpose())
            assert not check_commutators(corrupt).passed


class TestRelationKinds:
    @pytest.mark.parametrize("p,q", [(3, 2), (2, 3)])
    def test_kind_counts(self, p, q):
        report = verify_irrep(p, q)
        counts = Counter(r.kind for r in report.relations)
        assert counts == {"commutator": 28, "casimir": 1, "structure": 3}
        assert [len(report.of_kind(k).relations) for k in counts] == list(counts.values())

    def test_sweep_reads_each_kind(self, monkeypatch):
        def failing_casimir(gs):
            return RelationCheck("casimir = ?", False, 1.0, kind="casimir")

        # a failed certificate fails the weights line and takes no Schur step
        failing_weights = RelationCheck("weights of ?", False, 1.0, kind="structure")
        monkeypatch.setattr("su3rep.verify._weights_line", lambda gs, diagonals: failing_weights)
        for casimir_ok in (True, False):
            if not casimir_ok:
                monkeypatch.setattr("su3rep.verify.check_casimir", failing_casimir)
            summary = sweep(9)
            assert summary.rows
            assert all(
                (r.commutators_ok, r.casimir_ok, r.structure_ok) == (True, casimir_ok, False)
                for r in summary.rows
            )
            assert not summary.passed

    def test_missing_kind_is_not_a_pass(self):
        assert not verify_irrep(1, 0).of_kind("oracle").passed


class TestSweep:
    def test_labels(self):
        assert sweep_labels(4) == [(0, 0), (0, 1), (1, 0)]
        assert (3, 5) in sweep_labels(300)
        assert all(dimension(p, q) < 50 for p, q in sweep_labels(50))

    def test_empty_sweep_rejected(self):
        # no irrep has d < 1: an empty sweep would be a verdict on nothing
        with pytest.raises(ValueError, match="at least 2"):
            sweep(1)
        assert sweep(2).passed

    def test_tiny_sweep(self):
        summary = sweep(4)
        assert summary.passed
        assert [(r.p, r.q) for r in summary.rows] == [(0, 0), (0, 1), (1, 0)]

    def test_parallel_matches_serial(self):
        serial = sweep(30)
        parallel = sweep(30, jobs=2)
        strip = lambda rows: [
            (r.p, r.q, r.d, r.commutators_ok, r.casimir_ok, r.structure_ok)
            for r in rows
        ]
        assert strip(serial.rows) == strip(parallel.rows)

    @pytest.fixture
    def pool(self, monkeypatch):
        """Replace the process pool with one that maps in this process and
        records its max_workers and the items it maps, in order; the lists
        fill as pools are made and mapped."""
        record = SimpleNamespace(sizes=[], mapped=[])

        class RecordingPool:
            def __init__(self, max_workers):
                record.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                record.mapped.append(list(items))
                return map(fn, record.mapped[-1])

        # sweep imports the pool class from concurrent.futures when it forks
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        return record

    @pytest.mark.parametrize("cpus,pools", [(4, [4]), (1, []), (None, [])])
    def test_jobs_capped_by_cpu_count(self, monkeypatch, pool, cpus, pools):
        monkeypatch.setattr("su3rep.verify.os.cpu_count", lambda: cpus)
        summary = sweep(30, jobs=10**6)
        assert summary.passed
        assert [(r.p, r.q) for r in summary.rows] == sweep_labels(30)
        assert pool.sizes == pools

    def test_jobs_capped_by_irrep_count(self, monkeypatch, pool):
        monkeypatch.setattr("su3rep.verify.os.cpu_count", lambda: 64)
        assert [(r.p, r.q) for r in sweep(4, jobs=10**6).rows] == [(0, 0), (0, 1), (1, 0)]
        assert pool.sizes == [3]

    def test_largest_irreps_submitted_first(self, monkeypatch, pool):
        monkeypatch.setattr("su3rep.verify.os.cpu_count", lambda: 4)
        summary = sweep(64, jobs=2)
        assert summary.passed
        assert [(r.p, r.q) for r in summary.rows] == sweep_labels(64)
        [mapped] = pool.mapped
        assert sorted(mapped) == sweep_labels(64)
        dims = [dimension(p, q) for p, q in mapped]
        assert dims == sorted(dims, reverse=True)
        # equal dimensions go in (p, q) order: (2, 3) before (3, 2)
        assert all(a < b for a, b, da, db in zip(mapped, mapped[1:], dims, dims[1:]) if da == db)


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_is_a_failed_row(self, monkeypatch, jobs):
        verify_irrep = verify_module.verify_irrep

        def failing_at_21(p, q):
            if (p, q) == (2, 1):
                raise ConsistencyError("no closed form")
            return verify_irrep(p, q)

        monkeypatch.setattr("su3rep.verify.verify_irrep", failing_at_21)
        summary = sweep(30, jobs=jobs)
        assert not summary.passed
        assert [(r.p, r.q) for r in summary.rows] == sweep_labels(30)
        [failed] = [r for r in summary.rows if (r.p, r.q) == (2, 1)]
        assert (failed.commutators_ok, failed.casimir_ok, failed.structure_ok) == (False,) * 3
        assert failed.error == "ConsistencyError: no closed form"
        others = [r for r in summary.rows if r is not failed]
        assert all(r.commutators_ok and r.casimir_ok and r.structure_ok and not r.error
                   for r in others)


class TestFloatCrossCheck:
    @pytest.mark.parametrize("p,q", [(3, 2), (5, 3)])
    def test_float_commutators_small_residual(self, p, q):
        gs = build_generator_set(p, q)
        mats = {k: np.zeros((gs.dim, gs.dim)) for k in gs.matrices()}
        for k, m in gs.matrices().items():
            for r, c, v in m.items():
                mats[k][r, c] = v.to_float()
        for a, b, rhs in COMMUTATOR_TABLE:
            resid = mats[a] @ mats[b] - mats[b] @ mats[a]
            for coeff, key in rhs:
                resid = resid - float(coeff) * mats[key]
            assert np.max(np.abs(resid)) < 1e-9


# The 28 relation names in report order.
_RELATION_NAMES = (
    '[T3,Tp] = Tp',
    '[T3,Tm] = -Tm',
    '[T3,U3] = 0',
    '[T3,Up] = -1/2*Up',
    '[T3,Um] = 1/2*Um',
    '[T3,Vp] = 1/2*Vp',
    '[T3,Vm] = -1/2*Vm',
    '[Tp,Tm] = 2*T3',
    '[Tp,Up] = Vp',
    '[Tp,Um] = 0',
    '[Tp,U3] = 1/2*Tp',
    '[Tp,Vp] = 0',
    '[Tp,Vm] = -Um',
    '[Tm,Up] = 0',
    '[Tm,Um] = -Vm',
    '[Tm,U3] = -1/2*Tm',
    '[Tm,Vp] = Up',
    '[Tm,Vm] = 0',
    '[U3,Up] = Up',
    '[U3,Um] = -Um',
    '[U3,Vp] = 1/2*Vp',
    '[U3,Vm] = -1/2*Vm',
    '[Up,Um] = 2*U3',
    '[Up,Vp] = 0',
    '[Up,Vm] = Tm',
    '[Um,Vp] = -Tp',
    '[Um,Vm] = 0',
    '[Vp,Vm] = 2*U3 + 2*T3',
)

# One entry (+sqrt 7) corrupted in one matrix; recorded from the RadicalSum
# matrix-product implementation.  Each value maps the failing relations to the
# residual float the CLI prints; every other relation is exact with 0.0.
_GOLDEN_FAILURES = {
    ((3, 2), "u_plus"): {
        "[Tp,Up] = Vp": 2.6457513110645907,
        "[Tm,Vp] = Up": 2.6457513110645907,
        "[Up,Um] = 2*U3": 5.916079783099616,
        "[Up,Vp] = 0": 6.48074069840786,
        "[Up,Vm] = Tm": 5.916079783099616,
        "casimir = 34/3": 2.958039891549808,
    },
    ((3, 2), "t_three"): {
        "[T3,Tp] = Tp": 2.6457513110645907,
        "[T3,Tm] = -Tm": 2.6457513110645907,
        "[T3,Up] = -1/2*Up": 5.916079783099616,
        "[T3,Um] = 1/2*Um": 5.916079783099616,
        "[T3,Vp] = 1/2*Vp": 5.291502622129181,
        "[T3,Vm] = -1/2*Vm": 5.291502622129181,
        "[Tp,Tm] = 2*T3": 5.291502622129181,
        "[Vp,Vm] = 2*U3 + 2*T3": 5.291502622129181,
        "casimir = 34/3": 7.56949912595694,
    },
    ((3, 2), "v_minus"): {
        "[Tp,Vm] = -Um": 2.6457513110645907,
        "[Tm,Um] = -Vm": 2.6457513110645907,
        "[Up,Vm] = Tm": 6.48074069840786,
        "[Um,Vm] = 0": 5.916079783099616,
        "[Vp,Vm] = 2*U3 + 2*T3": 6.48074069840786,
        "casimir = 34/3": 3.24037034920393,
    },
    ((2, 3), "u_plus"): {
        "[Tp,Up] = Vp": 2.6457513110645907,
        "[Tm,Vp] = Up": 2.6457513110645907,
        "[Up,Um] = 2*U3": 6.48074069840786,
        "[Up,Vp] = 0": 5.916079783099616,
        "[Up,Vm] = Tm": 6.48074069840786,
        "casimir = 34/3": 3.24037034920393,
    },
    ((2, 3), "t_three"): {
        "[T3,Tp] = Tp": 2.6457513110645907,
        "[T3,Tm] = -Tm": 2.6457513110645907,
        "[T3,Up] = -1/2*Up": 5.916079783099616,
        "[T3,Um] = 1/2*Um": 5.916079783099616,
        "[T3,Vp] = 1/2*Vp": 5.291502622129181,
        "[T3,Vm] = -1/2*Vm": 5.291502622129181,
        "[Tp,Tm] = 2*T3": 5.291502622129181,
        "[Vp,Vm] = 2*U3 + 2*T3": 5.291502622129181,
        "casimir = 34/3": 11.097167540709728,
    },
    ((2, 3), "v_minus"): {
        "[Tp,Vm] = -Um": 2.6457513110645907,
        "[Tm,Um] = -Vm": 2.6457513110645907,
        "[Up,Vm] = Tm": 5.916079783099616,
        "[Um,Vm] = 0": 6.48074069840786,
        "[Vp,Vm] = 2*U3 + 2*T3": 5.916079783099616,
        "casimir = 34/3": 2.958039891549808,
    },
}


def _plus_sqrt7_at_first_entry(gs, field):
    """gs with sqrt(7) added to the first stored entry of one matrix only."""
    mat = getattr(gs, field)
    bad = _combine(((1, mat),))  # a copy in O(nnz)
    r, c, v = next(mat.items())
    bad.put(r, c, v + RadicalSum.from_terms([(1, 7)]))
    return dataclasses.replace(gs, **{field: bad})


class TestGoldenNegativeControls:
    @pytest.mark.parametrize("label,field", sorted(_GOLDEN_FAILURES))
    def test_recorded_verdicts_and_residuals(self, label, field):
        bad = _plus_sqrt7_at_first_entry(build_generator_set(*label), field)
        got = [(r.name, r.exact, r.residual) for r in check_commutators(bad).relations]
        cas = check_casimir(bad)
        got.append((cas.name, cas.exact, cas.residual))
        failures = _GOLDEN_FAILURES[label, field]
        want = [
            (name, name not in failures, failures.get(name, 0.0))
            for name in _RELATION_NAMES + ("casimir = 34/3",)
        ]
        assert got == want


# ---------------------------------------------------------------------------
# Serre's presentation: the rows read off T3 and U3, four products, 11 derived


_FIELDS = {
    "Tp": "t_plus", "Tm": "t_minus", "T3": "t_three", "Up": "u_plus",
    "Um": "u_minus", "U3": "u_three", "Vp": "v_plus", "Vm": "v_minus",
}
_PARTNER = {"Tp": "Tm", "Tm": "Tp", "T3": "T3", "Up": "Um", "Um": "Up", "U3": "U3",
            "Vp": "Vm", "Vm": "Vp"}
_LADDERS = ("Tp", "Tm", "Up", "Um", "Vp", "Vm")


@contextlib.contextmanager
def _groups_handed_to_kernel():
    """Record the relation groups handed to each _combine_all call."""
    calls = []
    original = verify_module._combine_all

    def recording(groups):
        groups = [list(group) for group in groups]
        calls.append(groups)
        return original(groups)

    with mock.patch.object(verify_module, "_combine_all", recording):
        yield calls


@contextlib.contextmanager
def _walks():
    """Record the matrix each O(nnz) read outside the products walks, by method."""
    walks = {name: [] for name in ("rational_diagonal", "is_transpose_of", "shifts_hold",
                                   "trace")}

    def spy(name):
        original = getattr(RadMatrix, name)

        def recording(self, *args):
            walks[name].append(self)
            return original(self, *args)
        return recording

    with contextlib.ExitStack() as stack:
        for name in walks:
            stack.enter_context(mock.patch.object(RadMatrix, name, spy(name)))
        yield walks


def _name_of(mats, m):
    return next(name for name, x in mats.items() if x is m)


def _counts(calls):
    return [len(groups) for groups in calls]


def _product_operands(calls):
    """The ids of the matrices multiplied in any group handed to the kernel."""
    return {id(m) for groups in calls for group in groups for _, *mats in group
            if len(mats) == 2 for m in mats}


def _scaled(gs, factors):
    """gs with each named matrix times its factor."""
    mats = gs.matrices()
    return dataclasses.replace(gs, **{_FIELDS[name]: _combine(((f, mats[name]),))
                                      for name, f in factors.items()})


def _shifted(gs, name, c):
    """gs with c times the identity added to T3 or U3."""
    shifted = _combine(((1, gs.matrices()[name]), (c, RadMatrix.identity(gs.dim))))
    return dataclasses.replace(gs, **{_FIELDS[name]: shifted})


def _wrong_shift_pair(gs):
    """gs with 1 added at (0, 1) of T+ and (1, 0) of T-: adjointness and the
    diagonal T3, U3 are kept, and the two states differ in t3 by 0, not 1."""
    assert gs.t_three.get(0, 0) - gs.t_three.get(1, 1) != 1
    return dataclasses.replace(gs, t_plus=_added(gs.t_plus, 0, 1, 1),
                               t_minus=_added(gs.t_minus, 1, 0, 1))


def _one_entry_at_a_wrong_weight(gs, name):
    """gs with 1 added at (1, 0) of one lowering matrix alone, which joins
    two states whose (T3, U3) shift is not that matrix's."""
    mats = gs.matrices()
    bad = _added(mats[name], 1, 0, 1)
    reads = [(mats[h].rational_diagonal(), mats[h].den, verify_module._SHIFTS[name, h])
             for h in ("T3", "U3")]
    assert mats[name].shifts_hold(*reads) and not bad.shifts_hold(*reads)
    return dataclasses.replace(gs, **{_FIELDS[name]: bad})


# Each corruption breaks one hypothesis of the Serre shortcut: a Chevalley
# product, a weight read or a rational diagonal; all but the two lowering
# matrices alone keep adjointness.  The value is the work handed to
# _combine_all: 4 Chevalley groups then the other 11 ladder rows, or all 15
# ladder rows in one call with every Cartan row the reads do not settle: the
# two of each ladder whose read fails, and all 13 when T3 is irrational.  A
# lowering matrix alone is not its partner's transpose, so its two Cartan
# rows are not derived: it takes its own read, and fails it.
_HYPOTHESIS_CONTROLS = {
    "T3 + I": (lambda gs: _shifted(gs, "T3", 1), [4, 11]),
    "U3 + 2I": (lambda gs: _shifted(gs, "U3", 2), [4, 11]),
    "T+ and T- times 2": (lambda gs: _scaled(gs, {"Tp": 2, "Tm": 2}), [4, 11]),
    "V+ and V- times 2": (lambda gs: _scaled(gs, {"Vp": 2, "Vm": 2}), [4, 11]),
    "ladder pair at a wrong weight shift": (_wrong_shift_pair, [19]),
    # every Chevalley product holds; only the weight reads see alpha scaled by 4
    "T, U times 2; V, T3, U3 times 4": (
        lambda gs: _scaled(gs, {"Tp": 2, "Tm": 2, "Up": 2, "Um": 2,
                                "Vp": 4, "Vm": 4, "T3": 4, "U3": 4}), [27]),
    "sqrt 7 on a T3 diagonal entry": (lambda gs: _plus_sqrt7_at_first_entry(gs, "t_three"),
                                      [28]),
    "T- alone at a wrong weight": (lambda gs: _one_entry_at_a_wrong_weight(gs, "Tm"), [17]),
    "V- alone at a wrong weight": (lambda gs: _one_entry_at_a_wrong_weight(gs, "Vm"), [17]),
}


class TestSerreHypotheses:
    @pytest.mark.parametrize("label", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("kind", sorted(_HYPOTHESIS_CONTROLS))
    def test_each_broken_hypothesis_fails_as_computed(self, label, kind):
        corrupt, work = _HYPOTHESIS_CONTROLS[kind]
        bad = corrupt(build_generator_set(*label))
        with _groups_handed_to_kernel() as calls:
            report = check_commutators(bad)
        assert not report.passed
        assert [(r.name, r.exact, r.residual) for r in report.relations] == _full_evaluation(bad)
        assert _counts(calls) == work

    @pytest.mark.parametrize("label", [(3, 2), (2, 3)])
    def test_rescaled_set_keeps_every_serre_product(self, label):
        gs = build_generator_set(*label)
        bad = _HYPOTHESIS_CONTROLS["T, U times 2; V, T3, U3 times 4"][0](gs)
        mats = bad.matrices()
        for a, b, rhs in COMMUTATOR_TABLE:
            if (a, b) in CHEVALLEY_RELATIONS:
                residual = [(1, mats[a], mats[b]), (-1, mats[b], mats[a])]
                assert _combine(residual + [(-c, mats[k]) for c, k in rhs]).is_zero()


class TestSerreWorkCounts:
    def test_serre_rows_read_off_the_table(self):
        rows = {(a, b): _relation_name(a, b, rhs) for a, b, rhs in COMMUTATOR_TABLE}
        assert [rows[pair] for pair in CHEVALLEY_RELATIONS] == [
            "[Tp,Tm] = 2*T3", "[Up,Um] = 2*U3", "[Tp,Um] = 0", "[Tp,Up] = Vp",
        ]
        ladder = [(a, b) for a, b, _ in COMMUTATOR_TABLE if a in _LADDERS and b in _LADDERS]
        assert len(ladder) == 15
        assert set(CHEVALLEY_RELATIONS) < set(ladder)

    def test_relation_names_are_formatted_once(self):
        assert verify_module._RELATION_NAMES == _RELATION_NAMES
        with mock.patch.object(verify_module, "_relation_name") as spy:
            report = check_commutators(build_generator_set(3, 2))
        assert not spy.called
        assert tuple(r.name for r in report.relations) == _RELATION_NAMES

    def test_lowering_shifts_are_the_raising_ones_negated(self):
        # [h, X-] = -([h, X+])^T for X- = X+^T, so a raising read settles its
        # partner's rows; and alpha_T != 0 leaves a ladder no diagonal term
        shifts = verify_module._SHIFTS
        rows = {frozenset((a, b)): (a, rhs) for a, b, rhs in COMMUTATOR_TABLE}
        assert sorted(shifts) == sorted((x, h) for x in _LADDERS for h in ("T3", "U3"))
        for (x, h), alpha in shifts.items():
            a, rhs = rows[frozenset((x, h))]
            assert rhs == ((alpha if a == h else -alpha, x),)
        for plus, minus in generators.LADDER_PAIRS.items():
            for h in ("T3", "U3"):
                assert shifts[minus, h] == -shifts[plus, h]
        assert all(shifts[x, "T3"] != 0 for x in _LADDERS)

    @pytest.mark.parametrize("p,q", [(5, 3), (3, 5)])
    def test_clean_verify_walks_each_raising_matrix_once(self, p, q):
        gs = build_generator_set(p, q)
        mats = gs.matrices()
        with _walks() as walks, mock.patch.object(verify_module, "build_generator_set",
                                                  return_value=gs):
            report = verify_irrep(p, q)
        assert report.passed
        assert {name: [_name_of(mats, m) for m in ms] for name, ms in walks.items()} == {
            "rational_diagonal": ["T3", "U3"],
            "is_transpose_of": ["Tp", "Up", "Vp"],
            "shifts_hold": ["Tp", "Up", "Vp"],
            "trace": [],
        }
        assert sum(map(len, walks.values())) == 8

    @pytest.mark.parametrize("p,q", [(3, 2), (2, 3)])
    def test_lowering_matrix_alone_is_read_on_its_own(self, p, q):
        bad = _one_entry_at_a_wrong_weight(build_generator_set(p, q), "Tm")
        mats = bad.matrices()
        with _walks() as walks:
            check_commutators(bad)
        # T+ is not T-'s transpose, so T-'s rows are not derived from T+'s
        # read: T- takes one walk of its own
        assert [_name_of(mats, m) for m in walks["shifts_hold"]] == ["Tp", "Up", "Vp", "Tm"]

    @pytest.mark.parametrize("p,q", [(3, 2), (2, 3)])
    def test_failed_cartan_rows_join_the_ladder_rows_in_one_call(self, p, q):
        # T-'s read fails, so its two Cartan rows are computed by their
        # products, in the one kernel call that computes the 15 ladder rows
        bad = _one_entry_at_a_wrong_weight(build_generator_set(p, q), "Tm")
        mats = bad.matrices()
        with _groups_handed_to_kernel() as calls:
            report = check_commutators(bad)
        assert _counts(calls) == [17]
        rows = [(_name_of(mats, a), _name_of(mats, b)) for (_, a, b), *_ in calls[0]]
        ladder = [(a, b) for a, b, _ in COMMUTATOR_TABLE if a in _LADDERS and b in _LADDERS]
        assert sorted(rows) == sorted(ladder + [("T3", "Tm"), ("Tm", "U3")])
        cartan = {name for name, (a, b, _) in zip(_RELATION_NAMES, COMMUTATOR_TABLE)
                  if {a, b} & {"T3", "U3"}}
        assert [r.name for r in report.failures() if r.name in cartan] == [
            "[T3,Tm] = -Tm", "[Tm,U3] = -1/2*Tm"]

    @pytest.mark.parametrize("p,q", [(5, 3), (3, 5)])
    def test_clean_set_hands_the_kernel_four_groups(self, p, q):
        gs = build_generator_set(p, q)
        with _groups_handed_to_kernel() as calls:
            report = check_commutators(gs)
        assert report.passed and len(report.relations) == 28
        assert _counts(calls) == [4]
        assert all(r.residual == 0.0 for r in report.relations)

    @pytest.mark.parametrize("label", [(3, 2), (2, 3)])
    def test_corrupted_u_plus_computes_the_15_ladder_rows(self, label):
        bad = _plus_sqrt7_at_first_entry(build_generator_set(*label), "u_plus")
        with _groups_handed_to_kernel() as calls:
            report = check_commutators(bad)
        assert not report.passed
        # U+ fails its adjoint test; T3 and U3 are untouched, so their 13
        # rows are still weight reads and no product names them
        assert _counts(calls) == [15]
        mats = bad.matrices()
        assert _product_operands(calls) == {id(mats[x]) for x in _LADDERS}


@lru_cache(maxsize=None)
def _generator_set(p, q):
    return build_generator_set(p, q)


def _added(mat, r, c, delta):
    """A copy of mat with delta added to the entry at (r, c), in O(nnz): one
    ``_combine`` copies the terms and one ``put`` sets the entry."""
    out = _combine(((1, mat),))
    out.put(r, c, out.get(r, c) + delta)
    return out


_DELTAS = st.builds(
    lambda c, m: RadicalSum.from_terms([(c, m)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.sampled_from([1, 2, 3, 7]),
)
_FACTORS = st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2)])


@st.composite
def _corrupted_sets(draw):
    """A small set in either orientation and one kind of corruption:
    "ladder pair" adds delta at (r, c) of a ladder and at (c, r) of its
    partner (adjointness kept), "diagonal ladder pair" the same at (r, r),
    "one ladder" at (r, c) of a ladder only,
    "off-diagonal" at r != c of T3 or U3, "cartan shift" a rational multiple
    of the identity to T3 or U3, "pair scaled" scales a ladder and its partner
    by one factor, "rescaled" the T and U ladders by l and V, T3 and U3 by
    l * l, and "irrational diagonal" an irrational delta at (r, r) of T3 or U3."""
    p, q = draw(st.sampled_from([(1, 0), (0, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3),
                                 (3, 2), (2, 3)]))
    gs = _generator_set(p, q)
    kind = draw(st.sampled_from(["none", "ladder pair", "diagonal ladder pair", "one ladder",
                                 "off-diagonal", "cartan shift", "pair scaled", "rescaled",
                                 "irrational diagonal"]))
    if kind == "none":
        return gs, kind
    d, delta = gs.dim, draw(_DELTAS)
    r = draw(st.integers(0, d - 1))
    mats = gs.matrices()
    if kind in ("cartan shift", "irrational diagonal"):
        name = draw(st.sampled_from(["T3", "U3"]))
        if kind == "cartan shift":
            return _shifted(gs, name, draw(st.fractions(-3, 3, max_denominator=4).filter(bool))), kind
        delta = RadicalSum.from_terms([(draw(st.sampled_from([1, -1, Fraction(1, 2)])),
                                        draw(st.sampled_from([2, 3, 7])))])
        return dataclasses.replace(gs, **{_FIELDS[name]: _added(mats[name], r, r, delta)}), kind
    if kind == "pair scaled":
        name = draw(st.sampled_from(["Tp", "Up", "Vp"]))
        f = draw(_FACTORS)
        return _scaled(gs, {name: f, _PARTNER[name]: f}), kind
    if kind == "rescaled":
        f = draw(_FACTORS)
        return _scaled(gs, {"Tp": f, "Tm": f, "Up": f, "Um": f,
                            "Vp": f * f, "Vm": f * f, "T3": f * f, "U3": f * f}), kind
    if kind == "off-diagonal":
        name = draw(st.sampled_from(["T3", "U3"]))
        c = draw(st.integers(0, d - 2))
        c += c >= r
    else:
        name = draw(st.sampled_from(["Tp", "Tm", "Up", "Um", "Vp", "Vm"]))
        c = r if kind == "diagonal ladder pair" else draw(st.integers(0, d - 1))
    changed = {_FIELDS[name]: _added(mats[name], r, c, delta)}
    if kind in ("ladder pair", "diagonal ladder pair"):
        partner = _PARTNER[name]
        changed[_FIELDS[partner]] = _added(mats[partner], c, r, delta)
    return dataclasses.replace(gs, **changed), kind


def _full_evaluation(gs):
    """(name, exact, residual) of every table row, each from its own commutator."""
    mats = gs.matrices()
    out = []
    for name, (a, b, rhs) in zip(_RELATION_NAMES, COMMUTATOR_TABLE):
        residual = _combine([(1, mats[a], mats[b]), (-1, mats[b], mats[a])]
                            + [(-c, mats[k]) for c, k in rhs])
        exact = residual.is_zero()
        out.append((name, exact, 0.0 if exact else residual.max_abs_float()))
    return out


@settings(max_examples=100, deadline=None)
@given(_corrupted_sets())
def test_mirrored_report_matches_full_evaluation(drawn):
    gs, kind = drawn
    with _groups_handed_to_kernel() as calls:
        report = check_commutators(gs)
    assert [(r.name, r.exact, r.residual) for r in report.relations] == _full_evaluation(gs)
    assert report.passed == (kind == "none")
    # only a set that keeps every hypothesis and all four products stops at 4
    assert (_counts(calls) == [4]) == (kind == "none")


# ---------------------------------------------------------------------------
# The Casimir line of verify_irrep against the six-product sum of check_casimir


def _both_orientations(labels):
    return sorted(set(labels) | {(q, p) for p, q in labels})


def _verify_lines(gs):
    """One verify_irrep on gs under every spy: its Casimir line and whether it
    called check_casimir, its structure lines, and the ``GELL_MANN_TABLE``
    rows whose sum it handed to ``_combine``, in call order.  It must build
    no Fk: every su3rep binding of to_gell_mann and gell_mann_matrix is
    spied on."""
    mats = gs.matrices()
    rows = {tuple((c, id(mats[name])) for c, name in terms): k
            for k, (_, _, terms) in GELL_MANN_TABLE.items()}
    summed = []

    def recording(terms):
        terms = list(terms)
        key = tuple((t[0], id(t[1])) for t in terms if len(t) == 2)
        if len(key) == len(terms) and key in rows:
            summed.append(rows[key])
        return _combine(terms)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(verify_module, "build_generator_set",
                                              return_value=gs))
        stack.enter_context(mock.patch.object(verify_module, "_combine", recording))
        spy = stack.enter_context(mock.patch.object(verify_module, "check_casimir",
                                                    side_effect=check_casimir))
        builders = [stack.enter_context(mock.patch.object(module, name, wraps=getattr(module, name)))
                    for module in (su3rep, generators, verify_module)
                    for name in ("to_gell_mann", "gell_mann_matrix") if hasattr(module, name)]
        report = verify_irrep(gs.p, gs.q)
    assert builders and not any(b.called for b in builders)
    (casimir,) = report.of_kind("casimir").relations
    return SimpleNamespace(casimir=casimir, computed=spy.called,
                           structure=report.of_kind("structure").relations, summed=summed)


def _verify_casimir_line(gs):
    """verify_irrep's Casimir line on gs, and whether it called check_casimir."""
    run = _verify_lines(gs)
    return run.casimir, run.computed


def _weights(gs):
    """verify's weights line on gs, read off gs's own T3 and U3 diagonals."""
    return verify_module._weights_line(gs, verify_module._Hypotheses.read(gs.matrices()).diagonals)


def _casimir_forms(gs):
    """verify's Casimir line on gs, and check_casimir(gs)."""
    return _verify_casimir_line(gs)[0], check_casimir(gs)


class TestCasimirGramForm:
    """verify_irrep's Casimir line, by Schur's lemma or by check_casimir, is
    check_casimir's six-product sum on every set."""

    def test_sweep_range_in_both_orientations(self):
        for label in _both_orientations(sweep_labels(300)):
            line, six = _casimir_forms(_generator_set(*label))
            assert line == six and line.exact, label

    @pytest.mark.parametrize("label,field", sorted(_GOLDEN_FAILURES))
    def test_golden_failures(self, label, field):
        line, six = _casimir_forms(_plus_sqrt7_at_first_entry(_generator_set(*label), field))
        assert line == six and not line.exact

    @pytest.mark.parametrize("label", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("kind", sorted(_HYPOTHESIS_CONTROLS))
    def test_hypothesis_controls(self, label, kind):
        line, six = _casimir_forms(_HYPOTHESIS_CONTROLS[kind][0](_generator_set(*label)))
        assert line == six

    @pytest.mark.parametrize("built,label", [((4, 0), (2, 1)), ((0, 4), (1, 2))])
    def test_failing_casimir_through_the_gram_form(self, built, label):
        # (4,0) and (2,1) both have d = 15: relabelled, every commutator holds,
        # the weight certificate fails, and the Casimir eigenvalue differs
        gs = dataclasses.replace(_generator_set(*built), p=label[0], q=label[1])
        assert check_commutators(gs).passed
        line, six = _casimir_forms(gs)
        assert line == six and not line.exact and line.residual == 4.0

    @pytest.mark.parametrize("p,q", [(5, 3), (3, 5)])
    def test_verify_path_makes_no_ladder_product(self, p, q):
        gs = build_generator_set(p, q)
        ladders = {id(m) for name, m in gs.matrices().items() if name in _LADDERS}
        calls = []

        def recording(terms):
            terms = list(terms)
            calls.append(terms)
            return _combine(terms)

        def ladder_products():
            return [t for terms in calls for t in terms if len(t) == 3
                    and {id(t[1]), id(t[2])} <= ladders]

        with mock.patch.object(verify_module, "build_generator_set", return_value=gs), \
                mock.patch.object(verify_module, "_combine", recording):
            assert verify_irrep(p, q).passed  # Schur's lemma: no product
            assert len(ladder_products()) == 0
            calls.clear()
            assert check_casimir(gs).exact  # the six-product sum
            assert len(ladder_products()) == 6


@settings(max_examples=100, deadline=None)
@given(_corrupted_sets())
def test_verify_casimir_line_matches_six_products(drawn):
    gs, kind = drawn
    line, six = _casimir_forms(gs)
    assert line == six


# ---------------------------------------------------------------------------
# The Casimir by Schur's lemma: no product once all 28 rows and the weight
# certificate hold, the computed Casimir whenever a hypothesis fails


def _swapped_u3(gs):
    """gs with the U3 diagonal entries of the first and last state swapped;
    the two differ in T3 and in U3, so the (2 T3, 3Y) multiset changes."""
    first, last = 0, gs.dim - 1
    assert gs.t_three.get(first, first) != gs.t_three.get(last, last)
    assert gs.u_three.get(first, first) != gs.u_three.get(last, last)
    swap = {first: last, last: first}
    u3 = RadMatrix(gs.dim)
    for r, c, v in gs.u_three.items():
        u3.put(swap.get(r, r), swap.get(c, c), v)
    return dataclasses.replace(gs, u_three=u3)


_CERTIFICATE_CONTROLS = {
    "off-diagonal T3 entry": lambda gs: dataclasses.replace(
        gs, t_three=_added(gs.t_three, 0, 1, 1)),
    "two U3 diagonal entries swapped": _swapped_u3,
    "2 T3 not an integer": lambda gs: dataclasses.replace(
        gs, t_three=_added(gs.t_three, 0, 0, Fraction(1, 4))),
}


class TestSchurCasimir:
    @pytest.mark.parametrize("label", [(3, 2), (2, 3)])
    def test_clean_set_passes_with_no_product(self, label):
        gs = _generator_set(*label)
        assert _weights(gs).exact
        check, computed = _verify_casimir_line(gs)
        assert not computed
        assert check == check_casimir(gs) and check.exact

    @pytest.mark.parametrize("label", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("kind", sorted(_CERTIFICATE_CONTROLS))
    def test_broken_certificate_computes_the_casimir(self, label, kind):
        bad = _CERTIFICATE_CONTROLS[kind](_generator_set(*label))
        assert not _weights(bad).exact
        check, computed = _verify_casimir_line(bad)
        assert computed
        assert check == check_casimir(bad)

    def test_relabelled_sets_of_equal_dimension(self):
        labels = _both_orientations(sweep_labels(300))
        pairs = [(a, b) for a in labels for b in labels
                 if a != b and dimension(*a) == dimension(*b)]
        assert len(pairs) == 174  # the 55 conjugate pairs among them, both ways
        for built, label in pairs:
            gs = dataclasses.replace(_generator_set(*built), p=label[0], q=label[1])
            report = check_commutators(gs)
            # every commutator holds: only the certificate tells the labels apart
            assert report.passed, (built, label)
            assert not _weights(gs).exact, (built, label)
            assert _verify_casimir_line(gs)[0] == check_casimir(gs), (built, label)


# ---------------------------------------------------------------------------
# One corrupted entry fails verify_irrep: no derived line (Serre, the sl(2)
# module, Schur) may pass a set that differs from a clean one in one entry

_SWEEP_LABELS = _both_orientations(sweep_labels(300))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_one_corrupted_entry_fails_verify(data):
    label = data.draw(st.sampled_from(_SWEEP_LABELS))
    gs = _generator_set(*label)
    name = data.draw(st.sampled_from(sorted(_FIELDS)))
    mat = gs.matrices()[name]
    entries = list(mat.items())
    assume(entries)
    r, c, _ = data.draw(st.sampled_from(entries))
    bad = dataclasses.replace(gs, **{_FIELDS[name]: _added(mat, r, c, 1)})
    with mock.patch.object(verify_module, "build_generator_set", return_value=bad):
        report = verify_irrep(*label)
    assert not report.passed
    assert report.failures(), (label, name, r, c)


# ---------------------------------------------------------------------------
# The structure lines of verify_irrep: each hermitian row settled by the
# hypotheses or tested on its own sum, the traceless line read off the traces


def _verify_structure_lines(gs):
    """verify_irrep's structure lines on gs, and the ``GELL_MANN_TABLE`` rows
    whose sum it handed to ``_combine``; see ``_verify_lines``."""
    run = _verify_lines(gs)
    return run.structure, run.summed


def _computed_structure(gs):
    return (*_reference_structure_lines(gs), _weights(gs))


@settings(max_examples=100, deadline=None)
@given(_corrupted_sets())
def test_verify_structure_lines_match_computed(drawn):
    gs, kind = drawn
    lines, summed = _verify_structure_lines(gs)
    assert lines == _computed_structure(gs)
    # only these kinds break adjointness or a rational diagonal T3, U3
    assert bool(summed) == (kind in ("one ladder", "off-diagonal", "irrational diagonal"))


def _u_plus_alone(gs):
    bad = _plus_sqrt7_at_first_entry(gs, "u_plus")
    assert not bad.u_plus.is_transpose_of(bad.u_minus)
    return bad


# Each breaks one hypothesis of the structure read: the rows it no longer
# settles, each summed and tested on its own, and the one line that fails
_STRUCTURE_BREAKERS = {
    "sqrt 7 on a T3 diagonal entry": (
        lambda gs: _plus_sqrt7_at_first_entry(gs, "t_three"), [3, 8],
        "F1..F8 traceless (violated by F[3, 8])"),
    "off-diagonal T3 entry": (
        lambda gs: dataclasses.replace(gs, t_three=_added(gs.t_three, 0, 1, 1)), [3, 8],
        "F1..F8 hermitian (violated by F[3, 8])"),
    "off-diagonal U3 entry": (
        lambda gs: dataclasses.replace(gs, u_three=_added(gs.u_three, 0, 1, 1)), [8],
        "F1..F8 hermitian (violated by F[8])"),
    "U+ corrupted alone": (_u_plus_alone, [6, 7], "F1..F8 hermitian (violated by F[6, 7])"),
}


class TestStructureRead:
    def test_sweep_range_in_both_orientations(self):
        for label in _SWEEP_LABELS:
            gs = _generator_set(*label)
            lines, summed = _verify_structure_lines(gs)
            assert lines == _computed_structure(gs) and all(r.exact for r in lines), label
            assert summed == [], label

    @pytest.mark.parametrize("p,q", [(5, 3), (3, 5)])
    def test_clean_set_builds_no_f(self, p, q):
        lines, summed = _verify_structure_lines(build_generator_set(p, q))
        assert summed == []
        assert [r.name for r in lines] == [
            "F1..F8 hermitian", "F1..F8 traceless", f"weights of ({p}, {q})",
        ]
        assert all(r.exact and r.residual == 0.0 for r in lines)

    @pytest.mark.parametrize("label", [(5, 3), (3, 5)])
    @pytest.mark.parametrize("kind", sorted(_STRUCTURE_BREAKERS))
    def test_broken_hypothesis_computes_the_lines(self, label, kind):
        corrupt, rows, failed = _STRUCTURE_BREAKERS[kind]
        bad = corrupt(build_generator_set(*label))
        lines, summed = _verify_structure_lines(bad)
        assert summed == rows
        assert lines == _computed_structure(bad)
        assert [r.name for r in lines[:2] if not r.exact] == [failed]

    @pytest.mark.parametrize("label", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("plus", ["Tp", "Up", "Vp"])
    def test_imaginary_row_is_tested_for_antisymmetry(self, label, plus):
        # X- replaced by X+ plus 1 at (0, 0): the "im" row's sum is that one
        # diagonal entry over 2, symmetric, so only S = -S^T names it
        gs = _generator_set(*label)
        mats = gs.matrices()
        bad = dataclasses.replace(gs, **{_FIELDS[_PARTNER[plus]]: _added(mats[plus], 0, 0, 1)})
        lines, summed = _verify_structure_lines(bad)
        rows = {"Tp": [1, 2], "Vp": [4, 5], "Up": [6, 7]}[plus]
        assert summed == rows
        assert lines[0].name == f"F1..F8 hermitian (violated by F{rows})"
        assert lines[:2] == _reference_structure_lines(bad)

    @pytest.mark.parametrize("label", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("plus", ["Tp", "Up", "Vp"])
    def test_diagonal_ladder_pair_fails_the_read_trace(self, label, plus):
        # 1 at (0, 0) of X+ and X-: adjointness and the diagonals hold, the
        # pair's real Fk has trace 1 and its imaginary one trace 0
        gs = _generator_set(*label)
        mats = gs.matrices()
        bad = dataclasses.replace(gs, **{_FIELDS[x]: _added(mats[x], 0, 0, 1)
                                         for x in (plus, _PARTNER[plus])})
        lines, summed = _verify_structure_lines(bad)
        assert summed == []
        assert lines == _computed_structure(bad)
        real_f = {"Tp": 1, "Vp": 4, "Up": 6}[plus]
        assert [r.name for r in lines if not r.exact] == [
            f"F1..F8 traceless (violated by F[{real_f}])"]


# ---------------------------------------------------------------------------
# The weights line: verify's third structure line is the weight certificate,
# so a set relabelled as another irrep of the same dimension fails it


class TestWeightsLine:
    def test_relabelled_pairs_fail_the_weights_line(self):
        labels = _both_orientations(sweep_labels(300))
        pairs = [(a, b) for a in labels for b in labels
                 if a != b and dimension(*a) == dimension(*b)]
        assert len(pairs) == 174
        conjugates = 0
        for built, label in pairs:
            gs = dataclasses.replace(_generator_set(*built), p=label[0], q=label[1])
            with mock.patch.object(verify_module, "build_generator_set", return_value=gs):
                report = verify_irrep(*label)
            weights = report.relations[-1]
            assert weights.name.startswith(f"weights of {label} (violated at (2 T3, 3Y) = ")
            # the Casimir line fails too exactly when the eigenvalues differ
            failed = [weights] if casimir_eigenvalue(*built) == casimir_eigenvalue(*label) else [
                report.of_kind("casimir").relations[0], weights]
            assert report.failures() == failed, (built, label)
            conjugates += built == label[::-1]
        assert conjugates == 110  # the 55 conjugate pairs, both ways

    def test_failure_names_the_first_differing_weight(self):
        # (3,2) labelled (2,3): the weights are negated, and the least weight
        # of (2,3), (-5, -1), is not one of (3,2)'s
        gs = dataclasses.replace(_generator_set(3, 2), p=2, q=3)
        assert Counter(weight_multiplicities(2, 3))[-5, -1] == 1
        assert Counter(weight_multiplicities(3, 2))[-5, -1] == 0
        assert _weights(gs).name == (
            "weights of (2, 3) (violated at (2 T3, 3Y) = (-5, -1): 0 states, not 1)")

    @pytest.mark.parametrize("kind,offender", [
        ("off-diagonal T3 entry", "by T3: not a rational diagonal"),
        # state 0 of (3,2) has (2 T3, 3Y) = (0, -2), three states share it,
        # and the last state has (-5, 1).  T3 + 1/4 at state 0 moves it to
        # (1/2, -3/2); swapping the two U3 entries moves them to (0, 6) and
        # (-5, -7).  The least weight whose count changed is named
        ("2 T3 not an integer", "at (2 T3, 3Y) = (0, -2): 2 states, not 3"),
        ("two U3 diagonal entries swapped", "at (2 T3, 3Y) = (-5, -7): 1 states, not 0"),
    ])
    def test_broken_certificate_names_its_offender(self, kind, offender):
        assert weight_multiplicities(3, 2)[0, -2] == 3
        bad = _CERTIFICATE_CONTROLS[kind](_generator_set(3, 2))
        line = _weights(bad)
        assert (line.name, line.exact, line.residual) == (
            f"weights of (3, 2) (violated {offender})", False, 1.0)
        lines, _ = _verify_structure_lines(bad)
        assert lines[-1] == line


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9))
def test_dimension_and_casimir_in_both_orientations(a, b):
    """Each drawn label is checked as (p, q) with p >= q and as its conjugate:
    d against the state labels and the weight diagram, and the computed
    Casimir line against casimir_eigenvalue."""
    p, q = max(a, b), min(a, b)
    assume(dimension(p, q) <= 400)
    for label in ((p, q), (q, p)):
        d = dimension(*label)
        assert d == (p + 1) * (q + 1) * (p + q + 2) // 2
        assert d == len(state_labels(*label)) == sum(weight_multiplicities(*label).values())
        gs = _generator_set(*label)
        assert gs.dim == d
        line = check_casimir(gs)
        assert (line.name, line.exact, line.kind) == (
            f"casimir = {casimir_eigenvalue(p, q)}", True, "casimir")
