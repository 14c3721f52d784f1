"""Fault injection: each case replaces one shortcut that verify_irrep takes
with a wrong one, and hands verify_irrep a set that is not the irrep it is
labelled.  Under the fault the set must PASS, which shows that the shortcut
alone stands between it and a wrong verdict; without the fault it must FAIL
on the line the shortcut settles.  A case whose set fails under its fault no
longer guards that shortcut: verify has stopped relying on it, or the set no
longer reaches it.

Some shortcuts settle only lines that another line, computed either way,
already fails on every wrong set: a wrong weight read or a lowering matrix
at a wrong weight also breaks a product, the adjointness test or the weight
certificate; an off-diagonal T3 term also breaks [T+,T-] = 2 T3, and a
set labelled with another irrep's weights fails their certificate.  Their
cases assert instead that the lines the shortcut settles read exact under
the fault and fail without it.

The oracle solves its equations by substitution in reverse state order, and
checks each equation whose unknowns are all solved at that solution.  That
check has its own case: under its fault a right-hand side shifted at state 0,
whose equations are all checks, must go unseen, and without it must raise."""

import dataclasses
from unittest import mock

import pytest

from su3rep import (ConsistencyError, RadicalSum, RelationCheck, build_generator_set,
                    oracle_solve, verify_irrep)
from su3rep import verify as verify_module
from su3rep.generators import LADDER_PAIRS
from su3rep.matrices import RadMatrix
from test_verify import (_HYPOTHESIS_CONTROLS, _added, _one_entry_at_a_wrong_weight, _scaled,
                         _shifted_labels)


def _v_minus_first_entry_doubled(p, q):
    gs = build_generator_set(p, q)
    r, c, v = next(gs.v_minus.items())
    return dataclasses.replace(gs, v_minus=_added(gs.v_minus, r, c, v))


def _weights_always_pass(gs, diagonals):
    return RelationCheck(f"weights of ({gs.p}, {gs.q})", True, 0.0, kind="structure")


def _zero_sums(groups):
    """Every group handed to the kernel read as a zero matrix."""
    return (RadMatrix(group[0][1].n) for group in groups)


# (patched object, attribute, fault, the set, a line that fails without the fault)
_CASES = {
    "adjointness always holds, (3,2) with V- doubled at its first entry": (
        RadMatrix, "is_transpose_of", lambda *args: True,
        lambda: _v_minus_first_entry_doubled(3, 2), "F1..F8 hermitian (violated by F[4, 5])"),
    "adjointness always holds, (2,3) with V- doubled at its first entry": (
        RadMatrix, "is_transpose_of", lambda *args: True,
        lambda: _v_minus_first_entry_doubled(2, 3), "F1..F8 hermitian (violated by F[4, 5])"),
    "weight certificate always passes, (3,2) labelled (2,3)": (
        verify_module, "_weights_line", _weights_always_pass,
        lambda: dataclasses.replace(build_generator_set(3, 2), p=2, q=3),
        "weights of (2, 3) (violated at (2 T3, 3Y) = (-5, -1): 0 states, not 1)"),
    # the weight reads and adjointness hold, and only Chevalley's products fail
    "Chevalley products read as zero, (3,2) with U+ and U- times 2": (
        verify_module, "_combine_all", _zero_sums,
        lambda: _scaled(build_generator_set(3, 2), {"Up": 2, "Um": 2}), "[Up,Um] = 2*U3"),
    "Chevalley products read as zero, (2,3) with U+ and U- times 2": (
        verify_module, "_combine_all", _zero_sums,
        lambda: _scaled(build_generator_set(2, 3), {"Up": 2, "Um": 2}), "[Up,Um] = 2*U3"),
}


_READ = verify_module._Hypotheses.read


def _lowering_rows_without_adjointness(mats):
    """The hypotheses with each raising matrix's read also settling its
    lowering partner's rows, adjoint or not."""
    read = _READ(mats)
    return dataclasses.replace(read, shifts=read.shifts | {
        LADDER_PAIRS[x] for x in read.shifts & LADDER_PAIRS.keys()})


def _diagonal_ladder_pair(p, q):
    """(p, q) with 1 added at (0, 0) of T+ and of T-: adjointness and the
    diagonals hold, T+'s read fails, and F1 gains trace 1."""
    gs = build_generator_set(p, q)
    return dataclasses.replace(gs, t_plus=_added(gs.t_plus, 0, 0, 1),
                               t_minus=_added(gs.t_minus, 0, 0, 1))


def _diagonal_ignoring_off_diagonal_keys(self):
    """``RadMatrix.rational_diagonal`` with every off-diagonal key, one whose
    col, (key // n) % n, is not its row, key % n, skipped."""
    n = self.n
    diag = [0] * n
    for key, v in self._terms.items():
        rest, r = divmod(key, n)
        if rest % n == r:
            if rest != n + r:  # an irrational diagonal term
                return None
            diag[r] = v
    return diag


def _t3_with_one_off_diagonal_term(p, q):
    """(p, q) with 1 added at (1, 0) of T3: its diagonal is unchanged, and
    [T+,T-] = 2 T3 fails either way."""
    gs = build_generator_set(p, q)
    return dataclasses.replace(gs, t_three=_added(gs.t_three, 1, 0, 1))


_STRUCTURE_LINES = verify_module._structure_lines


def _every_row_hermitian(mats, hypotheses):
    """``_structure_lines`` with every ladder pair taken as adjoint, so that
    on a set whose T3 and U3 are rational diagonals every ``GELL_MANN_TABLE``
    row is hermitian by the hypotheses and no S is tested."""
    return _STRUCTURE_LINES(mats, dataclasses.replace(hypotheses, adjoint=frozenset(LADDER_PAIRS)))


_CHECK_CASIMIR = verify_module.check_casimir


def _schur_whatever_the_weights(gs):
    """check_casimir, which verify_irrep calls when it refuses the Schur step,
    taking that step whenever the 28 rows hold."""
    if verify_module.check_commutators(gs).passed:
        eigen = verify_module.casimir_eigenvalue(gs.p, gs.q)
        return RelationCheck(f"casimir = {eigen}", True, 0.0, kind="casimir")
    return _CHECK_CASIMIR(gs)


_RESCALED = _HYPOTHESIS_CONTROLS["T, U times 2; V, T3, U3 times 4"][0]
# the 12 rows [h, X] = alpha X on a ladder matrix X, each settled by a read
_LADDER_CARTAN_ROWS = [name for name, (a, b, _) in zip(verify_module._RELATION_NAMES,
                                                       verify_module.COMMUTATOR_TABLE)
                       if {a, b} & {"T3", "U3"} and {a, b} != {"T3", "U3"}]
# T3's rows read off its diagonal, less its two T rows: whether an
# off-diagonal term breaks those depends on where it sits
_T3_DIAGONAL_ROWS = [name for name, (a, b, _) in zip(verify_module._RELATION_NAMES,
                                                     verify_module.COMMUTATOR_TABLE)
                     if a == "T3" and b not in ("Tp", "Tm")]

# (patched object, attribute, fault, the set, the lines its shortcut settles),
# each line named up to any " (violated ...)"
_LINE_CASES = {
    "raising reads always hold, (3,2) with T, U times 2 and V, T3, U3 times 4": (
        RadMatrix, "shifts_hold", lambda *args: True,
        lambda: _RESCALED(build_generator_set(3, 2)), _LADDER_CARTAN_ROWS),
    "raising reads always hold, (2,3) with T, U times 2 and V, T3, U3 times 4": (
        RadMatrix, "shifts_hold", lambda *args: True,
        lambda: _RESCALED(build_generator_set(2, 3)), _LADDER_CARTAN_ROWS),
    "lowering rows derived without adjointness, (3,2) with T- alone at a wrong weight": (
        verify_module._Hypotheses, "read", _lowering_rows_without_adjointness,
        lambda: _one_entry_at_a_wrong_weight(build_generator_set(3, 2), "Tm"),
        ["[T3,Tm] = -Tm", "[Tm,U3] = -1/2*Tm"]),
    "lowering rows derived without adjointness, (2,3) with V- alone at a wrong weight": (
        verify_module._Hypotheses, "read", _lowering_rows_without_adjointness,
        lambda: _one_entry_at_a_wrong_weight(build_generator_set(2, 3), "Vm"),
        ["[U3,Vm] = -1/2*Vm"]),  # its T3 shift is V-'s: that row holds
    # T- and V- are not their partners' transposes, so each takes its own read
    "lowering read always holds, (3,2) with T- alone at a wrong weight": (
        RadMatrix, "shifts_hold", lambda *args: True,
        lambda: _one_entry_at_a_wrong_weight(build_generator_set(3, 2), "Tm"),
        ["[T3,Tm] = -Tm", "[Tm,U3] = -1/2*Tm"]),
    "lowering read always holds, (2,3) with V- alone at a wrong weight": (
        RadMatrix, "shifts_hold", lambda *args: True,
        lambda: _one_entry_at_a_wrong_weight(build_generator_set(2, 3), "Vm"),
        ["[U3,Vm] = -1/2*Vm"]),
    "every F row hermitian by the hypotheses, (3,2) with V- doubled at its first entry": (
        verify_module, "_structure_lines", _every_row_hermitian,
        lambda: _v_minus_first_entry_doubled(3, 2), ["F1..F8 hermitian"]),
    "every F row hermitian by the hypotheses, (2,3) with V- doubled at its first entry": (
        verify_module, "_structure_lines", _every_row_hermitian,
        lambda: _v_minus_first_entry_doubled(2, 3), ["F1..F8 hermitian"]),
    # T3 and U3 are traceless here, so only the ladder traces change
    "ladder traces taken as zero, (3,2) with 1 at (0, 0) of T+ and T-": (
        RadMatrix, "trace", lambda self: RadicalSum(),
        lambda: _diagonal_ladder_pair(3, 2), ["F1..F8 traceless"]),
    "off-diagonal keys ignored in the diagonal read, (3,2) with 1 at (1, 0) of T3": (
        RadMatrix, "rational_diagonal", _diagonal_ignoring_off_diagonal_keys,
        lambda: _t3_with_one_off_diagonal_term(3, 2),
        _T3_DIAGONAL_ROWS + ["F1..F8 hermitian", "weights of (3, 2)"]),
    "off-diagonal keys ignored in the diagonal read, (2,3) with 1 at (1, 0) of T3": (
        RadMatrix, "rational_diagonal", _diagonal_ignoring_off_diagonal_keys,
        lambda: _t3_with_one_off_diagonal_term(2, 3),
        _T3_DIAGONAL_ROWS + ["F1..F8 hermitian", "weights of (2, 3)"]),
    # both d = 15, with eigenvalues 28/3 and 16/3; the weights line fails either way
    "Schur step taken whatever the weights say, (4,0) labelled (2,1)": (
        verify_module, "check_casimir", _schur_whatever_the_weights,
        lambda: dataclasses.replace(build_generator_set(4, 0), p=2, q=1), ["casimir = 16/3"]),
    "Schur step taken whatever the weights say, (0,4) labelled (1,2)": (
        verify_module, "check_casimir", _schur_whatever_the_weights,
        lambda: dataclasses.replace(build_generator_set(0, 4), p=1, q=2), ["casimir = 16/3"]),
}


def _verify(gs):
    with mock.patch.object(verify_module, "build_generator_set", return_value=gs):
        return verify_irrep(gs.p, gs.q)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_fault_lets_a_wrong_set_pass(case):
    target, attr, fault, wrong_set, failed = _CASES[case]
    gs = wrong_set()
    report = _verify(gs)
    assert not report.passed
    assert failed in [r.name for r in report.failures()]
    with mock.patch.object(target, attr, fault):
        assert _verify(gs).passed


def _lines(report, stems):
    return [r for stem in stems for r in report.relations
            if r.name == stem or r.name.startswith(stem + " (")]


@pytest.mark.parametrize("case", sorted(_LINE_CASES))
def test_fault_passes_the_lines_its_shortcut_settles(case):
    target, attr, fault, wrong_set, stems = _LINE_CASES[case]
    gs = wrong_set()
    lines = _lines(_verify(gs), stems)
    assert len(lines) == len(stems) and not any(r.exact for r in lines)
    with mock.patch.object(target, attr, fault):
        lines = _lines(_verify(gs), stems)
    assert len(lines) == len(stems) and all(r.exact for r in lines)


def _solved_rows_read_zero(row, rhs, solved, _remainder=verify_module._remainder):
    """The oracle's remainder, read as 0 on a row whose unknowns are all solved."""
    num, den, new = _remainder(row, rhs, solved)
    return (num if new else 0), den, new


@pytest.mark.parametrize("p,q", [(2, 1), (3, 3)])
def test_substitution_check_forced_to_pass_lets_a_shifted_state_through(p, q):
    # 2 U3 off by one at state 0, the last in reverse state order, whose two
    # equations the oracle only checks: with that check always passing, it
    # returns the clean squares
    clean = oracle_solve(p, q)
    with mock.patch.object(verify_module, "state_labels",
                           return_value=_shifted_labels(p, q, 0)):
        with pytest.raises(ConsistencyError, match="inconsistent"):
            oracle_solve(p, q)
        with mock.patch.object(verify_module, "_remainder", _solved_rows_read_zero):
            assert oracle_solve(p, q) == clean
