"""Fault injection: each case replaces one shortcut that verify_irrep takes
with a wrong one, and hands verify_irrep a set that is not the irrep it is
labelled.  Under the fault the set must PASS, which shows that the shortcut
alone stands between it and a wrong verdict; without the fault it must FAIL
on the line the shortcut settles.  A case whose set fails under its fault no
longer guards that shortcut: verify has stopped relying on it, or the set no
longer reaches it."""

import dataclasses
from unittest import mock

import pytest

from su3rep import RelationCheck, build_generator_set, verify_irrep
from su3rep import verify as verify_module
from su3rep.matrices import RadMatrix
from test_verify import _added


def _v_minus_first_entry_doubled(p, q):
    gs = build_generator_set(p, q)
    r, c, v = next(gs.v_minus.items())
    return dataclasses.replace(gs, v_minus=_added(gs.v_minus, r, c, v))


def _weights_always_pass(gs, diagonals):
    return RelationCheck(f"weights of ({gs.p}, {gs.q})", True, 0.0, kind="structure")


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
