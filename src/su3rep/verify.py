"""Exact checking of generated matrix sets.

Everything here is a zero test in exact radical arithmetic: the 28
commutation relations, the quadratic Casimir identity, the structural
requirements on the hermitian basis, and a brute-force solver for the block
unknowns.  The solver reads its equations off the commutation relations of
the assembled unit matrices and knows nothing about the closed-form families.

Transposition pairs the relations.  With X* the adjoint name of X (T+ <-> T-,
U+ <-> U-, V+ <-> V-; T3, U3 their own) and each named matrix the transpose of
its adjoint, [A,B] = sum c M has residual R, and its mirror [B*,A*] = sum c M*
(or [A*,B*] = -sum c M*) has R^T (or -R^T): the same zero test and largest
|entry|, so the mirror copies R's verdict exactly.  When a named matrix fails
``RadMatrix.is_transpose_of`` (a corrupted U+ alone does), both are computed.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

from .generators import (
    GellMannSet,
    GeneratorSet,
    build_generator_set,
    build_t_matrices,
    to_gell_mann,
    unit_raising_blocks,
)
from .matrices import RadMatrix, _combine, _combine_all, commutator
from .structure import dimension, state_labels
from .unknowns import ConsistencyError, block_unknown_squares


@dataclass(frozen=True)
class RelationCheck:
    name: str
    exact: bool
    residual: float  # float magnitude of the worst entry; 0.0 when exact
    kind: str  # "commutator", "casimir", "structure" or "oracle"


@dataclass(frozen=True)
class CheckReport:
    p: int
    q: int
    relations: tuple[RelationCheck, ...]

    @property
    def passed(self) -> bool:
        return bool(self.relations) and all(r.exact for r in self.relations)

    def failures(self) -> list[RelationCheck]:
        return [r for r in self.relations if not r.exact]

    def of_kind(self, kind: str) -> "CheckReport":
        return CheckReport(self.p, self.q, tuple(r for r in self.relations if r.kind == kind))


# The 28 pairwise relations: ([A, B], right-hand side as coefficient/matrix
# pairs).  Signs follow the convention in which U+ raises u3 by one and
# lowers sigma by one half.
_HALF = Fraction(1, 2)
COMMUTATOR_TABLE: tuple[tuple[str, str, tuple[tuple[Fraction, str], ...]], ...] = (
    ("T3", "Tp", ((Fraction(1), "Tp"),)),
    ("T3", "Tm", ((Fraction(-1), "Tm"),)),
    ("T3", "U3", ()),
    ("T3", "Up", ((-_HALF, "Up"),)),
    ("T3", "Um", ((_HALF, "Um"),)),
    ("T3", "Vp", ((_HALF, "Vp"),)),
    ("T3", "Vm", ((-_HALF, "Vm"),)),
    ("Tp", "Tm", ((Fraction(2), "T3"),)),
    ("Tp", "Up", ((Fraction(1), "Vp"),)),
    ("Tp", "Um", ()),
    ("Tp", "U3", ((_HALF, "Tp"),)),
    ("Tp", "Vp", ()),
    ("Tp", "Vm", ((Fraction(-1), "Um"),)),
    ("Tm", "Up", ()),
    ("Tm", "Um", ((Fraction(-1), "Vm"),)),
    ("Tm", "U3", ((-_HALF, "Tm"),)),
    ("Tm", "Vp", ((Fraction(1), "Up"),)),
    ("Tm", "Vm", ()),
    ("U3", "Up", ((Fraction(1), "Up"),)),
    ("U3", "Um", ((Fraction(-1), "Um"),)),
    ("U3", "Vp", ((_HALF, "Vp"),)),
    ("U3", "Vm", ((-_HALF, "Vm"),)),
    ("Up", "Um", ((Fraction(2), "U3"),)),
    ("Up", "Vp", ()),
    ("Up", "Vm", ((Fraction(1), "Tm"),)),
    ("Um", "Vp", ((Fraction(-1), "Tp"),)),
    ("Um", "Vm", ()),
    ("Vp", "Vm", ((Fraction(2), "U3"), (Fraction(2), "T3"))),
)


def _relation_name(a: str, b: str, rhs: tuple[tuple[Fraction, str], ...]) -> str:
    if not rhs:
        return f"[{a},{b}] = 0"
    parts = []
    for coeff, key in rhs:
        if coeff == 1:
            parts.append(key)
        elif coeff == -1:
            parts.append(f"-{key}")
        else:
            parts.append(f"{coeff}*{key}")
    return f"[{a},{b}] = " + " + ".join(parts)


_ADJOINT = {"Tp": "Tm", "Tm": "Tp", "T3": "T3", "Up": "Um", "Um": "Up", "U3": "U3",
            "Vp": "Vm", "Vm": "Vp"}


def _mirror_pairs() -> tuple[tuple[int, int], ...]:
    """(i, j), i < j, for each two table rows that are each other's transpose:
    [a,b] = sum c M gives [b*,a*] = sum c M*, that is [a*,b*] = -sum c M*."""
    rows = {row: i for i, row in enumerate(COMMUTATOR_TABLE)}
    mirrors = {}
    for i, (a, b, rhs) in enumerate(COMMUTATOR_TABLE):
        a, b, rhs = _ADJOINT[a], _ADJOINT[b], tuple((c, _ADJOINT[k]) for c, k in rhs)
        mirrors[i] = rows.get((b, a, rhs), rows.get((a, b, tuple((-c, k) for c, k in rhs))))
    return tuple((i, j) for i, j in mirrors.items() if j is not None and i < j)


MIRROR_PAIRS = _mirror_pairs()


def check_commutators(gs: GeneratorSet) -> CheckReport:
    """Evaluate all 28 commutation relations exactly, mirror pairs as above."""
    mats = gs.matrices()
    adjoint = {x: m.is_transpose_of(mats[_ADJOINT[x]]) for x, m in mats.items()}
    ok = {k for k, (a, b, rhs) in enumerate(COMMUTATOR_TABLE)
          if all(adjoint[x] for x in (a, b, *(key for _, key in rhs)))}
    derived = {j: i for i, j in MIRROR_PAIRS if i in ok}
    residuals = _combine_all(
        [(1, mats[a], mats[b]), (-1, mats[b], mats[a])] + [(-c, mats[key]) for c, key in rhs]
        for k, (a, b, rhs) in enumerate(COMMUTATOR_TABLE) if k not in derived
    )
    checks: list[RelationCheck] = []
    for k, row in enumerate(COMMUTATOR_TABLE):
        checks.append(replace(checks[derived[k]], name=_relation_name(*row)) if k in derived
                      else _relation_check("commutator", _relation_name(*row), next(residuals)))
    return CheckReport(gs.p, gs.q, tuple(checks))


def _relation_check(kind: str, name: str, residual: RadMatrix) -> RelationCheck:
    exact = residual.is_zero()
    return RelationCheck(name, exact, 0.0 if exact else residual.max_abs_float(), kind)


def casimir_eigenvalue(p: int, q: int) -> Fraction:
    return Fraction(p * p + p * q + q * q, 3) + p + q


def check_casimir(gs: GeneratorSet) -> RelationCheck:
    """The quadratic invariant must equal its eigenvalue times the identity:
    (T+T- + T-T+ + V+V- + V-V+ + U+U- + U-U+)/2 + T3^2 + Y^2/3, Y = 2 U3 + T3."""
    mats = gs.matrices()
    y = _combine([(2, mats["U3"]), (1, mats["T3"])])
    eigen = casimir_eigenvalue(gs.p, gs.q)
    ladders = (("Tp", "Tm"), ("Tm", "Tp"), ("Vp", "Vm"), ("Vm", "Vp"), ("Up", "Um"), ("Um", "Up"))
    terms = [(_HALF, mats[a], mats[b]) for a, b in ladders]
    terms += [
        (1, mats["T3"], mats["T3"]),
        (Fraction(1, 3), y, y),
        (-eigen, RadMatrix.identity(gs.dim)),
    ]
    return _relation_check("casimir", f"casimir = {eigen}", _combine(terms))


def check_structure(fs: GellMannSet) -> list[RelationCheck]:
    """Hermiticity, tracelessness and the real/imaginary split of F1..F8."""
    herm_bad = [i + 1 for i, f in enumerate(fs.matrices) if not f.is_hermitian()]
    trace_bad = [i + 1 for i, f in enumerate(fs.matrices) if not f.is_traceless()]
    real_bad = [i for i in (1, 3, 4, 6, 8) if not fs[i].im.is_zero()]
    imag_bad = [i for i in (2, 5, 7) if not fs[i].re.is_zero()]
    reality_bad = real_bad + imag_bad

    def entry(name: str, bad: list[int]) -> RelationCheck:
        return RelationCheck(
            name if not bad else f"{name} (violated by F{bad})",
            not bad,
            0.0 if not bad else 1.0,
            kind="structure",
        )

    return [
        entry("F1..F8 hermitian", herm_bad),
        entry("F1..F8 traceless", trace_bad),
        entry("F1,F3,F4,F6,F8 real; F2,F5,F7 imaginary", reality_bad),
    ]


# ---------------------------------------------------------------------------
# Brute-force oracle for the block unknowns

ORACLE_MAX_DIM = 64  # the oracle's default size bound (desk scale)


def _by_radicand(rel: str, mat: RadMatrix) -> dict[tuple[str, int, int, int], Fraction]:
    """(rel, row, col, radicand) -> rational coefficient, for every term of mat."""
    return {(rel, r, c, m): coeff for r, c, v in mat.items() for coeff, m in v.terms()}


def _eliminate(
    row: dict[int, Fraction], rhs: Fraction, var: int, pivot: dict[int, Fraction], prhs: Fraction
) -> tuple[dict[int, Fraction], Fraction]:
    """(row, rhs) less row[var] times the pivot equation, zeros dropped."""
    f = row.get(var)
    if not f:
        return row, rhs
    out = dict(row)
    for v, c in pivot.items():
        out[v] = out.get(v, 0) - f * c
    return {v: c for v, c in out.items() if c}, rhs - f * prhs


def _rref_solve(
    rows: list[tuple[dict[int, Fraction], Fraction]], nvars: int
) -> tuple[list[Fraction | None], list[int]]:
    """Exact sparse Gauss-Jordan; returns per-variable solutions (None if
    free) and the list of free variable indices.  Raises on inconsistency.

    Each pivot row has coefficient 1 at its pivot and 0 at every other
    pivot, so one pass over the pivots fully reduces a new row.
    """
    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
    for row, rhs in rows:
        row = {v: c for v, c in row.items() if c}
        for var in [v for v in row if v in pivots]:
            row, rhs = _eliminate(row, rhs, var, *pivots[var])
        if not row:
            if rhs:
                raise ConsistencyError("oracle equations are inconsistent")
            continue
        new = min(row)
        inv = 1 / row[new]
        row, rhs = {v: c * inv for v, c in row.items()}, rhs * inv
        for var, (prow, prhs) in pivots.items():
            pivots[var] = _eliminate(prow, prhs, new, row, rhs)
        pivots[new] = (row, rhs)
    solution: list[Fraction | None] = [None] * nvars
    free = []
    for var in range(nvars):
        if var in pivots and len(pivots[var][0]) == 1:
            solution[var] = pivots[var][1]
        else:
            free.append(var)  # no pivot, or one entangled with a free variable
    return solution, free


def oracle_solve(p: int, q: int, max_dim: int = ORACLE_MAX_DIM) -> dict[tuple[int, int], Fraction]:
    """Solve the commutation relations directly for the squared block unknowns.

    One unknown x_k per admissible block k.  ``unit_raising_blocks``, the
    walk ``build_uplus_vplus`` scales by sqrt(x_k), gives the unit matrices
    U_k, V_k (x_k = 1, every other square 0) in one pass, so
    U+ = sum_k sqrt(x_k) U_k and V+ = sum_k sqrt(x_k) V_k.  [U_k, U_k^T] is
    diagonal and [V_k^T, U_k] block-diagonal, while a product of two
    different blocks lands off the diagonal blocks.  So on the cells where
    a unit commutator or the right-hand side is nonzero, [U+,U-] = 2 U3 and
    [V-,U+] = -T- are linear in the x_k with those unit commutators'
    entries as coefficients.  Radicals of distinct square-free integers are
    linearly independent over the rationals, so each (cell, radicand) pair
    is one rational equation.  Nothing else is added: a square these
    equations leave free is an error, never a guess.
    """
    d = dimension(p, q)
    if p < q:
        raise ValueError("oracle_solve requires p >= q")
    if d > max_dim:
        raise ValueError(f"oracle_solve is desk-scale only (d = {d} > {max_dim})")

    units = unit_raising_blocks(p, q)
    blocks = [key for key, _, _ in units]
    # (relation, row, col, radicand) -> {block index: coefficient of its square}
    coeffs: dict[tuple[str, int, int, int], dict[int, Fraction]] = {}
    for k, (_, u_entries, v_entries) in enumerate(units):
        unit_u = RadMatrix.from_entries(d, u_entries)
        unit_v = RadMatrix.from_entries(d, v_entries)
        for rel, mat in (
            ("[U+,U-]", commutator(unit_u, unit_u.transpose())),
            ("[V-,U+]", commutator(unit_v.transpose(), unit_u)),
        ):
            for key, coeff in _by_radicand(rel, mat).items():
                coeffs.setdefault(key, {})[k] = coeff
    rhs = _by_radicand("[V-,U+]", -build_t_matrices(p, q)[1])
    rhs.update(
        (("[U+,U-]", k, k, 1), Fraction(lbl.two_u3))
        for k, lbl in enumerate(state_labels(p, q))
        if lbl.two_u3
    )
    cells = sorted(coeffs.keys() | rhs.keys())
    equations = [(coeffs.get(key, {}), rhs.get(key, Fraction(0))) for key in cells]

    solution, free = _rref_solve(equations, len(blocks))
    if free:
        names = ", ".join(str(blocks[k]) for k in free)
        raise ConsistencyError(f"oracle underdetermined for ({p},{q}): free blocks {names}")

    out = {}
    for (i, j), value in zip(blocks, solution):
        assert value is not None
        if value < 0:
            raise ConsistencyError(
                f"oracle found negative square {value} at ({i},{j}) for ({p},{q})"
            )
        out[(i, j)] = value
    return out


def compare_with_oracle(p: int, q: int) -> list[str]:
    """Mismatches between the closed-form squares and the oracle's; [] = agree.

    The two maps are compared as functions: positions absent from one side
    count as zero there (the closed forms emit a few structurally zero
    entries the oracle has no unknown for).
    """
    formula = block_unknown_squares(p, q)
    solved = oracle_solve(p, q)
    problems = []
    for key in sorted(set(formula) | set(solved)):
        a = formula.get(key, Fraction(0))
        b = solved.get(key, Fraction(0))
        if a != b:
            problems.append(f"block {key}: closed form {a} != solved {b}")
    return problems


# ---------------------------------------------------------------------------
# Whole-irrep reports and the sweep


def verify_irrep(p: int, q: int, with_oracle: bool = False) -> CheckReport:
    """Commutators, Casimir and structure for one irrep, as one report."""
    gs = build_generator_set(p, q)
    entries = list(check_commutators(gs).relations)
    entries.append(check_casimir(gs))
    entries.extend(check_structure(to_gell_mann(gs)))
    if with_oracle:
        mismatches = compare_with_oracle(max(p, q), min(p, q))
        entries.append(
            RelationCheck(
                "block unknowns match brute-force solve"
                if not mismatches
                else f"oracle mismatch: {'; '.join(mismatches)}",
                not mismatches,
                0.0 if not mismatches else 1.0,
                kind="oracle",
            )
        )
    return CheckReport(p, q, tuple(entries))


@dataclass(frozen=True)
class SweepRow:
    p: int
    q: int
    d: int
    commutators_ok: bool
    casimir_ok: bool
    structure_ok: bool
    millis: int


@dataclass(frozen=True)
class SweepSummary:
    rows: tuple[SweepRow, ...]

    @property
    def passed(self) -> bool:
        return bool(self.rows) and all(
            r.commutators_ok and r.casimir_ok and r.structure_ok for r in self.rows
        )


# q > p spot checks exercised by the sweep alongside the p >= q grid
_TRANSPOSE_SPOT_CHECKS = ((0, 1), (1, 2), (2, 3), (3, 5))


def sweep_labels(max_d: int) -> list[tuple[int, int]]:
    """All (p, q) with p >= q and d < max_d, plus q > p spot checks."""
    labels = []
    p = 0
    while dimension(p, 0) < max_d:
        for q in range(0, p + 1):
            if dimension(p, q) < max_d:
                labels.append((p, q))
        p += 1
    labels.extend(
        (pp, qq) for pp, qq in _TRANSPOSE_SPOT_CHECKS if dimension(pp, qq) < max_d
    )
    return sorted(labels)


def _sweep_one(label: tuple[int, int]) -> SweepRow:
    p, q = label
    start = time.perf_counter()
    report = verify_irrep(p, q)
    millis = int((time.perf_counter() - start) * 1000)
    comm, cas, struct = (
        report.of_kind(kind).passed for kind in ("commutator", "casimir", "structure")
    )
    return SweepRow(p, q, dimension(p, q), comm, cas, struct, millis)


def sweep(max_d: int, jobs: int = 1) -> SweepSummary:
    """Check every irrep with dimension below max_d; rows in (p, q) order."""
    if max_d < 2:
        raise ValueError(f"max_d must be at least 2: no irrep has d < {max_d}")
    labels = sweep_labels(max_d)
    # never more workers than CPUs or irreps, whatever jobs asks for
    workers = min(jobs, os.cpu_count() or 1, len(labels))
    if workers > 1:
        # largest irreps first, so that no big one starts last
        largest_first = sorted(labels, key=lambda label: (-dimension(*label), label))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, largest_first))
    else:
        rows = [_sweep_one(label) for label in labels]
    rows.sort(key=lambda r: (r.p, r.q))
    return SweepSummary(tuple(rows))
