"""Exact checking of generated matrix sets.

Everything here is a zero test in exact radical arithmetic: the 28
commutation relations, the quadratic Casimir identity, the structural
requirements on the hermitian basis, and an independent brute-force solver
for the block unknowns that knows nothing about the closed-form families.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .generators import (
    GellMannSet,
    GeneratorSet,
    admissible_blocks,
    build_generator_set,
    raising_entry_squares,
    to_gell_mann,
)
from .matrices import RadMatrix, _combine
from .radical import RadicalSum, sqrt_of_rational
from .structure import block_layout, dimension, state_labels, tspin_list
from .su2 import ladder_coefficient
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


def check_commutators(gs: GeneratorSet) -> CheckReport:
    """Evaluate all 28 commutation relations exactly."""
    mats = gs.matrices()
    checks = []
    for a, b, rhs in COMMUTATOR_TABLE:
        ma, mb = mats[a], mats[b]
        residual = _combine(
            [(1, ma @ mb), (-1, mb @ ma)] + [(-coeff, mats[key]) for coeff, key in rhs]
        )
        checks.append(_relation_check("commutator", _relation_name(a, b, rhs), residual))
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
    terms = [(_HALF, mats[a] @ mats[b]) for a, b in ladders]
    terms += [
        (1, mats["T3"] @ mats["T3"]),
        (Fraction(1, 3), y @ y),
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

ORACLE_MAX_DIM = 64  # the dense oracle's default size bound (desk scale)


def _entry_factor(two_s: int, shift: int, a: int, which: str) -> RadicalSum:
    """Signed in-block factor of the block constant at row position a."""
    usq, vsq = raising_entry_squares(two_s, shift, a)
    if which == "u":
        return sqrt_of_rational(usq)
    val = sqrt_of_rational(vsq)
    return -val if shift == 1 else val


def _split_radical_equation(
    coeffs: dict[int, RadicalSum], rhs: RadicalSum
) -> list[tuple[dict[int, Fraction], Fraction]]:
    """One linear equation with radical coefficients -> rational equations,
    one per square-free radicand (radicals of distinct square-free integers
    are linearly independent over the rationals)."""
    radicands: set[int] = set()
    for v in coeffs.values():
        radicands.update(m for _, m in v.terms())
    radicands.update(m for _, m in rhs.terms())
    out = []
    for m in sorted(radicands):
        row = {}
        for var, v in coeffs.items():
            c = dict((sf, co) for co, sf in v.terms()).get(m)
            if c:
                row[var] = c
        rhs_c = dict((sf, co) for co, sf in rhs.terms()).get(m, Fraction(0))
        out.append((row, rhs_c))
    return out


def _rref_solve(
    rows: list[tuple[dict[int, Fraction], Fraction]], nvars: int
) -> tuple[list[Fraction | None], list[int]]:
    """Exact Gauss-Jordan; returns per-variable solutions (None if free) and
    the list of free variable indices.  Raises on inconsistency."""
    mat = [
        [row.get(v, Fraction(0)) for v in range(nvars)] + [rhs] for row, rhs in rows
    ]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(nvars):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots[c] = r
        r += 1
        if r == len(mat):
            break
    for i in range(r, len(mat)):
        if mat[i][nvars]:
            raise ConsistencyError("oracle equations are inconsistent")
    solution: list[Fraction | None] = [None] * nvars
    free = []
    for c in range(nvars):
        if c in pivots:
            row = mat[pivots[c]]
            if any(row[c2] for c2 in range(nvars) if c2 != c):
                free.append(c)  # pivot entangled with a free variable
            else:
                solution[c] = row[nvars]
        else:
            free.append(c)
    return solution, free


def oracle_solve(p: int, q: int, max_dim: int = ORACLE_MAX_DIM) -> dict[tuple[int, int], Fraction]:
    """Solve the commutation relations directly for the squared block unknowns.

    One unknown per admissible block.  The diagonal of [U+,U-] = 2 U3 gives
    one rational-linear condition per state; the block-diagonal part of
    [V-,U+] = -T- gives radical-linear conditions that split by radicand.
    If those leave a square undetermined the diagonal of [V+,V-] = 2U3 + 2T3
    is added; remaining freedom is an error, never a guess.
    """
    d = dimension(p, q)
    if p < q:
        raise ValueError("oracle_solve requires p >= q")
    if d > max_dim:
        raise ValueError(f"oracle_solve is desk-scale only (d = {d} > {max_dim})")

    blocks = admissible_blocks(p, q)
    var_of = {(i, j): k for k, (i, j, _) in enumerate(blocks)}
    nvars = len(blocks)
    spins = tspin_list(p, q).doubled_spins
    layout = block_layout(p, q)
    labels = state_labels(p, q)

    # Squared U+ / V+ entry factors bucketed by global row and column.
    u_row: list[dict[int, Fraction]] = [dict() for _ in range(d)]
    u_col: list[dict[int, Fraction]] = [dict() for _ in range(d)]
    v_row: list[dict[int, Fraction]] = [dict() for _ in range(d)]
    v_col: list[dict[int, Fraction]] = [dict() for _ in range(d)]
    for i, j, shift in blocks:
        var = var_of[(i, j)]
        two_s = spins[i - 1]
        r0, c0 = layout.offsets[i - 1], layout.offsets[j - 1]
        if shift == -1:
            u_positions = [(a, a - 1) for a in range(1, two_s + 1)]
            v_positions = [(a, a) for a in range(0, two_s)]
        else:
            u_positions = [(a, a) for a in range(0, two_s + 1)]
            v_positions = [(a, a + 1) for a in range(0, two_s + 1)]
        for a, b in u_positions:
            usq, _ = raising_entry_squares(two_s, shift, a)
            u_row[r0 + a][var] = u_row[r0 + a].get(var, Fraction(0)) + usq
            u_col[c0 + b][var] = u_col[c0 + b].get(var, Fraction(0)) + usq
        for a, b in v_positions:
            _, vsq = raising_entry_squares(two_s, shift, a)
            v_row[r0 + a][var] = v_row[r0 + a].get(var, Fraction(0)) + vsq
            v_col[c0 + b][var] = v_col[c0 + b].get(var, Fraction(0)) + vsq

    equations: list[tuple[dict[int, Fraction], Fraction]] = []
    for k, lbl in enumerate(labels):
        row = dict(u_row[k])
        for var, val in u_col[k].items():
            row[var] = row.get(var, Fraction(0)) - val
        equations.append(({v: c for v, c in row.items() if c}, Fraction(lbl.two_u3)))

    # Block-diagonal part of [V-,U+] = -T-: for states k, l in block bb with
    # sigma_l = sigma_k + 1, sum over feeder blocks above and below.
    incoming: dict[int, list[tuple[int, int, int]]] = {}
    outgoing: dict[int, list[tuple[int, int, int]]] = {}
    for i, j, shift in blocks:
        incoming.setdefault(j, []).append((i, shift, var_of[(i, j)]))
        outgoing.setdefault(i, []).append((j, shift, var_of[(i, j)]))
    for bb in range(1, len(spins) + 1):
        two_t = spins[bb - 1]
        for ak in range(1, two_t + 1):  # local row of k; l sits one above
            coeffs: dict[int, RadicalSum] = {}

            def add(var: int, term: RadicalSum) -> None:
                coeffs[var] = coeffs.get(var, RadicalSum(0)) + term

            for a_blk, shift, var in incoming.get(bb, ()):
                two_sa = spins[a_blk - 1]
                am = ak if shift == -1 else ak - 1
                if shift == -1:
                    if not 1 <= am <= two_sa:
                        continue
                else:
                    if not 0 <= am <= two_sa:
                        continue
                add(
                    var,
                    _entry_factor(two_sa, shift, am, "v")
                    * _entry_factor(two_sa, shift, am, "u"),
                )
            for _, shift, var in outgoing.get(bb, ()):
                # U+ from row ak and V+ from row ak-1 land on the same state.
                add(
                    var,
                    -(
                        _entry_factor(two_t, shift, ak, "u")
                        * _entry_factor(two_t, shift, ak - 1, "v")
                    ),
                )
            rhs = -ladder_coefficient("minus", two_t, two_t - 2 * (ak - 1))
            equations.extend(
                _split_radical_equation(coeffs, rhs)
            )

    solution, free = _rref_solve(equations, nvars)
    if free:
        for k, lbl in enumerate(labels):
            row = dict(v_row[k])
            for var, val in v_col[k].items():
                row[var] = row.get(var, Fraction(0)) - val
            equations.append(
                (
                    {v: c for v, c in row.items() if c},
                    Fraction(lbl.two_u3 + lbl.two_sigma),
                )
            )
        solution, free = _rref_solve(equations, nvars)
    if free:
        names = ", ".join(str(blocks[k][:2]) for k in free)
        raise ConsistencyError(f"oracle underdetermined for ({p},{q}): free blocks {names}")

    out = {}
    for (i, j, _), value in zip(blocks, solution):
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
    if max_d < 1:
        raise ValueError("max_d must be at least 1")
    labels = sweep_labels(max_d)
    # never more workers than CPUs or irreps, whatever jobs asks for
    workers = min(jobs, os.cpu_count() or 1, len(labels))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, labels))
    else:
        rows = [_sweep_one(label) for label in labels]
    rows.sort(key=lambda r: (r.p, r.q))
    return SweepSummary(tuple(rows))
