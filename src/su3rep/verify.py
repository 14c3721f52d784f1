"""Exact checking of generated matrix sets.

Everything here is a zero test in exact radical arithmetic: the 28
commutation relations, the quadratic Casimir identity, the structural
requirements on the hermitian basis, and an independent solver for the block
unknowns.  The solver reads linear equations in the squared unknowns off the
diagonals of [U+,U-] and [V+,V-], from the unit entries of the assembly walk
and the state labels, and solves them by one pass of substitution in reverse
state order; it builds no matrix and knows nothing about the closed-form
families.

The commutators follow Serre's presentation of sl(3) (Serre 1966, Algebres
de Lie semi-simples complexes; Humphreys, Introduction to Lie Algebras,
section 18.3): it is generated by e = (T+, U+), f = (T-, U-) and
h = (2 T3, 2 U3) subject to Chevalley's relations [h_i, h_j] = 0,
[h_i, e_j] = a_ji e_j, [h_i, f_j] = -a_ji f_j, [e_i, f_j] = delta_ij h_i,
and the (ad e)^2, (ad f)^2 relations, with a the Cartan matrix.  The checks
read them in four steps.

- The 13 rows with T3 or U3 as an operand need no product when that operand
  is diagonal and rational: [h, X] - alpha X has entry
  (h_r - h_c - alpha) X_rc, so the row holds iff every stored term of X joins
  two states whose h differs by alpha.  One walk of each X+ reads its T3 and
  U3 rows (``RadMatrix.shifts_hold``); X- = X+^T then needs none, as
  [h, X-] = -([h, X+])^T, and any other X- takes its own walk; and
  [T3, U3] = 0 as both are diagonal.  A row whose read fails, or that no
  read settles, is computed by its product.
- When those rows hold and each lowering matrix is the transpose of its
  raising partner (``RadMatrix.is_transpose_of``), four products remain:
  [T+,T-] = 2 T3, [U+,U-] = 2 U3, [T+,U-] = 0 and [T+,U+] = V+.  The first
  three are Chevalley's [e_i, f_j] relations; their transposes are the
  f-side ones, and [U+,T-] = 0 is the transpose of [T+,U-].  The fourth
  names V+ = [e_1, e_2].
- If all four are zero, the (ad e)^2 relations [T+,V+] = 0 and [U+,V+] = 0
  follow.  Take theta = [T+,V+].  [T-,U+] = 0 is the transpose of [T+,U-],
  so the Jacobi identity and the Cartan rows give [T-,V+] = [-2 T3, U+] = U+
  and [T-,theta] = [-2 T3, V+] + [T+,U+] = -V+ + V+ = 0, and also
  [2 T3, theta] = 2 theta + theta = 3 theta.  ad T+, ad T- and ad 2 T3 make
  End(V) a finite-dimensional sl(2) module, in which a vector killed by the
  lowering operator has weight <= 0; so theta = 0.  For phi = [U+,V+] the
  same steps with U+, U-, 2 U3 and [U-,V+] = [T+, -2 U3] = -T+ give
  [U-,phi] = 0 and [2 U3, phi] = 3 phi, so phi = 0.  This is the standard
  argument that the Serre relations hold in integrable modules (Kac,
  Infinite Dimensional Lie Algebras, chapter 3).  The (ad f)^2 relations
  are their transposes.
- Then the eight matrices satisfy every defining relation, so they are the
  image of a representation of sl(3): V+ = [T+,U+] is the image of
  [e_1, e_2], and V- = V+^T = [U-,T-] (adjointness) the image of [f_2, f_1].
  Each of the other 9 ladder rows holds in sl(3), where it follows from the
  defining relations by the Jacobi identity, so it holds for the matrices
  too: with the two (ad e)^2 rows, 11 exact PASSes with no product.

Every hypothesis is read off the matrices themselves.  When one fails (a
T3 or U3 that is not rational and diagonal, a weight read, an adjoint test or
one of the four products), the rows it would have settled are computed with
every other unsettled row in one kernel call, so each residual is its own.

``verify_irrep`` takes the Schur step on the set it has just built.  When
that set's 28 rows all hold exactly, the matrices carry a representation of
sl(3).  If T3 and U3 store only rational diagonal terms whose (2 T3, 3Y)
multiset, 3Y = 2 (2 U3) + 2 T3, is ``weight_multiplicities`` of (p, q), it is
completely reducible (Weyl) with the character of (p, q), so it is the irrep
(p, q), on which the Casimir is a scalar (Schur).  On the highest weight,
T3 = p/2, U3 = q/2 and each (X+X- + X-X+)/2 is [X+,X-]/2, so the scalar is
``casimir_eigenvalue(p, q)``: an exact PASS with no product.  Otherwise it
calls ``check_casimir``, which always computes the six-product sum.

It reads the hermitian and traceless lines off the same set, with no Fk
built.  Fk is sqrt(radicand) S for S = sum of c X over its row of
``GELL_MANN_TABLE``, so it is hermitian iff S is symmetric ("re" rows) or
antisymmetric ("im" rows), and traceless iff S is.  A row that names only
rational diagonal Cartan matrices, or one ladder pair c X+ + conj(c) X- whose
lowering matrix is its raising partner's transpose (its adjoint is
conj(c) X+^T + c X-^T, itself), is hermitian by the hypotheses; any other
row's S is summed and tested with ``RadMatrix.is_transpose_of``, so every
offender is that row's own.  The trace of S is the sum of c tr(X): T3's and
U3's diagonal sums when they are rational diagonals, 0 for a ladder whose
reads hold (alpha != 0 in its T3 row, so it stores no diagonal term), and
otherwise that matrix's trace, O(nnz).
(That each Fk lies in the part its row names needs no line:
``gell_mann_matrix`` leaves the other part zero whatever its input.)

The third structure line is the weight certificate, "weights of (p, q)".
The Casimir eigenvalue and every commutator are blind to a (p, q) set
relabelled (q, p), or to any relabelling of equal dimension and eigenvalue;
the weights are not, so a PASS names its irrep.  On failure the line names
the first (2 T3, 3Y), in ascending order, whose count differs, or the
Cartan matrix that is not a rational diagonal.

The diagonals, adjointness, the raising reads and the certificate are each
read once per ``verify_irrep`` and handed to the commutator rows, the Schur
step and the structure lines.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .generators import (
    _HALF,
    GELL_MANN_TABLE,
    LADDER_PAIRS,
    GeneratorSet,
    build_generator_set,
    unit_raising_blocks,
)
from .matrices import RadMatrix, _combine, _combine_all
from .structure import ConsistencyError, dimension, state_labels, weight_multiplicities
from .unknowns import block_unknown_squares


@dataclass(frozen=True)
class RelationCheck:
    name: str
    exact: bool
    residual: float  # float magnitude of the worst entry; 0.0 when exact
    kind: str  # "commutator", "casimir" or "structure"


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


# Chevalley's [e_i, f_j] relations on e = (Tp, Up), f = (Tm, Um),
# h = (2 T3, 2 U3), and Vp = [Tp,Up]: the rows that take a product when the
# weight reads and adjoint tests hold; each names its table row by the operands.
CHEVALLEY_RELATIONS = (("Tp", "Tm"), ("Up", "Um"), ("Tp", "Um"), ("Tp", "Up"))
_CARTAN_ROWS = tuple(k for k, (a, b, _) in enumerate(COMMUTATOR_TABLE) if {a, b} & {"T3", "U3"})
_CHEVALLEY_ROWS = tuple(k for k, (a, b, _) in enumerate(COMMUTATOR_TABLE)
                        if (a, b) in CHEVALLEY_RELATIONS)
_DERIVED_ROWS = tuple(k for k in range(len(COMMUTATOR_TABLE))
                      if k not in _CARTAN_ROWS and k not in _CHEVALLEY_ROWS)
_RELATION_NAMES = tuple(_relation_name(*row) for row in COMMUTATOR_TABLE)
# (X, h) -> alpha in the Cartan row [h, X] = alpha X of each ladder matrix X
_SHIFTS = {(x, h): sign * c for a, b, rhs in COMMUTATOR_TABLE for c, x in rhs
           for h, sign in ((a, 1), (b, -1)) if h in ("T3", "U3")}


@dataclass(frozen=True)
class _Hypotheses:
    """What the checks read off a set before any product, each read once:
    T3's and U3's numerators when each stores only rational diagonal terms
    (None otherwise), the raising names in ``LADDER_PAIRS`` whose lowering
    partner is their transpose (a rational diagonal T3 or U3 is its own
    transpose), and the ladder matrices whose T3 and U3 rows hold.  A lowering
    matrix that is not its raising partner's transpose takes its own walk."""

    diagonals: dict[str, list[int] | None]
    adjoint: frozenset[str]
    shifts: frozenset[str]

    @classmethod
    def read(cls, mats: Mapping[str, RadMatrix]) -> "_Hypotheses":
        diagonals = {h: mats[h].rational_diagonal() for h in ("T3", "U3")}
        adjoint = frozenset(x for x, y in LADDER_PAIRS.items() if mats[x].is_transpose_of(mats[y]))

        def holds(x: str) -> bool:
            return None not in diagonals.values() and mats[x].shifts_hold(
                *[(d, mats[h].den, _SHIFTS[x, h]) for h, d in diagonals.items()])

        held = [x for x in LADDER_PAIRS if holds(x)]
        # [h, X-] = -([h, X+])^T when X- = X+^T; any other X- takes its own walk
        held += [y for x, y in LADDER_PAIRS.items() if (x in held if x in adjoint else holds(y))]
        return cls(diagonals, adjoint, frozenset(held))


def check_commutators(gs: GeneratorSet) -> CheckReport:
    """Evaluate all 28 commutation relations exactly: the Cartan rows by
    weight reads where T3 and U3 allow, the ladder rows by Chevalley's four
    relations when every hypothesis holds, and every other row by its product."""
    return _commutator_report(gs, _Hypotheses.read(gs.matrices()))


def _commutator_report(gs: GeneratorSet, hypotheses: _Hypotheses) -> CheckReport:
    """``check_commutators`` on hypotheses already read off gs."""
    mats = gs.matrices()
    # a Cartan row holds by the reads when T3 and U3 are rational diagonals
    # and every ladder operand's reads hold ([T3,U3] has none)
    rational = None not in hypotheses.diagonals.values()
    residuals = {k: RadMatrix(gs.dim) for k in _CARTAN_ROWS
                 if rational and {*COMMUTATOR_TABLE[k][:2]} <= hypotheses.shifts | {"T3", "U3"}}

    def computed(ks: tuple[int, ...]) -> dict[int, RadMatrix]:
        return dict(zip(ks, _combine_all(
            [(1, mats[a], mats[b]), (-1, mats[b], mats[a])] + [(-c, mats[key]) for c, key in rhs]
            for a, b, rhs in (COMMUTATOR_TABLE[k] for k in ks)
        )))

    if len(residuals) == len(_CARTAN_ROWS) and hypotheses.adjoint == set(LADDER_PAIRS):
        residuals.update(computed(_CHEVALLEY_ROWS))
        if all(residuals[k].is_zero() for k in _CHEVALLEY_ROWS):
            # the sl(2)-module argument, then Serre's theorem
            residuals.update((k, RadMatrix(gs.dim)) for k in _DERIVED_ROWS)
    # every row no hypothesis settled: the 11 derived rows when a Chevalley
    # product fails, or the 15 ladder rows and every unsettled Cartan row
    unsettled = tuple(k for k in range(len(COMMUTATOR_TABLE)) if k not in residuals)
    if unsettled:
        residuals.update(computed(unsettled))
    checks = tuple(_relation_check("commutator", name, residuals[k])
                   for k, name in enumerate(_RELATION_NAMES))
    return CheckReport(gs.p, gs.q, checks)


def _relation_check(kind: str, name: str, residual: RadMatrix) -> RelationCheck:
    exact = residual.is_zero()
    return RelationCheck(name, exact, 0.0 if exact else residual.max_abs_float(), kind)


def casimir_eigenvalue(p: int, q: int) -> Fraction:
    return Fraction(p * p + p * q + q * q, 3) + p + q


def _weights_line(gs: GeneratorSet, diagonals: Mapping[str, list[int] | None]) -> RelationCheck:
    """The weight certificate as verify's third structure line, "weights of
    (p, q)".  It passes when T3 and U3 store only rational diagonal terms
    whose (2 T3, 3Y) multiset, 3Y = 2 (2 U3) + 2 T3, is
    ``weight_multiplicities`` of (p, q); otherwise it names the least weight
    whose count differs, or the Cartan matrix that is not a rational
    diagonal.  O(d)."""
    name = f"weights of ({gs.p}, {gs.q})"
    missing = [h for h, diag in diagonals.items() if diag is None]
    if missing:
        offender = f"by {' and '.join(missing)}: not a rational diagonal"
    else:
        # every weight as integers over den, so a fractional 2 T3 or 3Y shows too
        den = math.lcm(gs.t_three.den, gs.u_three.den)
        two_t, four_u = 2 * den // gs.t_three.den, 4 * den // gs.u_three.den
        got = Counter((two_t * t, four_u * u + two_t * t)
                      for t, u in zip(diagonals["T3"], diagonals["U3"]))
        want = Counter({(x * den, y * den): m
                        for (x, y), m in weight_multiplicities(gs.p, gs.q).items()})
        if got == want:
            return RelationCheck(name, True, 0.0, kind="structure")
        x, y = min(w for w in got.keys() | want.keys() if got[w] != want[w])
        offender = (f"at (2 T3, 3Y) = ({Fraction(x, den)}, {Fraction(y, den)}): "
                    f"{got[x, y]} states, not {want[x, y]}")
    return RelationCheck(f"{name} (violated {offender})", False, 1.0, kind="structure")


def check_casimir(gs: GeneratorSet) -> RelationCheck:
    """The quadratic invariant must equal its eigenvalue times the identity:
    (T+T- + T-T+ + V+V- + V-V+ + U+U- + U-U+)/2 + T3^2 + Y^2/3, Y = 2 U3 + T3,
    computed as one sum of six ladder products and two Cartan squares."""
    eigen = casimir_eigenvalue(gs.p, gs.q)
    mats = gs.matrices()
    y = _combine([(2, mats["U3"]), (1, mats["T3"])])
    terms = [(_HALF, mats[a], mats[b])
             for x, xm in LADDER_PAIRS.items() for a, b in ((x, xm), (xm, x))]
    terms += [
        (1, mats["T3"], mats["T3"]),
        (Fraction(1, 3), y, y),
        (-eigen, RadMatrix.identity(gs.dim)),
    ]
    return _relation_check("casimir", f"casimir = {eigen}", _combine(terms))


def _structure_lines(mats: Mapping[str, RadMatrix], hypotheses: _Hypotheses) -> list[RelationCheck]:
    """The hermitian and traceless lines of F1..F8, each offender list
    ascending in k, with no Fk built: Fk is sqrt(radicand) S for S the sum of
    c X over its ``GELL_MANN_TABLE`` row.  A row that names only rational
    diagonal Cartan matrices, or one ladder pair in ``hypotheses.adjoint``,
    is hermitian; any other row's S is summed and tested for S = S^T ("re")
    or S = -S^T ("im").  The trace of S is the sum of c tr(X)."""
    rational = {h for h, diag in hypotheses.diagonals.items() if diag is not None}
    pairs = [{x, LADDER_PAIRS[x]} for x in hypotheses.adjoint]
    # alpha != 0 in each T3 row, so a held ladder stores no diagonal term: trace 0
    traces = {name: Fraction(sum(diag), m.den) if diag is not None
              else 0 if name in hypotheses.shifts else m.trace()
              for name, m in mats.items() for diag in [hypotheses.diagonals.get(name)]}
    herm_bad, trace_bad = [], []
    for k, (part, _, terms) in GELL_MANN_TABLE.items():
        names = {name for _, name in terms}
        if not (names <= rational or names in pairs):
            s = _combine((c, mats[name]) for c, name in terms)
            if not s.is_transpose_of(s, 1 if part == "re" else -1):
                herm_bad.append(k)
        if sum(c * traces[name] for c, name in terms):
            trace_bad.append(k)
    return [
        RelationCheck(name if not bad else f"{name} (violated by F{bad})",
                      not bad, 0.0 if not bad else 1.0, kind="structure")
        for name, bad in (("F1..F8 hermitian", herm_bad), ("F1..F8 traceless", trace_bad))
    ]


# ---------------------------------------------------------------------------
# Independent oracle for the block unknowns

# The oracle's default size bound.  oracle_solve(20, 10), d = 3696, takes 0.043
# to 0.075 s, and all 150 p >= q irreps with d < 1000 0.70 to 0.91 s (best of
# 5 to 7, over runs on a busy shared 2-CPU Linux x86-64 machine, CPython 3.11.7).
ORACLE_MAX_DIM = 4000


def _remainder(row: dict[int, int], rhs: int,
               solved: dict[int, tuple[int, int]]) -> tuple[int, int, list[int]]:
    """(num, den, new): num/den = rhs - sum of c x_v over the solved unknowns
    v of row, x_v = r/s for (r, s) = solved[v] and den the lcm of those s,
    grown term by term; new lists the row's unsolved unknowns, c != 0."""
    total, scale, new = rhs, 1, []
    for v, c in row.items():
        if v in solved:
            r, s = solved[v]
            if scale % s:
                g = s // math.gcd(scale, s)
                total, scale = total * g, scale * g
            total -= c * r * (scale // s)
        elif c:
            new.append(v)
    return total, scale, new


def _substitute(rows: Iterable[tuple[dict[int, int], int, str]], names: Sequence) -> list[Fraction]:
    """Solve integer equations (row, rhs, where), row . x = rhs, in one pass
    of back substitution, in the order given; names[v] names unknown v.

    A row with one unsolved unknown (a stored zero is none) solves it, kept
    as a reduced integer pair; a row with none is checked at the solution
    (its ``_remainder`` is 0 exactly when it holds).  A row with two unsolved
    unknowns, or an unknown that no row solves, raises: the oracle's
    equations are triangular in reverse state order for every (p, q)
    (tests/test_unknowns.py::TestReverseStateOrder), and nothing is guessed.
    """
    solved: dict[int, tuple[int, int]] = {}
    for row, rhs, where in rows:
        num, den, new = _remainder(row, rhs, solved)
        if len(new) > 1:
            raise ConsistencyError(f"oracle equation at {where} holds two unsolved squares, of "
                                   f"blocks {' and '.join(str(names[v]) for v in new[:2])}")
        if new:
            x = Fraction(num, den * row[new[0]])
            solved[new[0]] = x.numerator, x.denominator
        elif num:
            raise ConsistencyError(f"oracle equations are inconsistent at {where}")
    free = ", ".join(str(name) for v, name in enumerate(names) if v not in solved)
    if free:
        raise ConsistencyError(f"oracle underdetermined: no equation solves blocks {free}")
    return [Fraction(*solved[v]) for v in range(len(names))]


def _diagonal_terms(p: int, q: int) -> tuple[list[tuple[int, int]], list[list]]:
    """The block keys, and at 2 * state + relation [(k, a, b), ...]: x_k * a/b
    on the diagonal of [U+,U-] (relation 0) or [V+,V-] (relation 1); a block
    has at most one entry in a row or column, never both for a state."""
    units = unit_raising_blocks(p, q, ("Up", "Vp"))
    terms: list[list[tuple[int, int, int]]] = [[] for _ in range(2 * dimension(p, q))]
    for k, (_, runs) in enumerate(units):
        for relation, name in enumerate(("Up", "Vp")):
            row, col, _, nums, b = runs[name]
            for t, a in enumerate(nums):
                terms[2 * (row + t) + relation].append((k, a, b))
                terms[2 * (col + t) + relation].append((k, -a, b))
    return [key for key, _ in units], terms


def oracle_solve(p: int, q: int, max_dim: int = ORACLE_MAX_DIM) -> dict[tuple[int, int], Fraction]:
    """Solve the commutation relations directly for the squared block unknowns.

    One unknown x_k per admissible block k.  ``unit_raising_blocks``, the
    runs ``build_raising`` scales by sqrt(x_k), gives each block's unit
    entries (x_k = 1, every other square 0), entry t of a run the root
    sign * sqrt(a_t/b) at (row + t, col + t).  Each position lies in one
    block, so entry (s, s) of X+ X+^T - X+^T X+ is the sum over k of x_k
    times the a/b of block k's unit entries in row s minus those in column
    s: linear in the x_k, rational, with no cross terms and no radicals.  The
    diagonals of [U+,U-] = 2 U3 and [V+,V-] = 2 U3 + 2 T3 give two such
    equations per state, each scaled to integers by the lcm of its b's.  In
    reverse state order they are triangular (``_substitute``): each solves at
    most one new square as it is built, and one whose squares are all solved
    is checked at that solution.  Nothing else is added: a square these
    equations leave free, or an equation that meets two unsolved ones, is an
    error, never a guess.  Signs do not enter, so the relative signs of the
    U+ and V+ unit entries and T-'s radicals are not the oracle's to test:
    ``check_commutators`` proves them on every assembled set.
    """
    d = dimension(p, q)
    if p < q:
        raise ValueError("oracle_solve requires p >= q")
    if d > max_dim:
        raise ValueError(f"oracle_solve is desk-scale only (d = {d} > {max_dim})")

    blocks, terms = _diagonal_terms(p, q)  # the unit entry lists are freed here
    # in reverse state order, each state's [V+,V-] row, then its [U+,U-] row
    sides = ((rhs, f"state {lbl.index}, {name}") for lbl in reversed(state_labels(p, q))
             for rhs, name in ((lbl.two_u3 + lbl.two_sigma, "[V+,V-]"), (lbl.two_u3, "[U+,U-]")))
    equations = (({k: a * (scale // b) for k, a, b in found}, rhs * scale, where)
                 for found, (rhs, where) in zip(reversed(terms), sides)
                 for scale in [math.lcm(*[b for _, _, b in found])])

    out = dict(zip(blocks, _substitute(equations, blocks)))
    for (i, j), x in out.items():
        if x < 0:
            raise ConsistencyError(f"oracle found negative square {x} at ({i},{j}) for ({p},{q})")
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


def verify_irrep(p: int, q: int) -> CheckReport:
    """Commutators, Casimir and structure for one irrep, as one report.  Each
    hypothesis (T3's and U3's rational diagonals, adjointness and the weight
    certificate) is read once, on the set built here.  The Casimir line is an
    exact PASS by Schur's lemma when all 28 rows and the weight certificate
    hold, and computed otherwise.  The hermitian and traceless lines are read
    off the eight matrices, with no Fk built (``_structure_lines``).  The
    third structure line is the weight certificate, which names the irrep."""
    gs = build_generator_set(p, q)
    mats = gs.matrices()
    hypotheses = _Hypotheses.read(mats)
    commutators = _commutator_report(gs, hypotheses)
    weights = _weights_line(gs, hypotheses.diagonals)
    entries = list(commutators.relations)
    if commutators.passed and weights.exact:
        eigen = casimir_eigenvalue(p, q)
        entries.append(RelationCheck(f"casimir = {eigen}", True, 0.0, "casimir"))
    else:
        entries.append(check_casimir(gs))
    entries.extend(_structure_lines(mats, hypotheses))
    entries.append(weights)
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
    error: str = ""  # "Type: message" of an exception that failed the row


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
    """One irrep's row.  An exception fails the row and is carried in it, so
    one irrep cannot end the sweep."""
    p, q = label
    start = time.perf_counter()
    try:
        report, error = verify_irrep(p, q), ""
    except Exception as err:
        report, error = CheckReport(p, q, ()), f"{type(err).__name__}: {err}"
    millis = int((time.perf_counter() - start) * 1000)
    comm, cas, struct = (
        report.of_kind(kind).passed for kind in ("commutator", "casimir", "structure")
    )
    return SweepRow(p, q, dimension(p, q), comm, cas, struct, millis, error)


def sweep(max_d: int, jobs: int = 1) -> SweepSummary:
    """Check every irrep with dimension below max_d; rows in (p, q) order."""
    if max_d < 2:
        raise ValueError(f"max_d must be at least 2: no irrep has d < {max_d}")
    labels = sweep_labels(max_d)
    # never more workers than CPUs or irreps, whatever jobs asks for
    workers = min(jobs, os.cpu_count() or 1, len(labels))
    if workers > 1:
        # imported here: the process-pool stack (multiprocessing, socket,
        # pickle, ...) would otherwise be about a third of su3rep's import
        from concurrent.futures import ProcessPoolExecutor

        # largest irreps first, so that no big one starts last
        largest_first = sorted(labels, key=lambda label: (-dimension(*label), label))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, largest_first))
    else:
        rows = [_sweep_one(label) for label in labels]
    rows.sort(key=lambda r: (r.p, r.q))
    return SweepSummary(tuple(rows))
