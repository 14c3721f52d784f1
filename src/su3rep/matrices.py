"""Sparse square matrices of exact radical entries, stored as integers.

The generator matrices have O(d) nonzero entries out of d*d, and the whole
verification suite is products, sums and exact zero tests, so a dictionary
of keys, one flat dict of terms per matrix, keeps everything near-linear in
the number of nonzeros.

A ``RadMatrix`` stores one positive denominator ``den`` and integer
numerators keyed by the flat key (sf * n + col) * n + row of a position and
a square-free radicand sf; the entry at (r, c) is

    sum over sf of (numerator / den) * sqrt(sf).

The radicand is the key's top digit, so keys never collide however large a
product's radicand grows, and key % (n * n) = col * n + row names the cell.

Entries come out as ``RadicalSum``s.  They go in as split roots (k/b) sqrt(m)
through ``from_roots``, as roots sign * sqrt(a/b) through ``from_entries``, or
as ``RadicalSum``s through ``put``, and the arithmetic runs on integers and
builds no ``Fraction`` per entry, where most of a verification's time would go.

Why this is exact.  A matrix is a finite set of rational coefficients, one
per stored term (an entry with several terms, such as a corrupted one,
stores one numerator per radicand), and the lcm of their denominators is a
den that writes each of them as an integer over den.  A term coeff * A @ B
has denominator coeff_den * den_A * den_B, and each scalar product needs
only integers: sqrt(m1) * sqrt(m2) = g * sqrt((m1/g) * (m2/g)) with
g = gcd(m1, m2), whose cofactors are coprime and square-free, so the product
radicand is square-free with no factoring.  Square roots of distinct
square-free integers are linearly independent over the rationals, so a
matrix is zero exactly when it stores no numerator, and zeros are never
stored.

One kernel, ``_combine``, does every sum and product: it adds terms
coeff * A and coeff * A @ B, each rescaled to the lcm of the terms'
denominators, into one flat integer accumulator (Gustavson's row-wise
sparse product with the linear combination folded in).  Each relation's
residual and the Casimir operator are one pass each, with no product matrix
in between.

``den`` is not canonical: products and sums keep the common denominator
their operands give them, with no gcd pass to reduce it, so one matrix has
many stored forms.  Equality is therefore "the difference is zero", never a
comparison of the stored dicts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .radical import RadicalSum, split_square

_Scalar = Union[int, Fraction, RadicalSum]
Entry = tuple[int, int, int, int, int]  # (row, col, sign, a, b): sign * sqrt(a/b)
Root = tuple[int, int, int, int, int]  # (row, col, k, m, b): (k / b) * sqrt(m), m square-free


class RadMatrix:
    """n x n matrix with exact radical entries; zeros are never stored.

    ``_terms`` maps the flat key (sf * n + col) * n + row to a numerator:
    the entry at (row, col) is the sum of (numerator / den) * sqrt(sf) over
    the keys that name its cell.  Instances come from ``from_roots`` or an
    operation below and are not mutated afterwards, except by ``put`` in
    tests and corrupted controls.  Cells are read in (row, col) order by one
    sorted walk of the terms, ``triple_items``, which ``items`` wraps.
    """

    __slots__ = ("n", "den", "_terms")

    def __init__(self, n: int):
        self.n = n
        self.den = 1
        self._terms: dict[int, int] = {}

    @classmethod
    def _raw(cls, n: int, den: int, terms: dict[int, int]) -> "RadMatrix":
        """The matrix (den, terms) less its zero numerators.  The dict is kept,
        not copied, unless it holds a zero: every caller passes one it has
        just built and drops."""
        out = cls(n)
        out.den = den
        out._terms = {key: v for key, v in terms.items() if v} if 0 in terms.values() else terms
        return out

    @classmethod
    def from_roots(cls, n: int, roots: Iterable[Root]) -> "RadMatrix":
        """The n x n matrix with (k / b) * sqrt(m) at each (row, col, k, m, b),
        where m is square-free and b > 0; ``den`` is the lcm of the distinct
        b's of the nonzero entries.  Each entry's cell c * n + r is computed
        once.  Entries with k = 0 are not stored.  A position outside n x n
        raises IndexError, one given twice ValueError, zero entries included."""
        cells: dict[int, Root] = {}
        for root in roots:
            r, c, k, m, b = root
            if not (0 <= r < n and 0 <= c < n):
                raise IndexError(f"({r}, {c}) outside {n}x{n}")
            cell = c * n + r
            if cell in cells:
                raise ValueError(f"entry ({r}, {c}) given twice")
            cells[cell] = root
        n2, out = n * n, cls(n)
        out.den = den = math.lcm(*{b for _, _, k, _, b in cells.values() if k})
        out._terms = {m * n2 + cell: k * (den // b)
                      for cell, (_, _, k, m, b) in cells.items() if k}
        return out

    @classmethod
    def from_entries(cls, n: int, entries: Iterable[Entry]) -> "RadMatrix":
        """The n x n matrix with sign * sqrt(a/b) at each (row, col, sign, a, b),
        sign +1 or -1, a >= 0 and b > 0 (a rational r/s enters as sign(r) *
        sqrt(r*r / s*s)): each root split, sqrt(a/b) = k sqrt(m) / b with
        a * b = k * k * m, into ``from_roots``, which checks the positions."""
        return cls.from_roots(n, ((r, c, sign * k, m, b) for r, c, sign, a, b in entries
                                  for k, m in (split_square(a * b) if a else (0, 1),)))

    @classmethod
    def identity(cls, n: int) -> "RadMatrix":
        return cls.from_roots(n, ((i, i, 1, 1, 1) for i in range(n)))

    # -- entry access (0-based) ------------------------------------------

    def _check_index(self, r: int, c: int) -> None:
        if not (0 <= r < self.n and 0 <= c < self.n):
            raise IndexError(f"({r}, {c}) outside {self.n}x{self.n}")

    def put(self, r: int, c: int, value: _Scalar) -> None:
        """Set the entry at (r, c), replacing every term it held before.  One
        scan of the terms finds the cell's; nothing is decoded or sorted."""
        self._check_index(r, c)
        n2, cell, terms = self.n * self.n, c * self.n + r, self._terms
        for key in [key for key in terms if key % n2 == cell]:
            del terms[key]
        val = value if isinstance(value, RadicalSum) else RadicalSum(value)
        for sf, coeff in val._terms.items():
            num, d = coeff.as_integer_ratio()
            if self.den % d:  # grow den to a multiple of d, rescaling every numerator
                factor = d // math.gcd(self.den, d)
                for key in terms:
                    terms[key] *= factor
                self.den *= factor
            terms[sf * n2 + cell] = num * (self.den // d)

    def get(self, r: int, c: int) -> RadicalSum:
        """The entry at (r, c), read by one scan of the terms, like ``put``."""
        self._check_index(r, c)
        n2, cell, den = self.n * self.n, c * self.n + r, self.den
        return RadicalSum._raw({key // n2: Fraction(v, den)
                                for key, v in self._terms.items() if key % n2 == cell})

    def triple_items(self) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
        """Nonzero entries sorted by (row, col), each as its ``to_triples``:
        (num, den, sf) in lowest terms, ascending by sf.  One loop over one
        sort of the terms as (row * n + col, sf, numerator) divides each v / den
        by gcd(v, den), with no ``Fraction`` or ``RadicalSum`` in between."""
        n, n2, den, gcd = self.n, self.n * self.n, self.den, math.gcd
        out, cell = [], -1
        for rc, sf, v in sorted((key % n * n + key // n % n, key // n2, v)
                                for key, v in self._terms.items()):
            if rc != cell:
                cell, triples = rc, []
                out.append((rc // n, rc % n, triples))
            g = gcd(v, den)
            triples.append((v // g, den // g, sf))
        return out

    def items(self) -> Iterator[tuple[int, int, RadicalSum]]:
        """Nonzero entries sorted by (row, col): ``triple_items`` as ``RadicalSum``s."""
        for r, c, triples in self.triple_items():
            yield r, c, RadicalSum._raw({sf: Fraction(num, d) for num, d, sf in triples})

    def _decoded(self) -> list[tuple[int, int, int, int]]:
        """(row, col, sf, numerator) of every stored term, in storage order:
        the left operands of ``_combine_all``."""
        n = self.n
        return [(r, c, sf, v) for key, v in self._terms.items()
                for rest, r in (divmod(key, n),) for sf, c in (divmod(rest, n),)]

    @property
    def nnz(self) -> int:
        n2 = self.n * self.n
        return len({key % n2 for key in self._terms})

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadMatrix):
            return NotImplemented
        return self.n == other.n and _combine(((1, self), (-1, other))).is_zero()

    # -- algebra ----------------------------------------------------------

    def transpose(self, sign: int = 1) -> "RadMatrix":
        """sign * self^T in one pass: sign -1 gives the (q, p) irrep's matrix.
        The term at (r, c) moves from key k to k + (r - c)(n - 1)."""
        n = self.n
        n2, step = n * n, n - 1
        terms = {}
        for key, v in self._terms.items():
            c, r = divmod(key % n2, n)
            terms[key + (r - c) * step] = sign * v
        return RadMatrix._raw(n, self.den, terms)

    def times_sqrt(self, m: int) -> "RadMatrix":
        """sqrt(m) * self for square-free m, each term's radicand moved as in
        ``_combine``'s products: sqrt(m) sqrt(sf) = g sqrt((m/g)(sf/g)), g = gcd(m, sf)."""
        n2 = self.n * self.n
        return RadMatrix._raw(self.n, self.den, {
            (m // g) * (sf // g) * n2 + cell: v * g for key, v in self._terms.items()
            for sf, cell in (divmod(key, n2),) for g in (math.gcd(m, sf),)})

    def is_transpose_of(self, other: "RadMatrix", sign: int = 1) -> bool:
        """self == sign * other^T in O(nnz), building nothing: each stored term,
        cross-multiplied by the dens, matches its transpose, and none is left."""
        n = self.n
        if n != other.n or len(self._terms) != len(other._terms):
            return False
        n2, step = n * n, n - 1
        scale, den, partners = sign * self.den, other.den, other._terms
        for key, v in self._terms.items():
            c, r = divmod(key % n2, n)
            if v * den != scale * partners.get(key + (r - c) * step, 0):
                return False
        return True

    def rational_diagonal(self) -> list[int] | None:
        """The diagonal's numerators over den when self stores only rational
        diagonal terms (key (n + r) * n + r, sf = 1), else None."""
        n = self.n
        diag = [0] * n
        for key, v in self._terms.items():
            rest, r = divmod(key, n)
            if rest != n + r:
                return None
            diag[r] = v
        return diag

    def shifts_hold(self, *reads: tuple[list[int], int, Fraction]) -> bool:
        """Whether ``shift_residual(diag, den, alpha)`` is zero for every read
        (diag, den, alpha), all tested in one walk that builds nothing."""
        n = self.n
        tests = [(diag, alpha.denominator, alpha.numerator * den) for diag, den, alpha in reads]
        for key in self._terms:
            r, c = key % n, key // n % n
            for diag, a_den, a_num in tests:
                if (diag[r] - diag[c]) * a_den != a_num:
                    return False
        return True

    def shift_residual(self, diag: list[int], den: int, alpha: Fraction) -> "RadMatrix":
        """[D, self] - alpha * self for D = diag(diag) / den, in one O(nnz) walk.

        Entry (r, c) is (D_r - D_c - alpha) * self[r, c], so each stored term
        is one integer comparison.  The residual is built only from the first
        term that joins two states whose D differs by anything but alpha:
        every term before it has factor zero."""
        n, a_num, a_den = self.n, alpha.numerator * den, alpha.denominator
        factors = ((key, v, (diag[key % n] - diag[key // n % n]) * a_den - a_num)
                   for key, v in self._terms.items())
        for key, v, factor in factors:
            if factor:
                residual = {key: v * factor}
                residual.update((key, v * factor) for key, v, factor in factors)
                return RadMatrix._raw(n, self.den * den * a_den, residual)
        return RadMatrix(n)

    def trace(self) -> RadicalSum:
        # a diagonal term's cell c * n + r, c = r, is r * (n + 1)
        n2, diagonal_step = self.n * self.n, self.n + 1
        total: dict[int, int] = {}
        for key, v in self._terms.items():
            if key % n2 % diagonal_step == 0:
                total[key // n2] = total.get(key // n2, 0) + v
        return RadicalSum._raw({sf: Fraction(v, self.den) for sf, v in total.items() if v})

    # -- diagnostics -------------------------------------------------------

    def max_abs_float(self) -> float:
        """Largest |entry| in floating point; 0.0 for the zero matrix."""
        return max((abs(v.to_float()) for _, _, v in self.items()), default=0.0)

    def __repr__(self) -> str:
        return f"RadMatrix(n={self.n}, nnz={self.nnz})"


def _combine(terms: Iterable[tuple]) -> RadMatrix:
    """The sum of terms (coeff, A) = coeff * A and (coeff, A, B) = coeff * A @ B."""
    return next(_combine_all((terms,)))


def _combine_all(groups: Iterable[Iterable[tuple]]) -> Iterator[RadMatrix]:
    """``_combine`` of each group in turn.

    Each left operand is decoded into (row, col, sf, numerator) and each
    right operand into rows of (col * n, sf, numerator) once for all the
    groups.  The memos are keyed by id and end with the call; ``groups`` is
    read whole before the first sum, so every operand outlives them.  The
    checks hand over every row they compute in one call, so a matrix that
    several rows multiply is decoded once."""
    gcd = math.gcd
    groups = [[(Fraction(coeff), mats) for coeff, *mats in group] for group in groups]
    lefts: dict[int, list[tuple[int, int, int, int]]] = {}
    rights: dict[int, dict[int, list[tuple[int, int, int]]]] = {}
    for terms in groups:
        sizes = sorted({mat.n for _, mats in terms for mat in mats})
        if not sizes:
            raise ValueError("empty sum: a group with no terms has no size")
        if len(sizes) > 1:
            raise ValueError("shape mismatch: " + " vs ".join(map(str, sizes)))
        n = sizes[0]
        n2 = n * n
        scales = [coeff.denominator * math.prod(m.den for m in mats) for coeff, mats in terms]
        den = math.lcm(*scales)
        acc: dict[int, int] = {}
        for (coeff, mats), scale in zip(terms, scales):
            f = coeff.numerator * (den // scale)
            if len(mats) == 1:
                for key, v in mats[0]._terms.items():
                    acc[key] = acc.get(key, 0) + f * v
                continue
            left, right = mats
            if id(left) not in lefts:
                lefts[id(left)] = left._decoded()
            if id(right) not in rights:
                rows: dict[int, list[tuple[int, int, int]]] = {}
                for key, v in right._terms.items():
                    sf, cell = divmod(key, n2)
                    c, k = divmod(cell, n)
                    rows.setdefault(k, []).append((c * n, sf, v))
                rights[id(right)] = rows
            right_rows = rights[id(right)]
            for r, k, sfa, a in lefts[id(left)]:
                row = right_rows.get(k)
                if row is None:
                    continue
                fa = f * a
                for cn, sfb, b in row:
                    # sqrt(sfa)*sqrt(sfb) = g*sqrt((sfa/g)*(sfb/g)), g = gcd
                    g = gcd(sfa, sfb)
                    out = (sfa // g) * (sfb // g) * n2 + cn + r
                    acc[out] = acc.get(out, 0) + fa * b * g
        yield RadMatrix._raw(n, den, acc)
