"""Sparse square matrices of exact radical entries, stored as integers.

The generator matrices have O(d) nonzero entries out of d*d, and the whole
verification suite is products, sums and exact zero tests, so a dict-of-rows
layout keeps everything near-linear in the number of nonzeros.

A ``RadMatrix`` stores one positive denominator ``den`` and integer
numerators keyed by (column, square-free radicand); the entry at (r, c) is

    sum over sf of (numerator / den) * sqrt(sf).

Entries come out as ``RadicalSum``s.  They go in as integer roots
sign * sqrt(a/b) through ``from_entries`` (or as ``RadicalSum``s through
``put``), and the arithmetic runs on integers and builds no ``Fraction`` per
entry, which is where nearly all of a verification's time would otherwise go.

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
denominators, into one integer accumulator per row (Gustavson's row-wise
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


class RadMatrix:
    """n x n matrix with exact radical entries; zeros are never stored.

    ``_rows`` maps a row to ``{sf * n + col: numerator}``: the entry at
    (row, col) is the sum of (numerator / den) * sqrt(sf) over its keys.
    Instances come from ``from_entries`` or an operation below and are not
    mutated afterwards, except by ``put`` in tests and corrupted controls.
    """

    __slots__ = ("n", "den", "_rows")

    def __init__(self, n: int):
        self.n = n
        self.den = 1
        self._rows: dict[int, dict[int, int]] = {}

    @classmethod
    def _raw(cls, n: int, den: int, rows: dict[int, dict[int, int]]) -> "RadMatrix":
        """The matrix (den, rows) less its zero numerators and empty rows.

        Rows are kept, not copied, and only a row holding a zero is rebuilt:
        every caller (``_combine_all``, ``transpose``, ``trace`` and
        ``shift_residual``) passes dicts it has just built and drops them."""
        out = cls(n)
        out.den = den
        for r, row in rows.items():
            if 0 in row.values():
                row = {key: v for key, v in row.items() if v}
            if row:
                out._rows[r] = row
        return out

    @classmethod
    def from_entries(cls, n: int, entries: Iterable[Entry]) -> "RadMatrix":
        """The n x n matrix with sign * sqrt(a/b) at each (row, col, sign, a, b),
        where sign is +1 or -1, a >= 0 and b > 0; a rational r/s enters as
        sign(r) * sqrt(r*r / s*s).  sqrt(a/b) = k * sqrt(m) / b with
        a * b = k * k * m, m square-free, and ``den`` is the lcm of the b's.
        Entries with a = 0 are not stored.  A position outside n x n raises
        IndexError, one given twice ValueError."""
        seen: set[int] = set()
        terms = []
        for r, c, sign, a, b in entries:
            if not (0 <= r < n and 0 <= c < n):
                raise IndexError(f"({r}, {c}) outside {n}x{n}")
            if r * n + c in seen:
                raise ValueError(f"entry ({r}, {c}) given twice")
            seen.add(r * n + c)
            if a:
                k, m = split_square(a * b)
                terms.append((r, m * n + c, sign * k, b))
        out = cls(n)
        out.den = den = math.lcm(*(b for _, _, _, b in terms))
        for r, key, num, b in terms:
            out._rows.setdefault(r, {})[key] = num * (den // b)
        return out

    @classmethod
    def identity(cls, n: int) -> "RadMatrix":
        return cls.from_entries(n, ((i, i, 1, 1, 1) for i in range(n)))

    # -- entry access (0-based) ------------------------------------------

    def _check_index(self, r: int, c: int) -> None:
        if not (0 <= r < self.n and 0 <= c < self.n):
            raise IndexError(f"({r}, {c}) outside {self.n}x{self.n}")

    def put(self, r: int, c: int, value: _Scalar) -> None:
        """Set the entry at (r, c), replacing every term it held before."""
        self._check_index(r, c)
        n = self.n
        val = value if isinstance(value, RadicalSum) else RadicalSum(value)
        row = self._rows.setdefault(r, {})
        for key in [key for key in row if key % n == c]:
            del row[key]
        for sf, coeff in val._terms.items():
            num, d = coeff.as_integer_ratio()
            if self.den % d:  # grow den to a multiple of d, rescaling every numerator
                factor = d // math.gcd(self.den, d)
                for numerators in self._rows.values():
                    for key in numerators:
                        numerators[key] *= factor
                self.den *= factor
            row[sf * n + c] = num * (self.den // d)
        if not row:
            del self._rows[r]

    def get(self, r: int, c: int) -> RadicalSum:
        self._check_index(r, c)
        return next((v for _, col, v in self._decoded((r,)) if col == c), _ZERO)

    def items(self) -> Iterator[tuple[int, int, RadicalSum]]:
        """Nonzero entries sorted by (row, col)."""
        return self._decoded(sorted(self._rows))

    def triple_items(self) -> Iterator[tuple[int, int, list[tuple[int, int, int]]]]:
        """Nonzero entries sorted by (row, col), each as its ``to_triples``:
        (num, den, sf) in lowest terms, ascending by sf.  Each term is its
        stored numerator v over ``den`` divided by g = gcd(v, den), with no
        ``Fraction`` or ``RadicalSum`` in between."""
        den, gcd = self.den, math.gcd
        for r, c, terms in self._entries(sorted(self._rows)):
            yield r, c, [(v // g, den // g, sf) for sf, v in terms for g in (gcd(v, den),)]

    def _entries(self, rows: Iterable[int]) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
        """(row, col, [(sf, numerator), ...]) of each nonzero entry in the
        given rows, by column within a row and by sf within an entry: the one
        row walk that ``items``, ``get`` and ``triple_items`` decode."""
        n, stored = self.n, self._rows
        for r in rows:
            cells: dict[int, list[tuple[int, int]]] = {}
            for key, v in sorted(stored.get(r, {}).items()):
                sf, c = divmod(key, n)
                cells.setdefault(c, []).append((sf, v))
            for c in sorted(cells):
                yield r, c, cells[c]

    def _decoded(self, rows: Iterable[int]) -> Iterator[tuple[int, int, RadicalSum]]:
        """``_entries`` with each entry as a RadicalSum."""
        den = self.den
        for r, c, terms in self._entries(rows):
            yield r, c, RadicalSum._raw({sf: Fraction(v, den) for sf, v in terms})

    @property
    def nnz(self) -> int:
        n = self.n
        return sum(len({key % n for key in row}) for row in self._rows.values())

    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadMatrix):
            return NotImplemented
        return self.n == other.n and _combine(((1, self), (-1, other))).is_zero()

    # -- algebra ----------------------------------------------------------

    def transpose(self, sign: int = 1) -> "RadMatrix":
        """sign * self^T in one pass: sign -1 gives the (q, p) irrep's matrix."""
        n = self.n
        rows: dict[int, dict[int, int]] = {}
        for r, row in self._rows.items():
            for key, v in row.items():
                sf, c = divmod(key, n)
                rows.setdefault(c, {})[sf * n + r] = sign * v
        return RadMatrix._raw(n, self.den, rows)

    def is_transpose_of(self, other: "RadMatrix", sign: int = 1) -> bool:
        """self == sign * other^T in O(nnz), building nothing: each stored term,
        cross-multiplied by the dens, matches its transpose, and none is left."""
        n, scale, rows = self.n, sign * self.den, other._rows
        for r, row in self._rows.items():
            for key, v in row.items():
                sf, c = divmod(key, n)
                if v * other.den != scale * rows.get(c, {}).get(sf * n + r, 0):
                    return False
        return n == other.n and sum(map(len, self._rows.values())) == sum(map(len, rows.values()))

    def rational_diagonal(self) -> list[int] | None:
        """The diagonal's numerators over den when self stores only rational
        diagonal terms (key n + r at row r), else None."""
        n = self.n
        diag = [0] * n
        for r, row in self._rows.items():
            for key, v in row.items():
                if key != n + r:
                    return None
                diag[r] = v
        return diag

    def shift_residual(self, diag: list[int], den: int, alpha: Fraction) -> "RadMatrix":
        """[D, self] - alpha * self for D = diag(diag) / den, in O(nnz).

        Entry (r, c) is (D_r - D_c - alpha) * self[r, c], so each stored term
        is one integer comparison, and the residual is built only when some
        term joins two states whose D differs by anything but alpha."""
        n, a_num, a_den = self.n, alpha.numerator * den, alpha.denominator
        if all((diag[r] - diag[key % n]) * a_den == a_num
               for r, row in self._rows.items() for key in row):
            return RadMatrix(n)
        return RadMatrix._raw(n, self.den * den * a_den, {
            r: {key: v * ((diag[r] - diag[key % n]) * a_den - a_num) for key, v in row.items()}
            for r, row in self._rows.items()
        })

    def trace(self) -> RadicalSum:
        # fold the diagonal into cell (0, 0): key sf * n + r adds to key sf * n
        n = self.n
        total: dict[int, int] = {}
        for r, row in self._rows.items():
            for key, v in row.items():
                if key % n == r:
                    total[key - r] = total.get(key - r, 0) + v
        return next((v for *_, v in RadMatrix._raw(n, self.den, {0: total})._decoded((0,))), _ZERO)

    # -- diagnostics -------------------------------------------------------

    def max_abs_float(self) -> float:
        """Largest |entry| in floating point; 0.0 for the zero matrix."""
        return max((abs(v.to_float()) for _, _, v in self.items()), default=0.0)

    def __repr__(self) -> str:
        return f"RadMatrix(n={self.n}, nnz={self.nnz})"


_ZERO = RadicalSum(0)


def _combine(terms: Iterable[tuple]) -> RadMatrix:
    """The sum of terms (coeff, A) = coeff * A and (coeff, A, B) = coeff * A @ B."""
    return next(_combine_all((terms,)))


def _combine_all(groups: Iterable[Iterable[tuple]]) -> Iterator[RadMatrix]:
    """``_combine`` of each group in turn.

    Each right operand's rows are decoded into (col, sf, numerator) triples
    once for all the groups.  The memo is keyed by id and ends with the call;
    ``groups`` is read whole before the first sum, so every operand
    outlives the memo.  The checks hand over every row they compute in one
    call, so a matrix that several rows multiply is decoded once."""
    gcd = math.gcd
    groups = [[(Fraction(coeff), mats) for coeff, *mats in group] for group in groups]
    decoded: dict[int, dict[int, list[tuple[int, int, int]]]] = {}
    for terms in groups:
        sizes = sorted({mat.n for _, mats in terms for mat in mats})
        if not sizes:
            raise ValueError("empty sum: a group with no terms has no size")
        if len(sizes) > 1:
            raise ValueError("shape mismatch: " + " vs ".join(map(str, sizes)))
        n = sizes[0]
        scales = [coeff.denominator * math.prod(m.den for m in mats) for coeff, mats in terms]
        den = math.lcm(*scales)
        rows: dict[int, dict[int, int]] = {}
        for (coeff, mats), scale in zip(terms, scales):
            f = coeff.numerator * (den // scale)
            if len(mats) == 1:
                for r, row in mats[0]._rows.items():
                    acc = rows.setdefault(r, {})
                    for key, v in row.items():
                        acc[key] = acc.get(key, 0) + f * v
                continue
            left, right = mats
            if id(right) not in decoded:
                decoded[id(right)] = {k: [(key % n, key // n, v) for key, v in row.items()]
                                      for k, row in right._rows.items()}
            right_rows = decoded[id(right)]
            for r, row in left._rows.items():
                acc = rows.setdefault(r, {})
                for key, a in row.items():
                    sfa, k = divmod(key, n)
                    fa = f * a
                    for c, sfb, b in right_rows.get(k, ()):
                        # sqrt(sfa)*sqrt(sfb) = g*sqrt((sfa/g)*(sfb/g)), g = gcd
                        g = gcd(sfa, sfb)
                        out = (sfa // g) * (sfb // g) * n + c
                        acc[out] = acc.get(out, 0) + fa * b * g
        yield RadMatrix._raw(n, den, rows)
