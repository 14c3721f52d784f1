"""Sparse square matrices over RadicalSum, and their one product kernel.

The generator matrices have O(d) nonzero entries out of d*d, and the whole
verification suite is products, sums and exact zero tests, so a dict-of-rows
layout keeps everything near-linear in the number of nonzeros.

``RadMatrix`` is the public form: entries are RadicalSums, whose rational
coefficients are ``Fraction``s.  Multiplying in that form builds and
normalizes a Fraction for every scalar product and every partial sum, which
is where nearly all of a verification's time would go.  So every matrix
product is taken in a private integer form, ``_IntMatrix``: one shared
positive denominator D for the whole matrix and integer numerators keyed by
(column, square-free radicand), the entry at (r, c) being

    sum over sf of (numerator / D) * sqrt(sf).

Why this is exact.  Every generator entry is a single term c*sqrt(m), so a
matrix is a finite set of rational coefficients, one per stored entry, and
the lcm of their denominators is a D that writes each of them as an integer
over D; one denominator per matrix suffices.  An entry with several terms,
such as a corrupted one, simply stores one numerator per radicand.  The
product of two such matrices has denominator D_A * D_B, and each scalar
product needs only integers: sqrt(m1) * sqrt(m2) = g * sqrt((m1/g) * (m2/g))
with g = gcd(m1, m2), whose cofactors are coprime and square-free, so the
product radicand is square-free with no factoring.  A linear combination
with rational coefficients rescales numerators to the lcm of the
denominators.  Square roots of distinct square-free integers are linearly
independent over the rationals, so a matrix in this form is zero exactly
when it stores no numerator, and zeros are never stored.  The checks in
``verify`` build their residuals in this form and convert back to
RadicalSums only to report a nonzero one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .radical import RadicalSum

_Scalar = Union[int, Fraction, RadicalSum]


class RadMatrix:
    """n x n matrix with RadicalSum entries; zeros are never stored.

    Instances are built once and treated as immutable afterwards.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, dict[int, RadicalSum]] = {}

    @classmethod
    def identity(cls, n: int, scale: _Scalar = 1) -> "RadMatrix":
        out = cls(n)
        val = scale if isinstance(scale, RadicalSum) else RadicalSum(scale)
        if val:
            for i in range(n):
                out._rows[i] = {i: val}
        return out

    # -- entry access (0-based) ------------------------------------------

    def put(self, r: int, c: int, value: _Scalar) -> None:
        if not (0 <= r < self.n and 0 <= c < self.n):
            raise IndexError(f"({r}, {c}) outside {self.n}x{self.n}")
        val = value if isinstance(value, RadicalSum) else RadicalSum(value)
        row = self._rows.setdefault(r, {})
        if val:
            row[c] = val
        else:
            row.pop(c, None)
            if not row:
                del self._rows[r]

    def get(self, r: int, c: int) -> RadicalSum:
        return self._rows.get(r, _EMPTY_ROW).get(c, _ZERO)

    def items(self) -> Iterator[tuple[int, int, RadicalSum]]:
        """Nonzero entries sorted by (row, col)."""
        for r in sorted(self._rows):
            row = self._rows[r]
            for c in sorted(row):
                yield r, c, row[c]

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadMatrix):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self):
        raise TypeError("RadMatrix is not hashable")

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "RadMatrix") -> "RadMatrix":
        self._check_shape(other)
        out = RadMatrix(self.n)
        out._rows = {r: dict(row) for r, row in self._rows.items()}
        for r, row in other._rows.items():
            dest = out._rows.setdefault(r, {})
            for c, v in row.items():
                tot = dest.get(c, _ZERO) + v
                if tot:
                    dest[c] = tot
                else:
                    dest.pop(c, None)
            if not dest:
                del out._rows[r]
        return out

    def __sub__(self, other: "RadMatrix") -> "RadMatrix":
        return self + (-other)

    def __neg__(self) -> "RadMatrix":
        out = RadMatrix(self.n)
        out._rows = {
            r: {c: -v for c, v in row.items()} for r, row in self._rows.items()
        }
        return out

    def scaled(self, factor: _Scalar) -> "RadMatrix":
        fac = factor if isinstance(factor, RadicalSum) else RadicalSum(factor)
        out = RadMatrix(self.n)
        if not fac:
            return out
        for r, row in self._rows.items():
            out._rows[r] = {c: v * fac for c, v in row.items()}
        return out

    def __matmul__(self, other: "RadMatrix") -> "RadMatrix":
        self._check_shape(other)
        return (_IntMatrix.of(self) @ _IntMatrix.of(other)).to_rad()

    def transpose(self) -> "RadMatrix":
        out = RadMatrix(self.n)
        for r, row in self._rows.items():
            for c, v in row.items():
                out._rows.setdefault(c, {})[r] = v
        return out

    def negative_transpose(self) -> "RadMatrix":
        out = RadMatrix(self.n)
        for r, row in self._rows.items():
            for c, v in row.items():
                out._rows.setdefault(c, {})[r] = -v
        return out

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self == -self.transpose()

    def trace(self) -> RadicalSum:
        total = _ZERO
        for r, row in self._rows.items():
            v = row.get(r)
            if v is not None:
                total = total + v
        return total

    # -- diagnostics -------------------------------------------------------

    def max_abs_float(self) -> float:
        """Largest |entry| in floating point; 0.0 for the zero matrix."""
        best = 0.0
        for row in self._rows.values():
            for v in row.values():
                best = max(best, abs(v.to_float()))
        return best

    def to_float(self) -> list[list[float]]:
        dense = [[0.0] * self.n for _ in range(self.n)]
        for r, row in self._rows.items():
            for c, v in row.items():
                dense[r][c] = v.to_float()
        return dense

    def _check_shape(self, other: "RadMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"shape mismatch: {self.n} vs {other.n}")

    def __repr__(self) -> str:
        return f"RadMatrix(n={self.n}, nnz={self.nnz})"


_ZERO = RadicalSum(0)
_EMPTY_ROW: dict[int, RadicalSum] = {}


class _IntMatrix:
    """n x n matrix as integer numerators over one shared denominator.

    ``rows`` maps a row to ``{sf * n + col: numerator}``: the entry at
    (row, col) is the sum of (numerator / den) * sqrt(sf) over its keys.
    Radicands are square-free, numerators are never zero and ``den`` is
    positive.  See the module docstring for why this form is exact.
    """

    __slots__ = ("n", "den", "rows")

    def __init__(self, n: int, den: int, rows: dict[int, dict[int, int]]):
        self.n = n
        self.den = den
        self.rows = rows

    @classmethod
    def of(cls, mat: RadMatrix) -> "_IntMatrix":
        """The same matrix over the lcm of its coefficients' denominators."""
        n = mat.n
        entries = [
            (r, c, coeff, sf)
            for r, row in mat._rows.items()
            for c, v in row.items()
            for coeff, sf in v.terms()
        ]
        den = math.lcm(1, *(coeff.denominator for _, _, coeff, _ in entries))
        rows: dict[int, dict[int, int]] = {}
        for r, c, coeff, sf in entries:
            rows.setdefault(r, {})[sf * n + c] = coeff.numerator * (den // coeff.denominator)
        return cls(n, den, rows)

    @classmethod
    def identity(cls, n: int) -> "_IntMatrix":
        return cls(n, 1, {i: {n + i: 1} for i in range(n)})

    def is_zero(self) -> bool:
        return not self.rows

    def __matmul__(self, other: "_IntMatrix") -> "_IntMatrix":
        n = self.n
        gcd = math.gcd
        # other's rows decoded once into (col, sf, numerator) triples
        right = {
            k: [(key % n, key // n, b) for key, b in row.items()]
            for k, row in other.rows.items()
        }
        rows: dict[int, dict[int, int]] = {}
        for r, row in self.rows.items():
            acc: dict[int, int] = {}
            for key, a in row.items():
                sfa, k = divmod(key, n)
                for c, sfb, b in right.get(k, ()):
                    # sqrt(sfa)*sqrt(sfb) = g*sqrt((sfa/g)*(sfb/g)), g = gcd
                    g = gcd(sfa, sfb)
                    out = (sfa // g) * (sfb // g) * n + c
                    acc[out] = acc.get(out, 0) + a * b * g
            acc = {key: v for key, v in acc.items() if v}
            if acc:
                rows[r] = acc
        return _IntMatrix(n, self.den * other.den, rows)

    def to_rad(self) -> RadMatrix:
        """The same matrix with RadicalSum entries."""
        n = self.n
        den = self.den
        out = RadMatrix(n)
        for r, row in self.rows.items():
            cells: dict[int, dict[int, Fraction]] = {}
            for key, v in row.items():
                sf, c = divmod(key, n)
                cells.setdefault(c, {})[sf] = Fraction(v, den)
            out._rows[r] = {c: RadicalSum._raw(t) for c, t in cells.items()}
        return out


def _combine(terms: Iterable[tuple[Union[int, Fraction], _IntMatrix]]) -> _IntMatrix:
    """The sum of coeff * matrix over (coeff, matrix) pairs of one size."""
    terms = [(Fraction(coeff), mat) for coeff, mat in terms]
    den = math.lcm(*(coeff.denominator * mat.den for coeff, mat in terms))
    rows: dict[int, dict[int, int]] = {}
    for coeff, mat in terms:
        f = coeff.numerator * (den // (coeff.denominator * mat.den))
        for r, row in mat.rows.items():
            acc = rows.setdefault(r, {})
            for key, v in row.items():
                acc[key] = acc.get(key, 0) + f * v
    nonzero = {}
    for r, row in rows.items():
        row = {key: v for key, v in row.items() if v}
        if row:
            nonzero[r] = row
    return _IntMatrix(terms[0][1].n, den, nonzero)


def commutator(a: RadMatrix, b: RadMatrix) -> RadMatrix:
    a._check_shape(b)
    ia, ib = _IntMatrix.of(a), _IntMatrix.of(b)
    return _combine(((1, ia @ ib), (-1, ib @ ia))).to_rad()
