"""Exact arithmetic for finite sums of rational multiples of square roots.

Every matrix entry produced by this package has the form

    sum_k (n_k / d_k) * sqrt(m_k)

with the m_k distinct square-free positive integers.  Square roots of
distinct square-free integers are linearly independent over the rationals,
so a value is zero exactly when it has no terms, and equality is a plain
dictionary comparison.  No tolerances appear anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Union

_RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def split_square(n: int) -> tuple[int, int]:
    """Write n = k*k*m with m square-free; return (k, m).

    Trial division suffices: the radicands arising here are products of
    small spin factors, far below anything needing real factorization.
    """
    if n <= 0:
        raise ValueError("split_square requires a positive integer")
    k, m = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            exp = 0
            while n % d == 0:
                n //= d
                exp += 1
            k *= d ** (exp // 2)
            if exp % 2:
                m *= d
        d += 1 if d == 2 else 2
    return k, m * n


def float_of_triples(triples: Iterable[tuple[int, int, int]]) -> float:
    """The float value of sum (num/den)*sqrt(sf) over (num, den, sf) triples,
    summed in their order; 0.0 for none."""
    return sum((num / den * math.sqrt(sf) for num, den, sf in triples), 0.0)


class RadicalSum:
    """Immutable exact scalar: a finitely supported map square-free -> Fraction.

    The empty map is zero.  Stored coefficients are never zero and keys are
    always square-free, so representations are canonical and hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, value: _RationalLike = 0):
        c = Fraction(value)
        self._terms: dict[int, Fraction] = {1: c} if c else {}

    @classmethod
    def _raw(cls, terms: dict[int, Fraction]) -> "RadicalSum":
        # terms must already be canonical (square-free keys, no zeros)
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def _summed(cls, pairs: Iterable[tuple[int, Fraction]]) -> "RadicalSum":
        """The sum of (square-free radicand, coefficient) pairs, zeros dropped."""
        acc: dict[int, Fraction] = {}
        for m, c in pairs:
            acc[m] = acc.get(m, 0) + c
        return cls._raw({m: c for m, c in acc.items() if c})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[_RationalLike, int]]) -> "RadicalSum":
        """Build from (coefficient, radicand) pairs, canonicalizing each radicand.
        A zero coefficient is skipped before its radicand is split."""
        split = ((Fraction(c), split_square(r)) for c, r in terms if c)
        return cls._summed((m, c * k) for c, (k, m) in split)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Fraction, int]]:
        """(coefficient, square-free radicand) pairs, ascending by radicand."""
        for m in sorted(self._terms):
            yield self._terms[m], m

    def to_float(self) -> float:
        """The float value, summed in ascending radicand, so equal sums agree."""
        return float_of_triples(self.to_triples())

    # -- arithmetic ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadicalSum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == RadicalSum(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value equals its int or Fraction, so it hashes like one
        if self._terms.keys() <= {1}:
            return hash(self._terms.get(1, 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "RadicalSum":
        return RadicalSum._raw({m: -c for m, c in self._terms.items()})

    def __add__(self, other: "RadicalSum | _RationalLike") -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            other = RadicalSum(other)
        return RadicalSum._summed([*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __sub__(self, other: "RadicalSum | _RationalLike") -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            other = RadicalSum(other)
        return self + (-other)

    def __mul__(self, other: "RadicalSum | _RationalLike") -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            other = RadicalSum(other)
        # sqrt(m1)*sqrt(m2) = g*sqrt((m1/g)(m2/g)) with g = gcd: the
        # cofactors are coprime and square-free, so no refactoring.
        return RadicalSum._summed(
            ((m1 // g) * (m2 // g), c1 * c2 * g)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
            for g in (math.gcd(m1, m2),)
        )

    __rmul__ = __mul__

    # -- serialization ---------------------------------------------------

    def to_triples(self) -> list[tuple[int, int, int]]:
        """(num, den, sf) triples meaning sum (num/den)*sqrt(sf), ascending by sf."""
        return [
            (c.numerator, c.denominator, m)
            for c, m in self.terms()
        ]

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, int]]) -> "RadicalSum":
        return cls.from_terms((Fraction(num, den), sf) for num, den, sf in triples)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for c, m in self.terms():
            if m == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"√{m}")
            elif c == -1:
                parts.append(f"-√{m}")
            else:
                parts.append(f"{c}·√{m}")
        return " + ".join(parts).replace("+ -", "- ")


def sqrt_of_rational(r: _RationalLike) -> RadicalSum:
    """Exact square root of a nonnegative rational as a single radical term.

    sqrt(a/b) = sqrt(a*b)/b; extracting the largest square factor of a*b
    leaves a square-free radicand.
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative radicand")
    a, b = r.numerator, r.denominator
    return RadicalSum.from_terms([(Fraction(1, b), a * b)] if a else ())
