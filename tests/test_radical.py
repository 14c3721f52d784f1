import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from su3rep.radical import RadicalSum, float_of_triples, split_square, sqrt_of_rational


def test_split_square():
    assert split_square(1) == (1, 1)
    assert split_square(12) == (2, 3)
    assert split_square(60) == (2, 15)
    assert split_square(49) == (7, 1)
    assert split_square(30) == (1, 30)
    with pytest.raises(ValueError):
        split_square(0)


class TestSqrtOfRational:
    def test_perfect_square(self):
        assert sqrt_of_rational(Fraction(9, 4)) == RadicalSum(Fraction(3, 2))

    def test_integer(self):
        assert sqrt_of_rational(2).to_triples() == [(1, 1, 2)]

    def test_fraction(self):
        # sqrt(3/2) = sqrt(6)/2
        assert sqrt_of_rational(Fraction(3, 2)).to_triples() == [(1, 2, 6)]

    def test_zero(self):
        assert sqrt_of_rational(0).is_zero

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="negative radicand"):
            sqrt_of_rational(Fraction(-1, 2))


class TestArithmetic:
    def test_add_matching_keys(self):
        r2 = sqrt_of_rational(2)
        assert r2 + r2 == RadicalSum.from_terms([(2, 2)])

    def test_add_cancellation(self):
        r2 = sqrt_of_rational(2)
        assert (r2 - r2).is_zero
        assert r2 + (-r2) == RadicalSum(0)

    def test_add_disjoint_keys(self):
        s = sqrt_of_rational(2) + sqrt_of_rational(3)
        assert s.to_triples() == [(1, 1, 2), (1, 1, 3)]

    def test_mul_same_radicand(self):
        assert sqrt_of_rational(2) * sqrt_of_rational(2) == RadicalSum(2)

    def test_mul_coprime(self):
        assert sqrt_of_rational(2) * sqrt_of_rational(3) == sqrt_of_rational(6)

    def test_mul_shared_factor(self):
        # sqrt(6)*sqrt(10) = sqrt(60) = 2*sqrt(15)
        prod = sqrt_of_rational(6) * sqrt_of_rational(10)
        assert prod.to_triples() == [(2, 1, 15)]

    def test_mul_by_rational(self):
        v = sqrt_of_rational(2) * Fraction(3, 4)
        assert v.to_triples() == [(3, 4, 2)]
        assert (v * 0).is_zero

    def test_distribution_concrete(self):
        a = RadicalSum.from_terms([(1, 2), (Fraction(1, 2), 3)])
        b = RadicalSum.from_terms([(2, 1), (-1, 6)])
        c = RadicalSum.from_terms([(Fraction(-1, 3), 2)])
        assert a * (b + c) == a * b + a * c


class TestQueries:
    def test_zero_checks(self):
        assert RadicalSum(0).is_zero
        assert not RadicalSum(1).is_zero
        assert (sqrt_of_rational(2) - sqrt_of_rational(2)).is_zero

    def test_to_float(self):
        v = sqrt_of_rational(Fraction(3, 2))
        assert math.isclose(v.to_float(), math.sqrt(1.5), rel_tol=1e-12)
        # equal sums built in different orders give the same float
        terms = [(Fraction(-69, 8), 3), (Fraction(95, 8), 2), (3, 7)]
        a, b = RadicalSum.from_terms(terms), RadicalSum.from_terms(terms[::-1])
        assert a == b and a.to_float() == b.to_float()
        # to_float and generate's --approx share one rule over the triples
        assert a.to_float() == float_of_triples(a.to_triples())
        assert RadicalSum(0).to_float() == float_of_triples([]) == 0.0

    def test_hashable(self):
        a = sqrt_of_rational(2) + 1
        b = RadicalSum(1) + sqrt_of_rational(2)
        assert hash(a) == hash(b) and a == b
        # a rational RadicalSum equals its int or Fraction, so it hashes alike
        for value in (0, 1, -3, Fraction(1, 2)):
            assert RadicalSum(value) == value and hash(RadicalSum(value)) == hash(value)
            assert value in {RadicalSum(value)} and RadicalSum(value) in {value}


class TestSerialization:
    def test_round_trip(self):
        v = RadicalSum.from_terms([(Fraction(-3, 7), 10), (2, 1), (Fraction(1, 2), 3)])
        triples = v.to_triples()
        assert triples == sorted(triples, key=lambda t: t[2])
        assert RadicalSum.from_triples(triples) == v

    def test_triples_are_reduced(self):
        v = RadicalSum.from_terms([(Fraction(2, 4), 8)])  # = (1/2)*2*sqrt(2)
        assert v.to_triples() == [(1, 1, 2)]


# ---------------------------------------------------------------------------
# property tests

_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=8)
_radsums = st.dictionaries(
    st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30]), _fractions, max_size=3
).map(lambda d: RadicalSum.from_terms((c, m) for m, c in d.items()))


@given(_radsums, _radsums)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(_radsums, _radsums, _radsums)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(_radsums, _radsums)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(_radsums, _radsums, _radsums)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(_radsums, _radsums, _radsums)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


# (coefficient, radicand) lists with repeats and non-square-free radicands
_raw_terms = st.lists(st.tuples(_fractions, st.integers(1, 60)), max_size=6)


@given(_radsums, _radsums, _fractions, _raw_terms)
def test_canonical_form(a, b, c, raw):
    # square-free keys and no zero coefficient, after every operation
    built = RadicalSum.from_terms(raw)
    for v in (a, a + b, a - b, a * b, a * c, c * a, a * 0, a + c, built, built * a):
        for coeff, radicand in v.terms():
            assert isinstance(coeff, Fraction) and coeff != 0
            assert split_square(radicand) == (1, radicand)
    # equal values reached along different paths compare and hash alike
    one_by_one = sum((RadicalSum.from_terms([t]) for t in raw), RadicalSum())
    scaled = RadicalSum.from_terms((coeff * c, m) for coeff, m in a.terms())
    for x, y in ((built, one_by_one), (built, RadicalSum.from_terms(raw[::-1])),
                 (a * c, scaled), (a - a, a * 0), (a * 0, RadicalSum()),
                 ((a + b) - b, a), (a * b, b * a)):
        assert x == y and hash(x) == hash(y)


def test_from_terms_skips_zero_coefficients_unsplit():
    # a zero coefficient never reaches split_square, which rejects radicand <= 0
    assert RadicalSum.from_terms([(0, 0)]).is_zero
    assert RadicalSum.from_terms([(0, -3)]).is_zero
    assert RadicalSum.from_terms([(Fraction(0), 0), (2, 8)]).to_triples() == [(4, 1, 2)]


@given(_radsums, _radsums)
def test_float_of_product_matches(a, b):
    exact = (a * b).to_float()
    approx = a.to_float() * b.to_float()
    assert math.isclose(exact, approx, rel_tol=1e-10, abs_tol=1e-10)


@given(_radsums)
def test_exact_cancellation(a):
    assert (a - a).is_zero
    assert (a + (-a)).is_zero
