from fractions import Fraction

from hypothesis import given, strategies as st

from su3rep import RadicalSum
from su3rep.matrices import RadMatrix, _combine, _IntMatrix, commutator

# Small coefficients and radicands that are not all square-free (8 = 4*2,
# 12 = 4*3), so that entries and their products cancel often.
_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_entries = st.lists(
    st.tuples(_coeffs, st.sampled_from([1, 2, 3, 5, 6, 8, 12])), min_size=1, max_size=3
).map(RadicalSum.from_terms)


@st.composite
def _matrix_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    positions = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))

    def matrix() -> RadMatrix:
        mat = RadMatrix(n)
        for (r, c), v in draw(st.dictionaries(positions, _entries, max_size=2 * n)).items():
            mat.put(r, c, v)
        return mat

    return matrix(), matrix()


def _dense_product(a: RadMatrix, b: RadMatrix) -> RadMatrix:
    """Reference: the textbook triple loop in RadicalSum arithmetic."""
    out = RadMatrix(a.n)
    for i in range(a.n):
        for j in range(a.n):
            total = RadicalSum(0)
            for k in range(a.n):
                total = total + a.get(i, k) * b.get(k, j)
            out.put(i, j, total)
    return out


def _stores_no_zero(mat: RadMatrix) -> bool:
    return all(not v.is_zero for _, _, v in mat.items())


@given(_matrix_pairs())
def test_product_matches_dense_reference(pair):
    a, b = pair
    product = a @ b
    assert product == _dense_product(a, b)
    assert _stores_no_zero(product)


@given(_matrix_pairs())
def test_commutator_matches_dense_reference(pair):
    a, b = pair
    result = commutator(a, b)
    assert result == _dense_product(a, b) - _dense_product(b, a)
    assert _stores_no_zero(result)


@given(_matrix_pairs(), _coeffs, _coeffs)
def test_integer_form_and_combination(pair, x, y):
    a, b = pair
    assert _IntMatrix.of(a).to_rad() == a
    combined = _combine([(x, _IntMatrix.of(a)), (y, _IntMatrix.of(b))])
    expected = a.scaled(x) + b.scaled(y)
    assert combined.to_rad() == expected
    assert combined.is_zero() == expected.is_zero()


def test_cancelling_product_stores_nothing():
    # [√2, √8] @ [√2, -√2/2]^T = 2 - 2 = 0, with √8 = 2√2 folded on input
    a, b = RadMatrix(2), RadMatrix(2)
    a.put(0, 0, RadicalSum.from_terms([(1, 2)]))
    a.put(0, 1, RadicalSum.from_terms([(1, 8)]))
    b.put(0, 0, RadicalSum.from_terms([(1, 2)]))
    b.put(1, 0, RadicalSum.from_terms([(Fraction(-1, 2), 2)]))
    assert (a @ b).is_zero()
    assert (_IntMatrix.of(a) @ _IntMatrix.of(b)).is_zero()


def test_identity():
    ident = RadMatrix.identity(4)
    assert _IntMatrix.identity(4).to_rad() == ident
    assert _IntMatrix.of(ident).to_rad() == ident
