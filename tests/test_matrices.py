import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from su3rep import RadicalSum, build_generator_set, sqrt_of_rational
from su3rep.matrices import RadMatrix, _combine, _combine_all
from su3rep.radical import split_square

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
    product = _combine(((1, a, b),))
    assert product == _dense_product(a, b)
    assert _stores_no_zero(product)


@given(_matrix_pairs())
def test_commutator_matches_dense_reference(pair):
    a, b = pair
    result = _combine(((1, a, b), (-1, b, a)))
    assert result == _combine(((1, _dense_product(a, b)), (-1, _dense_product(b, a))))
    assert _stores_no_zero(result)


@st.composite
def _term_groups(draw):
    """Three matrices with pairwise different denominators (each holds one
    entry over 5, 7 or 11, which no drawn coefficient has), and groups of
    (coeff, A) and (coeff, A, B) terms over them; the first matrix is a
    right operand in every group."""
    n = draw(st.integers(min_value=1, max_value=5))
    positions = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pool = []
    for prime in (5, 7, 11):
        mat = RadMatrix(n)
        for (r, c), v in draw(st.dictionaries(positions, _entries, max_size=2 * n)).items():
            mat.put(r, c, v)
        mat.put(*draw(positions), _rad((Fraction(1, prime), draw(st.sampled_from([1, 2, 6])))))
        pool.append(mat)
    which = st.sampled_from(pool)
    term = st.one_of(st.tuples(_coeffs, which), st.tuples(_coeffs, which, which))
    groups = [
        draw(st.lists(term, max_size=3)) + [(draw(_coeffs), draw(which), pool[0])]
        for _ in range(draw(st.integers(min_value=2, max_value=4)))
    ]
    return pool, groups


@given(_term_groups())
def test_kernel_matches_dense_reference(drawn):
    pool, groups = drawn
    assert len({mat.den for mat in pool}) == 3
    n = pool[0].n
    results = list(_combine_all(groups))
    assert len(results) == len(groups)
    for terms, result in zip(groups, results):
        parts = [(coeff, mats[0] if len(mats) == 1 else _dense_product(*mats))
                 for coeff, *mats in terms]
        reference = RadMatrix(n)
        for i in range(n):
            for j in range(n):
                reference.put(i, j, sum((c * part.get(i, j) for c, part in parts), _rad()))
        assert result == reference
        assert list(result.items()) == list(reference.items())
        assert _stores_no_zero(result)
        assert list(_combine(terms).items()) == list(result.items())


def test_empty_sum_has_no_size():
    with pytest.raises(ValueError, match="empty sum"):
        _combine(())
    a = RadMatrix(2)
    with pytest.raises(ValueError, match="empty sum"):
        list(_combine_all([[(1, a)], []]))


@st.composite
def _stored_forms(draw):
    """A matrix given by its stored integers: a den with small factors and
    numerators that are multiples of one of den's divisors (so most share a
    factor with den), up to three square-free radicands per cell."""
    n = draw(st.integers(min_value=1, max_value=5))
    den = draw(st.sampled_from([1, 2, 4, 6, 12, 30, 36, 60]))
    divisors = [k for k in range(1, den + 1) if den % k == 0]
    numerator = st.builds(
        lambda k, m: k * m, st.sampled_from(divisors), st.integers(-5, 5).filter(bool)
    )
    cells = st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.dictionaries(st.sampled_from([1, 2, 3, 5, 6, 7, 10]), numerator,
                        min_size=1, max_size=3),
        max_size=2 * n,
    )
    return RadMatrix._raw(n, den, {(sf * n + c) * n + r: v
                                   for (r, c), terms in draw(cells).items()
                                   for sf, v in terms.items()})


@given(st.one_of(_stored_forms(), _matrix_pairs().map(lambda pair: pair[0])))
def test_triple_items_are_the_items_to_triples(mat):
    assert list(mat.triple_items()) == [(r, c, v.to_triples()) for r, c, v in mat.items()]


def _stores_no_zero_numerator(mat: RadMatrix) -> bool:
    return all(mat._terms.values())


@given(st.one_of(_stored_forms(), _matrix_pairs().map(lambda pair: pair[0])))
def test_negative_transpose_is_minus_the_transpose(mat):
    once = mat.transpose(-1)
    minus = _combine(((-1, mat.transpose()),))
    assert once == minus
    assert list(once.items()) == list(minus.items())
    assert once.den == mat.den
    assert _stores_no_zero_numerator(once)


@st.composite
def _transpose_candidates(draw):
    """(a, b, sign): b grown through put with multi-radicand entries and one
    entry over 5; a is sign * b^T rebuilt through put from a den of 7, so the
    two dens differ, then perhaps one cell overwritten.  For sign -1, a may
    instead be b - b^T, perhaps with a diagonal entry, tested against itself."""
    n = draw(st.integers(min_value=1, max_value=5))
    positions = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    sign = draw(st.sampled_from([1, -1]))
    b = RadMatrix(n)
    for (r, c), v in draw(st.dictionaries(positions, _entries, max_size=2 * n)).items():
        b.put(r, c, v)
    b.put(*draw(positions), _rad((Fraction(1, 5), draw(st.sampled_from([1, 2, 6])))))
    if sign == -1 and draw(st.booleans()):
        a = _combine(((1, b), (-1, b.transpose())))
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            a.put(i, i, draw(_entries))
        return a, a, sign
    a = RadMatrix(n)
    a.put(0, 0, Fraction(1, 7))
    a.put(0, 0, 0)  # den stays 7; b's den is not a multiple of 7
    for r, c, v in b.items():
        a.put(c, r, v * sign)
    if draw(st.booleans()):
        a.put(*draw(positions), draw(st.one_of(_entries, st.just(RadicalSum(0)))))
    assert a.den != b.den
    return a, b, sign


@given(_transpose_candidates())
def test_is_transpose_of_matches_reference(drawn):
    a, b, sign = drawn
    reference = _combine(((sign, b.transpose()),))
    assert a.is_transpose_of(b, sign) == (a == reference)


def test_is_transpose_of_reads_every_term():
    # an antisymmetric matrix, then a nonzero diagonal entry
    mat = RadMatrix(3)
    mat.put(0, 1, _rad((1, 2), (Fraction(1, 3), 5)))
    mat.put(1, 0, _rad((-1, 2), (Fraction(-1, 3), 5)))
    assert mat.is_transpose_of(mat, -1) and not mat.is_transpose_of(mat)
    mat.put(2, 2, _rad((Fraction(1, 3), 5)))
    assert not mat.is_transpose_of(mat, -1)
    # one radicand of a multi-radicand entry missing on one side
    full, partial = RadMatrix(3), RadMatrix(3)
    full.put(0, 1, _rad((1, 2), (Fraction(1, 3), 5)))
    partial.put(1, 0, _rad((1, 2)))
    assert not full.is_transpose_of(partial)  # a term of full has no partner
    assert not partial.is_transpose_of(full)  # every term matches, one is left over
    assert not RadMatrix(2).is_transpose_of(RadMatrix(3))


@st.composite
def _shift_cases(draw):
    """(D, x, alpha): D rational and diagonal, built through put so that its
    den differs from x's; x sometimes kept to the cells where D_r - D_c is alpha."""
    x, _ = draw(_matrix_pairs())
    n = x.n
    diag = RadMatrix(n)
    for r, v in enumerate(draw(st.lists(_coeffs, min_size=n, max_size=n))):
        diag.put(r, r, v)
    alpha = draw(_coeffs)
    if draw(st.booleans()):
        kept = RadMatrix(n)
        for r, c, v in x.items():
            if diag.get(r, r) - diag.get(c, c) == alpha:
                kept.put(r, c, v)
        x = kept
    return diag, x, alpha


@given(_shift_cases())
def test_shift_residual_matches_commutator(drawn):
    diag, x, alpha = drawn
    numerators = diag.rational_diagonal()
    assert numerators is not None
    got = x.shift_residual(numerators, diag.den, alpha)
    want = _combine(((1, diag, x), (-1, x, diag), (-alpha, x)))
    assert got == want
    assert got.is_zero() == want.is_zero()
    assert got.max_abs_float() == want.max_abs_float()
    assert _stores_no_zero(got)


def test_rational_diagonal_reads_only_rational_diagonals():
    mat = RadMatrix(3)
    assert mat.rational_diagonal() == [0, 0, 0]
    mat.put(0, 0, Fraction(1, 2))
    mat.put(2, 2, Fraction(-3, 4))
    assert mat.rational_diagonal() == [2, 0, -3] and mat.den == 4
    irrational = RadMatrix(3)
    irrational.put(1, 1, RadicalSum.from_terms([(1, 1), (1, 7)]))
    assert irrational.rational_diagonal() is None
    off_diagonal = RadMatrix(3)
    off_diagonal.put(0, 1, 1)
    assert off_diagonal.rational_diagonal() is None


_positions = st.tuples(st.integers(0, 3), st.integers(0, 3))


def _rad(*terms) -> RadicalSum:
    return RadicalSum.from_terms(terms)


@given(st.dictionaries(_positions, _entries, max_size=8))
def test_put_items_round_trip(entries):
    mat = RadMatrix(4)
    for (r, c), v in entries.items():
        mat.put(r, c, v)
    expected = sorted((r, c, v) for (r, c), v in entries.items() if v)
    assert list(mat.items()) == expected
    assert mat.nnz == len(expected)
    assert all(mat.get(r, c) == v for (r, c), v in entries.items())


# Radicands far above n * n, up to the 4.2e8 that stored radicands reach at
# (40, 20); a product of two of them reaches about 1.8e17.  Each matrix comes
# with its entries as a plain dict, the reference every result is read against.
_big_entries = st.lists(
    st.tuples(_coeffs, st.one_of(st.sampled_from([1, 2, 3]), st.integers(10**6, 42 * 10**7))),
    min_size=1, max_size=3,
).map(RadicalSum.from_terms)


@st.composite
def _big_radicand_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    positions = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))

    def matrix() -> tuple[RadMatrix, dict]:
        mat, cells = RadMatrix(n), {}
        for (r, c), v in draw(st.dictionaries(positions, _big_entries, max_size=2 * n)).items():
            mat.put(r, c, v)
            cells[r, c] = v
        return mat, cells

    return matrix(), matrix()


def _sorted_cells(cells: dict) -> list:
    return sorted((r, c, v) for (r, c), v in cells.items() if v)


@given(_big_radicand_pairs())
def test_large_radicands_match_dense_reference(pairs):
    (a, cells_a), (b, cells_b) = pairs
    n = a.n
    assert list(a.items()) == _sorted_cells(cells_a)
    assert a.nnz == len(_sorted_cells(cells_a))
    for sign in (1, -1):
        flipped = {(c, r): v * sign for (r, c), v in cells_a.items()}
        assert list(a.transpose(sign).items()) == _sorted_cells(flipped)
        assert a.transpose(sign).is_transpose_of(a, sign)
        assert b.is_transpose_of(a, sign) == (_sorted_cells(cells_b) == _sorted_cells(flipped))
    assert a.trace() == sum((cells_a.get((i, i), RadicalSum(0)) for i in range(n)), RadicalSum(0))
    product = {(i, j): sum((cells_a.get((i, k), RadicalSum(0)) * cells_b.get((k, j), RadicalSum(0))
                            for k in range(n)), RadicalSum(0))
               for i in range(n) for j in range(n)}
    assert list(_combine(((1, a, b),)).items()) == _sorted_cells(product)
    both = {(i, j): product[i, j] - cells_a.get((i, j), RadicalSum(0)) * 2
            for i in range(n) for j in range(n)}
    assert list(_combine(((1, a, b), (-2, a))).items()) == _sorted_cells(both)


# Matrices for the sorted cell walk, each with its cells as a plain dict:
# up to three radicands per cell, negative coefficients, radicands far above
# n * n, and three stored forms: as put, as transpose(+1 or -1), and halved
# by a sum that leaves den unreduced (numerators sharing factors with den).
_walk_entries = st.lists(
    st.tuples(_coeffs.filter(bool),
              st.one_of(st.sampled_from([1, 2, 3, 5, 6, 7, 30]), st.integers(26, 42 * 10**7))),
    min_size=1, max_size=3,
).map(RadicalSum.from_terms)


@st.composite
def _walked_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    positions = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    mat, cells = RadMatrix(n), {}
    for (r, c), v in draw(st.dictionaries(positions, _walk_entries, max_size=3 * n)).items():
        mat.put(r, c, v)
        cells[r, c] = v
    form = draw(st.sampled_from(["put", "transpose", "transpose(-1)", "halved"]))
    if form.startswith("transpose"):
        sign = -1 if form.endswith("(-1)") else 1
        mat, cells = mat.transpose(sign), {(c, r): v * sign for (r, c), v in cells.items()}
    elif form == "halved":
        mat = _combine(((Fraction(1, 3), mat), (Fraction(1, 6), mat)))
        cells = {rc: v * Fraction(1, 2) for rc, v in cells.items()}
    return mat, cells


@given(_walked_matrices())
def test_sorted_walk_matches_get_and_dense_reference(drawn):
    # items() and triple_items() share one sorted walk; each is read against
    # two references that do not use it: the plain dict over every position
    # in row-major order (dense), and get's own scan of the terms (per cell)
    mat, cells = drawn
    n = mat.n
    dense = [(r, c, cells.get((r, c), RadicalSum(0))) for r in range(n) for c in range(n)]
    want = [(r, c, v) for r, c, v in dense if v]
    by_get = [(r, c, v) for r in range(n) for c in range(n) for v in (mat.get(r, c),) if v]
    assert by_get == want
    got = list(mat.items())
    assert [(r, c) for r, c, _ in got] == [(r, c) for r, c, _ in want]
    assert got == want
    triples = list(mat.triple_items())
    assert triples == [(r, c, v.to_triples()) for r, c, v in want]
    for _, _, cell in triples:  # each term in lowest terms, sf ascending
        assert [sf for _, _, sf in cell] == sorted({sf for _, _, sf in cell})
        assert all(den > 0 and math.gcd(num, den) == 1 for num, den, _ in cell)


def test_triple_items_reduce_each_term_of_a_multi_radicand_entry():
    # den = 12 left unreduced: (1, 2) holds 8/12 sqrt(30), -6/12 sqrt(2) and
    # 12/12 sqrt(7), stored out of sf order; (0, 1) holds 3/12
    mat = RadMatrix._raw(3, 12, {(30 * 3 + 2) * 3 + 1: 8, (1 * 3 + 1) * 3 + 0: 3,
                                 (7 * 3 + 2) * 3 + 1: 12, (2 * 3 + 2) * 3 + 1: -6})
    assert mat.triple_items() == [
        (0, 1, [(1, 4, 1)]),
        (1, 2, [(-1, 2, 2), (1, 1, 7), (2, 3, 30)]),
    ]
    assert list(mat.items()) == [
        (0, 1, RadicalSum(Fraction(1, 4))),
        (1, 2, _rad((Fraction(-1, 2), 2), (1, 7), (Fraction(2, 3), 30))),
    ]


def test_empty_matrix_has_no_cells():
    for mat in (RadMatrix(3), RadMatrix(0)):
        assert mat.triple_items() == []
        assert list(mat.items()) == []


@given(_stored_forms(), st.sampled_from([1, 2, 3, 5, 6, 7, 30]))
def test_times_sqrt_is_the_product_with_sqrt_m_times_identity(mat, m):
    root = RadMatrix.from_entries(mat.n, ((i, i, 1, m, 1) for i in range(mat.n)))
    moved = mat.times_sqrt(m)
    product = _combine(((1, mat, root),))
    assert (moved.den, moved._terms) == (product.den, product._terms)
    assert moved.nnz == mat.nnz and _stores_no_zero_numerator(moved)


def test_put_get_round_trips_a_multi_radicand_entry():
    mat = RadMatrix(3)
    mat.put(2, 0, _rad((Fraction(1, 6), 5)))
    value = _rad((Fraction(-2, 7), 2), (Fraction(5, 9), 419_999_993), (3, 1))
    mat.put(1, 2, value)  # den grows to a multiple of 126, rescaling (2, 0)
    assert mat.get(1, 2) == value and mat.get(1, 2).to_triples() == value.to_triples()
    assert mat.get(2, 0) == _rad((Fraction(1, 6), 5))
    assert mat.get(2, 1) == 0 and mat.get(1, 1) == 0
    assert mat.nnz == 2 and mat.den % 126 == 0


@given(_matrix_pairs(), _coeffs, _coeffs)
def test_combination_matches_entrywise_reference(pair, x, y):
    a, b = pair
    combined = _combine([(x, a), (y, b)])
    reference = {
        (i, j): x * a.get(i, j) + y * b.get(i, j) for i in range(a.n) for j in range(a.n)
    }
    assert list(combined.items()) == sorted((i, j, v) for (i, j), v in reference.items() if v)
    assert combined.is_zero() == (not any(reference.values()))


def test_put_replaces_every_radicand_of_a_cell():
    mat = RadMatrix(2)
    mat.put(0, 1, RadicalSum(4))
    mat.put(0, 0, _rad((1, 2), (1, 3)))
    mat.put(0, 0, _rad((1, 5)))
    assert list(mat.items()) == [(0, 0, _rad((1, 5))), (0, 1, RadicalSum(4))]
    assert mat.nnz == 2


def test_put_zero_removes_the_cell():
    mat = RadMatrix(3)
    mat.put(1, 2, _rad((1, 2), (Fraction(1, 3), 3)))
    mat.put(1, 0, RadicalSum(1))
    mat.put(1, 2, 0)
    assert list(mat.items()) == [(1, 0, RadicalSum(1))]
    mat.put(1, 0, RadicalSum(0))
    assert mat.is_zero()
    assert mat.nnz == 0 and list(mat.items()) == []


def test_equality_ignores_the_stored_denominator():
    plain = RadMatrix(2)
    plain.put(0, 0, RadicalSum(1))
    plain.put(1, 0, _rad((Fraction(1, 2), 2)))
    overwritten = RadMatrix(2)
    overwritten.put(0, 0, RadicalSum(Fraction(1, 7)))
    overwritten.put(0, 0, RadicalSum(1))
    overwritten.put(1, 0, _rad((Fraction(1, 2), 2)))
    ident = RadMatrix.identity(2)
    through_product = _combine(((Fraction(1, 3), plain, ident), (Fraction(2, 3), ident, plain)))
    for same in (overwritten, through_product):
        assert same.den != plain.den
        assert same == plain and plain == same
        assert list(same.items()) == list(plain.items())
    different = RadMatrix(2)
    different.put(0, 0, RadicalSum(1))
    assert different != plain
    with pytest.raises(TypeError):  # __eq__ without __hash__: unhashable
        hash(RadMatrix(2))


def test_trace_sums_the_diagonal_by_radicand():
    mat = RadMatrix(3)
    mat.put(0, 0, _rad((1, 2), (Fraction(1, 3), 1)))
    mat.put(1, 1, _rad((Fraction(1, 5), 3)))
    mat.put(2, 2, _rad((1, 2), (Fraction(-1, 3), 1)))
    mat.put(0, 1, RadicalSum(7))
    assert mat.trace() == _rad((2, 2), (Fraction(1, 5), 3))
    mat.put(1, 1, 0)
    mat.put(2, 2, _rad((-1, 2), (Fraction(-1, 3), 1)))
    assert mat.trace().is_zero


def test_cancelling_product_stores_nothing():
    # [√2, √8] @ [√2, -√2/2]^T = 2 - 2 = 0, with √8 = 2√2 folded on input
    a, b = RadMatrix(2), RadMatrix(2)
    a.put(0, 0, _rad((1, 2)))
    a.put(0, 1, _rad((1, 8)))
    b.put(0, 0, _rad((1, 2)))
    b.put(1, 0, _rad((Fraction(-1, 2), 2)))
    product = _combine(((1, a, b),))
    assert product.is_zero()
    assert list(product.items()) == [] and product.nnz == 0


def test_identity():
    assert list(RadMatrix.identity(4).items()) == [(i, i, RadicalSum(1)) for i in range(4)]
    mat = RadMatrix(3)
    mat.put(0, 2, _rad((Fraction(2, 5), 6)))
    mat.put(2, 1, RadicalSum(-3))
    ident = RadMatrix.identity(3)
    assert ident.den == 1 and ident._terms == {(3 + i) * 3 + i: 1 for i in range(3)}
    assert list(_combine(((1, mat, ident),)).items()) == list(mat.items())
    assert list(_combine(((1, ident, mat),)).items()) == list(mat.items())


def test_shape_mismatch_raises():
    a, b = RadMatrix(2), RadMatrix(3)
    for terms in (((1, a), (1, b)), ((1, a, b),), ((1, b, a), (-1, a, b))):
        with pytest.raises(ValueError, match="shape mismatch"):
            _combine(terms)


class TestFromEntries:
    def test_root_of_a_rational_is_reduced(self):
        # sqrt(8/3) = sqrt(24)/3 = 2*sqrt(6)/3
        mat = RadMatrix.from_entries(2, [(0, 1, 1, 8, 3)])
        assert list(mat.items()) == [(0, 1, _rad((Fraction(2, 3), 6)))]

    def test_den_is_the_lcm_of_the_denominators(self):
        mat = RadMatrix.from_entries(3, [(0, 0, 1, 1, 4), (1, 2, 1, 5, 6), (2, 1, 1, 9, 1)])
        assert mat.den == 12
        assert list(mat.items()) == [
            (0, 0, RadicalSum(Fraction(1, 2))),
            (1, 2, _rad((Fraction(1, 6), 30))),
            (2, 1, RadicalSum(3)),
        ]

    def test_signs_are_kept(self):
        mat = RadMatrix.from_entries(2, [(0, 0, -1, 2, 1), (1, 0, 1, 2, 1), (1, 1, -1, 9, 4)])
        assert list(mat.items()) == [
            (0, 0, _rad((-1, 2))),
            (1, 0, _rad((1, 2))),
            (1, 1, RadicalSum(Fraction(-3, 2))),
        ]

    def test_zero_entry_is_not_stored(self):
        mat = RadMatrix.from_entries(2, [(0, 0, 1, 0, 4), (1, 1, -1, 0, 1)])
        assert mat.is_zero() and mat.nnz == 0 and mat.den == 1
        mat = RadMatrix.from_entries(2, [(0, 0, 1, 0, 4), (0, 1, 1, 3, 1)])
        assert mat._terms == {(3 * 2 + 1) * 2 + 0: 1}

    @pytest.mark.parametrize("r,c", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_out_of_range_raises_like_put(self, r, c):
        with pytest.raises(IndexError, match="outside 2x2"):
            RadMatrix.from_entries(2, [(r, c, 1, 1, 1)])
        with pytest.raises(IndexError, match="outside 2x2"):
            RadMatrix(2).put(r, c, 1)

    @pytest.mark.parametrize("r,c", [(5, 7), (-1, 0)])
    def test_get_out_of_range_raises_like_put(self, r, c):
        # a read at a wrong position must not pass for a zero entry
        t_plus = build_generator_set(1, 0).t_plus
        with pytest.raises(IndexError, match=rf"\({r}, {c}\) outside 3x3"):
            t_plus.get(r, c)
        assert t_plus.get(1, 2) == 1 and t_plus.get(2, 2) == 0

    @pytest.mark.parametrize("second", [(0, 1, 1, 2, 1), (0, 1, 1, 3, 1), (0, 1, -1, 0, 1)])
    def test_repeated_position_raises(self, second):
        with pytest.raises(ValueError, match=r"\(0, 1\) given twice"):
            RadMatrix.from_entries(2, [(0, 1, 1, 2, 1), second])

    @pytest.mark.parametrize("r,c", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_from_roots_out_of_range_raises_like_from_entries(self, r, c):
        for build in (RadMatrix.from_entries, RadMatrix.from_roots):
            with pytest.raises(IndexError, match=rf"\({r}, {c}\) outside 2x2"):
                build(2, [(0, 0, 1, 1, 1), (r, c, 1, 1, 1)])

    @pytest.mark.parametrize("second", [(0, 1, 1, 2, 1), (0, 1, 3, 1, 2), (0, 1, 0, 1, 1)])
    def test_from_roots_repeated_position_raises(self, second):
        # (0, 1, 0, 1, 1) is a zero entry: it still claims its cell
        with pytest.raises(ValueError, match=r"\(0, 1\) given twice"):
            RadMatrix.from_roots(2, [(0, 1, 1, 2, 1), second])
        with pytest.raises(ValueError, match=r"\(0, 1\) given twice"):
            RadMatrix.from_roots(2, [second, (0, 1, 1, 2, 1)])

    @given(st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 2), st.sampled_from([1, -1]),
                              st.integers(0, 30), st.integers(1, 12)), max_size=6))
    def test_from_roots_raises_or_stores_as_from_entries(self, entries):
        # the first bad entry in order decides the error, whichever constructor
        roots = [(r, c, sign * k, m, b) for r, c, sign, a, b in entries
                 for k, m in [split_square(a * b) if a else (0, 1)]]
        outcomes = []
        for build, given_entries in ((RadMatrix.from_entries, entries),
                                     (RadMatrix.from_roots, roots)):
            try:
                mat = build(2, given_entries)
                outcomes.append((mat.den, mat._terms))
            except (IndexError, ValueError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_from_roots_takes_split_roots_as_given(self):
        # (2/3) sqrt(6) and -5/4 at (1, 1): den is the lcm of the b's, 12
        mat = RadMatrix.from_roots(2, [(0, 1, 2, 6, 3), (1, 1, -5, 1, 4), (1, 0, 0, 7, 5)])
        assert mat.den == 12 and mat._terms == {(6 * 2 + 1) * 2 + 0: 8, (1 * 2 + 1) * 2 + 1: -15}

    @given(st.dictionaries(_positions, st.tuples(
        st.sampled_from([1, -1]), st.integers(0, 30), st.integers(1, 12)), max_size=8))
    def test_matches_put(self, entries):
        mat = RadMatrix.from_entries(4, [(r, c, *e) for (r, c), e in entries.items()])
        reference = RadMatrix(4)
        for (r, c), (sign, a, b) in entries.items():
            reference.put(r, c, sqrt_of_rational(Fraction(a, b)) * sign)
        assert mat == reference
        assert list(mat.items()) == list(reference.items())
