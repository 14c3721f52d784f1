from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from su3rep import (
    GeneratorSet,
    RadMatrix,
    RadicalSum,
    admissible_blocks,
    block_offsets,
    block_unknown_squares,
    build_cartan,
    build_generator_set,
    build_matrices,
    build_raising,
    build_t_plus,
    dimension,
    ladder_coefficient,
    sqrt_of_rational,
    gell_mann_matrix,
    to_gell_mann,
    tspin_list,
    u3_leads,
)
from su3rep.generators import GELL_MANN_TABLE, LADDER_PAIRS, MATRIX_NAMES, unit_raising_blocks
from su3rep.matrices import _combine
from su3rep.structure import ConsistencyError, state_labels
from su3rep.su2 import spin_entries
from su3rep.verify import sweep_labels

from conftest import labels_below, run_entries


def diagonal_values(mat):
    return [mat.get(k, k) for k in range(mat.n)]


def _conjugate(gs):
    """The (q, p) set: every matrix M of gs replaced by -M^T."""
    return GeneratorSet(gs.q, gs.p, *(m.transpose(-1) for m in gs.matrices().values()))


def _reference_set(p, q):
    """The eight matrices assembled entry by entry with ``put`` in RadicalSum
    arithmetic: spin blocks from ladder_coefficient, U3 from the leads, and
    each U+/V+ entry as the product of two roots, sqrt(u^2) * sqrt(x_ij)."""
    if q > p:
        return _conjugate(_reference_set(q, p))
    d = dimension(p, q)
    offsets = block_offsets(p, q)
    spins = tspin_list(p, q)
    tp, tm, t3, u3, up, vp = (RadMatrix(d) for _ in range(6))
    for off, two_s, two_lead in zip(offsets, spins, u3_leads(p, q)):
        for a in range(two_s + 1):
            t3.put(off + a, off + a, Fraction(two_s - 2 * a, 2))
            u3.put(off + a, off + a, Fraction(two_lead + a, 2))
            if a < two_s:
                tp.put(off + a, off + a + 1, ladder_coefficient("plus", two_s, two_s - 2 * a - 2))
                tm.put(off + a + 1, off + a, ladder_coefficient("minus", two_s, two_s - 2 * a))
    squares = block_unknown_squares(p, q)
    for i, j, shift in admissible_blocks(p, q):
        c = sqrt_of_rational(squares[(i, j)])
        two_s, row0, col0 = spins[i - 1], offsets[i - 1], offsets[j - 1]
        for a in range(two_s + 1):
            if shift == -1:
                if a > 0:
                    up.put(row0 + a, col0 + a - 1, sqrt_of_rational(a) * c)
                if a < two_s:
                    vp.put(row0 + a, col0 + a, sqrt_of_rational(two_s - a) * c)
            else:
                usq = Fraction(two_s - a + 1, two_s + 1)
                vsq = Fraction(a + 1, two_s + 1)
                up.put(row0 + a, col0 + a, sqrt_of_rational(usq) * c)
                vp.put(row0 + a, col0 + a + 1, -(sqrt_of_rational(vsq) * c))
    return GeneratorSet(p, q, tp, tm, t3, up, up.transpose(), u3, vp, vp.transpose())


def _from_entries_reference(p, q):
    """The eight matrices of (p, q), either orientation, assembled through
    ``RadMatrix.from_entries``: T+ over ``spin_entries``; T3 and U3 as the
    roots (k, k, +-1, v*v, 4), v / 2, of their doubled values v; U+ and V+ as
    each unit entry sign * sqrt(a/b) of block (i, j) times the block's square
    x/y, the root sign * sqrt(a*x / (b*y)).  For q > p the raising and Cartan
    matrices are the (q, p) ones flipped, and each lowering matrix is its
    raising partner's transpose."""
    hi, lo = max(p, q), min(p, q)
    d = dimension(hi, lo)
    mats = {"Tp": RadMatrix.from_entries(d, [
        (off + r, off + c, sign, a, b)
        for off, two_s in zip(block_offsets(hi, lo), tspin_list(hi, lo))
        for r, c, sign, a, b in spin_entries(two_s)])}
    doubled = {"T3": [], "U3": []}
    for two_s, two_lead in zip(tspin_list(hi, lo), u3_leads(hi, lo)):
        doubled["T3"] += range(two_s, -two_s - 1, -2)
        doubled["U3"] += range(two_lead, two_lead + two_s + 1)
    for name, values in doubled.items():
        mats[name] = RadMatrix.from_entries(d, [(k, k, 1 if v > 0 else -1, v * v, 4)
                                                for k, v in enumerate(values)])
    squares = block_unknown_squares(hi, lo)
    units = unit_raising_blocks(hi, lo, ("Up", "Vp"))
    for name in ("Up", "Vp"):
        mats[name] = RadMatrix.from_entries(d, [
            (r, c, sign, a * squares[key].numerator, b * squares[key].denominator)
            for key, runs in units for r, c, sign, a, b in run_entries(runs[name])])
    if q > p:
        mats = {name: m.transpose(-1) for name, m in mats.items()}
    mats.update((minus, mats[plus].transpose()) for plus, minus in LADDER_PAIRS.items())
    return mats


def _stored_form_mismatches(p, q):
    """(names asked for, name) wherever ``build_matrices(p, q, names)`` stores
    another ``den`` or ``_terms`` than ``_from_entries_reference``, for all
    eight names and for each name alone; [] when every stored form agrees."""
    reference = _from_entries_reference(p, q)
    return [(names, name)
            for names in [MATRIX_NAMES] + [(name,) for name in MATRIX_NAMES]
            for name, mat in build_matrices(p, q, names).items()
            if (mat.den, mat._terms) != (reference[name].den, reference[name]._terms)]


# every p >= q irrep with d < 300, and the sweep's q > p spot checks
_ASSEMBLY_LABELS = list(labels_below(300)) + [(0, 1), (1, 2), (2, 3), (3, 5)]


class TestAssemblyMatchesReference:
    @pytest.mark.parametrize("p,q", sorted(set(labels_below(300))
                                           | {(q, p) for p, q in labels_below(300)}))
    def test_stored_forms_equal_the_from_entries_reference(self, p, q):
        assert _stored_form_mismatches(p, q) == []

    @pytest.mark.parametrize("p,q", _ASSEMBLY_LABELS)
    def test_eight_matrices(self, p, q):
        built = build_generator_set(p, q).matrices()
        reference = _reference_set(p, q).matrices()
        for name, mat in reference.items():
            assert built[name] == mat, name
            assert list(built[name].items()) == list(mat.items()), name

    @pytest.mark.parametrize("p,q", [pq for pq in _ASSEMBLY_LABELS if pq[0] >= pq[1]])
    def test_unit_blocks_scaled_by_roots(self, p, q):
        d = dimension(p, q)
        squares = block_unknown_squares(p, q)
        units = unit_raising_blocks(p, q, ("Up", "Vp"))
        assert [key for key, _ in units] == [(i, j) for i, j, _ in admissible_blocks(p, q)]
        built = build_raising(p, q, squares, ("Up", "Vp"))
        assert list(built) == ["Up", "Vp"]
        roots = {}  # sqrt(x) * I by x, entry by entry
        for x in {squares[key] for key, _ in units}:
            roots[x], root = RadMatrix(d), sqrt_of_rational(x)
            for k in range(d):
                roots[x].put(k, k, root)
        for name, mat in built.items():
            total = _combine([(1, RadMatrix(d))] + [  # the zero term sizes a sum of no blocks
                (1, RadMatrix.from_entries(d, run_entries(runs[name])), roots[squares[key]])
                for key, runs in units])
            assert total == mat
            assert list(total.items()) == list(mat.items())


class TestTMatrices:
    def test_fundamental_t3(self):
        t3 = build_cartan(1, 0, ["T3"])["T3"]
        assert diagonal_values(t3) == [
            RadicalSum(0),
            RadicalSum(Fraction(1, 2)),
            RadicalSum(Fraction(-1, 2)),
        ]

    def test_trivial_irrep(self):
        tp, tm, t3 = build_matrices(0, 0, ["Tp", "Tm", "T3"]).values()
        assert tp.is_zero() and tm.is_zero() and t3.is_zero()

    def test_adjoint_plus_count(self):
        # blocks 2s = 0, 1, 1, 2 contribute 0 + 1 + 1 + 2 superdiagonal entries
        tp = build_t_plus(1, 1)
        assert tp.nnz == 4

    def test_minus_is_transpose(self):
        tp, tm = build_t_plus(3, 2), build_matrices(3, 2, ["Tm"])["Tm"]
        assert tm == tp.transpose()


class TestU3:
    def test_fundamental(self):
        u3 = build_cartan(1, 0, ["U3"])["U3"]
        assert diagonal_values(u3) == [
            RadicalSum(Fraction(-1, 2)),
            RadicalSum(0),
            RadicalSum(Fraction(1, 2)),
        ]

    @pytest.mark.parametrize("p,q", [(1, 0), (1, 1), (3, 2), (5, 3)])
    def test_traceless(self, p, q):
        both = build_cartan(p, q, ["T3", "U3"])
        assert list(both) == ["T3", "U3"]
        assert both["U3"].trace().is_zero
        assert both["T3"].trace().is_zero

    def test_diagonals_match_state_labels(self):
        # state_labels walks the states on its own, with its own q > p
        # branch: the built T3 and U3 hold two_sigma / 2 and two_u3 / 2 state
        # by state on every label below d = 1000, in both orientations
        labels = sorted({pair for p, q in sweep_labels(1000) for pair in ((p, q), (q, p))})
        assert len(labels) == 291
        for label in labels:
            t3, u3 = build_matrices(*label, ["T3", "U3"]).values()
            states = state_labels(*label)
            for mat, doubled in ((t3, [s.two_sigma for s in states]),
                                 (u3, [s.two_u3 for s in states])):
                diag = mat.rational_diagonal()
                assert diag is not None, label
                want = [Fraction(v, 2) for v in doubled]
                assert [Fraction(v, mat.den) for v in diag] == want, label


class TestAdmissibleBlocks:
    def test_fundamental(self):
        assert admissible_blocks(1, 0) == [(2, 1, -1)]

    def test_adjoint_contains_special_block(self):
        assert (3, 1, -1) in admissible_blocks(1, 1)

    def test_trivial_empty(self):
        assert admissible_blocks(0, 0) == []

    def test_at_most_one_block_per_row_and_direction(self):
        for p, q in [(3, 2), (5, 3)]:
            blocks = admissible_blocks(p, q)
            seen = set()
            for i, j, shift in blocks:
                assert (i, shift) not in seen
                seen.add((i, shift))


class TestRaisingMatrices:
    def test_fundamental_single_entries(self):
        built = build_raising(1, 0, block_unknown_squares(1, 0), ("Up", "Vp"))
        up, vp = built["Up"], built["Vp"]
        assert [(r, c, v) for r, c, v in up.items()] == [(2, 0, RadicalSum(1))]
        assert [(r, c, v) for r, c, v in vp.items()] == [(1, 0, RadicalSum(1))]

    def test_missing_unknown_raises(self):
        squares = block_unknown_squares(1, 0)
        squares.pop((2, 1))
        with pytest.raises(ConsistencyError, match="no block unknown"):
            build_raising(1, 0, squares, ("Up",))

    def test_negative_unknown_raises(self):
        squares = block_unknown_squares(2, 1)
        squares[(3, 1)] = -squares[(3, 1)]
        with pytest.raises(ConsistencyError, match=r"negative squared unknown -3 at \(3,1\)"):
            build_raising(2, 1, squares, ("Vp",))

    @pytest.mark.parametrize("p,q", [(1, 0), (3, 2), (8, 4)])
    def test_each_matrix_alone_equals_the_pair(self, p, q):
        squares = block_unknown_squares(p, q)
        both = build_raising(p, q, squares, ("Up", "Vp"))
        for name in ("Up", "Vp"):
            (alone,) = build_raising(p, q, squares, {name}).items()
            assert alone[0] == name
            assert list(alone[1].items()) == list(both[name].items())
        assert build_raising(p, q, squares, ()) == {}

    def test_vplus_negative_in_spin_raising_blocks(self):
        gs = build_generator_set(1, 1)
        offsets = block_offsets(1, 1)
        spins = tspin_list(1, 1)
        for i, j, shift in admissible_blocks(1, 1):
            if shift != 1 or not block_unknown_squares(1, 1)[(i, j)]:
                continue
            r0, c0 = offsets[i - 1], offsets[j - 1]
            vals = [
                v
                for r, c, v in gs.v_plus.items()
                if r0 <= r < r0 + spins[i - 1] + 1 and c0 <= c < c0 + spins[j - 1] + 1
            ]
            assert vals and all(v.to_float() < 0 for v in vals)

    def test_single_diagonal_per_block(self):
        gs = build_generator_set(3, 2)
        block_starts = block_offsets(3, 2)
        for mat in (gs.u_plus, gs.v_plus):
            offsets: dict[tuple[int, int], set[int]] = {}
            for r, c, _ in mat.items():
                bi = max(k for k, off in enumerate(block_starts) if off <= r)
                bj = max(k for k, off in enumerate(block_starts) if off <= c)
                a, b = r - block_starts[bi], c - block_starts[bj]
                offsets.setdefault((bi, bj), set()).add(b - a)
            assert all(len(diags) == 1 for diags in offsets.values())

    def test_in_block_recursion(self):
        # consecutive entries on a block diagonal of U+ are locked together:
        # r-(t, sigma + 1/2) * u(sigma - 1) = r-(s, sigma) * u(sigma)
        for p, q in labels_below(301):
            gs = build_generator_set(p, q)
            offsets = block_offsets(p, q)
            spins = tspin_list(p, q)
            for i, j, shift in admissible_blocks(p, q):
                two_s, two_t = spins[i - 1], spins[j - 1]
                r0, c0 = offsets[i - 1], offsets[j - 1]
                entries = {
                    r - r0: v
                    for r, c, v in gs.u_plus.items()
                    if r0 <= r < r0 + two_s + 1 and c0 <= c < c0 + two_t + 1
                }
                for a in sorted(entries):
                    if a + 1 not in entries:
                        continue
                    two_sigma = two_s - 2 * a
                    lhs = ladder_coefficient("minus", two_t, two_sigma + 1) * entries[a + 1]
                    rhs = ladder_coefficient("minus", two_s, two_sigma) * entries[a]
                    assert lhs == rhs


class TestGeneratorSet:
    def test_transpose_relations(self):
        for p, q in [(1, 0), (2, 1), (3, 2), (1, 2)]:
            gs = build_generator_set(p, q)
            assert gs.t_minus == gs.t_plus.transpose()
            assert gs.u_minus == gs.u_plus.transpose()
            assert gs.v_minus == gs.v_plus.transpose()

    def test_diagonals_commute(self):
        gs = build_generator_set(3, 2)
        assert _combine(((1, gs.t_three, gs.u_three), (-1, gs.u_three, gs.t_three))).is_zero()

    def test_trivial_irrep(self):
        gs = build_generator_set(0, 0)
        assert all(m.is_zero() for m in gs.matrices().values())

    @pytest.mark.parametrize("label", [(3, 2), (2, 3)])
    def test_named_subset_equals_the_full_set(self, label):
        full = build_generator_set(*label).matrices()
        for names in (["Vm", "Tp"], ["U3"], ["T3"], ["Um", "Um"], list(full)):
            built = build_matrices(*label, iter(names))
            assert list(built) == [name for name in full if name in names]
            for name, mat in built.items():
                assert list(mat.items()) == list(full[name].items()), name

    def test_consistency_error_is_one_class(self):
        import su3rep
        from su3rep import generators, structure

        assert su3rep.ConsistencyError is structure.ConsistencyError is generators.ConsistencyError

    def test_swapped_label_is_negative_transpose(self):
        direct = build_generator_set(1, 0)
        swapped = build_generator_set(0, 1)
        for key in direct.matrices():
            assert swapped.matrices()[key] == direct.matrices()[key].transpose(-1)

    def test_negative_transpose_involution(self):
        for p, q in [(1, 0), (2, 1), (3, 5)]:
            gs = build_generator_set(p, q)
            twice = _conjugate(_conjugate(gs))
            assert all(
                twice.matrices()[key] == gs.matrices()[key] for key in gs.matrices()
            )
            assert (twice.p, twice.q) == (p, q)

    @settings(deadline=None)
    @given(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda pq: sum(pq) <= 6)
    )
    @example((4, 2))
    @example((2, 4))
    def test_transposes_in_both_orientations(self, label):
        gs = build_generator_set(*label)
        for mat in gs.matrices().values():
            once = mat.transpose(-1)
            assert _combine(((1, once), (1, mat.transpose()))).is_zero()
            assert list(once.transpose(-1).items()) == list(mat.items())
        assert gs.u_minus == gs.u_plus.transpose()
        assert gs.v_minus == gs.v_plus.transpose()


class TestGellMann:
    def test_f8_diagonal_traceless(self):
        fs = to_gell_mann(build_generator_set(2, 1))
        f8 = fs[8]
        assert f8.im.is_zero()
        assert all(r == c for r, c, _ in f8.re.items())
        assert f8.re.trace().is_zero

    def test_computes_the_table_for_every_input(self):
        # gell_mann_matrix is linear with constant coefficients, so eight
        # generic inputs, each a distinct prime at a position no other input
        # uses, read back every coefficient: Fk's part holds exactly
        # c * prime * sqrt(radicand) at the position of each term's input and
        # nothing else, and its other part holds nothing
        n = len(MATRIX_NAMES)
        primes = dict(zip(MATRIX_NAMES, (2, 3, 5, 7, 11, 13, 17, 19)))
        position = {name: (j, (j + 1) % n) for j, name in enumerate(MATRIX_NAMES)}
        inputs = {name: RadMatrix.from_entries(n, [(*position[name], 1, primes[name] ** 2, 1)])
                  for name in MATRIX_NAMES}
        for k, (part, radicand, terms) in GELL_MANN_TABLE.items():
            f = gell_mann_matrix(inputs, k)
            value, other = (f.re, f.im) if part == "re" else (f.im, f.re)
            assert other.is_zero(), k
            assert {(r, c): list(v.terms()) for r, c, v in value.items()} == {
                position[name]: [(coeff * primes[name], radicand)] for coeff, name in terms
            }, k

    @pytest.mark.parametrize("k", [0, 9])
    def test_index_out_of_range(self, k):
        with pytest.raises(IndexError, match="1..8"):
            gell_mann_matrix(build_generator_set(1, 0).matrices(), k)

    def test_all_hermitian_adjoint(self):
        fs = to_gell_mann(build_generator_set(1, 1))
        assert all(f.is_hermitian() for f in fs.values())

    def test_fundamental_matches_textbook_up_to_permutation(
        self, textbook_fundamental
    ):
        fs = to_gell_mann(build_generator_set(1, 0))

        def matches(perm):
            for ours, ref in zip(fs.values(), textbook_fundamental):
                for r in range(3):
                    for c in range(3):
                        if ours.re.get(r, c) != ref.re.get(perm[r], perm[c]):
                            return False
                        if ours.im.get(r, c) != ref.im.get(perm[r], perm[c]):
                            return False
            return True

        assert [perm for perm in permutations(range(3)) if matches(perm)] == [
            (2, 0, 1)
        ]
