from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from su3rep import (
    block_offsets,
    dimension,
    state_labels,
    tspin_list,
    u3_leads,
    weight_multiplicities,
)
from su3rep.cli import DEFAULT_MAX_D
from su3rep.verify import sweep_labels

from conftest import labels_below

# (5, 3) reference data: the three-region T-spin display and the three
# doubled lead-component lists.
TSPINS_53 = (0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 7, 7, 8)
LEADS_53_TOP = (-2, -4, -1, -6, -3, 0)
LEADS_53_MIDDLE = (-8, -5, -2, 1, -7, -4, -1, 2, -6, -3, 0, 3)
LEADS_53_BOTTOM = (-5, -2, 1, -4, -1, -3)


# every label that the CLI's --max-d budget admits, in both orientations
_BUDGET_LABELS = sorted({label for p, q in sweep_labels(DEFAULT_MAX_D + 1)
                         for label in ((p, q), (q, p))})


def _assert_weight_symmetries(p, q):
    """The counts of (p, q), keyed by (x, y) = (2 T3, 3 Y), sum to d and are
    invariant under the T3 and U-spin reflections (which generate the Weyl
    group); (q, p) has them at (-x, -y), and the corner (p, p + 2q) has 1."""
    counts = weight_multiplicities(p, q)
    assert sum(counts.values()) == dimension(p, q)
    assert {(-x, y): n for (x, y), n in counts.items()} == counts
    assert all((x + y) % 2 == 0 for x, y in counts)
    assert {((x + y) // 2, (3 * x - y) // 2): n for (x, y), n in counts.items()} == counts
    assert weight_multiplicities(q, p) == {(-x, -y): n for (x, y), n in counts.items()}
    assert counts[(p, p + 2 * q)] == 1


class TestDimension:
    @pytest.mark.parametrize(
        "p,q,d", [(1, 0, 3), (5, 3, 120), (0, 0, 1), (3, 2, 42), (0, 1, 3)]
    )
    def test_known_values(self, p, q, d):
        assert dimension(p, q) == d

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            dimension(-1, 0)


class TestTSpinList:
    def test_53_reference(self):
        spins = tspin_list(5, 3)
        assert spins == TSPINS_53
        assert spins[:6] == (0, 1, 1, 2, 2, 2)
        assert spins[6:18] == (3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5)
        assert spins[18:] == (6, 6, 6, 7, 7, 8)

    def test_small_cases(self):
        assert tspin_list(1, 0) == (0, 1)
        assert tspin_list(1, 1) == (0, 1, 1, 2)
        assert tspin_list(0, 0) == (0,)

    def test_rejects_q_above_p(self):
        with pytest.raises(ValueError, match="negative-transpose"):
            tspin_list(1, 2)

    def test_state_count_matches_dimension(self):
        for p, q in labels_below(301):
            spins = tspin_list(p, q)
            assert len(spins) == (p + 1) * (q + 1)
            assert sum(s + 1 for s in spins) == dimension(p, q)
            assert list(spins) == sorted(spins)

    @pytest.mark.parametrize("p,q", [(1, 0), (2, 1), (3, 2), (5, 3), (4, 4)])
    def test_spin_multiset_symmetric_under_label_swap(self, p, q):
        direct = Counter(lbl.two_s for lbl in state_labels(p, q))
        swapped = Counter(lbl.two_s for lbl in state_labels(q, p))
        assert direct == swapped


class TestU3Leads:
    def test_53_reference(self):
        leads = u3_leads(5, 3)
        assert leads[:6] == LEADS_53_TOP
        assert leads[6:18] == LEADS_53_MIDDLE
        assert leads[18:] == LEADS_53_BOTTOM

    def test_fundamental(self):
        assert u3_leads(1, 0) == (-1, 0)

    def test_32_reference(self):
        # evaluated by hand from the three region formulas
        assert u3_leads(3, 2) == (-1, -3, 0, -5, -2, 1, -4, -1, 2, -3, 0, -2)

    def test_leads_increase_within_equal_spin_runs(self):
        for p, q in labels_below(301):
            spins = tspin_list(p, q)
            leads = u3_leads(p, q)
            for k in range(1, len(spins)):
                if spins[k] == spins[k - 1]:
                    assert leads[k] > leads[k - 1]


class TestBlockLayout:
    def test_offsets(self):
        offsets = block_offsets(5, 3)
        assert offsets[0] == 0
        assert all(
            offsets[k] + TSPINS_53[k] + 1 == offsets[k + 1]
            for k in range(len(offsets) - 1)
        )
        assert offsets[-1] + TSPINS_53[-1] + 1 == 120
        assert block_offsets(0, 0) == (0,)


class TestStateLabels:
    def test_fundamental(self):
        labels = state_labels(1, 0)
        assert [(l.two_s, l.two_sigma, l.two_u3) for l in labels] == [
            (0, 0, -1),
            (1, 1, 0),
            (1, -1, 1),
        ]
        assert [l.index for l in labels] == [1, 2, 3]

    def test_53_final_block_lead(self):
        # lead state of block 24 (doubled spin 8): u3 = -3/2
        labels = state_labels(5, 3)
        block24 = [l for l in labels if l.two_s == 8]
        assert block24[0].two_sigma == 8
        assert block24[0].two_u3 == -3

    def test_label_swap_negates_components(self):
        direct = state_labels(1, 0)
        swapped = state_labels(0, 1)
        assert [(l.two_sigma, l.two_u3) for l in swapped] == [
            (-l.two_sigma, -l.two_u3) for l in direct
        ]

    def test_sigma_steps_down_within_block(self):
        for lbl_prev, lbl in zip(state_labels(3, 2), state_labels(3, 2)[1:]):
            if lbl.two_s == lbl_prev.two_s and lbl.two_sigma < lbl_prev.two_sigma:
                assert lbl.two_sigma == lbl_prev.two_sigma - 2
                assert lbl.two_u3 == lbl_prev.two_u3 + 1


class TestWeightMultiplicities:
    def test_quark_triplet(self):
        assert weight_multiplicities(1, 0) == {(1, 1): 1, (-1, 1): 1, (0, -2): 1}

    def test_antiquark_triplet(self):
        assert weight_multiplicities(0, 1) == {(-1, -1): 1, (1, -1): 1, (0, 2): 1}

    def test_singlet(self):
        assert weight_multiplicities(0, 0) == {(0, 0): 1}

    def test_53_row_below_center(self):
        counts = weight_multiplicities(5, 3)
        row = {t3: n for (t3, y), n in counts.items() if y == -4}
        assert sum(row.values()) == 16
        assert row == {-6: 1, -4: 2, -2: 3, 0: 4, 2: 3, 4: 2, 6: 1}

    @pytest.mark.parametrize("p,q", [(1, 0), (2, 1), (5, 3), (1, 2), (3, 3)])
    def test_total_and_t3_symmetry(self, p, q):
        _assert_weight_symmetries(p, q)

    @settings(deadline=None)
    @given(st.sampled_from(_BUDGET_LABELS))
    def test_weyl_and_conjugation_symmetry_up_to_max_d(self, label):
        _assert_weight_symmetries(*label)

    @pytest.mark.parametrize("p,q", [(1, 0), (2, 1), (5, 3), (2, 3)])
    def test_top_and_bottom_row_sizes(self, p, q):
        counts = weight_multiplicities(p, q)
        ys = {y for _, y in counts}
        top = [t3 for (t3, y) in counts if y == max(ys)]
        bottom = [t3 for (t3, y) in counts if y == min(ys)]
        assert len(top) == p + 1
        assert len(bottom) == q + 1

    def test_closed_form_matches_state_labels_below_1000(self):
        # the closed form reads no branching table; state_labels reads it
        labels = [(p, q) for p in range(45) for q in range(45) if dimension(p, q) < 1000]
        assert len(labels) == 291
        for p, q in labels:
            counts = weight_multiplicities(p, q)
            from_labels = Counter(
                (lbl.two_sigma, 2 * lbl.two_u3 + lbl.two_sigma) for lbl in state_labels(p, q)
            )
            assert counts == dict(from_labels), (p, q)
            assert sum(counts.values()) == dimension(p, q)
