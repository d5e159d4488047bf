import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from lowrank.metrics import _average_ranks, auc, relative_error, rmse


def auc_by_pair_counting(scores, labels):
    """Brute-force O(P*N) pairwise AUC with ties scored one half."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestRelativeError:
    def test_exact_match_is_zero(self):
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert relative_error(a, a) == 0.0

    def test_scaling_example(self):
        ref = np.eye(3)
        assert relative_error(2 * ref, ref) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            relative_error(np.ones((2, 2)), np.ones((2, 3)))


class TestRmse:
    def test_hand_example(self):
        # errors 1 and -4 over two points: sqrt((1 + 16) / 2) = sqrt(8.5)
        pred = np.array([[2.0, 0.0], [0.0, 1.0]])
        triplets = [(0, 0, 3.0), (1, 1, 5.0)]
        assert rmse(pred, triplets) == pytest.approx(np.sqrt(8.5))

    def test_perfect_prediction(self):
        pred = np.arange(6.0).reshape(2, 3)
        triplets = [(u, i, pred[u, i]) for u in range(2) for i in range(3)]
        assert rmse(pred, triplets) == 0.0

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((10, 8))
        triplets = [
            (int(u), int(i), float(v))
            for u, i, v in zip(
                rng.integers(0, 10, 50),
                rng.integers(0, 8, 50),
                rng.standard_normal(50),
            )
        ]
        direct = np.sqrt(
            sum((v - pred[u, i]) ** 2 for u, i, v in triplets) / len(triplets)
        )
        assert rmse(pred, triplets) == pytest.approx(direct, abs=1e-12)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(np.zeros((2, 2)), [])

    @pytest.mark.parametrize("bad", [(-1, 0, 2.0), (2, 0, 2.0), (0, -1, 2.0),
                                     (0, 3, 2.0)])
    def test_index_outside_prediction_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            rmse(np.zeros((2, 3)), [(0, 0, 1.0), bad, (1, 2, 1.0)])


def _tied_with_infinities():
    rng = np.random.default_rng(4)
    values = rng.integers(0, 4, 40).astype(float)
    values[[3, 17]] = np.inf
    values[[5, 29, 30]] = -np.inf
    return values


class TestAverageRanks:
    """The numpy ranks equal scipy's average ranks bit for bit: each rank is
    a half-integer, which float64 holds exactly."""

    @pytest.mark.parametrize("values", [
        np.random.default_rng(3).standard_normal(50),
        np.round(np.random.default_rng(3).standard_normal(50), 0),
        np.full(7, 2.5),
        np.array([4.0]),
        np.array([np.inf, 1.0, -np.inf, 1.0, np.inf, -np.inf, 0.0]),
        _tied_with_infinities(),
    ], ids=["untied", "tied", "all-equal", "single", "infinities",
            "tied-infinities"])
    def test_equals_scipy_rankdata(self, values):
        assert np.array_equal(_average_ranks(values), rankdata(values))

    def test_equals_scipy_rankdata_at_benchmark_size(self):
        # 200k scores, 90% tied at zero, as |S| on Omega at 1000^2, 20% seen
        rng = np.random.default_rng(5)
        values = np.where(rng.random(200_000) < 0.9, 0.0, rng.random(200_000))
        assert np.array_equal(_average_ranks(values), rankdata(values))

    def test_hand_example(self):
        assert _average_ranks(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == \
            [3.5, 1.0, 3.5, 2.0]


class TestAuc:
    def test_perfect_separation(self):
        assert auc([3.0, 2.0, 1.0, 0.5], [True, True, False, False]) == 1.0

    def test_perfectly_wrong(self):
        assert auc([0.1, 0.2, 3.0, 4.0], [True, True, False, False]) == 0.0

    def test_all_tied_is_half(self):
        assert auc([1.0, 1.0, 1.0, 1.0], [True, False, True, False]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([1.0, 2.0], [True, True])

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            n = 200
            labels = rng.random(n) < 0.3
            labels[0], labels[1] = True, False
            scores = rng.standard_normal(n) + labels
            # quantize to force some ties
            scores = np.round(scores, 1)
            assert auc(scores, labels) == pytest.approx(
                auc_by_pair_counting(scores, labels), abs=1e-12
            )

    def test_matches_pair_counting_oracle_on_heavy_ties(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            labels = rng.random(120) < 0.4
            labels[0], labels[1] = True, False
            scores = rng.integers(0, 3, 120) + labels.astype(float)
            assert auc(scores, labels) == pytest.approx(
                auc_by_pair_counting(scores, labels), abs=1e-12
            )

    def test_infinite_scores_rank_at_the_ends(self):
        scores = _tied_with_infinities()
        labels = np.arange(scores.size) % 3 == 0
        assert auc(scores, labels) == pytest.approx(
            auc_by_pair_counting(scores, labels), abs=1e-12
        )
        assert auc([np.inf, 1.0, -np.inf], [True, False, False]) == 1.0

    @pytest.mark.parametrize("position", [0, 2, 3])
    def test_nan_score_rejected(self, position):
        scores = [0.5, 0.1, 0.9, 0.3]
        scores[position] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            auc(scores, [True, False, True, False])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=4,
                    max_size=30))
    def test_invariant_to_monotone_transform(self, scores):
        # quantize so the affine map cannot merge near-equal scores
        scores = [round(s, 3) for s in scores]
        labels = [i % 2 == 0 for i in range(len(scores))]
        shifted = [3.0 * s + 7.0 for s in scores]
        assert auc(scores, labels) == pytest.approx(auc(shifted, labels))
