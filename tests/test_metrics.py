"""Micro precision/recall/F1, in-KB accuracy, frequency/prior breakdowns."""

import pytest

from entlink.errors import ValidationError
from entlink.metrics import breakdown_report, evaluate


class TestEvaluate:
    def test_all_correct_all_annotated(self):
        res = evaluate([1, 2, 3], [1, 2, 3])
        assert res.precision == res.recall == res.f1 == res.in_kb_accuracy == 1.0

    def test_partial_annotation(self):
        # 3 of 4 annotated, all 3 correct: P=1, R=0.75, F1 ~ 0.857
        res = evaluate([1, 2, 3, None], [1, 2, 3, 4])
        assert res.precision == 1.0
        assert res.recall == pytest.approx(0.75)
        assert res.f1 == pytest.approx(6.0 / 7.0)

    def test_no_predictions(self):
        res = evaluate([None, None], [1, 2])
        assert res.precision == 0.0
        assert res.recall == 0.0
        assert res.f1 == 0.0

    def test_precision_below_recall_possible(self):
        # annotate everything, some wrong; another case annotates few, all right
        low_p = evaluate([1, 9, 9, 9], [1, 2, 3, 4])
        assert low_p.precision == pytest.approx(0.25)
        assert low_p.precision == low_p.recall  # full annotation: P == R
        high_p = evaluate([1, None, None, None], [1, 2, 3, 4])
        assert high_p.precision > high_p.recall

    def test_unannotated_gold_excluded(self):
        res = evaluate([1, 7], [1, None])
        assert res.gold == 1
        assert res.correct == 1

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([1], [1, 2])


class TestBreakdown:
    def test_single_bucket_others_empty(self):
        freq_buckets, prior_buckets = breakdown_report(
            predictions=[1, 2], golds=[1, 2], gold_priors=[0.5, 0.5],
            gold_freqs=[100, 100], gold_in_candidates=[True, True])
        assert [b.count for b in freq_buckets] == [0, 0, 0, 0, 2]
        assert [b.count for b in prior_buckets] == [0, 0, 0, 0, 2]
        assert freq_buckets[-1].accuracy == 1.0

    def test_prior_boundary_closed_upper(self):
        # a prior of exactly 0.03 falls in the 0.01-0.03 bucket
        _, prior_buckets = breakdown_report(
            predictions=[1], golds=[1], gold_priors=[0.03],
            gold_freqs=[0], gold_in_candidates=[True])
        assert prior_buckets[1].label == "0.01-0.03"
        assert prior_buckets[1].count == 1

    def test_frequency_edges(self):
        freq_buckets, _ = breakdown_report(
            predictions=[1, 1, 1, 1, 1],
            golds=[1, 1, 1, 1, 1],
            gold_priors=[0.5] * 5,
            gold_freqs=[0, 10, 11, 50, 51],
            gold_in_candidates=[True] * 5)
        assert [b.count for b in freq_buckets] == [1, 1, 1, 1, 1]

    def test_only_candidate_contained_mentions_counted(self):
        freq_buckets, prior_buckets = breakdown_report(
            predictions=[1, 2], golds=[1, 2], gold_priors=[0.5, 0.5],
            gold_freqs=[100, 100], gold_in_candidates=[True, False])
        assert sum(b.count for b in freq_buckets) == 1
        assert sum(b.count for b in prior_buckets) == 1

    def test_bucket_totals_cross_check(self):
        import numpy as np

        rng = np.random.default_rng(0)
        n = 200
        golds = [int(g) for g in rng.integers(0, 50, size=n)]
        preds = [g if rng.random() < 0.8 else int(rng.integers(50)) for g in golds]
        priors = [float(p) for p in rng.random(size=n)]
        freqs = [int(f) for f in rng.integers(0, 200, size=n)]
        contained = [bool(b) for b in rng.random(size=n) < 0.9]
        freq_buckets, prior_buckets = breakdown_report(preds, golds, priors,
                                                       freqs, contained)
        want = sum(contained)
        assert sum(b.count for b in freq_buckets) == want
        assert sum(b.count for b in prior_buckets) == want
