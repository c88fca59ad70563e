"""Disambiguation metrics: micro precision/recall/F1, in-KB accuracy, breakdowns.

Predictions may leave mentions unannotated, so precision (over predicted
mentions) and recall (over gold mentions) genuinely differ.  With no
predictions at all, precision is reported as 0 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

# bucket upper bounds are inclusive: a prior of exactly 0.03 falls in 0.01-0.03
FREQ_BUCKETS = ((0, 0), (1, 10), (11, 20), (21, 50), (51, None))
PRIOR_BUCKETS = (0.01, 0.03, 0.1, 0.3)


@dataclass
class EvalResult:
    correct: int
    predicted: int
    gold: int

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    @property
    def in_kb_accuracy(self) -> float:
        """Correct over gold mentions; this equals recall.  Where golds are
        resolved against a KB (`run-experiment`), a gold outside it resolves
        to None and is skipped, so every counted gold is in the KB.
        `entlink evaluate` has no KB to resolve golds against, so there it
        counts every gold, one outside any KB included."""
        return self.recall


def evaluate(predictions: list[int | str | None],
             golds: list[int | str | None]) -> EvalResult:
    """Score aligned prediction/gold lists of entity ids or names, compared
    with ==; None marks unannotated slots.

    Mentions with a None gold are outside the evaluation universe and are
    skipped entirely.
    """
    if len(predictions) != len(golds):
        raise ValidationError("predictions and golds must align one to one")
    correct = predicted = gold_total = 0
    for pred, gold in zip(predictions, golds):
        if gold is None:
            continue
        gold_total += 1
        if pred is None:
            continue
        predicted += 1
        if pred == gold:
            correct += 1
    return EvalResult(correct=correct, predicted=predicted, gold=gold_total)


@dataclass
class Bucket:
    label: str
    count: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.count if self.count else 0.0


def _freq_label(lo: int, hi: int | None) -> str:
    if hi is None:
        return f">{lo - 1}"
    if lo == hi:
        return str(lo)
    return f"{lo}-{hi}"


def _prior_label(i: int) -> str:
    if i == 0:
        return f"<={PRIOR_BUCKETS[0]:g}"
    if i == len(PRIOR_BUCKETS):
        return f">{PRIOR_BUCKETS[-1]:g}"
    return f"{PRIOR_BUCKETS[i - 1]:g}-{PRIOR_BUCKETS[i]:g}"


def breakdown_report(
    predictions: list[int | str | None],
    golds: list[int | str | None],
    gold_priors: list[float],
    gold_freqs: list[int],
    gold_in_candidates: list[bool],
) -> tuple[list[Bucket], list[Bucket]]:
    """Accuracy split by gold-entity frequency and by gold-entity prior.

    Only mentions with a gold entity and a true `gold_in_candidates` flag
    are counted.  `run-experiment` flags the mentions whose selected
    candidate set holds the gold (`breakdown.tsv`), so its buckets
    cross-check against the candidate-bearing total; `entlink breakdown`
    selects no candidates and flags the mentions whose gold has a prior
    above 0 for their surface.
    """
    lengths = {len(predictions), len(golds), len(gold_priors),
               len(gold_freqs), len(gold_in_candidates)}
    if len(lengths) != 1:
        raise ValidationError("breakdown inputs must align one to one")
    freq_buckets = [Bucket(_freq_label(lo, hi)) for lo, hi in FREQ_BUCKETS]
    prior_buckets = [Bucket(_prior_label(i)) for i in range(len(PRIOR_BUCKETS) + 1)]
    for pred, gold, prior, freq, in_cands in zip(
            predictions, golds, gold_priors, gold_freqs, gold_in_candidates):
        if gold is None or not in_cands:
            continue
        hit = int(pred == gold)
        for bucket, (lo, hi) in zip(freq_buckets, FREQ_BUCKETS):
            if freq >= lo and (hi is None or freq <= hi):
                bucket.count += 1
                bucket.correct += hit
                break
        index = len(PRIOR_BUCKETS)
        for i, upper in enumerate(PRIOR_BUCKETS):
            if prior <= upper:
                index = i
                break
        prior_buckets[index].count += 1
        prior_buckets[index].correct += hit
    return freq_buckets, prior_buckets
