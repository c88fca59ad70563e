"""Mention-entity priors and candidate selection.

The prior p(e|m) is the weighted average of per-source conditional
distributions: count-based sources contribute their normalised counts,
uniform sources 1/|candidates| over the entities they list.  Candidate
selection takes the top 30 entities by prior, keeps the best 4 by prior
plus the best 3 by similarity between the entity vector and the averaged
context vector, and never returns more than S entities.  A person
coreference pass lets a short mention inherit the candidates of longer
person mentions that contain it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .vectors import EmbeddingStore
from .vocab import Vocab, parse_field, read_rows

PRECUT = 30          # prior-ranked pool considered before the final keep
DEFAULT_S = 7
DEFAULT_PRIOR_TOP = 4
DEFAULT_CONTEXT_TOP = 3

_WS = re.compile(r"\s+")


def normalize_mention(surface: str) -> str:
    return _WS.sub(" ", surface.strip())


@dataclass
class Candidate:
    entity: int
    prior: float
    reason: str  # "prior-top" | "context-top"


CandidateSet = list  # list[Candidate], at most S entries, no duplicates


class PriorIndex:
    """Normalized mention -> [(entity, probability)], probabilities sum to 1."""

    def __init__(self):
        self._table: dict[str, list[tuple[int, float]]] = {}
        self._lower: dict[str, list[str]] = {}

    def __len__(self) -> int:
        return len(self._table)

    def mentions(self) -> list[str]:
        return sorted(self._table)

    def _insert(self, mention: str, dist: list[tuple[int, float]]) -> None:
        self._table[mention] = dist
        self._lower.setdefault(mention.lower(), []).append(mention)

    def lookup(self, surface: str) -> list[tuple[int, float]]:
        """Exact match on the normalized surface, case-insensitive fallback.

        The fallback averages the distributions of all case variants (in
        sorted key order, so the merge is deterministic).
        """
        key = normalize_mention(surface)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        variants = self._lower.get(key.lower())
        if not variants:
            return []
        merged: dict[int, float] = {}
        for variant in sorted(variants):
            for entity, p in self._table[variant]:
                merged[entity] = merged.get(entity, 0.0) + p
        return _normalised(merged.items())

    def prior(self, surface: str, entity: int) -> float:
        for e, p in self.lookup(surface):
            if e == entity:
                return p
        return 0.0


def _normalised(weights) -> list[tuple[int, float]]:
    """(entity, weight) pairs scaled to sum to 1, by descending p then entity
    id; empty when the weights sum to zero."""
    weights = list(weights)
    total = sum(p for _, p in weights)
    if total <= 0:
        return []
    dist = [(e, p / total) for e, p in weights]
    dist.sort(key=lambda t: (-t[1], t[0]))
    return dist


@dataclass
class PriorSource:
    """One raw index: kind 'count' carries counts, 'uniform' only lists candidates."""

    kind: str
    table: dict[str, list[tuple[int, float]]]
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in ("count", "uniform"):
            raise ValidationError(f"unknown prior source kind {self.kind!r}")
        if self.weight <= 0:
            raise ValidationError("source weight must be positive")


def build_prior(sources: list[PriorSource]) -> PriorIndex:
    """Average per-source conditional distributions into one prior index.

    A count source abstains for mentions whose total count is zero.  The
    final distribution is the weight-normalised mean over the sources that
    know the mention, renormalised to sum to exactly 1.
    """
    if not sources:
        raise ValidationError("build_prior needs at least one source")
    accum: dict[str, dict[int, float]] = {}
    weights: dict[str, float] = {}
    for source in sources:
        for raw_mention, entries in source.table.items():
            mention = normalize_mention(raw_mention)
            if source.kind == "count":
                total = sum(c for _, c in entries)
                if total <= 0:
                    continue  # abstain
                dist = [(e, c / total) for e, c in entries if c > 0]
            else:
                if not entries:
                    continue
                dist = [(e, 1.0 / len(entries)) for e, _ in entries]
            bucket = accum.setdefault(mention, {})
            for e, p in dist:
                bucket[e] = bucket.get(e, 0.0) + source.weight * p
            weights[mention] = weights.get(mention, 0.0) + source.weight
    index = PriorIndex()
    for mention in sorted(accum):
        w = weights[mention]
        index._insert(mention, _normalised((e, p / w) for e, p in accum[mention].items()))
    return index


def average_context_vector(context_words: list[int],
                           store: EmbeddingStore) -> np.ndarray | None:
    """Plain mean of the context word vectors; None when nothing resolves."""
    if not context_words:
        return None
    return store.word_rows(context_words).mean(axis=0)


def candidate_settings(s: int, prior_top: int, context_top: int) -> dict[str, int]:
    """`select_candidates`' budget keywords, checked: s >= 1, shares >= 0."""
    if s <= 0:
        raise ValidationError(f"candidate budget must be positive, got {s}")
    for name, value in (("prior_top", prior_top), ("context_top", context_top)):
        if value < 0:
            raise ValidationError(f"{name} must be non-negative, got {value}")
    return dict(s=s, prior_top=prior_top, context_top=context_top)


def select_candidates(
    surface: str,
    context_words: list[int],
    prior: PriorIndex,
    store: EmbeddingStore,
    s: int = DEFAULT_S,
    prior_top: int = DEFAULT_PRIOR_TOP,
    context_top: int = DEFAULT_CONTEXT_TOP,
) -> list[Candidate]:
    """Keep at most `s` candidates: best by prior, then best by context.

    From the `PRECUT` highest-prior entities, the `prior_top` best by prior
    are kept, then entities ranked by dot product with the averaged context
    vector fill the remaining slots (skipping ones already kept) until
    min(s, available).  A mention absent from the prior yields an empty
    set, which downstream leaves unannotated.
    """
    candidate_settings(s, prior_top, context_top)
    dist = prior.lookup(surface)
    if not dist:
        return []
    pool = sorted(dist, key=lambda t: (-t[1], t[0]))[:PRECUT]
    limit = min(s, len(pool))
    chosen: list[Candidate] = []
    taken: set[int] = set()
    for e, p in pool[:prior_top]:
        chosen.append(Candidate(entity=e, prior=p, reason="prior-top"))
        taken.add(e)
        if len(chosen) == limit:
            return chosen
    ctx = average_context_vector(context_words, store)
    if ctx is not None:
        sims = sorted(
            ((float(np.dot(store.entity_vec(e), ctx)), e, p) for e, p in pool),
            key=lambda t: (-t[0], t[1]),
        )
        for _, e, p in sims:
            if e in taken:
                continue
            chosen.append(Candidate(entity=e, prior=p, reason="context-top"))
            taken.add(e)
            if len(chosen) == limit or len(chosen) == prior_top + context_top:
                break
    # fill any remaining budget by prior order (no usable context, or the
    # context quota is exhausted while slots remain)
    for e, p in pool:
        if len(chosen) >= limit:
            break
        if e not in taken:
            chosen.append(Candidate(entity=e, prior=p, reason="prior-top"))
            taken.add(e)
    return chosen


def _contains_subsequence(haystack: list[str], needle: list[str]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start:start + len(needle)] == needle:
            return True
    return False


def coref_person_merge(doc, is_person, s: int = DEFAULT_S) -> int:
    """Let short person mentions inherit containing person mentions' candidates.

    For each mention whose top-prior candidate is a person: if other
    mentions of persons in the document contain its tokens as a contiguous
    subsequence, its candidate set is replaced by the union of those
    mentions' candidate sets, deduplicated and re-pruned to `s` by prior.
    All merges read the pre-merge candidate sets.  Returns the number of
    mentions rewritten.
    """
    snapshot = [list(m.candidates) if m.candidates is not None else []
                for m in doc.mentions]

    def top_is_person(idx: int) -> bool:
        cands = snapshot[idx]
        if not cands:
            return False
        top = max(cands, key=lambda c: (c.prior, -c.entity))
        return bool(is_person(top.entity))

    merged_count = 0
    for i, mention in enumerate(doc.mentions):
        if not top_is_person(i):
            continue
        tokens_i = doc.tokens[mention.start:mention.end]
        donors = []
        for j, other in enumerate(doc.mentions):
            if j == i or not snapshot[j]:
                continue
            tokens_j = doc.tokens[other.start:other.end]
            if len(tokens_j) <= len(tokens_i):
                continue
            if _contains_subsequence(tokens_j, tokens_i) and top_is_person(j):
                donors.append(j)
        if not donors:
            continue
        pool: dict[int, Candidate] = {}
        for j in donors:
            for cand in snapshot[j]:
                kept = pool.get(cand.entity)
                if kept is None or cand.prior > kept.prior:
                    pool[cand.entity] = cand
        merged = sorted(pool.values(), key=lambda c: (-c.prior, c.entity))[:s]
        mention.candidates = merged
        merged_count += 1
    return merged_count


def gold_recall(docs) -> float:
    """Percentage of gold-annotated mentions whose candidate set holds the gold."""
    total = 0
    hits = 0
    for doc in docs:
        for mention in doc.mentions:
            if mention.gold_id is None:
                continue
            total += 1
            cands = mention.candidates or []
            if any(c.entity == mention.gold_id for c in cands):
                hits += 1
    if total == 0:
        return 0.0
    return 100.0 * hits / total


# -- file formats -------------------------------------------------------


def load_count_index(path: str, entities: Vocab) -> dict[str, list[tuple[int, float]]]:
    """Read ``mention \\t entity \\t count`` rows into a raw count table."""
    table: dict[str, list[tuple[int, float]]] = {}
    for where, (mention, entity, raw) in read_rows(path, "mention<TAB>entity<TAB>count"):
        count = parse_field(float, raw, f"{where}: bad count")
        if count < 0:
            raise ValidationError(f"{where}: negative count")
        table.setdefault(mention, []).append((entities.add(entity), count))
    return table


def load_uniform_index(path: str, entities: Vocab) -> dict[str, list[tuple[int, float]]]:
    """Read ``mention \\t entity`` rows; every candidate gets a uniform prior."""
    table: dict[str, list[tuple[int, float]]] = {}
    for _, (mention, entity) in read_rows(path, "mention<TAB>entity"):
        table.setdefault(mention, []).append((entities.add(entity), 1.0))
    return table


def save_prior(path: str, index: PriorIndex, entities: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for mention in index.mentions():
            for e, p in index.lookup(mention):
                fh.write(f"{mention}\t{entities.token(e)}\t{p:.12g}\n")


def load_prior(path: str, entities: Vocab) -> PriorIndex:
    """Read a saved prior (``mention \\t entity \\t probability``)."""
    table: dict[str, list[tuple[int, float]]] = {}
    for where, (mention, entity, raw) in read_rows(
            path, "mention<TAB>entity<TAB>probability"):
        p = parse_field(float, raw, f"{where}: bad probability")
        if p < 0:
            raise ValidationError(f"{where}: negative probability")
        table.setdefault(normalize_mention(mention), []).append((entities.add(entity), p))
    index = PriorIndex()
    for mention in sorted(table):
        dist = _normalised(table[mention])
        if dist:
            index._insert(mention, dist)
    return index


def load_person_predicate(path: str, entities: Vocab):
    """Read ``entity \\t is_person(0|1)`` rows into a predicate over entity ids."""
    layout = "entity<TAB>0|1"
    flags: dict[int, bool] = {}
    for where, (entity, flag) in read_rows(path, layout):
        if flag not in ("0", "1"):
            raise ValidationError(f"{where}: expected {layout}")
        flags[entities.add(entity)] = flag == "1"
    return lambda e: flags.get(e, False)
