"""Entity vector training from word co-occurrence counts.

Each entity gets an independent unit vector fitted so that words drawn
from its co-occurrence distribution score higher (by dot product) than
words drawn from a smoothed unigram distribution, under a hinge with
margin gamma.  Updates are adaptive-gradient steps followed by projection
back onto the unit sphere.

Counts come from two sources: the entity's description page and fixed-size
token windows around hyperlink anchors.  Training runs the description
phase first, then the hyperlink phase with early stopping on a relatedness
validation score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .vectors import EmbeddingStore
from .vocab import Vocab


class AliasSampler:
    """Walker alias method: O(n) build, O(1) draws from a fixed discrete law."""

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValidationError("alias table needs a nonempty weight vector")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValidationError("alias weights must be nonnegative with positive sum")
        n = weights.size
        prob = weights * (n / weights.sum())
        self.threshold = np.ones(n)
        self.alias = np.arange(n)
        small = [i for i in range(n) if prob[i] < 1.0]
        large = [i for i in range(n) if prob[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            self.threshold[s] = prob[s]
            self.alias[s] = l
            prob[l] = prob[l] - (1.0 - prob[s])
            (small if prob[l] < 1.0 else large).append(l)
        self.n = n

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cells = rng.integers(0, self.n, size=size)
        coins = rng.random(size=size)
        return np.where(coins < self.threshold[cells], cells, self.alias[cells])


@dataclass
class CooccurrenceCounts:
    """Word-entity counts split by source, plus the global word frequencies.

    `description[e]` and `hyperlink[e]` map word id -> count.  The smoothed
    unigram q(w) proportional to p(w)**alpha drives negative sampling.
    """

    n_words: int
    alpha: float = 0.6
    description: dict[int, Counter] = field(default_factory=dict)
    hyperlink: dict[int, Counter] = field(default_factory=dict)
    word_freq: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"smoothing exponent must be in (0,1), got {self.alpha}")
        if self.word_freq is None:
            self.word_freq = np.zeros(self.n_words, dtype=np.float64)

    def add(self, table: dict[int, Counter], entity: int, word: int, count: int = 1) -> None:
        if count < 0:
            raise ValidationError("counts must be nonnegative")
        table.setdefault(entity, Counter())[word] += count
        self.word_freq[word] += count

    def counts_for(self, entity: int, source: str) -> Counter:
        table = {"description": self.description, "hyperlink": self.hyperlink}[source]
        return table.get(entity, Counter())

    def combined(self, entity: int) -> Counter:
        merged = Counter(self.description.get(entity, Counter()))
        merged.update(self.hyperlink.get(entity, Counter()))
        return merged

    def trainable(self, entity: int) -> bool:
        return sum(self.combined(entity).values()) > 0

    def positive_sampler(self, entity: int, source: str) -> tuple[np.ndarray, AliasSampler]:
        """Word ids and an alias table over p(w|e) restricted to the source."""
        counts = self.counts_for(entity, source)
        if not counts:
            raise ValidationError(f"entity {entity} has no counts from source {source!r}")
        words = np.array(sorted(counts), dtype=np.int64)
        weights = np.array([counts[w] for w in words], dtype=np.float64)
        return words, AliasSampler(weights)

    def negative_sampler(self) -> tuple[np.ndarray, AliasSampler]:
        """Word ids and an alias table over q(w) = p(w)**alpha, full vocabulary."""
        support = np.nonzero(self.word_freq > 0)[0]
        if support.size == 0:
            raise ValidationError("no word frequencies: cannot build negative sampler")
        weights = self.word_freq[support] ** self.alpha
        return support, AliasSampler(weights)


def ingest_counts(
    descriptions: dict[str, list[str]],
    hyperlinks: list[tuple[str, list[str], int]],
    window: int,
    vocab: Vocab,
    entities: Vocab,
    alpha: float = 0.6,
) -> tuple[CooccurrenceCounts, list[str]]:
    """Accumulate counts from description pages and hyperlink windows.

    `descriptions` maps entity name -> token stream; `hyperlinks` holds
    (entity name, token stream, anchor position) triples, of which the
    `window` tokens to each side of the anchor are counted.  Stop words are
    dropped and tokens missing from `vocab` are skipped.  Returns the
    counts and the names of entities left with no resolvable token
    (flagged untrainable).
    """
    if window <= 0:
        raise ValidationError(f"window must be positive, got {window}")
    counts = CooccurrenceCounts(n_words=len(vocab), alpha=alpha)

    def usable(token: str) -> int | None:
        idx = vocab.id(token)
        if idx is None or vocab.is_stop(idx):
            return None
        return idx

    for name, tokens in descriptions.items():
        e = entities.add(name)
        for token in tokens:
            idx = usable(token)
            if idx is not None:
                counts.add(counts.description, e, idx)
    for name, tokens, anchor in hyperlinks:
        if not 0 <= anchor < len(tokens):
            raise ValidationError(
                f"anchor {anchor} outside token stream of length {len(tokens)}")
        e = entities.add(name)
        lo = max(0, anchor - window)
        hi = min(len(tokens), anchor + window + 1)
        for pos in range(lo, hi):
            if pos == anchor:
                continue
            idx = usable(tokens[pos])
            if idx is not None:
                counts.add(counts.hyperlink, e, idx)
    untrainable = [entities.token(e) for e in range(len(entities))
                   if not counts.trainable(e)]
    return counts, untrainable


def hinge_embed(z: np.ndarray, x_pos: np.ndarray, x_neg: np.ndarray,
                gamma: float) -> float:
    """max(0, gamma - <z, x_pos - x_neg>)."""
    return float(max(0.0, gamma - float(np.dot(z, x_pos - x_neg))))


@dataclass
class EmbedTrainConfig:
    gamma: float = 0.1
    positives_per_iter: int = 20
    negatives_per_positive: int = 5
    learning_rate: float = 0.3
    description_iters: int = 400
    hyperlink_iters: int = 200
    window: int = 20
    seed: int = 0
    eval_every: int = 50       # hyperlink-phase iterations between validations
    patience: int = 3          # non-improving validations before stopping

    def __post_init__(self):
        for name in ("gamma", "positives_per_iter", "negatives_per_positive",
                     "learning_rate", "window", "eval_every", "patience"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.description_iters < 0 or self.hyperlink_iters < 0:
            raise ValidationError("iteration counts must be nonnegative")


def init_entity_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Standard-normal components, projected to the unit sphere."""
    z = rng.normal(loc=0.0, scale=1.0, size=dim)
    norm = np.linalg.norm(z)
    while norm == 0.0:  # probability-zero guard
        z = rng.normal(size=dim)
        norm = np.linalg.norm(z)
    return z / norm


class _AdagradSphere:
    """Adaptive-gradient steps with projection back onto the unit sphere."""

    def __init__(self, z: np.ndarray, lr: float):
        self.z = z
        self.lr = lr
        self.accum = np.zeros_like(z)

    def step(self, grad: np.ndarray) -> None:
        self.accum += grad * grad
        denom = np.sqrt(self.accum) + 1e-10
        self.z -= self.lr * grad / denom
        self.z /= np.linalg.norm(self.z)


def _run_phase(opt: _AdagradSphere, words: np.ndarray, pos_alias: AliasSampler,
               neg_words: np.ndarray, neg_alias: AliasSampler,
               word_mat: np.ndarray, cfg: EmbedTrainConfig,
               rng: np.random.Generator, iters: int) -> np.ndarray:
    """`iters` hinge steps of `opt` on sampled (positive, negative) pairs."""
    k = cfg.negatives_per_positive
    for _ in range(iters):
        pos = words[pos_alias.draw(rng, cfg.positives_per_iter)]
        neg = neg_words[neg_alias.draw(rng, cfg.positives_per_iter * k)]
        diffs = word_mat[np.repeat(pos, k)] - word_mat[neg]
        margins = diffs @ opt.z
        violating = margins < cfg.gamma
        if np.any(violating):
            opt.step(-diffs[violating].sum(axis=0))
    return opt.z


def entity_rng(seed: int, entity: int) -> np.random.Generator:
    """Per-entity stream: training order and parallelism cannot change results."""
    return np.random.default_rng([seed, entity])


def train_entity(entity: int, counts: CooccurrenceCounts, cfg: EmbedTrainConfig,
                 store: EmbeddingStore, source: str = "description",
                 iters: int | None = None,
                 z: np.ndarray | None = None) -> np.ndarray:
    """Run one phase of hinge training for a single entity and store the result."""
    if not counts.trainable(entity):
        raise ValidationError(f"entity {entity} is untrainable (no counts)")
    rng = entity_rng(cfg.seed, entity)
    if z is None:
        z = init_entity_vector(rng, store.dim)
    else:
        z = z / np.linalg.norm(z)
    if iters is None:
        iters = cfg.description_iters if source == "description" else cfg.hyperlink_iters
    if counts.counts_for(entity, source):
        words, pos_alias = counts.positive_sampler(entity, source)
        neg_words, neg_alias = counts.negative_sampler()
        z = _run_phase(_AdagradSphere(z, cfg.learning_rate), words, pos_alias,
                       neg_words, neg_alias, store.word_matrix(), cfg, rng, iters)
    store.set_entity_vec(entity, z)
    return z


def train_all_entities(
    counts: CooccurrenceCounts,
    cfg: EmbedTrainConfig,
    store: EmbeddingStore,
    validation: list["RelatednessQuery"] | None = None,
    log=None,
) -> list[int]:
    """Train every trainable entity; returns the skipped (untrainable) ids.

    Phase 1 fits on description counts for a fixed number of iterations.
    Phase 2 fits on hyperlink counts in rounds of `cfg.eval_every`
    iterations; when validation queries are given, the relatedness score is
    evaluated after each round and training stops once it has failed to
    improve `cfg.patience` times, keeping the best-scoring snapshot.
    """
    n = store.n_entities
    skipped = [e for e in range(n) if not counts.trainable(e)]
    trainable = [e for e in range(n) if counts.trainable(e)]
    if log:
        for e in skipped:
            log(f"warning: entity {store.entity_vocab.token(e)} untrainable, skipped")

    for e in trainable:
        train_entity(e, counts, cfg, store)

    # Hyperlink phase, synchronised rounds across entities.
    with_links = [e for e in trainable if counts.counts_for(e, "hyperlink")]
    if not with_links or cfg.hyperlink_iters <= 0:
        return skipped
    neg_words, neg_alias = counts.negative_sampler()
    states = {}
    for e in with_links:
        words, pos_alias = counts.positive_sampler(e, "hyperlink")
        # fresh adaptive accumulator for the new phase
        states[e] = (words, pos_alias, _AdagradSphere(store.entity_vec(e).copy(),
                                                      cfg.learning_rate),
                     entity_rng(cfg.seed + 1, e))
    rounds = max(1, -(-cfg.hyperlink_iters // cfg.eval_every))
    best_score = -np.inf
    best_vecs = None
    bad_rounds = 0
    word_mat = store.word_matrix()
    for _ in range(rounds):
        for e in with_links:
            words, pos_alias, opt, rng = states[e]
            store.set_entity_vec(e, _run_phase(opt, words, pos_alias, neg_words, neg_alias,
                                               word_mat, cfg, rng, cfg.eval_every))
        if validation:
            score = eval_relatedness(validation, store).validation_score
            if score > best_score:
                best_score = score
                best_vecs = store.entity_matrix().copy()
                bad_rounds = 0
            else:
                bad_rounds += 1
                if bad_rounds >= cfg.patience:
                    break
    if validation and best_vecs is not None:
        for e in range(n):
            store.set_entity_vec(e, best_vecs[e])
    return skipped


def empirical_objective(entity: int, z: np.ndarray, counts: CooccurrenceCounts,
                        cfg: EmbedTrainConfig, word_mat: np.ndarray,
                        n_pairs: int = 2000, seed: int = 12345,
                        source: str = "description") -> float:
    """Average hinge over a fixed held-out sample of (positive, negative) pairs."""
    rng = np.random.default_rng([seed, entity])
    words, pos_alias = counts.positive_sampler(entity, source)
    neg_words, neg_alias = counts.negative_sampler()
    pos = words[pos_alias.draw(rng, n_pairs)]
    neg = neg_words[neg_alias.draw(rng, n_pairs)]
    margins = (word_mat[pos] - word_mat[neg]) @ z
    return float(np.maximum(0.0, cfg.gamma - margins).mean())


# -- relatedness evaluation --------------------------------------------


@dataclass
class RelatednessQuery:
    target: int
    candidates: list[tuple[int, int]]  # (entity id, binary label)

    def __post_init__(self):
        labels = {label for _, label in self.candidates}
        if not labels <= {0, 1}:
            raise ValidationError("relatedness labels must be 0 or 1")


@dataclass
class RelatednessResult:
    ndcg1: float
    ndcg5: float
    ndcg10: float
    map: float
    n_queries: int
    excluded: int

    @property
    def validation_score(self) -> float:
        return self.ndcg1 + self.ndcg5 + self.ndcg10 + self.map


def dcg_at_k(relevances: np.ndarray, k: int) -> float:
    rel = np.asarray(relevances, dtype=np.float64)[:k]
    if rel.size == 0:
        return 0.0
    return float(np.sum(rel / np.log2(np.arange(2, rel.size + 2))))


def ndcg_at_k(relevances: np.ndarray, k: int) -> float:
    ideal = dcg_at_k(np.sort(relevances)[::-1], k)
    if ideal == 0.0:
        return 0.0
    return dcg_at_k(relevances, k) / ideal


def average_precision(relevances: np.ndarray) -> float:
    rel = np.asarray(relevances) != 0
    if not rel.any():
        return 0.0
    hits = np.cumsum(rel)
    precisions = hits[rel] / (np.nonzero(rel)[0] + 1)
    return float(precisions.mean())


def rank_by_cosine(store: EmbeddingStore, query: RelatednessQuery) -> np.ndarray:
    """Candidate relevance labels in score order (descending, id tie-break)."""
    target = store.entity_vec(query.target)
    scored = []
    for cand, label in query.candidates:
        vec = store.entity_vec(cand)
        sim = float(np.dot(target, vec) /
                    (np.linalg.norm(target) * np.linalg.norm(vec)))
        scored.append((sim, cand, label))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return np.array([label for _, _, label in scored])


def eval_relatedness(queries: list[RelatednessQuery],
                     store: EmbeddingStore) -> RelatednessResult:
    """NDCG@1/5/10 and MAP of cosine ranking, averaged over usable queries."""
    ndcg1s, ndcg5s, ndcg10s, aps = [], [], [], []
    excluded = 0
    n = store.n_entities
    mat = store.entity_matrix()
    for q in queries:
        ids = [q.target] + [c for c, _ in q.candidates]
        if any(not 0 <= i < n for i in ids):
            excluded += 1
            continue
        if any(np.linalg.norm(mat[i]) == 0.0 for i in ids):
            excluded += 1  # entity present but never embedded
            continue
        labels = {label for _, label in q.candidates}
        if labels != {0, 1}:
            excluded += 1  # a scored query needs both a positive and a negative
            continue
        rels = rank_by_cosine(store, q)
        ndcg1s.append(ndcg_at_k(rels, 1))
        ndcg5s.append(ndcg_at_k(rels, 5))
        ndcg10s.append(ndcg_at_k(rels, 10))
        aps.append(average_precision(rels))
    if not aps:
        raise ValidationError("no usable relatedness queries")
    return RelatednessResult(
        ndcg1=float(np.mean(ndcg1s)),
        ndcg5=float(np.mean(ndcg5s)),
        ndcg10=float(np.mean(ndcg10s)),
        map=float(np.mean(aps)),
        n_queries=len(aps),
        excluded=excluded,
    )


# -- file formats -------------------------------------------------------


def load_counts_file(path: str, vocab: Vocab, entities: Vocab,
                     alpha: float = 0.6,
                     source: str = "description") -> CooccurrenceCounts:
    """Read ``entity \\t word \\t count`` rows; unknown words extend the vocab."""
    counts = CooccurrenceCounts(n_words=len(vocab), alpha=alpha)
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValidationError(f"{path}:{lineno}: expected entity<TAB>word<TAB>count")
            try:
                c = int(parts[2])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad count {parts[2]!r}") from exc
            if c < 0:
                raise ValidationError(f"{path}:{lineno}: negative count")
            rows.append((parts[0], parts[1], c))
    for ent, word, c in rows:
        widx = vocab.id(word)
        if widx is None:
            continue  # words outside the embedded vocabulary cannot be scored
        if widx >= counts.n_words:
            continue
        eidx = entities.add(ent)
        table = counts.description if source == "description" else counts.hyperlink
        counts.add(table, eidx, widx, c)
    return counts


def load_relatedness_queries(path: str, entities: Vocab) -> list[RelatednessQuery]:
    """Read ``target \\t candidate \\t label`` rows grouped by target."""
    grouped: dict[str, list[tuple[str, int]]] = {}
    order: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise ValidationError(
                    f"{path}:{lineno}: expected target<TAB>candidate<TAB>label(0|1)")
            if parts[0] not in grouped:
                grouped[parts[0]] = []
                order.append(parts[0])
            grouped[parts[0]].append((parts[1], int(parts[2])))
    queries = []
    for target in order:
        t = entities.id(target)
        if t is None:
            continue
        cands = [(entities.id(c), label) for c, label in grouped[target]]
        cands = [(c, label) for c, label in cands if c is not None]
        if cands:
            queries.append(RelatednessQuery(target=t, candidates=cands))
    return queries
