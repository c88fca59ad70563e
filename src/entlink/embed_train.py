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

Training is lockstep: every entity of a phase advances one step per
iteration, as one `(E, d)` Adagrad-on-sphere update over `(E, P·k, d)`
gathered sample rows.  Entities run in blocks sized from the fixed byte
budget `BLOCK_BYTES`, so memory does not grow with the knowledge base.
Each entity draws only uniforms, from its own stream `entity_rng(seed, e)`
(`seed + 1` in the hyperlink phase), and turns them into samples through
flat Walker alias tables.  An entity's vector therefore depends only on
its own counts and stream, not on the entity order, the block it shares,
the block size or how the iterations are split into validation rounds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .vectors import EmbeddingStore
from .vocab import Vocab, parse_field, read_rows

# Working memory of one lockstep block: a chunk of uniforms and one
# iteration's gathered word rows per entity.
BLOCK_BYTES = 1 << 21
# Iterations whose uniforms an entity draws with one call.
CHUNK_ITERS = 16


class AliasSampler:
    """Walker alias tables for one or more discrete laws, stored flat.

    Law i owns the cells `offset[i] : offset[i] + size[i]`, and `alias`
    holds flat cell ids, so one uniform u in [0, 1) draws a cell: the cell
    `offset + floor(u·size)`, kept when the fractional part of `u·size` is
    below its threshold and replaced by its alias otherwise.
    """

    def __init__(self, *laws: np.ndarray):
        tables = [_walker(np.asarray(weights, dtype=np.float64)) for weights in laws]
        self.size = np.array([threshold.size for threshold, _ in tables], dtype=np.int64)
        self.offset = np.cumsum(self.size) - self.size
        self.threshold = np.concatenate([threshold for threshold, _ in tables])
        self.alias = np.concatenate([alias + start
                                     for (_, alias), start in zip(tables, self.offset)])

    def lookup(self, u: np.ndarray, law=0) -> np.ndarray:
        """Flat cell drawn by each uniform of `u` under `law` (broadcast)."""
        x = u * self.size[law]
        cells = x.astype(np.int64)
        coins = x - cells
        cells += self.offset[law]
        return np.where(coins < self.threshold[cells], cells, self.alias[cells])


def _walker(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thresholds and aliases of one law: O(n) build."""
    if weights.ndim != 1 or weights.size == 0:
        raise ValidationError("alias table needs a nonempty weight vector")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValidationError("alias weights must be nonnegative with positive sum")
    n = weights.size
    prob = weights * (n / weights.sum())
    threshold = np.ones(n)
    alias = np.arange(n)
    small = [i for i in range(n) if prob[i] < 1.0]
    large = [i for i in range(n) if prob[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        threshold[s] = prob[s]
        alias[s] = l
        prob[l] = prob[l] - (1.0 - prob[s])
        (small if prob[l] < 1.0 else large).append(l)
    return threshold, alias


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

    def total(self, entity: int, source: str) -> int:
        return sum(self.counts_for(entity, source).values())

    def trainable(self, entity: int) -> bool:
        return self.total(entity, "description") + self.total(entity, "hyperlink") > 0

    def positive_sampler(self, entities: list[int],
                         source: str) -> tuple[np.ndarray, AliasSampler]:
        """Flat word ids and one alias law per entity over p(w|e) from the source.

        `entities[i]` draws through law i, whose cells index its words.
        """
        words, weights = [], []
        for e in entities:
            counts = self.counts_for(e, source)
            if not counts:
                raise ValidationError(f"entity {e} has no counts from source {source!r}")
            ids = np.array(sorted(counts), dtype=np.int64)
            words.append(ids)
            weights.append(np.array([counts[w] for w in ids], dtype=np.float64))
        return np.concatenate(words), AliasSampler(*weights)

    def negative_sampler(self) -> tuple[np.ndarray, AliasSampler]:
        """Word ids and an alias table over q(w) = p(w)**alpha, full vocabulary."""
        support = np.nonzero(self.word_freq > 0)[0]
        if support.size == 0:
            raise ValidationError("no word frequencies: cannot build negative sampler")
        weights = self.word_freq[support] ** self.alpha
        return support, AliasSampler(weights)


@dataclass
class EmbedTrainConfig:
    gamma: float = 0.1
    positives_per_iter: int = 20
    negatives_per_positive: int = 5
    learning_rate: float = 0.3
    description_iters: int = 400
    hyperlink_iters: int = 200
    seed: int = 0
    eval_every: int = 50       # hyperlink-phase iterations between validations
    patience: int = 3          # non-improving validations before stopping

    def __post_init__(self):
        for name in ("gamma", "positives_per_iter", "negatives_per_positive",
                     "learning_rate", "eval_every", "patience"):
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


def entity_rng(seed: int, entity: int) -> np.random.Generator:
    """Per-entity stream: training order and batching cannot change results."""
    return np.random.default_rng([seed, entity])


class _Phase:
    """Lockstep hinge training of `entities` on one count source.

    Keeps what lasts between validation rounds: the sample tables, one
    Adagrad accumulator row per entity and the number of steps run.
    """

    def __init__(self, counts: CooccurrenceCounts, cfg: EmbedTrainConfig,
                 store: EmbeddingStore, entities: list[int], source: str, seed: int):
        self.cfg, self.store, self.entities, self.seed = cfg, store, entities, seed
        self.pos_words, self.pos = counts.positive_sampler(entities, source)
        self.neg_words, self.neg = counts.negative_sampler()
        self.accum = np.zeros((len(entities), store.dim))
        self.width = cfg.positives_per_iter * (1 + cfg.negatives_per_positive)
        self.done = 0

    def run(self, iters: int, init: bool = False) -> None:
        """`iters` more steps of every entity, block by block, into the store.

        With `init` an entity starts from `init_entity_vector` on its own
        stream; otherwise from its stored row, with its stream advanced past
        the uniforms of the steps already run (one 64-bit draw each).
        """
        dim = self.store.dim
        block = max(1, BLOCK_BYTES // (8 * self.width * (CHUNK_ITERS + dim)))
        for lo in range(0, len(self.entities), block):
            ids = self.entities[lo:lo + block]
            rngs = [entity_rng(self.seed, e) for e in ids]
            if init:
                z = np.stack([init_entity_vector(rng, dim) for rng in rngs])
            else:
                z = self.store.entity_rows(ids)
                for rng in rngs:
                    rng.bit_generator.advance(self.done * self.width)
            self._steps(z, self.accum[lo:lo + len(ids)], rngs,
                        np.arange(lo, lo + len(ids)), iters)
            for e, row in zip(ids, z):
                self.store.set_entity_vec(e, row)
        self.done += iters

    def _steps(self, z: np.ndarray, accum: np.ndarray, rngs: list,
               laws: np.ndarray, iters: int) -> None:
        """`iters` Adagrad-on-sphere steps of the block rows `z`, in place.

        Each iteration gathers every entity's P positive and P·k negative
        word rows as one `(E, P + P·k, d)` block, scores it against `z`,
        and steps along the summed difference of the violating pairs.
        """
        cfg = self.cfg
        p, k = cfg.positives_per_iter, cfg.negatives_per_positive
        word_mat = self.store.word_matrix()
        n = len(rngs)
        u = np.empty((n, min(iters, CHUNK_ITERS), self.width))
        words = np.empty((n, self.width), dtype=np.int64)
        rows = np.empty((n, self.width, self.store.dim))
        scores = np.empty((n, self.width, 1))
        coef = np.empty((n, 1, self.width))
        grad = np.empty((n, 1, self.store.dim))
        for start in range(0, iters, CHUNK_ITERS):
            m = min(CHUNK_ITERS, iters - start)
            for row, rng in enumerate(rngs):
                rng.random(out=u[row, :m])
            for i in range(m):
                words[:, :p] = self.pos_words[self.pos.lookup(u[:, i, :p], laws[:, None])]
                words[:, p:] = self.neg_words[self.neg.lookup(u[:, i, p:])]
                np.take(word_mat, words, axis=0, out=rows, mode="clip")
                np.matmul(rows, z[:, :, None], out=scores)
                hit = (scores[:, :p] - scores[:, p:, 0].reshape(n, p, k)) < cfg.gamma
                # grad = sum over violating pairs of (negative row - positive row)
                coef[:, 0, :p] = -hit.sum(axis=2)
                coef[:, 0, p:] = hit.reshape(n, p * k)
                np.matmul(coef, rows, out=grad)
                g = grad[:, 0]
                accum += g * g
                z -= cfg.learning_rate * g / (np.sqrt(accum) + 1e-10)
                # rows without a violating pair took no step and stay as they are
                z /= np.where(hit.any(axis=(1, 2)), np.linalg.norm(z, axis=1), 1.0)[:, None]


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
    iterations, the last round running only the remainder; when validation
    queries are given, the relatedness score is evaluated and logged after
    each round and training stops once it has failed to improve
    `cfg.patience` times, keeping the best-scoring snapshot.
    """
    n = store.n_entities
    skipped = [e for e in range(n) if not counts.trainable(e)]
    trainable = [e for e in range(n) if counts.trainable(e)]
    if log:
        for e in skipped:
            log(f"warning: entity {store.entity_vocab.token(e)} untrainable, skipped")

    described = [e for e in trainable if counts.total(e, "description") > 0]
    for e in sorted(set(trainable) - set(described)):
        store.set_entity_vec(e, init_entity_vector(entity_rng(cfg.seed, e), store.dim))
    if described:
        _Phase(counts, cfg, store, described, "description", cfg.seed).run(
            cfg.description_iters, init=True)

    with_links = [e for e in trainable if counts.total(e, "hyperlink") > 0]
    if not with_links or cfg.hyperlink_iters <= 0:
        return skipped
    phase = _Phase(counts, cfg, store, with_links, "hyperlink", cfg.seed + 1)
    best_score = -np.inf
    best_vecs = None
    bad_rounds = 0
    for round_, start in enumerate(range(0, cfg.hyperlink_iters, cfg.eval_every), 1):
        phase.run(min(cfg.eval_every, cfg.hyperlink_iters - start))
        if not validation:
            continue
        score = eval_relatedness(validation, store).validation_score
        if score > best_score:
            best_score = score
            best_vecs = store.entity_matrix().copy()
            bad_rounds = 0
        else:
            bad_rounds += 1
        if log:
            log(f"hyperlink round {round_}: relatedness {score:.4f}, "
                f"best {best_score:.4f}, bad rounds {bad_rounds}/{cfg.patience}")
        if bad_rounds >= cfg.patience:
            break
    if best_vecs is not None:
        for e in range(n):
            store.set_entity_vec(e, best_vecs[e])
    return skipped


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
    for where, (ent, word, raw) in read_rows(path, "entity<TAB>word<TAB>count"):
        c = parse_field(int, raw, f"{where}: bad count")
        if c < 0:
            raise ValidationError(f"{where}: negative count")
        rows.append((ent, word, c))
    # every row is checked before the vocabulary grows
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
    layout = "target<TAB>candidate<TAB>label(0|1)"
    grouped: dict[str, list[tuple[str, int]]] = {}
    for where, (target, candidate, label) in read_rows(path, layout):
        if label not in ("0", "1"):
            raise ValidationError(f"{where}: expected {layout}")
        grouped.setdefault(target, []).append((candidate, int(label)))
    queries = []
    for target in grouped:
        t = entities.id(target)
        if t is None:
            continue
        cands = [(entities.id(c), label) for c, label in grouped[target]]
        cands = [(c, label) for c, label in cands if c is not None]
        if cands:
            queries.append(RelatednessQuery(target=t, candidates=cands))
    return queries
