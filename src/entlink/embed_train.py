"""Entity vector training from word co-occurrence counts.

Each entity gets an independent unit vector fitted so that words drawn
from its co-occurrence distribution score higher (by dot product) than
words drawn from a smoothed unigram distribution, under a hinge with
margin gamma.  Updates are adaptive-gradient steps followed by projection
back onto the unit sphere.

Counts come from two sources: the entity's description page and fixed-size
token windows around hyperlink anchors.  A source is one `CountTable`,
`CooccurrenceCounts.description` or `.hyperlink`: three aligned int64
arrays (entity, word, count) sorted by pair, each pair once, built in one
pass by `CountTable.of` and never changed.  The loader returns one, and
each training phase draws from one.  Training runs the description phase
first, then the hyperlink phase with early stopping on a relatedness
validation score.

Training is lockstep: every entity of a phase advances one step per
iteration, as one `(E, d)` Adagrad-on-sphere update over `(E, P + P·k, d)`
gathered sample rows (P = `POSITIVES`, k = `NEGATIVES_PER_POSITIVE`).
Entities run in blocks sized from the fixed byte budget `BLOCK_BYTES`, so
memory does not grow with the knowledge base.
Each entity draws only uniforms, from its own stream `entity_rng(seed, e)`
(`seed + 1` in the hyperlink phase), and turns them into samples through
flat Walker alias tables.  An entity's vector therefore depends only on
its own counts and stream, not on the entity order, the block it shares,
the block size or how the iterations are split into validation rounds.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, ValidationError
from .vectors import EmbeddingStore
from .vocab import Vocab, parse_field, read_rows

# Working memory of one lockstep block: a chunk of uniforms and one
# iteration's gathered word rows per entity.
BLOCK_BYTES = 1 << 21
# Iterations whose uniforms an entity draws with one call.
CHUNK_ITERS = 16
# Words an entity draws per iteration: POSITIVES from its counts, each with
# NEGATIVES_PER_POSITIVE from the smoothed unigram law.
POSITIVES = 20
NEGATIVES_PER_POSITIVE = 5


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


@dataclass(frozen=True)
class CountTable:
    """The co-occurrence counts of one source: row i counts `word[i]` near
    `entity[i]` `count[i]` times.

    Rows are sorted by (entity, word) and each pair appears once, its counts
    summed; a pair counted 0 keeps its row, a weight-0 cell of its law.
    """

    entity: np.ndarray
    word: np.ndarray
    count: np.ndarray

    @classmethod
    def of(cls, entities=(), words=(), counts=()) -> CountTable:
        """The table of the rows `(entities[i], words[i], counts[i])`, in any order."""
        e, w, c = (np.asarray(column, dtype=np.int64) for column in (entities, words, counts))
        if np.any(c < 0):
            raise ValidationError("counts must be nonnegative")
        order = np.lexsort((w, e))
        e, w, c = e[order], w[order], c[order]
        # row i starts a pair unless it repeats row i - 1's pair; row 0 starts one
        first = np.flatnonzero(np.diff(e, prepend=e[:1] - 1) | np.diff(w, prepend=w[:1]))
        return cls(e[first], w[first], np.add.reduceat(c, first) if c.size else c)

    def positive_sampler(self, entities: list[int]) -> tuple[np.ndarray, AliasSampler]:
        """Flat word ids and one alias law per entity over p(w|e).

        `entities[i]` draws through law i, whose cells index its words.
        """
        lo, hi = (np.searchsorted(self.entity, entities, side) for side in ("left", "right"))
        if np.any(lo == hi):
            e = entities[np.argmax(lo == hi)]
            raise ValidationError(f"entity {e} has no counts in this table")
        return (np.concatenate([self.word[a:b] for a, b in zip(lo, hi)]),
                AliasSampler(*(self.count[a:b] for a, b in zip(lo, hi))))


@dataclass
class CooccurrenceCounts:
    """Word-entity counts split by source, plus the global word frequencies.

    The word frequencies p(w) give the negative law (`negative_sampler`);
    unless given, they are the counts of both tables summed per word.
    """

    n_words: int
    description: CountTable = field(default_factory=CountTable.of)
    hyperlink: CountTable = field(default_factory=CountTable.of)
    word_freq: np.ndarray | None = None

    def __post_init__(self):
        if self.word_freq is None:
            self.word_freq = np.zeros(self.n_words, dtype=np.float64)
            for table in (self.description, self.hyperlink):
                self.word_freq += np.bincount(table.word, table.count, self.n_words)

    def negative_sampler(self, alpha: float) -> tuple[np.ndarray, AliasSampler]:
        """Word ids and an alias table over the smoothed unigram
        q(w) proportional to p(w)**alpha, full vocabulary."""
        support = np.nonzero(self.word_freq > 0)[0]
        if support.size == 0:
            raise ValidationError("no word frequencies: cannot build negative sampler")
        weights = self.word_freq[support] ** alpha
        return support, AliasSampler(weights)


@dataclass
class EmbedTrainConfig:
    """Built by `experiment.stage_objects`; only `train-embeddings` sets
    `hyperlink_iters`, `eval_every` and `patience`, from its flags."""

    alpha: float = 0.6         # smoothing exponent of the negative law
    gamma: float = 0.1
    learning_rate: float = 0.3
    description_iters: int = 400
    hyperlink_iters: int = 200
    seed: int = 0
    eval_every: int = 50       # hyperlink-phase iterations between validations
    patience: int = 3          # non-improving validations before stopping

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise FieldError("alpha", f"smoothing exponent must be in (0,1), got {self.alpha}")
        for name in ("gamma", "learning_rate", "eval_every", "patience"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise FieldError(name, f"{name} must be positive, got {getattr(self, name)}")
        for name in ("description_iters", "hyperlink_iters"):
            if getattr(self, name) < 0:
                raise FieldError(name, f"{name} must be nonnegative, got {getattr(self, name)}")


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
    """Lockstep hinge training of `entities` on one count table.

    Keeps what lasts between validation rounds: the sample tables, one
    Adagrad accumulator row per entity and the number of steps run.
    """

    def __init__(self, counts: CooccurrenceCounts, cfg: EmbedTrainConfig,
                 store: EmbeddingStore, entities: list[int], table: CountTable, seed: int):
        self.cfg, self.store, self.entities, self.seed = cfg, store, entities, seed
        self.pos_words, self.pos = table.positive_sampler(entities)
        self.neg_words, self.neg = counts.negative_sampler(cfg.alpha)
        self.accum = np.zeros((len(entities), store.dim))
        self.width = POSITIVES * (1 + NEGATIVES_PER_POSITIVE)
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
            self.store.set_entity_rows(ids, z)
        self.done += iters

    def _steps(self, z: np.ndarray, accum: np.ndarray, rngs: list,
               laws: np.ndarray, iters: int) -> None:
        """`iters` Adagrad-on-sphere steps of the block rows `z`, in place.

        Each iteration gathers every entity's P positive and P·k negative
        word rows as one `(E, P + P·k, d)` block, scores it against `z`,
        and steps along the summed difference of the violating pairs.
        """
        cfg = self.cfg
        p, k = POSITIVES, NEGATIVES_PER_POSITIVE
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
    # the ids of the store whose counts in a table sum above 0, ascending
    described, linked = (np.flatnonzero(np.bincount(t.entity, t.count, n)[:n] > 0).tolist()
                         for t in (counts.description, counts.hyperlink))
    skipped = sorted(set(range(n)) - set(described) - set(linked))
    if log:
        for e in skipped:
            log(f"warning: entity {store.entity_vocab.token(e)} untrainable, skipped")

    linked_only = sorted(set(linked) - set(described))
    store.set_entity_rows(linked_only, [
        init_entity_vector(entity_rng(cfg.seed, e), store.dim) for e in linked_only])
    if described:
        _Phase(counts, cfg, store, described, counts.description, cfg.seed).run(
            cfg.description_iters, init=True)

    if not linked or cfg.hyperlink_iters <= 0:
        return skipped
    phase = _Phase(counts, cfg, store, linked, counts.hyperlink, cfg.seed + 1)
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
        store.set_entity_rows(np.arange(n), best_vecs)
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


# word frequencies add counts up as float64, exact for integers up to here
MAX_COUNT = 2 ** 53


def load_counts_file(path: str, vocab: Vocab, entities: Vocab) -> CountTable:
    """The table of a file of ``entity \\t word \\t count`` rows.

    Rows of words outside `vocab` are skipped; unknown entities join
    `entities` in file order.  A bad row leaves `entities` unchanged.
    """
    names: dict[str, int] = {}  # entity name -> its position among the file's names
    ents, words, counts = array("q"), array("q"), array("q")
    for where, (ent, word, raw) in read_rows(path, "entity<TAB>word<TAB>count"):
        c = parse_field(int, raw, f"{where}: bad count")
        if c < 0:
            raise ValidationError(f"{where}: negative count")
        if c > MAX_COUNT:
            raise ValidationError(f"{where}: count above 2**53")
        w = vocab.id(word)
        if w is not None:  # words outside the embedded vocabulary cannot be scored
            ents.append(names.setdefault(ent, len(names)))
            words.append(w)
            counts.append(c)
    if sum(counts) >= 2 ** 63:  # a pair's int64 sum could wrap
        raise ValidationError(f"{path}: counts sum to 2**63 or more")
    # every row is checked before the vocabulary grows
    ids = np.array([entities.add(name) for name in names], dtype=np.int64)
    return CountTable.of(ids[np.frombuffer(ents, dtype=np.int64)], words, counts)


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
