"""Desk-scale synthetic benchmark for the full pipeline.

The knowledge base splits into topics.  Every entity's signature mixes
words shared across its topic with private words, so entities of one topic
have overlapping co-occurrence support (which is what makes their trained
vectors similar) while staying individually identifiable.  Surface forms
are ambiguous between entities of distinct topics with a skewed prior;
documents pick a topic and draw gold entities coherently with a
configurable probability, so joint inference has signal that local
scoring lacks.  Context windows mix gold-signature words with noise words,
and a configurable fraction of mentions gets a pure-noise (weak) context.

Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .docs import Corpus, Document, Mention, save_corpus
from .embed_train import CooccurrenceCounts, RelatednessQuery
from .errors import ValidationError
from .priors import PriorIndex, PriorSource, build_prior, save_prior
from .vectors import EmbeddingStore, save_vectors_text
from .vocab import write_rows

SIGNATURE_COUNT = 20     # co-occurrence count per signature word
NOISE_POOL_MIN = 50
PRIOR_RATIO = 0.55       # prior mass of rank k+1 relative to rank k
PRIOR_SCALE = 1500       # skew masses are materialised as integer counts
SPLITS = (0.5, 0.2, 0.3)  # train, validation and test shares of the documents

# The data-directory layout: what each file holds -> its name.  The generator
# writes it, and the CLI and `run_experiment` read corpora and resources from it.
DATA_FILES = {
    "word_vectors": "word_vectors.txt",
    "counts": "counts.tsv",
    "word_freq": "word_freq.tsv",
    "prior": "prior.tsv",
    "queries": "queries.tsv",
    "signatures": "signatures.tsv",
    "entity_freq": "entity_freq.tsv",
    "train": "corpus_train.jsonl",
    "validation": "corpus_validation.jsonl",
    "test": "corpus_test.jsonl",
}


@dataclass
class SyntheticSpec:
    kb_size: int = 200
    words_per_entity: int = 8
    vocab_size: int = 1400
    n_docs: int = 160
    mentions_per_doc: int = 6
    ambiguity: int = 4
    coherence: float = 0.9
    noise_rate: float = 0.5
    seed: int = 0
    n_topics: int = 4
    dim: int = 16
    ctx_per_side: int = 8
    weak_context_rate: float = 0.25

    def __post_init__(self):
        for name in ("kb_size", "words_per_entity", "vocab_size", "n_docs",
                     "mentions_per_doc", "ambiguity", "n_topics", "dim",
                     "ctx_per_side"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if not 0.0 <= self.coherence <= 1.0:
            raise ValidationError("coherence must be in [0, 1]")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValidationError("noise rate must be in [0, 1]")
        if not 0.0 <= self.weak_context_rate <= 1.0:
            raise ValidationError("weak context rate must be in [0, 1]")
        if self.ambiguity > self.kb_size:
            raise ValidationError("ambiguity degree cannot exceed the KB size")
        if self.kb_size % self.ambiguity != 0:
            raise ValidationError("kb_size must be divisible by the ambiguity degree")
        needed = (self.n_topics * self.topic_pool_size
                  + self.kb_size * self.private_per_entity + NOISE_POOL_MIN)
        if needed > self.vocab_size:
            raise ValidationError(
                f"signature words exceed vocabulary: need >= {needed}, "
                f"have {self.vocab_size}")

    @property
    def shared_per_entity(self) -> int:
        # heavy sharing: same-topic entities must have overlapping
        # co-occurrence support for their trained vectors to correlate
        return max(1, (3 * self.words_per_entity) // 4)

    @property
    def private_per_entity(self) -> int:
        return self.words_per_entity - self.shared_per_entity

    @property
    def topic_pool_size(self) -> int:
        return max(self.shared_per_entity + 1, (4 * self.shared_per_entity) // 3)


@dataclass
class SyntheticData:
    spec: SyntheticSpec
    store: EmbeddingStore            # word vectors loaded; entities untrained
    train: Corpus
    validation: Corpus
    test: Corpus
    counts: CooccurrenceCounts
    prior: PriorIndex
    queries: list[RelatednessQuery]
    signatures: dict[int, set[int]]  # entity id -> signature word ids
    topics: dict[int, int]           # entity id -> topic
    noise_words: set[int] = field(default_factory=set)
    entity_freq: dict[int, int] = field(default_factory=dict)

    @property
    def corpora(self) -> dict[str, Corpus]:
        return {"train": self.train, "validation": self.validation,
                "test": self.test}


def _prior_masses(ambiguity: int) -> np.ndarray:
    masses = PRIOR_RATIO ** np.arange(ambiguity)
    return masses / masses.sum()


def generate_synthetic(spec: SyntheticSpec) -> SyntheticData:
    rng = np.random.default_rng(spec.seed)
    shared_per_entity = spec.shared_per_entity
    private_per_entity = spec.private_per_entity
    pool_size = spec.topic_pool_size

    # orthonormal topic centres
    basis = np.linalg.qr(rng.normal(size=(spec.dim, spec.dim)))[0]
    centers = basis[: spec.n_topics]

    # rows in id order, appended at once: each append copies the whole table
    word_names: list[str] = []
    word_rows: list[np.ndarray] = []

    def add_word(name: str, base: np.ndarray | None, spread: float = 0.6) -> int:
        if base is None:
            v = rng.normal(size=spec.dim)
        else:
            v = base + spread * rng.normal(size=spec.dim)
        word_names.append(name)
        word_rows.append(v / np.linalg.norm(v))
        return len(word_names) - 1

    topic_pools = []
    for topic in range(spec.n_topics):
        topic_pools.append([add_word(f"t{topic}w{i}", centers[topic])
                            for i in range(pool_size)])

    topics = {e: e % spec.n_topics for e in range(spec.kb_size)}
    signatures: dict[int, set[int]] = {}
    private_words: dict[int, list[int]] = {}
    for e in range(spec.kb_size):
        topic = topics[e]
        own = [add_word(f"p{e}w{i}", centers[topic])
               for i in range(private_per_entity)]
        shared = rng.choice(topic_pools[topic], size=shared_per_entity,
                            replace=False)
        private_words[e] = own
        signatures[e] = set(own) | {int(w) for w in shared}

    # Noise words are plausible but uninformative: most lean toward some
    # random topic (so they draw real attention mass and bias whichever
    # candidate shares that topic), the rest are unstructured.
    n_noise = spec.vocab_size - len(word_names)
    noise_words = set()
    for i in range(n_noise):
        if rng.random() < 0.75:
            center = centers[int(rng.integers(spec.n_topics))]
            noise_words.add(add_word(f"n{i}", center, spread=1.1))
        else:
            noise_words.add(add_word(f"n{i}", None))
    store = EmbeddingStore(spec.dim)
    store.add_words(word_names, word_rows)
    store.freeze_words()
    word_vocab = store.word_vocab

    entity_vocab = store.entity_vocab
    for e in range(spec.kb_size):
        entity_vocab.add(f"E{e:03d}")
    store.sync_entities()  # placeholder unit rows; real training replaces them

    counts = CooccurrenceCounts(n_words=len(word_vocab))
    for e in range(spec.kb_size):
        for w in sorted(signatures[e]):
            counts.add(counts.description, e, w, SIGNATURE_COUNT)

    # surfaces: consecutive entity blocks, candidates spanning topics,
    # prior rank order shuffled per surface
    n_surfaces = spec.kb_size // spec.ambiguity
    masses = _prior_masses(spec.ambiguity)
    surface_entities: dict[int, list[int]] = {}
    count_table: dict[str, list[tuple[int, float]]] = {}
    entity_freq: dict[int, int] = {}
    for s in range(n_surfaces):
        cands = list(range(s * spec.ambiguity, (s + 1) * spec.ambiguity))
        order = rng.permutation(spec.ambiguity)
        surface_entities[s] = cands
        row = [
            (cands[int(order[k])], float(max(1, round(PRIOR_SCALE * masses[k]))))
            for k in range(spec.ambiguity)
        ]
        count_table[_surface_name(s)] = row
        for e, c in row:
            entity_freq[e] = entity_freq.get(e, 0) + int(c)
    prior = build_prior([PriorSource(count_table)])

    # documents
    noise_list = sorted(noise_words)
    docs = []
    eligible_by_topic = {
        topic: [s for s in range(n_surfaces)
                if any(topics[e] == topic for e in surface_entities[s])]
        for topic in range(spec.n_topics)
    }
    for d in range(spec.n_docs):
        topic = int(rng.integers(spec.n_topics))
        tokens: list[str] = []
        mentions: list[Mention] = []
        for _ in range(spec.mentions_per_doc):
            coherent = rng.random() < spec.coherence
            if coherent:
                s = int(rng.choice(eligible_by_topic[topic]))
                gold_options = [e for e in surface_entities[s]
                                if topics[e] == topic]
                gold = int(rng.choice(gold_options))
            else:
                s = int(rng.integers(n_surfaces))
                dist = prior.lookup(_surface_name(s))
                probs = np.array([p for _, p in dist])
                gold = int(np.array([e for e, _ in dist])[
                    rng.choice(len(dist), p=probs / probs.sum())])
            weak = rng.random() < spec.weak_context_rate
            sig = sorted(signatures[gold])

            def ctx_tokens() -> list[str]:
                out = []
                for _ in range(spec.ctx_per_side):
                    if weak or rng.random() < spec.noise_rate:
                        out.append(word_vocab.token(
                            noise_list[int(rng.integers(len(noise_list)))]))
                    else:
                        out.append(word_vocab.token(
                            sig[int(rng.integers(len(sig)))]))
                return out

            tokens.extend(ctx_tokens())
            pos = len(tokens)
            tokens.append(_surface_name(s))
            mentions.append(Mention(start=pos, end=pos + 1,
                                    surface=_surface_name(s),
                                    gold=entity_vocab.token(gold), gold_id=gold))
            tokens.extend(ctx_tokens())
        doc = Document(doc_id=f"doc{d:04d}", tokens=tokens, mentions=mentions)
        doc.validate()
        docs.append(doc)

    n_train = int(round(SPLITS[0] * spec.n_docs))
    n_val = int(round(SPLITS[1] * spec.n_docs))
    train = Corpus(docs[:n_train], split="train")
    validation = Corpus(docs[n_train:n_train + n_val], split="validation")
    test = Corpus(docs[n_train + n_val:], split="test")

    # relatedness queries: same-topic pairs positive, cross-topic negative
    queries = []
    n_queries = min(60, spec.kb_size)
    q_targets = rng.choice(spec.kb_size, size=n_queries, replace=False)
    for target in sorted(int(t) for t in q_targets):
        topic = topics[target]
        same = [e for e in range(spec.kb_size) if topics[e] == topic and e != target]
        other = [e for e in range(spec.kb_size) if topics[e] != topic]
        # 8 of 40 positive: random rankings then sit near the label ratio
        n_pos = min(8, len(same))
        n_neg = min(32, len(other))
        if n_pos == 0 or n_neg == 0:
            continue
        pos = rng.choice(same, size=n_pos, replace=False)
        neg = rng.choice(other, size=n_neg, replace=False)
        cands = [(int(e), 1) for e in pos] + [(int(e), 0) for e in neg]
        queries.append(RelatednessQuery(target=target, candidates=cands))

    return SyntheticData(spec=spec, store=store, train=train,
                         validation=validation, test=test, counts=counts,
                         prior=prior, queries=queries, signatures=signatures,
                         topics=topics, noise_words=noise_words,
                         entity_freq=entity_freq)


def _surface_name(s: int) -> str:
    return f"m{s:03d}"


def write_synthetic(data: SyntheticData, out_dir: str) -> dict[str, str]:
    """Materialise the generated benchmark as pipeline input files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store = data.store
    words = [store.word_vocab.token(i) for i in range(store.n_words)]
    paths = {key: str(out / name) for key, name in DATA_FILES.items()}
    save_vectors_text(paths["word_vectors"], words, store.word_matrix())
    entities = store.entity_vocab
    write_rows(paths["counts"], None,
               ((entities.token(e), words[w], c) for e in range(store.n_entities)
                for w, c in sorted(data.counts.description.get(e, {}).items())))
    write_rows(paths["word_freq"], None,
               ((w, int(data.counts.word_freq[i])) for i, w in enumerate(words)))
    write_rows(paths["entity_freq"], None,
               ((entities.token(e), data.entity_freq[e]) for e in sorted(data.entity_freq)))
    save_prior(paths["prior"], data.prior, entities)
    write_rows(paths["queries"], None,
               ((entities.token(q.target), entities.token(cand), label)
                for q in data.queries for cand, label in q.candidates))
    write_rows(paths["signatures"], None,
               ((entities.token(e), words[w]) for e in sorted(data.signatures)
                for w in sorted(data.signatures[e])))
    for split in ("train", "validation", "test"):
        save_corpus(paths[split], data.corpora[split])
    return paths
