"""Seeded generator for the paper-scale inputs of `infer-paper`.

Everything here belongs to the benchmark, not to entlink: the program only
receives what this module generates.  It writes a word-vector file, an
entity-vector file and an untrained joint model in the formats `entlink
predict` reads, and builds documents whose mentions already carry their
candidate sets and context word ids.

Sizes follow the paper: d=300, S=7 candidates, K=100 context words, R=25
attended words, T=10 message-passing layers.  Document lengths run from 3
to 60 mentions with a mean of 19.4, the mentions per document of the
AIDA-CoNLL test set the paper reports on (4,485 mentions in 231
documents).  Only that mean is published, not the per-document
histogram, so the shape between the bounds is chosen: a power of a
uniform variable, which puts most documents at a few mentions and keeps
a long tail (one in six has 40 or more), because the pairwise work of the
joint model grows as n^2 S^2 per document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from entlink.crf import GlobalParams
from entlink.docs import Document, Mention
from entlink.model_io import save_model
from entlink.priors import Candidate
from entlink.vectors import save_vectors_binary

WORDS_FILE = "words.vec"
ENTITIES_FILE = "entities.vec"
MODEL_FILE = "global.model"


@dataclass(frozen=True)
class PaperScale:
    dim: int = 300
    s: int = 7
    k: int = 100
    r: int = 25
    t: int = 10
    delta: float = 0.5
    hidden: int = 100
    n_topics: int = 30
    entities_per_topic: int = 40
    words_per_entity: int = 2
    noise_words: int = 600
    min_mentions: int = 3
    max_mentions: int = 60
    mean_mentions: float = 19.4    # AIDA-CoNLL test: 4,485 mentions / 231 documents
    gold_top_prior: float = 0.6    # share of mentions whose gold has the top prior
    same_topic_distractors: int = 3

    @property
    def n_entities(self) -> int:
        return self.n_topics * self.entities_per_topic


SMOKE_SCALE = PaperScale(n_topics=4, entities_per_topic=10, noise_words=40,
                         max_mentions=8, mean_mentions=5.0)


@dataclass
class PaperData:
    """Files on disk plus the documents that reference their ids."""

    directory: Path
    scale: PaperScale
    docs: list[Document] = field(default_factory=list)
    word_names: list[str] = field(default_factory=list)
    entity_names: list[str] = field(default_factory=list)

    @property
    def words_path(self) -> str:
        return str(self.directory / WORDS_FILE)

    @property
    def entities_path(self) -> str:
        return str(self.directory / ENTITIES_FILE)

    @property
    def model_path(self) -> str:
        return str(self.directory / MODEL_FILE)


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def doc_lengths(rng: np.random.Generator, scale: PaperScale, n_docs: int) -> list[int]:
    """Mention counts at evenly spaced quantiles of min + span * u^p, shuffled.

    u is uniform on [0, 1]; p = span / (mean - min) - 1 gives the scale's
    mean.  Every seed gets the same multiset of lengths, so the pairwise
    work per pass does not depend on the seed; only contents and order do.
    """
    span = scale.max_mentions - scale.min_mentions
    power = span / (scale.mean_mentions - scale.min_mentions) - 1.0
    lengths = [scale.min_mentions + int(round(span * ((i + 0.5) / n_docs) ** power))
               for i in range(n_docs)]
    return [lengths[i] for i in rng.permutation(n_docs)]


def generate(seed: int, directory: Path, n_docs: int,
             scale: PaperScale = PaperScale()) -> PaperData:
    """Write the store and an untrained model under `directory`; build `n_docs` documents."""
    rng = np.random.default_rng(seed)
    d = scale.dim
    n_ent = scale.n_entities
    topic_of = np.repeat(np.arange(scale.n_topics), scale.entities_per_topic)

    centres = _unit(rng.normal(size=(scale.n_topics, d)))
    entities = _unit(centres[topic_of] + 0.8 * _unit(rng.normal(size=(n_ent, d))))
    signature = _unit(np.repeat(entities, scale.words_per_entity, axis=0)
                      + 0.5 * _unit(rng.normal(size=(n_ent * scale.words_per_entity, d))))
    noise = _unit(rng.normal(size=(scale.noise_words, d)))
    words = np.vstack([signature, noise])

    data = PaperData(directory=directory, scale=scale)
    data.entity_names = [f"E{e}_t{topic_of[e]}" for e in range(n_ent)]
    data.word_names = [f"w{i}" for i in range(words.shape[0])]
    directory.mkdir(parents=True, exist_ok=True)
    save_vectors_binary(data.words_path, data.word_names, words)
    save_vectors_binary(data.entities_path, data.entity_names, entities)

    params = GlobalParams.init(d, hidden=scale.hidden, k=scale.k, r=scale.r,
                               delta=scale.delta, t=scale.t)
    params.local.a = 1.0 + 0.05 * rng.normal(size=d)
    params.local.b = 1.0 + 0.05 * rng.normal(size=d)
    params.c = 1.0 + 0.05 * rng.normal(size=d)
    save_model(data.model_path, params, extra={"generator_seed": seed})

    n_signature = n_ent * scale.words_per_entity
    by_topic = [np.flatnonzero(topic_of == t) for t in range(scale.n_topics)]
    for doc_index, n in enumerate(doc_lengths(rng, scale, n_docs)):
        topic = int(rng.integers(scale.n_topics))
        mentions = []
        for pos in range(n):
            gold = int(rng.choice(by_topic[topic]))
            mentions.append(_mention(rng, scale, pos, gold, topic, by_topic,
                                     n_signature, data.entity_names))
        data.docs.append(Document(doc_id=f"doc{doc_index}",
                                  tokens=[m.surface for m in mentions],
                                  mentions=mentions))
    return data


def _mention(rng: np.random.Generator, scale: PaperScale, pos: int, gold: int,
             topic: int, by_topic: list[np.ndarray], n_signature: int,
             entity_names: list[str]) -> Mention:
    n_ent = scale.n_entities
    same = by_topic[topic][by_topic[topic] != gold]
    distractors = list(rng.choice(same, size=scale.same_topic_distractors, replace=False))
    while len(distractors) < scale.s - 1:
        e = int(rng.integers(n_ent))
        if e != gold and e not in distractors:
            distractors.append(e)
    priors = np.sort(rng.dirichlet(np.full(scale.s, 0.6)))[::-1]
    gold_rank = 0 if rng.random() < scale.gold_top_prior else int(rng.integers(1, scale.s))
    order = [int(e) for e in distractors]
    order.insert(gold_rank, gold)
    candidates = [Candidate(entity=e, prior=float(p), reason="prior-top")
                  for e, p in zip(order, priors)]

    # context: the gold's signature words, words of its topic, then noise
    n_gold = int(rng.integers(5, 30))
    n_topic = int(rng.integers(10, 30))
    topic_words = (by_topic[topic][:, None] * scale.words_per_entity
                   + np.arange(scale.words_per_entity)).ravel()
    context = np.concatenate([
        gold * scale.words_per_entity + rng.integers(scale.words_per_entity, size=n_gold),
        rng.choice(topic_words, size=n_topic),
        n_signature + rng.integers(scale.noise_words, size=scale.k - n_gold - n_topic),
    ])
    rng.shuffle(context)
    return Mention(start=pos, end=pos + 1, surface=f"m{pos}",
                   gold=entity_names[gold], gold_id=gold,
                   candidates=candidates, context=[int(w) for w in context])


def length_histogram(docs: list[Document], edges=(3, 10, 20, 30, 40, 50, 61)) -> dict[str, int]:
    """Document counts per mention-count bucket [lo, hi)."""
    counts = np.histogram([len(doc.mentions) for doc in docs], bins=edges)[0]
    return {f"{lo}-{hi - 1}": int(c) for lo, hi, c in zip(edges[:-1], edges[1:], counts)}
