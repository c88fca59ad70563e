"""Reference pieces for the entity-embedding tests.

The hinge, a held-out objective, the unit-norm check and a count table of
`Counter`s are written out here as plain oracles; `train_entity` fits one
entity alone through `train_all_entities`, on counts `restricted` to it.
"""

from collections import Counter
from dataclasses import replace

import numpy as np

from entlink.embed_train import CooccurrenceCounts, CountTable, train_all_entities
from entlink.errors import ValidationError
from entlink.vectors import ENTITY_NORM_TOL


def hinge_embed(z, x_pos, x_neg, gamma) -> float:
    """max(0, gamma - <z, x_pos - x_neg>)."""
    return float(max(0.0, gamma - float(np.dot(z, x_pos - x_neg))))


def empirical_objective(entity, z, counts, cfg, word_mat, n_pairs=2000, seed=12345) -> float:
    """Average hinge over a fixed held-out sample of (positive, negative)
    pairs, the positives drawn from the description counts."""
    rng = np.random.default_rng([seed, entity])
    words, pos_alias = counts.description.positive_sampler([entity])
    neg_words, neg_alias = counts.negative_sampler(cfg.alpha)
    pos = words[pos_alias.lookup(rng.random(n_pairs))]
    neg = neg_words[neg_alias.lookup(rng.random(n_pairs))]
    margins = (word_mat[pos] - word_mat[neg]) @ z
    return float(np.maximum(0.0, cfg.gamma - margins).mean())


def check_entity_norms(store) -> None:
    """Raise unless every entity row has unit norm."""
    norms = np.linalg.norm(store.entity_matrix(), axis=1)
    bad = np.nonzero(np.abs(norms - 1.0) > ENTITY_NORM_TOL)[0]
    if bad.size:
        raise ValidationError(
            f"entity {int(bad[0])} has norm {norms[bad[0]]:.9f}, expected 1")


def restricted(counts, entities) -> CooccurrenceCounts:
    """`counts` without the co-occurrences of entities outside `entities`.

    The word frequencies, and so the negative law, stay those of `counts`.
    """
    def keep(table):
        rows = np.isin(table.entity, list(entities))
        return CountTable.of(table.entity[rows], table.word[rows], table.count[rows])

    return CooccurrenceCounts(n_words=counts.n_words,
                              description=keep(counts.description),
                              hyperlink=keep(counts.hyperlink),
                              word_freq=counts.word_freq)


def reference_table(rows) -> dict[int, Counter]:
    """Entity id -> (word id -> summed count) of `(entity, word, count)` rows,
    a pair counted 0 kept as a key of its entity's `Counter`."""
    table: dict[int, Counter] = {}
    for e, w, c in rows:
        table.setdefault(int(e), Counter())[int(w)] += int(c)
    return table


def reference_rows(table: dict[int, Counter]) -> list[tuple[int, int, int]]:
    """The `(entity, word, count)` rows of a reference table, sorted by pair."""
    return sorted((e, w, c) for e, counts in table.items() for w, c in counts.items())


def reference_laws(table: dict[int, Counter], entities) -> tuple[np.ndarray, list[np.ndarray]]:
    """Flat word ids and one weight vector per entity, its words ascending."""
    words = [np.array(sorted(table[e]), dtype=np.int64) for e in entities]
    weights = [np.array([table[e][w] for w in ids], dtype=np.float64)
               for e, ids in zip(entities, words)]
    return np.concatenate(words), weights


def train_entity(entity, counts, cfg, store, iters=None):
    """Description-phase fit of `entity` alone; returns its stored vector."""
    if iters is not None:
        cfg = replace(cfg, description_iters=iters)
    train_all_entities(restricted(counts, [entity]), replace(cfg, hyperlink_iters=0), store)
    return store.entity_vec(entity).copy()
