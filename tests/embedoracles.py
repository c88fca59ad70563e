"""Reference pieces for the entity-embedding tests.

The hinge, a held-out objective and the unit-norm check are written out
here as plain oracles; `train_entity` fits one entity alone through
`train_all_entities`, on counts `restricted` to it.
"""

from dataclasses import replace

import numpy as np

from entlink.embed_train import CooccurrenceCounts, train_all_entities
from entlink.errors import ValidationError
from entlink.vectors import ENTITY_NORM_TOL


def hinge_embed(z, x_pos, x_neg, gamma) -> float:
    """max(0, gamma - <z, x_pos - x_neg>)."""
    return float(max(0.0, gamma - float(np.dot(z, x_pos - x_neg))))


def empirical_objective(entity, z, counts, cfg, word_mat, n_pairs=2000, seed=12345,
                        source="description") -> float:
    """Average hinge over a fixed held-out sample of (positive, negative) pairs."""
    rng = np.random.default_rng([seed, entity])
    words, pos_alias = counts.positive_sampler([entity], source)
    neg_words, neg_alias = counts.negative_sampler()
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
        return {e: table[e] for e in entities if e in table}

    return CooccurrenceCounts(n_words=counts.n_words, alpha=counts.alpha,
                              description=keep(counts.description),
                              hyperlink=keep(counts.hyperlink),
                              word_freq=counts.word_freq)


def train_entity(entity, counts, cfg, store, iters=None):
    """Description-phase fit of `entity` alone; returns its stored vector."""
    if iters is not None:
        cfg = replace(cfg, description_iters=iters)
    train_all_entities(restricted(counts, [entity]), replace(cfg, hyperlink_iters=0), store)
    return store.entity_vec(entity).copy()
