"""Metamorphic checks of inference on a seeded, trained pipeline: reordering
a document's mentions reorders its predictions, and a mention without
candidates changes no other mention's prediction."""

from dataclasses import replace

import numpy as np
import pytest

from entlink.attention import predict_local
from entlink.crf import predict_global
from entlink.docs import Mention
from entlink.experiment import ExperimentConfig, fit, prepare


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    cfg = ExperimentConfig(
        seed=23, out_dir=str(tmp_path_factory.mktemp("meta")), kb_size=80,
        vocab_size=800, n_docs=60, mentions_per_doc=5, embed_iters=200,
        local_epochs=6, global_epochs=4, patience=10, eval_every=2, t=5, dim=12,
        k=30, ctx_per_side=6, weak_context_rate=0.1)
    prepared = prepare(cfg)
    store, corpora = prepared.store, prepared.corpora
    local, _ = fit(cfg, "train-local", store, corpora)
    joint, _ = fit(cfg, "train-global", store, corpora)
    predictors = {"local": lambda doc: predict_local(doc, local, store),
                  "global": lambda doc: predict_global(doc, joint, store)}
    return corpora["test"], predictors


@pytest.mark.parametrize("model", ["local", "global"])
def test_permuting_mentions_permutes_predictions(trained, model):
    corpus, predictors = trained
    predict = predictors[model]
    rng = np.random.default_rng(5)
    checked = 0
    for doc in corpus:
        want = predict(doc)
        for _ in range(3):
            perm = rng.permutation(len(doc.mentions))
            got = predict(replace(doc, mentions=[doc.mentions[p] for p in perm]))
            assert got == [want[p] for p in perm], doc.doc_id
            checked += len(perm)
    assert checked > 100


@pytest.mark.parametrize("model", ["local", "global"])
def test_candidate_less_mention_changes_no_other_prediction(trained, model):
    corpus, predictors = trained
    predict = predictors[model]
    rng = np.random.default_rng(6)
    for doc in corpus:
        want = predict(doc)
        at = int(rng.integers(len(doc.mentions) + 1))
        donor = doc.mentions[int(rng.integers(len(doc.mentions)))]
        extra = Mention(start=donor.start, end=donor.end, surface=donor.surface,
                        candidates=[], context=list(donor.context or []))
        got = predict(replace(doc, mentions=doc.mentions[:at] + [extra] + doc.mentions[at:]))
        assert got == want[:at] + [None] + want[at:], doc.doc_id
