"""Metamorphic checks of inference on a seeded, trained pipeline: reordering
a document's mentions reorders its predictions, reordering a mention's
candidates changes no prediction, and a mention without candidates changes
no other mention's prediction."""

from dataclasses import replace

import numpy as np
import pytest
from permention import mention_rows

from entlink.attention import combine_block, padded_rows, predict_local, scored_instances
from entlink.crf import build_crf_instance, instance_marginals, predict_global
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
    scorers = {"local": lambda doc: _local_scores(doc, local, store),
               "global": lambda doc: _global_scores(doc, joint, store)}
    return corpora["test"], predictors, scorers


def _local_scores(doc, params, store):
    """Positions and combined scores of the local model's scored mentions."""
    scored = list(scored_instances(doc, params, store))
    scores, valid = padded_rows([psi for _, psi, _ in scored])
    rho = combine_block(params.fnet, scores,
                        padded_rows([inst.log_priors for inst, _, _ in scored])[0], valid)
    return [inst.position for inst, _, _ in scored], mention_rows(rho, valid)


def _global_scores(doc, params, store):
    """Positions and combined marginal scores of the joint model's mentions."""
    instance, positions = build_crf_instance(doc, params, store)
    return positions, mention_rows(instance_marginals(instance, params), instance.valid)


@pytest.mark.parametrize("model", ["local", "global"])
def test_permuting_mentions_permutes_predictions(trained, model):
    corpus, predictors, _ = trained
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
    corpus, predictors, _ = trained
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


@pytest.mark.parametrize("model", ["local", "global"])
def test_permuting_candidates_changes_no_prediction(trained, model):
    # a mention whose two best combined scores lie within 1e-12 relative is
    # a tie, decided by entity id, and skipped; the seed-23 fixture has none,
    # and ties must stay rare
    corpus, predictors, scorers = trained
    predict, scores = predictors[model], scorers[model]
    rng = np.random.default_rng(7)
    checked = skipped = 0
    for doc in corpus:
        want = predict(doc)
        ties = set()
        for position, rho in zip(*scores(doc)):
            if rho.shape[0] > 1:
                second, best = np.sort(rho)[-2:]
                if best - second <= 1e-12 * max(abs(best), abs(second)):
                    ties.add(position)
        for _ in range(3):
            permuted = [replace(m, candidates=[m.candidates[p] for p in
                                               rng.permutation(len(m.candidates))])
                        if m.candidates else m for m in doc.mentions]
            got = predict(replace(doc, mentions=permuted))
            for k, (g, w) in enumerate(zip(got, want)):
                if k in ties:
                    skipped += 1
                else:
                    assert g == w, (doc.doc_id, k)
                    checked += w is not None
    assert checked > 100
    assert skipped <= checked // 20, (skipped, checked)
