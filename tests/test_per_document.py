"""Per-document inference against the per-mention oracles in `permention`.

`predict_local` and `predict_global` run f once over the live slots of a
document's padded (n, S) blocks and take one vectorised argmax, and
`instance_marginals` consumes `crf.layers` keeping only the latest
messages.  On seeded random documents (d 16 and 300, one to eleven
candidates, lone mentions, empty contexts, duplicated candidate rows) the
combined scores match the oracles' within 1e-12 of the document's largest
score, the predictions are equal, and the final beliefs equal those of the
full unroll bit for bit.  Training's block, gathered from `DocMentions`,
equals the block padded from the per-mention instances bit for bit.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from gradcheck import random_fnet
from permention import (argmax_entity, doc_instances, mention_rows, mention_unary, per_mention,
                         run_lbp)
from permention import instance_marginals as oracle_marginals
from permention import local_decision as oracle_decision

from entlink import autodiff as ad
from entlink.attention import (DocBlock, DocMentions, LocalParams, combine_block, combine_f,
                               local_decisions, predict_local, score_document)
from entlink.crf import (CrfInstance, GlobalParams, beliefs_tape, build_crf_instance,
                         final_beliefs, instance_marginals, layers, phi_tensor,
                         predict_global)
from entlink.docs import Document, Mention
from entlink.errors import ValidationError
from entlink.priors import Candidate
from entlink.vectors import EmbeddingStore

DOCS_PER_DIM = 60
N_WORDS = 40
N_ENTITIES = 30


def _unit(rng, rows, dim):
    v = rng.normal(size=(rows, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _store(rng, dim):
    """Random unit word and entity rows; entities 1, 3 and 5 repeat the
    rows of 0, 2 and 4, so candidate sets hold duplicated rows."""
    store = EmbeddingStore(dim)
    store.add_words([f"w{i}" for i in range(N_WORDS)], _unit(rng, N_WORDS, dim))
    rows = _unit(rng, N_ENTITIES, dim)
    rows[1:6:2] = rows[0:6:2]
    store.add_entities([f"E{i}" for i in range(N_ENTITIES)], rows)
    return store


def _doc(rng, name):
    """One to eight mentions of one to eleven candidates; some priors are
    0 or repeat, and about one context in five is empty."""
    mentions = []
    for i in range(int(rng.integers(1, 9))):
        s = int(rng.integers(1, 12))
        if rng.random() < 0.3:  # start at a duplicated pair
            entities = [0, 1] + [int(e) for e in rng.choice(np.arange(6, N_ENTITIES),
                                                            size=s, replace=False)]
            entities = entities[:s]
        else:
            entities = [int(e) for e in rng.choice(N_ENTITIES, size=s, replace=False)]
        priors = rng.dirichlet(np.ones(s))
        priors[rng.random(s) < 0.15] = 0.0
        if s > 1 and rng.random() < 0.3:
            priors[1] = priors[0]
        k = 0 if rng.random() < 0.2 else int(rng.integers(1, 13))
        mentions.append(Mention(
            start=i, end=i + 1, surface=f"m{i}", gold_id=entities[0],
            candidates=[Candidate(e, float(p), "prior-top")
                        for e, p in zip(entities, priors)],
            context=[int(w) for w in rng.integers(N_WORDS, size=k)]))
    return Document(doc_id=name, tokens=[f"t{i}" for i in range(len(mentions))],
                    mentions=mentions)


def _params(rng, dim):
    hidden = 100 if dim == 300 else 12
    params = GlobalParams.init(dim, hidden=hidden, k=12, r=int(rng.integers(1, 8)),
                               delta=float(rng.uniform(0.3, 1.0)),
                               t=int(rng.integers(1, 7)))
    local = params.local
    local.a = 1.0 + 0.3 * rng.normal(size=dim)
    local.b = 1.0 + 0.3 * rng.normal(size=dim)
    local.fnet = random_fnet(hidden, scale=0.3, rng=rng)
    local.fnet.b1 = 0.1 * rng.normal(size=hidden)
    params.c = 1.0 + 0.5 * rng.normal(size=dim)
    return params


def _close(got, want):
    """Per-mention scores equal within 1e-12 of the document's largest."""
    assert len(got) == len(want)
    scale = max(np.abs(w).max() for w in want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * scale


@pytest.fixture(scope="module", params=[16, 300])
def cases(request):
    dim = request.param
    rng = np.random.default_rng(dim)
    store = _store(rng, dim)
    return store, [(_doc(rng, f"d{dim}-{i}"), _params(rng, dim))
                   for i in range(DOCS_PER_DIM)]


def test_cases_cover_the_edges(cases):
    store, docs = cases
    sizes = [len(m.candidates) for doc, _ in docs for m in doc.mentions]
    assert min(sizes) == 1 and max(sizes) == 11
    assert any(len(doc.mentions) == 1 for doc, _ in docs)
    assert any(not m.context for doc, _ in docs for m in doc.mentions)
    assert any(m.candidates[0].entity == 0 and len(m.candidates) > 1
               and m.candidates[1].entity == 1 for doc, _ in docs for m in doc.mentions)


@pytest.mark.parametrize("require_gold", [True, False])
def test_gathered_block_equals_the_padded_instances(cases, require_gold):
    # every third mention also loses its gold, so that `require_gold`
    # drops it or keeps it with no gold slot
    store, docs = cases
    for doc, _ in docs:
        unlabelled = replace(doc, mentions=[replace(m, gold_id=None) if i % 3 == 1 else m
                                            for i, m in enumerate(doc.mentions)])
        for d in (doc, unlabelled):
            instances = list(doc_instances(d, store, require_gold))
            if not instances:
                continue
            got = DocBlock.gather(DocMentions.of(d, require_gold), store)
            want = DocBlock.of(instances)
            for field in fields(DocBlock):
                g, w = getattr(got, field.name), getattr(want, field.name)
                assert (g.shape, g.dtype) == (w.shape, w.dtype), field.name
                np.testing.assert_array_equal(g, w)
                assert g.tobytes() == w.tobytes(), field.name


def test_local_path_matches_per_mention_oracle(cases):
    store, docs = cases
    for doc, params in docs:
        local = params.local
        want = [(inst, *oracle_decision(local, inst))
                for inst in doc_instances(doc, store, require_gold=False)]
        got = local_decisions(doc, local, store)
        assert [(p, e) for p, e, _ in got] == [(i.position, e) for i, e, _ in want]
        for (_, _, beta), (_, _, beta_want) in zip(got, want):
            np.testing.assert_array_equal(beta, beta_want)
        assert predict_local(doc, local, store) == [
            next((e for i, e, _ in want if i.position == k), None)
            for k in range(len(doc.mentions))]
        mentions, _, scores, _ = score_document(doc, local, store)
        valid = mentions.valid
        rho = combine_block(local.fnet, scores, mentions.log_priors, valid)
        assert np.isneginf(rho[~valid]).all()
        _close(mention_rows(rho, valid), [
            combine_f(local.fnet, mention_unary(local.a, local.b, local.r, inst.cand_vecs,
                                                inst.ctx_vecs)[0], inst.log_priors)
            for inst, _, _ in want])


def test_global_path_matches_per_mention_oracle(cases):
    store, docs = cases
    for doc, params in docs:
        instance, idxs = build_crf_instance(doc, params, store)
        want = oracle_marginals(instance, params)
        rho = instance_marginals(instance, params)
        assert np.isneginf(rho[~instance.valid]).all()
        _close(mention_rows(rho, instance.valid), want)
        entities = per_mention(instance).entities
        expected = [None] * len(doc.mentions)
        for pos, k in enumerate(idxs):
            expected[k] = argmax_entity(want[pos], entities[pos])
        assert predict_global(doc, params, store) == expected


def test_layer_generator_final_beliefs_equal_full_unroll(cases):
    store, docs = cases
    for doc, params in docs:
        instance, _ = build_crf_instance(doc, params, store)
        psi = np.ascontiguousarray(instance.unaries.T)
        valid = np.ascontiguousarray(instance.valid.T)
        phi = phi_tensor(instance.cand_vecs, instance.valid, instance.c)
        count = 0
        for mix, _, _ in layers(psi, phi, valid, params.t, params.delta):
            count += 1
        assert count == params.t
        full = run_lbp(instance, params.t, params.delta)
        np.testing.assert_array_equal(final_beliefs(psi, mix, valid),
                                      final_beliefs(full.psi, full.mix[-1], full.valid))


def test_message_sum_failure_raises_same_message_from_both_consumers():
    # a NaN unary makes every message into its mention NaN at layer 1
    rng = np.random.default_rng(7)
    dim = 16
    instance = CrfInstance(
        unaries=[rng.normal(size=3), np.array([0.0, np.nan]), rng.normal(size=4)],
        cand_vecs=[_unit(rng, s, dim) for s in (3, 2, 4)],
        entities=[[0, 1, 2], [3, 4], [5, 6, 7, 8]],
        log_priors=[np.zeros(3), np.zeros(2), np.zeros(4)], c=np.ones(dim))
    params = GlobalParams(local=LocalParams.init(dim, hidden=8), c=instance.c,
                          delta=0.5, t=3)
    with pytest.raises(ValidationError) as full:
        run_lbp(instance, params.t, params.delta)
    with pytest.raises(ValidationError) as lean:
        instance_marginals(instance, params)
    assert str(full.value) == str(lean.value)
    assert str(full.value).startswith("message 1->0 at layer 1 sums to ")


def test_failure_first_seen_at_a_later_layer_is_named_by_every_consumer():
    # zero unaries, C = 50 * 1 and delta = 1 drive message 3->1 to exactly
    # 0 at layer 3, so it sums to NaN from layer 4 on; the text is the one
    # the check after every layer raised, and each consumer still names
    # that first bad layer
    rng = np.random.default_rng(0)
    vecs = rng.normal(size=(4, 3, 5))
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    instance = CrfInstance(unaries=[np.zeros(3)] * 4, cand_vecs=list(vecs),
                           entities=[[3 * i, 3 * i + 1, 3 * i + 2] for i in range(4)],
                           log_priors=[np.zeros(3)] * 4, c=np.full(5, 50.0))
    params = GlobalParams(local=LocalParams.init(5, hidden=4), c=instance.c,
                          delta=1.0, t=10)
    tape = ad.Tape()
    consumers = [
        lambda: run_lbp(instance, params.t, params.delta),
        lambda: instance_marginals(instance, params),
        lambda: beliefs_tape(tape, tape.var(instance.unaries), instance.cand_vecs,
                             instance.valid, tape.var(instance.c), params.delta, params.t)]
    for consumer in consumers:
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(ValidationError) as failure:
            consumer()
        assert str(failure.value) == "message 3->1 at layer 4 sums to np.float64(nan)"
