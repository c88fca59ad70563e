"""Training loops: improvement over init, snapshots, early stop, lr drop."""

import numpy as np
import pytest

from entlink.attention import LocalParams, predict_local
from entlink.crf import GlobalParams, predict_global
from entlink.docs import Corpus, Document, Mention, build_context_windows
from entlink.errors import ValidationError
from entlink.priors import Candidate
from entlink.training import (
    Adam,
    Sgd,
    TrainConfig,
    accuracy,
    predict_prior_baseline,
    train_global,
    train_local,
)
from entlink.vectors import EmbeddingStore
from entlink.vocab import Vocab


def tiny_world(seed=0, n_docs=16, mentions=3):
    """A micro corpus where context words point at the gold entity but the
    prior points elsewhere, so training must move the parameters."""
    rng = np.random.default_rng(seed)
    dim = 8
    store = EmbeddingStore(dim, word_vocab=Vocab())
    n_entities = 6
    entity_vecs = []
    for e in range(n_entities):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        entity_vecs.append(v)
        store.add_entity(f"E{e}", v)
    for e in range(n_entities):
        for i in range(3):
            w = entity_vecs[e] + 0.3 * rng.normal(size=dim)
            store.add_word(f"sig{e}_{i}", w / np.linalg.norm(w))

    def make_corpus(count, offset):
        docs = []
        for d in range(count):
            tokens = []
            ments = []
            for m in range(mentions):
                gold = int(rng.integers(n_entities))
                rival = (gold + 1) % n_entities
                ctx = [f"sig{gold}_{int(rng.integers(3))}" for _ in range(4)]
                tokens.extend(ctx[:2])
                pos = len(tokens)
                tokens.append("M")
                ments.append((pos, gold, rival))
                tokens.extend(ctx[2:])
            doc = Document(doc_id=f"d{offset + d}", tokens=tokens, mentions=[])
            for pos, gold, rival in ments:
                mention = Mention(start=pos, end=pos + 1, surface="M",
                                  gold=f"E{gold}", gold_id=gold)
                mention.candidates = [Candidate(rival, 0.7, "prior-top"),
                                      Candidate(gold, 0.3, "prior-top")]
                doc.mentions.append(mention)
            doc.validate()
            docs.append(doc)
        return Corpus(docs)

    train = make_corpus(n_docs, 0)
    val = make_corpus(6, 1000)
    for corpus in (train, val):
        build_context_windows(corpus, store.word_vocab, k=8)
    return store, train, val


class TestTrainLocal:
    def test_beats_prior_baseline_after_training(self):
        store, train, val = tiny_world()
        params = LocalParams.init(store.dim, hidden=16, k=8, r=4)
        cfg = TrainConfig(gamma=0.02, learning_rate=0.1, epochs=30,
                          eval_every=5, patience=30, seed=1)
        history = train_local(params, train, val, store, cfg)
        assert history.epochs_run == 30
        acc = accuracy(val, lambda d: predict_local(d, params, store))
        baseline = accuracy(val, predict_prior_baseline)
        assert acc > baseline
        assert history.best_val_accuracy >= baseline

    def test_best_snapshot_is_kept(self):
        # with fewer epochs than `eval_every`, the last epoch is validated
        store, train, val = tiny_world(seed=3)
        for epochs, eval_every in ((20, 5), (3, 5)):
            params = LocalParams.init(store.dim, hidden=16, k=8, r=4)
            cfg = TrainConfig(gamma=0.02, learning_rate=0.1, epochs=epochs,
                              eval_every=eval_every, patience=30, seed=2)
            history = train_local(params, train, val, store, cfg)
            acc = accuracy(val, lambda d: predict_local(d, params, store))
            assert history.best_epoch > 0
            assert acc == pytest.approx(history.best_val_accuracy)

    def test_projection_keeps_weights_in_ball(self):
        store, train, val = tiny_world(seed=5)
        params = LocalParams.init(store.dim, hidden=16, k=8, r=4)
        cfg = TrainConfig(gamma=0.02, learning_rate=0.5, epochs=10,
                          eval_every=5, patience=30, seed=3, weight_radius=1.0)
        train_local(params, train, val, store, cfg)
        for w in (params.fnet.w1, params.fnet.w2, params.fnet.w3):
            assert np.linalg.norm(w) <= 1.0 + 1e-9

    def test_empty_training_corpus_rejected(self):
        store, train, val = tiny_world()
        for doc in train:
            for m in doc.mentions:
                m.gold_id = None
        params = LocalParams.init(store.dim, hidden=16, k=8, r=4)
        with pytest.raises(ValidationError, match="no trainable mentions"):
            train_local(params, train, val, store, TrainConfig())


class TestTrainGlobal:
    def test_improves_and_drops_learning_rate(self):
        store, train, val = tiny_world(seed=7)
        params = GlobalParams.init(store.dim, hidden=16, k=8, r=4, t=3)
        cfg = TrainConfig(gamma=0.02, learning_rate=0.05, epochs=25,
                          eval_every=5, patience=30, seed=4,
                          lr_drop_accuracy=0.5, lr_after_drop=1e-4)
        history = train_global(params, train, val, store, cfg)
        acc = accuracy(val, lambda d: predict_global(d, params, store))
        assert acc > accuracy(val, predict_prior_baseline)
        # the drop threshold is set low enough that a working run crosses it
        assert history.lr_dropped_epoch is not None

    def test_early_stopping_halts(self):
        store, train, val = tiny_world(seed=9)
        params = GlobalParams.init(store.dim, hidden=16, k=8, r=4, t=2)
        cfg = TrainConfig(gamma=0.02, learning_rate=0.0001, epochs=200,
                          eval_every=1, patience=3, seed=5)
        history = train_global(params, train, val, store, cfg)
        assert history.epochs_run < 200


class TestOptimizers:
    def test_sgd_step(self):
        params = {"x": np.array([1.0, 2.0])}
        Sgd(0.1).step(params, {"x": np.array([1.0, -1.0])})
        np.testing.assert_allclose(params["x"], [0.9, 2.1])

    def test_adam_moves_against_gradient(self):
        params = {"x": np.array([0.0])}
        opt = Adam(0.1)
        for _ in range(10):
            opt.step(params, {"x": np.array([1.0])})
        assert params["x"][0] < 0.0

    def test_adam_ignores_missing_grads(self):
        params = {"x": np.array([1.0])}
        Adam(0.1).step(params, {"x": None})
        np.testing.assert_allclose(params["x"], [1.0])
