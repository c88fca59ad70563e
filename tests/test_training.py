"""Training loops: improvement over init, snapshots, early stop, lr drop."""

import numpy as np
import perstep
import pytest

from entlink import autodiff as ad
from entlink import crf, training
from entlink.attention import DocBlock, DocMentions, LocalParams, predict_local
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


def tiny_world(seed=0, n_docs=16, mentions=3):
    """A micro corpus where context words point at the gold entity but the
    prior points elsewhere, so training must move the parameters."""
    rng = np.random.default_rng(seed)
    dim = 8
    store = EmbeddingStore(dim)
    n_entities = 6
    entity_vecs = []
    for e in range(n_entities):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        entity_vecs.append(v)
        store.add_entities([f"E{e}"], [v])
    for e in range(n_entities):
        for i in range(3):
            w = entity_vecs[e] + 0.3 * rng.normal(size=dim)
            store.add_words([f"sig{e}_{i}"], [w / np.linalg.norm(w)])

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
                          eval_every=5, patience=30, seed=3)
        train_local(params, train, val, store, cfg)
        for w in (params.fnet.w1, params.fnet.w2, params.fnet.w3):
            assert np.linalg.norm(w) <= training.WEIGHT_RADIUS + 1e-9

    def test_empty_training_corpus_rejected(self):
        store, train, val = tiny_world()
        for doc in train:
            for m in doc.mentions:
                m.gold_id = None
        params = LocalParams.init(store.dim, hidden=16, k=8, r=4)
        with pytest.raises(ValidationError, match="no trainable mentions"):
            train_local(params, train, val, store, TrainConfig())


class TestTrainGlobal:
    def test_improves_and_drops_learning_rate(self, monkeypatch):
        store, train, val = tiny_world(seed=7)
        params = GlobalParams.init(store.dim, hidden=16, k=8, r=4, t=3)
        monkeypatch.setattr(training, "LR_DROP_ACCURACY", 0.5)
        monkeypatch.setattr(training, "LR_AFTER_DROP", 1e-4)
        cfg = TrainConfig(gamma=0.02, learning_rate=0.05, epochs=25,
                          eval_every=5, patience=30, seed=4)
        history = train_global(params, train, val, store, cfg)
        acc = accuracy(val, lambda d: predict_global(d, params, store))
        assert acc > accuracy(val, predict_prior_baseline)
        # the drop threshold is set low enough that a working run crosses it
        assert history.lr_dropped_epoch is not None

    def test_learning_rate_drops_at_first_validation_past_threshold(self):
        # the seeded run validates at 0.833 after epoch 2 and first passes
        # LR_DROP_ACCURACY (0.9) after epoch 6, where the rate drops
        store, train, val = tiny_world(seed=7)
        params = GlobalParams.init(store.dim, hidden=16, k=8, r=4, t=3)
        cfg = TrainConfig(gamma=0.02, learning_rate=0.05, epochs=8, eval_every=2,
                          patience=30, seed=4)
        history = train_global(params, train, val, store, cfg)
        checks = [(epoch, acc) for epoch, _, acc in history.rows if epoch % 2 == 0]
        assert checks[0][1] <= training.LR_DROP_ACCURACY
        assert history.lr_dropped_epoch == 6 == next(
            epoch for epoch, acc in checks if acc > training.LR_DROP_ACCURACY)

    def test_early_stopping_halts(self):
        # validated every epoch, the run stops at the epoch that brings the
        # epochs without improvement up to the patience: here 1 + 3
        store, train, val = tiny_world(seed=9)
        params = GlobalParams.init(store.dim, hidden=16, k=8, r=4, t=2)
        cfg = TrainConfig(gamma=0.02, learning_rate=0.0001, epochs=200,
                          eval_every=1, patience=3, seed=5)
        history = train_global(params, train, val, store, cfg)
        assert history.epochs_run == history.best_epoch + cfg.patience == 4
        # one history row per epoch run, the stopping epoch included
        assert [row[0] for row in history.rows] == list(range(1, history.epochs_run + 1))


@pytest.mark.parametrize("kind", ["word", "entity"])
@pytest.mark.parametrize("past_end", [False, True])
def test_bad_id_in_a_training_document_raises_before_any_step(kind, past_end, monkeypatch):
    # a later document's bad id is named while the blocks are built, before
    # the first document trains; an entity id is a third candidate, so the
    # mention stays trainable
    store, train, val = tiny_world()
    size = store.n_words if kind == "word" else store.n_entities
    bad = size if past_end else -1
    mention = train.documents[5].mentions[1]
    if kind == "word":
        mention.context = [*mention.context[:2], bad, *mention.context[2:]]
    else:
        mention.candidates = [*mention.candidates, Candidate(bad, 0.0, "prior-top")]

    def no_step(*args, **kwargs):
        raise AssertionError("an optimizer stepped")

    monkeypatch.setattr(Sgd, "step", no_step)
    monkeypatch.setattr(Adam, "step", no_step)
    cfg = TrainConfig(epochs=2)
    for trainer, params in ((train_local, LocalParams.init(store.dim, hidden=16, k=8, r=4)),
                            (train_global, GlobalParams.init(store.dim, hidden=16, k=8,
                                                             r=4, t=2))):
        with pytest.raises(ValidationError) as failure:
            trainer(params, train, val, store, cfg)
        assert str(failure.value) == f"{kind} id {bad} out of range [0, {size})"


def test_over_budget_training_document_is_refused_before_its_rows_are_gathered(monkeypatch):
    # the joint budget needs only the document's shape, so a refused
    # document allocates none of its (n, S, d) candidate or (n, K, d) context rows
    store, train, val = tiny_world()
    params = GlobalParams.init(store.dim, hidden=16, k=8, r=4, t=2)
    first = train.documents[0]
    n, s = DocMentions.of(first, False).valid.shape
    monkeypatch.setattr(crf, "JOINT_BYTES", crf.joint_bytes(n, s, params.t, training=True) - 1)

    def gathered(*args):
        raise AssertionError("rows gathered for a document over the budget")

    monkeypatch.setattr(DocBlock, "gather", gathered)
    with pytest.raises(ValidationError) as refused:
        train_global(params, train, val, store, TrainConfig(epochs=1))
    assert str(refused.value).startswith(
        f"doc {first.doc_id!r}: joint stage needs {crf.JOINT_BYTES + 1} bytes "
        f"for n={n} mentions and S={s} candidate slots")


def lone_mention(doc):
    """Leave only the document's first mention with candidates."""
    for mention in doc.mentions[1:]:
        mention.candidates = []


def gold_outside_candidates(mention):
    """Point the mention's gold at an entity outside its candidate set."""
    held = {c.entity for c in mention.candidates}
    mention.gold_id = next(e for e in range(len(held) + 1) if e not in held)
    mention.gold = f"E{mention.gold_id}"


class TestParityWithPerStepLoop:
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_parameters_bitwise_equal(self, kind, monkeypatch):
        # blocks built once, one flat vector and whole-vector optimizer steps
        # train exactly as the per-step loop does, lone-mention steps
        # included: with validation (snapshots, the learning-rate drop) and
        # without (the parameters of the last step).  One mention's gold
        # lies outside its candidates: it adds no loss term, and only the
        # joint model passes messages through it
        store, train, val = tiny_world(seed=14, n_docs=10)
        lone_mention(train.documents[0])
        gold_outside_candidates(train.documents[1].mentions[1])
        monkeypatch.setattr(training, "LR_DROP_ACCURACY", 0.3)
        monkeypatch.setattr(training, "LR_AFTER_DROP", 1e-3)
        cfg = TrainConfig(gamma=0.02, learning_rate=0.05, epochs=6, eval_every=2,
                          patience=30, seed=6)
        if kind == "local":
            make = lambda: LocalParams.init(store.dim, hidden=16, k=8, r=4)  # noqa: E731
            trainer, predictor = train_local, predict_local
        else:
            make = lambda: GlobalParams.init(store.dim, hidden=16, k=8, r=4, t=3)  # noqa: E731
            trainer, predictor = train_global, predict_global
        for validation in (val, None):
            got, want = make(), make()
            history = trainer(got, train, validation, store, cfg)
            perstep.train(kind, want, train, validation, store, cfg, predictor)
            if validation is not None:
                assert history.best_epoch > 0
                assert kind == "local" or history.lr_dropped_epoch is not None
            want_params = want.param_dict()
            for name, arr in got.param_dict().items():
                assert arr.tobytes() == want_params[name].tobytes(), name

    def test_lone_mention_step_leaves_c_and_its_moments(self, monkeypatch):
        # a lone mention has no pairs, so C gets no adjoint: the step that
        # trains on it must leave C and C's Adam moments as they were
        store, train, _ = tiny_world(seed=13, n_docs=2)
        lone_mention(train.documents[0])
        params = GlobalParams.init(store.dim, hidden=16, k=8, r=4, t=2)
        c_of = ad.ParamVector(params.param_dict()).views
        steps = []

        class Recording(training.Adam):
            def step(self, flat, grad, live=True):
                moments = (self.m, self.v) if self.m is not None else (flat * 0, flat * 0)
                before = [c_of(a)["C"].copy() for a in (flat, *moments)]
                super().step(flat, grad, live)
                after = [c_of(a)["C"].copy() for a in (flat, self.m, self.v)]
                steps.append((live is True, before, after))

        monkeypatch.setattr(training, "Adam", Recording)
        cfg = TrainConfig(gamma=0.02, learning_rate=0.05, epochs=4, seed=3)
        train_global(params, train, None, store, cfg)
        lone_steps = [(b, a) for full, b, a in steps if not full]
        assert lone_steps and len(lone_steps) < len(steps)
        assert any(b[1].any() for b, _ in lone_steps)  # C's moments were live
        for before, after in lone_steps:
            for b, a in zip(before, after):
                assert b.tobytes() == a.tobytes()


class TestOptimizers:
    def test_sgd_step(self):
        params = np.array([1.0, 2.0])
        Sgd(0.1).step(params, np.array([1.0, -1.0]))
        np.testing.assert_allclose(params, [0.9, 2.1])

    def test_adam_moves_against_gradient(self):
        params = np.array([0.0])
        opt = Adam(0.1)
        for _ in range(10):
            opt.step(params, np.array([1.0]))
        assert params[0] < 0.0

    def test_adam_ignores_missing_grads(self):
        # an entry off the `live` mask keeps its value and its moments
        params = np.array([1.0, 1.0])
        opt = Adam(0.1)
        opt.step(params, np.array([0.5, 0.0]), np.array([True, False]))
        np.testing.assert_allclose(params[1], 1.0)
        assert params[0] < 1.0
        np.testing.assert_array_equal(opt.m[1:], 0.0)
        np.testing.assert_array_equal(opt.v[1:], 0.0)
