"""Local model: support scores, hard attention, context score, combination f."""

import numpy as np
import pytest
from gradcheck import grad_check, local_loss_closure, random_fnet
from permention import mention_unary
from tapeops import split_rows, weighted_sum

from entlink import autodiff as ad
from entlink.attention import (
    DocBlock,
    DocMentions,
    FNet,
    LocalParams,
    MentionInstance,
    attend,
    combine_f,
    context_blocks,
    floored_log_prior,
    local_doc_loss_tape,
    make_param_vars,
    ordered_sum,
    predict_local,
    record_unaries,
    score_document,
    top_r,
)
from entlink.crf import GlobalParams, predict_global
from entlink.docs import Corpus, Document, Mention, build_context_windows
from entlink.errors import ValidationError
from entlink.priors import Candidate
from entlink.vectors import EmbeddingStore

SIGMOID_1 = 1.0 / (1.0 + np.exp(-1.0))  # exp(3) / (exp(3) + exp(2))


def _support(cand_vecs, ctx_vecs, a):
    """Support per word and the candidate-word scores: step (a)'s a-block
    and its max over candidates."""
    scores, _ = context_blocks(cand_vecs * a, cand_vecs * a, ctx_vecs)
    return scores.max(axis=-2), scores


def attention_weights(u, r):
    """The attention weights step (b) gives support scores u: those of one
    candidate whose a-block row is u."""
    return attend(u[..., None, :], np.zeros(u.shape[:-1] + (1,) + u.shape[-1:]), r)[1]


def top_r_mask(u, r):
    """Boolean keep-mask of `top_r`'s positions."""
    mask = np.zeros(u.shape, dtype=bool)
    np.put_along_axis(mask, top_r(u, r), True, axis=-1)
    return mask


def context_score(cand_vecs, ctx_vecs, beta, b):
    """Context scores under given attention weights: step (a)'s b-block,
    summed under beta as step (b) sums it."""
    _, scores = context_blocks(cand_vecs * b, cand_vecs * b, ctx_vecs)
    return ordered_sum(scores * beta)


class TestSupportScores:
    def test_identity_unit_vector(self):
        v = np.zeros(4)
        v[0] = 1.0
        u, _ = _support(v[None, :], v[None, :], np.ones(4))
        assert u[0] == pytest.approx(1.0)

    def test_max_over_candidates(self):
        # candidate scores 0.2 and 0.7 for the same word -> 0.7
        cands = np.array([[0.2, 0.0], [0.7, 0.0]])
        word = np.array([[1.0, 0.0]])
        u, _ = _support(cands, word, np.ones(2))
        assert u[0] == pytest.approx(0.7)

    def test_zero_diagonal_annihilates(self):
        rng = np.random.default_rng(0)
        u, _ = _support(rng.normal(size=(3, 5)), rng.normal(size=(4, 5)),
                        np.zeros(5))
        np.testing.assert_allclose(u, 0.0)


class TestAttentionWeights:
    def test_top2_of_four(self):
        # u = [3,1,2,0], R=2: kept {0,2}, beta = [e^3, 0, e^2, 0] / (e^3+e^2)
        beta = attention_weights(np.array([3.0, 1.0, 2.0, 0.0]), r=2)
        np.testing.assert_allclose(beta, [SIGMOID_1, 0.0, 1.0 - SIGMOID_1, 0.0],
                                   atol=1e-12)
        assert beta[1] == 0.0 and beta[3] == 0.0
        assert beta.sum() == pytest.approx(1.0, abs=1e-9)

    def test_no_pruning_uniform(self):
        beta = attention_weights(np.full(5, 0.3), r=5)
        np.testing.assert_allclose(beta, 0.2)

    def test_r_one_is_indicator(self):
        beta = attention_weights(np.array([0.1, 0.9, 0.5]), r=1)
        np.testing.assert_allclose(beta, [0.0, 1.0, 0.0])

    def test_shift_invariance(self):
        u = np.array([3.0, 1.0, 2.0, 0.0])
        a = attention_weights(u, r=2)
        b = attention_weights(u + 17.5, r=2)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_tie_at_cutoff_keeps_earlier_position(self):
        mask = top_r_mask(np.array([1.0, 0.5, 0.5]), r=2)
        np.testing.assert_array_equal(mask, [True, True, False])

    def test_block_mask_matches_row_masks(self):
        # a block's mask is each row's one-mention mask, ties included
        rng = np.random.default_rng(2)
        u = rng.integers(0, 4, size=(6, 40)).astype(float)
        for r in (1, 7, 39):
            block = top_r_mask(u, r)
            np.testing.assert_array_equal(block, [top_r_mask(row, r) for row in u])
            assert (block.sum(axis=1) == r).all()


class TestContextScore:
    def test_zero_b_annihilates(self):
        rng = np.random.default_rng(1)
        psi = context_score(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)),
                            np.full(5, 0.2), np.zeros(4))
        np.testing.assert_allclose(psi, 0.0)

    def test_single_kept_word_is_dot_product(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=4)
        w = rng.normal(size=4)
        psi = context_score(e[None, :], w[None, :], np.array([1.0]), np.ones(4))
        assert psi[0] == pytest.approx(float(np.dot(e, w)))

    def test_weighted_sum_hand_value(self):
        # beta = [sigma(1), 0, 1 - sigma(1), 0], per-word dots [0.5, ., -0.2, .]
        # Psi = sigma(1)*0.5 - (1-sigma(1))*0.2 = 0.311741...
        beta = np.array([SIGMOID_1, 0.0, 1.0 - SIGMOID_1, 0.0])
        ctx = np.array([[0.5], [9.9], [-0.2], [7.7]])
        cand = np.array([[1.0]])
        psi = context_score(cand, ctx, beta, np.ones(1))
        want = SIGMOID_1 * 0.5 - (1.0 - SIGMOID_1) * 0.2
        assert want == pytest.approx(0.3118, abs=1e-4)
        assert psi[0] == pytest.approx(want, abs=1e-12)


class TestCombineF:
    def test_zero_network_outputs_bias(self):
        net = FNet.zeros(hidden=8)
        net.b3[0] = 0.37
        out = combine_f(net, np.array([1.0, -5.0]), np.array([0.0, -3.0]))
        np.testing.assert_allclose(out, 0.37)

    def test_additive_construction(self):
        # hand-set weights realise 0.5*(a+b) on a bounded box
        net = FNet.additive(hidden=16, box=30.0)
        grid = np.linspace(-25.0, 10.0, 13)
        for a in grid:
            for b in grid:
                got = net.forward(np.array([[a, b]]))[0]
                assert got == pytest.approx(0.5 * (a + b), abs=1e-9)

    def test_additive_within_unit_frobenius_ball(self):
        net = FNet.additive()
        before = [w.copy() for w in (net.w1, net.w2, net.w3)]
        net.project(1.0)
        for w, orig in zip((net.w1, net.w2, net.w3), before):
            np.testing.assert_array_equal(w, orig)

    def test_projection_rescales_oversized_weights(self):
        net = FNet.zeros(hidden=4)
        net.w1[:] = 1.0  # frobenius norm sqrt(8)
        net.project(1.0)
        assert np.linalg.norm(net.w1) == pytest.approx(1.0)

    def test_equal_rows_score_equally_wherever_they_sit(self):
        # a document's rows go through f in one batch; equal rows must stay
        # exactly tied, so that the entity-id tie-break decides them
        rng = np.random.default_rng(9)
        net = random_fnet(hidden=100, scale=0.3, rng=rng)
        net.b1 = 0.1 * rng.normal(size=100)
        for n in range(2, 64):
            x = np.repeat(rng.normal(size=(1, 2)), n, axis=0)
            # inference's f, and training's, which keeps the hidden layers
            for out in (net.forward(x), net.layers(x)[2]):
                assert (out == out[0]).all(), n

    def test_non_finite_input_rejected(self):
        net = FNet.zeros(hidden=4)
        with pytest.raises(ValidationError):
            combine_f(net, np.array([np.inf]), np.array([0.0]))


def toy_store(n_words=12, n_entities=6, dim=5, seed=3):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim)
    for i in range(n_words):
        v = rng.normal(size=dim)
        store.add_words([f"w{i}"], [v / np.linalg.norm(v)])
    for i in range(n_entities):
        v = rng.normal(size=dim)
        store.add_entities([f"E{i}"], [v / np.linalg.norm(v)])
    return store


def make_instance(store, entities, ctx_words, priors, gold, r=3):
    cand_vecs = np.stack([store.entity_vec(e) for e in entities])
    ctx_vecs = store.word_matrix()[ctx_words] if ctx_words else np.zeros((0, store.dim))
    return MentionInstance(
        cand_vecs=cand_vecs, ctx_vecs=ctx_vecs,
        log_priors=np.array([floored_log_prior(p) for p in priors]),
        gold_index=gold, entities=list(entities))


class TestRankLoss:
    def _loss(self, params_dict, instances, fnet, gamma, r):
        tape = ad.Tape()
        vars_ = make_param_vars(tape, params_dict)
        loss = local_doc_loss_tape(tape, vars_, fnet, instances, gamma, r)
        return tape, vars_, loss

    def test_zero_when_margins_satisfied(self):
        store = toy_store()
        fnet = FNet.additive(hidden=8)
        params = LocalParams.init(store.dim, hidden=8, r=3)
        # gold prior hugely dominant: margins hold under the additive f
        inst = make_instance(store, [0, 1], [0, 1], [0.999, 1e-9], gold=0)
        _, _, loss = self._loss(params.param_dict(), [inst], fnet, 0.01, 3)
        assert float(loss.value) == 0.0

    def test_boundary_hinge_value(self):
        # two candidates scored identically: hinge contributes exactly gamma
        store = toy_store()
        fnet = FNet.zeros(hidden=8)  # constant scores
        params = LocalParams.init(store.dim, hidden=8, r=3)
        params.fnet = fnet
        inst = make_instance(store, [0, 1], [0], [0.5, 0.5], gold=0)
        pd = params.param_dict()
        _, _, loss = self._loss(pd, [inst], fnet, 0.01, 3)
        assert float(loss.value) == pytest.approx(0.01)

    def test_empty_document_zero_loss(self):
        fnet = FNet.additive(hidden=8)
        tape = ad.Tape()
        vars_ = make_param_vars(tape, {"A": np.ones(3), "B": np.ones(3),
                                       **fnet.param_dict()})
        loss = local_doc_loss_tape(tape, vars_, fnet, [], 0.01, 3)
        assert float(loss.value) == 0.0

    def test_gradient_matches_finite_differences(self):
        # two full mentions; then mixed sizes with a 1-candidate mention and
        # an empty context (sizes [1, 4, 2], context lengths [4, 0, 5])
        store = toy_store(seed=11)
        rng = np.random.default_rng(5)
        cases = [
            [make_instance(store, [0, 1, 2], [0, 1, 2, 3, 4], [0.5, 0.3, 0.2], gold=1),
             make_instance(store, [3, 4], [5, 6, 7], [0.6, 0.4], gold=0)],
            [make_instance(store, [5], [8, 9, 10, 11], [1.0], gold=0),
             make_instance(store, [0, 1, 2, 3], [], [0.4, 0.3, 0.2, 0.1], gold=2),
             make_instance(store, [4, 5], [0, 2, 4, 6, 8], [0.7, 0.3], gold=1)],
        ]
        for instances in cases:
            fnet = random_fnet(hidden=10, rng=rng)
            params = {"A": 1.0 + 0.1 * rng.normal(size=store.dim),
                      "B": 1.0 + 0.1 * rng.normal(size=store.dim),
                      **fnet.param_dict()}
            f = local_loss_closure(instances, gamma=0.05, r=3)
            report = grad_check(f, params, coords_per_param=20,
                                rng=np.random.default_rng(0))
            assert report.checked > 0
            assert report.ok(1e-4), ([len(i.entities) for i in instances],
                                     report.max_rel_err)


def straight_line_unary(a, b, r, cand_vecs, ctx_vecs):
    """Loop-by-loop context scores: support max, top-R by position, softmax."""
    n_cands, n_words = cand_vecs.shape[0], ctx_vecs.shape[0]
    u = [max(float(np.sum(cand_vecs[e] * a * ctx_vecs[w])) for e in range(n_cands))
         for w in range(n_words)]
    kept = sorted(range(n_words), key=lambda w: -u[w])[:r]
    top = max(u[w] for w in kept)
    weight = {w: np.exp(u[w] - top) for w in kept}
    total = sum(weight.values())
    return np.array([sum(weight[w] / total * float(np.sum(cand_vecs[e] * b * ctx_vecs[w]))
                         for w in kept) for e in range(n_cands)])


def straight_line_weights(a, r, cand_vecs, ctx_vecs):
    """Loop-by-loop attention weights: support max, top-R by position, softmax."""
    n_cands, n_words = cand_vecs.shape[0], ctx_vecs.shape[0]
    u = [max(float(np.sum(cand_vecs[e] * a * ctx_vecs[w])) for e in range(n_cands))
         for w in range(n_words)]
    kept = sorted(range(n_words), key=lambda w: -u[w])[:r]
    top = max(u[w] for w in kept)
    weight = {w: np.exp(u[w] - top) for w in kept}
    total = sum(weight.values())
    return np.array([weight.get(w, 0.0) / total for w in range(n_words)])


class TestDocumentScorer:
    """Both scorer steps over a document's padded blocks against the
    straight-line scorer, mention by mention."""

    DIM = 6
    N_WORDS = 30

    def _store(self, rng):
        # entity 1 repeats entity 0's row, so candidate sets hold duplicates
        store = EmbeddingStore(self.DIM)
        words = rng.normal(size=(self.N_WORDS, self.DIM))
        store.add_words([f"w{i}" for i in range(self.N_WORDS)],
                        words / np.linalg.norm(words, axis=1, keepdims=True))
        rows = rng.normal(size=(12, self.DIM))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows[1] = rows[0]
        store.add_entities([f"E{i}" for i in range(12)], rows)
        return store

    def _doc(self, rng):
        """One to six mentions of one to six candidates, the duplicated pair
        in about half, and zero to fourteen context words, so the blocks
        pad both axes and some contexts are empty."""
        mentions = []
        for i in range(int(rng.integers(1, 7))):
            s = int(rng.integers(1, 7))
            if s > 1 and rng.random() < 0.5:
                entities = [0, 1] + [int(e) for e in rng.choice(np.arange(2, 12), s - 2,
                                                                replace=False)]
            else:
                entities = [int(e) for e in rng.choice(12, s, replace=False)]
            k = 0 if rng.random() < 0.2 else int(rng.integers(1, 15))
            mentions.append(Mention(
                start=i, end=i + 1, surface=f"m{i}",
                candidates=[Candidate(e, 1.0 / s, "prior-top") for e in entities],
                context=[int(w) for w in rng.integers(self.N_WORDS, size=k)]))
        return Document(doc_id="d", tokens=[f"t{i}" for i in range(len(mentions))],
                        mentions=mentions)

    def test_blocks_match_straight_line_scorer(self):
        rng = np.random.default_rng(12)
        store = self._store(rng)
        params = LocalParams.init(self.DIM, hidden=4)
        checked = {"empty": 0, "r >= K": 0, "pruned": 0, "duplicates": 0}
        for _ in range(80):
            doc = self._doc(rng)
            params.r = int(rng.integers(1, 16))
            params.a = 1.0 + 0.3 * rng.normal(size=self.DIM)
            params.b = 1.0 + 0.3 * rng.normal(size=self.DIM)
            mentions, cands, psi, beta = score_document(doc, params, store)
            assert not psi[~mentions.valid].any() and not cands[~mentions.valid].any()
            for i, position in enumerate(mentions.positions):
                mention = doc.mentions[position]
                s, k = len(mention.candidates), len(mention.context)
                cand_vecs = store.entity_rows([c.entity for c in mention.candidates])
                ctx_vecs = store.word_rows(mention.context)
                assert not beta[i, k:].any()
                if k == 0:
                    checked["empty"] += 1
                    assert not psi[i].any()
                    continue
                want = straight_line_unary(params.a, params.b, params.r, cand_vecs, ctx_vecs)
                scale = np.abs(want).max()
                assert np.abs(psi[i, :s] - want).max() <= 1e-12 * scale
                np.testing.assert_allclose(
                    beta[i, :k], straight_line_weights(params.a, params.r, cand_vecs, ctx_vecs),
                    rtol=1e-12, atol=0.0)
                checked["r >= K" if params.r >= k else "pruned"] += 1
                if [c.entity for c in mention.candidates[:2]] == [0, 1]:
                    checked["duplicates"] += 1
                    assert abs(psi[i, 0] - psi[i, 1]) <= 1e-15 * scale
        assert min(checked.values()) >= 20, checked

    def test_equal_b_block_rows_tie_exactly(self):
        # step (b) sums each candidate's row alone and in one order, so equal
        # rows give equal scores, padded or not and wherever they sit
        rng = np.random.default_rng(13)
        for k in (1, 5, 40, 100):
            a_block = rng.normal(size=(3, 7, k))
            b_block = rng.normal(size=(3, 7, k))
            b_block[:, 4] = b_block[:, 0]
            b_block[:, 6] = b_block[:, 0]
            for r in (1, 10, 200):
                psi, beta, _ = attend(a_block, b_block, r)
                assert (psi[:, 4] == psi[:, 0]).all() and (psi[:, 6] == psi[:, 0]).all()
                padded_a = np.concatenate([a_block, np.zeros((3, 7, 9))], axis=-1)
                padded_b = np.concatenate([b_block, np.zeros((3, 7, 9))], axis=-1)
                live = np.arange(k + 9) < k
                got, got_beta, _ = attend(padded_a, padded_b, r, live)
                np.testing.assert_array_equal(got, psi)
                np.testing.assert_array_equal(got_beta[:, :k], beta)

    @pytest.mark.parametrize("bad", [-1, N_WORDS])
    def test_context_id_out_of_range_raises_from_both_models(self, bad):
        rng = np.random.default_rng(14)
        store = self._store(rng)
        joint = GlobalParams.init(self.DIM, hidden=4)
        doc = self._doc(rng)
        doc.mentions[-1].context = [0, bad, 1]
        want = f"word id {bad} out of range [0, {self.N_WORDS})"
        for predict in (lambda: predict_local(doc, joint.local, store),
                        lambda: predict_global(doc, joint, store)):
            with pytest.raises(ValidationError) as failure:
                predict()
            assert str(failure.value) == want
        assert DocMentions.of(doc, require_gold=False).contexts[-1, 1] == bad


class TestMentionUnaryConsistency:
    def test_numpy_and_tape_paths_agree(self):
        # the scorer and its tape record equal a straight-line scorer, and
        # the record's adjoints of A and B match central differences of it
        store = toy_store(seed=9)
        params = LocalParams.init(store.dim, hidden=8, r=2)
        rng = np.random.default_rng(3)
        params.a += 0.2 * rng.normal(size=store.dim)
        params.b += 0.2 * rng.normal(size=store.dim)
        cand_vecs = store.entity_matrix()[:4]
        ctx_vecs = store.word_matrix()[:6]
        want = straight_line_unary(params.a, params.b, params.r, cand_vecs, ctx_vecs)
        psi_np, _, _ = mention_unary(params.a, params.b, params.r, cand_vecs, ctx_vecs)
        tape = ad.Tape()
        vars_ = make_param_vars(tape, params.param_dict())
        inst = MentionInstance(cand_vecs=cand_vecs, ctx_vecs=ctx_vecs,
                               log_priors=np.zeros(4), gold_index=0)
        [psi_tape] = split_rows(tape, record_unaries(tape, vars_, DocBlock.of([inst]), params.r), [4])
        np.testing.assert_allclose(psi_np, want, atol=1e-12)
        np.testing.assert_allclose(psi_tape.value, want, atol=1e-12)

        w = rng.normal(size=4)
        tape.backward(weighted_sum(tape, [psi_tape], [w]))
        eps = 1e-6
        for name, base in (("A", params.a), ("B", params.b)):
            for d in range(store.dim):
                step = np.zeros(store.dim)
                step[d] = eps
                moved = [base + step, base - step]
                values = [w @ (straight_line_unary(m, params.b, params.r, cand_vecs, ctx_vecs)
                               if name == "A" else
                               straight_line_unary(params.a, m, params.r, cand_vecs, ctx_vecs))
                          for m in moved]
                numeric = (values[0] - values[1]) / (2 * eps)
                assert vars_[name].grad[d] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


class TestAttentionProperties:
    def test_beta_sums_to_one_and_zeros_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = rng.normal(size=rng.integers(2, 30))
            r = int(rng.integers(1, u.size + 1))
            beta = attention_weights(u, r)
            assert beta.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.count_nonzero(beta) == min(r, u.size)

    def test_orthogonal_noise_words_excluded(self):
        # words orthogonal to every candidate get u = 0 while aligned words
        # get u > 0; with R = #aligned, the orthogonal ones carry beta = 0
        dim = 6
        store = EmbeddingStore(dim)
        e = np.zeros(dim)
        e[0] = 1.0
        aligned = [e.copy() for _ in range(3)]
        orthogonal = [np.eye(dim)[i] for i in (1, 2, 3)]
        for i, v in enumerate(aligned + orthogonal):
            store.add_words([f"w{i}"], [v])
        store.add_entities(["E"], [e])
        cand_vecs = store.entity_matrix()
        ctx_vecs = store.word_matrix()
        u, _ = _support(cand_vecs, ctx_vecs, np.ones(dim))
        beta = attention_weights(u, r=3)
        np.testing.assert_allclose(beta[3:], 0.0)
        assert beta[:3].sum() == pytest.approx(1.0)


class TestPredictLocal:
    def _doc_with_candidates(self, store, cand_specs, ctx_words):
        tokens = [f"w{w}" for w in ctx_words] + ["M"]
        doc = Document(doc_id="d", tokens=tokens, mentions=[
            Mention(start=len(ctx_words), end=len(ctx_words) + 1, surface="M")])
        doc.mentions[0].candidates = [Candidate(e, p, "prior-top")
                                      for e, p in cand_specs]
        corpus = Corpus([doc])
        build_context_windows(corpus, store.word_vocab, k=len(ctx_words) * 2 + 2)
        return doc

    def test_single_candidate(self):
        store = toy_store()
        params = LocalParams.init(store.dim, hidden=8)
        doc = self._doc_with_candidates(store, [(2, 1.0)], [0, 1])
        assert predict_local(doc, params, store) == [2]

    def test_prior_dominates_with_zero_b(self):
        store = toy_store()
        params = LocalParams.init(store.dim, hidden=8)
        params.b = np.zeros(store.dim)  # context evidence silenced
        doc = self._doc_with_candidates(store, [(0, 0.2), (1, 0.7), (2, 0.1)],
                                        [0, 1, 2])
        assert predict_local(doc, params, store) == [1]

    def test_no_candidates_unannotated(self):
        store = toy_store()
        params = LocalParams.init(store.dim, hidden=8)
        doc = self._doc_with_candidates(store, [], [0, 1])
        doc.mentions[0].candidates = []
        assert predict_local(doc, params, store) == [None]

    def test_context_flip_after_training(self):
        # context words equal the low-prior gold's vector; a few SGD steps
        # on B and f must flip the decision away from the prior
        dim = 6
        store = EmbeddingStore(dim)
        gold_vec = np.eye(dim)[0]
        rival_vec = np.eye(dim)[1]
        for i in range(4):
            store.add_words([f"w{i}"], [gold_vec])
        store.add_entities(["GOLD"], [gold_vec])
        store.add_entities(["RIVAL"], [rival_vec])
        params = LocalParams.init(dim, hidden=8, r=4)
        inst = MentionInstance(
            cand_vecs=np.stack([gold_vec, rival_vec]),
            ctx_vecs=np.stack([gold_vec] * 4),
            log_priors=np.array([floored_log_prior(0.1),
                                 floored_log_prior(0.9)]),
            gold_index=0, entities=[0, 1])
        pd = {k: v.copy() for k, v in params.param_dict().items()}
        for _ in range(60):
            tape = ad.Tape()
            vars_ = make_param_vars(tape, pd)
            loss = local_doc_loss_tape(tape, vars_, params.fnet, [inst], 0.05, 4)
            if float(loss.value) == 0.0:
                break
            tape.backward(loss)
            for name, var in vars_.items():
                if var.grad is not None:
                    pd[name] -= 0.2 * var.grad
        params.load_param_dict(pd)
        psi, _, _ = mention_unary(params.a, params.b, params.r, inst.cand_vecs,
                                  inst.ctx_vecs)
        scores = combine_f(params.fnet, psi, inst.log_priors)
        assert scores[0] > scores[1]
