"""Joint CRF: score, message passing, beliefs, marginals, end-to-end gradients."""

import itertools

import numpy as np
import pytest
from tapeops import lbp_beliefs, weighted_sum

from entlink import autodiff as ad
from entlink.attention import (
    FNet,
    MentionInstance,
    combine_f,
    floored_log_prior,
    make_param_vars,
)
from entlink.crf import (
    MESSAGE_NORM_TOL,
    CrfInstance,
    GlobalParams,
    beliefs,
    build_crf_instance,
    crf_score,
    global_doc_loss_tape,
    global_loss_closure,
    predict_global,
    _phi_tensor,
    run_lbp,
)
from entlink.docs import Corpus, Document, Mention, build_context_windows
from entlink.errors import ValidationError
from entlink.priors import Candidate
from entlink.vectors import EmbeddingStore
from entlink.vocab import Vocab


def random_instance(rng, n=None, sizes=None, dim=6, coupling=1.0, uniform_prior=False):
    n = n if n is not None else int(rng.integers(2, 5))
    sizes = sizes if sizes is not None else [int(rng.integers(2, 5)) for _ in range(n)]
    unaries, cand_vecs, entities, log_priors = [], [], [], []
    next_entity = 0
    for s in sizes:
        unaries.append(rng.normal(size=s))
        vecs = rng.normal(size=(s, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        cand_vecs.append(vecs)
        entities.append(list(range(next_entity, next_entity + s)))
        next_entity += s
        if uniform_prior:
            log_priors.append(np.full(s, floored_log_prior(1.0 / s)))
        else:
            p = rng.dirichlet(np.ones(s))
            log_priors.append(np.array([floored_log_prior(x) for x in p]))
    c = coupling * rng.normal(size=dim)
    return CrfInstance(unaries=unaries, cand_vecs=cand_vecs, entities=entities,
                       log_priors=log_priors, c=c)


def brute_force_map(instance):
    """Exhaustive argmax of the joint score over the full assignment space."""
    best, best_score = None, -np.inf
    ranges = [range(psi.shape[0]) for psi in instance.unaries]
    for assignment in itertools.product(*ranges):
        score = crf_score(list(assignment), instance)
        if score > best_score:
            best, best_score = assignment, score
    return list(best), best_score


def brute_force_max_marginals(instance):
    """max_marg[i][e] = max over assignments with e_i = e of the joint score."""
    out = [np.full(psi.shape[0], -np.inf) for psi in instance.unaries]
    ranges = [range(psi.shape[0]) for psi in instance.unaries]
    for assignment in itertools.product(*ranges):
        score = crf_score(list(assignment), instance)
        for i, a in enumerate(assignment):
            if score > out[i][a]:
                out[i][a] = score
    return out


class TestCrfScore:
    def test_single_mention_is_unary(self):
        inst = CrfInstance(unaries=[np.array([1.5, -0.5])],
                           cand_vecs=[np.ones((2, 3))],
                           entities=[[0, 1]],
                           log_priors=[np.zeros(2)], c=np.ones(3))
        assert crf_score([0], inst) == pytest.approx(1.5)
        assert crf_score([1], inst) == pytest.approx(-0.5)

    def test_two_mention_hand_value(self):
        # unaries 1 and 2; raw bilinear 0.25 scaled by 2/(n-1)=2 gives 0.5
        # g = 1 + 2 + 0.5 = 3.5
        inst = CrfInstance(
            unaries=[np.array([1.0]), np.array([2.0])],
            cand_vecs=[np.array([[0.5]]), np.array([[1.0]])],
            entities=[[0], [1]],
            log_priors=[np.zeros(1), np.zeros(1)],
            c=np.array([0.5]),
        )
        assert inst.phi(0, 1)[0, 0] == pytest.approx(0.5)
        assert crf_score([0, 0], inst) == pytest.approx(3.5)

    def test_zero_coupling_sums_unaries(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, n=3, coupling=0.0)
        inst.c = np.zeros_like(inst.c)
        for assignment in itertools.product(*[range(u.shape[0]) for u in inst.unaries]):
            want = sum(inst.unaries[i][a] for i, a in enumerate(assignment))
            assert crf_score(list(assignment), inst) == pytest.approx(want)

    def test_out_of_set_assignment_rejected(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n=2, sizes=[2, 2])
        with pytest.raises(ValidationError, match="not in candidate set"):
            crf_score([0, 5], inst)

    def test_pairwise_symmetry_exact(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=3)
        for i in range(3):
            for j in range(i + 1, 3):
                np.testing.assert_array_equal(inst.phi(i, j), inst.phi(j, i).T)

    def test_phi_tensor_matches_per_pair_oracle(self):
        # the one-GEMM slot-major tensor phi[q, p, i, j] against
        # CrfInstance.phi, with candidate counts below the padded width so
        # padded slots, which hold -inf, sit among real ones
        rng = np.random.default_rng(4)
        for sizes in ([3, 1], [4, 2, 3, 1, 4]):
            inst = random_instance(rng, n=len(sizes), sizes=sizes, dim=7)
            vecs, _, valid = inst.padded()
            phi = _phi_tensor(vecs, valid, inst.c, inst.pair_scale)
            assert phi.flags.c_contiguous
            for i, j in itertools.permutations(range(inst.n), 2):
                np.testing.assert_allclose(phi[:sizes[i], :sizes[j], i, j].T,
                                           inst.phi(i, j), rtol=0, atol=1e-12)
                assert np.isneginf(phi[sizes[i]:, :, i, j]).all()
                assert np.isneginf(phi[:, sizes[j]:, i, j]).all()


def straight_line_trace(instance, t_layers, delta):
    """Independent reimplementation of the synchronous damped recurrence.

    Plain loops and dictionaries, no padding, no vectorisation: used as the
    oracle for the production message-passing code.
    """
    n = instance.n
    sizes = [u.shape[0] for u in instance.unaries]
    phi = {(i, j): instance.phi(i, j) for i in range(n) for j in range(n) if i != j}
    mbar = {(i, j): np.full(sizes[j], -np.log(sizes[j]))
            for i in range(n) for j in range(n) if i != j}
    for _ in range(t_layers):
        new = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                m = np.empty(sizes[j])
                for e in range(sizes[j]):
                    best = -np.inf
                    for ep in range(sizes[i]):
                        val = instance.unaries[i][ep] + phi[(i, j)][e, ep]
                        for k in range(n):
                            if k != j and k != i:
                                val += mbar[(k, i)][ep]
                        best = max(best, val)
                    m[e] = best
                ex = np.exp(m - m.max())
                softmax = ex / ex.sum()
                mixed = delta * softmax + (1.0 - delta) * np.exp(mbar[(i, j)])
                new[(i, j)] = np.log(mixed)
        mbar = new
    mu = []
    for i in range(n):
        vec = instance.unaries[i].copy()
        for k in range(n):
            if k != i:
                vec += mbar[(k, i)]
        ex = np.exp(vec - vec.max())
        mu.append(ex / ex.sum())
    return mbar, mu


class TestLbpStep:
    def test_delta_one_is_log_softmax(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n=2, sizes=[3, 2])
        state = run_lbp(inst, t=1, delta=1.0)
        # recompute the unnormalised message by hand and log-softmax it
        phi = inst.phi(0, 1)
        raw = np.array([
            (inst.unaries[0] + phi[e] - np.log(3)).max() for e in range(2)
        ])
        # the neighbour sum for n=2 is empty except the layer-0 uniform
        # message from j itself is excluded, so raw = max(psi + phi)
        raw = np.array([(inst.unaries[0] + phi[e]).max() for e in range(2)])
        want = raw - np.log(np.exp(raw - raw.max()).sum()) - raw.max()
        got = np.log(state.message(-1, 0, 1)[:2])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_first_layer_two_mentions_formula(self):
        # with two mentions the neighbour sum is empty: the first message is
        # exactly max over e' of psi(e') + phi(e, e'), normalised
        rng = np.random.default_rng(4)
        inst = random_instance(rng, n=2, sizes=[4, 3])
        state = run_lbp(inst, t=1, delta=1.0)
        phi = inst.phi(0, 1)
        for e in range(3):
            raw = np.array([(inst.unaries[0] + phi[f]).max() for f in range(3)])
            want = raw[e] - np.log(np.exp(raw - raw.max()).sum()) - raw.max()
            assert np.log(state.message(-1, 0, 1)[e]) == pytest.approx(want, abs=1e-12)

    def test_matches_straight_line_trace(self):
        # 3-mention, 2-candidate instance traced layer by layer
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=3, sizes=[2, 2, 2])
        for t_layers in (1, 2):
            mbar_want, mu_want = straight_line_trace(inst, t_layers, delta=0.5)
            state = run_lbp(inst, t=t_layers, delta=0.5)
            for (i, j), want in mbar_want.items():
                got = np.log(state.message(-1, i, j)[:want.shape[0]])
                np.testing.assert_allclose(got, want, atol=1e-10)
            got_mu = beliefs(state, inst)
            for want, got in zip(mu_want, got_mu):
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_matches_trace_with_mixed_sizes_and_damping(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            inst = random_instance(rng)
            delta = float(rng.uniform(0.3, 1.0))
            t_layers = int(rng.integers(1, 6))
            mbar_want, mu_want = straight_line_trace(inst, t_layers, delta)
            state = run_lbp(inst, t=t_layers, delta=delta)
            for (i, j), want in mbar_want.items():
                got = np.log(state.message(-1, i, j)[:want.shape[0]])
                np.testing.assert_allclose(got, want, atol=1e-9)
            for want, got in zip(mu_want, beliefs(state, inst)):
                np.testing.assert_allclose(got, want, atol=1e-9)


def tied_instance(n=10, dim=6, seed=23):
    """Integer-valued unaries, candidates and C, each mention's last
    candidate a copy of its first: the max over a sender's slots ties
    exactly at every layer, and sums over senders run past 8 terms."""
    rng = np.random.default_rng(seed)
    unaries, cand_vecs, entities = [], [], []
    for i in range(n):
        s = int(rng.integers(3, 7))
        vecs = rng.integers(-1, 2, size=(s, dim)).astype(float)
        psi = rng.integers(0, 2, size=s).astype(float)
        vecs[-1], psi[-1] = vecs[0], psi[0]
        unaries.append(psi)
        cand_vecs.append(vecs)
        entities.append(list(range(10 * i, 10 * i + s)))
    return CrfInstance(unaries=unaries, cand_vecs=cand_vecs, entities=entities,
                       log_priors=[np.zeros(u.shape[0]) for u in unaries],
                       c=rng.integers(1, 3, size=dim).astype(float))


class TestTiedRouting:
    def test_backward_routes_to_first_maximal_sender_slot(self):
        inst = tied_instance()
        t_layers, delta = 4, 0.5
        sizes = [u.shape[0] for u in inst.unaries]
        state = run_lbp(inst, t=t_layers, delta=delta)
        routes, tied = set(), 0
        for layer in range(t_layers):
            # the messages entering this layer, by plain loops
            mbar, _ = straight_line_trace(inst, layer, delta)
            got = state.senders(layer)
            for i, j in itertools.permutations(range(inst.n), 2):
                phi = inst.phi(i, j)
                for e in range(sizes[j]):
                    others = [k for k in range(inst.n) if k not in (i, j)]
                    vals = [inst.unaries[i][ep] + phi[e, ep]
                            + sum(mbar[(k, i)][ep] for k in others)
                            for ep in range(sizes[i])]
                    best = [ep for ep in range(sizes[i]) if vals[ep] >= max(vals) - 1e-9]
                    tied += len(best) > 1
                    assert got[e, i, j] == best[0], (layer, i, j, e, best)
                    routes.add((best[0], e, i, j))
        assert tied > 100
        # the backward sends each maximum's adjoint to that slot only
        g_mu = np.zeros_like(state.psi)
        g_mu[:2] = 1.0
        _, g_phi = state.backward(g_mu)
        assert {tuple(k) for k in np.argwhere(g_phi != 0)} <= routes
        assert np.count_nonzero(g_phi) > 0

    def test_sender_sums_add_in_sender_order(self):
        # the sums over senders (forward) and over receivers (backward) add
        # term by term in mention order, bit for bit: with n=10 a pairwise
        # or reordered summation shows in the last bits
        inst = tied_instance()
        n, delta = inst.n, 0.5
        state = run_lbp(inst, t=3, delta=delta)
        s = state.psi.shape[0]
        live = [(q, i) for i in range(n) for q in range(inst.unaries[i].shape[0])]
        for layer in range(3):
            log_m = np.log(state.mix[layer])
            for q, i in live:
                acc = 0.0
                for k in range(n):
                    acc += log_m[q, k, i]
                pre = state.psi[q, i] + acc
                for j in range(n):
                    assert state.v[layer][q, i, j] == pre - log_m[q, j, i]
        one = run_lbp(inst, t=1, delta=delta)
        g_mu = np.zeros_like(one.psi)
        rng = np.random.default_rng(3)
        for q, i in live:
            g_mu[q, i] = rng.normal()
        g_psi, _ = one.backward(g_mu)
        soft, keep, send = one.soft[0], one.keep, one.senders(0)
        g_soft = delta * (g_mu[:, None, :] / one.mix[1])
        g_u = np.zeros_like(soft)
        for i, j in itertools.permutations(range(n), 2):
            inner = 0.0
            for p in range(s):
                inner += g_soft[p, i, j] * soft[p, i, j] if keep[p, i, j] else 0.0
            for p in range(s):
                if keep[p, i, j]:
                    g_u[p, i, j] = soft[p, i, j] * (g_soft[p, i, j] - inner)
        for q, i in live:
            acc = 0.0
            for j in range(n):
                g_v = 0.0
                for p in range(s):
                    g_v += g_u[p, i, j] if send[p, i, j] == q else 0.0
                acc += g_v
            assert g_psi[q, i] == g_mu[q, i] + acc

    def test_tape_gradient_matches_finite_differences(self):
        inst = tied_instance()
        dim = inst.cand_vecs[0].shape[1]
        instances = [MentionInstance(cand_vecs=inst.cand_vecs[i],
                                     ctx_vecs=np.zeros((0, dim)),
                                     log_priors=inst.log_priors[i], gold_index=0,
                                     entities=inst.entities[i])
                     for i in range(inst.n)]
        weights = [np.random.default_rng(i).normal(size=u.shape[0])
                   for i, u in enumerate(inst.unaries)]

        def f(params, need_grad):
            tape = ad.Tape()
            c = tape.var(params["C"])
            psi = [tape.var(params[f"u{i}"]) for i in range(inst.n)]
            mubars = lbp_beliefs(tape, psi, instances, c, 0.5, 4)
            loss = weighted_sum(tape, mubars, weights)
            if not need_grad:
                return float(loss.value), None
            tape.backward(loss)
            grads = {"C": c.grad, **{f"u{i}": p.grad for i, p in enumerate(psi)}}
            return float(loss.value), grads

        params = {"C": inst.c.copy(),
                  **{f"u{i}": u.copy() for i, u in enumerate(inst.unaries)}}
        # coordinates on a tie are kinks, which grad_check skips
        report = ad.grad_check(f, params)
        assert report.checked >= 10
        assert report.ok(1e-4), report.max_rel_err


class TestBeliefs:
    def test_single_mention_softmax_of_unary(self):
        inst = CrfInstance(unaries=[np.array([1.0, 3.0, 2.0])],
                           cand_vecs=[np.ones((3, 2))],
                           entities=[[0, 1, 2]],
                           log_priors=[np.zeros(3)], c=np.ones(2))
        state = run_lbp(inst, t=1, delta=0.5)
        mu = beliefs(state, inst)
        ex = np.exp(np.array([1.0, 3.0, 2.0]) - 3.0)
        np.testing.assert_allclose(mu[0], ex / ex.sum(), atol=1e-12)

    def test_zero_coupling_gives_unary_softmax_any_t(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n=3)
        inst.c = np.zeros_like(inst.c)
        for t_layers in (1, 3, 10):
            state = run_lbp(inst, t=t_layers, delta=0.5)
            mu = beliefs(state, inst)
            for i in range(3):
                ex = np.exp(inst.unaries[i] - inst.unaries[i].max())
                np.testing.assert_allclose(mu[i], ex / ex.sum(), atol=1e-9)

    def test_two_mention_tree_exact_max_marginals(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            inst = random_instance(rng, n=2)
            state = run_lbp(inst, t=2, delta=1.0)
            mu = beliefs(state, inst)
            exact = brute_force_max_marginals(inst)
            for i in range(2):
                assert int(np.argmax(mu[i])) == int(np.argmax(exact[i]))

    def test_message_normalization_all_layers(self):
        # every layer's messages sum to 1 over the receiver's candidates and
        # equal the straight-line trace truncated at that layer
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = random_instance(rng)
            state = run_lbp(inst, t=5, delta=0.6)
            assert len(state.mix) == 6
            for layer in range(len(state.mix)):
                mbar_want, _ = straight_line_trace(inst, layer, delta=0.6)
                for (i, j), want in mbar_want.items():
                    got = state.message(layer, i, j)[:want.shape[0]]
                    assert abs(got.sum() - 1.0) <= MESSAGE_NORM_TOL
                    np.testing.assert_allclose(got, np.exp(want), atol=1e-9)
        # a message that stops summing to 1 is rejected at its layer
        inst.unaries[0][0] = np.nan
        with pytest.raises(ValidationError, match="at layer 1 sums to"), \
                np.errstate(invalid="ignore"):
            run_lbp(inst, t=3, delta=0.6)

    def test_permutation_invariance(self):
        # permuting mention order and permuting back yields identical beliefs
        rng = np.random.default_rng(10)
        inst = random_instance(rng, n=4, sizes=[3, 2, 4, 2])
        perm = [2, 0, 3, 1]
        permuted = CrfInstance(
            unaries=[inst.unaries[p] for p in perm],
            cand_vecs=[inst.cand_vecs[p] for p in perm],
            entities=[inst.entities[p] for p in perm],
            log_priors=[inst.log_priors[p] for p in perm],
            c=inst.c,
        )
        mu = beliefs(run_lbp(inst, 5, 0.5), inst)
        mu_perm = beliefs(run_lbp(permuted, 5, 0.5), permuted)
        for i, p in enumerate(perm):
            np.testing.assert_allclose(mu_perm[i], mu[p], atol=1e-12)


class TestCombineRho:
    def test_zero_weight_network_ties_break_by_entity_id(self):
        from entlink.attention import argmax_entity
        net = FNet.zeros(hidden=4)
        rho = combine_f(net, np.array([0.2, 0.5, 0.3]), np.zeros(3))
        assert argmax_entity(rho, [7, 3, 9]) == 3

    def test_additive_network_orders_by_belief_plus_log_prior(self):
        net = FNet.additive(hidden=8)
        rng = np.random.default_rng(11)
        for _ in range(20):
            mu = rng.dirichlet(np.ones(4))
            logp = np.log(rng.dirichlet(np.ones(4)))
            rho = combine_f(net, mu, logp)
            np.testing.assert_array_equal(np.argsort(rho), np.argsort(mu + logp))


class TestGlobalLoss:
    def _make_instances(self, rng, n=3, s=3, dim=5, sizes=None, ctx_lens=None):
        sizes = sizes if sizes is not None else [s] * n
        ctx_lens = ctx_lens if ctx_lens is not None else [4] * len(sizes)
        out = []
        for s, k in zip(sizes, ctx_lens):
            vecs = rng.normal(size=(s, dim))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            ctx = rng.normal(size=(k, dim))
            p = rng.dirichlet(np.ones(s))
            out.append(MentionInstance(
                cand_vecs=vecs, ctx_vecs=ctx,
                log_priors=np.array([floored_log_prior(x) for x in p]),
                gold_index=int(rng.integers(s)),
                entities=list(range(s))))
        return out

    def test_zero_when_margins_satisfied(self):
        # one mention, gold has overwhelming prior, additive f
        rng = np.random.default_rng(12)
        fnet = FNet.additive(hidden=8)
        vecs = rng.normal(size=(2, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        inst = MentionInstance(
            cand_vecs=vecs, ctx_vecs=np.zeros((0, 4)),
            log_priors=np.array([floored_log_prior(0.999),
                                 floored_log_prior(1e-9)]),
            gold_index=0, entities=[0, 1])
        tape = ad.Tape()
        params = {"A": np.ones(4), "B": np.ones(4), "C": np.ones(4),
                  **fnet.param_dict()}
        vars_ = make_param_vars(tape, params)
        loss = global_doc_loss_tape(tape, vars_, fnet, [inst], 0.01, 2, 0.5, 3)
        assert float(loss.value) == 0.0

    def test_gamma_monotonicity(self):
        rng = np.random.default_rng(13)
        fnet = FNet.random(hidden=8, rng=rng)
        instances = self._make_instances(rng)
        params = {"A": np.ones(5), "B": np.ones(5), "C": np.ones(5),
                  **fnet.param_dict()}
        values = []
        for gamma in (0.01, 0.02):
            tape = ad.Tape()
            vars_ = make_param_vars(tape, params)
            loss = global_doc_loss_tape(tape, vars_, fnet, instances,
                                        gamma, 3, 0.5, 3)
            values.append(float(loss.value))
        assert values[1] >= values[0]

    def test_gradient_matches_finite_differences(self):
        # uniform sizes; mixed sizes with a 1-candidate mention and an
        # empty context; a lone mention (n=1)
        rng = np.random.default_rng(14)
        cases = [dict(n=3, s=3),
                 dict(sizes=[1, 4, 2, 3], ctx_lens=[4, 0, 5, 3]),
                 dict(sizes=[3], ctx_lens=[5])]
        for case in cases:
            fnet = FNet.random(hidden=10, rng=rng)
            instances = self._make_instances(rng, **case)
            params = {"A": 1.0 + 0.1 * rng.normal(size=5),
                      "B": 1.0 + 0.1 * rng.normal(size=5),
                      "C": 1.0 + 0.1 * rng.normal(size=5),
                      **fnet.param_dict()}
            f = global_loss_closure(instances, fnet, gamma=0.05, r=3, delta=0.5, t=3)
            report = ad.grad_check(f, params, coords_per_param=15,
                                   rng=np.random.default_rng(1))
            assert report.checked > 0
            assert report.ok(1e-4), (case, report.max_rel_err)

    def test_vectorized_tape_beliefs_match_fast_path(self):
        # the recorded op's beliefs equal the straight-line recurrence
        rng = np.random.default_rng(21)
        for _ in range(8):
            inst = random_instance(rng)
            t_layers = int(rng.integers(1, 6))
            delta = float(rng.uniform(0.3, 1.0))
            dim = inst.cand_vecs[0].shape[1]
            instances = [MentionInstance(cand_vecs=inst.cand_vecs[i],
                                         ctx_vecs=np.zeros((0, dim)),
                                         log_priors=inst.log_priors[i],
                                         gold_index=0,
                                         entities=inst.entities[i])
                         for i in range(inst.n)]
            tape = ad.Tape()
            c = tape.var(inst.c)
            psi = [tape.const(u) for u in inst.unaries]
            mubars = lbp_beliefs(tape, psi, instances, c, delta, t_layers)
            _, mu_want = straight_line_trace(inst, t_layers, delta)
            for got, want in zip(mubars, mu_want):
                np.testing.assert_allclose(got.value, want, atol=1e-10)

    def test_tape_beliefs_match_fast_path(self):
        # the recorded op runs the same recurrence as the straight-line
        # trace, and its hand-derived adjoints of the unaries and of C match
        # central differences of that trace
        rng = np.random.default_rng(15)
        inst = random_instance(rng, n=3, sizes=[3, 2, 4])
        t_layers, delta = 4, 0.5
        dim = inst.cand_vecs[0].shape[1]
        instances = [MentionInstance(cand_vecs=inst.cand_vecs[i],
                                     ctx_vecs=np.zeros((0, dim)),
                                     log_priors=inst.log_priors[i],
                                     gold_index=0,
                                     entities=inst.entities[i])
                     for i in range(3)]
        weights = [rng.normal(size=u.shape[0]) for u in inst.unaries]

        def probe(unaries, c):
            moved = CrfInstance(unaries=unaries, cand_vecs=inst.cand_vecs,
                                entities=inst.entities, log_priors=inst.log_priors, c=c)
            _, mu = straight_line_trace(moved, t_layers, delta)
            return mu, sum(float(w @ m) for w, m in zip(weights, mu))

        tape = ad.Tape()
        c = tape.var(inst.c)
        psi = [tape.var(u) for u in inst.unaries]
        mubars = lbp_beliefs(tape, psi, instances, c, delta, t_layers)
        mu_want, _ = probe(inst.unaries, inst.c)
        mu_fast = beliefs(run_lbp(inst, t=t_layers, delta=delta), inst)
        for got, want, fast in zip(mubars, mu_want, mu_fast):
            np.testing.assert_allclose(got.value, want, atol=1e-10)
            np.testing.assert_allclose(fast, want, atol=1e-10)

        tape.backward(weighted_sum(tape, mubars, weights))
        eps = 1e-6
        for i, u in enumerate(inst.unaries):
            for e in range(u.shape[0]):
                up = [v.copy() for v in inst.unaries]
                down = [v.copy() for v in inst.unaries]
                up[i][e] += eps
                down[i][e] -= eps
                numeric = (probe(up, inst.c)[1] - probe(down, inst.c)[1]) / (2 * eps)
                assert psi[i].grad[e] == pytest.approx(numeric, rel=1e-5, abs=1e-8)
        for d in range(dim):
            step = np.zeros(dim)
            step[d] = eps
            numeric = (probe(inst.unaries, inst.c + step)[1]
                       - probe(inst.unaries, inst.c - step)[1]) / (2 * eps)
            assert c.grad[d] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


    def test_c_adjoint_matches_einsum_reference(self):
        # the GEMM form of C's adjoint against the contraction it replaces,
        # pair_scale * sum_qpij g_phi[q, p, i, j] x_jp x_iq, from the same
        # unroll and the same phi adjoint
        rng = np.random.default_rng(8)
        inst = random_instance(rng, n=5, sizes=[4, 2, 3, 1, 4], dim=16)
        t_layers, delta = 5, 0.5
        instances = [MentionInstance(cand_vecs=inst.cand_vecs[i],
                                     ctx_vecs=np.zeros((0, 16)),
                                     log_priors=inst.log_priors[i],
                                     gold_index=0,
                                     entities=inst.entities[i])
                     for i in range(inst.n)]
        weights = [rng.normal(size=u.shape[0]) for u in inst.unaries]
        tape = ad.Tape()
        c = tape.var(inst.c)
        mubars = lbp_beliefs(tape, [tape.const(u) for u in inst.unaries],
                             instances, c, delta, t_layers)
        tape.backward(weighted_sum(tape, mubars, weights))

        state = run_lbp(inst, t=t_layers, delta=delta)
        g_mu = np.zeros_like(state.psi)
        for i, (w, mu) in enumerate(zip(weights, beliefs(state, inst))):
            g_mu[:mu.shape[0], i] = mu * (w - w @ mu)
        _, g_phi = state.backward(g_mu)
        vecs, _, _ = inst.padded()
        want = inst.pair_scale * np.einsum("qpij,jpd,iqd->d", g_phi, vecs, vecs)
        np.testing.assert_allclose(c.grad, want, rtol=1e-12, atol=0)


class TestPredictGlobal:
    def _store_and_doc(self, dim=6, seed=16):
        rng = np.random.default_rng(seed)
        store = EmbeddingStore(dim, word_vocab=Vocab())
        for i in range(8):
            v = rng.normal(size=dim)
            store.add_word(f"w{i}", v / np.linalg.norm(v))
        for i in range(6):
            v = rng.normal(size=dim)
            store.add_entity(f"E{i}", v / np.linalg.norm(v))
        return store

    def test_single_mention_reduces_to_unary_argmax_with_f(self):
        store = self._store_and_doc()
        params = GlobalParams.init(store.dim, hidden=8, r=2, t=4)
        doc = Document(doc_id="d", tokens=["w0", "w1", "M"], mentions=[
            Mention(start=2, end=3, surface="M")])
        doc.mentions[0].candidates = [Candidate(0, 0.5, "prior-top"),
                                      Candidate(1, 0.5, "prior-top")]
        corpus = Corpus([doc])
        build_context_windows(corpus, store.word_vocab, k=4)
        got = predict_global(doc, params, store)
        inst, _ = build_crf_instance(doc, params, store)
        mu = np.exp(inst.unaries[0] - inst.unaries[0].max())
        mu /= mu.sum()
        rho = combine_f(params.local.fnet, mu, inst.log_priors[0])
        assert got == [inst.entities[0][int(np.argmax(rho))]]

    def test_coherence_flips_ambiguous_unaries(self):
        # two mentions with flat unaries; the gold pair has a strong
        # pairwise score, so joint inference picks it while independent
        # unary argmax would dangle on the tie
        dim = 4
        e = np.eye(dim)
        inst = CrfInstance(
            unaries=[np.array([0.0, 0.05]), np.array([0.05, 0.0])],
            cand_vecs=[np.stack([e[0], e[1]]), np.stack([e[0], e[2]])],
            entities=[[0, 1], [2, 3]],
            log_priors=[np.log(np.array([0.5, 0.5]))] * 2,
            c=np.full(dim, 2.0),
        )
        # brute force confirms the coherent pair (0, 0) wins jointly
        map_assignment, _ = brute_force_map(inst)
        assert map_assignment == [0, 0]
        unary_argmax = [int(np.argmax(u)) for u in inst.unaries]
        assert unary_argmax != map_assignment
        state = run_lbp(inst, t=10, delta=0.5)
        mu = beliefs(state, inst)
        assert [int(np.argmax(m)) for m in mu] == map_assignment

    def test_zero_coupling_passthrough_f_uniform_prior_matches_local(self):
        # with C = 0, a monotone additive f and uniform priors, the joint
        # prediction reduces to the local unary argmax
        from entlink.attention import predict_local
        store = self._store_and_doc(seed=17)
        gparams = GlobalParams.init(store.dim, hidden=8, r=3, t=5)
        gparams.c = np.zeros(store.dim)
        tokens = ["w0", "w1", "M1", "w2", "w3", "M2"]
        doc = Document(doc_id="d", tokens=tokens, mentions=[
            Mention(start=2, end=3, surface="M1"),
            Mention(start=5, end=6, surface="M2")])
        doc.mentions[0].candidates = [Candidate(0, 0.25, "prior-top"),
                                      Candidate(1, 0.25, "prior-top"),
                                      Candidate(2, 0.25, "prior-top"),
                                      Candidate(3, 0.25, "prior-top")]
        doc.mentions[1].candidates = [Candidate(2, 0.5, "prior-top"),
                                      Candidate(4, 0.5, "prior-top")]
        corpus = Corpus([doc])
        build_context_windows(corpus, store.word_vocab, k=4)
        local = predict_local(doc, gparams.local, store)
        joint = predict_global(doc, gparams, store)
        assert joint == local

    def test_mention_without_candidates_between_two(self):
        # the instance holds the outer mentions at their own positions, and
        # both models leave the candidate-less middle one unannotated
        from entlink.attention import predict_local
        store = self._store_and_doc(seed=19)
        params = GlobalParams.init(store.dim, hidden=8, r=2, t=4)
        doc = Document(doc_id="d", tokens=["w0", "M1", "w1", "M2", "w2", "M3", "w3"],
                       mentions=[Mention(start=1, end=2, surface="M1"),
                                 Mention(start=3, end=4, surface="M2"),
                                 Mention(start=5, end=6, surface="M3")])
        doc.mentions[0].candidates = [Candidate(0, 0.6, "prior-top"),
                                      Candidate(1, 0.4, "prior-top")]
        doc.mentions[1].candidates = []
        doc.mentions[2].candidates = [Candidate(2, 0.3, "prior-top"),
                                      Candidate(3, 0.7, "prior-top")]
        build_context_windows(Corpus([doc]), store.word_vocab, k=4)
        inst, positions = build_crf_instance(doc, params, store)
        assert positions == [0, 2]
        assert inst.entities == [[0, 1], [2, 3]]
        for preds in (predict_local(doc, params.local, store),
                      predict_global(doc, params, store)):
            assert preds[0] in (0, 1)
            assert preds[1] is None
            assert preds[2] in (2, 3)

    def test_loopy_map_agreement_rate(self):
        # small fully-connected instances: belief argmax equals the exact
        # MAP on a clear majority (the acceptance suite measures >= 90%)
        rng = np.random.default_rng(18)
        agree = 0
        trials = 60
        for _ in range(trials):
            inst = random_instance(rng, coupling=0.7)
            state = run_lbp(inst, t=10, delta=0.5)
            mu = beliefs(state, inst)
            got = [int(np.argmax(m)) for m in mu]
            want, _ = brute_force_map(inst)
            agree += int(got == want)
        assert agree / trials >= 0.9
