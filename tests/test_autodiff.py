"""Tape engine: record mechanics, the model records and the finite-difference checker."""

import numpy as np
import pytest
from tapeops import lbp_beliefs, split_rows, stack_rows, weighted_sum

from entlink import autodiff as ad
from entlink.attention import (FNet, MentionInstance, make_param_vars, mention_unary,
                               record_rank_loss, record_unaries)
from entlink.errors import ValidationError


# -- test ops built on `record` -------------------------------------------


def add(t, a, b):
    def backward(g):
        a._accum(g)
        b._accum(g)

    return ad.record(t, [a.value + b.value], (a, b), backward)[0]


def inner(t, a, b):
    def backward(g):
        a._accum(g * b.value)
        b._accum(g * a.value)

    return ad.record(t, [np.dot(a.value, b.value)], (a, b), backward)[0]


def relu(t, a):
    live = a.value > 0.0
    return ad.record(t, [np.where(live, a.value, 0.0)], (a,),
                     lambda g: a._accum(g * live))[0]


def mention(cand_vecs, ctx_vecs):
    cand_vecs = np.asarray(cand_vecs, dtype=float)
    return MentionInstance(cand_vecs=cand_vecs, ctx_vecs=np.asarray(ctx_vecs, dtype=float),
                           log_priors=np.zeros(cand_vecs.shape[0]), gold_index=0)


def unary_grads(cand_vecs, ctx_vecs, a, b, r, weights):
    """Scores and tape adjoints of A and B for the loss weights . psi."""
    t = ad.Tape()
    vars_ = {"A": t.var(a), "B": t.var(b)}
    block = record_unaries(t, vars_, [mention(cand_vecs, ctx_vecs)], r)
    [psi] = split_rows(t, block, [len(weights)])
    t.backward(weighted_sum(t, [psi], [weights]))
    return psi.value, vars_["A"].grad, vars_["B"].grad



def test_softmax_symmetry():
    # a lone mention's beliefs are the softmax of its unaries; it has no
    # pairs, so C receives no adjoint at all
    t = ad.Tape()
    psi, c = t.var(np.array([0.0, 0.0])), t.var(np.ones(2))
    [y] = lbp_beliefs(t, [psi], [mention(np.eye(2), np.zeros((0, 2)))], c, 0.5, 1)
    np.testing.assert_allclose(y.value, [0.5, 0.5])
    t.backward(weighted_sum(t, [y], [np.array([1.0, 0.0])]))
    np.testing.assert_allclose(psi.grad, [0.25, -0.25])
    assert c.grad is None


# -- the combination network and ranking loss record ------------------------


def identity_f() -> FNet:
    """One hidden unit: rho = relu(relu(score)), the log prior ignored."""
    return FNet(w1=np.array([[1.0, 0.0]]), b1=np.zeros(1), w2=np.ones((1, 1)),
                b2=np.zeros(1), w3=np.ones((1, 1)), b3=np.zeros(1))


def scored(sizes, golds, log_priors=None):
    """Mentions with the given candidate counts and gold slots, no context."""
    log_priors = log_priors or [np.zeros(s) for s in sizes]
    return [MentionInstance(cand_vecs=np.zeros((s, 1)), ctx_vecs=np.zeros((0, 1)),
                            log_priors=p, gold_index=g)
            for s, g, p in zip(sizes, golds, log_priors)]


def rank_loss(fnet, scores, golds, gamma):
    """Loss record over mentions with the given scores; returns loss, score Vars, f Vars."""
    t = ad.Tape()
    vars_ = make_param_vars(t, fnet.param_dict())
    score_vars = [t.var(s) for s in scores]
    instances = scored([len(s) for s in scores], golds)
    loss = record_rank_loss(t, vars_, stack_rows(t, score_vars), instances, gamma)
    t.backward(loss)
    return loss, score_vars, vars_


def test_relu_forward_and_grad():
    # rho = [1, 0, 0]; both rivals violate the margin by 1.  The rival at a
    # relu input of exactly 0 and the one below it pass no adjoint back.
    loss, [s], vars_ = rank_loss(identity_f(), [[1.0, 0.0, -3.0]], [0], 2.0)
    assert float(loss.value) == 2.0
    np.testing.assert_array_equal(s.grad, [-2.0, 0.0, 0.0])
    np.testing.assert_array_equal(vars_["f.b1"].grad, [-2.0])
    np.testing.assert_array_equal(vars_["f.w1"].grad, [[-2.0, 0.0]])


def test_rank_loss_zero_margin_passes_no_adjoint():
    # mention 0 sits exactly on the margin (0.5 - 1 + 0.5 = 0): no loss and
    # no adjoint; mention 1 violates it by 0.25
    loss, [s0, s1], _ = rank_loss(identity_f(), [[1.0, 0.5], [1.0, 0.75]], [0, 0], 0.5)
    assert float(loss.value) == 0.25
    np.testing.assert_array_equal(s0.grad, [0.0, 0.0])
    np.testing.assert_array_equal(s1.grad, [-1.0, 1.0])


def test_rank_loss_gold_term_masked():
    # three tied candidates: two rival terms of gamma, none for the gold
    loss, [s], _ = rank_loss(identity_f(), [[1.0, 1.0, 1.0]], [1], 0.25)
    assert float(loss.value) == 0.5
    np.testing.assert_array_equal(s.grad, [1.0, -2.0, 1.0])


def test_linear_layer_grads_match_fd():
    # adjoints of f's layers and of every trainable mention's score;
    # an untrainable mention between them adds nothing and gets a zero adjoint
    rng = np.random.default_rng(5)
    fnet = FNet.random(hidden=6, scale=0.8, rng=rng)
    sizes, golds = [4, 3, 2], [2, None, 0]
    instances = scored(sizes, golds, [np.log(rng.dirichlet(np.ones(s))) for s in sizes])
    params = {**fnet.param_dict(), **{f"s{i}": rng.normal(size=s) for i, s in enumerate(sizes)}}

    def f(params, need_grad):
        t = ad.Tape()
        vars_ = make_param_vars(t, params)
        scores = stack_rows(t, [vars_[f"s{i}"] for i in range(len(sizes))])
        loss = record_rank_loss(t, vars_, scores, instances, 0.5)
        if not need_grad:
            return float(loss.value), None
        t.backward(loss)
        assert not vars_["s1"].grad.any()
        return float(loss.value), {k: v.grad if v.grad is not None else np.zeros_like(v.value)
                                   for k, v in vars_.items()}

    report = ad.grad_check(f, params)
    assert report.checked > 30
    assert report.ok(1e-6), report.max_rel_err


def test_max_subgradient():
    # away from ties the support max's routed adjoint is the true gradient
    rng = np.random.default_rng(1)
    cands, ctx = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
    a, b, w = rng.normal(size=4), rng.normal(size=4), rng.normal(size=3)
    _, grad_a, _ = unary_grads(cands, ctx, a, b, 3, w)
    eps = 1e-6
    for d in range(4):
        step = np.zeros(4)
        step[d] = eps
        up = w @ mention_unary(a + step, b, 3, cands, ctx)[0]
        down = w @ mention_unary(a - step, b, 3, cands, ctx)[0]
        assert grad_a[d] == pytest.approx((up - down) / (2 * eps), rel=1e-6)


def test_max_tie_routes_to_first_index():
    # word 0 has support 1 from both candidates; its adjoint goes to row 0
    cands = [[1.0, 0.0], [0.0, 1.0]]
    ctx = [[1.0, 1.0], [0.5, 0.0]]
    _, grad_a, _ = unary_grads(cands, ctx, np.ones(2), np.ones(2), 2, np.array([1.0, 0.0]))
    beta = np.exp([1.0, 0.5]) / np.exp([1.0, 0.5]).sum()
    want = 0.25 * beta[0] * beta[1]  # row 1 would give [-want, 2 * want]
    np.testing.assert_allclose(grad_a, [want, 0.0], atol=1e-15)


def test_masked_softmax_exact_zero_probability_and_gradient():
    # pruned words get exactly zero attention and contribute no adjoint:
    # dropping them from the context changes neither value nor gradient
    rng = np.random.default_rng(2)
    cands = rng.normal(size=(3, 4))
    ctx = rng.normal(size=(4, 4))
    a, b, w = np.ones(4), rng.normal(size=4), rng.normal(size=3)
    _, beta, _ = mention_unary(a, b, 2, cands, ctx)
    pruned = beta == 0.0
    assert pruned.sum() == 2
    assert beta.sum() == pytest.approx(1.0)
    psi, grad_a, grad_b = unary_grads(cands, ctx, a, b, 2, w)
    psi_kept, grad_a_kept, grad_b_kept = unary_grads(cands, ctx[~pruned], a, b, 2, w)
    np.testing.assert_allclose(psi, psi_kept, atol=1e-12)
    np.testing.assert_allclose(grad_a, grad_a_kept, atol=1e-12)
    np.testing.assert_allclose(grad_b, grad_b_kept, atol=1e-12)
    assert abs(grad_a[0]) > 0.0


def test_all_masked_softmax_rejected():
    t = ad.Tape()
    vars_ = {"A": t.var(np.ones(2)), "B": t.var(np.ones(2))}
    with pytest.raises(ValidationError, match="attention budget"):
        record_unaries(t, vars_, [mention(np.eye(2), np.eye(2))], 0)


def test_gradient_linearity_on_random_programs():
    # grad(a*f + b*g) == a*grad(f) + b*grad(g)
    rng = np.random.default_rng(42)
    for _ in range(20):
        x0 = rng.normal(size=5)
        a, b = rng.normal(size=2)
        consts = rng.normal(size=5)

        def build(xv):
            t = ad.Tape()
            x = t.var(xv)
            f = inner(t, x, x)
            g = weighted_sum(t, [relu(t, add(t, x, t.const(np.full(5, 0.3))))], [consts])
            return t, x, f, g

        t1, x1, f1, g1 = build(x0)
        t1.backward(weighted_sum(t1, [f1, g1], [a, b]))
        t2, x2, f2, _ = build(x0)
        t2.backward(f2)
        t3, x3, _, g3 = build(x0)
        t3.backward(g3)
        np.testing.assert_allclose(x1.grad, a * x2.grad + b * x3.grad, atol=1e-12)


def test_adjoints_accumulate_on_reuse():
    t = ad.Tape()
    x = t.var(np.array([3.0]))
    y = inner(t, x, x)  # d/dx = 2x, reached through two paths
    t.backward(y)
    assert x.grad[0] == pytest.approx(6.0)


def test_bilinear_diag_values_and_grads():
    # context scores are the attention-weighted diagonal bilinear form,
    # and the adjoint of its diagonal B is the matching contraction
    rng = np.random.default_rng(0)
    left = rng.normal(size=(3, 4))
    right = rng.normal(size=(2, 4))
    diag = rng.normal(size=4)
    w = rng.normal(size=3)
    psi, _, grad_b = unary_grads(left, right, np.ones(4), diag, 2, w)
    _, beta, _ = mention_unary(np.ones(4), diag, 2, left, right)
    want = np.einsum("pd,d,qd,q->p", left, diag, right, beta)
    np.testing.assert_allclose(psi, want, atol=1e-12)
    want_grad = np.einsum("p,pd,qd,q->d", w, left, right, beta)
    np.testing.assert_allclose(grad_b, want_grad, atol=1e-12)


def test_maxplus_forward_and_routing():
    # two mentions, one layer, delta 1: the message 0 -> 1 is the softmax
    # over 1's slots of max_q (phi[p, q] + psi0[q]) with phi = 2 x1[p] . x0[q].
    # Slot p=0 ties over q and routes to q=0; slot p=1 takes q=1.
    t = ad.Tape()
    psi0 = t.var(np.array([0.0, 0.0]))
    psi1 = t.var(np.array([0.0, 0.0]))
    instances = [mention(np.eye(2), np.zeros((0, 2))),
                 mention([[1.0, 1.0], [0.0, 1.0]], np.zeros((0, 2)))]
    _, b1 = lbp_beliefs(t, [psi0, psi1], instances, t.var(np.ones(2)), 1.0, 1)
    np.testing.assert_allclose(b1.value, [0.5, 0.5])
    t.backward(weighted_sum(t, [b1], [np.array([1.0, 0.0])]))
    np.testing.assert_allclose(psi1.grad, [0.25, -0.25], atol=1e-15)
    np.testing.assert_allclose(psi0.grad, [0.25, -0.25], atol=1e-15)


def test_max_over_rows_routing():
    # each word's support adjoint goes to its own maximal candidate row;
    # word 2 ties rows 0 and 1 and goes to row 0
    cands = np.eye(3)
    ctx = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3.0, 1.5, 0.0]])
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, -1.0, 2.0])
    g = np.array([1.0, -2.0, 0.5])
    _, grad_a, _ = unary_grads(cands, ctx, a, b, 3, g)
    u = np.array([1.0, 2.0, 3.0])
    rows = [0, 1, 0]
    beta = np.exp(u - u.max()) / np.exp(u - u.max()).sum()
    g_beta = ((cands * b) @ ctx.T).T @ g
    g_u = beta * (g_beta - g_beta @ beta)
    want = sum(g_u[w] * cands[rows[w]] * ctx[w] for w in range(3))
    np.testing.assert_allclose(grad_a, want, atol=1e-12)


def test_grad_check_quadratic():
    def f(params, need_grad):
        t = ad.Tape()
        x = t.var(params["x"])
        y = inner(t, x, x)
        if not need_grad:
            return float(y.value), None
        t.backward(y)
        return float(y.value), {"x": x.grad}

    report = ad.grad_check(f, {"x": np.array([3.0])}, epsilon=1e-5)
    # analytic 6 vs central difference 6
    assert report.checked == 1
    assert report.ok(1e-6)


def test_grad_check_skips_kinks():
    # |x| has a kink at 0; the checker must skip, not fail
    def f(params, need_grad):
        t = ad.Tape()
        x = t.var(params["x"])
        y = weighted_sum(t, [relu(t, x)], [np.ones(2)])
        if not need_grad:
            return float(y.value), None
        t.backward(y)
        return float(y.value), {"x": x.grad}

    report = ad.grad_check(f, {"x": np.array([0.0, 2.0])})
    assert ("x", (0,)) in report.skipped
    assert report.ok(1e-6)


def test_non_finite_primal_rejected():
    t = ad.Tape()
    with pytest.raises(ValidationError, match="non-finite"):
        t.var(np.array([1.0, np.nan]))
    x = t.var(np.array([1e308]))
    with pytest.raises(ValidationError, match="non-finite"), np.errstate(over="ignore"):
        add(t, x, x)


def test_non_finite_adjoint_rejected():
    # each readout passes y an adjoint of 1e308; their sum overflows, and
    # the record that produced y refuses to run its backward on it
    t = ad.Tape()
    x = t.var(np.array([1e-300]))
    y = add(t, x, x)
    readouts = [weighted_sum(t, [y], [[1e308]]) for _ in range(2)]
    root = weighted_sum(t, readouts, [1.0, 1.0])
    with pytest.raises(ValidationError, match="non-finite adjoint"), \
            np.errstate(over="ignore"):
        t.backward(root)


def test_backward_order_is_reverse_of_recording():
    # A value used after later mutation-free ops still receives adjoints
    # from all of them; ordering is checked via a chain.
    t = ad.Tape()
    x = t.var(np.array([2.0]))
    y = add(t, add(t, x, x), x)
    z = inner(t, y, y)
    t.backward(z)
    assert z.value == pytest.approx(36.0)
    assert y.grad[0] == pytest.approx(12.0)
    assert x.grad[0] == pytest.approx(36.0)
