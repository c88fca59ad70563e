"""Per-mention formulation of the training losses, kept as a parity oracle.

One scorer record per mention and one f pass per mention in the ranking
loss, each with its own backward: the formulation the batched records
(`record_unaries`, `record_rank_loss`) replaced.  The joint loss runs
`beliefs_tape` on per-mention values through `tapeops.lbp_beliefs`.
"""

import numpy as np
from tapeops import lbp_beliefs

from entlink import autodiff as ad
from entlink.attention import FNet, f_inputs, mention_unary


def record_unary(tape, vars_, inst, r):
    """One mention's context scores as one record, with adjoints into A and B."""
    cands, ctx = inst.cand_vecs, inst.ctx_vecs
    if ctx.shape[0] == 0:
        return tape.const(np.zeros(cands.shape[0]))
    a, b = vars_["A"], vars_["B"]
    psi, beta, scores = mention_unary(a.value, b.value, r, cands, ctx)
    rows = scores.argmax(axis=0)

    def backward(g):
        cand_g = cands.T @ g
        b._accum(cand_g * (ctx.T @ beta))
        g_beta = ctx @ (b.value * cand_g)
        g_u = beta * (g_beta - g_beta @ beta)
        a._accum((cands[rows] * ctx).T @ g_u)

    return ad.record(tape, [psi], (a, b), backward)[0]


def rank_loss(tape, vars_, scores, instances, gamma):
    """The ranking loss with one f pass and one backward per trainable mention."""
    fvars = [vars_[f"f.{n}"] for n in FNet.NAMES]
    fnet = FNet(*(v.value for v in fvars))
    saved = []
    total = None
    for score, inst in zip(scores, instances):
        gold = inst.gold_index
        if gold is None:
            continue
        x = f_inputs(score.value, inst.log_priors)
        h1, h2, rho = fnet.layers(x)
        margins = rho - rho[gold] + gamma
        mask = np.ones(rho.shape[0])
        mask[gold] = 0.0
        loss = np.dot(np.where(margins > 0.0, margins, 0.0), mask)
        total = loss if total is None else total + loss
        saved.append((score, x, h1, h2, mask * (margins > 0.0), gold))
    if total is None:
        return tape.const(np.zeros(()))

    def backward(g):
        for score, x, h1, h2, live, gold in reversed(saved):
            g_rho = g * live
            g_rho[gold] -= g_rho.sum()
            g3 = g_rho.reshape(-1, 1)
            g2 = (g3 @ fnet.w3) * (h2 > 0.0)
            g1 = (g2 @ fnet.w2) * (h1 > 0.0)
            grads = (g1.T @ x, g1.sum(axis=0), g2.T @ h1, g2.sum(axis=0),
                     g3.T @ h2, g3.sum(axis=0))
            for var, grad in zip(fvars, grads):
                var._accum(grad)
            if score.needs_grad:
                score._accum((g1 @ fnet.w1)[:, 0])

    return ad.record(tape, [total], (*fvars, *scores), backward)[0]


def local_loss(tape, vars_, instances, gamma, r):
    trainable = [inst for inst in instances if inst.gold_index is not None]
    psi = [record_unary(tape, vars_, inst, r) for inst in trainable]
    return rank_loss(tape, vars_, psi, trainable, gamma)


def global_loss(tape, vars_, instances, gamma, r, delta, t):
    if not instances:
        return tape.const(np.zeros(()))
    psi = [record_unary(tape, vars_, inst, r) for inst in instances]
    mubars = lbp_beliefs(tape, psi, instances, vars_["C"], delta, t)
    return rank_loss(tape, vars_, mubars, instances, gamma)
