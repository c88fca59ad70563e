"""Per-mention formulations of the training losses and of inference, kept
as parity oracles.

Training: one scorer record per mention and one f pass per mention in the
ranking loss, each with its own backward: the formulation the batched
records (`record_unaries`, `record_rank_loss`) replaced.  The joint loss
runs `beliefs_tape` on per-mention values through `tapeops.lbp_beliefs`.

Inference: one f pass and one argmax loop per mention, over its context
scores from both scorer steps on its own rows (`mention_unary`,
`local_decision`) or over its beliefs from the full `run_lbp`
unroll (`instance_marginals`): the formulation the per-document f pass and
the vectorised argmax replaced.  `argmax_entity` is the tie-break oracle.
The oracles read a document mention by mention through `doc_instances`,
each mention's candidate and context rows gathered on their own: the form
training's `attention.DocBlock.gather` replaced.

The CRF oracles read a padded `crf.CrfInstance` mention by mention:
`crf_score` enumerates the joint score of one assignment from per-pair dot
products (`phi`), independent of `crf.phi_tensor` and `crf.layers`;
`run_lbp` keeps every layer of the recurrence and `beliefs` cuts its final
beliefs per mention.

Two kernel oracles keep the formulations that per-document inference
replaced: `slot_layers` takes the max over sender slots one slot at a time
(`crf.layers` takes it in blocks), and `along_axis_attend` gathers and
scatters with numpy's along-axis helpers (`attention.attend` uses one
index grid).
"""

from types import SimpleNamespace

import numpy as np
from tapeops import lbp_beliefs

from entlink import autodiff as ad
from entlink.attention import (DocMentions, FNet, MentionInstance, attend, combine_f,
                               context_blocks, f_inputs, ordered_sum, top_r)
from entlink.crf import final_beliefs, message_masks, phi_tensor, unroll
from entlink.errors import ValidationError


def mention_rows(block, valid):
    """Each mention's live slots of an (n, S, ...) block, given its (n, S)
    validity."""
    return [row[live] for row, live in zip(block, valid)]


def per_mention(instance):
    """The instance's per-mention unaries, candidate rows, entity id lists
    and log priors, cut from its padded blocks."""
    valid = instance.valid
    return SimpleNamespace(
        unaries=mention_rows(instance.unaries, valid),
        cand_vecs=mention_rows(instance.cand_vecs, valid),
        entities=[row.tolist() for row in mention_rows(instance.entities, valid)],
        log_priors=mention_rows(instance.log_priors, valid))


def argmax_entity(scores, entities):
    """Best-scoring entity; exact score ties resolved by smallest entity id."""
    best = scores.max()
    return min(entities[i] for i in range(len(entities)) if scores[i] == best)


def phi(instance, i, j):
    """Pairwise scores 2/(n-1) x_e^T diag(c) x_e', rows over the candidates
    of j, columns over those of i.

    Computed once per unordered pair and transposed for the reverse
    direction, so phi(i, j) == phi(j, i).T holds bit-exactly.
    """
    if i > j:
        return phi(instance, j, i).T
    x_i, x_j = mention_rows(instance.cand_vecs[[i, j]], instance.valid[[i, j]])
    return 2.0 / (instance.n - 1) * (x_j * instance.c) @ x_i.T


def crf_score(assignment, instance):
    """Joint log-score of one full assignment (candidate indices per mention)."""
    if len(assignment) != instance.n:
        raise ValidationError("assignment length does not match mention count")
    sizes = instance.valid.sum(axis=1)
    for i, a in enumerate(assignment):
        if not 0 <= a < sizes[i]:
            raise ValidationError(
                f"assignment entity index {a} not in candidate set of mention {i}")
    total = sum(float(instance.unaries[i, a]) for i, a in enumerate(assignment))
    for i in range(instance.n):
        for j in range(i + 1, instance.n):
            total += float(phi(instance, i, j)[assignment[j], assignment[i]])
    return total


def run_lbp(instance, t, delta):
    """`crf.unroll` on the instance's padded arrays, every layer kept."""
    return unroll(np.ascontiguousarray(instance.unaries.T),
                  phi_tensor(instance.cand_vecs, instance.valid, instance.c),
                  np.ascontiguousarray(instance.valid.T), t, delta)


def beliefs(state, instance):
    """Per-mention normalised beliefs after message passing."""
    return mention_rows(final_beliefs(state.psi, state.mix[-1], state.valid).T,
                        instance.valid)


def slot_layers(psi, phi, valid, t, delta):
    """`crf.layers` with the max over sender slots taken one slot at a
    time into an (S, n, n) running max."""
    keep, mix = message_masks(valid)
    sender = np.empty(phi.shape[1:])
    for _ in range(t):
        log_m = np.log(mix)
        pre = psi + log_m.sum(axis=1)
        v = np.subtract(pre[:, :, None], log_m.transpose(0, 2, 1), order="C")
        z = phi[0] + v[0]
        for q in range(1, phi.shape[0]):
            np.maximum(z, np.add(phi[q], v[q], out=sender), out=z)
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        soft = np.where(keep, z, 1.0)
        mix = mix + delta * (soft - mix)
        yield mix, soft, v


def along_axis_attend(a_block, b_block, r, live=None):
    """`attention.attend` with the kept words gathered and scattered by
    `np.take_along_axis` and `np.put_along_axis`."""
    if live is not None:
        a_block = np.where(live, a_block, -np.inf)
    u = a_block.max(axis=-2)
    top = top_r(u, r)
    kept = np.take_along_axis(u, top, axis=-1)
    weights = np.exp(kept - kept[..., :1])
    weights /= ordered_sum(weights)[..., None]
    kept_b = np.take_along_axis(b_block, top[..., None, :], axis=-1)
    psi = ordered_sum(kept_b * weights[..., None, :])
    beta = np.zeros(u.shape)
    np.put_along_axis(beta, top, weights, axis=-1)
    return psi, beta, a_block


def doc_instances(doc, store, require_gold=True):
    """The rows of the document's `DocMentions` one mention at a time, in
    order, with their candidate and context rows gathered: the per-mention
    form of the block `attention.DocBlock.gather` builds."""
    mentions = DocMentions.of(doc, require_gold)
    sizes = mentions.valid.sum(axis=1).tolist()
    lengths = mentions.words.sum(axis=1).tolist()
    for i, position in enumerate(mentions.positions):
        entities = mentions.entities[i, :sizes[i]]
        gold = int(mentions.gold[i])
        yield MentionInstance(
            cand_vecs=store.entity_rows(entities),
            ctx_vecs=store.word_rows(mentions.contexts[i, :lengths[i]]),
            log_priors=mentions.log_priors[i, :sizes[i]],
            gold_index=None if gold < 0 else gold,
            entities=entities.tolist(),
            position=position,
        )


def mention_unary(a, b, r, cand_vecs, ctx_vecs):
    """One mention's context scores, attention weights and support scores:
    both scorer steps on its own (S, d) candidate and (K, d) context rows,
    unpadded.  An empty context yields zero scores and no attention."""
    if ctx_vecs.shape[0] == 0:
        s = cand_vecs.shape[0]
        return np.zeros(s), np.zeros(0), np.zeros((s, 0))
    return attend(*context_blocks(cand_vecs * a, cand_vecs * b, ctx_vecs), r)


def local_decision(params, inst):
    """The local model's entity for one mention and its attention weights."""
    psi, beta, _ = mention_unary(params.a, params.b, params.r, inst.cand_vecs,
                                 inst.ctx_vecs)
    return argmax_entity(combine_f(params.fnet, psi, inst.log_priors), inst.entities), beta


def instance_marginals(instance, params):
    """Combined marginal scores rho per mention, f run mention by mention."""
    mu = beliefs(run_lbp(instance, params.t, params.delta), instance)
    return [combine_f(params.local.fnet, m, p)
            for m, p in zip(mu, mention_rows(instance.log_priors, instance.valid))]


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
