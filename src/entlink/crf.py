"""Document-level joint disambiguation with a fully-connected pairwise CRF.

The joint score of an assignment is the sum of per-mention context scores
plus pairwise entity coherence terms 2/(n-1) * x_e^T diag(C) x_e'.  MAP
inference is approximated by T synchronous max-product message-passing
layers with damping delta; per-mention beliefs are softmax-normalised and
combined with the log prior by the same network f as the local model.
Training backpropagates a margin ranking loss on the combined beliefs
through all T layers; both read documents via `attention.doc_instances`.

One kernel, `run_lbp`, runs the recurrence for inference and training
alike.  Its arrays are slot-major, so each max or sum over candidate slots
runs over the outermost axis: entry [p, i, j] of the (S, n, n) messages is
the message from mention i to j at j's slot p, in probability space.
Padding and the diagonal are neutral slots holding 1 (log 0).  A layer
keeps values only, the max over sender slots q of phi[q, p, i, j] + v[q,
i, j], where phi holds -inf at padded slots.  Every layer checks that each
message sums to 1.  `beliefs_tape` records the unroll as one tape op from
the document's (n, S) unary block to its (n, S) beliefs; its hand-derived
backward (Domke, TPAMI 2013) recomputes from phi and v each maximum's
sender slot, the first maximal one.  Sums over mentions add in mention
order, so results do not depend on the layout.  A training document's
loss is three records: unaries, beliefs, ranking loss.

The (S, S, n, n) tensor phi is one GEMM of the document's padded (n*S, d)
candidate rows V, V diag(C) V^T; C's adjoint is the diagonal of V^T G V
for phi's adjoint G laid out like that product, again one GEMM.
`CrfInstance.phi` keeps the per-pair form as the oracle that `crf_score`
enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import (
    FNet,
    LocalParams,
    MentionInstance,
    argmax_entity,
    combine_f,
    doc_instances,
    loss_closure,
    mention_unary,
    padded_rows,
    record_rank_loss,
    record_unaries,
)
from .errors import ValidationError
from .vectors import EmbeddingStore

MESSAGE_NORM_TOL = 1e-6


@dataclass
class GlobalParams:
    """Local scorer parameters plus the coherence diagonal and LBP controls."""

    local: LocalParams
    c: np.ndarray
    delta: float = 0.5
    t: int = 10

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValidationError(f"damping must be in (0, 1], got {self.delta}")
        if self.t < 1:
            raise ValidationError(f"layer count must be >= 1, got {self.t}")

    @classmethod
    def init(cls, dim: int, hidden: int = 100, k: int = 100, r: int = 25,
             delta: float = 0.5, t: int = 10) -> "GlobalParams":
        return cls(local=LocalParams.init(dim, hidden=hidden, k=k, r=r),
                   c=np.ones(dim), delta=delta, t=t)

    def param_dict(self) -> dict[str, np.ndarray]:
        out = self.local.param_dict()
        out["C"] = self.c
        return out

    def load_param_dict(self, params: dict[str, np.ndarray]) -> None:
        self.local.load_param_dict(params)
        self.c = params["C"]


@dataclass
class CrfInstance:
    """One document's inference problem: unaries, candidates, coherence diagonal."""

    unaries: list[np.ndarray]        # per mention, length S_i
    cand_vecs: list[np.ndarray]      # per mention, (S_i, d)
    entities: list[list[int]]        # per mention candidate entity ids
    log_priors: list[np.ndarray]     # per mention, length S_i
    c: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("a CRF instance needs at least one mention")
        for psi in self.unaries:
            if psi.shape[0] == 0:
                raise ValidationError("every mention needs a nonempty candidate set")

    @classmethod
    def of(cls, unaries: list[np.ndarray], instances: list[MentionInstance],
           c: np.ndarray) -> "CrfInstance":
        """The instance over `instances` (from `doc_instances`) with these unaries."""
        return cls(unaries=unaries, cand_vecs=[inst.cand_vecs for inst in instances],
                   entities=[inst.entities for inst in instances],
                   log_priors=[inst.log_priors for inst in instances], c=c)

    @property
    def n(self) -> int:
        return len(self.unaries)

    @property
    def pair_scale(self) -> float:
        # no pairs exist for n=1; the factor is never used then
        return 2.0 / (self.n - 1) if self.n > 1 else 0.0

    def phi(self, i: int, j: int) -> np.ndarray:
        """Pairwise scores, rows over the candidates of j, columns over i.

        Computed once per unordered pair and transposed for the reverse
        direction, so phi(i, j) == phi(j, i).T holds bit-exactly.
        """
        if i < j:
            return (self.pair_scale
                    * (self.cand_vecs[j] * self.c) @ self.cand_vecs[i].T)
        return self.phi(j, i).T

    def padded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate tensor (n,S,d), slot-major unaries (S,n) and validity (S,n)."""
        vecs, valid = padded_rows(self.cand_vecs)
        return vecs, np.ascontiguousarray(padded_rows(self.unaries)[0].T), valid.T.copy()


def crf_score(assignment: list[int], instance: CrfInstance) -> float:
    """Joint log-score of one full assignment (candidate indices per mention)."""
    if len(assignment) != instance.n:
        raise ValidationError("assignment length does not match mention count")
    for i, a in enumerate(assignment):
        if not 0 <= a < instance.unaries[i].shape[0]:
            raise ValidationError(
                f"assignment entity index {a} not in candidate set of mention {i}")
    total = sum(float(instance.unaries[i][assignment[i]]) for i in range(instance.n))
    for i in range(instance.n):
        for j in range(i + 1, instance.n):
            total += float(instance.phi(i, j)[assignment[j], assignment[i]])
    return total


def _phi_tensor(vecs: np.ndarray, valid: np.ndarray, c: np.ndarray,
                pair_scale: float) -> np.ndarray:
    """Contiguous phi[q, p, i, j] = scale * x_jp^T diag(c) x_iq, -inf at padded slots."""
    n, s, d = vecs.shape
    flat = vecs.reshape(n * s, d)
    pairs = ((flat * c) @ flat.T).reshape(n, s, n, s).transpose(3, 1, 2, 0)
    phi = np.multiply(pair_scale, pairs, order="C")
    phi.transpose(0, 2, 1, 3)[~valid] = -np.inf
    phi.transpose(1, 3, 0, 2)[~valid] = -np.inf
    return phi


@dataclass
class Unroll:
    """T message-passing layers on slot-major padded arrays, with what backprop needs.

    mix[l] holds the (S, n, n) messages after layer l, mix[0] being the
    uniform start.  soft[l] holds layer l+1's normalised max-product values
    and v[l] the sender values v[q, i, j] whose sum with phi it maximised.
    """

    psi: np.ndarray              # (S, n) unaries, zero-padded
    valid: np.ndarray            # (S, n) live candidate slots
    vecs: np.ndarray             # (n, S, d) candidate vectors, zero-padded
    phi: np.ndarray              # (S, S, n, n) pairwise scores, -inf at padding
    keep: np.ndarray             # (S, n, n) live message slots
    delta: float
    mix: list[np.ndarray]
    soft: list[np.ndarray]
    v: list[np.ndarray]

    def message(self, layer: int, i: int, j: int) -> np.ndarray:
        """The message i -> j after `layer` layers, over j's padded slots."""
        return self.mix[layer][:, i, j]

    def senders(self, layer: int) -> np.ndarray:
        """(S, n, n) sender slot of each of soft[layer]'s maxima, the first maximal."""
        return (self.phi + self.v[layer][:, None]).argmax(axis=0)

    def logits(self) -> np.ndarray:
        """Belief logits mu[q, i] = psi[q, i] + sum_k log m[k -> i](q)."""
        return self.psi + np.log(self.mix[-1]).sum(axis=1)

    def backward(self, g_mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Adjoints of the (S, n) unaries and of phi, given that of the logits."""
        slots = np.arange(self.psi.shape[0])[:, None, None, None]
        g_psi = g_mu.copy()
        g_phi = np.zeros_like(self.phi)
        g_mix = g_mu[:, None, :] / self.mix[-1]
        for layer in reversed(range(len(self.soft))):
            soft = self.soft[layer]
            g_soft = self.delta * g_mix
            inner = np.where(self.keep, g_soft * soft, 0.0).sum(axis=0)
            g_u = np.where(self.keep, soft * (g_soft - inner), 0.0)
            routed = np.where(self.senders(layer) == slots, g_u, 0.0)
            g_phi += routed
            # g_v[q, j, i] for sender i: the sum over receivers j adds in order
            g_v = np.ascontiguousarray(routed.sum(axis=1).transpose(0, 2, 1))
            g_pre = g_v.sum(axis=1)
            g_psi += g_pre
            g_log = g_pre[:, None, :] - g_v
            g_mix = (1.0 - self.delta) * g_mix + g_log / self.mix[layer]
        return g_psi, g_phi


def run_lbp(instance: CrfInstance, t: int, delta: float) -> Unroll:
    """T synchronous damped max-product layers from uniform messages."""
    if t < 1:
        raise ValidationError(f"layer count must be >= 1, got {t}")
    vecs, psi, valid = instance.padded()
    phi = _phi_tensor(vecs, valid, instance.c, instance.pair_scale)
    offdiag = ~np.eye(instance.n, dtype=bool)
    keep = valid[:, None, :] & offdiag
    mix = np.where(keep, 1.0 / valid.sum(axis=0), 1.0)
    state = Unroll(psi, valid, vecs, phi, keep, delta, mix=[mix], soft=[], v=[])
    for layer in range(1, t + 1):
        log_m = np.log(mix)
        # pre[q, i] = psi_i(q) + sum_k log m[k -> i](q); v removes j's backflow
        pre = psi + log_m.sum(axis=1)
        v = np.subtract(pre[:, :, None], log_m.transpose(0, 2, 1), order="C")
        z = (phi + v[:, None]).max(axis=0)
        # normalise over the receiver's candidates; padded ones hold -inf
        ex = np.exp(z - z.max(axis=0))
        soft = np.where(keep, ex / ex.sum(axis=0), 1.0)
        mix = mix + delta * (soft - mix)
        totals = np.where(valid[:, None, :], mix, 0.0).sum(axis=0)
        bad = offdiag & ~(np.abs(totals - 1.0) <= MESSAGE_NORM_TOL)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"message {i}->{j} at layer {layer} sums to {totals[i, j]!r}")
        state.mix.append(mix)
        state.soft.append(soft)
        state.v.append(v)
    return state


def belief_block(state: Unroll) -> np.ndarray:
    """(S, n) normalised beliefs after message passing, 0 at padded slots."""
    mu = np.where(state.valid, state.logits(), -np.inf)
    ex = np.exp(mu - mu.max(axis=0))
    return ex / ex.sum(axis=0)


def beliefs(state: Unroll, instance: CrfInstance) -> list[np.ndarray]:
    """Per-mention normalized beliefs after message passing."""
    mu = belief_block(state)
    return [mu[:psi.shape[0], i] for i, psi in enumerate(instance.unaries)]


def build_crf_instance(doc, params: GlobalParams,
                       store: EmbeddingStore) -> tuple[CrfInstance | None, list[int]]:
    """Inference instance over the document's candidate-bearing mentions.

    Returns the instance and the positions of the included mentions;
    mentions without candidates stay unannotated.
    """
    local = params.local
    unaries, instances = [], []
    for inst in doc_instances(doc, store, require_gold=False):
        unaries.append(mention_unary(local.a, local.b, local.r, inst.cand_vecs,
                                     inst.ctx_vecs)[0])
        # only the unary reads the context rows; releasing them lets the next
        # mention's rows reuse this memory while it is still in cache
        inst.ctx_vecs = None
        instances.append(inst)
    if not instances:
        return None, []
    return (CrfInstance.of(unaries, instances, params.c),
            [inst.position for inst in instances])


def instance_marginals(instance: CrfInstance, params: GlobalParams) -> list[np.ndarray]:
    """Combined marginal scores rho per mention (inference path)."""
    mu = beliefs(run_lbp(instance, params.t, params.delta), instance)
    return [combine_f(params.local.fnet, mu[i], instance.log_priors[i])
            for i in range(instance.n)]


def predict_global(doc, params: GlobalParams, store: EmbeddingStore) -> list[int | None]:
    """Joint marginals per document, then independent per-mention argmax."""
    instance, idxs = build_crf_instance(doc, params, store)
    out: list[int | None] = [None] * len(doc.mentions)
    if instance is None:
        return out
    rho = instance_marginals(instance, params)
    for pos, k in enumerate(idxs):
        out[k] = argmax_entity(rho[pos], instance.entities[pos])
    return out


# -- tape (training) path ----------------------------------------------


def beliefs_tape(tape: ad.Tape, psi: ad.Var, instances: list[MentionInstance],
                 c: ad.Var, delta: float, t: int) -> ad.Var:
    """`belief_block(run_lbp(...))` as one tape record, with adjoints into psi and C.

    `psi` holds the (n, S) unaries of `instances`, S their widest candidate
    set; the record's value is the (n, S) beliefs, 0 at padded slots.
    """
    sizes = [inst.cand_vecs.shape[0] for inst in instances]
    crf = CrfInstance.of([row[:s] for row, s in zip(psi.value, sizes)], instances, c.value)
    state = run_lbp(crf, t, delta)
    mu = belief_block(state)

    def backward(g):
        g_mu = mu * (g.T - (g.T * mu).sum(axis=0))
        g_psi, g_phi = state.backward(g_mu)
        if psi.needs_grad:
            psi._accum(g_psi.T)
        if crf.n > 1:  # a lone mention has no pairs, so C gets no adjoint
            # diag(V^T G V) with G[(j, p), (i, q)] = g_phi[q, p, i, j]
            n, s, d = state.vecs.shape
            flat = state.vecs.reshape(n * s, d)
            g = g_phi.transpose(3, 1, 2, 0).reshape(n * s, n * s)
            c._accum(crf.pair_scale * ((g @ flat) * flat).sum(axis=0))

    return ad.record(tape, [mu.T], (psi, c), backward)[0]


def global_doc_loss_tape(tape: ad.Tape, vars_: dict[str, ad.Var], fnet: FNet,
                         instances: list[MentionInstance], gamma: float,
                         r: int, delta: float, t: int) -> ad.Var:
    """Ranking loss on combined beliefs, backpropagated through all layers.

    All candidate-bearing mentions shape the messages; only mentions whose
    gold entity sits in their candidate set contribute hinge terms.
    """
    if not instances:
        return tape.const(np.zeros(()))
    psi = record_unaries(tape, vars_, instances, r)
    mu = beliefs_tape(tape, psi, instances, vars_["C"], delta, t)
    return record_rank_loss(tape, vars_, mu, instances, gamma)


def global_loss_closure(instances: list[MentionInstance], fnet_shape: FNet,
                        gamma: float, r: int, delta: float, t: int):
    return loss_closure(lambda tape, vars_: global_doc_loss_tape(
        tape, vars_, fnet_shape, instances, gamma, r, delta, t))
