"""Document-level joint disambiguation with a fully-connected pairwise CRF.

The joint score of an assignment is the sum of per-mention context scores
plus pairwise entity coherence terms 2/(n-1) * x_e^T diag(C) x_e'.  MAP
inference is approximated by T synchronous max-product message-passing
layers with damping delta; per-mention beliefs are softmax-normalised and
combined with the log prior by the same network f as the local model.
Training backpropagates a margin ranking loss on the combined beliefs
through all T layers; both read documents via `attention.DocMentions`.

One generator, `layers`, runs the recurrence for inference and training
alike, over a document's padded unaries, its pairwise scores and its slot
validity, from which it derives the live message slots and the uniform
start messages (`message_masks`).  Training's `unroll` keeps every layer
for the backward pass and reads the document's `attention.DocBlock`, the
same block the local model trains on.  Inference reads the document as one
padded `CrfInstance`, made of the blocks the local scorer returns
(`attention.score_document`) with no second padding; `instance_marginals`
keeps only the latest messages, then runs f once over the live slots of
the final belief block (`attention.combine_block`), and `predict_global`
takes each mention's argmax from that (n, S) block
(`attention.best_entities`).  The arrays are slot-major, so each max or
sum over candidate slots runs over the outermost axis: entry [p, i, j] of
the (S, n, n) messages is the message from mention i to j at j's slot p,
in probability space.  Padding and the diagonal are neutral slots holding
1 (log 0).  A layer keeps values only, the max over sender slots q of
phi[q, p, i, j] + v[q, i, j], where phi holds -inf at padded slots.  The
max runs over blocks of sender slots into an (S, n, n) running max, each
block's (q, S, n, n) sums and the running max within the byte budget
`SENDER_BLOCK_BYTES`.  A document of up to 24 mentions of 7 candidates
takes one block, one broadcast add and one max per layer; from 40
mentions each slot is its own block, one add and one maximum, as a max
over one slot would be a copy.  The running max is normalised in place.
Normalisation is checked once per unroll (`check_messages`): a NaN
message stays NaN in every later layer, so the last layer's messages
catch every failure, and only then are the layers searched for the first
failing one, which training keeps and inference reruns.  `beliefs_tape`
records the unroll as one tape op from the document's (n, S) unary block
to its (n, S) beliefs; its hand-derived backward (Domke, TPAMI 2013)
recomputes from phi and v each maximum's sender slot, the first maximal
one.  Sums over mentions add in mention order, so results do not depend
on the memory layout.  A training document's loss is three records:
unaries, beliefs, ranking loss.

The (S, S, n, n) tensor phi (`phi_tensor`) is one GEMM of the document's
padded (n*S, d) candidate rows V, V diag(C) V^T; C's adjoint is the
diagonal of V^T G V for phi's adjoint G laid out like that product, again
one GEMM.

A document's joint arrays grow as n^2 S^2, so before phi is allocated the
bytes it needs are computed from n, S and T (`joint_bytes`) and checked
against `JOINT_BYTES` (`check_joint_budget`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import (
    DocBlock,
    FNet,
    LocalParams,
    MentionInstance,
    best_entities,
    check_header,
    combine_block,
    padded_ids,
    padded_rows,
    record_rank_loss,
    record_unaries,
    score_document,
)
from .errors import ValidationError
from .vectors import EmbeddingStore

MESSAGE_NORM_TOL = 1e-6
# a layer's sender-slot block and its running max stay within this many
# bytes, so they stay in cache: at larger n a block's extra pass over
# memory costs more than the numpy calls it saves
SENDER_BLOCK_BYTES = 1 << 18
# a document whose joint arrays need more than this exits 1 before they
# are allocated: far above the 4 MB of a 60-mention, 7-candidate document
# at paper scale, and below what one process may take on a shared machine
JOINT_BYTES = 1 << 30


def pair_scale(n: int) -> float:
    """The coherence factor 2/(n-1) of an n-mention document; no pairs exist
    for n=1, so the factor is never used then."""
    return 2.0 / (n - 1) if n > 1 else 0.0


@dataclass
class GlobalParams:
    """Local scorer parameters plus the coherence diagonal and LBP controls."""

    local: LocalParams
    c: np.ndarray
    delta: float = 0.5
    t: int = 10

    def __post_init__(self):
        local = self.local
        check_header(local.dim, local.fnet.hidden, local.k, local.r, self.delta, self.t)

    @classmethod
    def init(cls, dim: int, hidden: int = 100, k: int = 100, r: int = 25,
             delta: float = 0.5, t: int = 10) -> "GlobalParams":
        return cls(local=LocalParams.init(dim, hidden=hidden, k=k, r=r),
                   c=np.ones(dim), delta=delta, t=t)

    def param_dict(self) -> dict[str, np.ndarray]:
        """A, B, C, then f's arrays: the model file's payload order."""
        return {"A": self.local.a, "B": self.local.b, "C": self.c,
                **self.local.fnet.param_dict()}

    def load_param_dict(self, params: dict[str, np.ndarray]) -> None:
        self.local.load_param_dict(params)
        self.c = params["C"]


class CrfInstance:
    """One document's inference problem as one padded block: (n, S)
    unaries, log priors and slot validity `valid`, (n, S, d) candidate
    rows, (n, S) entity ids holding -1 at padding, and the coherence
    diagonal `c`.  The constructor pads per-mention arrays;
    `CrfInstance.of_blocks` takes blocks padded already."""

    def __init__(self, unaries: list[np.ndarray], cand_vecs: list[np.ndarray],
                 entities: list[list[int]], log_priors: list[np.ndarray], c: np.ndarray):
        if not unaries:
            raise ValidationError("a CRF instance needs at least one mention")
        if any(psi.shape[0] == 0 for psi in unaries):
            raise ValidationError("every mention needs a nonempty candidate set")
        self.unaries, self.valid = padded_rows(unaries)
        self.cand_vecs = padded_rows(cand_vecs)[0]
        self.log_priors = padded_rows(log_priors)[0]
        self.entities = padded_ids(entities, self.valid)
        self.c = c

    @classmethod
    def of_blocks(cls, unaries: np.ndarray, valid: np.ndarray, cand_vecs: np.ndarray,
                  entities: np.ndarray, log_priors: np.ndarray, c: np.ndarray
                  ) -> "CrfInstance":
        instance = cls.__new__(cls)
        instance.unaries, instance.valid, instance.cand_vecs = unaries, valid, cand_vecs
        instance.entities, instance.log_priors, instance.c = entities, log_priors, c
        return instance

    @property
    def n(self) -> int:
        return self.valid.shape[0]


@dataclass
class Unroll:
    """T message-passing layers on slot-major padded arrays, with what backprop needs.

    mix[l] holds the (S, n, n) messages after layer l, mix[0] being the
    uniform start.  soft[l] holds layer l+1's normalised max-product values
    and v[l] the sender values v[q, i, j] whose sum with phi it maximised.
    """

    psi: np.ndarray              # (S, n) unaries, zero-padded
    valid: np.ndarray            # (S, n) live candidate slots
    phi: np.ndarray              # (S, S, n, n) pairwise scores, -inf at padding
    keep: np.ndarray             # (S, n, n) live message slots
    delta: float
    mix: list[np.ndarray]
    soft: list[np.ndarray]
    v: list[np.ndarray]

    def senders(self, layer: int) -> np.ndarray:
        """(S, n, n) sender slot of each of soft[layer]'s maxima, the first maximal."""
        return (self.phi + self.v[layer][:, None]).argmax(axis=0)

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


def phi_tensor(vecs: np.ndarray, mask: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Contiguous (S, S, n, n) phi[q, p, i, j] = 2/(n-1) x_jp^T diag(c) x_iq
    of padded (n, S, d) candidate rows `vecs` and their (n, S) `mask`, as
    `padded_rows` returns them; -inf at padded slots."""
    n, s, d = vecs.shape
    flat = vecs.reshape(n * s, d)
    pairs = ((flat * c) @ flat.T).reshape(n, s, n, s).transpose(3, 1, 2, 0)
    phi = np.multiply(pair_scale(n), pairs, order="C")
    if not mask.all():
        phi.transpose(2, 0, 1, 3)[~mask] = -np.inf
        phi.transpose(3, 1, 0, 2)[~mask] = -np.inf
    return phi


def joint_bytes(n: int, s: int, t: int, training: bool) -> int:
    """Peak bytes of an n-mention document's joint arrays at S candidate
    slots and T layers, as traced.  Arrays of phi's (S, S, n, n) size: 2 at
    inference, phi and the product it is scaled from; 4 in training, adding
    phi's adjoint and the backward's scores, which argmax copies.  Arrays of
    a layer's (S, n, n) size: 6 at inference, around the latest layer; in
    training, where every layer is kept, 4 per layer and 4 more."""
    pairs, messages = 8 * s * s * n * n, 8 * s * n * n
    if training:
        return 4 * pairs + (4 * t + 4) * messages
    return 2 * pairs + 6 * messages


def check_joint_budget(doc_id: str, n: int, s: int, t: int, training: bool) -> None:
    """Raise when the document's joint arrays (`joint_bytes`) exceed `JOINT_BYTES`."""
    need = joint_bytes(n, s, t, training)
    if need > JOINT_BYTES:
        raise ValidationError(
            f"doc {doc_id!r}: joint stage needs {need} bytes for n={n} mentions "
            f"and S={s} candidate slots, over the budget of {JOINT_BYTES}")


def message_masks(valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (S, n, n) live message slots and the uniform (S, n, n) start
    messages of the (S, n) slot validity `valid`."""
    keep = valid[:, None, :] & ~np.eye(valid.shape[1], dtype=bool)
    return keep, np.where(keep, 1.0 / valid.sum(axis=0), 1.0)


def message_sum_error(mix: np.ndarray, valid: np.ndarray) -> tuple[int, int, float] | None:
    """(i, j, sum) of the first message i -> j of the (S, n, n) messages
    `mix` that does not sum to 1 over j's live slots, or None."""
    totals = np.where(valid[:, None, :], mix, 0.0).sum(axis=0)
    bad = ~(np.abs(totals - 1.0) <= MESSAGE_NORM_TOL)
    np.fill_diagonal(bad, False)
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return int(i), int(j), totals[i, j]


def check_messages(mixes: list[np.ndarray], valid: np.ndarray) -> None:
    """Raise for the first of layers 1..T, given their messages `mixes`,
    with a message that does not sum to 1.  A NaN message stays NaN in
    every later layer, so only the last layer is checked unless it fails."""
    if message_sum_error(mixes[-1], valid) is None:
        return
    for layer, mix in enumerate(mixes, start=1):
        error = message_sum_error(mix, valid)
        if error is not None:
            i, j, total = error
            raise ValidationError(f"message {i}->{j} at layer {layer} sums to {total!r}")


def sender_max(phi: np.ndarray, v: np.ndarray, sums: np.ndarray,
               out: np.ndarray | None) -> np.ndarray:
    """The max over a block of sender slots q of phi[q] + v[q, None], given
    the block's rows of phi and v: one broadcast add into the buffer `sums`
    and one max, or for a lone slot the add alone, since a max over one
    slot is a copy."""
    if len(phi) == 1:
        return np.add(phi[0], v[0], out=sums[0] if out is None else out)
    return np.add(phi, v[:, None], out=sums[:len(phi)]).max(axis=0, out=out)


def layers(psi: np.ndarray, phi: np.ndarray, valid: np.ndarray, t: int,
           delta: float) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """T synchronous damped max-product layers from uniform start messages,
    over a document's (S, n) slot-major unaries `psi`, its pairwise scores
    `phi` and its contiguous (S, n) slot validity `valid`.

    Yields each layer's messages, normalised max-product values and sender
    values (mix, soft, v), every one a new array.  The max over sender
    slots runs in blocks of as many slots as fit, with the (S, n, n)
    running max, in `SENDER_BLOCK_BYTES` (`sender_max`): the first block's
    max starts the running max, and each later one folds into it by one
    maximum.  The running max is then normalised in place.  The messages
    are not checked here: a consumer checks them once per unroll
    (`check_messages`).
    """
    if t < 1:
        raise ValidationError(f"layer count must be >= 1, got {t}")
    keep, mix = message_masks(valid)
    slots = phi.shape[0]
    width = min(slots, max(1, SENDER_BLOCK_BYTES // phi[0].nbytes - 1))
    z = np.empty(phi.shape[1:])
    sums = np.empty((width,) + phi.shape[1:])
    for _ in range(t):
        log_m = np.log(mix)
        # pre[q, i] = psi_i(q) + sum_k log m[k -> i](q); v removes j's backflow
        pre = psi + log_m.sum(axis=1)
        v = np.subtract(pre[:, :, None], log_m.transpose(0, 2, 1), order="C")
        for q in range(0, slots, width):
            # the first block's max starts the running max z
            top = sender_max(phi[q:q + width], v[q:q + width], sums, None if q else z)
            if q:
                np.maximum(z, top, out=z)
        # normalise over the receiver's candidates; padded ones hold -inf
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        soft = np.where(keep, z, 1.0)
        mix = mix + delta * (soft - mix)
        yield mix, soft, v


def unroll(psi: np.ndarray, phi: np.ndarray, valid: np.ndarray, t: int,
           delta: float) -> Unroll:
    """Every one of the T `layers` over these arguments, kept for the
    backward pass, their messages checked."""
    keep, start = message_masks(valid)
    state = Unroll(psi, valid, phi, keep, delta, mix=[start], soft=[], v=[])
    for mix, soft, v in layers(psi, phi, valid, t, delta):
        state.mix.append(mix)
        state.soft.append(soft)
        state.v.append(v)
    check_messages(state.mix[1:], valid)
    return state


def final_beliefs(psi: np.ndarray, mix: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """(S, n) normalised beliefs from the unaries and the last layer's
    messages, softmax over mu[q, i] = psi[q, i] + sum_k log m[k -> i](q);
    0 at padded slots."""
    mu = np.where(valid, psi + np.log(mix).sum(axis=1), -np.inf)
    ex = np.exp(mu - mu.max(axis=0))
    return ex / ex.sum(axis=0)


def build_crf_instance(doc, params: GlobalParams,
                       store: EmbeddingStore) -> tuple[CrfInstance | None, list[int]]:
    """Inference instance over the document's candidate-bearing mentions,
    made of the blocks the local scorer returns (`score_document`).

    Returns the instance and the positions of the included mentions;
    mentions without candidates stay unannotated.
    """
    scored = score_document(doc, params.local, store)
    if scored is None:
        return None, []
    mentions, cands, psi, _ = scored
    check_joint_budget(doc.doc_id, *mentions.valid.shape, params.t, training=False)
    instance = CrfInstance.of_blocks(psi, mentions.valid, cands, mentions.entities,
                                     mentions.log_priors, params.c)
    return instance, mentions.positions


def instance_marginals(instance: CrfInstance, params: GlobalParams) -> np.ndarray:
    """The (n, S) combined marginal scores rho, -inf at padding (inference
    path): the T `layers` keep only the latest messages, and f runs once
    over the live slots of the final belief block.  When the last messages
    fail their check, the unroll reruns keeping every layer to name the
    first failing one."""
    psi = np.ascontiguousarray(instance.unaries.T)
    valid = np.ascontiguousarray(instance.valid.T)
    phi = phi_tensor(instance.cand_vecs, instance.valid, instance.c)
    for mix, _, _ in layers(psi, phi, valid, params.t, params.delta):
        pass
    if message_sum_error(mix, valid) is not None:
        unroll(psi, phi, valid, params.t, params.delta)
    mu = final_beliefs(psi, mix, valid)
    return combine_block(params.local.fnet, mu.T, instance.log_priors, instance.valid)


def predict_global(doc, params: GlobalParams, store: EmbeddingStore) -> list[int | None]:
    """Joint marginals per document, then independent per-mention argmax."""
    instance, idxs = build_crf_instance(doc, params, store)
    out: list[int | None] = [None] * len(doc.mentions)
    if instance is None:
        return out
    entities = best_entities(instance_marginals(instance, params), instance.entities)
    for k, entity in zip(idxs, entities.tolist()):
        out[k] = entity
    return out


# -- tape (training) path ----------------------------------------------


def beliefs_tape(tape: ad.Tape, psi: ad.Var, cands: np.ndarray, mask: np.ndarray,
                 c: ad.Var, delta: float, t: int) -> ad.Var:
    """`final_beliefs` after `unroll(...)` as one tape record, with adjoints
    into psi and C.

    `psi` holds the (n, S) unaries of the document whose padded candidate
    rows and their (n, S) mask are `cands` and `mask` (a `DocBlock`'s);
    the record's value is the (n, S) beliefs, 0 at padded slots.
    """
    state = unroll(np.ascontiguousarray(psi.value.T), phi_tensor(cands, mask, c.value),
                   np.ascontiguousarray(mask.T), t, delta)
    mu = final_beliefs(state.psi, state.mix[-1], state.valid)

    def backward(g):
        g_mu = mu * (g.T - (g.T * mu).sum(axis=0))
        g_psi, g_phi = state.backward(g_mu)
        if psi.needs_grad:
            psi._accum(g_psi.T)
        n, s, d = cands.shape
        if n > 1:  # a lone mention has no pairs, so C gets no adjoint
            # diag(V^T G V) with G[(j, p), (i, q)] = g_phi[q, p, i, j]
            flat = cands.reshape(n * s, d)
            g = g_phi.transpose(3, 1, 2, 0).reshape(n * s, n * s)
            c._accum(pair_scale(n) * ((g @ flat) * flat).sum(axis=0))

    return ad.record(tape, [mu.T], (psi, c), backward)[0]


def global_doc_loss_tape(tape: ad.Tape, vars_: dict[str, ad.Var], fnet: FNet | None,
                         doc: DocBlock | list[MentionInstance], gamma: float,
                         r: int, delta: float, t: int) -> ad.Var:
    """Ranking loss on combined beliefs, backpropagated through all layers,
    of one document given as its block or as its instances.  `fnet` is
    unused, as in `local_doc_loss_tape`.

    All candidate-bearing mentions shape the messages; only mentions whose
    gold entity sits in their candidate set contribute hinge terms.
    """
    if not isinstance(doc, DocBlock):
        if not doc:
            return tape.const(np.zeros(()))
        doc = DocBlock.of(doc)
    psi = record_unaries(tape, vars_, doc, r)
    mu = beliefs_tape(tape, psi, doc.cands, doc.valid, vars_["C"], delta, t)
    return record_rank_loss(tape, vars_, mu, doc, gamma)
