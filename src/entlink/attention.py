"""Local candidate scoring with hard attention over the context window.

Every context word gets a support score, the max over candidate entities
of a diagonal bilinear form between entity and word vectors.  Only the R
best-supported words keep attention mass (the rest are clamped to -inf
before the softmax), and the candidate's context score is the
attention-weighted sum of a second bilinear form.  A small two-hidden-layer
network f combines the context score with the log prior into the final
local score; training minimises a margin ranking loss over candidates.

`doc_instances` is the single featurisation path: every scorer reads a
document's mentions through it.  The scorer works along any leading
mention axes: inference scores one mention at a time while its context
rows are in cache, and training scores a document's zero-padded mention
blocks in one record (`record_unaries`).  f with the ranking loss
is one more record per document (`record_rank_loss`), one f pass over
every trainable candidate.  Each record has a hand-derived backward over
the same numpy forward that inference runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ValidationError
from .priors import Candidate
from .vectors import EmbeddingStore

LOG_PRIOR_FLOOR = 1e-12


def floored_log_prior(p: float) -> float:
    return float(np.log(max(p, LOG_PRIOR_FLOOR)))


@dataclass
class FNet:
    """Combination network: 2 inputs -> hidden -> hidden -> 1, relu inside."""

    NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def zeros(cls, hidden: int = 100) -> "FNet":
        return cls(
            w1=np.zeros((hidden, 2)), b1=np.zeros(hidden),
            w2=np.zeros((hidden, hidden)), b2=np.zeros(hidden),
            w3=np.zeros((1, hidden)), b3=np.zeros(1),
        )

    @classmethod
    def additive(cls, hidden: int = 100, box: float = 30.0) -> "FNet":
        """Weights realising f(a, b) = 0.5 (a + b) for a + b >= -2 * box.

        One hidden unit carries 0.5 (a + b) + box through both relu layers
        (positive inside the box), and the output bias subtracts the box
        offset.  Every weight matrix starts inside the unit Frobenius ball,
        so the norm projection applied during training never distorts it.
        """
        net = cls.zeros(hidden)
        net.w1[0] = [0.5, 0.5]
        net.b1[0] = box
        net.w2[0, 0] = 1.0
        net.w3[0, 0] = 1.0
        net.b3[0] = -box
        return net

    @classmethod
    def random(cls, hidden: int = 100, scale: float = 0.1,
               rng: np.random.Generator | None = None) -> "FNet":
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(
            w1=scale * rng.normal(size=(hidden, 2)), b1=np.zeros(hidden),
            w2=scale * rng.normal(size=(hidden, hidden)), b2=np.zeros(hidden),
            w3=scale * rng.normal(size=(1, hidden)), b3=np.zeros(1),
        )

    def layers(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both relu layers' activations and the (n,) scores of (n, 2) inputs."""
        h1 = np.maximum(0.0, x @ self.w1.T + self.b1)
        h2 = np.maximum(0.0, h1 @ self.w2.T + self.b2)
        return h1, h2, (h2 @ self.w3.T + self.b3)[:, 0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Score row-stacked (n, 2) inputs; returns (n,)."""
        return self.layers(x)[2]

    def param_dict(self) -> dict[str, np.ndarray]:
        return {f"f.{n}": getattr(self, n) for n in self.NAMES}

    def project(self, radius: float = 1.0) -> None:
        """Rescale each weight matrix onto a Frobenius ball (biases untouched)."""
        for name in ("w1", "w2", "w3"):
            w = getattr(self, name)
            norm = float(np.linalg.norm(w))
            if norm > radius:
                w *= radius / norm


@dataclass
class LocalParams:
    """Diagonals of the two bilinear forms plus the combination network."""

    a: np.ndarray
    b: np.ndarray
    fnet: FNet
    k: int = 100
    r: int = 50

    @classmethod
    def init(cls, dim: int, hidden: int = 100, k: int = 100, r: int = 50) -> "LocalParams":
        for name, value in (("dim", dim), ("hidden", hidden), ("k", k), ("r", r)):
            if value < 1:
                raise ValidationError(f"{name} must be at least 1, got {value}")
        # identity diagonals: initial scores are plain dot products
        return cls(a=np.ones(dim), b=np.ones(dim),
                   fnet=FNet.additive(hidden), k=k, r=r)

    def param_dict(self) -> dict[str, np.ndarray]:
        out = {"A": self.a, "B": self.b}
        out.update(self.fnet.param_dict())
        return out

    def load_param_dict(self, params: dict[str, np.ndarray]) -> None:
        self.a = params["A"]
        self.b = params["B"]
        for name in FNet.NAMES:
            setattr(self.fnet, name, params[f"f.{name}"])


def _support(cand_vecs: np.ndarray, ctx_vecs: np.ndarray, a: np.ndarray,
             live: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Support per word, u(w) = max over candidates of x_e^T diag(a) x_w, and
    the (..., S, K) candidate-word scores; pairs off the `live` mask score -inf."""
    scores = (cand_vecs * a) @ np.swapaxes(ctx_vecs, -1, -2)
    if live is not None:
        scores = np.where(live, scores, -np.inf)
    return scores.max(axis=-2), scores


def top_r_mask(u: np.ndarray, r: int) -> np.ndarray:
    """Boolean keep-mask of the R highest entries along the last axis
    (ties kept by position)."""
    if r >= u.shape[-1]:
        return np.ones(u.shape, dtype=bool)
    if r < 1:
        raise ValidationError(f"attention budget must be >= 1, got {r}")
    top = np.argsort(-u, axis=-1, kind="stable")[..., :r]
    mask = np.zeros(u.shape, dtype=bool)
    if u.ndim == 1:  # one mention, as inference scores: plain indexing costs less
        mask[top] = True
    else:
        np.put_along_axis(mask, top, True, axis=-1)
    return mask


def attention_weights(u: np.ndarray, r: int) -> np.ndarray:
    """Softmax over the top-R support scores; pruned words get exactly 0.
    The best-supported word is always kept, so the overall max is the shift."""
    ex = np.exp(np.where(top_r_mask(u, r), u - u.max(axis=-1, keepdims=True), -np.inf))
    return ex / ex.sum(axis=-1, keepdims=True)


def context_score(cand_vecs: np.ndarray, ctx_vecs: np.ndarray, beta: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Attention-weighted bilinear context score for every candidate."""
    return ((cand_vecs * b) @ (np.swapaxes(ctx_vecs, -1, -2) @ beta[..., None]))[..., 0]


def f_inputs(context_scores: np.ndarray, log_priors: np.ndarray) -> np.ndarray:
    """The (n, 2) input rows of the combination network."""
    x = np.column_stack([context_scores, log_priors])
    if not np.isfinite(x).all():
        raise ValidationError("non-finite input to the combination network")
    return x


def combine_f(fnet: FNet, context_scores: np.ndarray,
              log_priors: np.ndarray) -> np.ndarray:
    return fnet.forward(f_inputs(context_scores, log_priors))


def mention_unary(a: np.ndarray, b: np.ndarray, r: int, cand_vecs: np.ndarray,
                  ctx_vecs: np.ndarray, live: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Context scores, attention weights and candidate-word support scores
    of one mention's (S, d) candidates and (K, d) context rows, or of padded
    blocks of them along a leading axis, `live` masking the padded pairs.
    An empty context yields zero scores and no attention: no evidence.
    """
    if ctx_vecs.shape[-2] == 0:
        return (np.zeros(cand_vecs.shape[:-1]), np.zeros(0),
                np.zeros(cand_vecs.shape[:-1] + (0,)))
    u, scores = _support(cand_vecs, ctx_vecs, a, live)
    beta = attention_weights(u, r)
    return context_score(cand_vecs, ctx_vecs, beta, b), beta, scores


@dataclass
class MentionInstance:
    """One mention ready for scoring; gold_index is None when untrainable.

    `position` is the mention's index in its document, None when built by hand.
    """

    cand_vecs: np.ndarray
    ctx_vecs: np.ndarray
    log_priors: np.ndarray
    gold_index: int | None
    entities: list[int] = field(default_factory=list)
    position: int | None = None


def doc_instances(doc, store: EmbeddingStore,
                  require_gold: bool = True) -> Iterator[MentionInstance]:
    """Scoring arrays of a document's candidate-bearing mentions, in order.

    With `require_gold`, only mentions whose gold entity sits in their
    candidate set are yielded (the contract for loss terms).  Without it,
    every candidate-bearing mention is included and `gold_index` is None
    for the untrainable ones, so they can still shape joint inference.
    Yielding one at a time lets a caller score each mention's context rows
    while they are still in cache.
    """
    for position, mention in enumerate(doc.mentions):
        cands: list[Candidate] = mention.candidates or []
        if not cands:
            continue
        entities = [c.entity for c in cands]
        gold_index = (entities.index(mention.gold_id)
                      if mention.gold_id is not None and mention.gold_id in entities
                      else None)
        if require_gold and gold_index is None:
            continue
        yield MentionInstance(
            cand_vecs=store.entity_rows(entities),
            ctx_vecs=store.word_rows(mention.context or []),
            log_priors=np.array([floored_log_prior(c.prior) for c in cands]),
            gold_index=gold_index,
            entities=entities,
            position=position,
        )


def argmax_entity(scores: np.ndarray, entities: list[int]) -> int:
    """Best-scoring entity; exact score ties resolved by smallest entity id."""
    best = scores.max()
    tied = [entities[i] for i in range(len(entities)) if scores[i] == best]
    return min(tied)


def local_decision(params: LocalParams, inst: MentionInstance) -> tuple[int, np.ndarray]:
    """The local model's entity for one mention and its attention weights."""
    psi, beta, _ = mention_unary(params.a, params.b, params.r, inst.cand_vecs,
                                 inst.ctx_vecs)
    return argmax_entity(combine_f(params.fnet, psi, inst.log_priors), inst.entities), beta


def predict_local(doc, params: LocalParams, store: EmbeddingStore) -> list[int | None]:
    """Per-mention argmax of the combined score; empty sets stay unannotated."""
    out: list[int | None] = [None] * len(doc.mentions)
    for inst in doc_instances(doc, store, require_gold=False):
        out[inst.position] = local_decision(params, inst)[0]
    return out


# -- tape (training) path ----------------------------------------------


def make_param_vars(tape: ad.Tape, params: dict[str, np.ndarray]) -> dict[str, ad.Var]:
    return {name: tape.var(arr) for name, arr in params.items()}


def padded_rows(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """`rows` stacked on a new leading axis and zero-padded to the longest
    (at least 1), with the (m, W) mask of the rows' own entries."""
    sizes = np.array([row.shape[0] for row in rows])
    filled = np.arange(max(1, sizes.max())) < sizes[:, None]
    out = np.zeros(filled.shape + rows[0].shape[1:])
    out[filled] = np.concatenate(rows)
    return out, filled


def record_unaries(tape: ad.Tape, vars_: dict[str, ad.Var],
                   instances: list[MentionInstance], r: int) -> ad.Var:
    """`mention_unary` over the zero-padded (m, S, d) candidate and (m, K, d)
    context blocks as one tape record of the (m, S) scores, with adjoints
    into A and B.  An empty context keeps one live zero word, which scores
    every candidate exactly 0 and passes no adjoint.  Top-R selection
    carries no gradient; the support max routes its adjoint to the first
    maximal candidate row.
    """
    a, b = vars_["A"], vars_["B"]
    cands, valid = padded_rows([inst.cand_vecs for inst in instances])
    ctx, words = padded_rows([inst.ctx_vecs for inst in instances])
    live = valid[:, :, None] & (words | (np.arange(words.shape[1]) == 0))[:, None]
    psi, beta, scores = mention_unary(a.value, b.value, r, cands, ctx, live)

    def backward(g):
        cand_g = (g[:, None, :] @ cands)[:, 0]
        attended = (beta[:, None, :] @ ctx)[:, 0]
        b._accum((cand_g * attended).sum(axis=0))
        g_beta = (ctx @ (b.value * cand_g)[..., None])[..., 0]
        g_u = beta * (g_beta - (g_beta * beta).sum(axis=-1, keepdims=True))
        routed = cands[np.arange(cands.shape[0])[:, None], scores.argmax(axis=-2)]
        a._accum(g_u.reshape(-1) @ (routed * ctx).reshape(-1, ctx.shape[-1]))

    return ad.record(tape, [psi], (a, b), backward)[0]


def record_rank_loss(tape: ad.Tape, vars_: dict[str, ad.Var], scores: ad.Var,
                     instances: list[MentionInstance], gamma: float) -> ad.Var:
    """f and the ranking loss of the trainable mentions as one record.

    Each mention whose gold index is known adds, over its non-gold
    candidates e, [gamma - rho(gold) + rho(e)]_+ with rho = f(score, log
    prior) and the (m, S) `scores`; the gold term would add a constant
    gamma, so it is left out and the loss is exactly 0 iff every margin
    holds.  One f pass covers every live slot of the trainable
    mentions.  The backward gives adjoints into f.* and `scores`; relu
    passes none at exactly 0, nor does a margin of exactly 0.
    """
    log_priors, valid = padded_rows([inst.log_priors for inst in instances])
    golds = [-1 if inst.gold_index is None else inst.gold_index for inst in instances]
    gold = np.arange(valid.shape[1]) == np.array(golds)[:, None]
    live = valid & gold.any(axis=1, keepdims=True)
    if not live.any():
        return tape.const(np.zeros(()))
    fvars = [vars_[f"f.{n}"] for n in FNet.NAMES]
    fnet = FNet(*(v.value for v in fvars))
    x = f_inputs(scores.value[live], log_priors[live])
    h1, h2, out = fnet.layers(x)
    rho = np.zeros(live.shape)
    rho[live] = out
    margins = rho - np.where(gold, rho, 0.0).sum(axis=1, keepdims=True) + gamma
    hinge = live & ~gold & (margins > 0.0)

    def backward(g):
        g_rho = g * hinge
        g_rho -= gold * g_rho.sum(axis=1, keepdims=True)
        g3 = g_rho[live][:, None]
        g2 = (g3 @ fnet.w3) * (h2 > 0.0)
        g1 = (g2 @ fnet.w2) * (h1 > 0.0)
        grads = (g1.T @ x, g1.sum(axis=0), g2.T @ h1, g2.sum(axis=0),
                 g3.T @ h2, g3.sum(axis=0))
        for var, grad in zip(fvars, grads):
            var._accum(grad)
        if scores.needs_grad:
            g_scores = np.zeros(live.shape)
            g_scores[live] = (g1 @ fnet.w1)[:, 0]
            scores._accum(g_scores)

    return ad.record(tape, [margins[hinge].sum()], (*fvars, scores), backward)[0]


def local_doc_loss_tape(tape: ad.Tape, vars_: dict[str, ad.Var], fnet: FNet,
                        instances: list[MentionInstance], gamma: float,
                        r: int) -> ad.Var:
    """Ranking loss of one document (sum over its trainable mentions)."""
    trainable = [inst for inst in instances if inst.gold_index is not None]
    if not trainable:
        return tape.const(np.zeros(()))
    return record_rank_loss(tape, vars_, record_unaries(tape, vars_, trainable, r),
                            trainable, gamma)


def loss_closure(build):
    """(params, need_grad) -> (loss, grads) of the loss `build(tape, vars_)`
    records, for the gradient checker."""

    def f(params: dict[str, np.ndarray], need_grad: bool):
        tape = ad.Tape()
        vars_ = make_param_vars(tape, params)
        loss = build(tape, vars_)
        if not need_grad:
            return float(loss.value), None
        tape.backward(loss)
        grads = {name: (v.grad if v.grad is not None else np.zeros_like(v.value))
                 for name, v in vars_.items()}
        return float(loss.value), grads

    return f


def local_loss_closure(instances: list[MentionInstance], fnet_shape: FNet,
                       gamma: float, r: int):
    return loss_closure(lambda tape, vars_: local_doc_loss_tape(
        tape, vars_, fnet_shape, instances, gamma, r))
