"""Local candidate scoring with hard attention over the context window.

Every context word gets a support score, the max over candidate entities
of a diagonal bilinear form between entity and word vectors.  Only the R
best-supported words keep attention mass (the rest are clamped to -inf
before the softmax), and the candidate's context score is the
attention-weighted sum of a second bilinear form.  A small two-hidden-layer
network f combines the context score with the log prior into the final
local score; training minimises a margin ranking loss over candidates.

`doc_instances` is the single featurisation path: every scorer reads a
document's mentions through it.  Training records the scorer once per
mention (`record_unary`) and f with the ranking loss once per document
(`record_rank_loss`), each with a hand-derived backward over the same
numpy forward that inference runs.
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


def _support(cand_vecs: np.ndarray, ctx_vecs: np.ndarray,
             a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support per word, u(w) = max over candidates of x_e^T diag(a) x_w, and
    the first candidate row attaining it."""
    scores = (cand_vecs * a) @ ctx_vecs.T
    rows = scores.argmax(axis=0)
    return scores[rows, np.arange(scores.shape[1])], rows


def top_r_mask(u: np.ndarray, r: int) -> np.ndarray:
    """Boolean keep-mask of the R highest entries (ties kept by position)."""
    if r >= u.shape[0]:
        return np.ones(u.shape[0], dtype=bool)
    if r < 1:
        raise ValidationError(f"attention budget must be >= 1, got {r}")
    order = np.argsort(-u, kind="stable")
    mask = np.zeros(u.shape[0], dtype=bool)
    mask[order[:r]] = True
    return mask


def attention_weights(u: np.ndarray, r: int) -> np.ndarray:
    """Softmax over the top-R support scores; pruned words get exactly 0."""
    keep = top_r_mask(u, r)
    shifted = np.where(keep, u - u[keep].max(), -np.inf)
    ex = np.where(keep, np.exp(shifted), 0.0)
    return ex / ex.sum()


def context_score(cand_vecs: np.ndarray, ctx_vecs: np.ndarray, beta: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Attention-weighted bilinear context score for every candidate."""
    return (cand_vecs * b) @ (ctx_vecs.T @ beta)


def f_inputs(context_scores: np.ndarray, log_priors: np.ndarray) -> np.ndarray:
    """The (n, 2) input rows of the combination network."""
    x = np.column_stack([context_scores, log_priors])
    if not np.all(np.isfinite(x)):
        raise ValidationError("non-finite input to the combination network")
    return x


def combine_f(fnet: FNet, context_scores: np.ndarray,
              log_priors: np.ndarray) -> np.ndarray:
    return fnet.forward(f_inputs(context_scores, log_priors))


def mention_unary(a: np.ndarray, b: np.ndarray, r: int, cand_vecs: np.ndarray,
                  ctx_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Context scores, attention weights and support rows for one mention.

    The support rows (the first candidate attaining each word's support)
    and the weights are what the backward pass of `record_unary` needs.
    An empty context yields zero scores and no attention: the mention then
    carries no context evidence and the prior decides.
    """
    if ctx_vecs.shape[0] == 0:
        return np.zeros(cand_vecs.shape[0]), np.zeros(0), np.zeros(0, dtype=int)
    u, rows = _support(cand_vecs, ctx_vecs, a)
    beta = attention_weights(u, r)
    return context_score(cand_vecs, ctx_vecs, beta, b), beta, rows


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


def record_unary(tape: ad.Tape, vars_: dict[str, ad.Var],
                 inst: MentionInstance, r: int) -> ad.Var:
    """`mention_unary` as one tape record, with adjoints into A and B.

    Top-R selection is piecewise constant and carries no gradient; the
    support max routes its adjoint to the first maximal candidate row.
    An empty context gives a constant.
    """
    cands, ctx = inst.cand_vecs, inst.ctx_vecs
    if ctx.shape[0] == 0:
        return tape.const(np.zeros(cands.shape[0]))
    a, b = vars_["A"], vars_["B"]
    psi, beta, rows = mention_unary(a.value, b.value, r, cands, ctx)

    def backward(g):
        cand_g = cands.T @ g
        b._accum(cand_g * (ctx.T @ beta))
        g_beta = ctx @ (b.value * cand_g)
        g_u = beta * (g_beta - g_beta @ beta)
        a._accum((cands[rows] * ctx).T @ g_u)

    return ad.record(tape, [psi], (a, b), backward)[0]


def record_rank_loss(tape: ad.Tape, vars_: dict[str, ad.Var], scores: list[ad.Var],
                     instances: list[MentionInstance], gamma: float) -> ad.Var:
    """f and the ranking loss of a document's trainable mentions as one record.

    Each mention whose gold index is known adds, over its non-gold
    candidates e, [gamma - rho(gold) + rho(e)]_+ with rho = f(score, log
    prior); the e = gold term would add the constant gamma with zero
    gradient, so it is masked out and the loss is exactly 0 iff every
    margin holds.  Mentions are summed in document order.  The backward
    gives adjoints into f.* and into each mention's score; relu passes
    none at exactly 0, nor does a margin of exactly 0.
    """
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
        # mentions in reverse, as separate records would have been replayed
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


def local_doc_loss_tape(tape: ad.Tape, vars_: dict[str, ad.Var], fnet: FNet,
                        instances: list[MentionInstance], gamma: float,
                        r: int) -> ad.Var:
    """Ranking loss of one document (sum over its trainable mentions)."""
    trainable = [inst for inst in instances if inst.gold_index is not None]
    psi = [record_unary(tape, vars_, inst, r) for inst in trainable]
    return record_rank_loss(tape, vars_, psi, trainable, gamma)


def local_loss_closure(instances: list[MentionInstance], fnet_shape: FNet,
                       gamma: float, r: int):
    """(params, need_grad) -> (loss, grads) for the gradient checker."""

    def f(params: dict[str, np.ndarray], need_grad: bool):
        tape = ad.Tape()
        vars_ = make_param_vars(tape, params)
        loss = local_doc_loss_tape(tape, vars_, fnet_shape, instances, gamma, r)
        if not need_grad:
            return float(loss.value), None
        tape.backward(loss)
        grads = {name: (v.grad if v.grad is not None else np.zeros_like(v.value))
                 for name, v in vars_.items()}
        return float(loss.value), grads

    return f
