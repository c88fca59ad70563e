"""Local candidate scoring with hard attention over the context window.

Every context word gets a support score, the max over candidate entities
of a diagonal bilinear form between entity and word vectors.  Only the R
best-supported words keep attention mass (the rest are clamped to -inf
before the softmax), and the candidate's context score is the
attention-weighted sum of a second bilinear form.  A small two-hidden-layer
network f combines the context score with the log prior into the final
local score; training minimises a margin ranking loss over candidates.
"""

from __future__ import annotations

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

    def copy(self) -> "FNet":
        return FNet(*(getattr(self, n).copy() for n in
                      ("w1", "b1", "w2", "b2", "w3", "b3")))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Score row-stacked (n, 2) inputs; returns (n,)."""
        h = np.maximum(0.0, x @ self.w1.T + self.b1)
        h = np.maximum(0.0, h @ self.w2.T + self.b2)
        return (h @ self.w3.T + self.b3)[:, 0]

    def forward_tape(self, x: ad.Var, vars_: dict[str, ad.Var]) -> ad.Var:
        h = ad.relu(ad.linear(x, vars_["f.w1"], vars_["f.b1"]))
        h = ad.relu(ad.linear(h, vars_["f.w2"], vars_["f.b2"]))
        return ad.flatten(ad.linear(h, vars_["f.w3"], vars_["f.b3"]))

    def param_dict(self) -> dict[str, np.ndarray]:
        return {f"f.{n}": getattr(self, n) for n in
                ("w1", "b1", "w2", "b2", "w3", "b3")}

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
        # identity diagonals: initial scores are plain dot products
        return cls(a=np.ones(dim), b=np.ones(dim),
                   fnet=FNet.additive(hidden), k=k, r=r)

    def copy(self) -> "LocalParams":
        return LocalParams(a=self.a.copy(), b=self.b.copy(), fnet=self.fnet.copy(),
                           k=self.k, r=self.r)

    def param_dict(self) -> dict[str, np.ndarray]:
        out = {"A": self.a, "B": self.b}
        out.update(self.fnet.param_dict())
        return out

    def load_param_dict(self, params: dict[str, np.ndarray]) -> None:
        self.a = params["A"]
        self.b = params["B"]
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            setattr(self.fnet, name, params[f"f.{name}"])


def support_scores(cand_vecs: np.ndarray, ctx_vecs: np.ndarray,
                   a: np.ndarray) -> np.ndarray:
    """Per-word support u(w) = max over candidates of x_e^T diag(a) x_w."""
    if cand_vecs.shape[0] == 0 or ctx_vecs.shape[0] == 0:
        raise ValidationError("nothing to score: empty candidate set or context")
    return _support(cand_vecs, ctx_vecs, a)[0]


def _support(cand_vecs: np.ndarray, ctx_vecs: np.ndarray,
             a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support per word and the first candidate row attaining it."""
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


def combine_f(fnet: FNet, context_scores: np.ndarray,
              log_priors: np.ndarray) -> np.ndarray:
    x = np.column_stack([context_scores, log_priors])
    if not np.all(np.isfinite(x)):
        raise ValidationError("non-finite input to the combination network")
    return fnet.forward(x)


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


def local_scores(params: LocalParams, cand_vecs: np.ndarray,
                 ctx_vecs: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Final combined local score per candidate."""
    psi, _, _ = mention_unary(params.a, params.b, params.r, cand_vecs, ctx_vecs)
    logp = np.array([floored_log_prior(p) for p in priors])
    return combine_f(params.fnet, psi, logp)


def argmax_entity(scores: np.ndarray, entities: list[int]) -> int:
    """Best-scoring entity; exact score ties resolved by smallest entity id."""
    best = scores.max()
    tied = [entities[i] for i in range(len(entities)) if scores[i] == best]
    return min(tied)


def predict_local(doc, params: LocalParams, store: EmbeddingStore) -> list[int | None]:
    """Per-mention argmax of the combined score; empty sets stay unannotated."""
    out: list[int | None] = []
    for mention in doc.mentions:
        cands: list[Candidate] = mention.candidates or []
        if not cands:
            out.append(None)
            continue
        cand_vecs = np.stack([store.entity_vec(c.entity) for c in cands])
        ctx_vecs = context_matrix(mention, store)
        scores = local_scores(params, cand_vecs, ctx_vecs,
                              np.array([c.prior for c in cands]))
        out.append(argmax_entity(scores, [c.entity for c in cands]))
    return out


def context_matrix(mention, store: EmbeddingStore) -> np.ndarray:
    ctx = mention.context or []
    if not ctx:
        return np.zeros((0, store.dim))
    return np.stack([store.word_vec(w) for w in ctx])


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


def combine_scores_tape(tape: ad.Tape, vars_: dict[str, ad.Var], fnet: FNet,
                        context: ad.Var, log_priors: np.ndarray) -> ad.Var:
    return fnet.forward_tape(ad.stack_cols(context, tape.const(log_priors)), vars_)


def hinge_rank_loss_tape(tape: ad.Tape, scores: ad.Var, gold_index: int,
                         gamma: float) -> ad.Var:
    """Sum over non-gold candidates of [gamma - s(gold) + s(e)]_+.

    The e = gold term would contribute the constant gamma with zero
    gradient, so it is masked out: the loss is exactly 0 iff every margin
    holds.
    """
    margins = ad.relu(ad.shift(ad.sub(scores, ad.index(scores, gold_index)), gamma))
    mask = np.ones(scores.value.shape[0])
    mask[gold_index] = 0.0
    return ad.dot(margins, tape.const(mask))


@dataclass
class MentionInstance:
    """One mention ready for scoring; gold_index is None when untrainable."""

    cand_vecs: np.ndarray
    ctx_vecs: np.ndarray
    log_priors: np.ndarray
    gold_index: int | None
    entities: list[int] = field(default_factory=list)


def doc_instances(doc, store: EmbeddingStore,
                  require_gold: bool = True) -> list[MentionInstance]:
    """Mention instances for one document.

    With `require_gold`, only mentions whose gold entity sits in their
    candidate set are returned (the contract for loss terms).  Without it,
    every candidate-bearing mention is included and `gold_index` is None
    for the untrainable ones, so they can still shape joint inference.
    """
    out = []
    for mention in doc.mentions:
        cands: list[Candidate] = mention.candidates or []
        if not cands:
            continue
        entities = [c.entity for c in cands]
        gold_index = (entities.index(mention.gold_id)
                      if mention.gold_id is not None and mention.gold_id in entities
                      else None)
        if require_gold and gold_index is None:
            continue
        out.append(MentionInstance(
            cand_vecs=np.stack([store.entity_vec(e) for e in entities]),
            ctx_vecs=context_matrix(mention, store),
            log_priors=np.array([floored_log_prior(c.prior) for c in cands]),
            gold_index=gold_index,
            entities=entities,
        ))
    return out


def local_doc_loss_tape(tape: ad.Tape, vars_: dict[str, ad.Var], fnet: FNet,
                        instances: list[MentionInstance], gamma: float,
                        r: int) -> ad.Var:
    """Ranking loss of one document (sum over its trainable mentions)."""
    total = None
    for inst in instances:
        if inst.gold_index is None:
            continue
        psi = record_unary(tape, vars_, inst, r)
        scores = combine_scores_tape(tape, vars_, fnet, psi, inst.log_priors)
        loss = hinge_rank_loss_tape(tape, scores, inst.gold_index, gamma)
        total = loss if total is None else ad.add(total, loss)
    if total is None:
        return tape.const(np.zeros(()))
    return total


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
