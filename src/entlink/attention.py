"""Local candidate scoring with hard attention over the context window.

Every context word gets a support score, the max over candidate entities
of a diagonal bilinear form between entity and word vectors.  Only the R
best-supported words keep attention mass (the rest get exactly 0), and
the candidate's context score is the attention-weighted sum of a second
bilinear form.  A small two-hidden-layer network f combines the context
score with the log prior into the final local score; training minimises a
margin ranking loss over candidates.

`DocMentions.of` is the single featurisation: which mentions count, their
candidate ids, floored log priors, gold slots and context ids, as one
document's padded arrays.  Every scorer reads documents through it and
gathers its rows from those arrays (`masked_rows`); the per-mention forms
(`MentionInstance`, `DocBlock.of`, `padded_rows`, `padded_ids`, the
instance-list loss branches) stay only because the benchmark calls them.

The scorer is two steps, and inference and training both run both.  Step
(a) (`context_blocks`) is the one pass over the context rows: it fills both
bilinear score blocks, (cands*a) @ ctx^T and (cands*b) @ ctx^T.  Step (b)
(`attend`) works from those blocks alone, along any leading axes: support,
top-R, softmax and the weighted sum of the b-block.  Its sums run over the
kept words in support order, so a padded mention scores bit for bit as
the mention alone does.  Inference (`score_document`) checks a document's
ids once, gathers its candidate rows once, runs step (a) one mention at a
time while that mention's context rows are in cache, then step (b) once
over the document's (n, S, K) blocks.  Both models decide a document from
its padded (n, S) blocks: f runs once over the live slots
(`combine_block`), and one vectorised argmax picks each mention's entity
(`best_entities`).  Training builds its blocks once per document from its
`DocMentions` (`DocBlock.gather`), for the local and the joint model alike,
and scores them in one record (`record_unaries`); f with the ranking loss
is one more record per document (`record_rank_loss`), one f pass over
every trainable candidate.  Each record has a hand-derived backward over
the same numpy forward that inference runs.  f sums each row of its output
layer alone (`FNet.layers`), so that equal rows stay tied in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import FieldError, ValidationError
from .priors import Candidate
from .vectors import EmbeddingStore, checked_ids, masked_rows

LOG_PRIOR_FLOOR = 1e-12
# the paper unrolls T=10 layers; a far larger count from a config or a
# model header would run for hours per document rather than fail
MAX_LAYERS = 1000


def floored_log_prior(p):
    """log max(p, LOG_PRIOR_FLOOR): a float for a scalar, an array for an array."""
    out = np.log(np.maximum(p, LOG_PRIOR_FLOOR))
    return float(out) if out.ndim == 0 else out


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

    def hidden_layers(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both relu layers' activations of (n, 2) inputs."""
        h1 = x @ self.w1.T
        h1 += self.b1
        h2 = np.maximum(0.0, h1, out=h1) @ self.w2.T
        h2 += self.b2
        return h1, np.maximum(0.0, h2, out=h2)

    def layers(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both relu layers' activations and the (n,) scores of (n, 2) inputs.

        Equal rows score equally wherever they sit, so exact ties between
        candidates survive batching: BLAS's matrix-vector product rounds a
        row by its position in the batch, so the output layer is an einsum,
        one sum over each row in the same order.
        """
        h1, h2 = self.hidden_layers(x)
        return h1, h2, np.einsum("ij,j->i", h2, self.w3[0]) + self.b3[0]

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


def check_header(dim: int, hidden: int, k: int, r: int, delta: float | None = None,
                 t: int | None = None) -> None:
    """The range check of a model's sizes and, for the joint model, its
    damping and layer count: the fields a model file's header holds."""
    for name, value in (("dim", dim), ("hidden", hidden), ("k", k), ("r", r)):
        if value < 1:
            raise FieldError(name, f"{name} must be at least 1, got {value}")
    if delta is not None and not 0.0 < delta <= 1.0:
        raise FieldError("delta", f"damping must be in (0, 1], got {delta}")
    if t is not None and t < 1:
        raise FieldError("t", f"layer count must be >= 1, got {t}")
    if t is not None and t > MAX_LAYERS:
        raise FieldError("t", f"layer count must be <= {MAX_LAYERS}, got {t}")


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
        check_header(dim, hidden, k, r)
        # identity diagonals: initial scores are plain dot products
        return cls(a=np.ones(dim), b=np.ones(dim),
                   fnet=FNet.additive(hidden), k=k, r=r)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def param_dict(self) -> dict[str, np.ndarray]:
        """A, B, then f's arrays: the model file's payload order."""
        return {"A": self.a, "B": self.b, **self.fnet.param_dict()}

    def load_param_dict(self, params: dict[str, np.ndarray]) -> None:
        self.a = params["A"]
        self.b = params["B"]
        for name in FNet.NAMES:
            setattr(self.fnet, name, params[f"f.{name}"])


def context_blocks(cand_a: np.ndarray, cand_b: np.ndarray,
                   ctx_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step (a), the one pass over the context rows: the (..., S, K)
    bilinear score blocks (cands*a) @ ctx^T and (cands*b) @ ctx^T of the
    candidate rows scaled by a and by b, (..., S, d) each, and the
    (..., K, d) context rows."""
    ctx_t = np.swapaxes(ctx_vecs, -1, -2)
    return cand_a @ ctx_t, cand_b @ ctx_t


def top_r(u: np.ndarray, r: int) -> np.ndarray:
    """Positions of the R highest entries along the last axis (all of them
    if there are fewer), highest first, ties in position order."""
    if r < 1:
        raise ValidationError(f"attention budget must be >= 1, got {r}")
    return np.argsort(-u, axis=-1, kind="stable")[..., :r]


def ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order: zeros appended to a row
    leave its sum bit for bit as it is, so a padded row sums as the row
    alone does."""
    return np.cumsum(x, axis=-1)[..., -1]


def attend(a_block: np.ndarray, b_block: np.ndarray, r: int,
           live: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step (b), from the two score blocks alone, along any leading axes:
    the (..., S) context scores, the (..., K) attention weights and the
    a-block with the pairs off the `live` mask at -inf.

    A word's support u is the max over live candidates of its a-block
    column; only the R best-supported words keep attention mass, the
    softmax of their support, and a candidate's context score is the
    weighted sum of its b-block row over those words.  Both sums run over
    the kept words in support order, so padding words (weight 0, last in
    that order) change no bit of a mention's scores.
    """
    if live is not None:
        a_block = np.where(live, a_block, -np.inf)
    u = a_block.max(axis=-2)
    top = top_r(u, r)[..., None, :]
    # a sparse index grid over the leading and the candidate axes; with
    # `top` it indexes the kept words of u, of the b-block and of beta
    *lead, slots = np.indices(b_block.shape[:-1] + (1,), sparse=True)[:-1]
    kept = u[(*lead, top)]
    weights = np.exp(kept - kept[..., :1])
    weights /= ordered_sum(weights)[..., None]
    psi = ordered_sum(b_block[(*lead, slots, top)] * weights)
    beta = np.zeros(u.shape)
    beta[(*lead, top)] = weights
    return psi, beta, a_block


def scored_pairs(valid: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The (n, S, K) candidate-word pairs step (b) reads, of the (n, S)
    candidate and (n, K) word masks of zero-padded blocks: the live ones,
    and word 0 of an empty context, a zero row that scores every candidate
    exactly 0 and so gives no evidence."""
    words = words | (np.arange(words.shape[1]) == 0)
    return valid[:, :, None] & words[:, None]


def f_inputs(context_scores: np.ndarray, log_priors: np.ndarray) -> np.ndarray:
    """The (n, 2) input rows of the combination network."""
    x = np.empty((len(context_scores), 2))
    x[:, 0] = context_scores
    x[:, 1] = log_priors
    if not np.isfinite(x).all():
        raise ValidationError("non-finite input to the combination network")
    return x


def combine_f(fnet: FNet, context_scores: np.ndarray,
              log_priors: np.ndarray) -> np.ndarray:
    return fnet.forward(f_inputs(context_scores, log_priors))


def filled(sizes: list[int]) -> np.ndarray:
    """The (m, W) mask of rows holding `sizes` entries each, W the longest
    (at least 1)."""
    sizes = np.array(sizes, dtype=np.intp)
    return np.arange(max(1, sizes.max(initial=0))) < sizes[:, None]


@dataclass
class DocMentions:
    """A document's candidate-bearing mentions as padded arrays: the one
    featurisation every scorer and `DocBlock.gather` read (`DocMentions.of`).

    Row i is the mention at `positions[i]` of the document.  `entities`
    (n, S) holds its candidate ids, -1 at padding, `valid` marks them, and
    `log_priors` holds their floored log priors, 0 at padding.  `gold` (n,)
    is the slot of the gold candidate, -1 where it is unknown or not a
    candidate.  `contexts` (n, K) holds the context word ids, 0 at
    padding, and `words` marks them.
    """

    positions: list[int]
    entities: np.ndarray
    valid: np.ndarray
    log_priors: np.ndarray
    gold: np.ndarray
    contexts: np.ndarray
    words: np.ndarray

    @classmethod
    def of(cls, doc, require_gold: bool = True) -> "DocMentions":
        """With `require_gold`, only mentions whose gold entity sits in
        their candidate set are kept (the contract for loss terms).
        Without it, every candidate-bearing mention is kept, so that the
        untrainable ones still shape joint inference."""
        positions, golds, sizes, lengths = [], [], [], []
        entities, priors, contexts = [], [], []   # flat, in mention order
        for position, mention in enumerate(doc.mentions):
            cands: list[Candidate] = mention.candidates or []
            if not cands:
                continue
            ids = [c.entity for c in cands]
            gold = ids.index(mention.gold_id) if mention.gold_id in ids else -1
            if require_gold and gold < 0:
                continue
            context = mention.context or []
            positions.append(position)
            golds.append(gold)
            sizes.append(len(ids))
            lengths.append(len(context))
            entities.extend(ids)
            priors.extend([c.prior for c in cands])
            contexts.extend(context)
        valid, words = filled(sizes), filled(lengths)
        entity_ids = np.full(valid.shape, -1)
        entity_ids[valid] = np.array(entities, dtype=int)
        log_priors = np.zeros(valid.shape)
        log_priors[valid] = floored_log_prior(np.array(priors, dtype=float))
        context_ids = np.zeros(words.shape, dtype=np.intp)
        context_ids[words] = np.array(contexts, dtype=np.intp)
        return cls(positions=positions, entities=entity_ids, valid=valid,
                   log_priors=log_priors, gold=np.array(golds, dtype=np.intp),
                   contexts=context_ids, words=words)


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


def score_document(doc, params: LocalParams, store: EmbeddingStore
                   ) -> tuple[DocMentions, np.ndarray, np.ndarray, np.ndarray] | None:
    """The document's candidate-bearing mentions with their zero-padded
    (n, S, d) candidate rows, (n, S) context scores and (n, K) attention
    weights; None when no mention has candidates.

    The ids are checked once per document and the candidate rows gathered
    in one go.  Step (a) then runs mention by mention, each mention's
    context rows gathered just before and released just after its two
    score blocks are filled, so they are read while in cache; step (b)
    runs once over the document's blocks.
    """
    mentions = DocMentions.of(doc, require_gold=False)
    if not mentions.positions:
        return None
    valid, words = mentions.valid, mentions.words
    cands = masked_rows(store.entity_matrix(), mentions.entities, valid, "entity")
    checked_ids(mentions.contexts[words], store.n_words, "word")
    cand_a, cand_b = cands * params.a, cands * params.b
    a_block = np.zeros(valid.shape + words.shape[1:])
    b_block = np.zeros_like(a_block)
    table = store.word_matrix()
    sizes, lengths = valid.sum(axis=1).tolist(), words.sum(axis=1).tolist()
    for m, (s, k) in enumerate(zip(sizes, lengths)):
        if k:
            a_block[m, :s, :k], b_block[m, :s, :k] = context_blocks(
                cand_a[m, :s], cand_b[m, :s], table[mentions.contexts[m, :k]])
    psi, beta, _ = attend(a_block, b_block, params.r, scored_pairs(valid, words))
    beta[~words] = 0.0  # an empty context's zero word takes no attention
    return mentions, cands, psi, beta


def padded_rows(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """`rows` stacked on a new leading axis and zero-padded to the longest
    (at least 1), with the (m, W) mask of the rows' own entries."""
    mask = filled([row.shape[0] for row in rows])
    out = np.zeros(mask.shape + rows[0].shape[1:])
    out[mask] = np.concatenate(rows)
    return out, mask


def padded_ids(entities: list[list[int]], valid: np.ndarray) -> np.ndarray:
    """The (n, S) entity ids of per-mention id lists, -1 at the padded
    slots of the (n, S) validity `valid`."""
    ids = np.full(valid.shape, -1)
    ids[valid] = [e for row in entities for e in row]
    return ids


def combine_block(fnet: FNet, scores: np.ndarray, log_priors: np.ndarray,
                  valid: np.ndarray) -> np.ndarray:
    """f over the live slots of a document's (n, S) score and log-prior
    blocks in one pass; -inf at padding."""
    rho = np.full(valid.shape, -np.inf)
    rho[valid] = combine_f(fnet, scores[valid], log_priors[valid])
    return rho


def best_entities(rho: np.ndarray, entities: np.ndarray) -> np.ndarray:
    """Each mention's best-scoring entity of an (n, S) combined block, -inf
    at padding, given its (n, S) entity ids; exact ties go to the smallest
    id."""
    tied = rho == rho.max(axis=1, keepdims=True)
    return np.where(tied, entities, np.iinfo(entities.dtype).max).min(axis=1)


def local_decisions(doc, params: LocalParams, store: EmbeddingStore
                    ) -> list[tuple[int, int, np.ndarray]]:
    """The local model's decision for each of the document's
    candidate-bearing mentions: its position, its entity, decided from the
    document's (n, S) blocks, and its attention weights over its context."""
    scored = score_document(doc, params, store)
    if scored is None:
        return []
    mentions, _, psi, beta = scored
    rho = combine_block(params.fnet, psi, mentions.log_priors, mentions.valid)
    entities = best_entities(rho, mentions.entities).tolist()
    lengths = mentions.words.sum(axis=1).tolist()
    return [(position, entity, beta[m, :k]) for m, (position, entity, k)
            in enumerate(zip(mentions.positions, entities, lengths))]


def predict_local(doc, params: LocalParams, store: EmbeddingStore) -> list[int | None]:
    """Per-mention argmax of the combined score; empty sets stay unannotated."""
    out: list[int | None] = [None] * len(doc.mentions)
    for position, entity, _ in local_decisions(doc, params, store):
        out[position] = entity
    return out


# -- tape (training) path ----------------------------------------------


def make_param_vars(tape: ad.Tape, params: dict[str, np.ndarray]) -> dict[str, ad.Var]:
    return {name: tape.var(arr) for name, arr in params.items()}


@dataclass
class DocBlock:
    """A document's mentions as the zero-padded blocks the training records
    of both models read, built once per document (`DocBlock.gather`).

    `cands` (m, S, d) and `ctx` (m, K, d) hold the candidate and context
    rows, `valid` (m, S) and `words` (m, K) mark their own entries.
    `log_priors` (m, S) is zero-padded, and `gold` (m, S) marks each gold
    slot: a mention whose gold index is unknown has none.
    """

    cands: np.ndarray
    valid: np.ndarray
    ctx: np.ndarray
    words: np.ndarray
    log_priors: np.ndarray
    gold: np.ndarray

    @classmethod
    def gather(cls, mentions: DocMentions, store: EmbeddingStore) -> "DocBlock":
        """The block of `mentions`; candidate ids are checked before context ids."""
        valid, words = mentions.valid, mentions.words
        cands = masked_rows(store.entity_matrix(), mentions.entities, valid, "entity")
        return cls(cands=cands, valid=valid,
                   ctx=masked_rows(store.word_matrix(), mentions.contexts, words, "word"),
                   words=words, log_priors=mentions.log_priors,
                   gold=np.arange(valid.shape[1]) == mentions.gold[:, None])

    @classmethod
    def of(cls, instances: list[MentionInstance]) -> "DocBlock":
        cands, valid = padded_rows([inst.cand_vecs for inst in instances])
        ctx, words = padded_rows([inst.ctx_vecs for inst in instances])
        golds = [-1 if inst.gold_index is None else inst.gold_index for inst in instances]
        return cls(cands=cands, valid=valid, ctx=ctx, words=words,
                   log_priors=padded_rows([inst.log_priors for inst in instances])[0],
                   gold=np.arange(valid.shape[1]) == np.array(golds)[:, None])


def record_unaries(tape: ad.Tape, vars_: dict[str, ad.Var], block: DocBlock,
                   r: int) -> ad.Var:
    """Both scorer steps over the block's candidate and context rows as one
    tape record of the (m, S) scores, with adjoints into A and B.  The
    scored pairs are `scored_pairs` of the block's masks, so an empty
    context passes no adjoint.  Top-R selection carries no gradient; the
    support max routes its adjoint to the first maximal candidate row.
    """
    a, b = vars_["A"], vars_["B"]
    cands, ctx = block.cands, block.ctx
    a_block, b_block = context_blocks(cands * a.value, cands * b.value, ctx)
    psi, beta, a_block = attend(a_block, b_block, r, scored_pairs(block.valid, block.words))

    def backward(g):
        cand_g = (g[:, None, :] @ cands)[:, 0]
        attended = (beta[:, None, :] @ ctx)[:, 0]
        b._accum((cand_g * attended).sum(axis=0))
        g_beta = (g[:, None, :] @ b_block)[:, 0]
        g_u = beta * (g_beta - (g_beta * beta).sum(axis=-1, keepdims=True))
        routed = cands[np.arange(cands.shape[0])[:, None], a_block.argmax(axis=-2)]
        a._accum(g_u.reshape(-1) @ (routed * ctx).reshape(-1, ctx.shape[-1]))

    return ad.record(tape, [psi], (a, b), backward)[0]


def record_rank_loss(tape: ad.Tape, vars_: dict[str, ad.Var], scores: ad.Var,
                     block: DocBlock, gamma: float) -> ad.Var:
    """f and the ranking loss of the block's trainable mentions as one record.

    Each mention whose gold index is known adds, over its non-gold
    candidates e, [gamma - rho(gold) + rho(e)]_+ with rho = f(score, log
    prior) and the (m, S) `scores`; the gold term would add a constant
    gamma, so it is left out and the loss is exactly 0 iff every margin
    holds.  One f pass covers every live slot of the trainable
    mentions.  The backward gives adjoints into f.* and `scores`; relu
    passes none at exactly 0, nor does a margin of exactly 0.
    """
    gold = block.gold
    live = block.valid & gold.any(axis=1, keepdims=True)
    if not live.any():
        return tape.const(np.zeros(()))
    fvars = [vars_[f"f.{n}"] for n in FNet.NAMES]
    fnet = FNet(*(v.value for v in fvars))
    x = f_inputs(scores.value[live], block.log_priors[live])
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


def local_doc_loss_tape(tape: ad.Tape, vars_: dict[str, ad.Var], fnet: FNet | None,
                        doc: DocBlock | list[MentionInstance], gamma: float,
                        r: int) -> ad.Var:
    """Ranking loss of one document (sum over its trainable mentions), given
    as its block or as its instances, of which the trainable ones are kept.
    f's weights come from the `f.*` vars; `fnet` is unused and stays for
    callers that pass the arguments by position."""
    if not isinstance(doc, DocBlock):
        doc = [inst for inst in doc if inst.gold_index is not None]
        if not doc:
            return tape.const(np.zeros(()))
        doc = DocBlock.of(doc)
    return record_rank_loss(tape, vars_, record_unaries(tape, vars_, doc, r), doc, gamma)
