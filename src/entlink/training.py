"""Optimisers and the training loops for the local and global models.

One minibatch is all mentions of one document.  The local model trains
with projected SGD; the global model with adaptive moment estimation, its
learning rate dropping once validation accuracy clears a threshold.  After
every step the combination network's weight matrices are rescaled onto a
Frobenius ball.  Validation accuracy is measured every few epochs and the
best-scoring snapshot is kept.

Everything fixed for the run is built once, before the first epoch.  Each
training document becomes its padded blocks (`attention.DocBlock`, the
same for both models), gathered straight from its `DocMentions`.  The
parameters are named views into one flat vector (`autodiff.ParamVector`),
and the model object is bound to those views at the start, so there is
one copy of the parameters: the optimizer step, the finiteness check and
the best snapshot (taken and restored as one copy) act on the whole
vector, and validation reads it as it stands.  A parameter that got no
adjoint on a step keeps its value and its moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import (
    DocBlock,
    DocMentions,
    LocalParams,
    local_doc_loss_tape,
    predict_local,
)
from .crf import GlobalParams, check_joint_budget, global_doc_loss_tape, predict_global
from .docs import Corpus
from .errors import FieldError, ValidationError
from .metrics import evaluate
from .vectors import EmbeddingStore


# radius of the Frobenius ball f's weight matrices are projected onto
WEIGHT_RADIUS = 1.0
# the global model's learning rate drops to LR_AFTER_DROP once validation
# accuracy exceeds LR_DROP_ACCURACY
LR_DROP_ACCURACY = 0.9
LR_AFTER_DROP = 1e-5


@dataclass
class TrainConfig:
    gamma: float = 0.01
    learning_rate: float = 1e-3      # local default; global uses 1e-4
    epochs: int = 100
    eval_every: int = 5
    patience: int = 500              # epochs without validation improvement
    seed: int = 0

    def __post_init__(self):
        for name, rule, ok in (("gamma", "be positive", self.gamma > 0),  # NaN fails too
                               ("learning_rate", "be positive", self.learning_rate > 0),
                               ("epochs", "be nonnegative", self.epochs >= 0),
                               ("eval_every", "be at least 1", self.eval_every >= 1),
                               ("patience", "be at least 1", self.patience >= 1)):
            if not ok:
                raise FieldError(name, f"{name} must {rule}, got {getattr(self, name)}")


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grad: np.ndarray,
             live: np.ndarray | bool = True) -> None:
        """Update the entries of the flat `params` that `live` marks."""
        np.subtract(params, self.lr * grad, out=params, where=live)


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray,
             live: np.ndarray | bool = True) -> None:
        """Update the entries of the flat `params` that `live` marks; the
        others keep their value and their moments."""
        self.t += 1
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        m, v = self.m, self.v
        saved = None if live is True else [(a, a[~live]) for a in (params, m, v)]
        # in place, each entry rounded exactly as m = b1 m + (1 - b1) g,
        # v = b2 v + (1 - b2) g g, params -= lr mhat / (sqrt(vhat) + eps)
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        sq = (1 - self.beta2) * grad
        sq *= grad
        v += sq
        update = m / (1 - self.beta1 ** self.t)
        update *= self.lr
        scale = v / (1 - self.beta2 ** self.t)
        np.sqrt(scale, out=scale)
        scale += self.eps
        update /= scale
        params -= update
        for a, kept in saved or ():
            a[~live] = kept


def collect_predictions(corpus: Corpus, predictor) -> tuple[list, list]:
    """`predictor(doc)`'s prediction and the gold id of every mention, in order."""
    preds: list[int | None] = []
    golds: list[int | None] = []
    for doc in corpus:
        for mention, pred in zip(doc.mentions, predictor(doc)):
            preds.append(pred)
            golds.append(mention.gold_id)
    return preds, golds


def accuracy(corpus: Corpus, predictor) -> float:
    """Fraction of gold mentions resolved correctly by `predictor(doc)`."""
    return evaluate(*collect_predictions(corpus, predictor)).in_kb_accuracy


@dataclass
class TrainHistory:
    epochs_run: int = 0
    best_val_accuracy: float = 0.0
    best_epoch: int = 0
    lr_dropped_epoch: int | None = None
    rows: list[tuple[int, float, float]] = field(default_factory=list)
    # rows: (epoch, mean train loss, validation accuracy at last check), one
    # per epoch run, the one at which early stopping fires included


def _train(model_kind: str, params_obj, train: Corpus, val: Corpus | None,
           store: EmbeddingStore, cfg: TrainConfig, optimizer) -> TrainHistory:
    params = ad.ParamVector(params_obj.param_dict())
    params_obj.load_param_dict(params.views(params.flat))  # the one copy
    local = params_obj if model_kind == "local" else params_obj.local
    require_gold = model_kind == "local"
    blocks = []
    for doc in train:
        mentions = DocMentions.of(doc, require_gold)
        if (mentions.gold >= 0).any():
            if model_kind == "global":  # before the gather allocates the rows
                check_joint_budget(doc.doc_id, *mentions.valid.shape, params_obj.t,
                                   training=True)
            blocks.append(DocBlock.gather(mentions, store))
    if not blocks:
        raise ValidationError("no trainable mentions in the training corpus")
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best = params.flat.copy()
    last_val = 0.0
    since_best = 0
    dropped = False

    def build_loss(tape, block):
        if model_kind == "local":
            return local_doc_loss_tape(tape, params.vars, None, block,
                                       cfg.gamma, local.r)
        return global_doc_loss_tape(tape, params.vars, None, block, cfg.gamma,
                                    local.r, params_obj.delta, params_obj.t)

    def validate() -> float:
        if model_kind == "local":
            return accuracy(val, lambda d: predict_local(d, params_obj, store))
        return accuracy(val, lambda d: predict_global(d, params_obj, store))

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(blocks))
        losses = []
        for idx in order:
            tape = ad.Tape()
            loss = build_loss(tape, blocks[idx])
            losses.append(float(loss.value))
            if float(loss.value) == 0.0:
                continue
            tape.backward(loss)
            optimizer.step(params.flat, *params.gradient())
            local.fnet.project(WEIGHT_RADIUS)
            params.check()
        history.epochs_run = epoch
        # validate every `eval_every` epochs, and after the last one
        if val is not None and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            last_val = validate()
            if last_val > history.best_val_accuracy:
                history.best_val_accuracy = last_val
                history.best_epoch = epoch
                best = params.flat.copy()
                since_best = 0
            else:
                since_best += cfg.eval_every
            if (model_kind == "global" and not dropped
                    and last_val > LR_DROP_ACCURACY):
                optimizer.lr = LR_AFTER_DROP
                dropped = True
                history.lr_dropped_epoch = epoch
        history.rows.append((epoch, float(np.mean(losses)), last_val))
        if since_best >= cfg.patience:
            break
    if val is not None and history.best_epoch > 0:
        params.flat[:] = best
    return history


def train_local(params: LocalParams, train: Corpus, val: Corpus | None,
                store: EmbeddingStore, cfg: TrainConfig) -> TrainHistory:
    """Projected SGD on the local ranking loss; keeps the best snapshot."""
    return _train("local", params, train, val, store, cfg, Sgd(cfg.learning_rate))


def train_global(params: GlobalParams, train: Corpus, val: Corpus | None,
                 store: EmbeddingStore, cfg: TrainConfig) -> TrainHistory:
    """Adam on the ranking loss through the unrolled message-passing layers."""
    return _train("global", params, train, val, store, cfg, Adam(cfg.learning_rate))


def predict_prior_baseline(doc) -> list[int | None]:
    """Argmax of the mention-entity prior, ties by entity id."""
    out: list[int | None] = []
    for mention in doc.mentions:
        cands = mention.candidates or []
        if not cands:
            out.append(None)
            continue
        best = max(cands, key=lambda c: (c.prior, -c.entity))
        out.append(best.entity)
    return out
