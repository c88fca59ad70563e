"""Optimisers and the training loops for the local and global models.

One minibatch is all mentions of one document.  The local model trains
with projected SGD; the global model with adaptive moment estimation, its
learning rate dropping once validation accuracy clears a threshold.  After
every step the combination network's weight matrices are rescaled onto a
Frobenius ball.  Validation accuracy is measured every few epochs and the
best-scoring snapshot is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import (
    FNet,
    LocalParams,
    doc_instances,
    local_doc_loss_tape,
    make_param_vars,
    predict_local,
)
from .crf import GlobalParams, global_doc_loss_tape, predict_global
from .docs import Corpus
from .errors import ValidationError
from .metrics import evaluate
from .vectors import EmbeddingStore


@dataclass
class TrainConfig:
    gamma: float = 0.01
    learning_rate: float = 1e-3      # local default; global uses 1e-4
    epochs: int = 100
    eval_every: int = 5
    patience: int = 500              # epochs without validation improvement
    seed: int = 0
    weight_radius: float = 1.0
    lr_drop_accuracy: float = 0.9    # global only
    lr_after_drop: float = 1e-5

    def __post_init__(self):
        if self.gamma <= 0 or self.learning_rate <= 0:
            raise ValidationError("gamma and learning rate must be positive")
        if self.epochs < 0 or self.eval_every < 1 or self.patience < 1:
            raise ValidationError("bad epoch/eval/patience configuration")


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray | None]) -> None:
        for name, g in grads.items():
            if g is not None:
                params[name] -= self.lr * g


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray | None]) -> None:
        self.t += 1
        for name, g in grads.items():
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            mhat = self.m[name] / (1 - self.beta1 ** self.t)
            vhat = self.v[name] / (1 - self.beta2 ** self.t)
            params[name] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


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
    # rows: (epoch, mean train loss, validation accuracy at last check)


def _train(model_kind: str, params_obj, train: Corpus, val: Corpus | None,
           store: EmbeddingStore, cfg: TrainConfig, optimizer) -> TrainHistory:
    pd = {name: arr.copy() for name, arr in params_obj.param_dict().items()}
    fnet = params_obj.local.fnet if model_kind == "global" else params_obj.fnet
    require_gold = model_kind == "local"
    cached = [list(doc_instances(doc, store, require_gold=require_gold))
              for doc in train]
    cached = [c for c in cached if any(i.gold_index is not None for i in c)]
    if not cached:
        raise ValidationError("no trainable mentions in the training corpus")
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best_pd = {k: v.copy() for k, v in pd.items()}
    last_val = 0.0
    since_best = 0
    dropped = False

    def build_loss(tape, vars_, instances):
        if model_kind == "local":
            return local_doc_loss_tape(tape, vars_, fnet, instances,
                                       cfg.gamma, params_obj.r)
        return global_doc_loss_tape(tape, vars_, fnet, instances, cfg.gamma,
                                    params_obj.local.r, params_obj.delta,
                                    params_obj.t)

    def validate() -> float:
        params_obj.load_param_dict({k: v.copy() for k, v in pd.items()})
        if model_kind == "local":
            return accuracy(val, lambda d: predict_local(d, params_obj, store))
        return accuracy(val, lambda d: predict_global(d, params_obj, store))

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(cached))
        losses = []
        for idx in order:
            tape = ad.Tape()
            vars_ = make_param_vars(tape, pd)
            loss = build_loss(tape, vars_, cached[idx])
            losses.append(float(loss.value))
            if float(loss.value) == 0.0:
                continue
            tape.backward(loss)
            optimizer.step(pd, {name: var.grad for name, var in vars_.items()})
            FNet(*(pd[f"f.{n}"] for n in FNet.NAMES)).project(cfg.weight_radius)
        history.epochs_run = epoch
        # validate every `eval_every` epochs, and after the last one
        if val is not None and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            last_val = validate()
            if last_val > history.best_val_accuracy:
                history.best_val_accuracy = last_val
                history.best_epoch = epoch
                best_pd = {k: v.copy() for k, v in pd.items()}
                since_best = 0
            else:
                since_best += cfg.eval_every
            if (model_kind == "global" and not dropped
                    and last_val > cfg.lr_drop_accuracy):
                optimizer.lr = cfg.lr_after_drop
                dropped = True
                history.lr_dropped_epoch = epoch
            if since_best >= cfg.patience:
                break
        history.rows.append((epoch, float(np.mean(losses)), last_val))
    final = best_pd if val is not None and history.best_epoch > 0 else pd
    params_obj.load_param_dict({k: v.copy() for k, v in final.items()})
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
