"""The per-step training loop the flat parameter vector replaced, kept as a
parity oracle: every document gets a fresh tape with fresh parameter Vars
(`make_param_vars`), its loss is recorded from its list of instances, and
the optimizers update one array at a time, skipping a parameter that got
no adjoint.  Validation, snapshots and the learning-rate drop follow
`training._train`.
"""

import numpy as np
from permention import doc_instances

from entlink import autodiff as ad
from entlink import training
from entlink.attention import FNet, local_doc_loss_tape, make_param_vars
from entlink.crf import global_doc_loss_tape
from entlink.training import accuracy


class Sgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for name, g in grads.items():
            if g is not None:
                params[name] -= self.lr * g


class Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, grads):
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


def train(model_kind, params_obj, train_corpus, val, store, cfg, predictor):
    """Train `params_obj` in place; `predictor(doc, params_obj, store)` validates."""
    optimizer = (Sgd if model_kind == "local" else Adam)(cfg.learning_rate)
    pd = {name: arr.copy() for name, arr in params_obj.param_dict().items()}
    cached = [list(doc_instances(doc, store, require_gold=model_kind == "local"))
              for doc in train_corpus]
    cached = [c for c in cached if any(i.gold_index is not None for i in c)]
    rng = np.random.default_rng(cfg.seed)
    best_pd = {k: v.copy() for k, v in pd.items()}
    best_val, best_epoch, since_best, dropped = 0.0, 0, 0, False

    def loss_of(tape, vars_, instances):
        if model_kind == "local":
            return local_doc_loss_tape(tape, vars_, None, instances, cfg.gamma,
                                       params_obj.r)
        return global_doc_loss_tape(tape, vars_, None, instances, cfg.gamma,
                                    params_obj.local.r, params_obj.delta, params_obj.t)

    for epoch in range(1, cfg.epochs + 1):
        for idx in rng.permutation(len(cached)):
            tape = ad.Tape()
            vars_ = make_param_vars(tape, pd)
            loss = loss_of(tape, vars_, cached[idx])
            if float(loss.value) == 0.0:
                continue
            tape.backward(loss)
            optimizer.step(pd, {name: var.grad for name, var in vars_.items()})
            FNet(*(pd[f"f.{n}"] for n in FNet.NAMES)).project(training.WEIGHT_RADIUS)
        if val is not None and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            params_obj.load_param_dict({k: v.copy() for k, v in pd.items()})
            last_val = accuracy(val, lambda d: predictor(d, params_obj, store))
            if last_val > best_val:
                best_val, best_epoch, since_best = last_val, epoch, 0
                best_pd = {k: v.copy() for k, v in pd.items()}
            else:
                since_best += cfg.eval_every
            if model_kind == "global" and not dropped and last_val > training.LR_DROP_ACCURACY:
                optimizer.lr = training.LR_AFTER_DROP
                dropped = True
            if since_best >= cfg.patience:
                break
    final = best_pd if val is not None and best_epoch > 0 else pd
    params_obj.load_param_dict({k: v.copy() for k, v in final.items()})
