"""The batched training records against the per-mention oracle in `permention`."""

import numpy as np
import pytest
from gradcheck import random_fnet
from permention import global_loss, local_loss

from entlink import autodiff as ad
from entlink.attention import (FNet, MentionInstance, floored_log_prior,
                               local_doc_loss_tape, make_param_vars)
from entlink.crf import global_doc_loss_tape

DIM = 6
K = 12


def random_document(rng, n=None):
    """Mixed candidate counts and context lengths, empty contexts, exactly
    tied candidate rows and words, untrainable mentions."""
    n = int(rng.integers(1, 21)) if n is None else n
    out = []
    for _ in range(n):
        s = int(rng.integers(1, 8))
        cands = rng.normal(size=(s, DIM))
        if s > 1 and rng.random() < 0.4:
            cands[-1] = cands[0]
        k = int(rng.integers(0, K + 1))
        ctx = rng.normal(size=(k, DIM))
        if k > 2 and rng.random() < 0.4:
            ctx[-1] = ctx[1]
        gold = int(rng.integers(s)) if rng.random() < 0.8 else None
        out.append(MentionInstance(
            cand_vecs=cands, ctx_vecs=ctx, gold_index=gold, entities=list(range(s)),
            log_priors=np.array([floored_log_prior(p) for p in rng.dirichlet(np.ones(s))])))
    return out


def random_params(rng):
    fnet = random_fnet(hidden=8, scale=0.6, rng=rng)
    return {"A": 1.0 + 0.3 * rng.normal(size=DIM), "B": 1.0 + 0.3 * rng.normal(size=DIM),
            "C": 1.0 + 0.3 * rng.normal(size=DIM), **fnet.param_dict()}


def run(build, params):
    tape = ad.Tape()
    vars_ = make_param_vars(tape, params)
    loss = build(tape, vars_)
    if loss.needs_grad:
        tape.backward(loss)
    return float(loss.value), {k: v.grad for k, v in vars_.items()}, len(tape)


def assert_matches(got, want):
    """Loss to 1e-12 relative; every gradient entry to 1e-12 of the largest
    entry of the whole gradient (a parameter whose adjoints cancel to
    rounding noise has no scale of its own)."""
    loss, grads, _ = got
    loss_want, grads_want, _ = want
    assert loss == pytest.approx(loss_want, rel=1e-12, abs=1e-300)
    scale = max((np.abs(g).max() for g in grads_want.values() if g is not None), default=0.0)
    for name, g_want in grads_want.items():
        g = grads[name]
        if g_want is None:
            assert g is None or not g.any(), name
        else:
            assert np.abs(g - g_want).max() <= 1e-12 * scale, name


def test_records_match_per_mention_oracle():
    rng = np.random.default_rng(2024)
    hinged = 0
    for case in range(120):
        instances = random_document(rng, n=1 if case % 10 == 0 else None)
        params = random_params(rng)
        fnet = FNet(*(params[f"f.{n}"] for n in FNet.NAMES))
        gamma, r = 0.5, int(rng.integers(1, K + 2))
        want = run(lambda t, v: local_loss(t, v, instances, gamma, r), params)
        got = run(lambda t, v: local_doc_loss_tape(t, v, fnet, instances, gamma, r), params)
        assert_matches(got, want)
        delta, layers = float(rng.uniform(0.3, 1.0)), int(rng.integers(1, 5))
        want = run(lambda t, v: global_loss(t, v, instances, gamma, r, delta, layers), params)
        got = run(lambda t, v: global_doc_loss_tape(t, v, fnet, instances, gamma, r,
                                                    delta, layers), params)
        assert_matches(got, want)
        hinged += want[0] > 0.0
    assert hinged > 100


def test_fixed_record_count_per_document():
    rng = np.random.default_rng(7)
    instances = random_document(rng, n=20)
    for inst in instances:
        inst.gold_index = 0
    params = random_params(rng)
    fnet = FNet(*(params[f"f.{n}"] for n in FNet.NAMES))
    assert run(lambda t, v: local_doc_loss_tape(t, v, fnet, instances, 0.5, 4), params)[2] == 2
    assert run(lambda t, v: global_doc_loss_tape(t, v, fnet, instances, 0.5, 4, 0.5, 3),
               params)[2] == 3
