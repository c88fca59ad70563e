"""Fixed-size layer probes, run at the end of every traced run.

Each probe measures one layer on an input whose size does not depend on the
workload, so the figures compare across workloads and commits:

* the joint model's inference on an n=20, S=7, d=300 instance at T=10 and
  at T=1, giving the pairwise build plus one layer, and the cost of each
  further layer (median times over repetitions);
* the tape records of one document's local and global ranking loss at
  n=20, S=7 with the shipped sizes (d=16, K=40, R=10, T=10).

Everything else per layer comes from the traced pass itself (`tracing.py`).
"""

from __future__ import annotations

import time
from dataclasses import replace
from statistics import median

import numpy as np

from entlink import autodiff as ad
from entlink.attention import (LocalParams, MentionInstance, floored_log_prior,
                               local_doc_loss_tape, make_param_vars)
from entlink.crf import CrfInstance, GlobalParams, global_doc_loss_tape, instance_marginals
from entlink.experiment import ExperimentConfig

PROBE_N = 20
PROBE_S = 7


def _unit(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(rows, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _timed(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def crf_probe(seed: int, reps: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    dim = 300
    cand_vecs = [_unit(rng, PROBE_S, dim) for _ in range(PROBE_N)]
    instance = CrfInstance(
        unaries=[rng.normal(size=PROBE_S) for _ in range(PROBE_N)],
        cand_vecs=cand_vecs,
        entities=[list(range(i * PROBE_S, (i + 1) * PROBE_S)) for i in range(PROBE_N)],
        log_priors=[np.full(PROBE_S, floored_log_prior(1.0 / PROBE_S))] * PROBE_N,
        c=np.full(dim, 0.1))
    deep = GlobalParams.init(dim, hidden=100, t=10)
    shallow = replace(deep, t=1)
    t_deep = _timed(lambda: instance_marginals(instance, deep), reps)
    t_one = _timed(lambda: instance_marginals(instance, shallow), reps)
    return {"crf.marginals_t1_ms": 1000.0 * t_one,
            "crf.lbp_layer_ms": 1000.0 * (t_deep - t_one) / (deep.t - 1)}


def tape_probe(seed: int) -> dict[str, float]:
    cfg = ExperimentConfig()
    rng = np.random.default_rng(seed)
    instances = [
        MentionInstance(cand_vecs=_unit(rng, PROBE_S, cfg.dim),
                        ctx_vecs=rng.normal(size=(cfg.k, cfg.dim)) / np.sqrt(cfg.dim),
                        log_priors=np.log(np.sort(rng.dirichlet(np.ones(PROBE_S)))[::-1]),
                        gold_index=int(rng.integers(PROBE_S)))
        for _ in range(PROBE_N)]
    local = LocalParams.init(cfg.dim, hidden=cfg.hidden, k=cfg.k, r=cfg.local_r)
    joint = GlobalParams.init(cfg.dim, hidden=cfg.hidden, k=cfg.k, r=cfg.global_r,
                              delta=cfg.delta, t=cfg.t)
    losses = {
        "local": (local.param_dict(), lambda tape, v: local_doc_loss_tape(
            tape, v, local.fnet, instances, cfg.gamma, cfg.local_r)),
        "global": (joint.param_dict(), lambda tape, v: global_doc_loss_tape(
            tape, v, joint.local.fnet, instances, cfg.gamma, cfg.global_r,
            cfg.delta, cfg.t)),
    }
    out: dict[str, float] = {}
    for kind, (params, build) in losses.items():
        tape = ad.Tape()
        build(tape, make_param_vars(tape, params))
        out[f"autodiff.records_{kind}_doc"] = float(len(tape))
    return out


def run_probes(seed: int, smoke: bool) -> dict[str, float]:
    out = crf_probe(seed, 3 if smoke else 15)
    out.update(tape_probe(seed))
    return out
