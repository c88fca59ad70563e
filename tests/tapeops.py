"""Test ops recorded with `autodiff.record`: a linear readout, and the glue
between per-mention vectors and the (n, S) blocks the model records use."""

import numpy as np

from entlink import autodiff as ad
from entlink.crf import beliefs_tape


def weighted_sum(tape, xs, weights) -> ad.Var:
    """sum_i weights[i] . xs[i] as one record: a scalar root for backward."""
    xs = list(xs)
    value = sum(np.dot(x.value, w) for x, w in zip(xs, weights))

    def backward(g):
        for x, w in zip(xs, weights):
            if x.needs_grad:
                x._accum(g * np.asarray(w))

    return ad.record(tape, [np.asarray(value, dtype=np.float64)], tuple(xs), backward)[0]


def stack_rows(tape, rows):
    """Per-mention vectors as one zero-padded (n, S) block."""
    width = max(row.value.shape[0] for row in rows)
    block = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        block[i, :row.value.shape[0]] = row.value

    def backward(g):
        for i, row in enumerate(rows):
            if row.needs_grad:
                row._accum(g[i, :row.value.shape[0]])

    return ad.record(tape, [block], tuple(rows), backward)[0]


def split_rows(tape, block, sizes):
    """The rows of an (n, S) block, each cut to its mention's size."""

    def backward(*grads):
        g = np.zeros(block.value.shape)
        for i, (s, gi) in enumerate(zip(sizes, grads)):
            if gi is not None:
                g[i, :s] = gi
        block._accum(g)

    return ad.record(tape, [row[:s] for row, s in zip(block.value, sizes)],
                     (block,), backward)

def lbp_beliefs(t, psi, instances, c, delta, layers):
    """`beliefs_tape` over per-mention unaries, returning per-mention beliefs."""
    mu = beliefs_tape(t, stack_rows(t, psi), instances, c, delta, layers)
    return split_rows(t, mu, [inst.cand_vecs.shape[0] for inst in instances])
