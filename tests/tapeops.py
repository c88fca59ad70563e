"""A linear readout of tape values, recorded with `autodiff.record`."""

import numpy as np

from entlink import autodiff as ad


def weighted_sum(tape, xs, weights) -> ad.Var:
    """sum_i weights[i] . xs[i] as one record: a scalar root for backward."""
    xs = list(xs)
    value = sum(np.dot(x.value, w) for x, w in zip(xs, weights))

    def backward(g):
        for x, w in zip(xs, weights):
            if x.needs_grad:
                x._accum(g * np.asarray(w))

    return ad.record(tape, [np.asarray(value, dtype=np.float64)], tuple(xs), backward)[0]
