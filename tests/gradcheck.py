"""The finite-difference gradient checker and the loss closures it reads.

`grad_check` compares a loss's tape adjoints against central differences,
parameter by parameter; criterion 1 and the per-module gradient tests run
it over `local_loss_closure` and `global_loss_closure`, the training losses
of a list of `MentionInstance`s as functions of a parameter dict.
`random_fnet` draws a combination network with Gaussian weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from entlink import autodiff as ad
from entlink.attention import FNet, MentionInstance, local_doc_loss_tape, make_param_vars
from entlink.crf import global_doc_loss_tape
from entlink.errors import ValidationError


def random_fnet(hidden: int = 100, scale: float = 0.1,
                rng: np.random.Generator | None = None) -> FNet:
    rng = rng if rng is not None else np.random.default_rng(0)
    return FNet(
        w1=scale * rng.normal(size=(hidden, 2)), b1=np.zeros(hidden),
        w2=scale * rng.normal(size=(hidden, hidden)), b2=np.zeros(hidden),
        w3=scale * rng.normal(size=(1, hidden)), b3=np.zeros(1),
    )


@dataclass
class GradCheckReport:
    """Per-parameter comparison of tape adjoints against central differences."""

    max_rel_err: dict[str, float] = field(default_factory=dict)
    worst_coord: dict[str, tuple[int, ...]] = field(default_factory=dict)
    skipped: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)
    checked: int = 0

    def overall_max(self) -> float:
        return max(self.max_rel_err.values(), default=0.0)

    def ok(self, tolerance: float) -> bool:
        return self.overall_max() < tolerance


def grad_check(
    f: Callable[..., tuple[float, dict[str, np.ndarray] | None]],
    params: dict[str, np.ndarray],
    epsilon: float = 1e-6,
    coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar loss against central differences.

    ``f(params, need_grad)`` must rebuild its tape from the given parameter
    arrays and return ``(value, grads)``, where `grads` holds one array per
    parameter when `need_grad` is true and may be None otherwise.

    Coordinates sitting on a kink (hinge boundary, relu corner, max tie
    within epsilon) are reported and skipped: a subgradient cannot match a
    finite difference there.  Kinks are told apart from curvature by how
    the one-sided slope mismatch scales with epsilon: a derivative jump
    keeps |d+ - d-| constant as epsilon shrinks, smooth curvature shrinks
    it proportionally.  Relative error is |a - n| / max(|a|, |n|, 1e-8).
    """
    if epsilon <= 0.0:
        raise ValidationError("epsilon must be positive")
    value0, grads = f(params, True)
    if grads is None:
        raise ValidationError("grad_check requires analytic gradients from f")
    if not np.isfinite(value0):
        raise ValidationError("non-finite loss at the probe point")
    rng = rng if rng is not None else np.random.default_rng(0)
    report = GradCheckReport()

    def probe(flat, c, eps):
        orig = flat[c]
        flat[c] = orig + eps
        up, _ = f(params, False)
        flat[c] = orig - eps
        down, _ = f(params, False)
        flat[c] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValidationError("non-finite loss at a finite-difference probe")
        d_plus = (up - value0) / eps
        d_minus = (value0 - down) / eps
        return d_plus, d_minus, (up - down) / (2.0 * eps)

    for name, base in params.items():
        grad = grads[name]
        flat = base.reshape(-1)
        n_coords = flat.shape[0]
        if coords_per_param is not None and coords_per_param < n_coords:
            coords = np.sort(rng.choice(n_coords, size=coords_per_param, replace=False))
        else:
            coords = np.arange(n_coords)
        worst = 0.0
        worst_coord: tuple[int, ...] = ()
        for c in coords:
            d_plus, d_minus, numeric = probe(flat, c, epsilon)
            coord = tuple(np.unravel_index(c, base.shape))
            gap = abs(d_plus - d_minus)
            if gap > 1e-7 * max(1.0, abs(d_plus), abs(d_minus)):
                d_plus2, d_minus2, numeric2 = probe(flat, c, epsilon / 4.0)
                if abs(d_plus2 - d_minus2) > gap / 2.0:
                    # mismatch survives the smaller step: derivative jump
                    report.skipped.append((name, coord))
                    continue
                numeric = numeric2  # curvature: the tighter step is cleaner
            analytic = grad.reshape(-1)[c]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            if max(abs(analytic), abs(numeric)) < 1e-7:
                rel = 0.0  # both below finite-difference resolution
            report.checked += 1
            if rel > worst:
                worst = rel
                worst_coord = coord
        report.max_rel_err[name] = worst
        report.worst_coord[name] = worst_coord
    return report


def loss_closure(build):
    """(params, need_grad) -> (loss, grads) of the loss `build(tape, vars_)`
    records, for the gradient checker."""

    def f(params: dict[str, np.ndarray], need_grad: bool):
        tape = ad.Tape()
        vars_ = make_param_vars(tape, params)
        loss = build(tape, vars_)
        if not need_grad:
            return float(loss.value), None
        tape.backward(loss)
        grads = {name: (v.grad if v.grad is not None else np.zeros_like(v.value))
                 for name, v in vars_.items()}
        return float(loss.value), grads

    return f


def local_loss_closure(instances: list[MentionInstance], gamma: float, r: int):
    return loss_closure(lambda tape, vars_: local_doc_loss_tape(
        tape, vars_, None, instances, gamma, r))


def global_loss_closure(instances: list[MentionInstance], gamma: float, r: int,
                        delta: float, t: int):
    return loss_closure(lambda tape, vars_: global_doc_loss_tape(
        tape, vars_, None, instances, gamma, r, delta, t))
