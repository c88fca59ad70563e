"""Reverse-mode automatic differentiation over small dense arrays.

Define-by-run: every operation appends one record to a Tape as it computes
its primal, and `Tape.backward` replays the records in exact reverse order,
summing adjoints into each operand.  A fresh tape is built per training
example, with no graph caching, but the parameter Vars outlive it:
training keeps its parameters in one `ParamVector`, whose Vars live for
the whole run, and each step only clears their adjoints.

The tape has a single primitive, `record`: a numpy forward registered with
a hand-derived backward.  The models use three such records, each once per
document over its padded mention block: the attention scorer
(`attention.record_unaries`), the unrolled message passing
(`crf.beliefs_tape`) and the combination network with the ranking loss
(`attention.record_rank_loss`).  Every recorded primal and every adjoint
reaching a record is checked to be finite, and the parameter vector once
per optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError


class Tape:
    """Append-only record of operations, replayed backwards."""

    def __init__(self):
        self._records: list[tuple[tuple[Var, ...], Callable[..., None]]] = []

    def var(self, value, needs_grad: bool = True) -> "Var":
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValidationError("non-finite primal value")
        return Var(arr, needs_grad)

    def const(self, value) -> "Var":
        return self.var(value, needs_grad=False)

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, root: "Var") -> None:
        """Accumulate d(root)/d(node) into every node's .grad."""
        if root.value.shape != ():
            raise ValidationError("backward root must be a scalar")
        root.grad = np.ones((), dtype=np.float64)
        for outs, fn in reversed(self._records):
            grads = [out.grad for out in outs]
            live = [g for g in grads if g is not None]
            if not live:
                continue
            if not all(np.isfinite(g).all() for g in live):
                raise ValidationError("non-finite adjoint during backward pass")
            fn(*grads)


class Var:
    """A value on a tape: primal array plus (after backward) its adjoint.

    A Var keeps no reference to its tape, so a tape and its values form no
    reference cycle and are freed as soon as the caller drops them.
    """

    __slots__ = ("value", "grad", "needs_grad")

    def __init__(self, value: np.ndarray, needs_grad: bool):
        self.value = value
        self.grad: np.ndarray | None = None
        self.needs_grad = needs_grad

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g


class ParamVector:
    """Named parameter arrays as views into one float64 vector `flat`.

    Each view is wrapped in one Var (`vars`) for a whole training run; a
    step's tape reads them, and `gradient` collects and clears their
    adjoints.  Only the optimizer writes `flat`, so `check` tests it for
    finiteness once per step rather than per tape.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
        self._shapes = {name: np.shape(a) for name, a in arrays.items()}
        self.vars = {name: Var(view, True) for name, view in self.views(self.flat).items()}
        self.check()

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The named parameter arrays as views into `flat`, laid out like `self.flat`."""
        out, start = {}, 0
        for name, shape in self._shapes.items():
            size = int(np.prod(shape))
            out[name] = flat[start:start + size].reshape(shape)
            start += size
        return out

    def check(self) -> None:
        if not np.isfinite(self.flat).all():
            raise ValidationError("non-finite parameter value")

    def gradient(self) -> tuple[np.ndarray, np.ndarray | bool]:
        """The flat adjoint of the last backward pass, 0 for a parameter that
        got none, and the mask of the entries whose parameter got one (True
        when every parameter did).  Clears the adjoints for the next step."""
        grads, sizes = [], []
        for var in self.vars.values():
            grads.append(var.grad)
            sizes.append(var.value.size)
            var.grad = None
        flat = np.concatenate([np.zeros(n) if g is None else g.reshape(-1)
                               for g, n in zip(grads, sizes)])
        got = [g is not None for g in grads]
        return flat, all(got) or np.repeat(got, sizes)


def record(tape: Tape, values: list[np.ndarray], inputs: tuple[Var, ...],
           backward: Callable[..., None]) -> list[Var]:
    """One tape record with one output Var per value.

    `backward` receives one adjoint per output, None for an output that
    no later record used, and accumulates into the inputs itself.
    """
    for value in values:
        if not np.isfinite(value).all():
            raise ValidationError("non-finite primal value")
    needs_grad = any(v.needs_grad for v in inputs)
    outs = tuple(Var(value, needs_grad) for value in values)
    if needs_grad:
        tape._records.append((outs, backward))
    return list(outs)


# -- finite-difference checking ----------------------------------------


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
