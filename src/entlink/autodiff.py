"""Reverse-mode automatic differentiation over scalars and small dense arrays.

Define-by-run: every operation appends one record to a Tape as it computes
its primal, and `Tape.backward` replays the records in exact reverse order,
summing adjoints into each operand.  A fresh tape is built per training
example; there is no graph caching.

The tape offers the elementwise and affine primitives the ranking loss and
the combination network use.  The two model-specific computations, the
attention scorer (`attention.record_unary`) and the unrolled message
passing (`crf.beliefs_tape`), are each one numpy forward registered through
`record` with a hand-derived backward.  Both route the adjoint of a max to
the first maximal index; relu's gradient at exactly 0 is 0.  Every primal
and every adjoint is checked to be finite.
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
        if not np.all(np.isfinite(arr)):
            raise ValidationError("non-finite primal value")
        return Var(arr, self, needs_grad)

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
            if not all(np.all(np.isfinite(g)) for g in live):
                raise ValidationError("non-finite adjoint during backward pass")
            fn(*grads)


class Var:
    """A value on a tape: primal array plus (after backward) its adjoint."""

    __slots__ = ("value", "grad", "tape", "needs_grad")

    def __init__(self, value: np.ndarray, tape: Tape, needs_grad: bool):
        self.value = value
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.needs_grad = needs_grad

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    @property
    def shape(self):
        return self.value.shape


def record(tape: Tape, values: list[np.ndarray], inputs: tuple[Var, ...],
           backward: Callable[..., None]) -> list[Var]:
    """One tape record with one output Var per value.

    `backward` receives one adjoint per output, None for an output that
    no later record used, and accumulates into the inputs itself.
    """
    for value in values:
        if not np.all(np.isfinite(value)):
            raise ValidationError("non-finite primal value")
    needs_grad = any(v.needs_grad for v in inputs)
    outs = tuple(Var(value, tape, needs_grad) for value in values)
    if needs_grad:
        tape._records.append((outs, backward))
    return list(outs)


def _out(tape: Tape, value: np.ndarray, inputs: tuple[Var, ...],
         backward: Callable[[np.ndarray], None]) -> Var:
    return record(tape, [value], inputs, backward)[0]


def _binary_grad(x: Var, g: np.ndarray) -> None:
    # Handles the scalar-vs-array broadcast used by the elementwise ops.
    if x.value.shape == g.shape:
        x._accum(g)
    elif x.value.shape == ():
        x._accum(np.sum(g))
    else:
        raise ValidationError(f"cannot reduce adjoint {g.shape} onto {x.value.shape}")


def _check_broadcast(a: Var, b: Var) -> None:
    if a.value.shape != b.value.shape and a.value.shape != () and b.value.shape != ():
        raise ValidationError(f"shape mismatch: {a.value.shape} vs {b.value.shape}")


def add(a: Var, b: Var) -> Var:
    _check_broadcast(a, b)

    def backward(g):
        _binary_grad(a, g)
        _binary_grad(b, g)

    return _out(a.tape, a.value + b.value, (a, b), backward)


def sub(a: Var, b: Var) -> Var:
    _check_broadcast(a, b)

    def backward(g):
        _binary_grad(a, g)
        _binary_grad(b, -g)

    return _out(a.tape, a.value - b.value, (a, b), backward)


def shift(a: Var, c: float) -> Var:
    def backward(g):
        a._accum(g)

    return _out(a.tape, a.value + c, (a,), backward)


def dot(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape or a.value.ndim != 1:
        raise ValidationError(f"dot expects equal vectors, got {a.value.shape} vs {b.value.shape}")

    def backward(g):
        a._accum(g * b.value)
        b._accum(g * a.value)

    return _out(a.tape, np.dot(a.value, b.value), (a, b), backward)


def relu(a: Var) -> Var:
    mask = a.value > 0.0  # gradient at exactly 0 is 0

    def backward(g):
        a._accum(g * mask)

    return _out(a.tape, np.where(mask, a.value, 0.0), (a,), backward)


def index(a: Var, i: int) -> Var:
    if a.value.ndim != 1 or not 0 <= i < a.value.shape[0]:
        raise ValidationError(f"index {i} invalid for shape {a.value.shape}")

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        a.grad[i] += g

    return _out(a.tape, a.value[i], (a,), backward)


def linear(x: Var, w: Var, b: Var) -> Var:
    """Affine layer on row-stacked inputs: x @ w.T + b."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]:
        raise ValidationError(f"linear shapes {x.value.shape}, {w.value.shape}")

    def backward(g):
        if x.needs_grad:
            x._accum(g @ w.value)
        if w.needs_grad:
            w._accum(g.T @ x.value)
        if b.needs_grad:
            b._accum(np.sum(g, axis=0))

    return _out(x.tape, x.value @ w.value.T + b.value, (x, w, b), backward)


def stack_cols(a: Var, b: Var) -> Var:
    """Two equal-length vectors as the columns of an (n, 2) matrix."""
    if a.value.shape != b.value.shape or a.value.ndim != 1:
        raise ValidationError("stack_cols expects two equal-length vectors")

    def backward(g):
        if a.needs_grad:
            a._accum(g[:, 0])
        if b.needs_grad:
            b._accum(g[:, 1])

    return _out(a.tape, np.column_stack([a.value, b.value]), (a, b), backward)


def flatten(m: Var) -> Var:
    shape = m.value.shape

    def backward(g):
        m._accum(g.reshape(shape))

    return _out(m.tape, m.value.reshape(-1), (m,), backward)


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
