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
