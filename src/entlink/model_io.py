"""Model parameter files.

A versioned little-endian binary blob holds the dimension, the bilinear
diagonals, the combination-network weights and (for the joint model) the
coherence diagonal plus damping and layer count.  A JSON sidecar at
``<path>.json`` records the hyperparameters human-readably.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .attention import FNet, LocalParams
from .crf import GlobalParams
from .errors import ValidationError

_MAGIC = b"EDML"
_VERSION = 1
_KIND_LOCAL = 0
_KIND_GLOBAL = 1


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(arr.astype("<f8").tobytes())


def _read_exact(fh, size: int) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValidationError("truncated model file")
    return raw


def _read_array(fh, shape: tuple[int, ...]) -> np.ndarray:
    raw = _read_exact(fh, 8 * int(np.prod(shape)))
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def save_model(path: str, params: LocalParams | GlobalParams,
               extra: dict | None = None) -> None:
    is_global = isinstance(params, GlobalParams)
    local = params.local if is_global else params
    fnet = local.fnet
    hidden = fnet.hidden
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HB", _VERSION, _KIND_GLOBAL if is_global else _KIND_LOCAL))
        fh.write(struct.pack("<IIII", local.a.shape[0], hidden, local.k, local.r))
        if is_global:
            fh.write(struct.pack("<dI", params.delta, params.t))
        _write_array(fh, local.a)
        _write_array(fh, local.b)
        if is_global:
            _write_array(fh, params.c)
        for name in FNet.NAMES:
            _write_array(fh, getattr(fnet, name))
    sidecar = {
        "kind": "global" if is_global else "local",
        "dim": int(local.a.shape[0]),
        "hidden": int(hidden),
        "k": int(local.k),
        "r": int(local.r),
    }
    if is_global:
        sidecar["delta"] = float(params.delta)
        sidecar["t"] = int(params.t)
    if extra:
        sidecar.update(extra)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> LocalParams | GlobalParams:
    with open(path, "rb") as fh:
        head = fh.read(7)
        if len(head) != 7 or head[:4] != _MAGIC:
            raise ValidationError(f"{path}: not a model file")
        version, kind = struct.unpack("<HB", head[4:])
        if version != _VERSION:
            raise ValidationError(f"{path}: unsupported model version {version}")
        if kind not in (_KIND_LOCAL, _KIND_GLOBAL):
            raise ValidationError(f"{path}: unknown model kind {kind}")
        dim, hidden, k, r = struct.unpack("<IIII", _read_exact(fh, 16))
        delta, t = 0.5, 10
        if kind == _KIND_GLOBAL:
            delta, t = struct.unpack("<dI", _read_exact(fh, 12))
        if dim < 1 or hidden < 1:
            raise ValidationError(f"{path}: dim and hidden must be at least 1, "
                                  f"got {dim} and {hidden}")
        for name, value in (("k", k), ("r", r)):
            if value < 1:
                raise ValidationError(f"{path}: {name} must be at least 1, got {value}")
        # A, B (and C), then w1 b1 w2 b2 w3 b3, 8 bytes per value
        values = (3 if kind == _KIND_GLOBAL else 2) * dim + hidden * (hidden + 5) + 1
        want, size = fh.tell() + 8 * values, os.fstat(fh.fileno()).st_size
        if size < want:
            raise ValidationError(f"{path}: truncated model file: its header "
                                  f"implies {want} bytes, it has {size}")
        if size > want:
            raise ValidationError(f"{path}: trailing bytes after the model")
        a = _read_array(fh, (dim,))
        b = _read_array(fh, (dim,))
        c = _read_array(fh, (dim,)) if kind == _KIND_GLOBAL else None
        fnet = FNet(
            w1=_read_array(fh, (hidden, 2)),
            b1=_read_array(fh, (hidden,)),
            w2=_read_array(fh, (hidden, hidden)),
            b2=_read_array(fh, (hidden,)),
            w3=_read_array(fh, (1, hidden)),
            b3=_read_array(fh, (1,)),
        )
    arrays = [a, b, *fnet.param_dict().values()] + ([c] if c is not None else [])
    if not all(np.all(np.isfinite(arr)) for arr in arrays):
        raise ValidationError(f"{path}: non-finite parameter")
    local = LocalParams(a=a, b=b, fnet=fnet, k=k, r=r)
    if kind == _KIND_LOCAL:
        return local
    return GlobalParams(local=local, c=c, delta=delta, t=t)
