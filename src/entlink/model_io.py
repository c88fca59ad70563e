"""Model parameter files.

A versioned little-endian binary blob: a header with the model kind, the
dimension, f's hidden width, the context window K and the attention budget
R (for the joint model also the damping and layer count), then every
parameter array as float64 in `param_dict()` order.  A JSON sidecar at
``<path>.json`` records the hyperparameters human-readably.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .attention import LocalParams
from .crf import GlobalParams
from .errors import ValidationError

_MAGIC = b"EDML"
_VERSION = 1
_KIND_LOCAL = 0
_KIND_GLOBAL = 1


def _read_exact(fh, size: int) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValidationError("truncated model file")
    return raw


def save_model(path: str, params: LocalParams | GlobalParams,
               extra: dict | None = None) -> None:
    is_global = isinstance(params, GlobalParams)
    local = params.local if is_global else params
    hidden = local.fnet.hidden
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HB", _VERSION, _KIND_GLOBAL if is_global else _KIND_LOCAL))
        fh.write(struct.pack("<IIII", local.dim, hidden, local.k, local.r))
        if is_global:
            fh.write(struct.pack("<dI", params.delta, params.t))
        for arr in params.param_dict().values():
            fh.write(arr.astype("<f8").tobytes())
    sidecar = {
        "kind": "global" if is_global else "local",
        "dim": int(local.dim),
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
        joint = {}
        if kind == _KIND_GLOBAL:
            delta, t = struct.unpack("<dI", _read_exact(fh, 12))
            joint = {"delta": delta, "t": t}
        if dim < 1 or hidden < 1:
            raise ValidationError(f"{path}: dim and hidden must be at least 1, "
                                  f"got {dim} and {hidden}")
        for name, value in (("k", k), ("r", r)):
            if value < 1:
                raise ValidationError(f"{path}: {name} must be at least 1, got {value}")
        # the payload's size, checked before the model is allocated: the
        # diagonals (two, or three for the joint model) of dim values each,
        # and f's hidden * (hidden + 5) + 1
        values = (3 if kind == _KIND_GLOBAL else 2) * dim + hidden * (hidden + 5) + 1
        want, size = fh.tell() + 8 * values, os.fstat(fh.fileno()).st_size
        if size < want:
            raise ValidationError(f"{path}: truncated model file: its header "
                                  f"implies {want} bytes, it has {size}")
        if size > want:
            raise ValidationError(f"{path}: trailing bytes after the model")
        model = (GlobalParams if kind == _KIND_GLOBAL else LocalParams).init(
            dim, hidden=hidden, k=k, r=r, **joint)
        arrays = list(model.param_dict().values())
        for arr in arrays:
            arr[...] = np.frombuffer(_read_exact(fh, arr.nbytes), "<f8").reshape(arr.shape)
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise ValidationError(f"{path}: non-finite parameter")
    return model
