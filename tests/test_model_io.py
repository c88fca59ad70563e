"""Model file round trips."""

import json
import re
import struct

import numpy as np
import pytest

from entlink.attention import LocalParams
from entlink.crf import GlobalParams
from entlink.errors import ValidationError
from entlink.model_io import load_model, save_model


def test_local_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = LocalParams.init(12, hidden=16, k=60, r=20)
    params.a += 0.1 * rng.normal(size=12)
    params.fnet.w2 += 0.01 * rng.normal(size=(16, 16))
    path = str(tmp_path / "local.model")
    save_model(path, params, extra={"gamma": 0.01})
    loaded = load_model(path)
    assert isinstance(loaded, LocalParams)
    assert loaded.k == 60 and loaded.r == 20
    np.testing.assert_array_equal(loaded.a, params.a)
    np.testing.assert_array_equal(loaded.fnet.w2, params.fnet.w2)
    sidecar = json.loads((tmp_path / "local.model.json").read_text())
    assert sidecar["kind"] == "local"
    assert sidecar["gamma"] == 0.01


def test_global_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    params = GlobalParams.init(8, hidden=12, k=40, r=10, delta=0.7, t=6)
    params.c += 0.2 * rng.normal(size=8)
    path = str(tmp_path / "global.model")
    save_model(path, params)
    loaded = load_model(path)
    assert isinstance(loaded, GlobalParams)
    assert loaded.delta == pytest.approx(0.7)
    assert loaded.t == 6
    np.testing.assert_array_equal(loaded.c, params.c)
    np.testing.assert_array_equal(loaded.local.b, params.local.b)


def test_corrupt_file_rejected(tmp_path):
    path = tmp_path / "bad.model"
    good = tmp_path / "good.model"
    save_model(str(good), LocalParams.init(6, hidden=8))
    cases = [(b"NOTAMODEL", "not a model file"),
             (good.read_bytes() + b"\0", "trailing bytes")]
    for raw, message in cases:
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match=message):
            load_model(str(path))


def test_truncated_file_rejected(tmp_path):
    # cuts inside the fixed header, inside the joint model's damping and
    # layer-count fields, and inside the arrays
    path = str(tmp_path / "m.model")
    for params in (LocalParams.init(6, hidden=8), GlobalParams.init(6, hidden=8)):
        save_model(path, params)
        raw = open(path, "rb").read()
        for cut in (10, 20, 25, len(raw) // 2, len(raw) - 1):
            open(path, "wb").write(raw[:cut])
            with pytest.raises(ValidationError, match="truncated"):
                load_model(path)


def _patched(path, offset, fmt, value):
    raw = bytearray(open(path, "rb").read())
    struct.pack_into(fmt, raw, offset, value)
    open(path, "wb").write(bytes(raw))


def test_header_sizes_checked_before_reading(tmp_path):
    # dim sits at byte 7, hidden at 11, k at 15 and r at 19; a size the
    # file cannot hold is refused before any array is read, and zero sizes,
    # context windows and attention budgets are refused
    path = str(tmp_path / "m.model")
    for offset, value, message in ((11, 2 ** 31, "truncated"), (7, 2 ** 32 - 1, "truncated"),
                                   (7, 0, "at least 1"), (11, 0, "at least 1"),
                                   (15, 0, "k must be at least 1"),
                                   (19, 0, "r must be at least 1")):
        save_model(path, LocalParams.init(6, hidden=8))
        _patched(path, offset, "<I", value)
        with pytest.raises(ValidationError, match=message):
            load_model(path)


def test_joint_header_range_checked_with_path(tmp_path):
    # the joint model's damping sits at byte 23 and its layer count at 31;
    # out of range, either is refused with the file's path, before the
    # payload's size is checked: the file is cut after its header
    path = str(tmp_path / "m.model")
    for offset, fmt, value, message in (
            (23, "<d", np.nan, "damping must be in (0, 1], got nan"),
            (23, "<d", 0.0, "damping must be in (0, 1], got 0.0"),
            (23, "<d", 1.5, "damping must be in (0, 1], got 1.5"),
            (31, "<I", 0, "layer count must be >= 1, got 0")):
        save_model(path, GlobalParams.init(6, hidden=8))
        _patched(path, offset, fmt, value)
        open(path, "r+b").truncate(35)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            load_model(path)


def test_non_finite_parameter_rejected(tmp_path):
    # A starts after the 23-byte local header and the joint model's 35-byte
    # one; the last 8 bytes are b3
    path = str(tmp_path / "m.model")
    for params, offset in ((LocalParams.init(6, hidden=8), 23),
                           (GlobalParams.init(6, hidden=8), 35)):
        for where in (offset, -8):
            save_model(path, params)
            size = len(open(path, "rb").read())
            for bad in (np.nan, np.inf):
                _patched(path, where % size, "<d", bad)
                with pytest.raises(ValidationError, match="non-finite"):
                    load_model(path)


def test_payload_follows_parameter_order(tmp_path):
    # every array filled with its own value: after the header the file
    # holds A, B, [C], then f's w1 b1 w2 b2 w3 b3, each as float64
    dim, hidden = 6, 8
    sizes = {"A": dim, "B": dim, "C": dim, "f.w1": 2 * hidden, "f.b1": hidden,
             "f.w2": hidden * hidden, "f.b2": hidden, "f.w3": hidden, "f.b3": 1}
    path = str(tmp_path / "m.model")
    for params, header, order in (
            (LocalParams.init(dim, hidden=hidden), 23,
             ["A", "B", "f.w1", "f.b1", "f.w2", "f.b2", "f.w3", "f.b3"]),
            (GlobalParams.init(dim, hidden=hidden), 35,
             ["A", "B", "C", "f.w1", "f.b1", "f.w2", "f.b2", "f.w3", "f.b3"])):
        fills = {name: float(i + 1) for i, name in enumerate(order[::-1])}
        for name, arr in params.param_dict().items():
            arr[...] = fills[name]
        save_model(path, params)
        payload = np.frombuffer(open(path, "rb").read()[header:], dtype="<f8")
        expected = np.concatenate([np.full(sizes[name], fills[name]) for name in order])
        np.testing.assert_array_equal(payload, expected)
        loaded = load_model(path)
        for name, arr in loaded.param_dict().items():
            np.testing.assert_array_equal(arr, fills[name])
