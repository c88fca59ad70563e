"""Spans around the calls the benchmark makes into entlink's public functions.

The tracer swaps each traced function for a timing wrapper in every
`entlink` module namespace that holds it (and on the class, for methods),
so calls between modules are seen as well as the benchmark's own calls.
Spans stay in memory: name, start, end (seconds from the tracer's start),
the id of the span open when the call began (its parent) and a few counts
taken from the call's arguments or result.  Nothing inside `src/` changes.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from statistics import mean


def _doc_mentions(args, kwargs, result) -> dict:
    return {"mentions": len(args[0].mentions)}


def _tape_records(args, kwargs, result) -> dict:
    return {"records": len(args[0])}


def _trained_entities(args, kwargs, result) -> dict:
    return {"entities": args[2].n_entities - len(result)}


def _history(args, kwargs, result) -> dict:
    return {"epochs": result.epochs_run, "docs": len(args[1])}


def _candidates(args, kwargs, result) -> dict:
    return {"candidates": len(result)}


# (module, function, counts taken from the call); spans are named module.function
TRACED_FUNCTIONS = [
    ("synthetic", "generate_synthetic", None),
    ("embed_train", "train_all_entities", _trained_entities),
    ("embed_train", "eval_relatedness", None),
    ("docs", "resolve_gold", None),
    ("docs", "build_context_windows", None),
    ("priors", "select_candidates", _candidates),
    ("training", "train_local", _history),
    ("training", "train_global", _history),
    ("training", "accuracy", None),
    ("attention", "local_doc_loss_tape", _tape_records),
    ("crf", "global_doc_loss_tape", _tape_records),
    ("attention", "predict_local", _doc_mentions),
    ("crf", "predict_global", _doc_mentions),
    ("crf", "build_crf_instance", None),
    ("crf", "instance_marginals", None),
    ("metrics", "evaluate", None),
    ("metrics", "breakdown_report", None),
    ("experiment", "attention_dump", None),
    ("model_io", "save_model", None),
    ("model_io", "load_model", None),
    ("vectors", "load_word_vectors", None),
    ("vectors", "load_entity_vectors", None),
]
TRACED_METHODS = [
    ("autodiff", "Tape", "backward", _tape_records),
]


class Tracer:
    """Records spans while active; restores every patched name on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **counts):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record, counts)

    def _open(self, name: str) -> dict:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self._origin, "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict, counts: dict) -> None:
        record["end"] = time.perf_counter() - self._origin
        record.update(counts)
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record, {})
            if counter is not None:
                record.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "entlink" or key.startswith("entlink."))]
        for module_name, attr, counter in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"entlink.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, counter in TRACED_METHODS:
            cls = getattr(sys.modules[f"entlink.{module_name}"], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{module_name}.{attr}", original, counter))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds: a wrapped no-op against a bare one."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop, None)
    costs = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append(time.perf_counter() - start)
    return max(costs[1] - costs[0], 0.0) / calls


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children(spans: list[dict], parent_id: int) -> list[dict]:
    return [s for s in spans if s["parent"] == parent_id]


def descendants(spans: list[dict], root_id: int) -> list[dict]:
    """Every span below `root_id` (spans are stored in start order)."""
    inside = {root_id}
    out = []
    for s in spans:
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out


def stage_coverage(spans: list[dict], root: dict) -> float:
    """Share of the root span's time covered by its direct child spans."""
    return sum(duration(s) for s in children(spans, root["id"])) / duration(root)


def layer_metrics(spans: list[dict], roots: list[dict]) -> dict[str, float]:
    """Per-layer figures from the spans below `roots`, named module.quantity.

    Only layers that were called appear; the caller decides which names a
    workload must have.  Per-document and per-call figures are means.
    """
    below = [s for root in roots for s in descendants(spans, root["id"])]
    by_name: dict[str, list[dict]] = {}
    for s in below:
        by_name.setdefault(s["name"], []).append(s)
    parent_name = {s["id"]: s["name"] for s in spans}
    out: dict[str, float] = {}

    def total(name: str) -> float:
        return sum(duration(s) for s in by_name.get(name, []))

    def mean_ms(items: list[dict]) -> float:
        return 1000.0 * mean(duration(s) for s in items)

    for name, metric in [("embed_train.train_all_entities", "embed_train.train_all_entities_s"),
                         ("embed_train.eval_relatedness", "embed_train.eval_relatedness_s"),
                         ("priors.select_candidates", "priors.select_candidates_s"),
                         ("docs.build_context_windows", "docs.build_context_windows_s"),
                         ("training.train_local", "training.train_local_s"),
                         ("training.train_global", "training.train_global_s")]:
        if name in by_name:
            out[metric] = total(name)
    if "synthetic.generate_synthetic" in by_name:
        out["synthetic.generate_s"] = mean(duration(s) for s in by_name["synthetic.generate_synthetic"])
    if "embed_train.train_all_entities" in by_name:
        trained = sum(s["entities"] for s in by_name["embed_train.train_all_entities"])
        out["embed_train.ms_per_entity"] = 1000.0 * total("embed_train.train_all_entities") / trained
    if "priors.select_candidates" in by_name:
        out["priors.candidates_per_mention"] = mean(
            s["candidates"] for s in by_name["priors.select_candidates"])
    for kind in ("local", "global"):
        name = f"training.train_{kind}"
        if name in by_name:
            out[f"training.epochs_{kind}"] = sum(s["epochs"] for s in by_name[name])
            docs = sum(s["epochs"] * s["docs"] for s in by_name[name])
            out[f"training.{kind}_docs_per_s"] = docs / total(name)
    validation = [s for s in by_name.get("training.accuracy", [])
                  if parent_name[s["parent"]].startswith("training.train_")]
    if "training.train_local" in by_name or "training.train_global" in by_name:
        out["training.validate_s"] = sum(duration(s) for s in validation)

    backward = by_name.get("autodiff.backward", [])
    for fwd_name, prefix, owner in [("attention.local_doc_loss_tape", "attention.local_loss", "training.train_local"),
                                    ("crf.global_doc_loss_tape", "crf.global_loss", "training.train_global")]:
        fwd = [s for s in by_name.get(fwd_name, []) if parent_name[s["parent"]] == owner]
        bwd = [s for s in backward if parent_name[s["parent"]] == owner]
        if fwd:
            out[f"{prefix}_fwd_ms"] = mean_ms(fwd)
            kind = "local" if "local" in prefix else "global"
            out[f"autodiff.mean_records_{kind}_doc"] = mean(s["records"] for s in fwd)
        if bwd:
            out[f"{prefix}_bwd_ms"] = mean_ms(bwd)
    forward = by_name.get("attention.local_doc_loss_tape", []) + by_name.get("crf.global_doc_loss_tape", [])
    if forward:
        out["autodiff.us_per_record"] = (
            1e6 * sum(duration(s) for s in forward + backward)
            / sum(s["records"] for s in forward))

    for name in ("attention.predict_local", "crf.predict_global"):
        if name in by_name:
            mentions = sum(s["mentions"] for s in by_name[name])
            out[f"{name}_ms_per_mention"] = 1000.0 * total(name) / mentions
    for name, metric in [("crf.build_crf_instance", "crf.build_crf_instance_ms"),
                         ("crf.instance_marginals", "crf.instance_marginals_ms"),
                         ("model_io.save_model", "model_io.save_ms"),
                         ("model_io.load_model", "model_io.load_ms")]:
        if name in by_name:
            out[metric] = mean_ms(by_name[name])
    loads = by_name.get("vectors.load_word_vectors", []) + by_name.get("vectors.load_entity_vectors", [])
    if loads:
        out["vectors.load_s"] = sum(duration(s) for s in loads)
    return out
