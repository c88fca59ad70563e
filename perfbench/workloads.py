"""The benchmark's two workloads.

Each is a closed loop with one caller: the next document (or run) starts
only when the previous one has returned.  A workload is set up once per
measured set-up, then runs whole passes of its batch job:

* `pipeline-default`: `run_experiment` on the default config, then the
  models it wrote annotate its test split document by document;
* `infer-paper`: the joint and the local model annotate paper-scale
  documents document by document.

Every pass counts operations (a run, a document predicted) and checks the
outputs; a check that fails marks its operations
failed.  Calls into entlink go through module attributes so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from entlink import attention, crf, experiment, model_io, vectors
from entlink.experiment import ExperimentConfig, synthetic_spec_from
from entlink.synthetic import generate_synthetic

import paperdata

# documents this long set the tail of the joint model's latency
LONG_DOC = 40


@dataclass
class Annotation:
    """Per-document timings and predictions of one annotation pass."""

    global_ms: list[float] = field(default_factory=list)
    local_ms: list[float] = field(default_factory=list)
    mentions: int = 0
    predictions: list[tuple[list, list]] = field(default_factory=list)


@contextmanager
def on_cpu(turn: int):
    """Pin the block to one of the CPUs this process may use, taking them in turn.

    On a shared machine each CPU has spells of seconds in which it runs
    about 1.7 times slower than at full speed, independently of the
    others, and an unpinned process stays on one CPU through them.
    Repetitions that take the CPUs in turn give each timed item samples
    from all of them, so its fastest one is seldom from a slow spell.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
    except OSError:
        pass
    try:
        yield
    finally:
        try:
            os.sched_setaffinity(0, allowed)
        except OSError:
            pass


def annotate(docs, joint, local, store) -> Annotation:
    """predict_global, then predict_local, for each document in turn."""
    out = Annotation()
    for doc in docs:
        start = time.perf_counter()
        joint_preds = crf.predict_global(doc, joint, store)
        mid = time.perf_counter()
        local_preds = attention.predict_local(doc, local, store)
        end = time.perf_counter()
        out.global_ms.append(1000.0 * (mid - start))
        out.local_ms.append(1000.0 * (end - mid))
        out.mentions += len(doc.mentions)
        out.predictions.append((joint_preds, local_preds))
    return out


def bad_predictions(docs, annotation: Annotation, reference: Annotation | None) -> list[int]:
    """Indices of documents with a prediction outside the mention's own
    candidate set, a missing prediction, or one that differs from `reference`."""
    bad = []
    for index, (doc, preds) in enumerate(zip(docs, annotation.predictions)):
        ok = reference is None or preds == reference.predictions[index]
        for mention, joint_pred, local_pred in zip(doc.mentions, *preds):
            allowed = {c.entity for c in mention.candidates or []}
            if allowed:
                ok &= joint_pred in allowed and local_pred in allowed
            else:
                ok &= joint_pred is None and local_pred is None
        if not ok:
            bad.append(index)
    return bad


def accuracy(docs, annotation: Annotation, which: int) -> float:
    hits = total = 0
    for doc, preds in zip(docs, annotation.predictions):
        for mention, pred in zip(doc.mentions, preds[which]):
            if mention.gold_id is not None:
                total += 1
                hits += pred == mention.gold_id
    return hits / total


class Workload:
    """Shared bookkeeping: operations, failures and annotation statistics."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pass_s: list[float] = []
        self.setup_s: list[float] = []
        self.annotations: list[Annotation] = []
        self.acc_global = math.nan
        self.acc_local = math.nan   # both from the first annotation pass

    def timed_set_up(self) -> None:
        with on_cpu(len(self.setup_s)):
            start = time.perf_counter()
            self.set_up()
            self.setup_s.append(time.perf_counter() - start)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)

    def record_annotation(self, docs, annotation: Annotation) -> None:
        reference = self.annotations[0] if self.annotations else None
        self.attempted += len(docs)
        bad = bad_predictions(docs, annotation, reference)
        if bad:
            self.fail(len(bad), f"{len(bad)} documents with a prediction outside their "
                                f"candidate set or differing from the first pass")
        if reference is None:
            self.acc_global = accuracy(docs, annotation, 0)
            self.acc_local = accuracy(docs, annotation, 1)
        self.annotations.append(annotation)

    def end_to_end(self) -> dict[str, float]:
        """Timings are the fastest of repetitions spread across the run and
        across the CPUs (see `on_cpu`): of the whole passes and of each
        document's annotations.  How much of the time a shared machine runs
        at full speed changes from minute to minute; a median follows that
        share, while the fastest of many repetitions lands in a full-speed
        spell in nearly every run.  Percentiles are then over documents.
        `setup_s` is the median of the set-ups."""
        global_ms = np.min([a.global_ms for a in self.annotations], axis=0)
        local_ms = np.min([a.local_ms for a in self.annotations], axis=0)
        mentions = self.annotations[0].mentions
        return {
            "setup_s": float(np.median(self.setup_s)),
            "pipeline_s": min(self.pass_s),
            "infer_ms_per_mention": float(global_ms.sum()) / mentions,
            "infer_doc_ms_p50": float(np.percentile(global_ms, 50)),
            "infer_doc_ms_p90": float(np.percentile(global_ms, 90)),
            "infer_local_ms_per_mention": float(local_ms.sum()) / mentions,
            "acc_global": self.acc_global,
            "acc_local": self.acc_local,
        }

    def details(self) -> dict:
        return {"passes": len(self.pass_s),
                "annotated_documents": sum(len(a.global_ms) for a in self.annotations)}


class PipelineDefault(Workload):
    name = "pipeline-default"
    # after the pipeline pass its test split is annotated over and over for
    # this many seconds (one annotation takes about 0.08 s), with a set-up
    # after every eighth: enough repetitions for each document's fastest one
    # to fall in a full-speed spell also when the machine is mostly slow
    annotation_s = 20.0
    setup_every = 8

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.cfg = ExperimentConfig(seed=seed, out_dir=str(workdir / "run"))
        if smoke:
            self.cfg = replace(self.cfg, kb_size=40, vocab_size=400, n_docs=20,
                               embed_iters=20, local_epochs=2, global_epochs=2,
                               eval_every=1)
            self.annotation_s = 0.0
        self.reported: dict = {}

    def set_up(self) -> None:
        generate_synthetic(synthetic_spec_from(self.cfg))

    def run_pass(self, tracer) -> None:
        # run_experiment returns only metrics; its test split (with candidate
        # sets) and store are taken from the call it makes to attention_dump
        captured = {}
        dump = experiment.attention_dump

        def capture(corpus, params, store):
            captured.update(corpus=corpus, store=store)
            return dump(corpus, params, store)

        experiment.attention_dump = capture
        try:
            with _root(tracer, "pipeline"):
                start = time.perf_counter()
                metrics = experiment.run_experiment(self.cfg)
                self.pass_s.append(time.perf_counter() - start)
        finally:
            experiment.attention_dump = dump
        self.attempted += 1
        self.check_run(metrics)

        out = Path(self.cfg.out_dir)
        docs = list(captured["corpus"])
        with _root(tracer, "annotate"):
            joint = model_io.load_model(str(out / "global.model"))
            local = model_io.load_model(str(out / "local.model"))
            started = time.perf_counter()
            while True:
                with on_cpu(len(self.annotations)):
                    result = annotate(docs, joint, local, captured["store"])
                self.record_annotation(docs, result)
                if tracer is not None or time.perf_counter() - started >= self.annotation_s:
                    break
                # so that `setup_s` samples more of the run than its first second
                if len(self.annotations) % self.setup_every == 0:
                    self.timed_set_up()
        if (self.acc_global, self.acc_local) != (metrics["global/test"]["accuracy"],
                                                 metrics["local/test"]["accuracy"]):
            self.fail(len(docs), "reloaded models disagree with the reported test accuracy")

    def check_run(self, metrics: dict) -> None:
        acc = {m: metrics[f"{m}/test"]["accuracy"] for m in ("prior", "local", "global")}
        recall = metrics["data/test"]["gold_recall"]
        if recall != 1.0:
            self.fail(1, f"gold recall {recall} != 1.0")
        elif not acc["prior"] < acc["local"] < acc["global"]:
            self.fail(1, f"test accuracy not ordered prior < local < global: {acc}")
        self.reported = {
            "acc_prior_test": acc["prior"], "acc_local_test": acc["local"],
            "acc_global_test": acc["global"], "gold_recall": recall,
            "embed_map": metrics["embeddings/relatedness"]["map"],
        }

    def details(self) -> dict:
        return {**super().details(), **self.reported}


class InferPaper(Workload):
    """Generate the paper-scale inputs once; set-up loads them, a pass
    annotates every document."""

    name = "infer-paper"
    n_docs = 100              # p90 over documents keeps 10 beyond it
    smoke_docs = 3

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        scale = paperdata.SMOKE_SCALE if smoke else paperdata.PaperScale()
        self.data = paperdata.generate(seed, workdir / "paper",
                                       self.smoke_docs if smoke else self.n_docs, scale)
        self.docs = self.data.docs
        self.store = None
        self.model = None

    def set_up(self) -> None:
        store = vectors.load_word_vectors(self.data.words_path, fmt="binary")
        vectors.load_entity_vectors(self.data.entities_path, store, fmt="binary")
        self.model = model_io.load_model(self.data.model_path)
        if (store.entity_vocab.tokens() != self.data.entity_names
                or store.word_vocab.tokens() != self.data.word_names):
            raise RuntimeError("loaded vocabularies do not match the generated ids")
        self.store = store

    def run_pass(self, tracer) -> None:
        with _root(tracer, "pipeline"), on_cpu(len(self.pass_s)):
            start = time.perf_counter()
            result = annotate(self.docs, self.model, self.model.local, self.store)
            self.pass_s.append(time.perf_counter() - start)
        self.record_annotation(self.docs, result)

    def details(self) -> dict:
        lengths = [len(doc.mentions) for doc in self.docs]
        return {**super().details(),
                "documents": len(self.docs), "mentions": sum(lengths),
                "long_doc_share": sum(n >= LONG_DOC for n in lengths) / len(lengths),
                "doc_length_histogram": paperdata.length_histogram(self.docs)}


def _root(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


WORKLOADS = {w.name: w for w in (PipelineDefault, InferPaper)}
