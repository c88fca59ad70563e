"""End-to-end experiment orchestration and reporting.

A single flat key = value config file drives the pipeline: generate (or
load) a corpus, train entity vectors, build the prior, select candidates,
train the local and global models, evaluate everything and write the
report artifacts.  With a fixed seed, reruns are byte-identical: every
random draw comes from a seeded stream, one per entity for the entity
vectors.  A config is checked when built (`stage_objects`); every model
reads documents through `attention.doc_instances`, once per split.  The
CLI's commands build their objects through the same stages
(`stage_objects`, `select_all_candidates`, `fit`).

Artifacts: ``metrics.tsv`` (machine readable), ``report.txt`` (rendered
tables), ``attention.tsv`` (per-mention attended words, weight-sorted),
``breakdown.tsv`` (accuracy by gold frequency and gold prior),
``history.tsv`` (per model and epoch: mean training loss, validation
accuracy, learning-rate drop), plus the two trained model files.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .attention import LocalParams, local_decisions, predict_local
from .crf import GlobalParams, predict_global
from .docs import Corpus, build_context_windows, load_corpus, resolve_gold
from .embed_train import (
    EmbedTrainConfig,
    eval_relatedness,
    load_counts_file,
    load_relatedness_queries,
    train_all_entities,
)
from .errors import ValidationError
from .metrics import breakdown_report, evaluate
from .model_io import save_model
from .priors import (candidate_settings, coref_person_merge, gold_recall, load_prior,
                     select_candidates)
from .synthetic import DATA_FILES, SyntheticSpec, generate_synthetic
from .training import (
    TrainConfig,
    TrainHistory,
    accuracy,
    collect_predictions,
    predict_prior_baseline,
    train_global,
    train_local,
)
from .vectors import load_word_vectors
from .vocab import open_text, write_rows


@dataclass
class ExperimentConfig:
    """Every pipeline knob.  The CLI's stage commands build one from their
    flags, which keep their own defaults: a flag sets the field of its name,
    `--docs` sets `n_docs`, and `--r`/`--lr`/`--epochs` set `local_*` or
    `global_*` by command."""

    seed: int = 0
    out_dir: str = "run"
    # data: synthetic by default, or an existing directory of corpus files
    data_dir: str = ""
    kb_size: int = 200
    words_per_entity: int = 8
    vocab_size: int = 1400
    n_docs: int = 160
    mentions_per_doc: int = 6
    ambiguity: int = 4
    coherence: float = 0.9
    noise_rate: float = 0.5
    n_topics: int = 4
    dim: int = 16
    ctx_per_side: int = 8
    weak_context_rate: float = 0.25
    # entity vectors
    embed_iters: int = 400
    embed_lr: float = 0.3
    embed_gamma: float = 0.1
    alpha: float = 0.6
    # candidate selection
    s: int = 7
    prior_top: int = 4
    context_top: int = 3
    # context window and attention budgets
    k: int = 40
    local_r: int = 10
    global_r: int = 10
    hidden: int = 100
    # model training
    gamma: float = 0.01
    local_lr: float = 0.05
    local_epochs: int = 40
    global_lr: float = 5e-3
    global_epochs: int = 30
    eval_every: int = 5
    patience: int = 30
    t: int = 10
    delta: float = 0.5

    def __post_init__(self):
        stage_objects(self, self.dim)

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        casts = {f.name: type(f.default) for f in fields(cls)}
        parsed = {}
        for key, raw in values.items():
            name = key.replace("-", "_")
            if name not in casts:
                raise ValidationError(f"unknown config key {key!r}")
            try:
                parsed[name] = casts[name](raw)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad value for {key!r}: {raw!r}") from exc
        return cls(**parsed)


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; blank lines and '#' comments ignored."""
    values: dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = text.split("=", 1)
            values[key.strip()] = value.strip()
    return values


@dataclass
class PreparedData:
    store: object
    prior: object
    corpora: dict[str, Corpus]
    queries: list
    signatures: dict[int, set[int]] | None
    entity_freq: dict[int, int]
    counts: object = None
    relatedness: object | None = None


class StageFailure(ValidationError):
    pass


@contextmanager
def _stage(name: str):
    """A failure inside becomes a StageFailure naming the stage (also a decorator)."""
    try:
        yield
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure(f"stage {name} failed: {exc}") from exc


def synthetic_spec_from(cfg: ExperimentConfig) -> SyntheticSpec:
    """The spec of the config fields that share a `SyntheticSpec` field's name."""
    return SyntheticSpec(**{f.name: getattr(cfg, f.name) for f in fields(SyntheticSpec)
                            if hasattr(cfg, f.name)})


def stage_objects(cfg: ExperimentConfig, dim: int) -> dict:
    """What each stage builds from `cfg`, for vectors of dimension `dim`.

    The constructors hold the range checks, so building these checks `cfg`.
    """
    train = dict(gamma=cfg.gamma, eval_every=cfg.eval_every, patience=cfg.patience,
                 seed=cfg.seed)
    return {
        "generate": synthetic_spec_from(cfg),
        "embeddings": EmbedTrainConfig(
            gamma=cfg.embed_gamma, learning_rate=cfg.embed_lr,
            description_iters=cfg.embed_iters, hyperlink_iters=0, seed=cfg.seed),
        "candidates": candidate_settings(cfg.s, cfg.prior_top, cfg.context_top),
        "train-local": (LocalParams.init(dim, hidden=cfg.hidden, k=cfg.k, r=cfg.local_r),
                        TrainConfig(learning_rate=cfg.local_lr, epochs=cfg.local_epochs,
                                    **train)),
        "train-global": (GlobalParams.init(dim, hidden=cfg.hidden, k=cfg.k,
                                           r=cfg.global_r, delta=cfg.delta, t=cfg.t),
                         TrainConfig(learning_rate=cfg.global_lr,
                                     epochs=cfg.global_epochs, **train)),
    }


def _check_disjoint_splits(corpora: dict[str, Corpus]) -> None:
    seen: dict[str, str] = {}
    for split, corpus in corpora.items():
        for doc in corpus:
            if doc.doc_id in seen:
                raise ValidationError(
                    f"doc id {doc.doc_id!r} appears in both "
                    f"{seen[doc.doc_id]!r} and {split!r} splits")
            seen[doc.doc_id] = split


@_stage("generate")
def _load_or_generate(cfg: ExperimentConfig) -> PreparedData:
    if cfg.data_dir:
        path = {key: str(Path(cfg.data_dir) / name) for key, name in DATA_FILES.items()}
        store = load_word_vectors(path["word_vectors"])
        counts = load_counts_file(path["counts"], store.word_vocab,
                                  store.entity_vocab, alpha=cfg.alpha)
        prior = load_prior(path["prior"], store.entity_vocab)
        store.sync_entities()
        corpora = {split: load_corpus(path[split], split=split)
                   for split in ("train", "validation", "test")}
        _check_disjoint_splits(corpora)
        queries = load_relatedness_queries(path["queries"], store.entity_vocab)
        return PreparedData(store=store, prior=prior, corpora=corpora,
                            queries=queries, signatures=None,
                            entity_freq={}, counts=counts)
    data = generate_synthetic(stage_objects(cfg, cfg.dim)["generate"])
    return PreparedData(store=data.store, prior=data.prior,
                        corpora=data.corpora, queries=data.queries,
                        signatures=data.signatures,
                        entity_freq=dict(data.entity_freq), counts=data.counts)


@_stage("embeddings")
def _train_embeddings(cfg: ExperimentConfig, prepared: PreparedData):
    train_all_entities(prepared.counts, stage_objects(cfg, cfg.dim)["embeddings"],
                       prepared.store)
    prepared.relatedness = eval_relatedness(prepared.queries, prepared.store)


def select_all_candidates(cfg: ExperimentConfig, corpora, store, prior,
                          is_person=None) -> None:
    """The candidate stage, in place: gold ids, `cfg.k`-word context windows,
    candidate sets, then the person coreference merge if `is_person` is given."""
    settings = stage_objects(cfg, store.dim)["candidates"]
    for corpus in corpora:
        resolve_gold(corpus, store.entity_vocab)
        build_context_windows(corpus, store.word_vocab, k=cfg.k)
        for doc in corpus:
            for mention in doc.mentions:
                mention.candidates = select_candidates(
                    mention.surface, mention.context or [], prior, store, **settings)
            if is_person is not None:
                coref_person_merge(doc, is_person, s=cfg.s)


def prepare(cfg: ExperimentConfig) -> PreparedData:
    """The generate (or load), embeddings and candidates stages of every run."""
    prepared = _load_or_generate(cfg)
    _train_embeddings(cfg, prepared)
    with _stage("candidates"):
        select_all_candidates(cfg, prepared.corpora.values(), prepared.store,
                              prepared.prior)
    return prepared


def fit(cfg: ExperimentConfig, stage: str, store, corpora: dict[str, Corpus]):
    """The model of `stage` ("train-local" or "train-global") built from `cfg`
    and trained on `corpora["train"]` and `["validation"]`, and its history."""
    params, tcfg = stage_objects(cfg, store.dim)[stage]
    trainer = train_local if stage == "train-local" else train_global
    return params, trainer(params, corpora["train"], corpora["validation"], store, tcfg)


@_stage("evaluate")
def _evaluate_models(cfg: ExperimentConfig, prepared: PreparedData,
                     local: LocalParams, global_: GlobalParams) -> tuple[dict, tuple]:
    """Every model's metrics on both held-out splits, and the global test predictions."""
    store = prepared.store
    out: dict[str, dict[str, float]] = {}
    predictors = {
        "prior": predict_prior_baseline,
        "local": lambda d: predict_local(d, local, store),
        "global": lambda d: predict_global(d, global_, store),
    }
    for split in ("validation", "test"):
        corpus = prepared.corpora[split]
        for model, predictor in predictors.items():
            predictions = collect_predictions(corpus, predictor)
            if (model, split) == ("global", "test"):
                test_global = predictions
            res = evaluate(*predictions)
            out[f"{model}/{split}"] = {
                "accuracy": res.in_kb_accuracy,
                "precision": res.precision,
                "recall": res.recall,
                "f1": res.f1,
            }
    out["data/test"] = {"gold_recall": gold_recall(prepared.corpora["test"]) / 100.0}
    if prepared.relatedness is not None:
        rel = prepared.relatedness
        out["embeddings/relatedness"] = {
            "ndcg1": rel.ndcg1, "ndcg5": rel.ndcg5, "ndcg10": rel.ndcg10,
            "map": rel.map, "validation_score": rel.validation_score,
        }
    return out, test_global


def attention_dump(corpus: Corpus, params: LocalParams, store) -> list[dict]:
    """Per-mention attended words (weight-summed per distinct token, sorted).

    Rows also carry the local model's prediction so downstream analysis can
    look at correctly solved low-prior cases.
    """
    rows = []
    for doc in corpus:
        for inst, pred, beta in local_decisions(doc, params, store):
            if beta.shape[0] == 0:  # an empty context attends to nothing
                continue
            mention = doc.mentions[inst.position]
            weights: dict[str, float] = {}
            for w, b in zip(mention.context, beta):
                if b > 0.0:
                    token = store.word_vocab.token(w)
                    weights[token] = weights.get(token, 0.0) + float(b)
            ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
            gold_prior = (mention.candidates[inst.gold_index].prior
                          if inst.gold_index is not None else 0.0)
            rows.append({
                "doc": doc.doc_id, "mention": inst.position, "surface": mention.surface,
                "gold": mention.gold, "gold_prior": gold_prior,
                "predicted": store.entity_vocab.token(pred),
                "correct": int(pred == mention.gold_id),
                "words": ranked,
            })
    return rows


def f_monotonicity_probe(params: LocalParams, n_grid: int = 25) -> float:
    """Fraction of grid points where f does not decrease in the context score.

    Recorded in the report only: the combination network's shape is
    learned, not constrained, so violations are informative rather than
    fatal.
    """
    xs = np.linspace(-2.0, 2.0, n_grid)
    ys = np.linspace(np.log(1e-4), 0.0, n_grid)
    ok = 0
    total = 0
    for y in ys:
        vals = params.fnet.forward(np.column_stack([xs, np.full(n_grid, y)]))
        diffs = np.diff(vals)
        ok += int((diffs >= -1e-9).sum())
        total += diffs.shape[0]
    return ok / total if total else 1.0


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_metrics_tsv(path: str, metrics: dict) -> None:
    write_rows(path, ["section", "metric", "value"],
               ((section, metric, _fmt(metrics[section][metric]))
                for section in sorted(metrics) for metric in sorted(metrics[section])))


def write_history_tsv(path: str, histories: dict[str, TrainHistory]) -> None:
    """One row per model and epoch: mean training loss, validation accuracy
    at the last check and whether the learning rate has dropped (0/1)."""
    write_rows(path, ["model", "epoch", "mean_loss", "val_accuracy", "lr_dropped"],
               ((model, epoch, _fmt(loss), _fmt(val),
                 int(history.lr_dropped_epoch is not None
                     and epoch >= history.lr_dropped_epoch))
                for model, history in histories.items()
                for epoch, loss, val in history.rows))


def render_report(metrics: dict, extras: list[str]) -> str:
    lines = ["experiment report", "=" * 17, ""]
    width = max(len(s) for s in metrics) + 2
    for section in sorted(metrics):
        parts = [f"{m}={_fmt(v)}" for m, v in sorted(metrics[section].items())]
        lines.append(f"{section:<{width}} " + "  ".join(parts))
    lines.extend(["", *extras, ""])
    return "\n".join(lines)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Full pipeline; returns the metrics dict and writes all artifacts."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    prepared = prepare(cfg)
    with _stage("train-local"):
        local, local_history = fit(cfg, "train-local", prepared.store, prepared.corpora)
    with _stage("train-global"):
        global_, global_history = fit(cfg, "train-global", prepared.store, prepared.corpora)
    write_history_tsv(str(out / "history.tsv"),
                      {"local": local_history, "global": global_history})
    metrics, test_global = _evaluate_models(cfg, prepared, local, global_)

    rows = attention_dump(prepared.corpora["test"], local, prepared.store)
    write_rows(str(out / "attention.tsv"),
               ["doc", "mention", "surface", "gold", "gold_prior", "predicted",
                "correct", "words"],
               ((row["doc"], row["mention"], row["surface"], row["gold"],
                 _fmt(row["gold_prior"]), row["predicted"], row["correct"],
                 " ".join(f"{t}:{_fmt(w)}" for t, w in row["words"]))
                for row in rows))

    preds, golds = test_global
    gold_priors, gold_freqs, in_cands = [], [], []
    for doc in prepared.corpora["test"]:
        for mention in doc.mentions:
            prior = 0.0
            contained = False
            for c in mention.candidates or []:
                if c.entity == mention.gold_id:
                    prior = c.prior
                    contained = True
            gold_priors.append(prior)
            gold_freqs.append(prepared.entity_freq.get(mention.gold_id, 0))
            in_cands.append(contained)
    freq_buckets, prior_buckets = breakdown_report(preds, golds, gold_priors,
                                                   gold_freqs, in_cands)
    write_rows(str(out / "breakdown.tsv"), ["axis", "bucket", "count", "accuracy"],
               ((axis, bucket.label, bucket.count, _fmt(bucket.accuracy))
                for axis, buckets in (("frequency", freq_buckets), ("prior", prior_buckets))
                for bucket in buckets))

    probe = f_monotonicity_probe(local)
    metrics["fprobe/local"] = {"monotone_fraction": probe}
    write_metrics_tsv(str(out / "metrics.tsv"), metrics)
    extras = [
        f"attention rows: {len(rows)}",
        f"f monotonicity probe (recorded only): {_fmt(probe)}",
    ]
    (out / "report.txt").write_text(render_report(metrics, extras),
                                    encoding="utf-8")
    save_model(str(out / "local.model"), local,
               extra={"gamma": cfg.gamma, "seed": cfg.seed})
    save_model(str(out / "global.model"), global_,
               extra={"gamma": cfg.gamma, "seed": cfg.seed})
    metrics["_meta"] = {"seconds": time.time() - started}
    return metrics


SWEEPABLE = ("t", "delta", "local_r", "global_r", "k", "noise_rate", "coherence")
# read by `fit` alone: one `prepare` per seed serves every value
FIT_ONLY = ("t", "delta", "local_r", "global_r")


def run_sweep(cfg: ExperimentConfig, param: str, values: list[float],
              seeds: list[int]) -> list[dict]:
    """Retrain at every parameter value (and seed); returns accuracy rows.

    Truncated fitting means train and test always share the setting, so
    each point is a full train/evaluate cycle on the shared data seed.
    Data is prepared once per seed for a `FIT_ONLY` parameter, else once
    per point; training and prediction leave prepared data unchanged.
    """
    if param not in SWEEPABLE:
        raise ValidationError(f"cannot sweep {param!r}; one of {SWEEPABLE}")
    cast = type(getattr(cfg, param))
    bad = [v for v in values if cast is int and not float(v).is_integer()]
    if bad:
        raise ValidationError(f"{param} takes integers, got {bad[0]:g}")
    stage, predict = (("train-local", predict_local) if param == "local_r"
                      else ("train-global", predict_global))
    # every point's config is built, and so checked, before any training
    grid = [[replace(cfg, seed=seed, **{param: cast(value)})
             for seed in seeds] for value in values]
    shared: dict[int, PreparedData] = {}   # by seed, for a FIT_ONLY parameter
    rows = []
    for value, subs in zip(values, grid):
        accs = []
        for sub in subs:
            prepared = shared.get(sub.seed) or prepare(sub)
            if param in FIT_ONLY:
                shared[sub.seed] = prepared
            with _stage(stage):
                model, _ = fit(sub, stage, prepared.store, prepared.corpora)
            accs.append(accuracy(prepared.corpora["test"],
                                 lambda d: predict(d, model, prepared.store)))
        rows.append({"value": value, "accuracies": accs,
                     "mean": float(np.mean(accs))})
    return rows


def write_sweep_outputs(rows: list[dict], param: str, out_dir: str,
                        plot: bool = True) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(str(out / "sweep.tsv"), [param, "mean_accuracy", "per_seed"],
               ((f"{row['value']:g}", _fmt(row["mean"]),
                 ",".join(_fmt(a) for a in row["accuracies"]))
                for row in rows))
    if plot:
        svg = line_plot_svg([row["value"] for row in rows],
                            [row["mean"] for row in rows],
                            x_label=param, y_label="accuracy")
        (out / "sweep.svg").write_text(svg, encoding="utf-8")


def line_plot_svg(xs: list[float], ys: list[float], x_label: str,
                  y_label: str, width: int = 480, height: int = 320) -> str:
    """Minimal deterministic SVG line chart (no plotting dependency)."""
    if len(xs) != len(ys) or not xs:
        raise ValidationError("plot needs matching nonempty series")
    pad = 50
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / xr * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / yr * (height - 2 * pad)

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    marks = "".join(
        f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f6feb"/>'
        for x, y in zip(xs, ys))
    labels = "".join(
        f'<text x="{sx(x):.2f}" y="{height - pad + 18:.2f}" font-size="11" '
        f'text-anchor="middle">{x:g}</text>' for x in xs)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<polyline points="{points}" fill="none" stroke="#1f6feb" stroke-width="2"/>'
        f"{marks}{labels}"
        f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">{x_label}</text>'
        f'<text x="14" y="{height / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{y_label}</text>'
        f"</svg>\n"
    )
