"""Command-line interface.

Subcommands cover the whole pipeline: synthetic data generation, entity
vector training and evaluation, prior construction, candidate selection,
model training, prediction, scoring, breakdowns, hyperparameter sweeps and
embedding inspection.  Exit codes: 0 success, 1 validation failure, 2 I/O
error.  ENTLINK_DATA_DIR provides the default data directory for commands
that read a generated benchmark.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .attention import predict_local
from .crf import GlobalParams, predict_global
from .docs import Corpus, load_corpus
from .embed_train import (
    EmbedTrainConfig,
    eval_relatedness,
    load_counts_file,
    load_relatedness_queries,
    train_all_entities,
)
from .errors import ValidationError
from .experiment import (
    ExperimentConfig,
    fit,
    parse_config_file,
    run_experiment,
    run_sweep,
    select_all_candidates,
    stage_objects,
    write_sweep_outputs,
)
from .metrics import breakdown_report, evaluate
from .model_io import load_model, save_model
from .priors import (
    PriorSource,
    build_prior,
    gold_recall,
    load_count_index,
    load_person_predicate,
    load_prior,
    load_uniform_index,
    save_prior,
)
from .synthetic import DATA_FILES, generate_synthetic, write_synthetic
from .vectors import (
    EmbeddingStore,
    check_text_tokens,
    load_entity_vectors,
    load_word_vectors,
    nearest_words,
    read_vectors,
    save_vectors_binary,
    save_vectors_text,
)
from .vocab import (
    Vocab,
    load_stop_words,
    load_word_frequencies,
    open_text,
    parse_field,
    read_counts,
    read_rows,
    write_rows,
)

DATA_ENV = "ENTLINK_DATA_DIR"


def _data_path(args, flag: str, key: str | None = None) -> str:
    """The path flag `flag` gives, else the data directory's `key` file
    (`DATA_FILES`; `key` defaults to `flag`)."""
    if getattr(args, flag):
        return getattr(args, flag)
    base = getattr(args, "data_dir", None) or os.environ.get(DATA_ENV)
    if not base:
        raise ValidationError(
            f"missing --{flag.replace('_', '-')} and no data directory "
            f"(--data-dir or ${DATA_ENV})")
    return str(Path(base) / DATA_FILES[key or flag])


def _config(args, **fixed) -> ExperimentConfig:
    """The experiment config a command's flags set: each flag whose
    destination is a config field sets it, other fields keep their defaults."""
    names = {f.name for f in fields(ExperimentConfig)} - {"data_dir"}
    return ExperimentConfig(**{n: getattr(args, n) for n in names if hasattr(args, n)},
                            **fixed)


def _load_store(args) -> EmbeddingStore:
    stop = load_stop_words(args.stopwords) if args.stopwords else None
    store = load_word_vectors(_data_path(args, "word_vectors"),
                              fmt=args.vector_format, stop_words=stop)
    if getattr(args, "entities", None):
        load_entity_vectors(args.entities, store, fmt=args.vector_format)
    return store


def _candidate_corpora(args, cfg: ExperimentConfig, store,
                       paths: dict[str, str]) -> dict[str, Corpus]:
    """The corpus at each split's path, through the experiment's candidate stage."""
    prior = load_prior(_data_path(args, "prior"), store.entity_vocab)
    is_person = (load_person_predicate(args.persons, store.entity_vocab)
                 if args.persons else None)
    store.sync_entities()
    corpora = {split: load_corpus(path, fmt=args.corpus_format, split=split)
               for split, path in paths.items()}
    select_all_candidates(cfg, corpora.values(), store, prior, is_person)
    return corpora


def _add_vector_flags(p, entities: bool = True):
    p.add_argument("--word-vectors", help="word vector file")
    if entities:
        p.add_argument("--entities", help="entity vector file")
    p.add_argument("--vector-format", choices=("text", "binary"), default="text")
    p.add_argument("--stopwords", help="stop-word list, one token per line")


def _add_candidate_flags(p, context_size: bool = True):
    p.add_argument("--prior", help="prior index file")
    p.add_argument("--s", type=int, default=7, help="candidate budget")
    p.add_argument("--prior-top", type=int, default=4)
    p.add_argument("--context-top", type=int, default=3)
    p.add_argument("--persons", help="entity<TAB>is_person file for coref merging")
    if context_size:
        p.add_argument("--k", type=int, default=100, help="context window size")
    p.add_argument("--corpus-format", choices=("json-lines", "column-text"),
                   default="json-lines")


def _add_train_flags(p, local: bool):
    kind = "local" if local else "global"
    p.add_argument("--train", help="training corpus")
    p.add_argument("--val", help="validation corpus")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--r", dest=f"{kind}_r", type=int, default=50 if local else 25,
                   help="hard-attention budget")
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--lr", dest=f"{kind}_lr", type=float,
                   default=1e-3 if local else 1e-4)
    p.add_argument("--epochs", dest=f"{kind}_epochs", type=int, default=100)
    p.add_argument("--eval-every", type=int, default=5)
    p.add_argument("--patience", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    if not local:
        p.add_argument("--t", type=int, default=10, help="message-passing layers")
        p.add_argument("--delta", type=float, default=0.5, help="damping factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entlink",
        description="Document-level entity disambiguation pipeline.")
    parser.add_argument("--data-dir", help=f"default data directory (${DATA_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-synthetic", help="write a synthetic benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--kb-size", type=int, default=200)
    p.add_argument("--words-per-entity", type=int, default=8)
    p.add_argument("--vocab-size", type=int, default=1400)
    p.add_argument("--docs", dest="n_docs", type=int, default=160)
    p.add_argument("--mentions-per-doc", type=int, default=6)
    p.add_argument("--ambiguity", type=int, default=4)
    p.add_argument("--coherence", type=float, default=0.9)
    p.add_argument("--noise-rate", type=float, default=0.5)
    p.add_argument("--n-topics", type=int, default=4)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--ctx-per-side", type=int, default=8)
    p.add_argument("--weak-context-rate", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train-embeddings", help="train entity vectors from counts")
    _add_vector_flags(p, entities=False)  # it writes entity vectors, reads none
    p.add_argument("--counts", help="entity<TAB>word<TAB>count file")
    p.add_argument("--link-counts", help="hyperlink-window counts file")
    p.add_argument("--queries", help="relatedness queries for early stopping")
    p.add_argument("--out", required=True, help="entity vector output file")
    p.add_argument("--out-format", choices=("text", "binary"), default="text")
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--lr", type=float, default=0.3)
    p.add_argument("--iterations", type=int, default=400)
    p.add_argument("--link-iterations", type=int, default=200)
    p.add_argument("--positives", type=int, default=20)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--eval-every", type=int, default=50)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("eval-relatedness", help="NDCG/MAP of entity vectors")
    p.add_argument("--queries")
    p.add_argument("--entities", required=True, help="entity vector file")
    p.add_argument("--vector-format", choices=("text", "binary"), default="text")
    p.set_defaults(func=cmd_eval_relatedness)

    p = sub.add_parser("build-prior", help="merge raw indexes into a prior")
    p.add_argument("--count-index", action="append", default=[],
                   help="mention<TAB>entity<TAB>count file (repeatable)")
    p.add_argument("--uniform-index", action="append", default=[],
                   help="mention<TAB>entity file (repeatable)")
    p.add_argument("--weights", help="comma-separated per-source weights")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_prior)

    p = sub.add_parser("select-candidates", help="emit candidate sets for a corpus")
    _add_vector_flags(p)
    _add_candidate_flags(p)
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select_candidates)

    p = sub.add_parser("train-local", help="train the local attention model")
    _add_vector_flags(p)
    _add_candidate_flags(p)
    _add_train_flags(p, local=True)
    p.set_defaults(func=cmd_train_local)

    p = sub.add_parser("train-global", help="train the joint message-passing model")
    _add_vector_flags(p)
    _add_candidate_flags(p)
    _add_train_flags(p, local=False)
    p.set_defaults(func=cmd_train_global)

    p = sub.add_parser("predict", help="annotate a corpus with a trained model")
    _add_vector_flags(p)
    _add_candidate_flags(p, context_size=False)  # K is the model's
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--out", required=True, help="predictions output file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--corpus-format", choices=("json-lines", "column-text"),
                   default="json-lines")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("breakdown", help="accuracy by gold frequency and prior")
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--corpus-format", choices=("json-lines", "column-text"),
                   default="json-lines")
    p.add_argument("--prior", help="prior index file")
    p.add_argument("--freq", help="entity<TAB>count frequency table")
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser("sweep", help="retrain and evaluate across one parameter")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.add_argument("--no-plot", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("run-experiment", help="run the full pipeline from a config")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", help="output directory (overrides config)")
    p.set_defaults(func=cmd_run_experiment)

    p = sub.add_parser("inspect-neighbors", help="closest words to an entity")
    p.add_argument("--entities", required=True, help="entity vector file")
    p.add_argument("--word-vectors")
    p.add_argument("--vector-format", choices=("text", "binary"), default="text")
    p.add_argument("--entity", required=True, help="entity name")
    p.add_argument("--freq", help="word<TAB>count frequency table")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--min-freq", type=int, default=0)
    p.set_defaults(func=cmd_inspect_neighbors)

    # maintenance command used by CI; intentionally undocumented
    p = sub.add_parser("grad-check")
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    return parser


def cmd_generate(args) -> int:
    spec = stage_objects(_config(args), args.dim)["generate"]
    data = generate_synthetic(spec)
    paths = write_synthetic(data, args.out)
    # containment of the gold entity in the top-7 prior mass, before any
    # model-dependent candidate selection
    total = hits = 0
    for corpus in data.corpora.values():
        for doc in corpus:
            for mention in doc.mentions:
                total += 1
                top = [e for e, _ in data.prior.lookup(mention.surface)[:7]]
                hits += int(mention.gold_id in top)
    print(f"wrote {len(paths)} files to {args.out}")
    print(f"docs={spec.n_docs} mentions/doc={spec.mentions_per_doc} "
          f"gold_in_prior_top7={100.0 * hits / max(total, 1):.1f}%")
    return 0


def cmd_train_embeddings(args) -> int:
    store = _load_store(args)
    counts = load_counts_file(_data_path(args, "counts"),
                              store.word_vocab, store.entity_vocab,
                              alpha=args.alpha)
    if args.link_counts:
        link = load_counts_file(args.link_counts, store.word_vocab,
                                store.entity_vocab, alpha=args.alpha,
                                source="hyperlink")
        counts.hyperlink = link.hyperlink
        counts.word_freq = counts.word_freq + link.word_freq
    store.sync_entities()
    names = store.entity_vocab.tokens()
    if args.out_format == "text":
        check_text_tokens(args.out, names)  # before training, not after it
    queries = None
    if args.queries:
        queries = load_relatedness_queries(args.queries, store.entity_vocab)
    cfg = EmbedTrainConfig(
        gamma=args.gamma, positives_per_iter=args.positives,
        negatives_per_positive=args.negatives, learning_rate=args.lr,
        description_iters=args.iterations, hyperlink_iters=args.link_iterations,
        seed=args.seed, eval_every=args.eval_every,
        patience=args.patience)
    skipped = train_all_entities(counts, cfg, store, validation=queries,
                                 log=lambda m: print(m, file=sys.stderr))
    writer = save_vectors_text if args.out_format == "text" else save_vectors_binary
    writer(args.out, names, store.entity_matrix())
    print(f"trained {store.n_entities - len(skipped)} entities "
          f"({len(skipped)} untrainable) -> {args.out}")
    if queries:
        res = eval_relatedness(queries, store)
        print(f"relatedness: ndcg1={res.ndcg1:.3f} ndcg5={res.ndcg5:.3f} "
              f"ndcg10={res.ndcg10:.3f} map={res.map:.3f} "
              f"sum={res.validation_score:.3f}")
    return 0


def cmd_eval_relatedness(args) -> int:
    # entities only, in a word-less store of the file's dimension
    names, rows = read_vectors(args.entities, args.vector_format)
    store = EmbeddingStore(rows.shape[1])
    store.add_entities(names, rows)
    queries = load_relatedness_queries(
        _data_path(args, "queries"), store.entity_vocab)
    store.sync_entities()
    res = eval_relatedness(queries, store)
    print(f"queries={res.n_queries} excluded={res.excluded}")
    print(f"NDCG@1={res.ndcg1:.4f}")
    print(f"NDCG@5={res.ndcg5:.4f}")
    print(f"NDCG@10={res.ndcg10:.4f}")
    print(f"MAP={res.map:.4f}")
    print(f"validation_score={res.validation_score:.4f}")
    return 0


def cmd_build_prior(args) -> int:
    if not args.count_index and not args.uniform_index:
        raise ValidationError("need at least one --count-index or --uniform-index")
    entities = Vocab()
    sources = []
    for path in args.count_index:
        sources.append(PriorSource("count", load_count_index(path, entities)))
    for path in args.uniform_index:
        sources.append(PriorSource("uniform", load_uniform_index(path, entities)))
    if args.weights:
        weights = [parse_field(float, w, "--weights") for w in args.weights.split(",")]
        if len(weights) != len(sources):
            raise ValidationError("one --weights entry per source required")
        for source, w in zip(sources, weights):
            source.weight = w
    prior = build_prior(sources)
    save_prior(args.out, prior, entities)
    print(f"wrote prior for {len(prior)} mentions -> {args.out}")
    return 0


def cmd_select_candidates(args) -> int:
    cfg = _config(args)
    store = _load_store(args)
    corpus = _candidate_corpora(args, cfg, store,
                                {"input": _data_path(args, "corpus", "test")})["input"]
    write_rows(args.out, ["doc", "mention", "entity", "prior", "reason"],
               ((doc.doc_id, idx, store.entity_vocab.token(cand.entity),
                 f"{cand.prior:.6f}", cand.reason)
                for doc in corpus
                for idx, mention in enumerate(doc.mentions)
                for cand in mention.candidates or []))
    recall = gold_recall(corpus)
    print(f"selected candidates for {corpus.n_mentions} mentions "
          f"(gold recall {recall:.1f}%) -> {args.out}")
    return 0


def _run_training(args, stage: str) -> int:
    cfg = _config(args)
    store = _load_store(args)
    corpora = _candidate_corpora(args, cfg, store, {
        "train": _data_path(args, "train"),
        "validation": _data_path(args, "val", "validation")})
    params, history = fit(cfg, stage, store, corpora)
    save_model(args.out, params, extra={"gamma": cfg.gamma, "seed": cfg.seed,
                                        "epochs_run": history.epochs_run})
    print(f"trained {stage.removeprefix('train-')} model: "
          f"epochs={history.epochs_run} "
          f"best_val_accuracy={history.best_val_accuracy:.4f} -> {args.out}")
    return 0


def cmd_train_local(args) -> int:
    return _run_training(args, "train-local")


def cmd_train_global(args) -> int:
    return _run_training(args, "train-global")


def cmd_predict(args) -> int:
    params = load_model(args.model)
    is_global = isinstance(params, GlobalParams)
    local = params.local if is_global else params
    store = _load_store(args)
    if local.dim != store.dim:
        raise ValidationError(f"{args.model}: model dimension {local.dim} does not match "
                              f"the word vectors' {store.dim}")
    # context windows of the model's own K
    corpus = _candidate_corpora(args, _config(args, k=local.k), store,
                                {"input": _data_path(args, "corpus", "test")})["input"]
    predict = predict_global if is_global else predict_local
    write_rows(args.out, ["doc", "mention", "entity"],
               ((doc.doc_id, idx, store.entity_vocab.token(pred) if pred is not None else "")
                for doc in corpus
                for idx, pred in enumerate(predict(doc, params, store))))
    print(f"annotated {corpus.n_mentions} mentions -> {args.out}")
    return 0


def _read_predictions(path: str) -> dict[tuple[str, int], str]:
    with open_text(path) as fh:
        if not fh.readline().startswith("doc\t"):
            raise ValidationError(f"{path}: missing predictions header")
    return {(doc, parse_field(int, mention, where)): entity
            for where, (doc, mention, entity) in read_rows(
                path, "doc<TAB>mention<TAB>entity", start=2)}


def _aligned_eval_inputs(args, preds_by_key):
    corpus = load_corpus(_data_path(args, "corpus", "test"),
                         fmt=args.corpus_format, split="test")
    preds: list[int | None] = []
    golds: list[int | None] = []
    names: list[tuple] = []
    name_ids: dict[str, int] = {}

    def intern(name: str) -> int:
        return name_ids.setdefault(name, len(name_ids))

    for doc in corpus:
        for idx, mention in enumerate(doc.mentions):
            raw = preds_by_key.get((doc.doc_id, idx), "")
            preds.append(intern(raw) if raw else None)
            golds.append(intern(mention.gold) if mention.gold is not None else None)
            names.append((doc.doc_id, idx, mention))
    return corpus, preds, golds, names


def cmd_evaluate(args) -> int:
    preds_by_key = _read_predictions(args.predictions)
    _, preds, golds, _ = _aligned_eval_inputs(args, preds_by_key)
    res = evaluate(preds, golds)
    print(f"gold_mentions={res.gold} predicted={res.predicted} correct={res.correct}")
    print(f"in_kb_accuracy={res.in_kb_accuracy:.4f}")
    print(f"precision={res.precision:.4f}")
    print(f"recall={res.recall:.4f}")
    print(f"micro_f1={res.f1:.4f}")
    return 0


def cmd_breakdown(args) -> int:
    preds_by_key = _read_predictions(args.predictions)
    _, preds, golds, rows = _aligned_eval_inputs(args, preds_by_key)
    entities = Vocab()
    prior = load_prior(_data_path(args, "prior"), entities)
    freq = dict(read_counts(args.freq)) if args.freq else {}
    gold_priors, gold_freqs, in_cands = [], [], []
    for (_, _, mention) in rows:
        p = prior.prior(mention.surface, entities.id(mention.gold)) \
            if mention.gold is not None and entities.id(mention.gold) is not None \
            else 0.0
        gold_priors.append(p)
        gold_freqs.append(freq.get(mention.gold or "", 0))
        in_cands.append(p > 0.0)
    freq_buckets, prior_buckets = breakdown_report(preds, golds, gold_priors,
                                                   gold_freqs, in_cands)
    print("axis\tbucket\tcount\taccuracy")
    for b in freq_buckets:
        print(f"frequency\t{b.label}\t{b.count}\t{b.accuracy:.4f}")
    for b in prior_buckets:
        print(f"prior\t{b.label}\t{b.count}\t{b.accuracy:.4f}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    values = parse_config_file(args.config) if args.config else {}
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        values[key.strip()] = value.strip()
    cfg = ExperimentConfig.from_dict(values)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    values = [parse_field(float, v, "--values") for v in args.values.split(",")]
    seeds = [parse_field(int, s, "--seeds") for s in args.seeds.split(",")]
    rows = run_sweep(cfg, args.param.replace("-", "_").lower(), values, seeds)
    write_sweep_outputs(rows, args.param, args.out, plot=not args.no_plot)
    for row in rows:
        print(f"{args.param}={row['value']:g} mean_accuracy={row['mean']:.4f}")
    return 0


def cmd_run_experiment(args) -> int:
    cfg = _experiment_config(args)
    metrics = run_experiment(cfg)
    for section in sorted(k for k in metrics if not k.startswith("_")):
        parts = " ".join(f"{m}={v:.4f}" for m, v in sorted(metrics[section].items()))
        print(f"{section}: {parts}")
    print(f"artifacts in {cfg.out_dir}")
    return 0


def cmd_inspect_neighbors(args) -> int:
    names, rows = read_vectors(args.entities, args.vector_format)
    store = load_word_vectors(_data_path(args, "word_vectors"), fmt=args.vector_format)
    if rows.shape[1] != store.dim:
        raise ValidationError("entity and word dimensions differ")
    store.add_entities(names, rows)
    if args.freq:
        load_word_frequencies(args.freq, store.word_vocab)
    idx = store.entity_vocab.id(args.entity)
    if idx is None:
        raise ValidationError(f"unknown entity {args.entity!r}")
    for word, sim in nearest_words(store, idx, k=args.k, min_freq=args.min_freq):
        print(f"{store.word_vocab.token(word)}\t{sim:.4f}")
    return 0


def cmd_grad_check(args) -> int:
    from . import autodiff as ad
    from .attention import FNet, MentionInstance, floored_log_prior, local_loss_closure
    from .crf import global_loss_closure

    rng = np.random.default_rng(args.seed)

    def make_instances(n, max_s, max_ctx):
        # mixed candidate counts and context lengths, empty contexts
        # included, so the padded block paths are checked too
        out = []
        for s, k in zip(rng.integers(1, max_s + 1, n), rng.integers(0, max_ctx + 1, n)):
            vecs = rng.normal(size=(s, 8))
            p = rng.dirichlet(np.ones(s))
            out.append(MentionInstance(
                cand_vecs=vecs / np.linalg.norm(vecs, axis=1, keepdims=True),
                ctx_vecs=rng.normal(size=(k, 8)), gold_index=int(rng.integers(s)),
                log_priors=floored_log_prior(p),
                entities=list(range(s))))
        return out

    worst = 0.0
    for _ in range(args.instances):
        fnet = FNet.random(hidden=20, rng=rng)
        params = {"A": 1.0 + 0.1 * rng.normal(size=8),
                  "B": 1.0 + 0.1 * rng.normal(size=8),
                  **fnet.param_dict()}
        f = local_loss_closure(make_instances(3, 4, 10), gamma=0.05, r=5)
        rep = ad.grad_check(f, params, coords_per_param=10, rng=rng)
        worst = max(worst, rep.overall_max())
        params["C"] = 1.0 + 0.1 * rng.normal(size=8)
        g = global_loss_closure(make_instances(4, 4, 6), gamma=0.05, r=3,
                                delta=0.5, t=3)
        rep = ad.grad_check(g, params, coords_per_param=10, rng=rng)
        worst = max(worst, rep.overall_max())
    print(f"max relative error over {args.instances} instances: {worst:.3e}")
    if worst >= args.tolerance:
        print(f"FAIL: exceeds tolerance {args.tolerance:g}")
        return 1
    print(f"OK: within tolerance {args.tolerance:g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
