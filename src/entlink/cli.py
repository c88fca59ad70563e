"""Command-line interface.

Subcommands cover the whole pipeline: synthetic data generation, entity
vector training and evaluation, prior construction, candidate selection,
model training, prediction, scoring, breakdowns, hyperparameter sweeps and
embedding inspection.  Exit codes: 0 success, 1 validation failure or out
of memory, 2 I/O error.  A command that builds from `ExperimentConfig`
reads it from `--config` and `--set` alone, its other flags name files (or
the hyperlink phase of `train-embeddings`), and an input no flag names
comes from its `data_dir`; other commands read `--data-dir`, else
ENTLINK_DATA_DIR.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .attention import predict_local
from .crf import GlobalParams, predict_global
from .docs import Corpus, load_corpus, resolve_gold
from .embed_train import (
    CooccurrenceCounts,
    EmbedTrainConfig,
    eval_relatedness,
    load_counts_file,
    load_relatedness_queries,
    train_all_entities,
)
from .errors import FieldError, ValidationError
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
    check_tokens,
    load_entity_vectors,
    load_word_vectors,
    naming_file,
    nearest_words,
    read_vectors,
    save_vectors_binary,
    save_vectors_text,
)
from .vocab import (
    Vocab,
    load_stop_words,
    open_text,
    parse_field,
    read_counts,
    read_rows,
    write_rows,
)

DATA_ENV = "ENTLINK_DATA_DIR"


def _data_dir(args) -> str | None:
    return args.data_dir or os.environ.get(DATA_ENV)


def _data_path(args, flag: str, key: str | None = None, base: str | None = None) -> str:
    """The path flag `flag` gives, else the data directory `base`'s `key` file
    (`DATA_FILES`; `key` defaults to `flag`, `base` to `_data_dir`)."""
    if getattr(args, flag):
        return getattr(args, flag)
    base = _data_dir(args) if base is None else base
    if not base:
        raise ValidationError(
            f"missing --{flag.replace('_', '-')} and no data directory "
            f"(a config's data_dir, --data-dir or ${DATA_ENV})")
    return str(Path(base) / DATA_FILES[key or flag])


def _load_store(args, words: str, keep: set[str] | None = None) -> EmbeddingStore:
    """The word vectors in file `words` (of the tokens in `keep` only, if
    given) and the `--entities` vectors if that flag names a file."""
    store = load_word_vectors(words, keep=keep)
    if getattr(args, "entities", None):
        load_entity_vectors(args.entities, store)
    return store


def _corpora_and_store(args, cfg: ExperimentConfig, files: dict[str, tuple[str, str]]
                       ) -> tuple[dict[str, Corpus], EmbeddingStore]:
    """The corpus of each split, whose path `_data_path` resolves from the
    split's (flag, key), and a store of only the words they hold.  A missing
    word vector path is named before a missing corpus."""
    words = _data_path(args, "word_vectors", base=cfg.data_dir)
    corpora = {split: load_corpus(_data_path(args, flag, key, cfg.data_dir))
               for split, (flag, key) in files.items()}
    keep = {token for corpus in corpora.values() for doc in corpus for token in doc.tokens}
    return corpora, _load_store(args, words, keep)


def _select_candidates(args, cfg: ExperimentConfig, store,
                       corpora: dict[str, Corpus]) -> None:
    """The experiment's candidate stage over `corpora`, whose context windows
    skip the `--stopwords` list's words."""
    stop_words = load_stop_words(args.stopwords) if args.stopwords else frozenset()
    prior = load_prior(_data_path(args, "prior", base=cfg.data_dir), store.entity_vocab)
    is_person = (load_person_predicate(args.persons, store.entity_vocab)
                 if args.persons else None)
    store.sync_entities()
    select_all_candidates(cfg, corpora.values(), store, prior, is_person, stop_words)


def _add_vector_flags(p, entities: bool = True):
    p.add_argument("--word-vectors", help="word vector file")
    if entities:
        p.add_argument("--entities", help="entity vector file")


def _add_config_flags(p):
    p.add_argument("--config", help="flat key = value experiment config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="set one config key, over the file (repeatable)")


def _add_candidate_flags(p):
    _add_vector_flags(p)
    _add_config_flags(p)
    p.add_argument("--prior", help="prior index file")
    p.add_argument("--persons", help="entity<TAB>is_person file for coref merging")
    p.add_argument("--stopwords", help="stop-word list, one token per line, "
                                       "left out of context windows")


def _add_train_flags(p):
    _add_candidate_flags(p)
    p.add_argument("--train", help="training corpus")
    p.add_argument("--val", help="validation corpus")
    p.add_argument("--out", required=True, help="model output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entlink",
        description="Document-level entity disambiguation pipeline.")
    parser.add_argument("--data-dir", help=f"default data directory (${DATA_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-synthetic", help="write a synthetic benchmark")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train-embeddings", help="train entity vectors from counts")
    _add_vector_flags(p, entities=False)  # it writes entity vectors, reads none
    _add_config_flags(p)
    p.add_argument("--counts", help="entity<TAB>word<TAB>count file")
    p.add_argument("--link-counts", help="hyperlink-window counts file")
    p.add_argument("--queries", help="relatedness queries for early stopping")
    p.add_argument("--out", required=True, help="entity vector output file")
    p.add_argument("--out-format", choices=("text", "binary"), default="text")
    # the hyperlink phase, which only --link-counts runs and no config key sets
    p.add_argument("--link-iterations", type=int, default=EmbedTrainConfig.hyperlink_iters)
    p.add_argument("--eval-every", type=int, default=EmbedTrainConfig.eval_every,
                   dest="link_eval_every")
    p.add_argument("--patience", type=int, default=EmbedTrainConfig.patience,
                   dest="link_patience")
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("eval-relatedness", help="NDCG/MAP of entity vectors")
    p.add_argument("--queries")
    p.add_argument("--entities", required=True, help="entity vector file")
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
    _add_candidate_flags(p)
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select_candidates)

    p = sub.add_parser("train-local", help="train the local attention model")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_local)

    p = sub.add_parser("train-global", help="train the joint message-passing model")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_global)

    p = sub.add_parser("predict", help="annotate a corpus with a trained model")
    _add_candidate_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--out", required=True, help="predictions output file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--prior", help="prior index file, whose entities are the KB")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("breakdown", help="accuracy by gold frequency and prior")
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--prior", help="prior index file")
    p.add_argument("--freq", help="entity<TAB>count frequency table")
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser("sweep", help="retrain and evaluate across one parameter")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("run-experiment", help="run the full pipeline from a config")
    _add_config_flags(p)
    p.add_argument("--out", help="output directory (overrides config)")
    p.set_defaults(func=cmd_run_experiment)

    p = sub.add_parser("inspect-neighbors", help="closest words to an entity")
    p.add_argument("--entities", required=True, help="entity vector file")
    p.add_argument("--word-vectors")
    p.add_argument("--entity", required=True, help="entity name")
    p.add_argument("--freq", help="word<TAB>count frequency table")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--min-freq", type=int, default=0)
    p.set_defaults(func=cmd_inspect_neighbors)

    return parser


def cmd_generate(args) -> int:
    cfg = _experiment_config(args)
    spec = stage_objects(cfg, cfg.dim)["generate"]
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
    cfg = _experiment_config(args)
    store = _load_store(args, _data_path(args, "word_vectors", base=cfg.data_dir))
    embed = stage_objects(cfg, store.dim)["embeddings"]
    try:
        embed = replace(embed, hyperlink_iters=args.link_iterations,
                        eval_every=args.link_eval_every, patience=args.link_patience)
    except FieldError as exc:
        flag = {"hyperlink_iters": "--link-iterations", "eval_every": "--eval-every",
                "patience": "--patience"}[exc.field]
        raise ValidationError(f"bad value for {flag}: {exc}") from None
    # the description table, then the hyperlink table if --link-counts names one
    tables = [load_counts_file(path, store.word_vocab, store.entity_vocab) for path in
              (_data_path(args, "counts", base=cfg.data_dir), args.link_counts) if path]
    counts = CooccurrenceCounts(store.n_words, *tables)
    store.sync_entities()
    names = store.entity_vocab.tokens()
    check_tokens(args.out, names, args.out_format)  # before training, not after it
    queries = (load_relatedness_queries(args.queries, store.entity_vocab)
               if args.queries else None)
    skipped = train_all_entities(counts, embed, store, validation=queries,
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
    names, rows = read_vectors(args.entities)
    store = EmbeddingStore(rows.shape[1])
    with naming_file(args.entities):
        store.add_entities(names, rows, copy=False)
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
    sources = ([PriorSource(load_count_index(path, entities)) for path in args.count_index]
               + [PriorSource(load_uniform_index(path, entities)) for path in args.uniform_index])
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
    cfg = _experiment_config(args)
    corpora, store = _corpora_and_store(args, cfg, {"input": ("corpus", "test")})
    _select_candidates(args, cfg, store, corpora)
    corpus = corpora["input"]
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
    cfg = _experiment_config(args)
    corpora, store = _corpora_and_store(args, cfg, {"train": ("train", "train"),
                                                    "validation": ("val", "validation")})
    _select_candidates(args, cfg, store, corpora)
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
    cfg = _experiment_config(args)
    params = load_model(args.model)
    is_global = isinstance(params, GlobalParams)
    local = params.local if is_global else params
    corpora, store = _corpora_and_store(args, cfg, {"input": ("corpus", "test")})
    if local.dim != store.dim:
        raise ValidationError(f"{args.model}: model dimension {local.dim} does not match "
                              f"the word vectors' {store.dim}")
    # context windows of the model's own K
    _select_candidates(args, replace(cfg, k=local.k), store, corpora)
    corpus = corpora["input"]
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


def _aligned_eval_inputs(args):
    """Each test mention with its prediction and its gold, in corpus order,
    and the prior.  Golds are resolved against the prior's entities
    (`docs.resolve_gold`), so a gold outside that knowledge base is None."""
    preds_by_key = _read_predictions(args.predictions)
    corpus = load_corpus(_data_path(args, "corpus", "test"))
    entities = Vocab()
    prior = load_prior(_data_path(args, "prior"), entities)
    resolve_gold(corpus, entities)
    mentions, preds, golds = [], [], []
    for doc in corpus:
        for idx, mention in enumerate(doc.mentions):
            mentions.append(mention)
            preds.append(preds_by_key.get((doc.doc_id, idx)) or None)
            golds.append(mention.gold if mention.gold_id is not None else None)
    return mentions, preds, golds, prior


def cmd_evaluate(args) -> int:
    _, preds, golds, _ = _aligned_eval_inputs(args)
    res = evaluate(preds, golds)
    print(f"gold_mentions={res.gold} predicted={res.predicted} correct={res.correct}")
    print(f"in_kb_accuracy={res.in_kb_accuracy:.4f}")
    print(f"precision={res.precision:.4f}")
    print(f"recall={res.recall:.4f}")
    print(f"micro_f1={res.f1:.4f}")
    return 0


def cmd_breakdown(args) -> int:
    mentions, preds, golds, prior = _aligned_eval_inputs(args)
    freq = (dict(read_counts(_data_path(args, "freq", "entity_freq")))
            if args.freq or _data_dir(args) else {})
    gold_priors = [prior.prior(m.surface, m.gold_id) if m.gold_id is not None else 0.0
                   for m in mentions]
    gold_freqs = [freq.get(m.gold or "", 0) for m in mentions]
    freq_buckets, prior_buckets = breakdown_report(preds, golds, gold_priors, gold_freqs,
                                                   [p > 0.0 for p in gold_priors])
    print("axis\tbucket\tcount\taccuracy")
    for axis, buckets in (("frequency", freq_buckets), ("prior", prior_buckets)):
        for b in buckets:
            print(f"{axis}\t{b.label}\t{b.count}\t{b.accuracy:.4f}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    """The config `--config` and then `--set` give, over the defaults; its
    `data_dir` is `--data-dir`, else $ENTLINK_DATA_DIR, unless they name one."""
    base = _data_dir(args)
    values = {"data_dir": base} if base else {}  # the config file and --set win
    if args.config:
        values.update(parse_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        values[key.strip()] = value.strip()
    return ExperimentConfig.from_dict(values)


def cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    values = [parse_field(float, v, "--values") for v in args.values.split(",")]
    seeds = [parse_field(int, s, "--seeds") for s in args.seeds.split(",")]
    rows = run_sweep(cfg, args.param.replace("-", "_").lower(), values, seeds)
    write_sweep_outputs(rows, args.param, args.out)
    for row in rows:
        print(f"{args.param}={row['value']:g} mean_accuracy={row['mean']:.4f}")
    return 0


def cmd_run_experiment(args) -> int:
    cfg = _experiment_config(args)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    metrics = run_experiment(cfg)
    for section in sorted(k for k in metrics if not k.startswith("_")):
        parts = " ".join(f"{m}={v:.4f}" for m, v in sorted(metrics[section].items()))
        print(f"{section}: {parts}")
    print(f"artifacts in {cfg.out_dir}")
    return 0


def cmd_inspect_neighbors(args) -> int:
    if args.k < 1:
        raise ValidationError(f"--k must be at least 1, got {args.k}")
    if args.min_freq > 0 and not args.freq:
        raise ValidationError(f"--min-freq {args.min_freq} needs --freq: without a "
                              f"frequency table every word counts 0")
    store = _load_store(args, _data_path(args, "word_vectors"))
    # a word the table leaves out counts 0; a word's last row wins
    freq = dict(read_counts(args.freq)) if args.freq else None
    idx = store.entity_vocab.id(args.entity)
    if idx is None:
        raise ValidationError(f"unknown entity {args.entity!r}")
    allowed = None if freq is None else [freq.get(word, 0) >= args.min_freq
                                         for word in store.word_vocab.tokens()]
    for word, sim in nearest_words(store, idx, k=args.k, allowed=allowed):
        print(f"{store.word_vocab.token(word)}\t{sim:.4f}")
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
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
