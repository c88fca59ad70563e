"""CLI: subcommand round trips, exit codes, file plumbing."""

import argparse
import json
import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import entlink
from entlink import cli, crf
from entlink.attention import LocalParams, predict_local
from entlink.cli import main
from entlink.crf import GlobalParams, predict_global
from entlink.docs import build_context_windows, load_corpus, resolve_gold
from entlink.experiment import ExperimentConfig, fit, select_all_candidates
from entlink.model_io import load_model, save_model
from entlink.priors import load_prior, select_candidates
from entlink.vectors import load_entity_vectors, load_word_vectors


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """A small generated benchmark plus trained entity vectors."""
    tmp = tmp_path_factory.mktemp("cli")
    data = tmp / "data"
    assert main(["generate-synthetic", "--out", str(data), "--set", "kb_size=40",
                 "--set", "vocab_size=600", "--set", "n_docs=40", "--set",
                 "mentions_per_doc=4", "--set", "dim=12", "--set", "seed=5"]) == 0
    entities = tmp / "entities.txt"
    assert main(["train-embeddings", "--word-vectors",
                 str(data / "word_vectors.txt"), "--counts",
                 str(data / "counts.tsv"), "--out", str(entities),
                 "--set", "embed_iters=150", "--link-iterations", "0"]) == 0
    return tmp, data, entities


class TestGenerateAndEmbed:
    def test_files_exist(self, bench):
        _, data, entities = bench
        for name in ("word_vectors.txt", "counts.tsv", "prior.tsv",
                     "queries.tsv", "corpus_train.jsonl", "entity_freq.tsv"):
            assert (data / name).exists()
        assert entities.exists()

    def test_eval_relatedness(self, bench, capsys):
        _, data, entities = bench
        assert main(["eval-relatedness", "--entities", str(entities),
                     "--queries", str(data / "queries.tsv")]) == 0
        out = capsys.readouterr().out
        assert "MAP=" in out
        assert "validation_score=" in out

    def test_link_rounds_on_stderr_and_seeded_reruns_identical(self, bench, capsys,
                                                               tmp_path):
        _, data, _ = bench
        runs = []
        for rerun in ("a", "b"):
            (tmp_path / rerun).mkdir()
            out = tmp_path / rerun / "entities.txt"
            assert main(["train-embeddings", "--word-vectors",
                         str(data / "word_vectors.txt"), "--counts",
                         str(data / "counts.tsv"), "--link-counts",
                         str(data / "counts.tsv"), "--queries",
                         str(data / "queries.tsv"), "--out", str(out),
                         "--set", "embed_iters=30", "--link-iterations", "25",
                         "--eval-every", "10", "--patience", "5"]) == 0
            captured = capsys.readouterr()
            runs.append((captured.out.replace(str(out), "OUT"), out.read_bytes()))
            rounds = [l for l in captured.err.splitlines()
                      if l.startswith("hyperlink round")]
            assert [l.split(":")[0] for l in rounds] == [
                "hyperlink round 1", "hyperlink round 2", "hyperlink round 3"]
            assert all(", best " in l and "bad rounds" in l for l in rounds)
        assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def model(bench):
    tmp, data, entities = bench
    path = tmp / "local.model"
    assert main(["--data-dir", str(data), "train-local", "--entities",
                 str(entities), "--out", str(path), "--set", "k=30", "--set",
                 "local_r=8", "--set", "local_lr=0.05", "--set", "local_epochs=8",
                 "--set", "patience=10"]) == 0
    return path


class TestTrainPredictEvaluate:
    def test_predict_and_evaluate(self, bench, model, capsys, tmp_path):
        tmp, data, entities = bench
        preds = tmp_path / "preds.tsv"
        assert main(["--data-dir", str(data), "predict", "--model", str(model),
                     "--entities", str(entities), "--out", str(preds)]) == 0
        assert main(["--data-dir", str(data), "evaluate", "--predictions",
                     str(preds)]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("in_kb_accuracy=")][0]
        assert float(line.split("=")[1]) > 0.2

    def test_breakdown_runs(self, bench, model, capsys, tmp_path):
        tmp, data, entities = bench
        preds = tmp_path / "preds.tsv"
        main(["--data-dir", str(data), "predict", "--model", str(model),
              "--entities", str(entities), "--out", str(preds)])
        assert main(["--data-dir", str(data), "breakdown", "--predictions",
                     str(preds), "--freq", str(data / "entity_freq.tsv")]) == 0
        out = capsys.readouterr().out
        assert "prior\t" in out

    def test_breakdown_reads_the_data_directory_frequencies(self, bench, model, capsys,
                                                           tmp_path, monkeypatch):
        # without --freq the data directory's entity_freq.tsv gives the
        # frequency axis; with neither, every mention counts as frequency 0
        tmp, data, entities = bench
        monkeypatch.delenv("ENTLINK_DATA_DIR", raising=False)
        preds = tmp_path / "preds.tsv"
        assert main(["--data-dir", str(data), "predict", "--model", str(model),
                     "--entities", str(entities), "--out", str(preds)]) == 0
        breakdown = ["breakdown", "--predictions", str(preds)]
        explicit = ["--corpus", str(data / "corpus_test.jsonl"),
                    "--prior", str(data / "prior.tsv")]

        def frequency_counts(argv):
            capsys.readouterr()
            assert main(argv) == 0
            rows = (line.split("\t") for line in capsys.readouterr().out.splitlines())
            return {bucket: int(count) for axis, bucket, count, _ in rows
                    if axis == "frequency"}

        with_freq = frequency_counts(["--data-dir", str(data), *breakdown, "--freq",
                                      str(data / "entity_freq.tsv")])
        assert frequency_counts(["--data-dir", str(data), *breakdown]) == with_freq
        assert with_freq["0"] < sum(with_freq.values())
        without = frequency_counts([*breakdown, *explicit])
        assert without["0"] == sum(without.values()) == sum(with_freq.values())

    def test_predict_takes_k_from_the_model(self, bench, model, tmp_path):
        # the model was trained with k=30, so predict's output is the local
        # model's predictions over 30-word context windows
        _, data, entities = bench
        preds = tmp_path / "preds.tsv"
        assert main(["--data-dir", str(data), "predict", "--model", str(model),
                     "--entities", str(entities), "--out", str(preds)]) == 0
        params = load_model(str(model))
        assert params.k == 30

        def predictions(k):
            store = load_word_vectors(str(data / "word_vectors.txt"))
            load_entity_vectors(str(entities), store)
            prior = load_prior(str(data / "prior.tsv"), store.entity_vocab)
            store.sync_entities()
            corpus = load_corpus(str(data / "corpus_test.jsonl"))
            resolve_gold(corpus, store.entity_vocab)
            build_context_windows(corpus, store.word_vocab, k=k)
            rows = ["doc\tmention\tentity"]
            for doc in corpus:
                for m in doc.mentions:
                    m.candidates = select_candidates(m.surface, m.context or [],
                                                     prior, store)
                for idx, pred in enumerate(predict_local(doc, params, store)):
                    name = store.entity_vocab.token(pred) if pred is not None else ""
                    rows.append(f"{doc.doc_id}\t{idx}\t{name}")
            return rows

        assert preds.read_text().splitlines() == predictions(30)
        assert predictions(30) != predictions(100)

    def test_store_of_the_corpus_words_predicts_as_the_full_store(self, bench, model):
        # predict loads only its corpus's words, so their ids differ from a
        # full load's; the rows and so every local and joint prediction do not
        _, data, entities = bench
        local = load_model(str(model))
        joint = GlobalParams(local=local, c=np.linspace(0.5, 1.5, local.dim), t=4)
        corpus_path = str(data / "corpus_test.jsonl")
        tokens = {token for doc in load_corpus(corpus_path) for token in doc.tokens}
        runs = []
        for keep in (None, tokens):
            store = load_word_vectors(str(data / "word_vectors.txt"), keep=keep)
            load_entity_vectors(str(entities), store)
            prior = load_prior(str(data / "prior.tsv"), store.entity_vocab)
            store.sync_entities()
            corpus = load_corpus(corpus_path)
            select_all_candidates(ExperimentConfig(k=local.k), [corpus], store, prior)
            runs.append((store.n_words, [(predict_local(doc, local, store),
                                          predict_global(doc, joint, store))
                                         for doc in corpus]))
        (full_words, full), (kept_words, kept) = runs
        assert kept_words < full_words
        assert any(p is not None for pair in full for preds in pair for p in preds)
        assert kept == full


class TestHandWrittenScores:
    """`evaluate` and `breakdown` counts on a corpus small enough to count by hand."""

    @pytest.fixture
    def files(self, tmp_path):
        # d1: Paris x4 (gold E1, E2, E1, E2), Berlin (gold E3);
        # d2: one mention without gold, which neither command counts
        mentions = [{"start": i, "end": i + 1, "surface": surface, "gold": gold}
                    for i, (surface, gold) in enumerate(
                        [("Paris", "E1"), ("Paris", "E2"), ("Paris", "E1"),
                         ("Berlin", "E3"), ("Paris", "E2")])]
        docs = [{"id": "d1", "tokens": ["Paris"] * 3 + ["Berlin", "Paris"],
                 "mentions": mentions},
                {"id": "d2", "tokens": ["Paris"],
                 "mentions": [{"start": 0, "end": 1, "surface": "Paris"}]}]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        # right, wrong, empty, an entity name in no other file, right; d2 predicted
        preds = tmp_path / "preds.tsv"
        preds.write_text("doc\tmention\tentity\nd1\t0\tE1\nd1\t1\tE1\nd1\t2\t\n"
                         "d1\t3\tE9\nd1\t4\tE2\nd2\t0\tE1\n")
        prior = tmp_path / "prior.tsv"
        prior.write_text("Paris\tE1\t0.6\nParis\tE2\t0.4\nBerlin\tE1\t0.8\n"
                         "Berlin\tE3\t0.2\n")
        freq = tmp_path / "freq.tsv"
        freq.write_text("E1\t5\nE2\t15\n")
        return corpus, preds, prior, freq

    def test_evaluate_counts(self, files, capsys, monkeypatch):
        monkeypatch.delenv("ENTLINK_DATA_DIR", raising=False)
        corpus, preds, prior, _ = files
        assert main(["evaluate", "--predictions", str(preds), "--corpus", str(corpus),
                     "--prior", str(prior)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "gold_mentions=5 predicted=4 correct=2", "in_kb_accuracy=0.4000",
            "precision=0.5000", "recall=0.4000", "micro_f1=0.4444"]

    def test_evaluate_skips_a_gold_outside_the_kb(self, tmp_path, capsys, monkeypatch):
        # golds E1 (predicted E1) and NOT_IN_KB (no prediction): only E1 is
        # in the prior's knowledge base, so only it counts as a gold mention
        monkeypatch.delenv("ENTLINK_DATA_DIR", raising=False)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(
            {"id": "d", "tokens": ["Paris", "Atlantis"],
             "mentions": [{"start": 0, "end": 1, "surface": "Paris", "gold": "E1"},
                          {"start": 1, "end": 2, "surface": "Atlantis",
                           "gold": "NOT_IN_KB"}]}) + "\n")
        preds = tmp_path / "preds.tsv"
        preds.write_text("doc\tmention\tentity\nd\t0\tE1\nd\t1\t\n")
        prior = tmp_path / "prior.tsv"
        prior.write_text("Paris\tE1\t0.6\nParis\tE2\t0.4\n")
        assert main(["evaluate", "--predictions", str(preds), "--corpus", str(corpus),
                     "--prior", str(prior)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["gold_mentions=1 predicted=1 correct=1", "in_kb_accuracy=1.0000"]

    def test_breakdown_rows(self, files, capsys, monkeypatch):
        monkeypatch.delenv("ENTLINK_DATA_DIR", raising=False)
        corpus, preds, prior, freq = files
        assert main(["breakdown", "--predictions", str(preds), "--corpus", str(corpus),
                     "--prior", str(prior), "--freq", str(freq)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "axis\tbucket\tcount\taccuracy",
            "frequency\t0\t1\t0.0000", "frequency\t1-10\t2\t0.5000",
            "frequency\t11-20\t2\t0.5000", "frequency\t21-50\t0\t0.0000",
            "frequency\t>50\t0\t0.0000",
            "prior\t<=0.01\t0\t0.0000", "prior\t0.01-0.03\t0\t0.0000",
            "prior\t0.03-0.1\t0\t0.0000", "prior\t0.1-0.3\t1\t0.0000",
            "prior\t>0.3\t4\t0.5000"]


STAGE_COMMANDS = {
    "generate-synthetic": [],
    "train-embeddings": [],
    "select-candidates": [],
    "train-local": [],
    "train-global": [],
    "predict": ["--model", "unused.model"],
}
# every command that builds an ExperimentConfig, with its required flags
CONFIG_COMMANDS = {**STAGE_COMMANDS, "run-experiment": [],
                   "sweep": ["--param", "t", "--values", "5"]}


class TestStageConfig:
    """The stage commands read the experiment config and nothing else."""

    def test_no_stage_flag_sets_a_config_field(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        config_fields = {f.name for f in fields(ExperimentConfig)}
        for name in STAGE_COMMANDS:
            dests = {a.dest for a in commands[name]._actions}
            assert {"config", "set"} <= dests, name
            assert not dests & config_fields, (name, dests & config_fields)
        # a corpus file's content gives its format, and the embedding
        # stage's sample counts are constants
        removed = {"--corpus-format", "--positives", "--negatives"}
        for name, command in commands.items():
            flags = {flag for a in command._actions for flag in a.option_strings}
            assert not flags & removed, (name, flags & removed)

    def test_inputs_come_from_the_config_data_dir(self, bench, tmp_path, monkeypatch,
                                                  capsys):
        # a stage command reads the data directory of its config: --set, then
        # the config file, then --data-dir, then $ENTLINK_DATA_DIR; a path
        # flag still names its own file
        _, data, entities = bench
        missing = str(tmp_path / "missing")
        good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
        good.write_text(f"data_dir = {data}\n")
        bad.write_text(f"data_dir = {missing}\n")
        monkeypatch.delenv("ENTLINK_DATA_DIR", raising=False)

        def select(global_args, command_args, env=None):
            if env:
                monkeypatch.setenv("ENTLINK_DATA_DIR", env)
            out = tmp_path / "cands.tsv"
            out.unlink(missing_ok=True)
            code = main([*global_args, "select-candidates", "--entities", str(entities),
                         "--out", str(out), *command_args])
            monkeypatch.delenv("ENTLINK_DATA_DIR", raising=False)
            err = capsys.readouterr().err
            return code, out.read_bytes() if code == 0 else err

        code, expected = select([], ["--word-vectors", str(data / "word_vectors.txt"),
                                     "--prior", str(data / "prior.tsv"),
                                     "--corpus", str(data / "corpus_test.jsonl")])
        assert code == 0
        for global_args, command_args, env in (
                ([], ["--config", str(good)], None),
                ([], ["--set", f"data_dir={data}"], None),
                ([], ["--config", str(bad), "--set", f"data_dir={data}"], missing),
                (["--data-dir", missing], ["--config", str(good)], None),
                (["--data-dir", str(data)], [], missing),
                ([], [], str(data))):
            assert select(global_args, command_args, env) == (0, expected), \
                (global_args, command_args, env)
        code, err = select(["--data-dir", str(data)],
                           ["--config", str(good), "--set", f"data_dir={missing}"])
        assert code == 2 and missing in err
        code, err = select([], [])
        assert code == 1 and "missing --word-vectors and no data directory" in err
        # train-embeddings reads its word vectors and counts the same way
        trained = []
        for config, argv in ((good, []),
                             (bad, ["--word-vectors", str(data / "word_vectors.txt"),
                                    "--counts", str(data / "counts.tsv")])):
            trained.append(tmp_path / f"{config.stem}.txt")
            assert main(["train-embeddings", "--config", str(config), "--set",
                         "embed_iters=20", "--out", str(trained[-1]), *argv]) == 0
        assert trained[0].read_bytes() == trained[1].read_bytes()

    @pytest.mark.parametrize("command", list(CONFIG_COMMANDS))
    def test_bad_setting_exits_1(self, command, tmp_path, capsys):
        # checked before any file is read, so no input is needed: a negative
        # seed before numpy's seeding sees it, a non-finite float before a
        # training step compares it
        argv = [command, *CONFIG_COMMANDS[command], "--out", str(tmp_path / "out")]
        for setting, message in (("nope=1", "unknown config key 'nope'"),
                                 ("k=many", "bad value for 'k': expected int, got 'many'"),
                                 ("seed=-1", "seed must be non-negative, got -1"),
                                 ("gamma=nan", "bad value for 'gamma': expected float, got 'nan'"),
                                 ("local_lr=inf",
                                  "bad value for 'local_lr': expected float, got 'inf'")):
            assert main([*argv, "--set", setting]) == 1, setting
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, message", [
        ("delta=0", "damping must be in (0, 1], got 0.0"),
        ("t=0", "layer count must be >= 1, got 0"),
        ("local_r=0", "r must be at least 1, got 0"),
        ("global_r=0", "r must be at least 1, got 0"),
        ("gamma=0", "gamma must be positive, got 0.0"),
        ("local_lr=0", "learning_rate must be positive, got 0.0"),
        ("global_lr=-1", "learning_rate must be positive, got -1.0"),
        ("local_epochs=-1", "epochs must be nonnegative, got -1"),
        ("patience=0", "patience must be at least 1, got 0"),
        ("embed_gamma=0", "gamma must be positive, got 0.0"),
        ("embed_lr=0", "learning_rate must be positive, got 0.0"),
        ("embed_iters=-1", "description_iters must be nonnegative, got -1"),
        ("alpha=1", "smoothing exponent must be in (0,1), got 1.0"),
        ("s=0", "candidate budget must be positive, got 0")])
    def test_range_refusal_names_the_config_key(self, setting, message, tmp_path, capsys):
        # a stage constructor names its own field; the config names the key set
        key = setting.split("=")[0]
        assert main(["run-experiment", "--set", setting, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: bad value for {key!r}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_default_training_is_the_experiment_fit(self, bench, tmp_path):
        # with no --set, train-local and train-global write the models that
        # experiment.fit trains from ExperimentConfig() on the same inputs
        _, data, entities = bench
        for split, n_docs in (("train", 4), ("validation", 2)):
            lines = (data / f"corpus_{split}.jsonl").read_text().splitlines()[:n_docs]
            (tmp_path / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
        cfg = ExperimentConfig()
        for stage in ("train-local", "train-global"):
            out = tmp_path / f"{stage}.model"
            assert main(["--data-dir", str(data), stage, "--entities", str(entities),
                         "--train", str(tmp_path / "train.jsonl"),
                         "--val", str(tmp_path / "validation.jsonl"),
                         "--out", str(out)]) == 0
            store = load_word_vectors(str(data / "word_vectors.txt"))
            load_entity_vectors(str(entities), store)
            prior = load_prior(str(data / "prior.tsv"), store.entity_vocab)
            store.sync_entities()
            corpora = {split: load_corpus(str(tmp_path / f"{split}.jsonl"))
                       for split in ("train", "validation")}
            select_all_candidates(cfg, corpora.values(), store, prior)
            params, history = fit(cfg, stage, store, corpora)
            expected = tmp_path / f"{stage}.expected"
            save_model(str(expected), params, extra={"gamma": cfg.gamma, "seed": cfg.seed,
                                                     "epochs_run": history.epochs_run})
            assert out.read_bytes() == expected.read_bytes(), stage

    def test_config_file_and_set_lines_agree(self, bench, tmp_path):
        # a key set in the file or by --set gives the same bytes, and --set
        # wins over the file
        _, data, entities = bench
        settings = {"kb_size": "32", "vocab_size": "300", "n_docs": "12",
                    "mentions_per_doc": "3", "dim": "8", "seed": "4"}
        config, other = tmp_path / "exp.ini", tmp_path / "other.ini"
        config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        other.write_text(config.read_text().replace("seed = 4", "seed = 9"))
        set_lines = [arg for k, v in settings.items() for arg in ("--set", f"{k}={v}")]
        for name, argv in (("file", ["--config", str(config)]),
                           ("set", set_lines),
                           ("both", ["--config", str(other), "--set", "seed=4"])):
            assert main(["generate-synthetic", "--out", str(tmp_path / name), *argv]) == 0
        files = sorted(p.name for p in (tmp_path / "file").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "set").iterdir())
        for name in files:
            assert ((tmp_path / "file" / name).read_bytes()
                    == (tmp_path / "set" / name).read_bytes()
                    == (tmp_path / "both" / name).read_bytes()), name
        train = {"k": "30", "local_epochs": "2", "local_r": "6", "eval_every": "1"}
        config.write_text("".join(f"{k} = {v}\n" for k, v in train.items()))
        models = []
        for name, argv in (("file", ["--config", str(config)]),
                           ("set", [arg for k, v in train.items()
                                    for arg in ("--set", f"{k}={v}")])):
            models.append(tmp_path / f"{name}.model")
            assert main(["--data-dir", str(data), "train-local", "--entities",
                         str(entities), "--out", str(models[-1]), *argv]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()
        assert load_model(str(models[0])).k == 30


class TestBuildPrior:
    def test_merge_sources(self, tmp_path, capsys):
        counts = tmp_path / "c.tsv"
        counts.write_text("m\tE0\t3\nm\tE1\t1\n")
        uniform = tmp_path / "u.tsv"
        uniform.write_text("m\tE1\nm\tE2\n")
        out = tmp_path / "prior.tsv"
        assert main(["build-prior", "--count-index", str(counts),
                     "--uniform-index", str(uniform), "--out", str(out)]) == 0
        rows = dict()
        for line in out.read_text().splitlines():
            mention, entity, p = line.split("\t")
            rows[entity] = float(p)
        assert rows["E0"] == pytest.approx(0.375)
        assert rows["E1"] == pytest.approx(0.375)
        assert rows["E2"] == pytest.approx(0.25)


class TestBinaryEntityVectors:
    def test_binary_entities_beside_text_word_vectors(self, bench, tmp_path, capsys):
        # each reader takes the format from the file, so the entity vectors
        # train-embeddings writes in binary load beside the directory's text
        # word vectors: candidates, both trainers, joint predictions, scores
        _, data, _ = bench
        entities, local, joint, preds = (tmp_path / n for n in (
            "entities.bin", "local.model", "global.model", "preds.tsv"))
        assert main(["train-embeddings", "--word-vectors", str(data / "word_vectors.txt"),
                     "--counts", str(data / "counts.tsv"), "--out", str(entities),
                     "--out-format", "binary", "--set", "embed_iters=60",
                     "--link-iterations", "0"]) == 0
        assert entities.read_bytes()[:6] == b"EVEC" + struct.pack("<H", 2)
        common = ["--entities", str(entities), "--set", "k=30", "--set", "local_epochs=3",
                  "--set", "global_epochs=3", "--set", "eval_every=1"]
        for argv in (["select-candidates", "--entities", str(entities),
                      "--out", str(tmp_path / "cands.tsv")],
                     ["train-local", *common, "--out", str(local)],
                     ["train-global", *common, "--set", "t=3", "--out", str(joint)],
                     ["predict", "--model", str(joint), "--entities", str(entities),
                      "--out", str(preds)],
                     ["evaluate", "--predictions", str(preds)]):
            assert main(["--data-dir", str(data), *argv]) == 0, argv
        out = capsys.readouterr().out
        assert "trained global model: epochs=3" in out
        assert isinstance(load_model(str(joint)), GlobalParams)
        n_mentions = sum(len(json.loads(line)["mentions"]) for line in
                         (data / "corpus_test.jsonl").read_text().splitlines())
        assert f"annotated {n_mentions} mentions" in out
        assert f"gold_mentions={n_mentions} predicted={n_mentions}" in out


class TestSelectCandidates:
    def test_candidate_file(self, bench, tmp_path, capsys):
        tmp, data, entities = bench
        out = tmp_path / "cands.tsv"
        assert main(["--data-dir", str(data), "select-candidates",
                     "--entities", str(entities), "--corpus",
                     str(data / "corpus_test.jsonl"), "--out", str(out),
                     "--set", "k=30"]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "doc\tmention\tentity\tprior\treason"
        assert rows
        reasons = {r.split("\t")[4] for r in rows}
        assert reasons <= {"prior-top", "context-top"}

    @pytest.mark.parametrize("key", ["prior_top", "context_top"])
    def test_negative_share_exit_1(self, bench, tmp_path, capsys, key):
        tmp, data, entities = bench
        assert main(["--data-dir", str(data), "select-candidates",
                     "--entities", str(entities), "--corpus",
                     str(data / "corpus_test.jsonl"), "--out",
                     str(tmp_path / "cands.tsv"), "--set", f"{key}=-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be non-negative" in err


    def test_persons_short_mention_inherits_containing_mention(self, tmp_path,
                                                               capsys):
        # "Peter" and "Peter Such" both name persons first, so with --persons
        # the one-token mention takes the two-token mention's candidate set
        (tmp_path / "words.txt").write_text(
            "3 2\nbowled 1 0\nwhile 0 1\nwatched 0.6 0.8\n")
        (tmp_path / "prior.tsv").write_text(
            "Peter Such\tPeter_Such\t0.9\nPeter Such\tSuch_Town\t0.1\n"
            "Peter\tPeter_Pan\t0.8\nPeter\tPeter_Such\t0.2\n")
        (tmp_path / "persons.tsv").write_text(
            "Peter_Such\t1\nPeter_Pan\t1\nSuch_Town\t0\n")
        (tmp_path / "corpus.jsonl").write_text(
            '{"id": "d0", "tokens": ["Peter", "Such", "bowled", "while", "Peter",'
            ' "watched"], "mentions": [{"start": 0, "end": 2, "surface": "Peter Such"},'
            ' {"start": 4, "end": 5, "surface": "Peter"}]}\n')
        base = ["select-candidates", "--word-vectors", str(tmp_path / "words.txt"),
                "--prior", str(tmp_path / "prior.tsv"),
                "--corpus", str(tmp_path / "corpus.jsonl")]
        rows = {}
        for name, extra in (("plain", []),
                            ("merged", ["--persons", str(tmp_path / "persons.tsv")])):
            out = tmp_path / f"{name}.tsv"
            assert main(base + ["--out", str(out)] + extra) == 0
            rows[name] = [line.split("\t")[:4]
                          for line in out.read_text().splitlines()[1:]]
        long_rows = [["d0", "0", "Peter_Such", "0.900000"],
                     ["d0", "0", "Such_Town", "0.100000"]]
        assert rows["plain"] == long_rows + [["d0", "1", "Peter_Pan", "0.800000"],
                                             ["d0", "1", "Peter_Such", "0.200000"]]
        assert rows["merged"] == long_rows + [["d0", "1", *r[2:]] for r in long_rows]


class TestInspectNeighbors:
    def test_output_sorted(self, bench, capsys):
        tmp, data, entities = bench
        assert main(["inspect-neighbors", "--entities", str(entities),
                     "--word-vectors", str(data / "word_vectors.txt"),
                     "--entity", "E000", "--k", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        sims = [float(line.split("\t")[1]) for line in out]
        assert sims == sorted(sims, reverse=True)
        assert len(sims) == 5

    def test_unknown_entity_exit_1(self, bench, capsys):
        tmp, data, entities = bench
        assert main(["inspect-neighbors", "--entities", str(entities),
                     "--word-vectors", str(data / "word_vectors.txt"),
                     "--entity", "NOPE"]) == 1

    def test_k_below_one_exits_1(self, bench, capsys):
        tmp, data, entities = bench
        for k in ("0", "-3"):
            assert main(["inspect-neighbors", "--entities", str(entities),
                         "--word-vectors", str(data / "word_vectors.txt"),
                         "--entity", "E000", "--k", k]) == 1
            assert capsys.readouterr().err == f"error: --k must be at least 1, got {k}\n"

    def test_min_freq_keeps_the_words_the_freq_table_counts_often_enough(
            self, bench, tmp_path, capsys):
        # a word the table leaves out counts 0 and a word's last row wins;
        # the words kept print the lines they print unfiltered, in order
        tmp, data, entities = bench
        argv = ["inspect-neighbors", "--entities", str(entities),
                "--word-vectors", str(data / "word_vectors.txt"), "--entity", "E000",
                "--k", "5"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        top = [line.split("\t")[0] for line in lines]
        freq = tmp_path / "freq.tsv"
        freq.write_text(f"{top[0]}\t9\n{top[1]}\t7\n{top[3]}\t3\n{top[0]}\t1\n"
                        "not_a_word\t50\n")
        assert main([*argv, "--freq", str(freq), "--min-freq", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [lines[1], lines[3]]
        assert main([*argv, "--freq", str(freq)]) == 0
        assert capsys.readouterr().out.splitlines() == lines
        # with no table every word counts 0, so a positive floor is refused
        assert main([*argv, "--min-freq", "1"]) == 1
        assert capsys.readouterr().err == ("error: --min-freq 1 needs --freq: without a "
                                           "frequency table every word counts 0\n")
        freq.write_text(f"{top[0]}\t9\n{top[1]}\t-7\n")
        assert main([*argv, "--freq", str(freq), "--min-freq", "3"]) == 1
        assert capsys.readouterr().err == f"error: {freq}:2: negative count\n"


class TestDataDirEnv:
    def test_env_var_supplies_defaults(self, bench, monkeypatch, capsys):
        tmp, data, entities = bench
        monkeypatch.setenv("ENTLINK_DATA_DIR", str(data))
        assert main(["eval-relatedness", "--entities", str(entities)]) == 0
        out = capsys.readouterr().out
        assert "MAP=" in out

    def test_missing_flag_without_env_is_validation_error(self, bench,
                                                          monkeypatch, capsys):
        _, _, entities = bench
        monkeypatch.delenv("ENTLINK_DATA_DIR", raising=False)
        assert main(["eval-relatedness", "--entities", str(entities)]) == 1
        assert "data directory" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        assert main(["eval-relatedness", "--entities", "/nonexistent/e.txt",
                     "--queries", "/nonexistent/q.tsv"]) == 2

    def test_validation_failure_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a vector file\n")
        assert main(["eval-relatedness", "--entities", str(bad),
                     "--queries", str(bad)]) == 1

    def test_truncated_model_is_validation_error(self, tmp_path):
        # a model cut inside its header: exit 1 with a message, no traceback
        model = tmp_path / "m.model"
        save_model(str(model), LocalParams.init(4, hidden=4))
        model.write_bytes(model.read_bytes()[:10])
        env = dict(os.environ, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "entlink", "predict", "--model", str(model),
             "--entities", str(tmp_path / "e.txt"), "--out", str(tmp_path / "p.tsv")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "truncated model file" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_inputs_exit_one_without_traceback(self, bench, tmp_path):
        # a model whose header sizes exceed the file, one with an attention
        # budget of 0, one with a NaN in A, a model of the wrong dimension, a
        # joint model whose layer count is 2**30 (hours per document),
        # a binary vector file whose token is not UTF-8, a predictions file
        # with a non-integer mention index, frequency tables with a
        # non-integer count or three columns, a count index with a NaN
        # count, unparsable list flags, and a JSON-lines line that is no object
        _, data, entities = bench
        huge, r0, nan, narrow, deep = (tmp_path / f"{n}.model"
                                       for n in ("huge", "r0", "nan", "narrow", "deep"))
        for path in (huge, r0, nan):
            save_model(str(path), LocalParams.init(12, hidden=4))
        save_model(str(deep), GlobalParams.init(12, hidden=4))
        for path, offset, value in ((huge, 11, 2 ** 31), (r0, 19, 0), (deep, 31, 2 ** 30)):
            raw = bytearray(path.read_bytes())
            struct.pack_into("<I", raw, offset, value)
            path.write_bytes(bytes(raw))
        raw = bytearray(nan.read_bytes())
        struct.pack_into("<d", raw, 23, float("nan"))
        nan.write_bytes(bytes(raw))
        save_model(str(narrow), LocalParams.init(8, hidden=4))
        vectors = tmp_path / "e.bin"
        vectors.write_bytes(b"EVEC" + struct.pack("<HII2fH", 2, 1, 2, 1.0, 0.0, 2) + b"\xff\xfe")
        predict = ["--data-dir", str(data), "predict", "--entities", str(entities),
                   "--out", str(tmp_path / "p.tsv"), "--model"]
        (bad_preds, no_preds, bad_count, three_cols, counts, nan_count,
         array) = (tmp_path / n for n in ("bad_preds.tsv", "no_preds.tsv", "bad_count.tsv",
                                           "three_cols.tsv", "counts.tsv", "nan_count.tsv",
                                           "array.jsonl"))
        bad_preds.write_text("doc\tmention\tentity\nd0\tfirst\tE000\n")
        no_preds.write_text("doc\tmention\tentity\n")
        bad_count.write_text("E000\t3\nE001\tmany\n")
        three_cols.write_text("E000\t3\t1\n")
        counts.write_text("m\tE0\t3\n")
        nan_count.write_text("m\tE0\tnan\n")
        array.write_text("[1, 2]\n")
        breakdown = ["--data-dir", str(data), "breakdown", "--predictions",
                     str(no_preds), "--freq"]
        sweep = ["sweep", "--param", "t", "--out", str(tmp_path / "sweep")]
        cases = [(predict + [str(huge)], "truncated model file"),
                 (predict + [str(r0)], "r must be at least 1"),
                 (predict + [str(nan)], "non-finite parameter"),
                 (predict + [str(narrow)], "model dimension 8 does not match"),
                 (predict + [str(deep)], f"{deep}: layer count must be <= 1000, got {2 ** 30}"),
                 (["--data-dir", str(data), "inspect-neighbors", "--entities", str(vectors),
                   "--entity", "E0"], "not UTF-8"),
                 (["--data-dir", str(data), "evaluate", "--predictions", str(bad_preds)],
                  f"{bad_preds}:2: expected int, got 'first'"),
                 (breakdown + [str(bad_count)], f"{bad_count}:2: bad count"),
                 (breakdown + [str(three_cols)], f"{three_cols}:1: expected"),
                 (["build-prior", "--count-index", str(counts), "--weights", "x",
                   "--out", str(tmp_path / "prior.tsv")], "--weights: expected float"),
                 (["build-prior", "--count-index", str(nan_count), "--out",
                   str(tmp_path / "prior.tsv")], f"{nan_count}:1: bad count: expected float"),
                 (sweep + ["--values", "a"], "--values: expected float"),
                 (sweep + ["--values", "2", "--seeds", "a"], "--seeds: expected int"),
                 (["--data-dir", str(data), "evaluate", "--predictions", str(no_preds),
                   "--corpus", str(array)], f"{array}:1: the line is not an object")]
        env = dict(os.environ, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        for argv, message in cases:
            proc = subprocess.run([sys.executable, "-m", "entlink", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 1, (argv, proc.stderr)
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_document_over_the_joint_budget_exits_1(self, bench, tmp_path, monkeypatch,
                                                     capsys):
        _, data, entities = bench
        joint = tmp_path / "global.model"
        save_model(str(joint), GlobalParams.init(12, hidden=4, k=30, r=8, t=2))
        argv = ["--data-dir", str(data), "predict", "--model", str(joint),
                "--entities", str(entities), "--out", str(tmp_path / "preds.tsv")]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(crf, "JOINT_BYTES", 1000)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: doc '") and " joint stage needs " in err
        assert err.endswith(", over the budget of 1000\n") and err.count("\n") == 1

    def test_out_of_memory_exits_1_naming_the_command(self, monkeypatch, capsys):
        for exc, message in ((MemoryError("Unable to allocate 3.50 GiB"),
                              "error: run-experiment ran out of memory: "
                              "Unable to allocate 3.50 GiB\n"),
                             (MemoryError(), "error: run-experiment ran out of memory\n")):
            def exhausted(cfg, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "run_experiment", exhausted)
            assert main(["run-experiment"]) == 1
            err = capsys.readouterr().err
            assert err == message
            assert "Traceback" not in err

    def test_count_too_large_for_float64_exits_1(self, bench, tmp_path):
        # the 2**53 cap: counts add into float64 word frequencies, and a
        # 400-digit count used to end in an uncaught OverflowError
        _, data, _ = bench
        env = dict(os.environ, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        for count, code in ((2 ** 53, 0), (2 ** 53 + 1, 1), (10 ** 400, 1)):
            counts = tmp_path / "counts.tsv"
            counts.write_text((data / "counts.tsv").read_text() + f"E000\tt0w0\t{count}\n")
            proc = subprocess.run(
                [sys.executable, "-m", "entlink", "train-embeddings", "--word-vectors",
                 str(data / "word_vectors.txt"), "--counts", str(counts), "--out",
                 str(tmp_path / "e.txt"), "--set", "embed_iters=2", "--link-iterations", "0"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == code, (count, proc.stderr)
            assert "Traceback" not in proc.stderr
            if code:
                line = len(counts.read_text().splitlines())
                assert f"{counts}:{line}: count above 2**53" in proc.stderr

    def test_counts_summing_to_2_63_exit_1(self, bench, tmp_path):
        # a pair's counts add up in int64: a file whose counts sum to 2**63
        # or more is refused, naming it; one that stops just below loads
        _, data, _ = bench
        env = dict(os.environ, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        counts, text = tmp_path / "counts.tsv", (data / "counts.tsv").read_text()
        base = sum(int(line.split("\t")[2]) for line in text.splitlines())
        assert base + 1023 * 2 ** 53 < 2 ** 63 <= 1024 * 2 ** 53
        for repeats, code in ((1023, 0), (1024, 1)):
            counts.write_text(text + f"E000\tt0w0\t{2 ** 53}\n" * repeats)
            proc = subprocess.run(
                [sys.executable, "-m", "entlink", "train-embeddings", "--word-vectors",
                 str(data / "word_vectors.txt"), "--counts", str(counts), "--out",
                 str(tmp_path / "e.txt"), "--set", "embed_iters=2", "--link-iterations", "0"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == code, (repeats, proc.stderr)
            assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {counts}: counts sum to 2**63 or more\n"

    def test_repeated_link_pairs_train_as_their_sums(self, bench, tmp_path, capsys):
        # a link-counts file that splits each pair's count over three rows
        # far apart, one of them 0, trains the vectors of the file with one
        # summed row per pair, byte for byte
        _, data, _ = bench
        rows = [line.split("\t") for line in (data / "counts.tsv").read_text().splitlines()]
        counts = [int(c) for _, _, c in rows]

        def lines(column):
            return "".join(f"{e}\t{w}\t{c}\n" for (e, w, _), c in zip(rows, column))

        split, merged = tmp_path / "split.tsv", tmp_path / "merged.tsv"
        split.write_text(lines([1] * len(rows)) + lines([0] * len(rows))
                         + lines([c + 1 for c in counts]))
        merged.write_text(lines([c + 2 for c in counts]))
        runs = []
        for links in (split, merged):
            out = tmp_path / f"{links.stem}.txt"
            assert main(["train-embeddings", "--word-vectors", str(data / "word_vectors.txt"),
                         "--counts", str(data / "counts.tsv"), "--link-counts", str(links),
                         "--queries", str(data / "queries.tsv"), "--out", str(out),
                         "--set", "embed_iters=10", "--link-iterations", "20",
                         "--eval-every", "10"]) == 0
            captured = capsys.readouterr()
            runs.append((out.read_bytes(), captured.out.replace(str(out), "OUT"), captured.err))
        assert runs[0] == runs[1]

    def test_non_utf8_input_names_its_file(self, bench, tmp_path):
        # each text reader names the file, the line and the offset of the
        # first byte that is not UTF-8: a tab-separated table, the config
        # file, a stop-word list, a text vector file and a JSON-lines corpus
        _, data, entities = bench
        preds, config, stop, vectors, corpus = (
            tmp_path / n for n in ("p.tsv", "c.ini", "stop.txt", "v.txt", "c.jsonl"))
        preds.write_bytes(b"doc\tmention\tentity\nd0\t0\tE\xff\n")
        header = tmp_path / "header.tsv"
        header.write_text("doc\tmention\tentity\n")
        config.write_bytes(b"seed = 3\n# caf\xe9\n")
        stop.write_bytes(b"the\n\xfe\n")
        vectors.write_bytes(b"1 2\n\xc3 1 0\n")
        corpus.write_bytes(b'{"id": "d", "tokens": ["\xff"], "mentions": []}\n')
        evaluate = ["--data-dir", str(data), "evaluate", "--predictions"]
        select = ["--data-dir", str(data), "select-candidates", "--entities", str(entities),
                  "--out", str(tmp_path / "out.tsv")]
        cases = [(evaluate + [str(preds)], f"{preds}:2: not valid UTF-8 (byte 0xff at offset 25)"),
                 (["run-experiment", "--config", str(config)],
                  f"{config}:2: not valid UTF-8 (byte 0xe9 at offset 14)"),
                 (select + ["--stopwords", str(stop)],
                  f"{stop}:2: not valid UTF-8 (byte 0xfe at offset 4)"),
                 (["--data-dir", str(data), "inspect-neighbors", "--entities", str(vectors),
                   "--entity", "E0"], f"{vectors}:2: not valid UTF-8 (byte 0xc3 at offset 4)"),
                 (evaluate + [str(header), "--corpus", str(corpus)],
                  f"{corpus}:1: not valid UTF-8 (byte 0xff at offset 24)")]
        env = dict(os.environ, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        for argv, message in cases:
            proc = subprocess.run([sys.executable, "-m", "entlink", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 1, (argv, proc.stderr)
            assert message in proc.stderr, proc.stderr
            assert "Traceback" not in proc.stderr

    def test_doc_id_with_a_tab_is_refused_before_predicting_writes(self, bench, model,
                                                                   tmp_path):
        # JSON-lines allows a tab in a doc id; a predictions row holding it
        # would not read back, so predict exits 1 and writes nothing
        _, data, entities = bench
        lines = (data / "corpus_test.jsonl").read_text().splitlines()
        doc = json.loads(lines[0])
        doc["id"] = "doc\t0"
        corpus = tmp_path / "tab.jsonl"
        corpus.write_text("\n".join([json.dumps(doc), *lines[1:]]) + "\n")
        out = tmp_path / "p.tsv"
        env = dict(os.environ, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "entlink", "--data-dir", str(data), "predict",
             "--model", str(model), "--entities", str(entities), "--corpus", str(corpus),
             "--out", str(out)], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert f"{out}:2: field 'doc' holds a tab" in proc.stderr
        assert r"'doc\t0'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_entity_name_with_a_space_needs_binary_vectors(self, bench, tmp_path):
        # the text vector format splits a row at spaces: an entity named
        # "New York" is refused there before the file is opened, and the
        # binary format stores it for eval-relatedness to read back
        _, data, _ = bench
        counts, queries = tmp_path / "counts.tsv", tmp_path / "queries.tsv"
        for src, dst in ((data / "counts.tsv", counts), (data / "queries.tsv", queries)):
            dst.write_text(src.read_text().replace("E000\t", "New York\t"))
        assert "New York" in queries.read_text()
        env = dict(os.environ, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        train = [sys.executable, "-m", "entlink", "train-embeddings", "--word-vectors",
                 str(data / "word_vectors.txt"), "--counts", str(counts),
                 "--set", "embed_iters=20", "--link-iterations", "0"]
        text = tmp_path / "e.txt"
        proc = subprocess.run(train + ["--out", str(text)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "token 'New York' holds a space" in proc.stderr
        assert "--out-format binary" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not text.exists()
        binary = tmp_path / "e.bin"
        proc = subprocess.run(train + ["--out", str(binary), "--out-format", "binary"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [sys.executable, "-m", "entlink", "eval-relatedness", "--entities", str(binary),
             "--queries", str(queries)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "MAP=" in proc.stdout

    def test_unstorable_entity_name_refused_before_training(self, bench, tmp_path,
                                                             monkeypatch, capsys):
        # the output format's name check runs on the loaded counts, so a
        # name it cannot store costs no training time and writes no file
        _, data, _ = bench
        calls = []
        monkeypatch.setattr(cli, "train_all_entities", lambda *a, **k: calls.append(a))
        for name, out_format, message in (
                ("New York", "text", "token 'New York' holds a space or a line break, "
                                     "which the text format cannot store "
                                     "(use --out-format binary)"),
                ("E" * 70_000, "binary", "token at row 1 ('EEEEEEEEEEEEEEEEEEEE'...) takes "
                                         "70000 bytes of UTF-8; the binary format stores "
                                         "at most 65535")):
            counts = tmp_path / "counts.tsv"
            counts.write_text((data / "counts.tsv").read_text().replace("E000\t", f"{name}\t"))
            out = tmp_path / f"e.{out_format}"
            assert main(["train-embeddings", "--word-vectors", str(data / "word_vectors.txt"),
                         "--counts", str(counts), "--out", str(out),
                         "--out-format", out_format]) == 1
            assert f"error: {out}: {message}" in capsys.readouterr().err
            assert calls == []
            assert not out.exists()

    def test_train_embeddings_rejects_entities_flag(self, bench, capsys):
        # it writes entity vectors and reads none, so it offers no --entities
        _, data, entities = bench
        with pytest.raises(SystemExit) as exit_:
            main(["train-embeddings", "--word-vectors", str(data / "word_vectors.txt"),
                  "--counts", str(data / "counts.tsv"), "--entities", str(entities),
                  "--out", str(data / "unused.txt")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --entities" in capsys.readouterr().err

    def test_train_embeddings_rejects_stopwords_flag(self, bench, capsys):
        # stop words leave context windows, which it builds none of
        _, data, _ = bench
        with pytest.raises(SystemExit) as exit_:
            main(["train-embeddings", "--word-vectors", str(data / "word_vectors.txt"),
                  "--counts", str(data / "counts.tsv"), "--stopwords", str(data / "x"),
                  "--out", str(data / "unused.txt")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --stopwords" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--link-iterations", "-1", "hyperlink_iters must be nonnegative, got -1"),
        ("--eval-every", "0", "eval_every must be positive, got 0"),
        ("--patience", "0", "patience must be positive, got 0")])
    def test_train_embeddings_refusal_names_the_flag(self, bench, tmp_path, capsys,
                                                     flag, value, message):
        _, data, _ = bench
        out = tmp_path / "e.txt"
        assert main(["train-embeddings", "--word-vectors", str(data / "word_vectors.txt"),
                     "--counts", str(data / "counts.tsv"), "--out", str(out),
                     flag, value]) == 1
        assert capsys.readouterr().err == f"error: bad value for {flag}: {message}\n"
        assert not out.exists()


class TestRunExperimentCli:
    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "kb_size = 40\nvocab_size = 600\nn_docs = 30\n"
            "mentions_per_doc = 4\nembed_iters = 100\nlocal_epochs = 4\n"
            "global_epochs = 3\npatience = 10\nt = 3\ndim = 12\nk = 30\n"
            "ctx_per_side = 5\nseed = 2\n")
        out = tmp_path / "run"
        assert main(["run-experiment", "--config", str(cfg),
                     "--set", "seed=3", "--out", str(out)]) == 0
        assert (out / "metrics.tsv").exists()
        text = capsys.readouterr().out
        assert "global/test" in text

    def test_data_directory_fills_an_unset_data_dir(self, tmp_path, monkeypatch):
        # --data-dir, else $ENTLINK_DATA_DIR, unless the config file or --set
        # names a data_dir
        config = tmp_path / "exp.ini"
        config.write_text("data_dir = from-file\n")

        def data_dir(*argv):
            return cli._experiment_config(cli.build_parser().parse_args(argv)).data_dir

        monkeypatch.delenv("ENTLINK_DATA_DIR", raising=False)
        assert data_dir("run-experiment") == ""
        assert data_dir("--data-dir", "flag", "sweep", "--param", "t", "--values", "2",
                        "--out", "o") == "flag"
        monkeypatch.setenv("ENTLINK_DATA_DIR", "env")
        assert data_dir("run-experiment") == "env"
        assert data_dir("--data-dir", "flag", "run-experiment") == "flag"
        assert data_dir("--data-dir", "flag", "run-experiment", "--config",
                        str(config)) == "from-file"
        assert data_dir("--data-dir", "flag", "run-experiment", "--config", str(config),
                        "--set", "data_dir=set") == "set"

    def test_missing_data_directory_is_io_error_naming_the_stage(self, tmp_path):
        # however the directory is named, run-experiment and sweep exit 2
        missing = tmp_path / "missing"
        env = dict(os.environ, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        env.pop("ENTLINK_DATA_DIR", None)
        sweep = ["sweep", "--param", "t", "--values", "2", "--out", str(tmp_path / "sweep")]
        run = ["run-experiment", "--out", str(tmp_path / "run")]
        cases = [(run + ["--set", f"data_dir={missing}"], {}),
                 (["--data-dir", str(missing), *run], {}),
                 (sweep + ["--set", f"data_dir={missing}"], {}),
                 (sweep, {"ENTLINK_DATA_DIR": str(missing)})]
        for argv, extra in cases:
            proc = subprocess.run([sys.executable, "-m", "entlink", *argv],
                                  capture_output=True, text=True, env={**env, **extra},
                                  timeout=120)
            assert proc.returncode == 2, (argv, proc.stderr)
            assert proc.stderr.startswith("i/o error: stage generate failed: ")
            assert str(missing) in proc.stderr
            assert "Traceback" not in proc.stderr
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("setting", ["delta=0", "t=0", "t=1000000000", "s=0",
                                         "prior_top=-1", "context_top=-1"])
    def test_bad_experiment_config_fails_before_any_stage(self, tmp_path, capsys,
                                                          setting):
        out = tmp_path / "run"
        assert main(["run-experiment", "--set", setting, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "stage" not in err
        assert not out.exists()


class TestSweepCli:
    def test_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", "t", "--values", "2,4",
                     "--seeds", "4", "--out", str(out),
                     "--set", "kb_size=40", "--set", "vocab_size=600",
                     "--set", "n_docs=24", "--set", "mentions_per_doc=4",
                     "--set", "embed_iters=80", "--set", "global_epochs=3",
                     "--set", "local_epochs=2", "--set", "dim=12",
                     "--set", "k=30", "--set", "ctx_per_side=5",
                     "--set", "patience=10"]) == 0
        assert (out / "sweep.tsv").exists()
        assert (out / "sweep.svg").exists()
        lines = (out / "sweep.tsv").read_text().splitlines()
        assert lines[0].startswith("t\t")
        assert len(lines) == 3


class TestLauncher:
    PROBE = ("import os, runpy, sys\n"
             "import entlink.launch\n"
             "loaded_early = 'numpy' in sys.modules\n"
             "sys.argv = ['entlink', '--help']\n"
             "try:\n"
             "    runpy.run_module('entlink', run_name='__main__')\n"
             "except SystemExit:\n"
             "    pass\n"
             "print(loaded_early, 'numpy' in sys.modules, *(os.environ.get(name, '-') for name in\n"
             "      ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))\n")

    def probe(self, **settings):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env.update(settings, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    def test_unset_blas_threads_become_one(self):
        # the launcher loads no numpy, so its settings precede numpy's import
        assert self.probe() == ["False", "True", "1", "1", "1"]

    def test_user_thread_setting_wins(self):
        assert self.probe(OPENBLAS_NUM_THREADS="3", MKL_NUM_THREADS="2") == [
            "False", "True", "3", "1", "2"]

    def test_console_script_uses_launcher(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(entlink.__file__).parents[2] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"entlink": "entlink.launch:main"}
