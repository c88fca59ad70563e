"""CLI: subcommand round trips, exit codes, file plumbing."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import entlink
from entlink.attention import LocalParams, predict_local
from entlink.cli import main
from entlink.docs import build_context_windows, load_corpus, resolve_gold
from entlink.model_io import load_model, save_model
from entlink.priors import load_prior, select_candidates
from entlink.vectors import load_entity_vectors, load_word_vectors


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """A small generated benchmark plus trained entity vectors."""
    tmp = tmp_path_factory.mktemp("cli")
    data = tmp / "data"
    assert main(["generate-synthetic", "--out", str(data), "--kb-size", "40",
                 "--vocab-size", "600", "--docs", "40", "--mentions-per-doc",
                 "4", "--dim", "12", "--seed", "5"]) == 0
    entities = tmp / "entities.txt"
    assert main(["train-embeddings", "--word-vectors",
                 str(data / "word_vectors.txt"), "--counts",
                 str(data / "counts.tsv"), "--out", str(entities),
                 "--iterations", "150", "--link-iterations", "0"]) == 0
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
                         "--iterations", "30", "--link-iterations", "25",
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
                 str(entities), "--out", str(path), "--k", "30", "--r",
                 "8", "--lr", "0.05", "--epochs", "8", "--patience",
                 "10"]) == 0
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


    def test_predict_takes_k_from_the_model(self, bench, model, tmp_path):
        # the model was trained with --k 30, so predict's output is the local
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


class TestSelectCandidates:
    def test_candidate_file(self, bench, tmp_path, capsys):
        tmp, data, entities = bench
        out = tmp_path / "cands.tsv"
        assert main(["--data-dir", str(data), "select-candidates",
                     "--entities", str(entities), "--corpus",
                     str(data / "corpus_test.jsonl"), "--out", str(out),
                     "--k", "30"]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "doc\tmention\tentity\tprior\treason"
        assert rows
        reasons = {r.split("\t")[4] for r in rows}
        assert reasons <= {"prior-top", "context-top"}

    @pytest.mark.parametrize("flag", ["--prior-top", "--context-top"])
    def test_negative_share_exit_1(self, bench, tmp_path, capsys, flag):
        tmp, data, entities = bench
        assert main(["--data-dir", str(data), "select-candidates",
                     "--entities", str(entities), "--corpus",
                     str(data / "corpus_test.jsonl"), "--out",
                     str(tmp_path / "cands.tsv"), flag, "-1"]) == 1
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
        # budget of 0, one with a NaN in A, a model of the wrong dimension,
        # a binary vector file whose token is not UTF-8, a predictions file
        # with a non-integer mention index, frequency tables with a
        # non-integer count or three columns, a count index with a NaN
        # count, unparsable list flags, and a JSON-lines line that is no object
        _, data, entities = bench
        huge, r0, nan, narrow = (tmp_path / f"{n}.model"
                                 for n in ("huge", "r0", "nan", "narrow"))
        for path in (huge, r0, nan):
            save_model(str(path), LocalParams.init(12, hidden=4))
        for path, offset, value in ((huge, 11, 2 ** 31), (r0, 19, 0)):
            raw = bytearray(path.read_bytes())
            struct.pack_into("<I", raw, offset, value)
            path.write_bytes(bytes(raw))
        raw = bytearray(nan.read_bytes())
        struct.pack_into("<d", raw, 23, float("nan"))
        nan.write_bytes(bytes(raw))
        save_model(str(narrow), LocalParams.init(8, hidden=4))
        vectors = tmp_path / "e.bin"
        vectors.write_bytes(b"EVEC" + struct.pack("<HIIH", 1, 1, 2, 2) + b"\xff\xfe"
                            + struct.pack("<2f", 1.0, 0.0))
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
                 (["inspect-neighbors", "--entities", str(vectors), "--vector-format",
                   "binary", "--entity", "E0"], "not UTF-8"),
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
                 (["inspect-neighbors", "--entities", str(vectors), "--entity", "E0"],
                  f"{vectors}:2: not valid UTF-8 (byte 0xc3 at offset 4)"),
                 (evaluate + [str(header), "--corpus", str(corpus)],
                  f"{corpus}:1: not valid UTF-8 (byte 0xff at offset 24)")]
        env = dict(os.environ, PYTHONPATH=str(Path(entlink.__file__).parent.parent))
        for argv, message in cases:
            proc = subprocess.run([sys.executable, "-m", "entlink", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 1, (argv, proc.stderr)
            assert message in proc.stderr, proc.stderr
            assert "Traceback" not in proc.stderr

    def test_train_embeddings_rejects_entities_flag(self, bench, capsys):
        # it writes entity vectors and reads none, so it offers no --entities
        _, data, entities = bench
        with pytest.raises(SystemExit) as exit_:
            main(["train-embeddings", "--word-vectors", str(data / "word_vectors.txt"),
                  "--counts", str(data / "counts.tsv"), "--entities", str(entities),
                  "--out", str(data / "unused.txt")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --entities" in capsys.readouterr().err

    def test_grad_check_subcommand(self, capsys):
        assert main(["grad-check", "--instances", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out


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

    @pytest.mark.parametrize("setting", ["delta=0", "t=0", "s=0", "prior_top=-1",
                                         "context_top=-1"])
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
