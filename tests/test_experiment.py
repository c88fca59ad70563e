"""Experiment orchestration: determinism, artifacts, attention dump, config."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from columntext import write_column_text

from entlink import experiment as pipeline
from entlink.docs import load_corpus
from entlink.errors import ValidationError
from entlink.experiment import (
    ExperimentConfig,
    StageFailure,
    f_monotonicity_probe,
    line_plot_svg,
    parse_config_file,
    run_experiment,
    run_sweep,
    synthetic_spec_from,
)
from entlink.synthetic import DATA_FILES, generate_synthetic, write_synthetic
from entlink.vectors import read_vectors, save_vectors_binary


# the artifacts a seeded run must reproduce byte for byte, in digest order
BYTE_IDENTICAL = ("metrics.tsv", "attention.tsv", "breakdown.tsv", "report.txt",
                  "local.model", "global.model", "history.tsv")
# SHA-256 of those artifacts of the seed-11 `fast_config` run, concatenated
GOLDEN_DIGEST = "d68b3db72909e0e10e6a39992806c97887afc4c1285500744e7743c076e7ce3f"


def fast_config(tmp_path, name, **kwargs):
    base = dict(
        seed=11, out_dir=str(tmp_path / name),
        kb_size=80, vocab_size=800, n_docs=60, mentions_per_doc=4,
        embed_iters=200, local_epochs=10, global_epochs=8, patience=10,
        eval_every=5, t=5, dim=12, k=30, ctx_per_side=6,
        weak_context_rate=0.1,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exp")
    cfg = fast_config(tmp, "run1")
    metrics = run_experiment(cfg)
    return tmp, cfg, metrics


class TestRunExperiment:
    def test_metrics_structure(self, experiment):
        _, _, metrics = experiment
        for section in ("prior/test", "local/test", "global/test",
                        "embeddings/relatedness", "data/test"):
            assert section in metrics
        assert metrics["data/test"]["gold_recall"] == 1.0

    def test_models_beat_prior(self, experiment):
        _, _, metrics = experiment
        assert metrics["local/test"]["accuracy"] > metrics["prior/test"]["accuracy"]

    def test_artifacts_written(self, experiment):
        _, cfg, _ = experiment
        out = Path(cfg.out_dir)
        for name in ("metrics.tsv", "report.txt", "attention.tsv",
                     "breakdown.tsv", "local.model", "global.model",
                     "local.model.json", "global.model.json"):
            assert (out / name).exists(), name

    def test_history_schema(self, experiment):
        # one row per model and epoch run, epochs counted from 1
        _, cfg, _ = experiment
        lines = (Path(cfg.out_dir) / "history.tsv").read_text().splitlines()
        assert lines[0] == "model\tepoch\tmean_loss\tval_accuracy\tlr_dropped"
        rows = [line.split("\t") for line in lines[1:]]
        assert all(len(row) == 5 for row in rows)
        for model, cap in (("local", cfg.local_epochs), ("global", cfg.global_epochs)):
            mine = [row for row in rows if row[0] == model]
            assert 1 <= len(mine) <= cap
            assert [int(row[1]) for row in mine] == list(range(1, len(mine) + 1))
            for _, _, loss, val, dropped in mine:
                assert float(loss) >= 0.0 and 0.0 <= float(val) <= 1.0
            drops = [int(row[4]) for row in mine]
            assert set(drops) <= {0, 1} and drops == sorted(drops)
        assert len(rows) == sum(row[0] in ("local", "global") for row in rows)

    def test_rerun_is_byte_identical(self, experiment):
        tmp, cfg, _ = experiment
        from dataclasses import replace

        cfg2 = replace(cfg, out_dir=str(tmp / "run2"))
        run_experiment(cfg2)
        for name in BYTE_IDENTICAL:
            a = (Path(cfg.out_dir) / name).read_bytes()
            b = (Path(cfg2.out_dir) / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_golden_digest(self, experiment):
        """The seeded run's artifacts hash to the committed digest, so a
        change that moves any byte of them shows here, not only against a
        second run of the same tree.  A change that moves the digest on
        purpose must say why in CHANGES.md, and commit the new digest."""
        _, cfg, _ = experiment
        digest = hashlib.sha256()
        for name in BYTE_IDENTICAL:
            digest.update((Path(cfg.out_dir) / name).read_bytes())
        assert digest.hexdigest() == GOLDEN_DIGEST

    def test_attention_rows_strictly_descending(self, experiment):
        _, cfg, _ = experiment
        lines = (Path(cfg.out_dir) / "attention.tsv").read_text().splitlines()[1:]
        assert lines
        for line in lines:
            words = line.split("\t")[-1].split()
            weights = [float(w.rsplit(":", 1)[1]) for w in words]
            assert all(weights[i] > weights[i + 1]
                       for i in range(len(weights) - 1))

    def test_attention_predictions_match_predict_local(self, experiment):
        # the predicted column is the local model's prediction on the test
        # split, rebuilt here from the same seed and the saved local model
        _, cfg, _ = experiment
        from entlink.attention import predict_local
        from entlink.experiment import prepare
        from entlink.model_io import load_model

        prepared = prepare(cfg)
        local = load_model(str(Path(cfg.out_dir) / "local.model"))
        store = prepared.store
        want = {}
        for doc in prepared.corpora["test"]:
            for idx, pred in enumerate(predict_local(doc, local, store)):
                if doc.mentions[idx].candidates and doc.mentions[idx].context:
                    want[(doc.doc_id, idx)] = store.entity_vocab.token(pred)
        lines = (Path(cfg.out_dir) / "attention.tsv").read_text().splitlines()[1:]
        got = {(parts[0], int(parts[1])): parts[5]
               for parts in (line.split("\t") for line in lines)}
        assert got == want

    def test_monotonicity_probe_recorded(self, experiment):
        # informative only: the combination network's shape is learned,
        # so the rate is reported, not enforced
        _, _, metrics = experiment
        rate = metrics["fprobe/local"]["monotone_fraction"]
        print(f"\nf monotonicity probe: {rate:.3f} of grid points non-decreasing")
        assert 0.0 <= rate <= 1.0

    def test_attended_words_hit_gold_signature(self, experiment):
        # correctly solved low-prior mentions should attend to at least one
        # signature word of the gold entity in nearly every case
        _, cfg, _ = experiment
        data = generate_synthetic(synthetic_spec_from(cfg))
        store = data.store
        sig_tokens = {
            store.entity_vocab.token(e): {store.word_vocab.token(w)
                                          for w in words}
            for e, words in data.signatures.items()}
        hits = total = 0
        lines = (Path(cfg.out_dir) / "attention.tsv").read_text().splitlines()[1:]
        for line in lines:
            parts = line.split("\t")
            gold, gold_prior, correct = parts[3], float(parts[4]), parts[6]
            if correct != "1" or gold_prior > 0.2:
                continue
            attended = {w.rsplit(":", 1)[0] for w in parts[7].split()}
            total += 1
            hits += int(bool(attended & sig_tokens[gold]))
        assert total >= 10, "fixture produced too few low-prior solved cases"
        rate = hits / total
        print(f"\nsignature-word hit rate on {total} low-prior solved "
              f"mentions: {rate:.3f}")
        assert rate >= 0.9

    def test_trained_f_lets_strong_beliefs_override_prior(self, experiment):
        # learned combination shape: on constructed instances where one
        # candidate holds a > 0.9 belief but a low prior, the trained
        # network should rank it first in the majority of cases
        _, cfg, _ = experiment
        from entlink.attention import combine_f, floored_log_prior
        from entlink.model_io import load_model

        params = load_model(str(Path(cfg.out_dir) / "global.model"))
        rng = np.random.default_rng(5)
        followed = cases = 0
        for _ in range(200):
            s = 4
            confident = int(rng.integers(s))
            m = rng.uniform(0.91, 0.98)
            mu = np.zeros(s)
            mu[confident] = m
            rest = [i for i in range(s) if i != confident]
            mu[rest] = rng.dirichlet(np.ones(s - 1)) * (1.0 - m)
            priors = np.zeros(s)
            priors[confident] = rng.uniform(0.03, 0.12)
            priors[rest] = rng.dirichlet(np.ones(s - 1) * 0.5) * (1.0 - priors[confident])
            logp = np.array([floored_log_prior(p) for p in priors])
            rho = combine_f(params.local.fnet, mu, logp)
            cases += 1
            followed += int(int(np.argmax(rho)) == confident)
        rate = followed / cases
        print(f"\nbelief-over-prior rate on {cases} constructed cases: {rate:.3f}")
        assert rate > 0.5


class TestConfig:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("# comment\nseed = 7\nkb_size = 100\n\nt= 5\n")
        cfg = ExperimentConfig.from_dict({**parse_config_file(str(path)), "seed": "9"})
        assert cfg.seed == 9
        assert cfg.kb_size == 100
        assert cfg.t == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("mystery = 1\n")
        with pytest.raises(ValidationError, match="unknown config key"):
            ExperimentConfig.from_dict(parse_config_file(str(path)))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("just a line\n")
        with pytest.raises(ValidationError, match="key = value"):
            parse_config_file(str(path))

    def test_stage_failure_names_stage(self, tmp_path):
        cfg = fast_config(tmp_path, "bad", data_dir=str(tmp_path / "missing"))
        with pytest.raises((StageFailure, OSError)) as err:
            run_experiment(cfg)
        if isinstance(err.value, StageFailure):
            assert "stage generate" in str(err.value)

    def test_data_directory_run_buckets_as_the_in_memory_run(self, tmp_path):
        # the directory's entity_freq.tsv gives the frequency axis, so a run
        # on a written benchmark counts its test mentions per bucket as the
        # in-memory run of the same spec does
        cfg = fast_config(tmp_path, "memory", seed=3, n_docs=40, kb_size=80,
                          local_epochs=2, global_epochs=2)
        data = tmp_path / "data"
        write_synthetic(generate_synthetic(synthetic_spec_from(cfg)), str(data))
        run_experiment(cfg)
        run_experiment(replace(cfg, data_dir=str(data), out_dir=str(tmp_path / "directory")))

        def frequency_counts(run):
            rows = (tmp_path / run / "breakdown.tsv").read_text().splitlines()[1:]
            return [(bucket, int(count)) for axis, bucket, count, _ in
                    (row.split("\t") for row in rows) if axis == "frequency"]

        assert frequency_counts("directory") == frequency_counts("memory")
        assert sum(count for _, count in frequency_counts("memory")) > 0

    def test_data_directory_word_vectors_in_either_format(self, tmp_path):
        cfg = fast_config(tmp_path, "run", seed=3, n_docs=20, kb_size=40,
                          data_dir=str(tmp_path / "data"))
        write_synthetic(generate_synthetic(synthetic_spec_from(cfg)), cfg.data_dir)
        path = Path(cfg.data_dir) / "word_vectors.txt"
        text = pipeline._load_or_generate(cfg).store
        names, rows = read_vectors(str(path))
        save_vectors_binary(str(path), names, rows)  # same name, binary content
        binary = pipeline._load_or_generate(cfg).store
        assert binary.word_vocab.tokens() == text.word_vocab.tokens() == names
        np.testing.assert_allclose(binary.word_matrix(), text.word_matrix(), atol=1e-6)
        assert binary.entity_vocab.tokens() == text.entity_vocab.tokens()

    def test_data_directory_corpora_in_either_format(self, tmp_path):
        # each corpus file's content gives its format, so the directory's
        # three corpora rewritten as column text under their own names give
        # the same artifacts
        cfg = fast_config(tmp_path, "json", seed=3, n_docs=20, kb_size=40,
                          local_epochs=2, global_epochs=2, data_dir=str(tmp_path / "data"))
        write_synthetic(generate_synthetic(synthetic_spec_from(cfg)), cfg.data_dir)
        run_experiment(cfg)
        for split in ("train", "validation", "test"):
            path = Path(cfg.data_dir) / DATA_FILES[split]
            write_column_text(path, load_corpus(str(path)))
            assert not path.read_text().startswith("{")
        run_experiment(replace(cfg, out_dir=str(tmp_path / "columns")))
        for name in BYTE_IDENTICAL:
            assert ((tmp_path / "json" / name).read_bytes()
                    == (tmp_path / "columns" / name).read_bytes()), name

    def test_alpha_reaches_the_synthetic_embeddings(self, tmp_path):
        # the negative law's smoothing exponent is the config's on the
        # generated path too, and an exponent outside (0, 1) is refused
        def entity_matrix(alpha):
            cfg = fast_config(tmp_path, "run", kb_size=40, vocab_size=400, n_docs=20,
                              embed_iters=50, alpha=alpha)
            prepared = pipeline._load_or_generate(cfg)
            pipeline._train_embeddings(cfg, prepared)
            return prepared.store.entity_matrix()

        low, mid, high = (entity_matrix(a) for a in (0.3, 0.6, 0.9))
        assert not np.array_equal(low, mid)
        assert not np.array_equal(mid, high)
        with pytest.raises(ValidationError, match="smoothing exponent"):
            ExperimentConfig(alpha=1.0)

    @pytest.mark.parametrize("key", ["gamma", "local_lr", "global_lr", "embed_lr",
                                     "embed_gamma"])
    def test_nan_is_refused_in_a_config_built_in_python(self, key):
        # from_dict refuses a non-finite float as it parses it; a config
        # built from Python values reaches the stage constructors' checks
        with pytest.raises(ValidationError,
                           match=rf"^bad value for '{key}': \w+ must be positive, got nan$"):
            ExperimentConfig(**{key: float("nan")})

    def test_overlapping_split_ids_rejected(self, tmp_path):
        from entlink.experiment import _check_disjoint_splits
        from entlink.docs import Corpus, Document

        corpora = {
            "train": Corpus([Document(doc_id="d1", tokens=["a"])]),
            "test": Corpus([Document(doc_id="d1", tokens=["b"])]),
        }
        with pytest.raises(ValidationError, match="both"):
            _check_disjoint_splits(corpora)


class TestSweep:
    def test_local_r_sweep_shape(self, tmp_path, monkeypatch):
        cfg = fast_config(tmp_path, "sweep", local_epochs=6, global_epochs=4)
        calls = []
        prepare = pipeline.prepare
        monkeypatch.setattr(pipeline, "prepare",
                            lambda sub: calls.append(sub) or prepare(sub))
        rows = run_sweep(cfg, "local_r", [5, 30], seeds=[11])
        assert len(calls) == 1     # local_r is read by `fit` alone
        assert [row["value"] for row in rows] == [5, 30]
        for row in rows:
            assert 0.0 <= row["mean"] <= 1.0
            alone = run_sweep(cfg, "local_r", [row["value"]], seeds=[11])
            assert alone[0]["accuracies"] == row["accuracies"]

    def test_non_integral_value_for_integer_param_rejected(self, tmp_path):
        cfg = fast_config(tmp_path, "sweepint")
        with pytest.raises(ValidationError, match="t takes integers, got 2.5"):
            run_sweep(cfg, "t", [3, 2.5], seeds=[11])

    def test_unknown_param_rejected(self, tmp_path):
        cfg = fast_config(tmp_path, "sweepbad")
        with pytest.raises(ValidationError, match="cannot sweep"):
            run_sweep(cfg, "nonsense", [1], seeds=[0])


class TestPlot:
    def test_svg_deterministic(self):
        a = line_plot_svg([1, 2, 5], [0.5, 0.7, 0.71], "t", "accuracy")
        b = line_plot_svg([1, 2, 5], [0.5, 0.7, 0.71], "t", "accuracy")
        assert a == b
        assert a.startswith("<svg")
        assert "polyline" in a

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            line_plot_svg([], [], "x", "y")


def test_attention_dump_skips_empty_context():
    # a mention without context words attends to nothing and gets no row
    from entlink.attention import LocalParams
    from entlink.docs import Corpus, Document, Mention
    from entlink.experiment import attention_dump
    from entlink.priors import Candidate
    from entlink.vectors import EmbeddingStore

    rng = np.random.default_rng(3)
    store = EmbeddingStore(4)
    store.add_words(["w0", "w1"], rng.normal(size=(2, 4)))
    vecs = rng.normal(size=(2, 4))
    store.add_entities(["E0", "E1"], vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
    mentions = [Mention(start=k, end=k + 1, surface=f"M{k}", gold="E0", gold_id=0,
                        candidates=[Candidate(0, 0.6, "prior-top"),
                                    Candidate(1, 0.4, "prior-top")],
                        context=context)
                for k, context in enumerate(([0, 1], [], [1]))]
    doc = Document(doc_id="d", tokens=["M0", "M1", "M2"], mentions=mentions)
    rows = attention_dump(Corpus([doc]), LocalParams.init(4, hidden=8, k=4, r=2), store)
    assert [row["mention"] for row in rows] == [0, 2]
    assert all(row["words"] for row in rows)


def test_probe_on_additive_network_is_monotone():
    from entlink.attention import LocalParams

    params = LocalParams.init(8, hidden=16)
    assert f_monotonicity_probe(params) == 1.0
