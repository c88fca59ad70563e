"""Experiment orchestration: determinism, artifacts, attention dump, config."""

import numpy as np
import pytest

from entlink import experiment as pipeline
from entlink.errors import ValidationError
from entlink.experiment import (
    ExperimentConfig,
    StageFailure,
    f_monotonicity_probe,
    line_plot_svg,
    parse_config_file,
    run_experiment,
    run_sweep,
)


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
        from pathlib import Path

        out = Path(cfg.out_dir)
        for name in ("metrics.tsv", "report.txt", "attention.tsv",
                     "breakdown.tsv", "local.model", "global.model",
                     "local.model.json", "global.model.json"):
            assert (out / name).exists(), name

    def test_rerun_is_byte_identical(self, experiment):
        tmp, cfg, _ = experiment
        from dataclasses import replace
        from pathlib import Path

        cfg2 = replace(cfg, out_dir=str(tmp / "run2"))
        run_experiment(cfg2)
        for name in ("metrics.tsv", "attention.tsv", "breakdown.tsv",
                     "report.txt", "local.model", "global.model"):
            a = (Path(cfg.out_dir) / name).read_bytes()
            b = (Path(cfg2.out_dir) / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_attention_rows_strictly_descending(self, experiment):
        _, cfg, _ = experiment
        from pathlib import Path

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
        from pathlib import Path

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
        from pathlib import Path

        from entlink.experiment import _load_or_generate

        data = _load_or_generate(cfg)
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
        from pathlib import Path

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

    def test_overlapping_split_ids_rejected(self, tmp_path):
        from entlink.experiment import _check_disjoint_splits
        from entlink.docs import Corpus, Document

        corpora = {
            "train": Corpus([Document(doc_id="d1", tokens=["a"])], "train"),
            "test": Corpus([Document(doc_id="d1", tokens=["b"])], "test"),
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


def test_probe_on_additive_network_is_monotone():
    from entlink.attention import LocalParams

    params = LocalParams.init(8, hidden=16)
    assert f_monotonicity_probe(params) == 1.0
