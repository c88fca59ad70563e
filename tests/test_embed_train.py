"""Co-occurrence ingestion, hinge objective, per-entity training, relatedness."""

import numpy as np
import pytest
from scipy import stats

from entlink.embed_train import (
    AliasSampler,
    CooccurrenceCounts,
    EmbedTrainConfig,
    RelatednessQuery,
    average_precision,
    empirical_objective,
    entity_rng,
    eval_relatedness,
    hinge_embed,
    ingest_counts,
    load_counts_file,
    load_relatedness_queries,
    ndcg_at_k,
    train_all_entities,
    train_entity,
)
from entlink.errors import ValidationError
from entlink.vectors import EmbeddingStore
from entlink.vocab import Vocab


def make_store(n_words=30, dim=8, seed=0, stop=()):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim, word_vocab=Vocab(stop_words=frozenset(stop)))
    for i in range(n_words):
        v = rng.normal(size=dim)
        store.add_word(f"w{i}", v / np.linalg.norm(v))
    return store


class TestIngestCounts:
    def test_description_counting(self):
        store = make_store(5)
        entities = Vocab()
        counts, untrainable = ingest_counts(
            {"E": ["w0", "w1", "w0"]}, [], window=2,
            vocab=store.word_vocab, entities=entities)
        e = entities.id("E")
        assert counts.description[e][0] == 2
        assert counts.description[e][1] == 1
        assert untrainable == []

    def test_hyperlink_window_enumeration(self):
        # window=2 around the anchor: exactly two tokens each side
        store = make_store(10)
        entities = Vocab()
        tokens = ["w0", "w1", "w2", "w3", "w4", "w5", "w6"]
        counts, _ = ingest_counts({}, [("E", tokens, 3)], window=2,
                                  vocab=store.word_vocab, entities=entities)
        e = entities.id("E")
        assert dict(counts.hyperlink[e]) == {1: 1, 2: 1, 4: 1, 5: 1}

    def test_window_truncated_at_bounds(self):
        store = make_store(10)
        entities = Vocab()
        counts, _ = ingest_counts({}, [("E", ["w0", "w1", "w2"], 0)], window=5,
                                  vocab=store.word_vocab, entities=entities)
        e = entities.id("E")
        assert dict(counts.hyperlink[e]) == {1: 1, 2: 1}

    def test_stop_words_excluded(self):
        store = make_store(5, stop=("w1",))
        entities = Vocab()
        counts, _ = ingest_counts({"E": ["w0", "w1", "w2"]}, [], window=2,
                                  vocab=store.word_vocab, entities=entities)
        e = entities.id("E")
        assert 1 not in counts.description[e]
        assert set(counts.description[e]) == {0, 2}

    def test_unknown_tokens_skipped(self):
        store = make_store(3)
        entities = Vocab()
        counts, _ = ingest_counts({"E": ["w0", "mystery"]}, [], window=2,
                                  vocab=store.word_vocab, entities=entities)
        assert set(counts.description[entities.id("E")]) == {0}

    def test_zero_token_entity_flagged(self):
        store = make_store(3, stop=("w0",))
        entities = Vocab()
        _, untrainable = ingest_counts({"E": ["w0", "nope"]}, [], window=2,
                                       vocab=store.word_vocab, entities=entities)
        assert untrainable == ["E"]


class TestHinge:
    def test_margin_satisfied(self):
        z = np.array([1.0, 0.0])
        assert hinge_embed(z, np.array([0.5, 0.0]), np.array([0.0, 0.0]), 0.1) == 0.0

    def test_zero_separation(self):
        z = np.array([1.0, 0.0])
        x = np.array([0.3, 0.4])
        assert hinge_embed(z, x, x, 0.1) == pytest.approx(0.1)

    def test_negative_separation(self):
        # <z, pos - neg> = -0.2, gamma = 0.1 -> 0.3
        z = np.array([1.0, 0.0])
        pos = np.array([0.1, 0.0])
        neg = np.array([0.3, 0.0])
        assert hinge_embed(z, pos, neg, 0.1) == pytest.approx(0.3)


def cluster_counts(store, entity_words, alpha=0.6):
    counts = CooccurrenceCounts(n_words=store.n_words, alpha=alpha)
    # broad background frequency: negatives must cover the whole vocabulary
    # rather than concentrating on each entity's own positives
    counts.word_freq += 20.0
    for e, words in entity_words.items():
        for w in words:
            counts.add(counts.description, e, w, 5)
    return counts


class TestTrainEntity:
    def test_unit_norm_after_every_update(self):
        store = make_store()
        store.add_entity("E", np.eye(8)[0])
        counts = cluster_counts(store, {0: [0, 1, 2]})
        cfg = EmbedTrainConfig(description_iters=25, seed=3)
        z = train_entity(0, counts, cfg, store)
        assert abs(np.linalg.norm(z) - 1.0) < 1e-6
        store.check_entity_norms()

    def test_zero_iterations_keeps_normalized_init(self):
        store = make_store()
        store.add_entity("E", np.eye(8)[0])
        counts = cluster_counts(store, {0: [0, 1]})
        cfg = EmbedTrainConfig(description_iters=0, seed=3)
        z = train_entity(0, counts, cfg, store)
        rng = entity_rng(3, 0)
        expected = rng.normal(size=8)
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(z, expected)

    def test_cluster_pull(self):
        # positives drawn only from a word cluster: the entity lands nearer
        # that cluster's mean than the rest of the vocabulary's
        store = make_store(n_words=40, seed=5)
        store.add_entity("E", np.eye(8)[0])
        cluster = [0, 1, 2, 3]
        counts = cluster_counts(store, {0: cluster})
        cfg = EmbedTrainConfig(description_iters=300, seed=8)
        z = train_entity(0, counts, cfg, store)
        mat = store.word_matrix()
        in_mean = mat[cluster].mean(axis=0)
        out_mean = mat[[i for i in range(40) if i not in cluster]].mean(axis=0)
        cos_in = np.dot(z, in_mean) / np.linalg.norm(in_mean)
        cos_out = np.dot(z, out_mean) / np.linalg.norm(out_mean)
        assert cos_in > cos_out

    def test_untrainable_entity_rejected(self):
        store = make_store()
        store.add_entity("E", np.eye(8)[0])
        counts = CooccurrenceCounts(n_words=store.n_words)
        with pytest.raises(ValidationError, match="untrainable"):
            train_entity(0, counts, EmbedTrainConfig(), store)

    def test_order_independence(self):
        # per-entity rng streams: training order cannot change the vectors
        def run(order):
            store = make_store(seed=2)
            for i in range(3):
                store.add_entity(f"E{i}", np.eye(8)[i])
            counts = cluster_counts(store, {0: [0, 1], 1: [2, 3], 2: [4, 5]})
            cfg = EmbedTrainConfig(description_iters=50, seed=11)
            for e in order:
                train_entity(e, counts, cfg, store)
            return store.entity_matrix().copy()

        np.testing.assert_array_equal(run([0, 1, 2]), run([2, 0, 1]))

    def test_objective_trend_decreasing(self):
        store = make_store(n_words=40, seed=6)
        store.add_entity("E", np.eye(8)[0])
        counts = cluster_counts(store, {0: [0, 1, 2, 3]})
        cfg = EmbedTrainConfig(description_iters=60, seed=4)
        rng = entity_rng(cfg.seed, 0)
        from entlink.embed_train import init_entity_vector
        z = init_entity_vector(rng, store.dim)
        checkpoints = [empirical_objective(0, z, counts, cfg, store.word_matrix())]
        for _ in range(6):
            store.set_entity_vec(0, z)
            z = train_entity(0, counts, cfg, store, iters=60, z=z)
            checkpoints.append(empirical_objective(0, z, counts, cfg, store.word_matrix()))
        xs = np.arange(len(checkpoints))
        slope = np.polyfit(xs, checkpoints, 1)[0]
        assert slope < 0
        assert checkpoints[-1] < checkpoints[0]


class TestNegativeSampling:
    def test_alias_matches_target_distribution(self):
        rng = np.random.default_rng(0)
        weights = np.array([5.0, 1.0, 3.0, 1.0])
        sampler = AliasSampler(weights)
        draws = sampler.draw(rng, 100_000)
        observed = np.bincount(draws, minlength=4)
        expected = weights / weights.sum() * draws.size
        _, p = stats.chisquare(observed, expected)
        assert p > 1e-3

    def test_negative_distribution_is_smoothed_unigram(self):
        # q(w) proportional to p(w)**0.6, checked over 1e5 draws
        counts = CooccurrenceCounts(n_words=6, alpha=0.6)
        freqs = np.array([100.0, 50.0, 20.0, 10.0, 5.0, 1.0])
        counts.word_freq += freqs
        words, sampler = counts.negative_sampler()
        rng = np.random.default_rng(7)
        draws = words[sampler.draw(rng, 100_000)]
        observed = np.bincount(draws, minlength=6)
        q = freqs ** 0.6
        expected = q / q.sum() * draws.size
        _, p = stats.chisquare(observed, expected)
        assert p > 1e-3


class TestRelatedness:
    def _store_with_entities(self):
        store = make_store(n_words=4, dim=4, seed=1)
        vecs = np.eye(4)
        for i in range(4):
            store.add_entity(f"E{i}", vecs[i])
        return store

    def test_perfect_ranking(self):
        store = make_store(n_words=2, dim=4)
        store.add_entity("T", np.eye(4)[0])
        store.add_entity("P", np.eye(4)[0])   # cosine 1 with target
        store.add_entity("N", np.eye(4)[1])   # cosine 0
        q = RelatednessQuery(target=0, candidates=[(1, 1), (2, 0)])
        res = eval_relatedness([q], store)
        assert res.ndcg1 == res.ndcg5 == res.ndcg10 == res.map == 1.0
        assert res.validation_score == pytest.approx(4.0)

    def test_single_relevant_at_rank_two(self):
        # one relevant at rank 2 of 2: MAP = 0.5, NDCG@1 = 0
        store = make_store(n_words=2, dim=4)
        store.add_entity("T", np.eye(4)[0])
        store.add_entity("N", np.eye(4)[0])   # irrelevant but ranked first
        store.add_entity("P", np.eye(4)[1])   # relevant, ranked second
        q = RelatednessQuery(target=0, candidates=[(1, 0), (2, 1)])
        res = eval_relatedness([q], store)
        assert res.map == pytest.approx(0.5)
        assert res.ndcg1 == 0.0

    def test_reversal_improves_map(self):
        rels_bad = np.array([0, 0, 0, 1])
        rels_good = rels_bad[::-1]
        assert average_precision(rels_good) > average_precision(rels_bad)

    def test_unembedded_entities_excluded(self):
        store = make_store(n_words=2, dim=4)
        store.add_entity("T", np.eye(4)[0])
        store.add_entity("P", np.eye(4)[0])
        store.add_entity("N", np.eye(4)[1])
        good = RelatednessQuery(target=0, candidates=[(1, 1), (2, 0)])
        bad = RelatednessQuery(target=0, candidates=[(1, 1), (9, 0)])
        res = eval_relatedness([good, bad], store)
        assert res.n_queries == 1
        assert res.excluded == 1

    def test_ndcg_log2_discount(self):
        # DCG of [0,1] at k=2 is 1/log2(3); ideal is 1/log2(2)
        got = ndcg_at_k(np.array([0, 1]), 2)
        assert got == pytest.approx(np.log2(2.0) / np.log2(3.0))


class TestTrainAll:
    def test_shared_support_separates_topics(self):
        # entities whose positive distributions overlap end up closer to
        # each other than entities trained on disjoint word sets
        store = make_store(n_words=20, dim=8, seed=13)
        for i in range(4):
            store.add_entity(f"E{i}", np.eye(8)[i])
        counts = cluster_counts(store, {0: [0, 1, 2, 3], 1: [2, 3, 4, 5],
                                        2: [10, 11, 12, 13], 3: [12, 13, 14, 15]})
        cfg = EmbedTrainConfig(description_iters=300, seed=21)
        skipped = train_all_entities(counts, cfg, store)
        assert skipped == []
        mat = store.entity_matrix()
        same = np.dot(mat[0], mat[1])
        cross = np.dot(mat[0], mat[2])
        assert same > cross

    def test_skips_untrainable(self):
        store = make_store(n_words=6, dim=8)
        store.add_entity("A", np.eye(8)[0])
        store.add_entity("B", np.eye(8)[1])
        counts = cluster_counts(store, {0: [0, 1]})
        messages = []
        skipped = train_all_entities(counts, EmbedTrainConfig(description_iters=10),
                                     store, log=messages.append)
        assert skipped == [1]
        assert any("untrainable" in m for m in messages)


class TestFileFormats:
    def test_counts_round_trip(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("E0\tw0\t3\nE0\tw1\t1\nE1\tw2\t2\n")
        store = make_store(n_words=3)
        entities = Vocab()
        counts = load_counts_file(str(path), store.word_vocab, entities)
        assert counts.description[entities.id("E0")][0] == 3
        assert counts.description[entities.id("E1")][2] == 2

    def test_bad_counts_row(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("E0\tw0\n")
        with pytest.raises(ValidationError, match=":1"):
            load_counts_file(str(path), Vocab(), Vocab())

    def test_queries_round_trip(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("E0\tE1\t1\nE0\tE2\t0\nE1\tE2\t1\n")
        entities = Vocab()
        for name in ("E0", "E1", "E2"):
            entities.add(name)
        queries = load_relatedness_queries(str(path), entities)
        assert len(queries) == 2
        assert queries[0].target == 0
        assert queries[0].candidates == [(1, 1), (2, 0)]
