"""Alias sampling, hinge objective, lockstep entity training, relatedness."""

import re
from dataclasses import replace

import numpy as np
import pytest
from embedoracles import (
    check_entity_norms,
    empirical_objective,
    hinge_embed,
    reference_laws,
    reference_rows,
    reference_table,
    restricted,
    train_entity,
)
from scipy import stats

from entlink import embed_train
from entlink.embed_train import (
    AliasSampler,
    CooccurrenceCounts,
    CountTable,
    EmbedTrainConfig,
    RelatednessQuery,
    average_precision,
    entity_rng,
    eval_relatedness,
    load_counts_file,
    load_relatedness_queries,
    ndcg_at_k,
    train_all_entities,
)
from entlink.errors import ValidationError
from entlink.vectors import EmbeddingStore
from entlink.vocab import Vocab


def make_store(n_words=30, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim)
    for i in range(n_words):
        v = rng.normal(size=dim)
        store.add_words([f"w{i}"], [v / np.linalg.norm(v)])
    return store


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


def table(rows):
    """The count table of `(entity, word, count)` rows."""
    return CountTable.of(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def as_dict(table):
    """Entity -> (word -> count) of a count table."""
    out = {}
    for e, w, c in zip(table.entity.tolist(), table.word.tolist(), table.count.tolist()):
        out.setdefault(e, {})[w] = c
    return out


def cluster_counts(store, entity_words, hyperlink=()):
    """Count 5 of each entity's words in the description table, the
    `hyperlink` rows in the other."""
    rows = [(e, w, 5) for e, words in entity_words.items() for w in words]
    counts = CooccurrenceCounts(store.n_words, table(rows), table(hyperlink))
    # broad background frequency: negatives must cover the whole vocabulary
    # rather than concentrating on each entity's own positives
    counts.word_freq += 20.0
    return counts


class TestTrainEntity:
    def test_unit_norm_after_every_update(self):
        store = make_store()
        store.add_entities(["E"], [np.eye(8)[0]])
        counts = cluster_counts(store, {0: [0, 1, 2]})
        cfg = EmbedTrainConfig(description_iters=25, seed=3)
        z = train_entity(0, counts, cfg, store)
        assert abs(np.linalg.norm(z) - 1.0) < 1e-6
        check_entity_norms(store)

    def test_zero_iterations_keeps_normalized_init(self):
        store = make_store()
        store.add_entities(["E"], [np.eye(8)[0]])
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
        store.add_entities(["E"], [np.eye(8)[0]])
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
        # no counts at all: reported as skipped, its row left as it was
        store = make_store()
        store.add_entities(["E"], [np.eye(8)[0]])
        counts = CooccurrenceCounts(n_words=store.n_words)
        assert train_all_entities(counts, EmbedTrainConfig(), store) == [0]
        np.testing.assert_array_equal(store.entity_vec(0), np.eye(8)[0])

    def test_order_independence(self):
        # per-entity rng streams: training order cannot change the vectors
        def run(order):
            store = make_store(seed=2)
            for i in range(3):
                store.add_entities([f"E{i}"], [np.eye(8)[i]])
            counts = cluster_counts(store, {0: [0, 1], 1: [2, 3], 2: [4, 5]})
            cfg = EmbedTrainConfig(description_iters=50, seed=11)
            for e in order:
                train_entity(e, counts, cfg, store)
            return store.entity_matrix().copy()

        np.testing.assert_array_equal(run([0, 1, 2]), run([2, 0, 1]))

    def test_objective_trend_decreasing(self):
        # the vector after 60·i steps: an entity's stream depends only on
        # (seed, entity, iteration), so each fit continues the previous one
        store = make_store(n_words=40, seed=6)
        store.add_entities(["E"], [np.eye(8)[0]])
        counts = cluster_counts(store, {0: [0, 1, 2, 3]})
        cfg = EmbedTrainConfig(seed=4)
        checkpoints = [empirical_objective(0, train_entity(0, counts, cfg, store, iters=60 * i),
                                           counts, cfg, store.word_matrix())
                       for i in range(7)]
        xs = np.arange(len(checkpoints))
        slope = np.polyfit(xs, checkpoints, 1)[0]
        assert slope < 0
        assert checkpoints[-1] < checkpoints[0]


class TestCountTable:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_counter_oracle(self, seed):
        # repeated pairs, zero counts, rows in shuffled order and entities
        # with no rows, over vocabularies from 1 word (neighbouring entities
        # share their only word) up: the table is the oracle's rows, and
        # every entity's law has the oracle's words, thresholds and aliases
        rng = np.random.default_rng(seed)
        n, n_words = int(rng.integers(1, 400)), 1 + seed * 3
        rows = np.column_stack([rng.integers(0, 30, n), rng.integers(0, n_words, n),
                                rng.integers(0, 4, n) * rng.integers(0, 2, n)])
        rows = np.concatenate([rows, rows[rng.integers(0, n, n // 3)]])  # repeats
        rows = rows[rng.permutation(len(rows))]
        ref = reference_table(rows.tolist())
        got = CountTable.of(rows[:, 0], rows[:, 1], rows[:, 2])
        assert list(zip(got.entity.tolist(), got.word.tolist(), got.count.tolist())) \
            == reference_rows(ref)
        assert all(column.dtype == np.int64 for column in (got.entity, got.word, got.count))
        drawn = [e for e in rng.permutation(30).tolist() if sum(ref.get(e, {}).values()) > 0]
        words, sampler = got.positive_sampler(drawn)
        ref_words, ref_weights = reference_laws(ref, drawn)
        oracle = AliasSampler(*ref_weights)
        np.testing.assert_array_equal(words, ref_words)
        for name in ("size", "offset", "threshold", "alias"):
            np.testing.assert_array_equal(getattr(sampler, name), getattr(oracle, name))
        absent = next(e for e in range(31) if e not in ref)
        with pytest.raises(ValidationError, match=f"entity {absent} has no counts"):
            got.positive_sampler([*drawn, absent])

    def test_empty_and_negative(self):
        empty = CountTable.of()
        assert empty.entity.size == empty.word.size == empty.count.size == 0
        np.testing.assert_array_equal(CooccurrenceCounts(3).word_freq, [0.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="counts must be nonnegative"):
            CountTable.of([0, 1], [2, 3], [1, -1])


class TestNegativeSampling:
    def test_alias_matches_target_distribution(self):
        rng = np.random.default_rng(0)
        weights = np.array([5.0, 1.0, 3.0, 1.0])
        sampler = AliasSampler(weights)
        draws = sampler.lookup(rng.random(100_000))
        observed = np.bincount(draws, minlength=4)
        expected = weights / weights.sum() * draws.size
        _, p = stats.chisquare(observed, expected)
        assert p > 1e-3

    def test_negative_distribution_is_smoothed_unigram(self):
        # q(w) proportional to p(w)**0.6, checked over 1e5 draws
        counts = CooccurrenceCounts(n_words=6)
        freqs = np.array([100.0, 50.0, 20.0, 10.0, 5.0, 1.0])
        counts.word_freq += freqs
        words, sampler = counts.negative_sampler(0.6)
        rng = np.random.default_rng(7)
        draws = words[sampler.lookup(rng.random(100_000))]
        observed = np.bincount(draws, minlength=6)
        q = freqs ** 0.6
        expected = q / q.sum() * draws.size
        _, p = stats.chisquare(observed, expected)
        assert p > 1e-3


class TestAliasLookup:
    @pytest.mark.parametrize("weights", [[5.0, 1.0, 3.0, 1.0], [0.0, 2.0, 0.0, 1.0, 7.0],
                                         [4.0], [0.0, 0.0, 3.0], [1e-3, 1.0, 1e3]])
    def test_frequencies_within_four_sigma(self, weights):
        # a zero weight is never drawn and a single outcome always is
        w = np.asarray(weights)
        n = 200_000
        draws = AliasSampler(w).lookup(np.random.default_rng(17).random(n))
        observed = np.bincount(draws, minlength=w.size)
        assert observed.size == w.size
        p = w / w.sum()
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(observed - n * p) <= 4 * sigma), (observed, n * p)

    def test_flat_laws_stay_in_their_cells(self):
        laws = [np.array([1.0, 3.0]), np.array([0.0, 0.0, 5.0]), np.array([2.0, 2.0, 1.0, 0.0])]
        sampler = AliasSampler(*laws)
        n = 200_000
        u = np.random.default_rng(5).random((len(laws), n))
        cells = sampler.lookup(u, np.arange(len(laws))[:, None])
        for i, w in enumerate(laws):
            lo = sampler.offset[i]
            assert np.all((cells[i] >= lo) & (cells[i] < lo + w.size))
            observed = np.bincount(cells[i] - lo, minlength=w.size)
            p = w / w.sum()
            assert np.all(np.abs(observed - n * p) <= 4 * np.sqrt(n * p * (1 - p)))

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 1000, 99_991])
    def test_largest_uniform_maps_to_last_cell(self, size):
        top = np.nextafter(1.0, 0.0)
        sampler = AliasSampler(np.ones(size), np.arange(1.0, size + 1))
        cells = sampler.lookup(np.array([top, top, 0.0]), np.array([0, 1, 1]))
        assert cells[0] == size - 1                    # uniform law: no alias
        assert size <= cells[1] < 2 * size
        assert cells[2] >= size                        # law 1 starts at its offset

    def test_bad_weights_rejected(self):
        for weights in ([], [0.0, 0.0], [1.0, -1.0]):
            with pytest.raises(ValidationError):
                AliasSampler(np.array(weights))


class TestRelatedness:
    def _store_with_entities(self):
        store = make_store(n_words=4, dim=4, seed=1)
        vecs = np.eye(4)
        for i in range(4):
            store.add_entities([f"E{i}"], [vecs[i]])
        return store

    def test_perfect_ranking(self):
        store = make_store(n_words=2, dim=4)
        store.add_entities(["T"], [np.eye(4)[0]])
        store.add_entities(["P"], [np.eye(4)[0]])   # cosine 1 with target
        store.add_entities(["N"], [np.eye(4)[1]])   # cosine 0
        q = RelatednessQuery(target=0, candidates=[(1, 1), (2, 0)])
        res = eval_relatedness([q], store)
        assert res.ndcg1 == res.ndcg5 == res.ndcg10 == res.map == 1.0
        assert res.validation_score == pytest.approx(4.0)

    def test_single_relevant_at_rank_two(self):
        # one relevant at rank 2 of 2: MAP = 0.5, NDCG@1 = 0
        store = make_store(n_words=2, dim=4)
        store.add_entities(["T"], [np.eye(4)[0]])
        store.add_entities(["N"], [np.eye(4)[0]])   # irrelevant but ranked first
        store.add_entities(["P"], [np.eye(4)[1]])   # relevant, ranked second
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
        store.add_entities(["T"], [np.eye(4)[0]])
        store.add_entities(["P"], [np.eye(4)[0]])
        store.add_entities(["N"], [np.eye(4)[1]])
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
            store.add_entities([f"E{i}"], [np.eye(8)[i]])
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
        store.add_entities(["A"], [np.eye(8)[0]])
        store.add_entities(["B"], [np.eye(8)[1]])
        counts = cluster_counts(store, {0: [0, 1]})
        messages = []
        skipped = train_all_entities(counts, EmbedTrainConfig(description_iters=10),
                                     store, log=messages.append)
        assert skipped == [1]
        assert any("untrainable" in m for m in messages)

    def test_zero_count_source_is_skipped(self):
        # a counts file may hold zero counts: that source has no law to draw
        # from, and the entity trains on its other source alone
        store = make_store(n_words=6, dim=8)
        store.add_entities(["A"], [np.eye(8)[0]])
        counts = CooccurrenceCounts(store.n_words, table([(0, 1, 0)]), table([(0, 2, 3)]))
        counts.word_freq += 20.0
        cfg = EmbedTrainConfig(description_iters=5, hyperlink_iters=5, seed=1)
        assert train_all_entities(counts, cfg, store) == []
        assert not np.array_equal(store.entity_vec(0), np.eye(8)[0])
        check_entity_norms(store)


def linked_counts(store):
    """Description and hyperlink counts for three entities."""
    links = [(e, w, 3) for e, words in {0: [1, 9], 1: [4, 10, 11], 2: [7, 12]}.items()
             for w in words]
    return cluster_counts(store, {0: [0, 1, 2], 1: [3, 4, 5], 2: [6, 7, 8]}, hyperlink=links)


LINKED = EmbedTrainConfig(description_iters=40, hyperlink_iters=30, eval_every=7, seed=11)


def fit_groups(groups, cfg=LINKED, validation=None, log=None):
    """Entity matrix after training each group of entities in turn."""
    store = make_store(seed=2)
    for i in range(3):
        store.add_entities([f"E{i}"], [np.eye(8)[i]])
    counts = linked_counts(store)
    for group in groups:
        train_all_entities(restricted(counts, group), cfg, store,
                           validation=validation, log=log)
    return store.entity_matrix().copy()


class TestLockstep:
    def test_batch_membership_and_order(self):
        together = fit_groups([[0, 1, 2]])
        assert not np.array_equal(together[:, :3], np.eye(8)[:3, :3])
        np.testing.assert_array_equal(fit_groups([[0], [1], [2]]), together)
        np.testing.assert_array_equal(fit_groups([[2], [1], [0]]), together)

    def test_block_size_and_draw_chunks(self, monkeypatch):
        together = fit_groups([[0, 1, 2]])
        monkeypatch.setattr(embed_train, "BLOCK_BYTES", 1)      # one entity per block
        np.testing.assert_array_equal(fit_groups([[0, 1, 2]]), together)
        monkeypatch.setattr(embed_train, "CHUNK_ITERS", 3)      # uniforms drawn 3 steps at a time
        np.testing.assert_array_equal(fit_groups([[0, 1, 2]]), together)

    def test_last_round_runs_only_the_remainder(self):
        # without validation queries the rounds only split the steps
        def fit(iters, every):
            return fit_groups([[0, 1, 2]], replace(LINKED, hyperlink_iters=iters,
                                                   eval_every=every))

        ref = fit(120, 120)
        for every in (7, 50):
            np.testing.assert_array_equal(fit(120, every), ref)
        assert not np.array_equal(fit(150, 50), ref)

    def test_validation_rounds_logged(self):
        queries = [RelatednessQuery(target=0, candidates=[(1, 1), (2, 0)]),
                   RelatednessQuery(target=1, candidates=[(2, 1), (0, 0)])]
        messages = []
        cfg = replace(LINKED, patience=10)
        fit_groups([[0, 1, 2]], cfg, validation=queries, log=messages.append)
        rounds = [m for m in messages if m.startswith("hyperlink round")]
        assert len(rounds) == 5                            # 7 + 7 + 7 + 7 + 2 steps
        best, bad = -np.inf, 0
        for r, line in enumerate(rounds, 1):
            got = re.fullmatch(r"hyperlink round (\d+): relatedness (\S+), "
                               r"best (\S+), bad rounds (\d+)/10", line)
            assert got, line
            score = float(got[2])
            bad = 0 if score > best else bad + 1
            best = max(best, score)
            assert int(got[1]) == r
            assert got[3] == f"{best:.4f}"
            assert int(got[4]) == bad

class TestFileFormats:
    def test_counts_round_trip(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("E0\tw0\t3\nE0\tw1\t1\nE1\tw2\t2\n")
        store = make_store(n_words=3)
        entities = Vocab()
        counts = as_dict(load_counts_file(str(path), store.word_vocab, entities))
        assert counts[entities.id("E0")][0] == 3
        assert counts[entities.id("E1")][2] == 2

    def test_bad_counts_row(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("E0\tw0\n")
        with pytest.raises(ValidationError, match=":1"):
            load_counts_file(str(path), Vocab(), Vocab())

    def test_link_counts_join_the_hyperlink_table_of_the_same_counts(self, tmp_path):
        # a second file is the hyperlink table of the same counts, and both
        # tables add to the one word frequency array; a bad row anywhere in
        # it leaves the entities as they were
        desc, links, bad = (tmp_path / name for name in ("desc.tsv", "links.tsv", "bad.tsv"))
        desc.write_text("E0\tw0\t3\nE1\tw2\t2\n")
        links.write_text("E2\tw0\t4\nE0\tw1\t1\nE0\tgone\t9\n")
        bad.write_text("E3\tw0\t1\nE3\tw1\t-1\n")
        store = make_store(n_words=3)
        entities = Vocab()
        description = load_counts_file(str(desc), store.word_vocab, entities)
        with pytest.raises(ValidationError, match=":2: negative count"):
            load_counts_file(str(bad), store.word_vocab, entities)
        assert entities.tokens() == ["E0", "E1"]
        counts = CooccurrenceCounts(store.n_words, description)
        assert as_dict(counts.hyperlink) == {}
        np.testing.assert_array_equal(counts.word_freq, [3.0, 0.0, 2.0])
        counts = CooccurrenceCounts(store.n_words, description,
                                    load_counts_file(str(links), store.word_vocab, entities))
        assert entities.tokens() == ["E0", "E1", "E2"]
        assert as_dict(counts.description) == {0: {0: 3}, 1: {2: 2}}
        assert as_dict(counts.hyperlink) == {2: {0: 4}, 0: {1: 1}}
        np.testing.assert_array_equal(counts.word_freq, [7.0, 1.0, 2.0])

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
