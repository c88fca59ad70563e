"""Prior construction, candidate selection, person coreference, gold recall."""

import numpy as np
import pytest

from entlink.docs import Document, Mention
from entlink.errors import ValidationError
from entlink.priors import (
    Candidate,
    PriorSource,
    build_prior,
    coref_person_merge,
    gold_recall,
    load_count_index,
    load_prior,
    load_uniform_index,
    save_prior,
    select_candidates,
)
from entlink.vectors import EmbeddingStore
from entlink.vocab import Vocab


def entity_store(n_entities=40, dim=6, seed=0, n_words=10):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim)
    for i in range(n_words):
        v = rng.normal(size=dim)
        store.add_word(f"w{i}", v / np.linalg.norm(v))
    for i in range(n_entities):
        v = rng.normal(size=dim)
        store.add_entity(f"E{i}", v / np.linalg.norm(v))
    return store


class TestBuildPrior:
    def test_single_count_source(self):
        src = PriorSource(kind="count", table={"m": [(0, 3.0), (1, 1.0)]})
        prior = build_prior([src])
        assert prior.lookup("m") == [(0, 0.75), (1, 0.25)]

    def test_two_sources_averaged(self):
        a = PriorSource(kind="count", table={"m": [(0, 1.0)]})
        b = PriorSource(kind="count", table={"m": [(0, 1.0), (1, 1.0)]})
        prior = build_prior([a, b])
        got = dict(prior.lookup("m"))
        assert got[0] == pytest.approx(0.75)
        assert got[1] == pytest.approx(0.25)

    def test_uniform_source(self):
        src = PriorSource(kind="uniform", table={"m": [(i, 1.0) for i in range(4)]})
        prior = build_prior([src])
        assert all(p == pytest.approx(0.25) for _, p in prior.lookup("m"))

    def test_zero_count_source_abstains(self):
        a = PriorSource(kind="count", table={"m": [(0, 0.0)]})
        b = PriorSource(kind="count", table={"m": [(1, 2.0)]})
        prior = build_prior([a, b])
        assert prior.lookup("m") == [(1, 1.0)]

    def test_source_weights(self):
        a = PriorSource(kind="count", table={"m": [(0, 1.0)]}, weight=3.0)
        b = PriorSource(kind="count", table={"m": [(1, 1.0)]}, weight=1.0)
        prior = build_prior([a, b])
        got = dict(prior.lookup("m"))
        assert got[0] == pytest.approx(0.75)
        assert got[1] == pytest.approx(0.25)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            sources = []
            for _ in range(rng.integers(1, 4)):
                kind = "count" if rng.random() < 0.7 else "uniform"
                entities = rng.choice(20, size=rng.integers(1, 6), replace=False)
                table = {"m": [(int(e), float(rng.integers(1, 50))) for e in entities]}
                sources.append(PriorSource(kind=kind, table=table))
            prior = build_prior(sources)
            total = sum(p for _, p in prior.lookup("m"))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_lookup_normalizes_whitespace_and_case(self):
        src = PriorSource(kind="count", table={"New York": [(0, 1.0)]})
        prior = build_prior([src])
        assert prior.lookup("  New   York ") == [(0, 1.0)]
        assert prior.lookup("new york") == [(0, 1.0)]
        assert prior.lookup("boston") == []

    def test_case_sensitive_match_wins_over_fallback(self):
        src = PriorSource(kind="count",
                          table={"Apple": [(0, 1.0)], "apple": [(1, 1.0)]})
        prior = build_prior([src])
        assert prior.lookup("Apple") == [(0, 1.0)]
        assert prior.lookup("apple") == [(1, 1.0)]
        # unseen casing averages the variants deterministically
        got = dict(prior.lookup("APPLE"))
        assert got[0] == pytest.approx(0.5)
        assert got[1] == pytest.approx(0.5)


def flat_prior(entries):
    src = PriorSource(kind="count", table={"m": entries})
    return build_prior([src])


class TestSelectCandidates:
    @pytest.mark.parametrize("budget, message", [
        (dict(s=0), "candidate budget must be positive"),
        (dict(prior_top=-1), "prior_top must be non-negative"),
        (dict(context_top=-1), "context_top must be non-negative")])
    def test_bad_budget_rejected(self, budget, message):
        # also for a surface the prior does not know
        store = entity_store()
        prior = flat_prior([(0, 5.0), (1, 3.0)])
        for surface in ("m", "unknown"):
            with pytest.raises(ValidationError, match=message):
                select_candidates(surface, [], prior, store, **budget)

    def test_fewer_than_budget_keeps_all(self):
        store = entity_store()
        prior = flat_prior([(0, 5.0), (1, 3.0), (2, 2.0)])
        got = select_candidates("m", [], prior, store)
        assert [c.entity for c in got] == [0, 1, 2]
        assert all(c.reason == "prior-top" for c in got)

    def test_disjoint_prior_and_context_picks(self):
        # context vector equals entity 10's vector: context ranking puts
        # 10 first; construct sims so the context picks miss the prior top-4
        store = entity_store()
        counts = [(i, float(30 - i)) for i in range(30)]
        prior = flat_prior(counts)
        ctx = store.entity_vec(10).copy()
        store.add_word("ctx", ctx)
        wid = store.word_vocab.id("ctx")
        got = select_candidates("m", [wid], prior, store)
        assert len(got) == 7
        reasons = [c.reason for c in got]
        assert reasons[:4] == ["prior-top"] * 4
        assert reasons[4:] == ["context-top"] * 3
        assert got[4].entity == 10
        entities = [c.entity for c in got]
        assert len(set(entities)) == 7
        for c in got:
            assert c.prior == pytest.approx(prior.prior("m", c.entity))

    def test_context_overlap_promotes_next(self):
        # best context entity already sits in the prior top-4; the next
        # context-ranked entity takes its slot and the set stays at 7
        store = entity_store()
        counts = [(i, float(30 - i)) for i in range(30)]
        prior = flat_prior(counts)
        ctx = store.entity_vec(2).copy()  # entity 2 is already prior-top
        store.add_word("ctx2", ctx)
        wid = store.word_vocab.id("ctx2")
        got = select_candidates("m", [wid], prior, store)
        assert len(got) == 7
        assert len({c.entity for c in got}) == 7
        assert sum(c.reason == "context-top" for c in got) == 3
        assert 2 in [c.entity for c in got][:4]

    def test_missing_mention_yields_empty(self):
        store = entity_store()
        prior = flat_prior([(0, 1.0)])
        assert select_candidates("other", [], prior, store) == []

    def test_deterministic_and_idempotent(self):
        store = entity_store(seed=5)
        counts = [(i, float((i * 7) % 31 + 1)) for i in range(30)]
        prior = flat_prior(counts)
        ctx_words = [0, 1, 2]
        a = select_candidates("m", ctx_words, prior, store)
        b = select_candidates("m", ctx_words, prior, store)
        assert [(c.entity, c.prior, c.reason) for c in a] == \
               [(c.entity, c.prior, c.reason) for c in b]

    def test_growing_budget_keeps_prior_top_choices(self):
        store = entity_store(seed=6)
        counts = [(i, float(30 - i)) for i in range(30)]
        prior = flat_prior(counts)
        small = select_candidates("m", [0, 1], prior, store, s=3)
        large = select_candidates("m", [0, 1], prior, store, s=9)
        small_prior_top = {c.entity for c in small if c.reason == "prior-top"}
        large_entities = {c.entity for c in large}
        assert small_prior_top <= large_entities

    def test_oracle_equivalence_on_random_instances(self):
        # straightforward reimplementation of the selection procedure
        def oracle(dist, ctx_vec, store, s, p_top, c_top):
            pool = sorted(dist, key=lambda t: (-t[1], t[0]))[:30]
            limit = min(s, len(pool))
            keep = [e for e, _ in pool[:p_top]][:limit]
            if ctx_vec is not None and len(keep) < limit:
                ranked = sorted(pool, key=lambda t: (
                    -float(np.dot(store.entity_vec(t[0]), ctx_vec)), t[0]))
                picked = 0
                for e, _ in ranked:
                    if picked == c_top or len(keep) == limit:
                        break
                    if e not in keep:
                        keep.append(e)
                        picked += 1
            for e, _ in pool:
                if len(keep) == limit:
                    break
                if e not in keep:
                    keep.append(e)
            return keep

        store = entity_store(n_entities=60, seed=9)
        rng = np.random.default_rng(17)
        for _ in range(200):
            n_cand = int(rng.integers(1, 45))
            entities = rng.choice(60, size=n_cand, replace=False)
            dist = [(int(e), float(rng.integers(1, 100))) for e in entities]
            prior = flat_prior(dist)
            ctx_words = [int(w) for w in
                         rng.choice(10, size=rng.integers(0, 4), replace=False)]
            got = select_candidates("m", ctx_words, prior, store)
            norm = dict(prior.lookup("m"))
            ctx_vec = None
            if ctx_words:
                ctx_vec = np.mean([store.word_vec(w) for w in ctx_words], axis=0)
            want = oracle(list(norm.items()), ctx_vec, store, 7, 4, 3)
            assert [c.entity for c in got] == want


def person_doc():
    tokens = "Peter Such bowled while Peter watched the game".split()
    doc = Document(doc_id="d0", tokens=tokens, mentions=[
        Mention(start=0, end=2, surface="Peter Such"),
        Mention(start=4, end=5, surface="Peter"),
    ])
    doc.validate()
    return doc


class TestCorefPersonMerge:
    def test_peter_inherits_peter_such(self):
        doc = person_doc()
        doc.mentions[0].candidates = [Candidate(0, 0.9, "prior-top"),
                                      Candidate(1, 0.1, "prior-top")]
        doc.mentions[1].candidates = [Candidate(2, 0.8, "prior-top")]
        merged = coref_person_merge(doc, lambda e: e in (0, 2))
        assert merged == 1
        assert [c.entity for c in doc.mentions[1].candidates] == [0, 1]

    def test_non_person_top_candidate_unchanged(self):
        doc = person_doc()
        doc.mentions[0].candidates = [Candidate(0, 0.9, "prior-top")]
        doc.mentions[1].candidates = [Candidate(2, 0.8, "prior-top")]
        merged = coref_person_merge(doc, lambda e: e == 0)
        assert merged == 0
        assert [c.entity for c in doc.mentions[1].candidates] == [2]

    def test_two_containing_mentions_union_pruned(self):
        tokens = "John Smith met John Brown and John left".split()
        doc = Document(doc_id="d1", tokens=tokens, mentions=[
            Mention(start=0, end=2, surface="John Smith"),
            Mention(start=3, end=5, surface="John Brown"),
            Mention(start=6, end=7, surface="John"),
        ])
        doc.validate()
        doc.mentions[0].candidates = [Candidate(0, 0.7, "prior-top"),
                                      Candidate(1, 0.3, "prior-top")]
        doc.mentions[1].candidates = [Candidate(2, 0.6, "prior-top"),
                                      Candidate(1, 0.4, "prior-top")]
        doc.mentions[2].candidates = [Candidate(3, 0.9, "prior-top")]
        merged = coref_person_merge(doc, lambda e: True, s=3)
        assert merged == 1
        got = doc.mentions[2].candidates
        assert [c.entity for c in got] == [0, 2, 1]  # dedup, prior order, pruned
        assert len(got) <= 3

    def test_merge_uses_pre_merge_snapshot(self):
        # the long mention is itself a person mention contained in nothing;
        # both short mentions inherit the same original set
        tokens = "Anna Lee spoke then Anna and Lee".split()
        doc = Document(doc_id="d2", tokens=tokens, mentions=[
            Mention(start=0, end=2, surface="Anna Lee"),
            Mention(start=4, end=5, surface="Anna"),
            Mention(start=6, end=7, surface="Lee"),
        ])
        doc.validate()
        doc.mentions[0].candidates = [Candidate(0, 1.0, "prior-top")]
        doc.mentions[1].candidates = [Candidate(1, 1.0, "prior-top")]
        doc.mentions[2].candidates = [Candidate(2, 1.0, "prior-top")]
        coref_person_merge(doc, lambda e: True)
        assert [c.entity for c in doc.mentions[1].candidates] == [0]
        assert [c.entity for c in doc.mentions[2].candidates] == [0]

    def test_merge_never_shrinks_gold_recall(self):
        doc = person_doc()
        doc.mentions[0].candidates = [Candidate(0, 0.9, "prior-top")]
        doc.mentions[0].gold_id = 0
        doc.mentions[1].candidates = [Candidate(2, 0.8, "prior-top")]
        doc.mentions[1].gold_id = 0  # gold held by the containing mention
        before = gold_recall([doc])
        coref_person_merge(doc, lambda e: True)
        after = gold_recall([doc])
        assert after >= before
        assert after == 100.0


class TestGoldRecall:
    def _doc(self, golds, cand_sets):
        doc = Document(doc_id="d", tokens=["t"] * (2 * len(golds)), mentions=[])
        for i, (g, cands) in enumerate(zip(golds, cand_sets)):
            m = Mention(start=2 * i, end=2 * i + 1, surface="t", gold=f"E{g}",
                        gold_id=g)
            m.candidates = [Candidate(e, 0.5, "prior-top") for e in cands]
            doc.mentions.append(m)
        return doc

    def test_all_contained(self):
        doc = self._doc([1, 2], [[1, 3], [2]])
        assert gold_recall([doc]) == 100.0

    def test_one_of_four_missing(self):
        doc = self._doc([1, 2, 3, 4], [[1], [2], [3], [9]])
        assert gold_recall([doc]) == 75.0

    def test_unannotated_mentions_ignored(self):
        doc = self._doc([1], [[1]])
        doc.mentions.append(Mention(start=3, end=4, surface="t"))
        assert gold_recall([doc]) == 100.0


class TestPriorFiles:
    def test_count_and_uniform_round_trip(self, tmp_path):
        cpath = tmp_path / "counts.tsv"
        cpath.write_text("m1\tE0\t3\nm1\tE1\t1\nm2\tE2\t4\n")
        upath = tmp_path / "uniform.tsv"
        upath.write_text("m1\tE1\nm1\tE2\n")
        entities = Vocab()
        counts = load_count_index(str(cpath), entities)
        uniform = load_uniform_index(str(upath), entities)
        prior = build_prior([PriorSource("count", counts),
                             PriorSource("uniform", uniform)])
        got = dict(prior.lookup("m1"))
        # count source: {E0: .75, E1: .25}; uniform: {E1: .5, E2: .5}
        assert got[entities.id("E0")] == pytest.approx(0.375)
        assert got[entities.id("E1")] == pytest.approx(0.375)
        assert got[entities.id("E2")] == pytest.approx(0.25)

        out = tmp_path / "prior.tsv"
        save_prior(str(out), prior, entities)
        reloaded = load_prior(str(out), entities)
        for mention in prior.mentions():
            want = prior.lookup(mention)
            have = reloaded.lookup(mention)
            assert [e for e, _ in want] == [e for e, _ in have]
            np.testing.assert_allclose([p for _, p in want], [p for _, p in have],
                                       atol=1e-9)

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("m1\tE0\n")
        with pytest.raises(ValidationError):
            load_count_index(str(path), Vocab())
