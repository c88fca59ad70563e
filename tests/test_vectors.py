"""Embedding store, vector file formats, cosine, nearest-word ranking."""

import numpy as np
import pytest
from embedoracles import check_entity_norms

from entlink.errors import ValidationError
from entlink.vectors import (
    EmbeddingStore,
    cosine,
    load_entity_vectors,
    load_word_vectors,
    nearest_words,
    save_vectors_binary,
    save_vectors_text,
)
from entlink.vocab import Vocab


def write_text(path, rows, dim=None, count=None):
    dim = dim if dim is not None else len(rows[0][1])
    count = count if count is not None else len(rows)
    with open(path, "w") as fh:
        fh.write(f"{count} {dim}\n")
        for token, vec in rows:
            fh.write(token + " " + " ".join(str(x) for x in vec) + "\n")


class TestLoadWordVectors:
    def test_three_words_d300(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [(f"w{i}", rng.normal(size=300)) for i in range(3)]
        path = tmp_path / "vecs.txt"
        write_text(path, rows)
        store = load_word_vectors(str(path))
        assert store.dim == 300
        assert len(store.word_vocab) == 3
        np.testing.assert_allclose(store.word_vec(1), rows[1][1], atol=1e-6)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValidationError, match="no vectors"):
            load_word_vectors(str(path))

    def test_wrong_length_row_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\na 1 2 3\nb 1 2\n")
        with pytest.raises(ValidationError, match=":3"):
            load_word_vectors(str(path))

    def test_duplicate_word_named(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("2 2\na 1 2\na 3 4\n")
        with pytest.raises(ValidationError, match="duplicate word"):
            load_word_vectors(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1 2\na 1 nan\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_word_vectors(str(path))

    def test_non_utf8_binary_token_named(self, tmp_path):
        path = tmp_path / "v.bin"
        save_vectors_binary(str(path), ["ok", "xx"], np.eye(2))
        raw = path.read_bytes().replace(b"xx", b"\xff\xfe")
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match="row 2 is not UTF-8"):
            load_word_vectors(str(path), fmt="binary")

    def test_bulk_load_matches_row_by_row(self, tmp_path):
        # the loaders fill each table at once; the result equals adding
        # the rows one by one, and every row check still applies
        rng = np.random.default_rng(7)
        words = rng.normal(size=(6, 4))
        ents = rng.normal(size=(3, 4))
        ents /= np.linalg.norm(ents, axis=1, keepdims=True)
        wpath, epath = tmp_path / "w.bin", tmp_path / "e.bin"
        save_vectors_binary(str(wpath), [f"w{i}" for i in range(6)], words)
        save_vectors_binary(str(epath), [f"E{i}" for i in range(3)], ents)
        store = load_word_vectors(str(wpath), fmt="binary")
        assert load_entity_vectors(str(epath), store, fmt="binary") == 3
        one_by_one = EmbeddingStore(4)
        for i, vec in enumerate(words.astype("<f4").astype(np.float64)):
            assert one_by_one.add_word(f"w{i}", vec) == i
        for i, vec in enumerate(ents.astype("<f4").astype(np.float64)):
            assert one_by_one.add_entity(f"E{i}", vec) == i
        np.testing.assert_array_equal(store.word_matrix(), one_by_one.word_matrix())
        np.testing.assert_array_equal(store.entity_matrix(), one_by_one.entity_matrix())
        assert [store.entity_vocab.token(i) for i in range(3)] == ["E0", "E1", "E2"]
        with pytest.raises(ValidationError, match="duplicate entity"):
            store.add_entities(["E9", "E1"], ents[:2])
        with pytest.raises(ValidationError, match="norm"):
            store.add_entities(["E9"], 2 * ents[:1])
        with pytest.raises(ValidationError, match="expected 4 components"):
            store.add_entities(["E9"], [ents[0, :3]])
        with pytest.raises(ValidationError, match="non-finite"):
            one_by_one.add_words(["w9"], [[np.nan, 0.0, 0.0, 0.0]])
        # a refused batch leaves the store as it was
        assert store.n_entities == 3 and len(store.entity_vocab) == 3
        assert store.entity_vocab.id("E9") is None

    def test_word_table_frozen_after_load(self, tmp_path):
        path = tmp_path / "v.txt"
        write_text(path, [("a", [1.0, 0.0])])
        store = load_word_vectors(str(path))
        with pytest.raises(ValidationError, match="frozen"):
            store.add_word("b", np.array([0.0, 1.0]))


class TestRoundTrips:
    def _store_matrix(self, rng, n=5, d=7):
        names = [f"t{i}" for i in range(n)]
        mat = rng.normal(size=(n, d))
        return names, mat

    def test_text_round_trip_within_tolerance(self, tmp_path):
        names, mat = self._store_matrix(np.random.default_rng(1))
        path = tmp_path / "t.txt"
        save_vectors_text(str(path), names, mat)
        store = load_word_vectors(str(path))
        np.testing.assert_allclose(store.word_matrix(), mat, atol=1e-6)

    def test_binary_round_trip_bit_exact(self, tmp_path):
        names, mat = self._store_matrix(np.random.default_rng(2))
        mat32 = mat.astype("<f4").astype(np.float64)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_vectors_binary(str(p1), names, mat32)
        store = load_word_vectors(str(p1), fmt="binary")
        save_vectors_binary(str(p2), [store.word_vocab.token(i) for i in range(5)],
                            store.word_matrix())
        assert p1.read_bytes() == p2.read_bytes()

    def test_binary_entity_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(4, 6))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        vecs = vecs.astype("<f4").astype(np.float64)
        p1 = tmp_path / "e1.bin"
        save_vectors_binary(str(p1), [f"E{i}" for i in range(4)], vecs)
        store = EmbeddingStore(6)
        load_entity_vectors(str(p1), store, fmt="binary")
        check_entity_norms(store)
        p2 = tmp_path / "e2.bin"
        save_vectors_binary(str(p2), [store.entity_vocab.token(i) for i in range(4)],
                            store.entity_matrix())
        assert p1.read_bytes() == p2.read_bytes()


class TestCosine:
    def test_identity(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_diagonal(self):
        # <(1,1),(1,0)> / (sqrt(2) * 1) = 1/sqrt(2)
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.7071067811865475, abs=1e-6)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero vector"):
            cosine(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            cosine(np.array([1.0]), np.array([1.0, 0.0]))


class TestEntityInvariants:
    def test_non_unit_entity_rejected(self):
        store = EmbeddingStore(3)
        with pytest.raises(ValidationError, match="norm"):
            store.add_entity("E0", np.array([1.0, 1.0, 0.0]))

    def test_norm_check_after_updates(self):
        store = EmbeddingStore(3)
        store.add_entity("E0", np.array([1.0, 0.0, 0.0]))
        store.set_entity_vec(0, np.array([0.0, 1.0, 0.0]))
        check_entity_norms(store)

    def test_out_of_range_ids(self):
        store = EmbeddingStore(2)
        store.add_entity("E0", np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            store.entity_vec(1)
        with pytest.raises(ValidationError):
            store.entity_vec(-1)
        with pytest.raises(ValidationError):
            store.word_vec(0)

    def test_row_gathers_match_single_rows_and_check_ids(self):
        # numpy fancy indexing wraps -1 to the last row; the gathers refuse it
        rng = np.random.default_rng(3)
        store = EmbeddingStore(4)
        store.add_words([f"w{i}" for i in range(3)], rng.normal(size=(3, 4)))
        units = rng.normal(size=(2, 4))
        store.add_entities(["E0", "E1"], units / np.linalg.norm(units, axis=1, keepdims=True))
        for gather, single, size in ((store.word_rows, store.word_vec, 3),
                                     (store.entity_rows, store.entity_vec, 2)):
            ids = [size - 1, 0, size - 1]
            np.testing.assert_array_equal(gather(ids), np.stack([single(i) for i in ids]))
            assert gather([]).shape == (0, 4)
            for bad in (-1, size):
                with pytest.raises(ValidationError, match="out of range"):
                    gather([0, bad])


def small_store():
    rng = np.random.default_rng(7)
    vocab = Vocab()
    store = EmbeddingStore(8, word_vocab=vocab)
    for i in range(20):
        store.add_word(f"w{i}", rng.normal(size=8))
    return store


class TestNearestWords:
    def test_k_zero(self):
        store = small_store()
        store.add_entity("E", store.word_vec(0) / np.linalg.norm(store.word_vec(0)))
        assert nearest_words(store, 0, k=0) == []

    def test_exact_match_ranks_first(self):
        store = small_store()
        v = store.word_vec(4)
        store.add_entity("E", v / np.linalg.norm(v))
        top = nearest_words(store, 0, k=3)
        assert top[0][0] == 4
        assert top[0][1] == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self):
        store = small_store()
        rng = np.random.default_rng(9)
        z = rng.normal(size=8)
        store.add_entity("E", z / np.linalg.norm(z))
        got = nearest_words(store, 0, k=20)
        # independent oracle: plain cosine over the full vocabulary
        sims = []
        for i in range(20):
            w = store.word_vec(i)
            sims.append((i, float(np.dot(w, z / np.linalg.norm(z)) / np.linalg.norm(w))))
        want = sorted(sims, key=lambda t: (-t[1], t[0]))
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], atol=1e-12)

    def test_min_freq_filters(self):
        store = small_store()
        v = store.word_vec(4)
        store.add_entity("E", v / np.linalg.norm(v))
        store.word_vocab.set_count(4, 10)
        top = nearest_words(store, 0, k=1, min_freq=5)
        assert top[0][0] == 4
        top = nearest_words(store, 0, k=1, min_freq=50)
        assert top == [] or top[0][0] != 4

    def test_unknown_entity(self):
        store = small_store()
        with pytest.raises(ValidationError):
            nearest_words(store, 0, k=1)

    def test_deterministic_total_order(self):
        store = small_store()
        rng = np.random.default_rng(11)
        z = rng.normal(size=8)
        store.add_entity("E", z / np.linalg.norm(z))
        a = nearest_words(store, 0, k=20)
        b = nearest_words(store, 0, k=20)
        assert a == b


class TestVocab:
    def test_round_trip_exact(self):
        v = Vocab()
        for tok in ["alpha", "Beta", "GAMMA", "d-e_f"]:
            idx = v.add(tok)
            assert v.token(idx) == tok
            assert v.id(tok) == idx

    def test_stop_words_flagged_not_deleted(self):
        v = Vocab(stop_words=frozenset({"the"}))
        i_the = v.add("the")
        i_cat = v.add("cat")
        assert v.is_stop(i_the)
        assert not v.is_stop(i_cat)
        assert len(v) == 2
        assert v.token(i_the) == "the"

    def test_counts_accumulate(self):
        v = Vocab()
        v.add("x", count=2)
        i = v.add("x", count=3)
        assert v.count(i) == 5
