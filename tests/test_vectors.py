"""Embedding store, vector file formats, nearest-word ranking, tab-separated rows."""

import re
import struct
import tracemalloc

import numpy as np
import pytest
from embedoracles import check_entity_norms

from entlink.errors import ValidationError
from entlink.vectors import (
    ENTITY_NORM_TOL,
    EmbeddingStore,
    load_entity_vectors,
    load_word_vectors,
    nearest_words,
    read_vectors,
    save_vectors_binary,
    save_vectors_text,
)
from entlink.vocab import Vocab, read_rows, write_rows


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
        np.testing.assert_allclose(store.word_matrix()[1], rows[1][1], atol=1e-6)

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

    def test_text_refuses_a_token_its_reader_would_split(self, tmp_path):
        names, mat = self._store_matrix(np.random.default_rng(1))
        path = tmp_path / "t.txt"
        for bad in ("New York", "a\nb", "a\rb"):
            with pytest.raises(ValidationError, match="--out-format binary"):
                save_vectors_text(str(path), names[:2] + [bad] + names[3:], mat)
        assert not path.exists()

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


class TestFormatFromContent:
    """A reader takes a file's format from its first bytes, not its name."""

    def test_misnamed_files_read_as_their_correctly_named_copies(self, tmp_path):
        names, mat = [f"t{i}" for i in range(4)], np.random.default_rng(4).normal(size=(4, 3))
        for save, right, wrong in ((save_vectors_binary, "b.bin", "b.txt"),
                                   (save_vectors_text, "t.txt", "t.bin")):
            save(str(tmp_path / right), names, mat)
            (tmp_path / wrong).write_bytes((tmp_path / right).read_bytes())
            want_names, want = read_vectors(str(tmp_path / right))
            got_names, got = read_vectors(str(tmp_path / wrong))
            assert got_names == want_names == names
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(load_word_vectors(str(tmp_path / wrong)).word_matrix(),
                                          want)
        # the binary copy holds the float32 rows, the text one 10 digits
        np.testing.assert_array_equal(read_vectors(str(tmp_path / "b.txt"))[1],
                                      mat.astype("<f4").astype(np.float64))
        np.testing.assert_allclose(read_vectors(str(tmp_path / "t.bin"))[1], mat, atol=1e-6)

    def test_a_given_format_is_checked_against_the_file(self, tmp_path):
        binary, text = tmp_path / "v.bin", tmp_path / "v.txt"
        save_vectors_binary(str(binary), ["E0"], np.eye(2)[:1])
        save_vectors_text(str(text), ["E0"], np.eye(2)[:1])
        with pytest.raises(ValidationError,
                           match=re.escape(f"{binary}: expected text vectors, found binary")):
            load_word_vectors(str(binary), fmt="text")
        store = EmbeddingStore(2)
        with pytest.raises(ValidationError,
                           match=re.escape(f"{text}: expected binary vectors, found text")):
            load_entity_vectors(str(text), store, fmt="binary")
        assert load_entity_vectors(str(binary), store, fmt="binary") == 1

    def test_damaged_or_truncated_binary_file_named(self, tmp_path):
        # a damaged magic sends the file to the text reader, which refuses it
        path = tmp_path / "v.bin"
        save_vectors_binary(str(path), ["a", "b"], np.eye(2))
        good = path.read_bytes()
        path.write_bytes(b"EVEX" + good[4:])
        with pytest.raises(ValidationError, match=re.escape(f"{path}:1")):
            read_vectors(str(path))
        path.write_bytes(good[:7])
        with pytest.raises(ValidationError, match=re.escape(f"{path}: truncated binary header")):
            read_vectors(str(path))

    def test_header_sizes_checked_against_the_file_before_allocating(self, tmp_path):
        # two rows of 300 values under a header patched to 0xFFFFFFF0 rows,
        # which would ask for 9.4 TiB of rows before the first one is read
        path = tmp_path / "v.bin"
        save_vectors_binary(str(path), ["a", "b"], np.eye(300)[:2])
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 6, 0xFFFFFFF0)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: truncated binary file: 4294967280 rows of 300 values need")):
            read_vectors(str(path))


def write_binary(path, tokens: list[bytes], rows) -> bytes:
    """A binary vector file of raw token bytes and float32 rows; returns its bytes."""
    rows = np.asarray(rows, dtype="<f4")
    raw = b"EVEC" + struct.pack("<HII", 1, len(tokens), rows.shape[1])
    for token, row in zip(tokens, rows):
        raw += struct.pack("<H", len(token)) + token + row.tobytes()
    path.write_bytes(raw)
    return raw


class TestBinaryReaderFaults:
    """Each fault of a binary vector file gets its message, naming its row.

    Five rows of 2 values under 10-byte tokens; row k (from 1) starts at
    byte 14 + 20 * (k - 1): two length bytes, the token, then 8 bytes of
    values.  The file is read whole before any row is checked, so these
    pin which row is named when a fault sits behind another one.
    """

    TOKENS = [f"token{i:05d}".encode() for i in range(5)]

    def _file(self, tmp_path, tokens=None, nan_row=None):
        rows = np.arange(10, dtype=np.float64).reshape(5, 2)
        if nan_row is not None:
            rows[nan_row - 1, 1] = np.nan
        path = tmp_path / "v.bin"
        return path, write_binary(path, tokens or list(self.TOKENS), rows)

    @staticmethod
    def _refused(path, message):
        for read in (lambda: read_vectors(str(path)),
                     lambda: load_word_vectors(str(path), fmt="binary"),
                     lambda: load_entity_vectors(str(path), EmbeddingStore(2), fmt="binary")):
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
                read()

    def test_truncated_header(self, tmp_path):
        path, raw = self._file(tmp_path)
        path.write_bytes(raw[:13])
        self._refused(path, "truncated binary header")

    @pytest.mark.parametrize("cut,row", [(64, 3), (66, 3), (75, 4), (80, 4), (90, 4)])
    def test_truncated_row(self, tmp_path, cut, row):
        # the file keeps the 64 bytes five rows of empty tokens would need,
        # so the cut is found walking the rows: in a token (64, 80), in the
        # values (66, 90) or in the length bytes (75)
        path, raw = self._file(tmp_path)
        path.write_bytes(raw[:cut])
        self._refused(path, f"truncated at row {row}")

    def test_non_utf8_token(self, tmp_path):
        path, _ = self._file(tmp_path, tokens=[*self.TOKENS[:3], b"token\xff\xfe003",
                                                self.TOKENS[4]])
        self._refused(path, "token at row 4 is not UTF-8")

    def test_duplicate_token(self, tmp_path):
        path, _ = self._file(tmp_path, tokens=[*self.TOKENS[:4], self.TOKENS[1]])
        self._refused(path, "duplicate word 'token00001' at row 5")

    def test_non_finite_value(self, tmp_path):
        path, _ = self._file(tmp_path, nan_row=4)
        self._refused(path, "non-finite value at row 4")

    def test_earlier_of_two_faults_is_named(self, tmp_path):
        dup = [*self.TOKENS[:3], self.TOKENS[0], self.TOKENS[4]]
        bad_utf8 = [self.TOKENS[0], b"token\xff\xfe001", *self.TOKENS[2:]]
        self._file(tmp_path, tokens=dup, nan_row=2)
        self._refused(tmp_path / "v.bin", "non-finite value at row 2")
        self._file(tmp_path, tokens=dup, nan_row=5)
        self._refused(tmp_path / "v.bin", "duplicate word 'token00000' at row 4")
        self._file(tmp_path, tokens=bad_utf8, nan_row=3)
        self._refused(tmp_path / "v.bin", "token at row 2 is not UTF-8")
        path, raw = self._file(tmp_path, nan_row=2)
        path.write_bytes(raw[:80])
        self._refused(path, "non-finite value at row 2")
        path, raw = self._file(tmp_path, nan_row=4)
        path.write_bytes(raw[:80])
        self._refused(path, "truncated at row 4")


class TestBulkAppend:
    """An append checks its rows as one block; the first bad row is named
    with the message it would get on its own, and nothing changes."""

    @staticmethod
    def _store():
        store = EmbeddingStore(3)
        store.add_words(["w0"], [[1.0, 2.0, 3.0]])
        store.add_entities(["E0"], [[1.0, 0.0, 0.0]])
        return store

    @staticmethod
    def _refused(store, add, names, rows, message):
        words, entities = store.word_matrix().copy(), store.entity_matrix().copy()
        vocabs = store.word_vocab.tokens(), store.entity_vocab.tokens()
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            add(names, rows)
        np.testing.assert_array_equal(store.word_matrix(), words)
        np.testing.assert_array_equal(store.entity_matrix(), entities)
        assert (store.word_vocab.tokens(), store.entity_vocab.tokens()) == vocabs

    def test_wrong_length_row(self):
        store = self._store()
        unit = [0.0, 1.0, 0.0]
        for add, what in ((store.add_words, "word"), (store.add_entities, "entity")):
            self._refused(store, add, ["a", "b", "c"], [unit, unit[:2], unit + [0.0]],
                          f"{what} 'b': expected 3 components, got shape (2,)")
            self._refused(store, add, ["a", "b"], [unit, [unit]],
                          f"{what} 'b': expected 3 components, got shape (1, 3)")

    def test_non_finite_row(self):
        store = self._store()
        rows = np.eye(3)
        for value in (np.nan, np.inf, -np.inf):
            rows[2, 1] = value
            for add, what in ((store.add_words, "word"), (store.add_entities, "entity")):
                self._refused(store, add, ["a", "b", "c"], rows,
                              f"{what} 'c': non-finite component")

    def test_entity_off_unit_norm(self):
        store = self._store()
        rows = np.eye(3)
        rows[1] *= 2.0
        self._refused(store, store.add_entities, ["a", "b", "c"], rows,
                      "entity 'b': norm 2.000000000 not within 1e-06 of 1")
        rows[1] = 0.0
        self._refused(store, store.add_entities, ["a", "b", "c"], rows,
                      "entity 'b': norm 0.000000000 not within 1e-06 of 1")

    def test_duplicate_name(self):
        store = self._store()
        for add, what, old in ((store.add_words, "word", "w0"),
                               (store.add_entities, "entity", "E0")):
            self._refused(store, add, ["a", "b", "a"], np.eye(3),
                          f"duplicate {what}: 'a'")
            self._refused(store, add, ["a", old, "b"], np.eye(3),
                          f"duplicate {what}: {old!r}")

    def test_first_bad_row_is_named_whatever_its_fault(self):
        # row faults come before name faults, as when each row was checked alone
        store = self._store()
        rows = [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 1.0]]
        self._refused(store, store.add_entities, ["a", "b", "c", "d"], rows,
                      "entity 'a': norm 2.000000000 not within 1e-06 of 1")
        self._refused(store, store.add_entities, ["b", "c", "d"], rows[1:],
                      "entity 'c': non-finite component")
        self._refused(store, store.add_words, ["a", "a", "c", "d"], rows[:3] + [[0.0] * 3],
                      "word 'c': non-finite component")

    def test_names_and_rows_must_pair_up_and_ids_follow_the_rows(self):
        store = self._store()
        self._refused(store, store.add_words, ["a", "b"], np.eye(3),
                      "2 word names for 3 rows")
        # a name the vocabulary took from a data file has no row yet
        store.entity_vocab.add("E_from_counts")
        self._refused(store, store.add_entities, ["E1"], np.eye(3)[:1],
                      "entity vocabulary holds 2 names for 1 rows")
        store.sync_entities()
        store.add_entities(["E1"], np.eye(3)[:1])
        assert store.entity_vocab.id("E1") == 2 and store.n_entities == 3

    def test_unit_norm_decided_as_for_one_row(self):
        # rows scaled to within a few ulps of 1 +- the tolerance: a bulk
        # sum of squares may round differently from np.linalg.norm, and
        # every row must still be decided as np.linalg.norm decides it
        rng = np.random.default_rng(5)
        for dim in (3, 16, 300):
            base = rng.normal(size=(400, dim))
            base /= np.linalg.norm(base, axis=1, keepdims=True)
            sign = np.where(np.arange(400) % 2, 1.0, -1.0)
            scale = 1.0 + sign * (ENTITY_NORM_TOL + rng.integers(-40, 40, 400) * 1e-16)
            rows = base * scale[:, None]
            want = [abs(np.linalg.norm(row) - 1.0) > ENTITY_NORM_TOL for row in rows]
            assert 50 < sum(want) < 350
            for i, row in enumerate(rows):
                store = EmbeddingStore(dim)
                if want[i]:
                    with pytest.raises(ValidationError, match=f"^entity 'E{i}': norm "):
                        store.add_entities([f"E{i}"], [row])
                else:
                    store.add_entities([f"E{i}"], [row])
            # in one block the first refused row is named
            first = want.index(True)
            with pytest.raises(ValidationError, match=f"^entity 'E{first}': norm "):
                EmbeddingStore(dim).add_entities([f"E{i}" for i in range(400)], rows)
            kept = ~np.array(want)
            store = EmbeddingStore(dim)
            store.add_entities([f"E{i}" for i in np.flatnonzero(kept)], rows[kept])
            np.testing.assert_array_equal(store.entity_matrix(), rows[kept])


def test_binary_values_read_back_exactly(tmp_path):
    # -0.0, the smallest float32 subnormal and the float32 extremes survive
    # the float32 -> float64 widening bit for bit
    f32 = np.finfo(np.float32)
    words = np.array([[-0.0, f32.smallest_subnormal, f32.max, -f32.max],
                      [f32.smallest_normal, -f32.smallest_subnormal, 1.0, -0.0]],
                     dtype=np.float32)
    entities = np.array([[-0.0, f32.smallest_subnormal, 1.0, 0.0],
                         [0.0, -1.0, -f32.smallest_subnormal, -0.0]], dtype=np.float32)
    write_binary(tmp_path / "w.bin", [b"a", b"b"], words)
    write_binary(tmp_path / "e.bin", [b"E0", b"E1"], entities)
    store = load_word_vectors(str(tmp_path / "w.bin"))
    assert load_entity_vectors(str(tmp_path / "e.bin"), store, fmt="binary") == 2
    for got, want in ((store.word_matrix(), words), (store.entity_matrix(), entities)):
        assert got.dtype == np.float64
        assert got.tobytes() == want.astype(np.float64).tobytes()


def test_binary_word_load_peaks_near_two_tables(tmp_path):
    # the file's bytes, the read table and the store's table: a 5.3 MB
    # float64 table may peak at 2.25 times its size, not at a copy per row
    rows = np.random.default_rng(0).normal(size=(2200, 300))
    path = tmp_path / "w.bin"
    save_vectors_binary(str(path), [f"w{i}" for i in range(2200)], rows)
    tracemalloc.start()
    try:
        store = load_word_vectors(str(path), fmt="binary")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = store.word_matrix().nbytes
    assert table >= 5e6
    assert peak <= 2.25 * table, peak / table


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
            store.word_rows([0])
        for bad in (-1, 1):
            with pytest.raises(ValidationError, match=rf"^entity id {bad} out of range \[0, 1\)$"):
                store.set_entity_vec(bad, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(store.entity_matrix(), [[1.0, 0.0]])

    def test_row_gathers_match_single_rows_and_check_ids(self):
        # numpy fancy indexing wraps -1 to the last row; the gathers refuse it
        rng = np.random.default_rng(3)
        store = EmbeddingStore(4)
        store.add_words([f"w{i}" for i in range(3)], rng.normal(size=(3, 4)))
        units = rng.normal(size=(2, 4))
        store.add_entities(["E0", "E1"], units / np.linalg.norm(units, axis=1, keepdims=True))
        for gather, matrix, size in ((store.word_rows, store.word_matrix(), 3),
                                     (store.entity_rows, store.entity_matrix(), 2)):
            ids = [size - 1, 0, size - 1]
            np.testing.assert_array_equal(gather(ids), np.stack([matrix[i] for i in ids]))
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
        store.add_entity("E", store.word_matrix()[0] / np.linalg.norm(store.word_matrix()[0]))
        assert nearest_words(store, 0, k=0) == []

    def test_exact_match_ranks_first(self):
        store = small_store()
        v = store.word_matrix()[4]
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
            w = store.word_matrix()[i]
            sims.append((i, float(np.dot(w, z / np.linalg.norm(z)) / np.linalg.norm(w))))
        want = sorted(sims, key=lambda t: (-t[1], t[0]))
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], atol=1e-12)

    def test_min_freq_filters(self):
        store = small_store()
        v = store.word_matrix()[4]
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

    def test_written_rows_read_back_field_for_field(self, tmp_path):
        # empty, non-ASCII (a U+2028 separator is no line break to the
        # reader) and numeric fields, the header first and skipped on read
        path = tmp_path / "rows.tsv"
        rows = [("", "Zürich", 3), ("東京", "", -1.5), ("a b\u2028c", " x ", 0)]
        write_rows(str(path), ["name", "entity", "value"], rows)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "name\tentity\tvalue"
        got = [fields for _, fields in read_rows(str(path), "a<TAB>b<TAB>c", start=2)]
        assert got == [[str(field) for field in row] for row in rows]
        write_rows(str(path), None, rows)
        got = [fields for _, fields in read_rows(str(path), "a<TAB>b<TAB>c")]
        assert got == [[str(field) for field in row] for row in rows]

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    @pytest.mark.parametrize("col", [0, 1])
    def test_tab_or_line_break_refused_before_the_file_opens(self, tmp_path, bad, col):
        # in a row under a header, in a headerless row and in the header
        path = tmp_path / "rows.tsv"
        row = ["ok", 1]
        row[col] = bad
        for header, rows, where in ((["d", "m"], [("x", 0), row], f":3: field '{'dm'[col]}'"),
                                    (None, [row], f":1: field {col + 1} "),
                                    (row, [], ":1: field ")):
            with pytest.raises(ValidationError, match=f"rows.tsv{where}"):
                write_rows(str(path), header, rows)
        assert not path.exists()
