"""Embedding store, vector file formats, nearest-word ranking, tab-separated rows."""

import re
import struct
import tracemalloc

import numpy as np
import pytest
from embedoracles import check_entity_norms

from entlink.docs import Corpus, Document, Mention, build_context_windows
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
            one_by_one.add_words([f"w{i}"], [vec])
            assert one_by_one.n_words == i + 1
        for i, vec in enumerate(ents.astype("<f4").astype(np.float64)):
            one_by_one.add_entities([f"E{i}"], [vec])
            assert one_by_one.n_entities == i + 1
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
            store.add_words(["b"], [np.array([0.0, 1.0])])


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

    def test_binary_refuses_a_token_over_65535_bytes(self, tmp_path):
        # the limit is on UTF-8 bytes, not characters: "é" takes two
        names, mat = self._store_matrix(np.random.default_rng(1))
        path = tmp_path / "t.bin"
        longest = "é" * 32767 + "a"
        save_vectors_binary(str(path), names[:4] + [longest], mat)
        assert read_vectors(str(path))[0] == names[:4] + [longest]
        path.unlink()
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: token at row 3 ('éééééééééééééééééééé'...) takes 65536 bytes "
                f"of UTF-8; the binary format stores at most 65535")):
            save_vectors_binary(str(path), names[:2] + ["é" * 32768] + names[3:], mat)
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


def _unit_rows(unit: bool) -> np.ndarray:
    """Five rows of 2 values, scaled to unit norm if `unit` (for entities)."""
    rows = np.arange(10, dtype=np.float64).reshape(5, 2)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True) if unit else rows


def write_binary_v2(path, tokens: list[bytes], rows, version: int = 2) -> bytes:
    """A version-2 binary vector file of raw token bytes and float32 rows:
    the header, the rows as one block, the u16 token lengths, the tokens."""
    rows = np.asarray(rows, dtype="<f4")
    raw = (b"EVEC" + struct.pack("<HII", version, len(tokens), rows.shape[1]) + rows.tobytes()
           + struct.pack(f"<{len(tokens)}H", *map(len, tokens)) + b"".join(tokens))
    path.write_bytes(raw)
    return raw


class TestBinaryV2ReaderFaults:
    """Each fault of a binary vector file gets its message, naming its row.

    Five rows of 2 values under 10-byte tokens: the 40-byte value block
    starts at byte 14, the ten bytes of token lengths at 54, and token k
    (from 1) at 64 + 10 * (k - 1).  The reader refuses a fault in the
    file's structure; a non-finite value or a repeated token reads, and
    the store refuses it when a loader appends the rows.  All the values
    precede all the tokens, yet these pin one order wherever in the file
    each fault sits: the structure, then the first bad row, then the
    first repeated name.
    """

    TOKENS = [f"token{i:05d}".encode() for i in range(5)]
    KEEP_ALL = {t.decode() for t in TOKENS} | {"absent"}  # every row, and a token of none

    @staticmethod
    def _refused(path, message):
        # a keep-set load refuses a fault of the structure as a full load does
        for read in (lambda: read_vectors(str(path)),
                     lambda: load_word_vectors(str(path), fmt="binary"),
                     lambda: load_word_vectors(str(path), fmt="binary",
                                               keep={"token00001", "absent"}),
                     lambda: load_entity_vectors(str(path), EmbeddingStore(2), fmt="binary")):
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
                read()

    @staticmethod
    def _store_refuses(path, message):
        """`read_vectors` returns the file's five rows, and both loaders
        refuse them with the store's `message` (``{what}`` the table's
        kind) after the file's path."""
        assert len(read_vectors(str(path))[0]) == 5
        keep = TestBinaryV2ReaderFaults.KEEP_ALL
        for what, load in (("word", lambda: load_word_vectors(str(path), fmt="binary")),
                           ("word", lambda: load_word_vectors(str(path), fmt="binary",
                                                              keep=keep)),
                           ("entity", lambda: load_entity_vectors(str(path), EmbeddingStore(2),
                                                                  fmt="binary"))):
            with pytest.raises(ValidationError,
                               match=f"^{re.escape(f'{path}: ' + message.format(what=what))}$"):
                load()

    def _file(self, tmp_path, tokens=None, nan_row=None, unit=False):
        rows = _unit_rows(unit)
        if nan_row is not None:
            rows[nan_row - 1, 1] = np.nan
        path = tmp_path / "v.bin"
        return path, write_binary_v2(path, tokens or list(self.TOKENS), rows)

    def test_layout(self, tmp_path):
        path, raw = self._file(tmp_path)
        assert len(raw) == 114 and raw[64:74] == self.TOKENS[0]
        assert read_vectors(str(path))[0] == [t.decode() for t in self.TOKENS]
        # the writer writes this layout
        save_vectors_binary(str(tmp_path / "w.bin"), [t.decode() for t in self.TOKENS],
                            np.arange(10, dtype=np.float64).reshape(5, 2))
        assert (tmp_path / "w.bin").read_bytes() == raw

    def test_truncated_header(self, tmp_path):
        path, raw = self._file(tmp_path)
        path.write_bytes(raw[:13])
        self._refused(path, "truncated binary header")

    @pytest.mark.parametrize("cut", [14, 54, 63])
    def test_block_or_length_table_cut_short(self, tmp_path, cut):
        path, raw = self._file(tmp_path)
        path.write_bytes(raw[:cut])
        self._refused(path, "truncated binary file: 5 rows of 2 values need at least "
                            f"64 bytes, it has {cut}")

    @pytest.mark.parametrize("count,dim", [(0xFFFFFFF0, 2), (5, 0xFFFFFFFF)])
    def test_header_sizes_checked_before_allocating(self, tmp_path, count, dim):
        # a block that would run to 32 GiB or 80 GiB is refused before
        # anything the size of a row is allocated
        path, raw = self._file(tmp_path)
        raw = bytearray(raw)
        struct.pack_into("<II", raw, 6, count, dim)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            self._refused(path, f"truncated binary file: {count} rows of {dim} values "
                                f"need at least {14 + count * (2 + 4 * dim)} bytes, it has 114")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak

    @pytest.mark.parametrize("cut,row", [(64, 1), (73, 1), (74, 2), (80, 2), (113, 5)])
    def test_truncated_token_section(self, tmp_path, cut, row):
        path, raw = self._file(tmp_path)
        path.write_bytes(raw[:cut])
        self._refused(path, f"truncated at row {row}")

    def test_bytes_after_the_last_token(self, tmp_path):
        path, raw = self._file(tmp_path)
        path.write_bytes(raw + b"\0")
        self._refused(path, "bytes after the last token, from byte 114 of 115")

    def test_non_utf8_token(self, tmp_path):
        path, _ = self._file(tmp_path, tokens=[*self.TOKENS[:3], b"token\xff\xfe003",
                                                self.TOKENS[4]])
        self._refused(path, "token at row 4 is not UTF-8")

    def test_character_split_between_two_tokens(self, tmp_path):
        # the section decodes as a whole ("é" is c3 a9), but neither token
        # does on its own
        path, _ = self._file(tmp_path, tokens=[self.TOKENS[0], b"token0000\xc3",
                                                b"\xa9oken00002", *self.TOKENS[3:]])
        self._refused(path, "token at row 2 is not UTF-8")

    def test_duplicate_token(self, tmp_path):
        path, _ = self._file(tmp_path, tokens=[*self.TOKENS[:4], self.TOKENS[1]], unit=True)
        self._store_refuses(path, "duplicate {what}: 'token00001'")

    def test_non_finite_value(self, tmp_path):
        path, _ = self._file(tmp_path, nan_row=4, unit=True)
        self._store_refuses(path, "{what} 'token00003': non-finite component")

    def test_store_faults_in_rows_not_kept_are_not_refused(self, tmp_path):
        # a non-finite value (row 4) and a repeated name (rows 2 and 5) are
        # refused only in rows the keep-set keeps: the binary reader never
        # reads a row it does not keep, and no vocabulary holds its name
        path, _ = self._file(tmp_path, tokens=[*self.TOKENS[:4], self.TOKENS[1]], nan_row=4)
        store = load_word_vectors(str(path), fmt="binary", keep={"token00000", "token00002"})
        assert store.word_vocab.tokens() == ["token00000", "token00002"]
        np.testing.assert_array_equal(store.word_matrix(), _unit_rows(False)[[0, 2]])
        for keep, message in (({"token00003"}, "word 'token00003': non-finite component"),
                              ({"token00001"}, "duplicate word: 'token00001'")):
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
                load_word_vectors(str(path), fmt="binary", keep=keep)

    def test_unsupported_version(self, tmp_path):
        path, _ = self._file(tmp_path)
        for version in (1, 3):
            write_binary_v2(path, list(self.TOKENS), np.eye(5, 2), version=version)
            self._refused(path, f"unsupported version {version}")

    def test_structure_then_values_then_names(self, tmp_path):
        dup = [*self.TOKENS[:3], self.TOKENS[0], self.TOKENS[4]]
        bad_utf8 = [self.TOKENS[0], b"token\xff\xfe001", *self.TOKENS[2:]]
        path = tmp_path / "v.bin"
        # a bad row comes before a repeated name, though the name is earlier
        self._file(tmp_path, tokens=dup, nan_row=5, unit=True)
        self._store_refuses(path, "{what} 'token00004': non-finite component")
        self._file(tmp_path, tokens=dup, nan_row=2, unit=True)
        self._store_refuses(path, "{what} 'token00001': non-finite component")
        # a fault in the structure comes before both, though they are earlier
        self._file(tmp_path, tokens=bad_utf8, nan_row=1)
        self._refused(path, "token at row 2 is not UTF-8")
        _, raw = self._file(tmp_path, tokens=dup, nan_row=2)
        path.write_bytes(raw[:100])
        self._refused(path, "truncated at row 4")
        _, raw = self._file(tmp_path, tokens=dup, nan_row=1)
        path.write_bytes(raw + b"\0")
        self._refused(path, "bytes after the last token, from byte 114 of 115")


def write_binary(path, tokens: list[bytes], rows) -> bytes:
    """A file in the version-1 layout, which nothing reads any more: per row
    a u16 token length, the token and its float32 values."""
    rows = np.asarray(rows, dtype="<f4")
    raw = b"EVEC" + struct.pack("<HII", 1, len(tokens), rows.shape[1])
    for token, row in zip(tokens, rows):
        raw += struct.pack("<H", len(token)) + token + row.tobytes()
    path.write_bytes(raw)
    return raw


class TestBinaryReaderFaults:
    """A version-1 file is refused as an unsupported version, whatever its
    own fault: the version is read before any row, token or name, so no
    fault of the old layout is reported as one of the current layout's.
    Only a header too short to hold the version is refused as truncated.
    """

    TOKENS = TestBinaryV2ReaderFaults.TOKENS
    _refused = staticmethod(TestBinaryV2ReaderFaults._refused)
    UNSUPPORTED = "unsupported version 1"

    def _file(self, tmp_path, tokens=None, nan_row=None, unit=False):
        rows = _unit_rows(unit)
        if nan_row is not None:
            rows[nan_row - 1, 1] = np.nan
        path = tmp_path / "v.bin"
        return path, write_binary(path, tokens or list(self.TOKENS), rows)

    def test_truncated_header(self, tmp_path):
        path, raw = self._file(tmp_path)
        path.write_bytes(raw[:13])
        self._refused(path, "truncated binary header")

    def test_non_utf8_token(self, tmp_path):
        path, _ = self._file(tmp_path, tokens=[*self.TOKENS[:3], b"token\xff\xfe003",
                                                self.TOKENS[4]])
        self._refused(path, self.UNSUPPORTED)

    def test_duplicate_token(self, tmp_path):
        path, _ = self._file(tmp_path, tokens=[*self.TOKENS[:4], self.TOKENS[1]], unit=True)
        self._refused(path, self.UNSUPPORTED)

    def test_non_finite_value(self, tmp_path):
        path, _ = self._file(tmp_path, nan_row=4, unit=True)
        self._refused(path, self.UNSUPPORTED)

    def test_structure_then_values_then_names(self, tmp_path):
        dup = [*self.TOKENS[:3], self.TOKENS[0], self.TOKENS[4]]
        bad_utf8 = [self.TOKENS[0], b"token\xff\xfe001", *self.TOKENS[2:]]
        path = tmp_path / "v.bin"
        # the version comes before a bad row and a repeated name
        self._file(tmp_path, tokens=dup, nan_row=5, unit=True)
        self._refused(path, self.UNSUPPORTED)
        # and before a fault in the structure
        self._file(tmp_path, tokens=bad_utf8, nan_row=1)
        self._refused(path, self.UNSUPPORTED)
        _, raw = self._file(tmp_path, tokens=dup, nan_row=2)
        path.write_bytes(raw[:80])
        self._refused(path, self.UNSUPPORTED)


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
    write_binary_v2(tmp_path / "w.bin", [b"a", b"b"], words)
    write_binary_v2(tmp_path / "e.bin", [b"E0", b"E1"], entities)
    store = load_word_vectors(str(tmp_path / "w.bin"))
    assert load_entity_vectors(str(tmp_path / "e.bin"), store, fmt="binary") == 2
    for got, want in ((store.word_matrix(), words), (store.entity_matrix(), entities)):
        assert got.dtype == np.float64
        assert got.tobytes() == want.astype(np.float64).tobytes()


def test_multibyte_empty_and_longest_tokens_load_back(tmp_path):
    # tokens of several UTF-8 widths, an empty one and one of the most
    # bytes a token may take load back as written, beside their rows
    rng = np.random.default_rng(11)
    words = ["Zürich", "", "東京", "😀x", "a" * 0xFFFF, "é" * 100, "plain"]
    entities = ["New York", "São_Paulo", "E\u00e9\u0301", "Ω"]
    word_rows = rng.normal(size=(len(words), 5)).astype("<f4")
    entity_rows = rng.normal(size=(len(entities), 5))
    entity_rows = (entity_rows / np.linalg.norm(entity_rows, axis=1, keepdims=True)).astype("<f4")
    write_binary_v2(tmp_path / "w.bin", [w.encode() for w in words], word_rows)
    write_binary_v2(tmp_path / "e.bin", [e.encode() for e in entities], entity_rows)
    store = load_word_vectors(str(tmp_path / "w.bin"))
    load_entity_vectors(str(tmp_path / "e.bin"), store)
    assert (store.word_vocab.tokens(), store.entity_vocab.tokens()) == (words, entities)
    np.testing.assert_array_equal(store.word_matrix(), word_rows)
    np.testing.assert_array_equal(store.entity_matrix(), entity_rows)


class TestKeepSet:
    """A load given a set of tokens to keep reads only their rows."""

    N, D = 1500, 100  # 655 rows of 100 float32 values fill a 256 KiB chunk

    @pytest.mark.parametrize("save", [save_vectors_binary, save_vectors_text])
    def test_kept_rows_in_file_order_equal_the_full_loads(self, tmp_path, save):
        # runs of kept rows that start, end and cross chunk borders, single
        # rows, the first and the last; tokens the file lacks are ignored
        rng = np.random.default_rng(12)
        names = [f"w{i}" for i in range(self.N)]
        path = tmp_path / "w"
        save(str(path), names, rng.normal(size=(self.N, self.D)))
        full = load_word_vectors(str(path))
        picked = sorted({*rng.choice(self.N, 300, replace=False).tolist(),
                         *range(640, 700), 0, self.N - 1})
        store = load_word_vectors(str(path), keep={"absent", f"w{self.N}",
                                                   *(names[i] for i in picked)})
        assert store.word_vocab.tokens() == [names[i] for i in picked]
        assert store.word_matrix().tobytes() == full.word_matrix()[picked].tobytes()
        assert store.words_frozen
        for keep in (set(), {"absent"}):
            assert load_word_vectors(str(path), keep=keep).word_matrix().shape == (0, self.D)

    def test_chunked_writer_writes_the_one_block_layout(self, tmp_path):
        names = [f"w{i}" for i in range(self.N)]
        rows = np.random.default_rng(13).normal(size=(self.N, self.D))
        save_vectors_binary(str(tmp_path / "w.bin"), names, rows)
        assert (tmp_path / "w.bin").read_bytes() == write_binary_v2(
            tmp_path / "one.bin", [n.encode() for n in names], rows)

    def test_text_rows_not_kept_are_parsed_not_stored(self, tmp_path):
        # every row's syntax and the row count are checked; a non-finite
        # value or a repeated name is refused only in a kept row
        path = tmp_path / "w.txt"
        path.write_text("4 2\na 1 2\nb nan 0\na 3 4\nc 5 6\n")
        store = load_word_vectors(str(path), keep={"c", "absent"})
        assert store.word_vocab.tokens() == ["c"]
        np.testing.assert_array_equal(store.word_matrix(), [[5.0, 6.0]])
        for keep, message in (({"b"}, "word 'b': non-finite component"),
                              ({"a", "c"}, "duplicate word: 'a'")):
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
                load_word_vectors(str(path), keep=keep)
        for text, message in (("4 2\na 1 2\nb x 0\na 3 4\nc 5 6\n", ":3: unparseable value"),
                              ("4 2\na 1 2\nb 1\na 3 4\nc 5 6\n",
                               ":3: row has 1 values, expected 2"),
                              ("3 2\na 1 2\nb 1 0\na 3 4\nc 5 6\n",
                               ": header declares 3 rows, found 4")):
            path.write_text(text)
            with pytest.raises(ValidationError, match=re.escape(f"{path}{message}")):
                load_word_vectors(str(path), keep={"c"})


def _word_load_peak(tmp_path, fmt: str = "binary") -> tuple[int, int]:
    """The tracemalloc peak of loading a 2200x300 word file of format
    `fmt`, and the bytes of the float64 table it loads."""
    rows = np.random.default_rng(0).normal(size=(2200, 300))
    path = tmp_path / f"w.{fmt}"
    save = save_vectors_binary if fmt == "binary" else save_vectors_text
    save(str(path), [f"w{i}" for i in range(2200)], rows)
    tracemalloc.start()
    try:
        store = load_word_vectors(str(path), fmt=fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, store.word_matrix().nbytes


def test_binary_word_load_peaks_near_two_tables(tmp_path):
    # the file's bytes, the read table and the store's table: a 5.3 MB
    # float64 table may peak at 2.25 times its size, not at a copy per row
    peak, table = _word_load_peak(tmp_path)
    assert table >= 5e6
    assert peak <= 2.25 * table, peak / table


def test_text_word_load_peaks_near_two_tables(tmp_path):
    # the parsed rows, their stacked table and the store's table, the
    # first freed before the third is made: at most 2.25 times the table
    peak, table = _word_load_peak(tmp_path, "text")
    assert table >= 5e6
    assert peak <= 2.25 * table, peak / table


def test_binary_word_load_peaks_near_one_table(tmp_path):
    # the rows stream a 256 KiB chunk at a time into the one float64 block
    # that becomes the table: the file's bytes are never held whole
    peak, table = _word_load_peak(tmp_path)
    assert table >= 5e6
    assert peak <= 1.25 * table, peak / table


def test_text_word_load_peaks_near_one_table(tmp_path):
    # each row is parsed into one preallocated block that becomes the table
    peak, table = _word_load_peak(tmp_path, "text")
    assert table >= 5e6
    assert peak <= 1.5 * table, peak / table


def test_binary_word_load_widens_once(tmp_path):
    # the float32 rows are widened once, into the block that becomes the
    # table: the peak holds one float64 table and the float32 rows, not
    # two float64 tables
    peak, table = _word_load_peak(tmp_path)
    assert table >= 5e6
    assert peak <= 1.75 * table, peak / table


class TestEntityInvariants:
    def test_non_unit_entity_rejected(self):
        store = EmbeddingStore(3)
        with pytest.raises(ValidationError, match="norm"):
            store.add_entities(["E0"], [np.array([1.0, 1.0, 0.0])])

    def test_norm_check_after_updates(self):
        store = EmbeddingStore(3)
        store.add_entities(["E0"], [np.array([1.0, 0.0, 0.0])])
        store.set_entity_rows([0], [np.array([0.0, 1.0, 0.0])])
        check_entity_norms(store)

    def test_out_of_range_ids(self):
        store = EmbeddingStore(2)
        store.add_entities(["E0"], [np.array([1.0, 0.0])])
        with pytest.raises(ValidationError):
            store.entity_vec(1)
        with pytest.raises(ValidationError):
            store.entity_vec(-1)
        with pytest.raises(ValidationError):
            store.word_rows([0])
        for bad in (-1, 1):
            with pytest.raises(ValidationError, match=rf"^entity id {bad} out of range \[0, 1\)$"):
                store.set_entity_rows([bad], [np.array([0.0, 1.0])])
        np.testing.assert_array_equal(store.entity_matrix(), [[1.0, 0.0]])

    def test_block_rewrite_names_the_first_bad_row_and_changes_nothing(self):
        store = EmbeddingStore(3)
        store.add_entities(["E0", "E1", "E2", "E3"], np.eye(3)[[0, 1, 2, 0]])
        before = store.entity_matrix().copy()
        good = np.eye(3)[[1, 2]]
        cases = [([3, 1, 0, 2], [*good, [np.nan, 0.0, 0.0], [2.0, 0.0, 0.0]],
                  r"^entity id 0: non-finite component$"),
                 ([2, 3, 1], [*good, [0.0, 0.0, 2.0]],
                  r"^entity id 1: norm 2\.000000000 not within 1e-06 of 1$"),
                 ([0, 4], good, r"^entity id 4 out of range \[0, 4\)$")]
        for ids, rows, message in cases:
            with pytest.raises(ValidationError, match=message):
                store.set_entity_rows(ids, rows)
            np.testing.assert_array_equal(store.entity_matrix(), before)
        store.set_entity_rows([3, 0], good)
        np.testing.assert_array_equal(store.entity_matrix(), np.eye(3)[[2, 1, 2, 1]])

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
    store = EmbeddingStore(8)
    for i in range(20):
        store.add_words([f"w{i}"], [rng.normal(size=8)])
    return store


class TestNearestWords:
    def test_k_zero(self):
        store = small_store()
        v = store.word_matrix()[0]
        store.add_entities(["E"], [v / np.linalg.norm(v)])
        assert nearest_words(store, 0, k=0) == []

    def test_exact_match_ranks_first(self):
        store = small_store()
        v = store.word_matrix()[4]
        store.add_entities(["E"], [v / np.linalg.norm(v)])
        top = nearest_words(store, 0, k=3)
        assert top[0][0] == 4
        assert top[0][1] == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self):
        store = small_store()
        rng = np.random.default_rng(9)
        z = rng.normal(size=8)
        store.add_entities(["E"], [z / np.linalg.norm(z)])
        got = nearest_words(store, 0, k=20)
        # independent oracle: plain cosine over the full vocabulary
        sims = []
        for i in range(20):
            w = store.word_matrix()[i]
            sims.append((i, float(np.dot(w, z / np.linalg.norm(z)) / np.linalg.norm(w))))
        want = sorted(sims, key=lambda t: (-t[1], t[0]))
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], atol=1e-12)

    def test_ties_at_the_kth_place_break_by_word_id(self):
        # each of 6 rows four times over, the copies at scattered ids, so
        # many a k cuts through a run of equal similarities
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(6, 8))
        store = EmbeddingStore(8)
        order = rng.permutation(24)
        store.add_words([f"w{i}" for i in range(24)], rows[order % 6])
        z = rng.normal(size=8)
        store.add_entities(["E"], [z / np.linalg.norm(z)])
        sims = store.word_matrix() @ store.entity_vec(0) / np.linalg.norm(
            store.word_matrix(), axis=1)
        allowed = [i % 5 != 0 for i in range(24)]
        # oracle: every eligible word sorted, then the first k
        want = sorted((i for i in range(24) if allowed[i]), key=lambda i: (-sims[i], i))
        straddled = [k for k in range(1, len(want)) if sims[want[k - 1]] == sims[want[k]]]
        assert len(straddled) >= 5, straddled
        for k in range(1, len(want) + 2):
            got = nearest_words(store, 0, k=k, allowed=allowed)
            assert [i for i, _ in got] == want[:k], k

    def test_min_freq_filters(self):
        store = small_store()
        v = store.word_matrix()[4]
        store.add_entities(["E"], [v / np.linalg.norm(v)])
        counts = [10 if i == 4 else 0 for i in range(store.n_words)]
        top = nearest_words(store, 0, k=1, allowed=[c >= 5 for c in counts])
        assert top[0][0] == 4
        top = nearest_words(store, 0, k=1, allowed=[c >= 50 for c in counts])
        assert top == [] or top[0][0] != 4

    def test_unknown_entity(self):
        store = small_store()
        with pytest.raises(ValidationError):
            nearest_words(store, 0, k=1)

    def test_deterministic_total_order(self):
        store = small_store()
        rng = np.random.default_rng(11)
        z = rng.normal(size=8)
        store.add_entities(["E"], [z / np.linalg.norm(z)])
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

    def test_stop_word_keeps_its_id_and_row_but_leaves_the_window(self):
        # stop words are skipped by the context windows, never deleted, so
        # word ids and the word table stay as the vector file gives them
        store = EmbeddingStore(2)
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        store.add_words(["the", "cat", "sat"], rows)
        doc = Document(doc_id="d", tokens=["the", "cat", "m", "the", "sat"],
                       mentions=[Mention(start=2, end=3, surface="m")])
        build_context_windows(Corpus([doc]), store.word_vocab, k=4,
                              stop_words=frozenset({"the"}))
        assert doc.mentions[0].context == [1, 2]
        assert store.word_vocab.id("the") == 0 and store.word_vocab.token(0) == "the"
        assert len(store.word_vocab) == store.n_words == 3
        np.testing.assert_array_equal(store.word_rows([0]), rows[:1])

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
