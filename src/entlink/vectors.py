"""Embedding storage and vector-file I/O.

An EmbeddingStore keeps one d-dimensional float64 vector per word and per
entity in two separate id spaces.  Word vectors are frozen once loaded;
entity vectors are unit-norm and may be rewritten row by row during
training.

On-disk formats:

* text: first line ``<count> <dim>``, then ``token v1 ... v<dim>`` per row,
  space separated, so a token holding a space or a line break is refused.
* binary: header ``EVEC`` magic (which no text header starts with, so the
  readers tell the formats apart by it), u16 version, u32 count, u32 dim
  (all little-endian), then per row a u16 token byte length, the UTF-8
  token, and <dim> little-endian float32 values.  Binary round-trips
  bit-exactly; text round-trips to within 1e-6 per component.

Rows are checked once per table, not once per row.  The binary reader
reads the file whole and walks its rows only for their structure, which
stays checked row by row: a row cut short, a token that is not UTF-8, a
duplicate token.  The rows' float32 values are joined into one array,
checked for finiteness once and widened to float64 once; a fault of
either kind names the earliest bad row.  An append to the store takes
its rows as one block and checks their shape, finiteness and (for
entities) unit norm over the block, naming the first bad row with the
message that row would get on its own; the vocabulary takes the names
in one pass.  The text reader still parses and checks each line, since
its number syntax is Python's `float`.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ValidationError
from .vocab import Vocab, open_text

_BINARY_MAGIC = b"EVEC"
_BINARY_VERSION = 1

ENTITY_NORM_TOL = 1e-6


class EmbeddingStore:
    """Word and entity vectors sharing one dimension d."""

    def __init__(self, dim: int, word_vocab: Vocab | None = None,
                 entity_vocab: Vocab | None = None):
        if dim <= 0:
            raise ValidationError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        self.word_vocab = word_vocab if word_vocab is not None else Vocab()
        self.entity_vocab = entity_vocab if entity_vocab is not None else Vocab()
        self._words = np.zeros((len(self.word_vocab), dim), dtype=np.float64)
        self._entities = np.zeros((len(self.entity_vocab), dim), dtype=np.float64)
        self.words_frozen = False

    # -- word table ---------------------------------------------------

    @property
    def n_words(self) -> int:
        return self._words.shape[0]

    def word_rows(self, ids) -> np.ndarray:
        """Rows of the given word ids as one (len(ids), d) copy."""
        return self._words[checked_ids(ids, self.n_words, "word")]

    def word_matrix(self) -> np.ndarray:
        return self._words

    def add_word(self, token: str, vec: np.ndarray) -> int:
        self.add_words([token], [vec])
        return self.n_words - 1

    def add_words(self, tokens: list[str], rows) -> None:
        """Append one word per row, copying the table once."""
        if self.words_frozen:
            raise ValidationError("word table is frozen")
        self._words = self._appended(self.word_vocab, self._words, tokens, rows, "word")

    def freeze_words(self) -> None:
        self.words_frozen = True
        self._words.setflags(write=False)

    # -- entity table -------------------------------------------------

    @property
    def n_entities(self) -> int:
        return self._entities.shape[0]

    def entity_vec(self, idx: int) -> np.ndarray:
        checked_ids(idx, self.n_entities, "entity")
        return self._entities[idx]

    def entity_rows(self, ids) -> np.ndarray:
        """Rows of the given entity ids as one (len(ids), d) copy."""
        return self._entities[checked_ids(ids, self.n_entities, "entity")]

    def entity_matrix(self) -> np.ndarray:
        return self._entities

    def add_entity(self, name: str, vec: np.ndarray) -> int:
        self.add_entities([name], [vec])
        return self.n_entities - 1

    def add_entities(self, names: list[str], rows) -> None:
        """Append one unit-norm entity per row, copying the table once."""
        self._entities = self._appended(self.entity_vocab, self._entities, names, rows,
                                        "entity", unit=True)

    def set_entity_vec(self, idx: int, vec: np.ndarray) -> None:
        """Rewrite one entity row."""
        checked_ids(idx, self.n_entities, "entity")
        self._entities[idx] = self._check_vec(vec, what=f"entity id {idx}", unit=True)

    def sync_entities(self) -> int:
        """Grow the entity table with unit placeholders to cover the vocab.

        Entities can enter the vocabulary through data files (counts,
        priors) before any vector exists for them; placeholder rows keep
        ids and rows aligned until training fills them in.
        """
        ids = np.arange(self._entities.shape[0], len(self.entity_vocab))
        rows = np.zeros((ids.size, self.dim))
        rows[np.arange(ids.size), ids % self.dim] = 1.0
        if ids.size:
            self._entities = np.vstack([self._entities, rows])
        return int(ids.size)

    def _appended(self, vocab: Vocab, table: np.ndarray, names: list[str], rows,
                  what: str, unit: bool = False) -> np.ndarray:
        """`table` with the checked rows appended, their names added to `vocab`.

        Every row and name is checked before anything changes: row i must
        take id len(table) + i, so the vocabulary must hold one name per row
        and a name already present or given twice is a duplicate.
        """
        block = self._checked_block(names, rows, what, unit)
        if len(vocab) != table.shape[0]:
            raise ValidationError(
                f"{what} vocabulary holds {len(vocab)} names for {table.shape[0]} rows")
        vocab.extend(names, what)
        return np.concatenate([table, block])

    def _checked_block(self, names: list[str], rows, what: str, unit: bool) -> np.ndarray:
        """`rows` as one (len(names), d) float64 block, each row checked as
        `_check_vec` checks it: the first bad row gets that row's message."""
        if len(rows) != len(names):
            raise ValidationError(f"{len(names)} {what} names for {len(rows)} rows")
        if not len(names):
            return np.empty((0, self.dim))
        try:
            block = np.asarray(rows, dtype=np.float64)
        except ValueError:  # rows of unequal lengths
            block = None
        if block is None or block.shape != (len(names), self.dim):
            # raises at the first row of the wrong shape, or an earlier bad row
            for name, vec in zip(names, rows):
                self._check_vec(vec, what=f"{what} {name!r}", unit=unit)
        finite = np.isfinite(block).all(axis=1)
        bad = ~finite
        if unit:
            with np.errstate(over="ignore", invalid="ignore"):
                off = np.abs(np.sqrt(np.einsum("ij,ij->i", block, block)) - 1.0)
            bad |= off > ENTITY_NORM_TOL
            # These sums of squares may round differently from np.linalg.norm's,
            # by about d * 1.1e-16 for a row near unit norm; a row this close
            # to the tolerance is decided by np.linalg.norm, as on its own.
            for i in np.flatnonzero(finite & (np.abs(off - ENTITY_NORM_TOL) < 1e-9)):
                bad[i] = abs(np.linalg.norm(block[i]) - 1.0) > ENTITY_NORM_TOL
        if bad.any():
            i = int(bad.argmax())
            self._check_vec(block[i], what=f"{what} {names[i]!r}", unit=unit)
        return block

    def _check_vec(self, vec: np.ndarray, what: str, unit: bool = False) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise ValidationError(
                f"{what}: expected {self.dim} components, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValidationError(f"{what}: non-finite component")
        if unit and abs(np.linalg.norm(vec) - 1.0) > ENTITY_NORM_TOL:
            raise ValidationError(
                f"{what}: norm {np.linalg.norm(vec):.9f} not within "
                f"{ENTITY_NORM_TOL} of 1")
        return vec


def checked_ids(ids, size: int, what: str) -> np.ndarray:
    """`ids` as an index array, each in [0, size); the first one outside
    is named.  Fancy indexing would wrap a negative id silently, so it is
    rejected here."""
    ids = np.asarray(ids, dtype=np.intp)
    bad = (ids < 0) | (ids >= size)
    if bad.any():
        raise ValidationError(f"{what} id {int(ids[bad][0])} out of range [0, {size})")
    return ids


def masked_rows(table: np.ndarray, ids: np.ndarray, mask: np.ndarray,
                what: str) -> np.ndarray:
    """`table`'s rows at the `ids` that `mask` marks, checked, zero rows elsewhere."""
    checked_ids(ids[mask], table.shape[0], what)
    # row 0 at the unmarked ids, zeroed after: faster than a masked assignment
    rows = table[np.where(mask, ids, 0)]
    rows[~mask] = 0.0
    return rows


def nearest_words(store: EmbeddingStore, entity: int, k: int,
                  min_freq: int = 0) -> list[tuple[int, float]]:
    """Top-k words by cosine to an entity vector, ties broken by word id.

    Words with vocabulary frequency below `min_freq` are excluded.  The
    ordering is a deterministic total order given the store.
    """
    target = store.entity_vec(entity)
    if k <= 0:
        return []
    words = store.word_matrix()
    if words.shape[0] == 0:
        return []
    norms = np.linalg.norm(words, axis=1)
    tn = np.linalg.norm(target)
    if tn == 0.0:
        raise ValidationError("entity vector is zero")
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (words @ target) / (norms * tn)
    eligible = norms > 0.0
    if min_freq > 0:
        counts = np.array([store.word_vocab.count(i) for i in range(words.shape[0])])
        eligible &= counts >= min_freq
    idxs = np.nonzero(eligible)[0]
    if idxs.size == 0:
        return []
    # sort by similarity descending, word id ascending on ties
    order = sorted(idxs.tolist(), key=lambda i: (-sims[i], i))
    return [(i, float(sims[i])) for i in order[:k]]


# -- file formats -----------------------------------------------------


def _parse_text_vectors(path: str) -> tuple[list[str], np.ndarray]:
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    seen: dict[str, int] = {}
    with open_text(path) as fh:
        header = fh.readline()
        if not header.strip():
            raise ValidationError(f"{path}: no vectors")
        parts = header.split()
        if len(parts) != 2:
            raise ValidationError(f"{path}:1: expected header '<count> <dim>'")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValidationError(f"{path}:1: bad header {header!r}") from exc
        if count <= 0 or dim <= 0:
            raise ValidationError(f"{path}: no vectors")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(" ")
            token = fields[0]
            if len(fields) - 1 != dim:
                raise ValidationError(
                    f"{path}:{lineno}: row has {len(fields) - 1} values, expected {dim}")
            if token in seen:
                raise ValidationError(
                    f"{path}:{lineno}: duplicate word {token!r} "
                    f"(first at row {seen[token]})")
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: unparseable value") from exc
            if not np.all(np.isfinite(vec)):
                raise ValidationError(f"{path}:{lineno}: non-finite value")
            seen[token] = lineno
            tokens.append(token)
            rows.append(vec)
    if len(tokens) != count:
        raise ValidationError(
            f"{path}: header declares {count} rows, found {len(tokens)}")
    return tokens, np.vstack(rows)


def _parse_binary_vectors(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    pos = len(_BINARY_MAGIC) + 2 + 4 + 4
    if len(data) < pos:
        raise ValidationError(f"{path}: truncated binary header")
    version, count, dim = struct.unpack_from("<HII", data, len(_BINARY_MAGIC))
    if version != _BINARY_VERSION:
        raise ValidationError(f"{path}: unsupported version {version}")
    if count == 0 or dim == 0:
        raise ValidationError(f"{path}: no vectors")
    # a row holds at least its token length and values: checked before allocating
    want = pos + count * (2 + 4 * dim)
    if len(data) < want:
        raise ValidationError(f"{path}: truncated binary file: {count} rows of {dim} "
                              f"values need at least {want} bytes, it has {len(data)}")
    tokens: list[str] = []
    payloads: list[memoryview] = []
    seen: set[str] = set()
    view, width = memoryview(data), 4 * dim
    for row in range(count):
        if pos + 2 > len(data):
            raise _fault(path, payloads, dim, f"truncated at row {row + 1}")
        (token_len,) = struct.unpack_from("<H", data, pos)
        raw = data[pos + 2:pos + 2 + token_len]
        pos += 2 + token_len
        try:
            token = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _fault(path, payloads, dim,
                         f"token at row {row + 1} is not UTF-8") from exc
        if pos + width > len(data):
            raise _fault(path, payloads, dim, f"truncated at row {row + 1}")
        if token in seen:
            raise _fault(path, payloads, dim, f"duplicate word {token!r} at row {row + 1}")
        seen.add(token)
        tokens.append(token)
        payloads.append(view[pos:pos + width])
        pos += width
    values = _float32_rows(payloads, dim)
    _check_finite_rows(path, values)
    return tokens, values.astype(np.float64)


def _float32_rows(payloads: list[memoryview], dim: int) -> np.ndarray:
    """The rows' little-endian float32 values, joined into one (rows, dim) array."""
    return np.frombuffer(b"".join(payloads), dtype="<f4").reshape(len(payloads), dim)


def _fault(path: str, payloads: list[memoryview], dim: int, message: str) -> ValidationError:
    """The error for a fault in the structure of the row after `payloads`,
    unless one of those rows holds a non-finite value: it is named instead."""
    _check_finite_rows(path, _float32_rows(payloads, dim))
    return ValidationError(f"{path}: {message}")


def _check_finite_rows(path: str, rows: np.ndarray) -> None:
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValidationError(f"{path}: non-finite value at row {int(bad.argmax()) + 1}")


def read_vectors(path: str) -> tuple[list[str], np.ndarray]:
    """The tokens and `(count, dim)` rows of a vector file of either format."""
    return _read_as(path, None)


def _read_as(path: str, fmt: str | None) -> tuple[list[str], np.ndarray]:
    """`read_vectors`, refusing a file that is not in format `fmt` if given."""
    with open(path, "rb") as fh:
        found = "binary" if fh.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC else "text"
    if fmt not in (None, found):
        raise ValidationError(f"{path}: expected {fmt} vectors, found {found}")
    return (_parse_binary_vectors if found == "binary" else _parse_text_vectors)(path)


def load_word_vectors(path: str, fmt: str | None = None,
                      stop_words: frozenset[str] | None = None) -> EmbeddingStore:
    """Load word vectors (of format `fmt` if given) into a store with a frozen word table."""
    tokens, rows = _read_as(path, fmt)
    store = EmbeddingStore(rows.shape[1], word_vocab=Vocab(stop_words=stop_words))
    store.add_words(tokens, rows)
    store.freeze_words()
    return store


def load_entity_vectors(path: str, store: EmbeddingStore, fmt: str | None = None) -> int:
    """Load entity vectors (`fmt` as for words) into `store`; returns count."""
    names, rows = _read_as(path, fmt)
    if rows.shape[1] != store.dim:
        raise ValidationError(
            f"{path}: dimension {rows.shape[1]} does not match store dimension {store.dim}")
    # No renormalisation here: float32 storage keeps norms within the unit
    # tolerance, and rescaling would break bit-exact binary round-trips.
    store.add_entities(names, rows)
    return len(names)


def check_text_tokens(path: str, names: list[str]) -> None:
    """Refuse a token the text reader would split: it splits a row at
    spaces and lines at line breaks."""
    for name in names:
        if " " in name or "\n" in name or "\r" in name:
            raise ValidationError(
                f"{path}: token {name!r} holds a space or a line break, which the "
                f"text format cannot store (use --out-format binary)")


def save_vectors_text(path: str, names: list[str], matrix: np.ndarray) -> None:
    check_text_tokens(path, names)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(names)} {matrix.shape[1]}\n")
        for name, row in zip(names, matrix):
            fh.write(name + " " + " ".join(f"{x:.10g}" for x in row) + "\n")


def save_vectors_binary(path: str, names: list[str], matrix: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<HII", _BINARY_VERSION, len(names), matrix.shape[1]))
        for name, row in zip(names, matrix):
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(row.astype("<f4").tobytes())
