"""Embedding storage and vector-file I/O.

An EmbeddingStore keeps one d-dimensional float64 vector per word and per
entity in two separate id spaces, each named by a `Vocab` that maps names
to ids and holds nothing else.  Word vectors are frozen once loaded;
entity vectors are unit-norm, and training rewrites them a block of rows
at a time (`set_entity_rows`), each block checked as an append is.

On-disk formats:

* text: first line ``<count> <dim>``, then ``token v1 ... v<dim>`` per row,
  space separated, so a token holding a space or a line break is refused.
* binary: header ``EVEC`` magic (which no text header starts with, so the
  readers tell the formats apart by it), u16 version (2), u32 count, u32
  dim (all little-endian), then the rows as one contiguous little-endian
  float32 ``(count, dim)`` block, then the token section: count u16 token
  byte lengths, then the UTF-8 tokens end to end.  A token takes at most
  65,535 bytes of UTF-8; the binary writer refuses a longer one before it
  opens the file.  Binary round-trips bit-exactly; text round-trips to
  within 1e-6 per component.

Each fact about a file is checked once.  The readers check what only the
file shows: the header, that the file can hold the count and dimension
its header gives (before anything is allocated), truncation, a text row's
field count and number syntax, that each token is UTF-8 and that no bytes
follow the last token.  The store checks the rest as the loaders append
the rows: their shape, finiteness and (for entities) unit norm over the
whole block, naming the first bad row, then the names, in the
vocabulary's one pass.  So a file with several faults is refused for its
structure first, then for its first bad row, then for its first
duplicate name, and the loaders put the file's path in front of the
store's message.

The binary reader reads the file whole and takes it in sections: its
block as one float32 view of the file, its tokens decoded at the offsets
the length table gives, with no walk over the rows.  The reader returns
the rows as float32, and the store widens them once, into the fresh
float64 block that becomes the table, so a binary load peaks near one
float64 table plus the file, not two float64 tables.  The text reader
parses each line with Python's `float`.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np

from .errors import ValidationError
from .vocab import Vocab, open_text

_BINARY_MAGIC = b"EVEC"
_HEADER = struct.Struct("<HII")  # version, count, dim; after the magic
_HEADER_BYTES = len(_BINARY_MAGIC) + _HEADER.size
_BINARY_VERSION = 2  # the one version written and read
_MAX_TOKEN_BYTES = 0xFFFF  # a binary token's UTF-8 length is a u16

ENTITY_NORM_TOL = 1e-6


class EmbeddingStore:
    """Word and entity vectors sharing one dimension d."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValidationError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        self.word_vocab = Vocab()
        self.entity_vocab = Vocab()
        self._words = np.zeros((0, dim), dtype=np.float64)
        self._entities = np.zeros((0, dim), dtype=np.float64)
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

    def add_entities(self, names: list[str], rows) -> None:
        """Append one unit-norm entity per row, copying the table once."""
        self._entities = self._appended(self.entity_vocab, self._entities, names, rows,
                                        "entity", unit=True)

    def set_entity_rows(self, ids, rows) -> None:
        """Rewrite the entity rows at `ids`, checked as appended rows are."""
        ids = checked_ids(ids, self.n_entities, "entity")
        self._entities[ids] = self._checked_block(ids.tolist(), rows, "entity id", unit=True)

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
        return np.concatenate([table, block]) if table.shape[0] else block

    def _checked_block(self, names: list, rows, what: str, unit: bool) -> np.ndarray:
        """`rows` widened into one fresh (len(names), d) float64 block, each
        row checked as `_check_vec` checks it: the first bad row gets that
        row's message, `what` and its name."""
        if len(rows) != len(names):
            raise ValidationError(f"{len(names)} {what} names for {len(rows)} rows")
        if not len(names):
            return np.empty((0, self.dim))
        try:
            block = np.array(rows, dtype=np.float64)
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

    def _check_vec(self, vec: np.ndarray, what: str, unit: bool = False) -> None:
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
                  allowed: list[bool] | None = None) -> list[tuple[int, float]]:
    """Top-k words by cosine to an entity vector, ties broken by word id.

    If `allowed` is given, word id i may be returned only when
    `allowed[i]` is true.  The ordering is a deterministic total order
    given the store.
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
    if allowed is not None:
        eligible &= allowed
    idxs = np.flatnonzero(eligible)
    sims = sims[idxs]
    if k < idxs.size:
        # the words at or above the k-th largest similarity: the top k and their ties
        keep = sims >= np.partition(sims, idxs.size - k)[idxs.size - k]
        idxs, sims = idxs[keep], sims[keep]
    # similarity descending, word id ascending on ties
    order = np.lexsort((idxs, -sims))[:k]
    return [(int(i), float(s)) for i, s in zip(idxs[order], sims[order])]


# -- file formats -----------------------------------------------------


def _parse_text_vectors(path: str) -> tuple[list[str], np.ndarray]:
    tokens: list[str] = []
    rows: list[np.ndarray] = []
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
            if len(fields) - 1 != dim:
                raise ValidationError(
                    f"{path}:{lineno}: row has {len(fields) - 1} values, expected {dim}")
            try:
                rows.append(np.array([float(x) for x in fields[1:]], dtype=np.float64))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: unparseable value") from exc
            tokens.append(fields[0])
    if len(tokens) != count:
        raise ValidationError(
            f"{path}: header declares {count} rows, found {len(tokens)}")
    return tokens, np.vstack(rows)


def _parse_binary_vectors(path: str) -> tuple[list[str], np.ndarray]:
    """The value block as one view of the file, then the tokens at the
    offsets the length table gives."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER_BYTES:
        raise ValidationError(f"{path}: truncated binary header")
    version, count, dim = _HEADER.unpack_from(data, len(_BINARY_MAGIC))
    if version != _BINARY_VERSION:
        raise ValidationError(f"{path}: unsupported version {version}")
    if count == 0 or dim == 0:
        raise ValidationError(f"{path}: no vectors")
    lengths_at = _HEADER_BYTES + 4 * count * dim
    tokens_at = lengths_at + 2 * count
    # the block and the length table must fit: checked before allocating
    if len(data) < tokens_at:
        raise ValidationError(f"{path}: truncated binary file: {count} rows of {dim} "
                              f"values need at least {tokens_at} bytes, it has {len(data)}")
    values = np.frombuffer(data, "<f4", count * dim, _HEADER_BYTES).reshape(count, dim)
    lengths = np.frombuffer(data, "<u2", count, lengths_at)
    ends = tokens_at + np.cumsum(lengths, dtype=np.int64)
    whole = int(np.searchsorted(ends, len(data), side="right"))  # rows whose token fits
    ends = ends[:whole].tolist()
    tokens: list[str] = []
    try:
        for a, b in zip([tokens_at, *ends], ends):
            tokens.append(data[a:b].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: token at row {len(tokens) + 1} is not UTF-8") from exc
    if whole < count:
        raise ValidationError(f"{path}: truncated at row {whole + 1}")
    if ends[-1] < len(data):
        raise ValidationError(f"{path}: bytes after the last token, from byte {ends[-1]} "
                              f"of {len(data)}")
    return tokens, values


def read_vectors(path: str, fmt: str | None = None) -> tuple[list[str], np.ndarray]:
    """The tokens and `(count, dim)` rows of a vector file of either format,
    refusing one not in format `fmt` if given.  A binary file's rows come as
    its float32 values, a text file's as float64.  The rows' values and the
    tokens' uniqueness are left to the store the loaders append them to."""
    with open(path, "rb") as fh:
        found = "binary" if fh.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC else "text"
    if fmt not in (None, found):
        raise ValidationError(f"{path}: expected {fmt} vectors, found {found}")
    return (_parse_binary_vectors if found == "binary" else _parse_text_vectors)(path)


@contextmanager
def naming_file(path: str):
    """A ValidationError inside, raised again with `path` in front of its
    message: the store's refusal of rows read from the file `path`."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_word_vectors(path: str, fmt: str | None = None) -> EmbeddingStore:
    """Load word vectors (of format `fmt` if given) into a store with a frozen word table."""
    tokens, rows = read_vectors(path, fmt)
    store = EmbeddingStore(rows.shape[1])
    with naming_file(path):
        store.add_words(tokens, rows)
    store.freeze_words()
    return store


def load_entity_vectors(path: str, store: EmbeddingStore, fmt: str | None = None) -> int:
    """Load entity vectors (`fmt` as for words) into `store`; returns count."""
    names, rows = read_vectors(path, fmt)
    # No renormalisation here: float32 storage keeps norms within the unit
    # tolerance, and rescaling would break bit-exact binary round-trips.
    with naming_file(path):
        store.add_entities(names, rows)
    return len(names)


def check_tokens(path: str, names: list[str], fmt: str) -> None:
    """Refuse, naming it, a token that vector format `fmt` cannot store: the
    text reader splits a row at spaces and lines at line breaks, and the
    binary format stores a token's UTF-8 length in two bytes."""
    for row, name in enumerate(names, start=1):
        if fmt == "text" and (" " in name or "\n" in name or "\r" in name):
            raise ValidationError(
                f"{path}: token {name!r} holds a space or a line break, which the "
                f"text format cannot store (use --out-format binary)")
        # a character takes at most 4 bytes, so a short name needs no encoding
        if fmt == "binary" and 4 * len(name) > _MAX_TOKEN_BYTES:
            size = len(name.encode("utf-8"))
            if size > _MAX_TOKEN_BYTES:
                raise ValidationError(
                    f"{path}: token at row {row} ({name[:20]!r}...) takes {size} bytes "
                    f"of UTF-8; the binary format stores at most {_MAX_TOKEN_BYTES}")


def save_vectors_text(path: str, names: list[str], matrix: np.ndarray) -> None:
    check_tokens(path, names, "text")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(names)} {matrix.shape[1]}\n")
        for name, row in zip(names, matrix):
            fh.write(name + " " + " ".join(f"{x:.10g}" for x in row) + "\n")


def save_vectors_binary(path: str, names: list[str], matrix: np.ndarray) -> None:
    """Write version 2: the header, the rows as one float32 block, then the
    token section (the u16 byte lengths, then the UTF-8 tokens)."""
    check_tokens(path, names, "binary")
    raws = [name.encode("utf-8") for name in names]
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC + _HEADER.pack(_BINARY_VERSION, len(names), matrix.shape[1]))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4"))
        fh.write(np.array([len(raw) for raw in raws], dtype="<u2").tobytes() + b"".join(raws))
