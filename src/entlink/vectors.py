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

The binary reader streams the file.  It reads the header and checks
that the file can hold the sizes it gives, then the token lengths and the
token section, decoding each token, and only then the rows it keeps: each
run of adjacent rows after one seek, 256 KiB of float32 values at a time,
widened into one float64 block allocated once.  The text reader parses
each line with Python's `float` into one float64 block, sized by the
header's count and the rows the file's size can hold.  Either block
becomes the store's table uncopied, so a load peaks near one float64
table.

Given a set of tokens to keep, a reader returns only the rows whose token
the set holds, in file order, so word ids still rise with file position.
Every row's structure is still checked (its token's UTF-8, its line's
syntax), but the store's checks reach only the kept rows: a non-finite
value or a repeated name in rows not kept is not refused.  Refusing them
would mean reading every row of the value block, which a keeping binary
load skips, and holding every name in a set, not only the kept ones.
"""

from __future__ import annotations

import os
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
_CHUNK_BYTES = 1 << 18  # float32 values read or written at a time: 256 KiB

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

    def add_words(self, tokens: list[str], rows, *, copy: bool = True) -> None:
        """Append one word per row, copying the table once.  With `copy`
        false, a float64 `rows` block that no one else holds may become the
        table itself."""
        if self.words_frozen:
            raise ValidationError("word table is frozen")
        self._words = self._appended(self.word_vocab, self._words, tokens, rows, "word",
                                     copy=copy)

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

    def add_entities(self, names: list[str], rows, *, copy: bool = True) -> None:
        """Append one unit-norm entity per row, copying the table once
        (`copy` as for words)."""
        self._entities = self._appended(self.entity_vocab, self._entities, names, rows,
                                        "entity", unit=True, copy=copy)

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
                  what: str, unit: bool = False, copy: bool = True) -> np.ndarray:
        """`table` with the checked rows appended, their names added to `vocab`.

        Every row and name is checked before anything changes: row i must
        take id len(table) + i, so the vocabulary must hold one name per row
        and a name already present or given twice is a duplicate.
        """
        block = self._checked_block(names, rows, what, unit, copy)
        if len(vocab) != table.shape[0]:
            raise ValidationError(
                f"{what} vocabulary holds {len(vocab)} names for {table.shape[0]} rows")
        vocab.extend(names, what)
        return np.concatenate([table, block]) if table.shape[0] else block

    def _checked_block(self, names: list, rows, what: str, unit: bool,
                       copy: bool = True) -> np.ndarray:
        """`rows` widened into one (len(names), d) float64 block, fresh unless
        `copy` is false and `rows` is one already, each row checked as
        `_check_vec` checks it: the first bad row gets that row's message,
        `what` and its name."""
        if len(rows) != len(names):
            raise ValidationError(f"{len(names)} {what} names for {len(rows)} rows")
        if not len(names):
            return np.empty((0, self.dim))
        try:
            block = (np.array if copy else np.asarray)(rows, dtype=np.float64)
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


def _chunk_rows(dim: int) -> int:
    """Rows of `dim` float32 values in one read or write of the block."""
    return max(1, _CHUNK_BYTES // (4 * dim))


def _parse_text_vectors(path: str, keep: set[str] | None) -> tuple[list[str], np.ndarray]:
    """The tokens of the rows (those in `keep`, if given) and their values,
    parsed into one float64 block; every row's syntax is checked."""
    tokens: list[str] = []
    found = 0
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
        # a row that parses takes at least 2 * dim + 1 bytes: a space and a
        # character per value, then a line break (which the last may lack)
        room = (os.fstat(fh.fileno()).st_size - len(header.encode()) + 1) // (2 * dim + 1)
        block = np.empty((min(count, room, count if keep is None else len(keep)), dim))
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(" ")
            if len(fields) - 1 != dim:
                raise ValidationError(
                    f"{path}:{lineno}: row has {len(fields) - 1} values, expected {dim}")
            try:
                values = [float(x) for x in fields[1:]]
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: unparseable value") from exc
            found += 1
            # a row past the header's count is refused below, so not kept
            if found <= count and (keep is None or fields[0] in keep):
                if len(tokens) == len(block):  # a kept token repeated: the store refuses it
                    block = np.concatenate([block, np.empty((len(block) + 1, dim))])
                block[len(tokens)] = values
                tokens.append(fields[0])
    if found != count:
        raise ValidationError(f"{path}: header declares {count} rows, found {found}")
    return tokens, block if len(tokens) == len(block) else block[:len(tokens)].copy()


def _parse_binary_vectors(path: str, keep: set[str] | None) -> tuple[list[str], np.ndarray]:
    """The header, then the token section, then the rows of the tokens kept
    (all, or those in `keep`) read from the value block a chunk at a time."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER_BYTES)
        if len(head) < _HEADER_BYTES:
            raise ValidationError(f"{path}: truncated binary header")
        version, count, dim = _HEADER.unpack_from(head, len(_BINARY_MAGIC))
        if version != _BINARY_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        if count == 0 or dim == 0:
            raise ValidationError(f"{path}: no vectors")
        lengths_at = _HEADER_BYTES + 4 * count * dim
        tokens_at = lengths_at + 2 * count
        # the block and the length table must fit: checked before allocating
        if size < tokens_at:
            raise ValidationError(f"{path}: truncated binary file: {count} rows of {dim} "
                                  f"values need at least {tokens_at} bytes, it has {size}")
        fh.seek(lengths_at)
        ends = np.cumsum(np.frombuffer(fh.read(2 * count), "<u2"), dtype=np.int64)
        section = fh.read(min(int(ends[-1]), size - tokens_at))
        whole = int(np.searchsorted(ends, len(section), side="right"))  # rows whose token fits
        ends = ends[:whole].tolist()
        tokens: list[str] = []  # of the rows kept
        rows: list[int] = []  # the rows kept, if `keep` is given
        row = 0
        try:
            for row, (a, b) in enumerate(zip([0, *ends], ends)):
                token = section[a:b].decode("utf-8")
                if keep is None or token in keep:
                    tokens.append(token)
                    if keep is not None:
                        rows.append(row)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: token at row {row + 1} is not UTF-8") from exc
        if whole < count:
            raise ValidationError(f"{path}: truncated at row {whole + 1}")
        if tokens_at + ends[-1] < size:
            raise ValidationError(f"{path}: bytes after the last token, from byte "
                                  f"{tokens_at + ends[-1]} of {size}")
        return tokens, _read_rows(fh, path, np.arange(count) if keep is None
                                  else np.array(rows, dtype=np.int64), dim)


def _read_rows(fh, path: str, rows: np.ndarray, dim: int) -> np.ndarray:
    """The value block's float32 rows at the ascending indices `rows`, widened
    into one fresh float64 block: each run of adjacent rows is read with one
    seek, then in chunks through one float32 buffer."""
    block = np.empty((len(rows), dim))
    step = _chunk_rows(dim)
    buf = np.empty(min(step, len(rows)) * dim, dtype="<f4")
    starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()  # where runs begin
    for lo, hi in zip(starts, [*starts[1:], len(rows)]):
        fh.seek(_HEADER_BYTES + 4 * dim * rows[lo])
        for a in range(lo, hi, step):
            n = min(step, hi - a)
            chunk = buf[:n * dim]
            if fh.readinto(chunk) != chunk.nbytes:  # the file shrank since its size was read
                raise ValidationError(f"{path}: truncated at row {rows[a] + 1}")
            block[a:a + n] = chunk.reshape(n, dim)
    return block


def read_vectors(path: str, fmt: str | None = None,
                 keep: set[str] | None = None) -> tuple[list[str], np.ndarray]:
    """The tokens and `(rows, dim)` float64 rows of a vector file of either
    format, refusing one not in format `fmt` if given.  Given a set `keep`,
    only the rows whose token it holds, in file order; a token it holds that
    the file lacks is ignored.  The rows' values and the tokens' uniqueness
    are left to the store the loaders append them to."""
    with open(path, "rb") as fh:
        found = "binary" if fh.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC else "text"
    if fmt not in (None, found):
        raise ValidationError(f"{path}: expected {fmt} vectors, found {found}")
    return (_parse_binary_vectors if found == "binary" else _parse_text_vectors)(path, keep)


@contextmanager
def naming_file(path: str):
    """A ValidationError inside, raised again with `path` in front of its
    message: the store's refusal of rows read from the file `path`."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_word_vectors(path: str, fmt: str | None = None,
                      keep: set[str] | None = None) -> EmbeddingStore:
    """Load word vectors (of format `fmt` if given; of the tokens in the set
    `keep` if given, in file order) into a store with a frozen word table."""
    tokens, rows = read_vectors(path, fmt, keep)
    store = EmbeddingStore(rows.shape[1])
    with naming_file(path):
        store.add_words(tokens, rows, copy=False)
    store.freeze_words()
    return store


def load_entity_vectors(path: str, store: EmbeddingStore, fmt: str | None = None) -> int:
    """Load entity vectors (`fmt` as for words) into `store`; returns count."""
    names, rows = read_vectors(path, fmt)
    # No renormalisation here: float32 storage keeps norms within the unit
    # tolerance, and rescaling would break bit-exact binary round-trips.
    with naming_file(path):
        store.add_entities(names, rows, copy=False)
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
        step = _chunk_rows(matrix.shape[1])
        for a in range(0, len(matrix), step):
            fh.write(np.ascontiguousarray(matrix[a:a + step], dtype="<f4"))
        fh.write(np.array([len(raw) for raw in raws], dtype="<u2").tobytes() + b"".join(raws))
