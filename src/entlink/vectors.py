"""Embedding storage and vector-file I/O.

An EmbeddingStore keeps one d-dimensional float64 vector per word and per
entity in two separate id spaces.  Word vectors are frozen once loaded;
entity vectors are unit-norm and may be rewritten row by row during
training.

On-disk formats:

* text: first line ``<count> <dim>``, then ``token v1 ... v<dim>`` per row,
  space separated.
* binary: header ``EVEC`` magic, u16 version, u32 count, u32 dim (all
  little-endian), then per row a u16 token byte length, the UTF-8 token,
  and <dim> little-endian float32 values.  Binary round-trips bit-exactly;
  text round-trips to within 1e-6 per component.
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

    def word_vec(self, idx: int) -> np.ndarray:
        if not 0 <= idx < self._words.shape[0]:
            raise ValidationError(f"word id {idx} out of range [0, {self._words.shape[0]})")
        return self._words[idx]

    def word_rows(self, ids) -> np.ndarray:
        """Rows of the given word ids as one (len(ids), d) copy."""
        return _checked_rows(self._words, ids, "word")

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
        if not 0 <= idx < self._entities.shape[0]:
            raise ValidationError(
                f"entity id {idx} out of range [0, {self._entities.shape[0]})")
        return self._entities[idx]

    def entity_rows(self, ids) -> np.ndarray:
        """Rows of the given entity ids as one (len(ids), d) copy."""
        return _checked_rows(self._entities, ids, "entity")

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
        if not 0 <= idx < self._entities.shape[0]:
            raise ValidationError(
                f"entity id {idx} out of range [0, {self._entities.shape[0]})")
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
        take id len(table) + i, so a name already present is a duplicate.
        """
        checked = [self._check_vec(vec, what=f"{what} {name!r}", unit=unit)
                   for name, vec in zip(names, rows)]
        fresh: dict[str, int] = {}
        for i, name in enumerate(names):
            idx = vocab.id(name)
            if idx is None:
                idx = fresh.setdefault(name, len(vocab) + len(fresh))
            if idx != table.shape[0] + i:
                raise ValidationError(f"duplicate {what}: {name!r}")
        for name in names:
            vocab.add(name)
        return np.vstack([table, *checked])

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


def _checked_rows(table: np.ndarray, ids, what: str) -> np.ndarray:
    # fancy indexing would wrap a negative id silently, so it is rejected here
    ids = np.asarray(ids, dtype=np.intp)
    bad = (ids < 0) | (ids >= table.shape[0])
    if bad.any():
        raise ValidationError(
            f"{what} id {int(ids[bad][0])} out of range [0, {table.shape[0]})")
    return table[ids]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity <a,b> / (|a||b|); undefined for zero vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine undefined for zero vector")
    return float(np.dot(a, b) / (na * nb))


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
        head = fh.read(len(_BINARY_MAGIC) + 2 + 4 + 4)
        if len(head) < len(_BINARY_MAGIC) + 10 or head[:4] != _BINARY_MAGIC:
            raise ValidationError(f"{path}: not a vector file (bad magic)")
        version, count, dim = struct.unpack_from("<HII", head, 4)
        if version != _BINARY_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        if count == 0 or dim == 0:
            raise ValidationError(f"{path}: no vectors")
        tokens: list[str] = []
        rows = np.empty((count, dim), dtype=np.float64)
        seen: set[str] = set()
        for row in range(count):
            raw_len = fh.read(2)
            if len(raw_len) != 2:
                raise ValidationError(f"{path}: truncated at row {row + 1}")
            (token_len,) = struct.unpack("<H", raw_len)
            try:
                token = fh.read(token_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(
                    f"{path}: token at row {row + 1} is not UTF-8") from exc
            payload = fh.read(4 * dim)
            if len(payload) != 4 * dim:
                raise ValidationError(f"{path}: truncated at row {row + 1}")
            if token in seen:
                raise ValidationError(f"{path}: duplicate word {token!r} at row {row + 1}")
            seen.add(token)
            vec = np.frombuffer(payload, dtype="<f4").astype(np.float64)
            if not np.all(np.isfinite(vec)):
                raise ValidationError(f"{path}: non-finite value at row {row + 1}")
            tokens.append(token)
            rows[row] = vec
    return tokens, rows


def read_vectors(path: str, fmt: str) -> tuple[list[str], np.ndarray]:
    """The tokens and `(count, dim)` rows of a vector file in format `fmt`
    ("text" or "binary")."""
    parsers = {"text": _parse_text_vectors, "binary": _parse_binary_vectors}
    if fmt not in parsers:
        raise ValidationError(f"unknown vector format {fmt!r}")
    return parsers[fmt](path)


def load_word_vectors(path: str, fmt: str = "text",
                      stop_words: frozenset[str] | None = None) -> EmbeddingStore:
    """Load pre-trained word vectors into a store with a frozen word table."""
    tokens, rows = read_vectors(path, fmt)
    store = EmbeddingStore(rows.shape[1], word_vocab=Vocab(stop_words=stop_words))
    store.add_words(tokens, rows)
    store.freeze_words()
    return store


def load_entity_vectors(path: str, store: EmbeddingStore, fmt: str = "text") -> int:
    """Load entity vectors (same file formats) into `store`; returns count."""
    names, rows = read_vectors(path, fmt)
    if rows.shape[1] != store.dim:
        raise ValidationError(
            f"{path}: dimension {rows.shape[1]} does not match store dimension {store.dim}")
    # No renormalisation here: float32 storage keeps norms within the unit
    # tolerance, and rescaling would break bit-exact binary round-trips.
    store.add_entities(names, rows)
    return len(names)


def save_vectors_text(path: str, names: list[str], matrix: np.ndarray) -> None:
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
