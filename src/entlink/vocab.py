"""Token vocabularies with stable integer ids, stop-word flags and counts,
and the one reader and the one writer of tab-separated files.

Words and entities live in separate Vocab instances, so an entity whose
name collides with a word is never ambiguous.  `read_rows` reads every
tab-separated input and `write_rows` writes every tab-separated output; a
field `write_rows` could not write so that `read_rows` reads it back is
refused before the file is opened.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from .errors import ValidationError


class Vocab:
    """Bidirectional string <-> dense-id map with stop flags and counts.

    Stop words are flagged, never deleted, so token offsets into external
    data stay stable.  string -> id -> string round-trips exactly.
    """

    def __init__(self, stop_words: frozenset[str] | set[str] | None = None):
        self._tokens: list[str] = []
        self._index: dict[str, int] = {}
        self._counts: list[int] = []
        self._stop: list[bool] = []
        self._stop_words = frozenset(stop_words) if stop_words is not None else frozenset()

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def add(self, token: str, count: int = 0) -> int:
        """Insert `token` if new and return its id; counts accumulate."""
        idx = self._index.get(token)
        if idx is None:
            idx = len(self._tokens)
            self._index[token] = idx
            self._tokens.append(token)
            self._counts.append(0)
            self._stop.append(token in self._stop_words)
        self._counts[idx] += count
        return idx

    def extend(self, tokens: list[str], what: str) -> None:
        """Add `tokens` with ids len(self), len(self) + 1, ... in one pass.

        A token already present or given twice raises a ValidationError
        naming the first such token (``duplicate <what>: ...``) before
        anything changes.
        """
        start = len(self._tokens)
        index = dict(zip(tokens, range(start, start + len(tokens))))
        if len(index) < len(tokens) or not self._index.keys().isdisjoint(index):
            seen = set(self._index)
            for token in tokens:
                if token in seen:
                    raise ValidationError(f"duplicate {what}: {token!r}")
                seen.add(token)
        self._index.update(index)
        self._tokens.extend(tokens)
        self._counts.extend([0] * len(tokens))
        self._stop.extend([token in self._stop_words for token in tokens])

    def id(self, token: str) -> int | None:
        return self._index.get(token)

    def token(self, idx: int) -> str:
        return self._tokens[self.require_index(idx)]

    def is_stop(self, idx: int) -> bool:
        return self._stop[self.require_index(idx)]

    def count(self, idx: int) -> int:
        return self._counts[self.require_index(idx)]

    def set_count(self, idx: int, count: int) -> None:
        if count < 0:
            raise ValidationError("counts must be nonnegative")
        self._counts[self.require_index(idx)] = count

    def require_index(self, idx: int) -> int:
        if not 0 <= idx < len(self._tokens):
            raise ValidationError(f"token id {idx} out of range [0, {len(self._tokens)})")
        return idx

    def tokens(self) -> list[str]:
        return list(self._tokens)


@contextmanager
def open_text(path: str):
    """`path` opened for reading as UTF-8.  A byte that is not UTF-8 raises a
    ValidationError naming the file, the line and the byte's offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the decoder reports offsets within its chunk; find the file's
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise ValidationError(
                    f"{path}:{line}: not valid UTF-8 "
                    f"(byte 0x{data[exc.start]:02x} at offset {exc.start})") from None
            raise


def read_rows(path: str, layout: str, start: int = 1):
    """Yield ``(where, fields)`` for each nonblank line of a tab-separated file.

    `where` is ``path:line``.  Lines before line `start` are skipped.  A
    line whose field count differs from `layout`'s (fields named and
    joined by ``<TAB>``) raises a ValidationError naming the line.
    """
    width = layout.count("<TAB>") + 1
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if lineno < start or not line:
                continue
            where = f"{path}:{lineno}"
            fields = line.split("\t")
            if len(fields) != width:
                raise ValidationError(f"{where}: expected {layout}")
            yield where, fields


def write_rows(path: str, header: list[str] | None, rows) -> None:
    """Write `header` (unless None), then each row, as UTF-8 lines of
    ``str(field)`` joined by tabs: the one writer of tab-separated files.

    A field holding a tab, ``\\n`` or ``\\r`` would not read back through
    `read_rows` as one field of one row.  Every line is checked before the
    file is opened, so such a field raises a ValidationError naming the
    path, the line and the field, and leaves no file.
    """
    lines = []
    for lineno, row in enumerate(rows if header is None else [header, *rows],
                                 start=1):
        fields = [str(field) for field in row]
        for col, value in enumerate(fields):
            if "\t" in value or "\n" in value or "\r" in value:
                name = repr(header[col]) if header is not None else col + 1
                raise ValidationError(f"{path}:{lineno}: field {name} holds a tab "
                                      f"or a line break: {value!r}")
        lines.append("\t".join(fields) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def parse_field(kind: type, raw: str, where: str):
    """`kind(raw)`, finite if a float, or a validation error naming `where`."""
    try:
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError(raw)
        return value
    except ValueError as exc:
        raise ValidationError(f"{where}: expected {kind.__name__}, got {raw!r}") from exc


def read_counts(path: str) -> list[tuple[str, int]]:
    """The ``name \\t count`` rows of a file, in order; blank lines skipped."""
    return [(name, parse_field(int, raw, f"{where}: bad count"))
            for where, (name, raw) in read_rows(path, "name<TAB>count")]


def load_word_frequencies(path: str, vocab: Vocab) -> int:
    """Read ``word \\t count`` lines into `vocab`; returns rows applied.

    Words absent from the vocabulary are ignored (frequency data often
    covers a larger corpus than the embedded vocabulary).
    """
    applied = 0
    for word, count in read_counts(path):
        idx = vocab.id(word)
        if idx is not None:
            vocab.set_count(idx, count)
            applied += 1
    return applied


def load_stop_words(path: str) -> frozenset[str]:
    """One stop word per line; blank lines and '#' comments ignored."""
    words = []
    with open_text(path) as fh:
        for line in fh:
            token = line.strip()
            if token and not token.startswith("#"):
                words.append(token)
    return frozenset(words)
