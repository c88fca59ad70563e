"""Token vocabularies with stable integer ids, stop-word flags and counts.

Words and entities live in separate Vocab instances, so an entity whose
name collides with a word is never ambiguous.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from .errors import ValidationError

# Bundled default stop-word list (overridable wherever a Vocab is built).
DEFAULT_STOP_WORDS: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can cannot could
    couldn't did didn't do does doesn't doing don't down during each few for
    from further had hadn't has hasn't have haven't having he he'd he'll he's
    her here here's hers herself him himself his how how's i i'd i'll i'm
    i've if in into is isn't it it's its itself let's me more most mustn't my
    myself no nor not of off on once only or other ought our ours ourselves
    out over own same shan't she she'd she'll she's should shouldn't so some
    such than that that's the their theirs them themselves then there there's
    these they they'd they'll they're they've this those through to too under
    until up very was wasn't we we'd we'll we're we've were weren't what
    what's when when's where where's which while who who's whom why why's
    with won't would wouldn't you you'd you'll you're you've your yours
    yourself yourselves
    """.split()
)


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
