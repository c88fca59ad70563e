"""Documents, corpora and their file formats.

The native format is JSON lines: one object per line with fields `id`,
`tokens` (array of strings) and `mentions` (array of objects with `start`,
`end`, `surface` and optional `gold`), spans being [start, end) over the
token list.  A column-text importer covers CoNLL-style data: documents
opened by ``-DOCSTART-`` or ``#doc <id>`` lines, then token lines with
optional ``<TAB>B<TAB>gold`` / ``<TAB>I`` / ``<TAB>O`` tags.  A file whose
first nonblank line opens a document is column text, any other JSON lines:
a damaged first line then fails to parse instead of reading as the other.

`build_context_windows` gives each mention the word ids around it, less
the stop words its caller passes: a stop word keeps its id and its
vector, and only the windows skip it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ValidationError
from .vocab import Vocab, open_text


@dataclass
class Mention:
    start: int
    end: int
    surface: str
    gold: str | None = None
    gold_id: int | None = None
    candidates: list | None = None      # list[Candidate] once selected
    context: list[int] | None = None    # word ids once windows are built


@dataclass
class Document:
    doc_id: str
    tokens: list[str]
    mentions: list[Mention] = field(default_factory=list)

    def validate(self) -> None:
        n = len(self.tokens)
        prev_end = 0
        for mention in sorted(self.mentions, key=lambda m: (m.start, m.end)):
            if not (0 <= mention.start < mention.end <= n):
                raise ValidationError(
                    f"doc {self.doc_id!r}: span [{mention.start}, {mention.end}) "
                    f"outside 0..{n}")
            if mention.start < prev_end:
                raise ValidationError(
                    f"doc {self.doc_id!r}: overlapping mention at "
                    f"[{mention.start}, {mention.end})")
            prev_end = mention.end
        self.mentions.sort(key=lambda m: (m.start, m.end))


@dataclass
class Corpus:
    documents: list[Document]

    def __iter__(self):
        return iter(self.documents)

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def n_mentions(self) -> int:
        return sum(len(d.mentions) for d in self.documents)


_DOC_LINES = ("-DOCSTART-", "#doc")


def load_corpus(path: str) -> Corpus:
    with open_text(path) as fh:
        first = next((line for line in fh if line.strip()), "")
    docs = (_load_columns if first.startswith(_DOC_LINES) else _load_jsonl)(path)
    for doc in docs:
        doc.validate()
    return Corpus(documents=docs)


_JSON_TYPES = {dict: "an object", list: "an array", int: "an integer", str: "a string"}


def _typed(value, kind: type, what: str, where: str):
    """`value` if it has JSON type `kind` (a JSON true or false is no integer)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{where}: {what} is not {_JSON_TYPES[kind]}")
    return value


def _json_mention(m, where: str) -> Mention:
    m = _typed(m, dict, "a mention", where)
    gold = m.get("gold")
    return Mention(start=_typed(m["start"], int, "start", where),
                   end=_typed(m["end"], int, "end", where),
                   surface=str(m["surface"]),
                   gold=None if gold is None else _typed(gold, str, "gold", where))


def _load_jsonl(path: str) -> list[Document]:
    docs = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: invalid JSON") from exc
            except RecursionError:
                raise ValidationError(f"{where}: JSON nested too deeply") from None
            obj = _typed(obj, dict, "the line", where)
            try:
                mentions = [_json_mention(m, where)
                            for m in _typed(obj.get("mentions", []), list, "mentions", where)]
                tokens = _typed(obj["tokens"], list, "tokens", where)
                docs.append(Document(doc_id=str(obj["id"]), tokens=[str(t) for t in tokens],
                                     mentions=mentions))
            except KeyError as exc:
                raise ValidationError(f"{where}: missing field {exc}") from exc
    return docs


def _load_columns(path: str) -> list[Document]:
    docs: list[Document] = []
    tokens: list[str] = []
    mentions: list[Mention] = []
    doc_id = None
    open_mention: Mention | None = None

    def close_mention():
        nonlocal open_mention
        if open_mention is not None:
            open_mention.surface = " ".join(
                tokens[open_mention.start:open_mention.end])
            mentions.append(open_mention)
            open_mention = None

    def close_doc():
        nonlocal tokens, mentions, doc_id
        close_mention()
        if doc_id is not None:
            docs.append(Document(doc_id=doc_id, tokens=tokens, mentions=mentions))
        tokens, mentions, doc_id = [], [], None

    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                close_mention()
                continue
            if line.startswith(_DOC_LINES):
                close_doc()
                remainder = line.split(None, 1)
                doc_id = remainder[1].strip("() ") if len(remainder) > 1 else str(len(docs))
                continue
            parts = line.split("\t")
            tag = parts[1] if len(parts) > 1 else "O"
            if len(parts) > 3 or tag not in ("B", "I", "O"):
                raise ValidationError(
                    f"{path}:{lineno}: expected token[<TAB>B|I|O[<TAB>gold]]")
            token = parts[0]
            pos = len(tokens)
            tokens.append(token)
            if tag == "B":
                close_mention()
                gold = parts[2] if len(parts) > 2 and parts[2] else None
                open_mention = Mention(start=pos, end=pos + 1, surface=token, gold=gold)
            elif tag == "I":
                if open_mention is None:
                    raise ValidationError(f"{path}:{lineno}: I tag without open mention")
                open_mention.end = pos + 1
            else:
                close_mention()
    close_doc()
    return docs


def save_corpus(path: str, corpus: Corpus) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            obj = {
                "id": doc.doc_id,
                "tokens": doc.tokens,
                "mentions": [
                    {"start": m.start, "end": m.end, "surface": m.surface,
                     **({"gold": m.gold} if m.gold is not None else {})}
                    for m in doc.mentions
                ],
            }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def resolve_gold(corpus: Corpus, entities: Vocab) -> int:
    """Fill mention.gold_id from gold names; returns unresolvable count."""
    missing = 0
    for doc in corpus:
        for mention in doc.mentions:
            if mention.gold is None:
                continue
            idx = entities.id(mention.gold)
            if idx is None:
                missing += 1
            mention.gold_id = idx
    return missing


def build_context_windows(corpus: Corpus, vocab: Vocab, k: int,
                          stop_words: frozenset[str] = frozenset()) -> None:
    """Attach up to k context word ids per mention, split evenly per side.

    Takes floor(k/2) raw tokens to the left and right of the mention span
    (truncated at the document bounds), then drops the tokens in
    `stop_words` and those missing from the vocabulary, so |context| <= k.
    """
    if k <= 0:
        raise ValidationError(f"context size must be positive, got {k}")
    half = k // 2
    for doc in corpus:
        for mention in doc.mentions:
            lo = max(0, mention.start - half)
            hi = min(len(doc.tokens), mention.end + half)
            raw = doc.tokens[lo:mention.start] + doc.tokens[mention.end:hi]
            context = []
            for token in raw:
                idx = vocab.id(token)
                if idx is not None and token not in stop_words:
                    context.append(idx)
            mention.context = context
