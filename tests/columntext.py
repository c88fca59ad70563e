"""A writer of the column-text corpus format, which entlink reads but never
writes, so that tests can hold one corpus in both formats."""

from pathlib import Path


def write_column_text(path, corpus) -> None:
    """`corpus` as column text: a ``#doc <id>`` line per document, then one
    token per line, ``<TAB>B<TAB>gold`` (``<TAB>B`` without a gold) opening
    a mention and ``<TAB>I`` continuing it."""
    lines = []
    for doc in corpus:
        tags = [""] * len(doc.tokens)
        for m in doc.mentions:
            tags[m.start] = "\tB" + (f"\t{m.gold}" if m.gold is not None else "")
            for i in range(m.start + 1, m.end):
                tags[i] = "\tI"
        lines.append(f"#doc {doc.doc_id}")
        lines.extend(token + tag for token, tag in zip(doc.tokens, tags))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
