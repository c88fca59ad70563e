"""Corpus loading, span validation, context windows."""

import pytest
from columntext import write_column_text

from entlink.docs import (
    Corpus,
    Document,
    Mention,
    build_context_windows,
    load_corpus,
    resolve_gold,
    save_corpus,
)
from entlink.errors import ValidationError
from entlink.vocab import Vocab


def write_jsonl(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        corpus = load_corpus(str(path))
        assert len(corpus) == 0
        assert corpus.n_mentions == 0

    def test_mentions_per_doc(self, tmp_path):
        path = tmp_path / "c.jsonl"
        doc1 = {"id": "a", "tokens": ["x"] * 20,
                "mentions": [{"start": i * 2, "end": i * 2 + 1, "surface": "x"}
                             for i in range(5)]}
        doc2 = {"id": "b", "tokens": ["x"] * 20,
                "mentions": [{"start": i * 2, "end": i * 2 + 1, "surface": "x"}
                             for i in range(3)]}
        import json
        write_jsonl(path, [json.dumps(doc1), json.dumps(doc2)])
        corpus = load_corpus(str(path))
        assert len(corpus) == 2
        assert [len(doc.mentions) for doc in corpus] == [5, 3]
        assert corpus.n_mentions == 8

    def test_span_past_end_names_doc(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, ['{"id":"baddoc","tokens":["a"],'
                           '"mentions":[{"start":0,"end":5,"surface":"a"}]}'])
        with pytest.raises(ValidationError, match="baddoc"):
            load_corpus(str(path))

    def test_overlapping_mentions_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, ['{"id":"d","tokens":["a","b","c"],"mentions":'
                           '[{"start":0,"end":2,"surface":"a b"},'
                           '{"start":1,"end":3,"surface":"b c"}]}'])
        with pytest.raises(ValidationError, match="overlapping"):
            load_corpus(str(path))

    @pytest.mark.parametrize("line, message", [
        ('{"id":"d","tokens":["a"],"mentions":[{"start":"x","end":1,"surface":"a"}]}',
         "start is not an integer"),
        ("[1,2]", "the line is not an object"),
        ('{"id":"d","tokens":"ab","mentions":[]}', "tokens is not an array")],
        ids=["string-start", "array-line", "string-tokens"])
    def test_mistyped_line_rejected(self, tmp_path, line, message):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, ["", line])
        with pytest.raises(ValidationError, match=f":2: {message}"):
            load_corpus(str(path))

    def test_round_trip(self, tmp_path):
        doc = Document(doc_id="d", tokens=["a", "b", "c"], mentions=[
            Mention(start=1, end=2, surface="b", gold="E1")])
        path = tmp_path / "c.jsonl"
        save_corpus(str(path), Corpus([doc]))
        reloaded = load_corpus(str(path))
        got = reloaded.documents[0]
        assert got.tokens == ["a", "b", "c"]
        assert got.mentions[0].gold == "E1"
        assert got.mentions[0].surface == "b"


class TestColumnImporter:
    def test_basic_bio(self, tmp_path):
        path = tmp_path / "c.col"
        path.write_text(
            "-DOCSTART- (doc1)\n"
            "The\n"
            "United\tB\tE_USA\n"
            "States\tI\n"
            "play\n"
            "\n"
            "#doc doc2\n"
            "Paris\tB\tE_Paris\n"
        )
        corpus = load_corpus(str(path))
        assert len(corpus) == 2
        d1 = corpus.documents[0]
        assert d1.doc_id == "doc1"
        assert d1.tokens == ["The", "United", "States", "play"]
        assert len(d1.mentions) == 1
        assert d1.mentions[0].surface == "United States"
        assert d1.mentions[0].gold == "E_USA"
        d2 = corpus.documents[1]
        assert d2.mentions[0].gold == "E_Paris"

    def test_dangling_i_tag_rejected(self, tmp_path):
        path = tmp_path / "c.col"
        path.write_text("#doc d\nfoo\tI\n")
        with pytest.raises(ValidationError, match="I tag"):
            load_corpus(str(path))


class TestFormatFromContent:
    CORPUS = Corpus([
        Document(doc_id="d0", tokens=["The", "United", "States", "play", "Paris"],
                 mentions=[Mention(start=1, end=3, surface="United States", gold="E_USA"),
                           Mention(start=4, end=5, surface="Paris")]),
        Document(doc_id="d1", tokens=["Paris", "Texas"],
                 mentions=[Mention(start=0, end=1, surface="Paris", gold="E_Paris"),
                           Mention(start=1, end=2, surface="Texas", gold="E_Texas")]),
        Document(doc_id="d2", tokens=["nothing", "here"])])

    def test_either_format_under_any_name_loads_the_same_documents(self, tmp_path):
        (tmp_path / "json").mkdir()
        (tmp_path / "columns").mkdir()
        for name in ("c.jsonl", "c.col", "c"):
            save_corpus(str(tmp_path / "json" / name), self.CORPUS)
            write_column_text(tmp_path / "columns" / name, self.CORPUS)
            for kind in ("json", "columns"):
                loaded = load_corpus(str(tmp_path / kind / name))
                assert loaded.documents == self.CORPUS.documents, (kind, name)

    @pytest.mark.parametrize("text, line, message", [
        ("#doc d\nfoo\tX\n", 2, "expected token[<TAB>B|I|O[<TAB>gold]]"),
        ("\n-DOCSTART-\nfoo\tB\tE\textra\n", 3, "expected token[<TAB>B|I|O[<TAB>gold]]"),
        ("foo\tB\tE\n", 1, "invalid JSON"),
        ('\ufeff{"id":"d","tokens":[]}\n', 1, "invalid JSON"),
        ("\n{\"id\": \"d\"\n", 2, "invalid JSON"),
        ('{"id":"d","tokens":[]}\n' + "[" * 200000 + "\n", 2, "JSON nested too deeply"),
        ("[" * 200000 + "\n", 1, "JSON nested too deeply")],
        ids=["unknown-tag", "four-fields", "columns-without-doc-line", "byte-order-mark",
             "broken-object", "deep-second-line", "deep-first-line"])
    def test_a_file_of_neither_format_names_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "c.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            load_corpus(str(path))
        assert str(err.value).startswith(f"{path}:{line}: {message}")


class TestResolveGold:
    def test_resolution_and_missing_count(self):
        entities = Vocab()
        entities.add("E0")
        doc = Document(doc_id="d", tokens=["a", "b"], mentions=[
            Mention(start=0, end=1, surface="a", gold="E0"),
            Mention(start=1, end=2, surface="b", gold="Emissing"),
        ])
        missing = resolve_gold(Corpus([doc]), entities)
        assert missing == 1
        assert doc.mentions[0].gold_id == 0
        assert doc.mentions[1].gold_id is None


class TestContextWindows:
    def _corpus(self, tokens, start, end):
        doc = Document(doc_id="d", tokens=tokens,
                       mentions=[Mention(start=start, end=end, surface="m")])
        return Corpus([doc]), doc

    def test_symmetric_window(self):
        vocab = Vocab()
        tokens = [f"t{i}" for i in range(10)]
        for t in tokens:
            vocab.add(t)
        corpus, doc = self._corpus(tokens, 4, 5)
        build_context_windows(corpus, vocab, k=4)
        got = [vocab.token(i) for i in doc.mentions[0].context]
        assert got == ["t2", "t3", "t5", "t6"]

    def test_truncated_at_document_bounds(self):
        vocab = Vocab()
        tokens = ["a", "b", "c"]
        for t in tokens:
            vocab.add(t)
        corpus, doc = self._corpus(tokens, 0, 1)
        build_context_windows(corpus, vocab, k=10)
        got = [vocab.token(i) for i in doc.mentions[0].context]
        assert got == ["b", "c"]

    def test_stop_and_unknown_words_removed(self):
        vocab = Vocab()
        for t in ["the", "cat"]:
            vocab.add(t)
        corpus, doc = self._corpus(["the", "cat", "m", "the", "dog"], 2, 3)
        build_context_windows(corpus, vocab, k=4, stop_words=frozenset({"the"}))
        got = [vocab.token(i) for i in doc.mentions[0].context]
        assert got == ["cat"]  # "the" is a stop word, "dog" unknown

    def test_size_bound(self):
        vocab = Vocab()
        tokens = [f"t{i}" for i in range(50)]
        for t in tokens:
            vocab.add(t)
        corpus, doc = self._corpus(tokens, 25, 26)
        build_context_windows(corpus, vocab, k=6)
        assert len(doc.mentions[0].context) <= 6
