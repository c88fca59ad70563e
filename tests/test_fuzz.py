"""Mutated input files through the commands that read them.

Each format of the README's data-format table starts as a small valid file
and is truncated, bit-flipped and spliced in a seeded loop, then read by
the command that reads it, in process.  Whatever the mutation, `cli.main`
returns 0, 1 or 2 and raises nothing.  Many mutations leave a valid file
(a flipped digit in a count, say), so exit 0 is allowed.  Three classes
must exit 1: a truncated binary vector file, a row of the wrong width and
a non-finite number.  A vector file must also exit 1 for a repeated name
and, for entities, for rows of another width than the words', and each
vector file's refusal names the file.  Binary vectors, words and entities,
are fuzzed as `save_vectors_binary` writes them, in the one binary layout
read.  An entities file in the old version-1 layout is fuzzed too: it is
refused whole, so a repeated name or a wider row in it exits 1 as well.
The stage commands load only the words their corpora hold, so the word
files are also fuzzed through `predict` among words no corpus holds.
"""

import random
import struct

import numpy as np
import pytest

from entlink.attention import LocalParams
from entlink.cli import main
from entlink.model_io import save_model
from entlink.vectors import save_vectors_binary, save_vectors_text

ROUNDS = 40   # mutations of each kind per format

WORDS = ["united", "states", "play", "paris", "texas", "river"]
ENTITIES = ["E_USA", "E_Paris", "E_Texas", "E_River"]

TEXT_FILES = {
    "counts.tsv": "E_USA\tunited\t3\nE_USA\tstates\t2\nE_Paris\tparis\t4\n"
                  "E_Texas\ttexas\t2\nE_River\triver\t1\nE_River\tparis\t1\n",
    "queries.tsv": "E_USA\tE_Texas\t1\nE_USA\tE_Paris\t0\nE_USA\tE_River\t0\n"
                   "E_Paris\tE_River\t1\nE_Paris\tE_Texas\t0\n",
    "count_index.tsv": "Paris\tE_Paris\t8\nParis\tE_Texas\t2\nTexas\tE_Texas\t5\n",
    "uniform_index.tsv": "Paris\tE_Paris\nParis\tE_River\nStates\tE_USA\n",
    "prior.tsv": "United States\tE_USA\t1\nParis\tE_Paris\t0.75\nParis\tE_Texas\t0.25\n"
                 "Texas\tE_Texas\t0.9\nTexas\tE_River\t0.1\n",
    "persons.tsv": "E_USA\t0\nE_Paris\t1\nE_Texas\t1\nE_River\t0\n",
    "corpus.jsonl":
        '{"id":"d0","tokens":["the","united","states","play","paris"],"mentions":'
        '[{"start":1,"end":3,"surface":"United States","gold":"E_USA"},'
        '{"start":4,"end":5,"surface":"Paris","gold":"E_Paris"}]}\n'
        '{"id":"d1","tokens":["paris","texas","river"],"mentions":'
        '[{"start":0,"end":1,"surface":"Paris","gold":"E_Texas"},'
        '{"start":1,"end":2,"surface":"Texas"}]}\n',
    "corpus.col": "-DOCSTART- (d0)\nthe\nunited\tB\tE_USA\nstates\tI\nplay\n"
                  "paris\tB\tE_Paris\n\n#doc d1\nparis\tB\tE_Texas\ntexas\tB\nriver\n",
    "predictions.tsv": "doc\tmention\tentity\nd0\t0\tE_USA\nd0\t1\tE_Texas\nd1\t0\t\n"
                       "d1\t1\tE_Texas\n",
    "freq.tsv": "E_USA\t12\nE_Paris\t7\nE_Texas\t3\n",
}


def _argv(d, name):
    """The command reading `name` from directory `d`, its other inputs valid."""
    p = {n: str(d / n) for n in (*TEXT_FILES, *VECTOR_FILES, OLD_LAYOUT)}
    select = ["select-candidates", "--word-vectors", p["words.txt"], "--entities",
              p["entities.txt"], "--prior", p["prior.tsv"], "--persons",
              p["persons.tsv"], "--corpus", p["corpus.jsonl"], "--out", str(d / "out.tsv")]
    commands = {
        "entities.txt": ["eval-relatedness", "--entities", p["entities.txt"],
                         "--queries", p["queries.tsv"]],
        "words.txt": select,
        "counts.tsv": ["train-embeddings", "--word-vectors", p["words.txt"], "--counts",
                       p["counts.tsv"], "--set", "embed_iters=2", "--out",
                       str(d / "trained.txt")],
        "count_index.tsv": ["build-prior", "--count-index", p["count_index.tsv"],
                            "--out", str(d / "built.tsv")],
        "uniform_index.tsv": ["build-prior", "--uniform-index", p["uniform_index.tsv"],
                              "--out", str(d / "built.tsv")],
        "predictions.tsv": ["evaluate", "--predictions", p["predictions.tsv"],
                            "--corpus", p["corpus.jsonl"], "--prior", p["prior.tsv"]],
        "freq.tsv": ["breakdown", "--predictions", p["predictions.tsv"], "--corpus",
                     p["corpus.jsonl"], "--prior", p["prior.tsv"], "--freq",
                     p["freq.tsv"]],
    }
    for binary in ("entities.bin", OLD_LAYOUT):
        commands[binary] = [a if a != p["entities.txt"] else p[binary]
                            for a in commands["entities.txt"]]
    commands["words.bin"] = [a if a != p["words.txt"] else p["words.bin"] for a in select]
    commands["queries.tsv"] = commands["entities.txt"]
    commands.update(dict.fromkeys(("prior.tsv", "persons.tsv", "corpus.jsonl"), select))
    commands["corpus.col"] = [a if a != p["corpus.jsonl"] else p["corpus.col"]
                              for a in select]
    return commands[name]


VECTOR_FILES = ["words.txt", "entities.txt", "words.bin", "entities.bin"]
BINARY_FILES = [n for n in VECTOR_FILES if n.endswith(".bin")]
FORMATS = [*VECTOR_FILES, "counts.tsv", "queries.tsv", "count_index.tsv",
           "uniform_index.tsv", "prior.tsv", "persons.tsv", "corpus.jsonl", "corpus.col",
           "predictions.tsv", "freq.tsv"]
OLD_LAYOUT = "entities_v1.bin"   # entities in the version-1 layout, never read


def _version_1(names: list[str], rows) -> bytes:
    """A version-1 binary vector file: per row a u16 token length, the
    token and its float32 values."""
    rows = np.asarray(rows, dtype="<f4")
    raw = b"EVEC" + struct.pack("<HII", 1, len(names), rows.shape[1])
    for name, row in zip(names, rows):
        token = name.encode()
        raw += struct.pack("<H", len(token)) + token + row.tobytes()
    return raw


@pytest.fixture
def inputs(tmp_path):
    """A directory of valid files, one of each format, and their bytes."""
    rng = np.random.default_rng(0)
    words = rng.normal(size=(len(WORDS), 3))
    save_vectors_text(str(tmp_path / "words.txt"), WORDS, words)
    save_vectors_binary(str(tmp_path / "words.bin"), WORDS, words)
    units = rng.normal(size=(len(ENTITIES), 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    save_vectors_text(str(tmp_path / "entities.txt"), ENTITIES, units)
    save_vectors_binary(str(tmp_path / "entities.bin"), ENTITIES, units)
    (tmp_path / OLD_LAYOUT).write_bytes(_version_1(ENTITIES, units))
    for name, text in TEXT_FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path, {name: (tmp_path / name).read_bytes() for name in (*FORMATS, OLD_LAYOUT)}


def _run(d, name, data, what, capsys, argv=None):
    """The exit code and stderr of `name`'s command (or `argv`) with `data`
    as its file; fails the test, naming the mutation, when an exception
    escapes or the code is outside the contract."""
    original = (d / name).read_bytes()
    (d / name).write_bytes(data)
    try:
        code = main(argv or _argv(d, name))
    except Exception as exc:  # noqa: BLE001 - any escape breaks the contract
        pytest.fail(f"{name}, {what}: {type(exc).__name__}: {exc}")
    finally:
        (d / name).write_bytes(original)
        err = capsys.readouterr().err
    assert code in (0, 1, 2), (name, what, code)
    return code, err


def _refused(d, name, data, what, capsys, argv=None):
    """Asserts that `name`'s command exits 1 with `data` as its file, and
    that its message names the file."""
    code, err = _run(d, name, data, what, capsys, argv)
    assert code == 1 and str(d / name) in err, (name, what, code, err)


def _mutations(rng, data, others):
    """(description, bytes) pairs: ROUNDS truncations, bit flips and splices."""
    for _ in range(ROUNDS):
        cut = rng.randrange(len(data))
        yield f"truncated at {cut}", data[:cut]
        flipped = bytearray(data)
        bits = [rng.randrange(8 * len(data)) for _ in range(rng.randint(1, 3))]
        for bit in bits:
            flipped[bit // 8] ^= 1 << bit % 8
        yield f"bits {bits} flipped", bytes(flipped)
        other = rng.choice(others)
        at, tail = rng.randrange(len(data) + 1), rng.randrange(len(other) + 1)
        yield f"spliced at {at} with a tail from {tail}", data[:at] + other[tail:]


def test_valid_inputs_exit_0(inputs, capsys):
    d, files = inputs
    for name in FORMATS:
        assert _run(d, name, files[name], "unchanged", capsys)[0] == 0, name


@pytest.mark.parametrize("name", [*FORMATS, OLD_LAYOUT])
def test_mutated_file_keeps_the_exit_code_contract(inputs, capsys, name):
    d, files = inputs
    rng = random.Random(f"{name}-fuzz")
    others = list(files.values())
    for what, data in _mutations(rng, files[name], others):
        _run(d, name, data, what, capsys)


def test_truncated_binary_vectors_exit_1(inputs, capsys):
    d, files = inputs
    for name in BINARY_FILES:
        data = files[name]
        for cut in range(len(data)):
            _refused(d, name, data[:cut], f"truncated at {cut}", capsys)


@pytest.mark.parametrize("save", [save_vectors_text, save_vectors_binary])
def test_predict_reads_mutated_words_it_keeps(inputs, capsys, save):
    # predict loads only the rows of its corpus's words, here 6 of 10: a
    # mutation in a row it does not keep may go unread, yet the command
    # keeps the exit-code contract
    d, files = inputs
    name = "kept_words" + (".txt" if save is save_vectors_text else ".bin")
    words = [*WORDS[:3], "alpha", "beta", *WORDS[3:], "gamma", "delta"]
    save(str(d / name), words, np.random.default_rng(1).normal(size=(len(words), 3)))
    save_model(str(d / "local.model"), LocalParams.init(3, hidden=4, k=4, r=2))
    argv = ["predict", "--model", str(d / "local.model"), "--word-vectors", str(d / name),
            "--entities", str(d / "entities.txt"), "--prior", str(d / "prior.tsv"),
            "--corpus", str(d / "corpus.jsonl"), "--out", str(d / "predicted.tsv")]
    data = (d / name).read_bytes()
    assert _run(d, name, data, "unchanged", capsys, argv)[0] == 0
    rng = random.Random(f"{name}-predict")
    for what, mutated in _mutations(rng, data, list(files.values())):
        _run(d, name, mutated, what, capsys, argv)


def _last_line_widened(data: bytes, sep: bytes) -> bytes:
    """`data` with three more fields on its last line (a column-text token
    line then has four or more, past its widest)."""
    lines = data.rstrip(b"\n").split(b"\n")
    return b"\n".join([*lines[:-1], sep.join([lines[-1], b"B", b"E", b"1"])]) + b"\n"


@pytest.mark.parametrize("name", [n for n in FORMATS if n not in (*BINARY_FILES,
                                                                   "corpus.jsonl")])
def test_wrong_row_width_exits_1(inputs, capsys, name):
    d, files = inputs
    sep = b" " if name.endswith(".txt") else b"\t"
    widened = _last_line_widened(files[name], sep)
    if name in VECTOR_FILES:
        _refused(d, name, widened, "last row widened", capsys)
    else:
        assert _run(d, name, widened, "last row widened", capsys)[0] == 1


@pytest.mark.parametrize("name", [*(n for n in VECTOR_FILES if n.startswith("entities")),
                                  OLD_LAYOUT])
def test_entity_rows_of_another_width_exit_1(inputs, capsys, name):
    # select-candidates appends 4-value entity rows to 3-value words
    d, _ = inputs
    units = np.eye(4)[:len(ENTITIES)]
    save = {"entities.txt": save_vectors_text, "entities.bin": save_vectors_binary}
    wide = d / "wide"
    if name in save:
        save[name](str(wide), ENTITIES, units)
    else:
        wide.write_bytes(_version_1(ENTITIES, units))
    argv = [str(d / name) if a == str(d / "entities.txt") else a
            for a in _argv(d, "prior.tsv")]
    _refused(d, name, wide.read_bytes(), "4 values a row", capsys, argv)


@pytest.mark.parametrize("name", [*VECTOR_FILES, OLD_LAYOUT])
def test_repeated_name_exits_1(inputs, capsys, name):
    # a name becomes a copy of another of its length, in its place
    d, files = inputs
    pair = ("states", "united") if name.startswith("words") else ("E_Texas", "E_Paris")
    name_from, name_to = pair
    assert files[name].count(name_from.encode()) == 1
    data = files[name].replace(name_from.encode(), name_to.encode())
    _refused(d, name, data, f"{name_from} renamed {name_to}", capsys)


@pytest.mark.parametrize("name", ["counts.tsv", "count_index.tsv", "prior.tsv",
                                  "freq.tsv"])
def test_negative_number_exits_1(inputs, capsys, name):
    # the count and probability columns of NUMBER_COLUMNS; the refusal
    # names the file and the line
    d, files = inputs
    lines = files[name].split(b"\n")
    fields = lines[0].split(b"\t")
    fields[NUMBER_COLUMNS[name]] = b"-" + fields[NUMBER_COLUMNS[name]]
    lines[0] = b"\t".join(fields)
    code, err = _run(d, name, b"\n".join(lines), "a negative number", capsys)
    assert code == 1 and f"{d / name}:1: negative" in err, (name, code, err)


NUMBER_COLUMNS = {"counts.tsv": 2, "count_index.tsv": 2, "prior.tsv": 2,
                  "queries.tsv": 2, "persons.tsv": 1, "freq.tsv": 1,
                  "predictions.tsv": 1}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_exits_1(inputs, capsys, value):
    d, files = inputs
    cases = {}
    for name in ("words.txt", "entities.txt"):
        lines = files[name].split(b"\n")
        fields = lines[1].split(b" ")
        lines[1] = b" ".join([fields[0], value.encode(), *fields[2:]])
        cases[name] = b"\n".join(lines)
    for name in BINARY_FILES:
        raw = bytearray(files[name])
        struct.pack_into("<f", raw, 14, float(value))  # the first value, after the header
        cases[name] = bytes(raw)
    for name, column in NUMBER_COLUMNS.items():
        lines = files[name].split(b"\n")
        row = 1 if name == "predictions.tsv" else 0
        fields = lines[row].split(b"\t")
        fields[column] = value.encode()
        lines[row] = b"\t".join(fields)
        cases[name] = b"\n".join(lines)
    corpus = files["corpus.jsonl"].replace(b'"start":4', b'"start":' + value.encode(), 1)
    cases["corpus.jsonl"] = corpus.replace(b"nan", b"NaN").replace(b"inf", b"Infinity")
    for name, data in cases.items():
        assert data != files[name], name
        if name in VECTOR_FILES:
            _refused(d, name, data, f"a {value}", capsys)
        else:
            assert _run(d, name, data, f"a {value}", capsys)[0] == 1, name
