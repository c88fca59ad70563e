"""Peak memory and wall time of the stage commands on a Word2Vec-sized word file.

Writes an N x d binary (version 2) word vector file a chunk at a time: the
words of a `generate-synthetic` data directory, at evenly spaced rows, among
random filler words.  Then runs `select-candidates` and `predict` on the
data directory's test corpus with that file, each as a child process, and
reports each child's wall time and peak RSS (its own rusage from
`os.wait4`), then the peak over all children (`RUSAGE_CHILDREN`).  The
probe reads no memory figure but its children's.

The same two commands then run on a small binary file of the data
directory's own words, holding the same float32 rows, and the probe
checks that their outputs are byte-identical to the big file's: a command
that loads only its corpus's words must not see the fillers.

Uses only the standard library and numpy; the commands run as
`python -m entlink` under the caller's environment, so PYTHONPATH picks
the tree measured.  Example (a 3.6 GB file at the defaults):

    PYTHONPATH=src python scripts/vector_load_probe.py --workdir /tmp/probe
    PYTHONPATH=src python scripts/vector_load_probe.py --rows 200000 --workdir /tmp/probe
"""

from __future__ import annotations

import argparse
import filecmp
import os
import resource
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

CHUNK_ROWS = 8192  # rows generated and written at a time


def run(argv: list[str], log: Path) -> tuple[float, float]:
    """Run `python -m entlink argv` to completion; its wall time in seconds
    and its peak RSS in MB.  A failing command stops the probe.  A child
    started by vfork reports at least the probe's own RSS at the start, so
    the probe holds no more than a chunk of rows at a time."""
    start = time.perf_counter()
    with open(log, "w") as out:
        proc = subprocess.Popen([sys.executable, "-m", "entlink", *argv],
                                stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"entlink {argv[0]} exited {proc.returncode}; see {log}")
    return wall, usage.ru_maxrss / 1024.0


def read_text_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    """The tokens and rows of a text vector file (`<count> <dim>`, then
    `token v1 ... vd` per line)."""
    with open(path, encoding="utf-8") as fh:
        count, dim = map(int, fh.readline().split())
        tokens, rows = [], np.empty((count, dim), dtype=np.float32)
        for i, line in enumerate(fh):
            token, *values = line.rstrip("\n").split(" ")
            tokens.append(token)
            rows[i] = np.array(values, dtype=np.float64)
    return tokens, rows


def write_binary(path: Path, n_rows: int, dim: int, words: list[str],
                 word_rows: np.ndarray, seed: int) -> None:
    """An `n_rows` x `dim` version-2 file: `words` at evenly spaced rows with
    `word_rows`, random unit-variance rows named f<row> everywhere else.
    Each section is written a chunk of rows at a time, so the probe stays
    small (see `run`)."""
    at = np.linspace(0, n_rows - 1, len(words)).astype(np.int64)  # ascending rows
    where = dict(zip(at.tolist(), words))

    def names(a: int) -> list[bytes]:
        return [where.get(row, f"f{row:07d}").encode("utf-8")
                for row in range(a, min(a + CHUNK_ROWS, n_rows))]

    rng = np.random.default_rng(seed)
    chunks = range(0, n_rows, CHUNK_ROWS)
    with open(path, "wb") as fh:
        fh.write(b"EVEC" + struct.pack("<HII", 2, n_rows, dim))
        for a in chunks:
            block = rng.standard_normal((min(CHUNK_ROWS, n_rows - a), dim), dtype=np.float32)
            mine = (at >= a) & (at < a + len(block))
            block[at[mine] - a] = word_rows[mine]
            fh.write(block.astype("<f4").tobytes())
        for a in chunks:
            fh.write(np.array([len(raw) for raw in names(a)], dtype="<u2").tobytes())
        for a in chunks:
            fh.write(b"".join(names(a)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=3_000_000)
    parser.add_argument("--dim", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", required=True,
                        help="directory for the data and the files written (overwritten)")
    args = parser.parse_args()
    work = Path(args.workdir)
    data = work / "data"
    work.mkdir(parents=True, exist_ok=True)
    conf = ["--set", f"seed={args.seed}", "--set", f"dim={args.dim}"]

    # the data directory, entity vectors and a local model, on its own words
    run(["generate-synthetic", "--out", str(data), *conf], work / "generate.log")
    run(["train-embeddings", "--word-vectors", str(data / "word_vectors.txt"),
         "--counts", str(data / "counts.tsv"), "--out", str(work / "entities.bin"),
         "--out-format", "binary", "--set", "embed_iters=20", *conf], work / "embed.log")
    run(["--data-dir", str(data), "train-local", "--entities", str(work / "entities.bin"),
         "--out", str(work / "local.model"), "--set", "local_epochs=1", *conf],
        work / "train.log")

    words, word_rows = read_text_vectors(data / "word_vectors.txt")
    if len(words) > args.rows:
        sys.exit(f"--rows must be at least the data directory's {len(words)} words")
    small, big = work / "words_small.bin", work / "words_big.bin"
    write_binary(small, len(words), args.dim, words, word_rows, args.seed)
    start = time.perf_counter()
    write_binary(big, args.rows, args.dim, words, word_rows, args.seed)
    print(f"wrote {args.rows} x {args.dim} ({big.stat().st_size / 1e9:.2f} GB) "
          f"in {time.perf_counter() - start:.1f} s")

    same = True
    for command, extra in (("select-candidates", []),
                           ("predict", ["--model", str(work / "local.model")])):
        outs = []
        for words_file in (big, small):
            out = work / f"{command}.{words_file.stem}.tsv"
            wall, peak = run(["--data-dir", str(data), command, *extra, *conf,
                              "--word-vectors", str(words_file),
                              "--entities", str(work / "entities.bin"), "--out", str(out)],
                             work / f"{command}.{words_file.stem}.log")
            print(f"{command} on {words_file.name}: wall {wall:.2f} s, "
                  f"peak RSS {peak:.0f} MB")
            outs.append(out)
        same &= filecmp.cmp(*outs, shallow=False)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS over all children: {children:.0f} MB")
    print(f"outputs identical on the big and the small file: {'yes' if same else 'NO'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
