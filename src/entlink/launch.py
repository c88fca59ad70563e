"""Entry point of the `entlink` command and of `python -m entlink`.

Each BLAS thread variable the user has not set is set to 1 before numpy
is imported: the models' matrices are small, and on a shared multi-core
host the default thread pools make a mid-size product many times slower.
This module imports nothing that loads numpy, so the settings take effect.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main(argv)
