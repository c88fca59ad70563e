"""Pin BLAS to one thread for the test suite, as `entlink.launch` does for
the command, unless the environment already sets a variable.  Timing
assertions otherwise depend on thread-pool contention.  numpy is not yet
loaded when this file runs, so the settings take effect."""

import os

from entlink.launch import BLAS_THREAD_VARS

for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")
