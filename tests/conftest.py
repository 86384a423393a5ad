"""Test-session setup: BLAS runs on one thread unless the environment says otherwise.

numpy and scipy each bundle an OpenBLAS that reads these variables once, when
it loads, so they are set here, before any test module imports numpy; an
explicit setting wins.  On a 2-vCPU VM small dense algebra ran several times
slower on OpenBLAS's default two threads, and the suite took 36.8-39.1 s
unpinned against 24.7-27.1 s pinned.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
