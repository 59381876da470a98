"""Pin BLAS to one thread before numpy loads, as ``perfbench/run.py``
does: a multi-threaded BLAS stalls when another process holds a core,
which makes test wall times depend on load elsewhere on the machine."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
