"""`python -m qpaug` and the `qpaug` console script.

Each CLI process runs BLAS on one thread, so parallel work comes only from
--jobs and the bytes a command writes do not depend on the core count.  The
pin is set before numpy loads, and a thread count the user set for any of
the three libraries wins.
"""
import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

from .cli import main  # noqa: E402  (after the pin, which numpy reads on load)

if __name__ == "__main__":
    sys.exit(main())
