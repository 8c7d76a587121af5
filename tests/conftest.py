"""Suite-wide test environment.

BLAS is pinned to one thread before any test module imports numpy. With
several threads, the ELM least-squares fit timed by the acceptance
criteria takes 20 to 40 times longer in some fresh processes on a 2-vCPU
machine, so the ELM-versus-BP speed ratio swings with BLAS threading
instead of measuring the two algorithms. A value already set in the
environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
