"""Run every test at one BLAS thread, whichever files are collected.

SLSQP's least-squares subproblems go through BLAS, and ``solve-data``'s
results depend on the BLAS thread count.  ``perfbench/run.py`` pins the
count to 1 when it is imported, so a full run collects its self-tests and
runs everything at one thread, while a single test file run alone would use
the default.  pytest loads this file before any test module, so before numpy
starts its BLAS: both runs see the same thread count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
