"""The kernel module and its name.

Both names are kept for the benchmark: ``bench/tracer.py`` wraps the
functions of ``gisalg._backend.kernels``, and ``bench/workload.py`` writes
``gisalg.BACKEND`` into every result.
"""

from gisalg import _kernels_py as kernels

BACKEND = "pure"
