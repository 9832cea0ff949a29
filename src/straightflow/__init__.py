"""straightflow: a numerical laboratory for straight-line probability flows
of stochastic interpolant processes.

Importing the package applies ``STRAIGHTFLOW_THREADS``: when set, it is the
default of the BLAS/OpenMP thread variables that are not already set.  This
runs before any submodule loads numpy, so the cap holds for the CLI and for
library use alike.
"""

import os

__version__ = "0.1.0"

if os.environ.get("STRAIGHTFLOW_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["STRAIGHTFLOW_THREADS"])
