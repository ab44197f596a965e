"""Reference partition function: the dense two-Pfaffian route that the
momentum factorization of :func:`isingcyl.freecorr.log_partition_function_free`
replaces, kept as its oracle.

Both coefficient matrices are built in full, (2LM) x (2LM), and their
Pfaffians are taken by Parlett-Reid elimination in pure Python: O((LM)^3),
and the prefactor 2^(LM) overflows a float from L M ~ 1000, so this is
only meant for small cases.
"""

import numpy as np

from isingcyl.freecorr import _real
from isingcyl.propagators import ModelParams, build_A_critical, build_A_massive
from isingcyl.skewlinalg import pfaffian


def partition_function_dense(geom, beta, J1=1.0, J2=1.0):
    """``Z = 2^{LM} (cosh bJ1)^{LM} (cosh bJ2)^{L(M-1)} Pf(A_c) Pf(A_m)``."""
    params = ModelParams.from_beta(beta, J1, J2)
    L, M = geom.L, geom.M
    pref = (2.0 ** (L * M) * np.cosh(beta * J1) ** (L * M)
            * np.cosh(beta * J2) ** (L * (M - 1)))
    pf_c = pfaffian(build_A_critical(geom, params))
    pf_m = pfaffian(build_A_massive(geom, params))
    return _real(pref * pf_c * pf_m)
