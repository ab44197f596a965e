"""Reference evaluation of the critical Fourier series: the flat sums over
all momentum pairs that the per-k1 partial sums of
:mod:`isingcyl.propagators` replace, kept as their oracle.

Every entry is one reduction over all L(2M+1) modes at once, so a full
table costs O(L M^2 #modes) and a block O(#modes); these functions are only
meant for small cases.
"""

import numpy as np

from isingcyl.lattice import antiperiodic_wrap
from isingcyl.propagators import ghat_matrix, momentum_grid, normalization_N


def flat_modes(geom, params, weight=None):
    """The flat momentum pairs with their weighted ``c G`` and ``c R``."""
    M = geom.M
    k1s, k2s = momentum_grid(geom, params).pairs
    c = 1.0 / (2.0 * geom.L * normalization_N(k1s, k2s, params, M))
    if weight is not None:
        c = c * weight(k1s, k2s)
    G = ghat_matrix(k1s, k2s, params)
    R = G.copy()
    R[:, 0, 1] = ghat_matrix(k1s, -k2s, params)[:, 0, 1]
    R[:, 1, 1] = np.exp(2j * k2s * (M + 1)) * G[:, 1, 1]
    return k1s, k2s, c[:, None, None] * G, c[:, None, None] * R


def fourier_table_data(geom, params, weight=None):
    """The ``(L, M+2, M+2, 2, 2)`` data of the full critical table."""
    L, M = geom.L, geom.M
    k1s, k2s, cG, cR = flat_modes(geom, params, weight)
    d1 = np.arange(L)
    d2 = np.arange(-(M + 1), M + 2)
    s2 = np.arange(0, 2 * M + 3)
    E1 = np.exp(-1j * np.outer(k1s, d1))
    E2d = np.exp(-1j * np.outer(k2s, d2))
    E2s = np.exp(-1j * np.outer(k2s, s2))
    T1 = np.einsum("pl,pd,pab->ldab", E1, E2d, cG, optimize=True)
    T2 = np.einsum("pl,ps,pab->lsab", E1, E2s, cR, optimize=True)
    rows = np.arange(M + 2)
    dd = rows[:, None] - rows[None, :] + (M + 1)
    ss = rows[:, None] + rows[None, :]
    return T1[:, dd] - T2[:, ss]


class FlatLazyTable:
    """Pointwise critical blocks, each one reduction over all modes."""

    def __init__(self, geom, params):
        self.geom = geom
        self.k1s, self.k2s, self.cG, self.cR = flat_modes(geom, params)

    def block(self, z, zp):
        m, sign = antiperiodic_wrap(z[0] - zp[0], self.geom.L)
        ph1 = np.exp(-1j * self.k1s * m)
        d2 = z[1] - zp[1]
        s2 = z[1] + zp[1]
        blk = (np.tensordot(ph1 * np.exp(-1j * self.k2s * d2), self.cG,
                            axes=(0, 0))
               - np.tensordot(ph1 * np.exp(-1j * self.k2s * s2), self.cR,
                              axes=(0, 0)))
        return sign * blk
