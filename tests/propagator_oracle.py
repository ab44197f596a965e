"""Reference evaluations that the summation orders of
:mod:`isingcyl.propagators` replace, kept as their oracles.

* The critical Fourier series as flat sums over all momentum pairs.  Every
  entry is one reduction over all L(2M+1) modes at once, so a full table
  costs O(L M^2 #modes) and a block O(#modes).
* The infinite-volume torus sum as one FFT of the whole (N, N, 2, 2) ghat
  grid, and single entries as exactly rounded ``fsum`` reductions.
* The continuum image sum by nested scalar loops, one image at a time.

These functions are only meant for small cases.
"""

import math

import numpy as np

from isingcyl.lattice import antiperiodic_wrap
from isingcyl.propagators import (
    ghat_matrix, gscal_scalar, horizontal_momenta, normalization_N,
    solve_k2_roots,
)


def flat_modes(geom, params, weight=None):
    """The flat momentum pairs -- every k1 with all 2M+1 of its roots,
    each solved on its own -- with their weighted ``c G`` and ``c R``."""
    M = geom.M
    k1v = horizontal_momenta(geom.L)
    k2s = solve_k2_roots(k1v, M, params).ravel()
    k1s = np.repeat(k1v, 2 * M + 1)
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


# ---------------------------------------------------------------------------
# Infinite-volume torus sums and the continuum image sum.
# ---------------------------------------------------------------------------


def fft_torus_grid(params, weight, N):
    """The whole antiperiodic N x N torus grid of the infinite-volume
    propagator by one FFT of the (N, N, 2, 2) ghat grid: entry [m1, m2]
    is the torus sum at the offset (m1, m2)."""
    m = np.arange(N)
    k = -np.pi + 2.0 * np.pi * (m + 0.5) / N
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    vals = ghat_matrix(K1, K2, params)
    if weight is not None:
        vals = vals * weight(K1, K2)[..., None, None]
    g = np.fft.fft2(vals, axes=(0, 1)) / N ** 2
    phase = np.exp(1j * np.pi * m * (1.0 - 1.0 / N))
    g *= phase[:, None, None, None]
    g *= phase[None, :, None, None]
    return g


def torus_lookup(g, z):
    """Entry of an antiperiodic torus grid at the raw integer offset z."""
    N = g.shape[0]
    m1, s1 = antiperiodic_wrap(z[0], N)
    m2, s2 = antiperiodic_wrap(z[1], N)
    return s1 * s2 * g[m1, m2]


def fsum_torus_entry(params, weight, N, z):
    """One torus-sum entry, each component an exactly rounded ``fsum``
    over the N^2 momenta."""
    k = -np.pi + 2.0 * np.pi * (np.arange(N) + 0.5) / N
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    vals = ghat_matrix(K1, K2, params) * np.exp(
        -1j * (K1 * z[0] + K2 * z[1]))[..., None, None]
    if weight is not None:
        vals = vals * weight(K1, K2)[..., None, None]
    vals = vals.reshape(-1, 2, 2) / N ** 2
    out = np.empty((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            out[a, b] = complex(math.fsum(vals[:, a, b].real),
                                math.fsum(vals[:, a, b].imag))
    return out


def _alternating_sum(term_fn):
    """Euler-accelerated ``sum_{n in Z} (-1)^n T(n)`` over |n| <= 64, one
    scalar term call at a time."""
    terms = [term_fn(0)]
    for m in range(1, 65):
        terms.append((-1.0) ** m * (term_fn(m) + term_fn(-m)))
    x = np.cumsum(np.asarray(terms), axis=0)
    for _ in range(12):
        x = 0.5 * (x[:-1] + x[1:])
    return x[-1]


def image_sum_propagator(z, zp, ell1, ell2, params):
    """The continuum cylinder propagator by nested scalar image loops."""
    dx, dy = np.asarray(z, dtype=float) - np.asarray(zp, dtype=float)
    sy = float(z[1]) + float(zp[1])

    def g1(x, y):
        return gscal_scalar(x / (1.0 - params.t2_star),
                            y / (1.0 - params.t1_star), params.t2_star)

    def g2(x, y):
        return gscal_scalar(y / (1.0 - params.t1_star),
                            x / (1.0 - params.t2_star), params.t2_star)

    def term(n1, n2):
        x = dx + n1 * ell1
        y, ry = dy + 2 * n2 * ell2, sy + 2 * n2 * ell2
        return np.array([
            [g1(x, y) - g1(x, ry), g2(x, y) + g2(x, ry)],
            [g2(x, y) - g2(x, ry), -g1(x, y) + g1(x, sy + 2 * (n2 - 1) * ell2)],
        ])

    return _alternating_sum(
        lambda n2: _alternating_sum(lambda n1: term(n1, n2)))
