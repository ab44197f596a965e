"""Reference evaluations that the summation orders of
:mod:`isingcyl.propagators` replace, kept as their oracles.

* The k2 roots of the quantization condition by bracket bisection, and
  their normalization N_M as the derivative-over-difference ratio of the
  condition: the library's Newton solve on the phase equation and its
  slope replace both.
* The critical Fourier series as flat sums over all momentum pairs, with
  the roots and N_M above.  Every entry is one reduction over all L(2M+1)
  modes at once, so a full table costs O(L M^2 #modes) and a block
  O(#modes).
* The infinite-volume torus sum as one FFT of the whole (N, N, 2, 2) ghat
  grid, and single entries as exactly rounded ``fsum`` reductions.
* The continuum image sum by nested scalar loops, one image at a time.

These functions are only meant for small cases.
"""

import math

import numpy as np

from isingcyl.lattice import antiperiodic_wrap
from isingcyl.propagators import (
    NumericalError, coeff_B, ghat_matrix, gscal_scalar, horizontal_momenta,
)


def normalization_N(k1, k2, params, M):
    """N_M(k1, k2): derivative-over-difference normalization factor."""
    B = coeff_B(k1, params)
    k2 = np.asarray(k2)
    num = B * M * np.cos(k2 * M) - (M + 1) * np.cos(k2 * (M + 1))
    den = B * np.cos(k2 * M) - np.cos(k2 * (M + 1))
    return num / den


def bisect_k2_roots(k1, M, params):
    """Roots of ``sin k2(M+1) = B(k1) sin(k2 M)`` in (-pi, pi), shaped as
    those of :func:`isingcyl.propagators.solve_k2_roots`.

    On the critical line B(k1) <= 1, and the condition divided by sin k2
    is a degree-M polynomial in cos k2 whose sign alternates at the points
    pi j/M; so exactly one positive root lies in each bracket (pi j/M,
    pi (j+1)/M), j = 0..M-1 (McCoy-Wu 1973).  Every bracket of every k1 is
    bisected at once to a width of 1e-7/(M+1), where Newton's method
    converges quadratically, and Newton steps clipped to the bracket, in
    extended precision, then reach the roots rounded to double.
    """
    B = np.asarray(coeff_B(k1, params), dtype=float)[..., None]
    if np.any(B > 1.0 + 1e-9):
        raise ValueError(f"B(k1) = {B.max()} > 1: not on the critical line")

    def f(k2, B=B):
        return np.sin(k2 * (M + 1)) - B * np.sin(k2 * M)

    # every bracket [lo, lo + width] halves at each step; the sign of f
    # just right of pi j/M is (-1)^j
    lo = np.pi * np.arange(M) / M + np.zeros(B.shape)
    sign = 1.0 - 2.0 * (np.arange(M) % 2)
    width = np.pi / M
    while width > 1e-7 / (M + 1):
        width *= 0.5
        lo += width * (f(lo + width) * sign > 0.0)
    hi = lo + width
    # f''/f' is at most O((M+1)^2): from the bracket midpoint the Newton
    # error falls to ~1e-15 after one step and to roundoff after two.  The
    # steps run in extended precision (``np.longdouble``, a 64-bit mantissa
    # on x86): in double, f cancels near B = 1 and leaves ~1e-16 of error
    # in the smallest roots, which N_M magnifies to ~1e-14 relative.
    Bx = B.astype(np.longdouble)
    roots = (lo + 0.5 * width).astype(np.longdouble)
    for _ in range(2):
        fr = f(roots, Bx)
        dfr = (M + 1) * np.cos(roots * (M + 1)) - Bx * M * np.cos(roots * M)
        step = np.where(np.abs(dfr) > 1e-8, fr / np.where(dfr == 0, 1, dfr),
                        0.0)
        roots = np.clip(roots - step, lo, hi)
    roots = roots.astype(float)
    if np.any(np.abs(f(roots)) > 1e-12 * (M + 1)):
        raise NumericalError("root residual above 1e-12 after refinement")
    zero = np.zeros(roots.shape[:-1] + (1,))
    return np.concatenate([-roots[..., ::-1], zero, roots], axis=-1)


def flat_modes(geom, params, weight=None):
    """The flat momentum pairs -- every k1 with all 2M+1 of its roots,
    each bisected on its own -- with their weighted ``c G`` and ``c R``."""
    M = geom.M
    k1v = horizontal_momenta(geom.L)
    k2s = bisect_k2_roots(k1v, M, params).ravel()
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
    is the torus sum at the offset (m1, m2).  The momenta pi(2m - N + 1)/N
    are odd multiples of pi/N, rounded as ``horizontal_momenta(N)``."""
    m = np.arange(N)
    k = np.pi * (2 * m - N + 1) / N
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
    k = np.pi * (2 * np.arange(N) - N + 1) / N
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
        return gscal_scalar(x / (1.0 - params.t2),
                            y / (1.0 - params.t1), params.t2)

    def g2(x, y):
        return gscal_scalar(y / (1.0 - params.t1),
                            x / (1.0 - params.t2), params.t2)

    def term(n1, n2):
        x = dx + n1 * ell1
        y, ry = dy + 2 * n2 * ell2, sy + 2 * n2 * ell2
        return np.array([
            [g1(x, y) - g1(x, ry), g2(x, y) + g2(x, ry)],
            [g2(x, y) - g2(x, ry), -g1(x, y) + g1(x, sy + 2 * (n2 - 1) * ell2)],
        ])

    return _alternating_sum(
        lambda n2: _alternating_sum(lambda n1: term(n1, n2)))
