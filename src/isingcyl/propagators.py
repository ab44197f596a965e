r"""Cylinder propagators of the free-fermion Ising representation.

The partition function of the nearest-neighbor Ising model on the cylinder
``Z_L x [1, M]`` factorizes into two Gaussian Grassmann integrals with
antisymmetric coefficient matrices ``A_c`` (critical sector, field phi) and
``A_m`` (massive sector, field xi).  This module builds:

* the coefficient matrices themselves (mixed momentum/row representation,
  mapped to real space) and their dense inverses -- the *direct* oracle;
* the explicit Fourier representation of the critical propagator on the
  critical line ``t1 t2 + t1 + t2 = 1``, as a sum over the horizontal
  antiperiodic momenta and the vertical roots of the quantization condition
  ``sin k2(M+1) = B(k1) sin(k2 M)``;
* the massive propagator from the explicit ``s_+/-`` convolution kernels;
* the infinite-volume propagator: the same momentum sum (one routine,
  :func:`_offset_profiles`) over the modes of a large torus, with adaptive
  doubling and an optional momentum cutoff -- the multiscale bulk part;
* the continuum scaling-limit propagator as an image sum.

All tables are stored in complex arithmetic; physical realness is checked
by callers (a failed check raises :class:`NumericalError`), never assumed
here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import (
    CylinderGeometry, _groups, _integer_array, antiperiodic_wrap,
)


class NumericalError(ArithmeticError):
    """A numerical result failed its own consistency check."""


def _require_finite(beta, J1, J2):
    """Reject a NaN, an infinity or an int beyond the float range among
    ``beta, J1, J2`` by exact comparison (no float conversion)."""
    if not all(-sys.float_info.max <= v <= sys.float_info.max
               for v in (beta, J1, J2)):
        raise ValueError("beta, J1 and J2 must be finite")


def critical_t2(t1):
    """The critical vertical coupling ``(1 - t1)/(1 + t1)``."""
    return (1.0 - t1) / (1.0 + t1)


@dataclass(frozen=True)
class ModelParams:
    """Couplings ``t_j = tanh(beta J_j)``.

    The scaling limit is evaluated at the dressed couplings, which equal
    the bare ones for the free theory (lambda = 0), the only one built
    here.
    """

    t1: float
    t2: float

    def __post_init__(self):
        if not 0.0 < self.t1 < 1.0 or not 0.0 < self.t2 < 1.0:
            raise ValueError("couplings t1, t2 must lie in (0, 1)")

    @classmethod
    def critical(cls, t1):
        return cls(t1=t1, t2=critical_t2(t1))

    @classmethod
    def from_beta(cls, beta, J1=1.0, J2=1.0):
        _require_finite(beta, J1, J2)
        return cls(t1=math.tanh(beta * J1), t2=math.tanh(beta * J2))

    @property
    def is_critical(self):
        return abs(self.t1 * self.t2 + self.t1 + self.t2 - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# Coefficient functions of the quadratic actions.
# ---------------------------------------------------------------------------


def coeff_b(k1, params):
    """b(k1) = (1 - t1^2)/|1 + t1 e^{i k1}|^2."""
    t1 = params.t1
    return (1.0 - t1 ** 2) / np.abs(1.0 + t1 * np.exp(1j * np.asarray(k1))) ** 2


def coeff_Delta(k1, params):
    """Delta(k1) = 2 t1 sin(k1)/|1 + t1 e^{i k1}|^2."""
    t1 = params.t1
    return 2.0 * t1 * np.sin(k1) / np.abs(1.0 + t1 * np.exp(1j * np.asarray(k1))) ** 2


def coeff_B(k1, params):
    """B(k1) = t2 |1 + t1 e^{i k1}|^2/(1 - t1^2), through cos k1 so that
    B(-k1) equals B(k1) to the bit."""
    t1, t2 = params.t1, params.t2
    return t2 * (1.0 + t1 * (t1 + 2.0 * np.cos(k1))) / (1.0 - t1 ** 2)


def coeff_D(k1, k2, params):
    """D(k1,k2) = 2(1-t2)^2 (1-cos k1) + 2(1-t1)^2 (1-cos k2)."""
    t1, t2 = params.t1, params.t2
    return (2.0 * (1.0 - t2) ** 2 * (1.0 - np.cos(k1))
            + 2.0 * (1.0 - t1) ** 2 * (1.0 - np.cos(k2)))


def horizontal_momenta(L):
    """The L antiperiodic momenta pi(2m-1)/L, m = -L/2+1 .. L/2."""
    ms = np.arange(-L // 2 + 1, L // 2 + 1)
    return np.pi * (2 * ms - 1) / L


def ghat_matrix(k1, k2, params):
    """The 2x2 momentum-space critical propagator density ghat(k1, k2).

    Vectorized: k1, k2 may be arrays of a common shape S; the result has
    shape S + (2, 2).
    """
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    t1 = params.t1
    B = coeff_B(k1, params)
    D = coeff_D(k1, k2, params)
    out = np.empty(np.broadcast(k1, k2).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = -2j * t1 * np.sin(k1)
    out[..., 0, 1] = -(1.0 - t1 ** 2) * (1.0 - B * np.exp(-1j * k2))
    out[..., 1, 0] = (1.0 - t1 ** 2) * (1.0 - B * np.exp(1j * k2))
    out[..., 1, 1] = 2j * t1 * np.sin(k1)
    out /= D[..., None, None]
    return out


# ---------------------------------------------------------------------------
# Quantization-condition roots.
# ---------------------------------------------------------------------------


def _grid36(x):
    """``x`` rounded to a multiple of 2^-36."""
    return np.round(x * 2.0 ** 36) / 2.0 ** 36


# pi less its head on the 2^-36 grid: the double's low bits plus pi minus
# the double
_PI_TAIL = np.pi - _grid36(np.pi) + 1.2246467991473532e-16


def _phase_slope(r2, q, M):
    """The slope ``g'(k2) = M + 1/2 + q/(2 r2)`` of the phase function of
    :func:`solve_k2_roots`, with ``r2 = q^2 cos^2(k2/2) + sin^2(k2/2)`` and
    ``q = (1 - B)/(1 + B)``: the normalization N_M(k1, k2) at a root."""
    return M + 0.5 + q / (2.0 * r2)


def solve_k2_roots(k1, M, params):
    """Roots of ``sin k2(M+1) = B(k1) sin(k2 M)`` in (-pi, pi).

    ``k1`` is a scalar or an array; the result has shape
    ``shape(k1) + (2M+1,)``, sorted along the last axis and symmetric under
    k2 -> -k2.  k2 = 0 (always a solution) is included -- the choice that
    reproduces the direct inversion of A_c, see the critical-propagator
    tests.

    With ``u = (M + 1/2) k2`` and ``a = k2/2`` the condition reads
    ``sin(u + a) = B sin(u - a)``, that is ``tan u = -c tan a`` with
    ``c = (1 + B)/(1 - B)``.  On the critical line 0 < B(k1) <= 1, so
    ``q = 1/c`` lies in [0, 1), and the j-th positive root (j = 0..M-1) is
    the zero of the phase function

        g(k2) = (M + 1/2) k2 + phi(a) - pi (j + 1),
        phi(a) = atan2(sin a, q cos a) in (0, pi/2] on (0, pi),

    one root in each interval (pi (j + 1/2)/(M + 1/2), pi (j + 1)/(M + 1/2))
    (McCoy-Wu 1973); B = 1 is q = 0, with no special case.  For q < 1, g
    is increasing and concave on (0, pi), with slope
    ``g' = M + 1/2 + q/(2 r2)``, ``r2 = q^2 cos^2 a + sin^2 a``.

    Each step moves k2 by ``sin(g)/g'``, with ``r sin g = sin w q cos a +
    cos w sin a`` for the exact part ``w = g - phi`` (see below): g itself
    is never formed, as numpy's tan and arctan2 would add their SIMD code
    (~0.2 MB resident) to every process.  ``|sin g| <= |g|``, so a step is
    at most Newton's, and Newton's from either side of the root of a
    concave increasing g lands at or left of it.  From the start
    ``pi (j + 1)/(M + 1/2)``, where 0 <= g <= pi/2, the iterates therefore
    stay in the root's interval, rise monotonically once left of the root,
    and converge quadratically, since sin g = g + O(g^3).  After five or
    six steps every root is within 2 ulps of its value after fourteen
    (after four, within 1.1e4 ulps) for t1 from 0.05 to 0.99, k1 = 0
    included, and M up to 4000; the count is fixed at six, with no
    data-dependent exit, so a scalar k1 and an array give the same bits.

    The slope g'(k2) (:func:`_phase_slope`) is the normalization
    ``N_M(k1, k2) = f'(k2)/f_u`` of the Fourier sum, where ``f(u, a) =
    sin(u + a) - B sin(u - a)`` and ``f_u = cos k2(M+1) - B cos k2 M``.
    Near a root, f = 0 is ``u + phi(a) = pi (j + 1)``, so implicit
    differentiation gives ``phi'(a) = f_a/f_u`` and ``N_M = M + 1/2 +
    f_a/(2 f_u) = g'(k2)``; at k2 = 0 it reads ``M + 1/(1 - B)``.
    """
    B = np.asarray(coeff_B(k1, params), dtype=float)[..., None]
    if np.any(B > 1.0 + 1e-9):
        # Off the critical line the condition may develop complex roots;
        # the Fourier representation is only used on the critical line.
        raise ValueError(f"B(k1) = {B.max()} > 1: not on the critical line")
    q = (1.0 - B) / (1.0 + B)
    # the O(M) terms of g cancel at the root; roundoff there would shift
    # every root of one j alike, by up to an ulp, coherently over k1.  So
    # the steps move offsets dx = k2 - x0 from starts x0 on a 2^-36 grid
    # (which moves g by at most (M + 1/2) 2^-37, far below phi's
    # pi/(4M + 2)): (M + 1/2) x0 and the head of pi (j + 1) are exact for
    # M < 2^14, and w = (M + 1/2) dx - lag
    n = np.arange(1, M + 1)
    x0 = _grid36(np.pi * n / (M + 0.5))
    lag = (n * _grid36(np.pi) - (M + 0.5) * x0) + n * _PI_TAIL
    dx = np.zeros(np.broadcast(B, x0).shape)
    for _ in range(6):
        a = 0.5 * (x0 + dx)
        sa, qc = np.sin(a), q * np.cos(a)
        w = (M + 0.5) * dx - lag
        r2 = qc * qc + sa * sa
        step = np.sin(w) * qc + np.cos(w) * sa
        step /= np.sqrt(r2) * _phase_slope(r2, q, M)
        dx -= step
    roots = x0 + dx
    # the condition's slope is O(M+1), so the attainable residual scales
    # with it
    if np.any(np.abs(np.sin(roots * (M + 1)) - B * np.sin(roots * M))
              > 1e-12 * (M + 1)):
        raise NumericalError("root residual above 1e-12 after refinement")
    zero = np.zeros(roots.shape[:-1] + (1,))
    return np.concatenate([-roots[..., ::-1], zero, roots], axis=-1)


@lru_cache(maxsize=16)
def _root_grid(L, M, params):
    """The momenta of the critical Fourier sum: by row, the M+1 nonnegative
    k2 roots (0 first) of each of the L horizontal momenta, as a read-only
    array (L, M+1).  The negative roots mirror the positive ones."""
    # B depends on k1 only through cos k1, and the momenta come in pairs
    # +-k1: the roots are solved for the L/2 positive momenta and mirrored
    half = solve_k2_roots(horizontal_momenta(L)[L // 2:], M, params)[:, M:]
    roots = np.concatenate([half[::-1], half])
    roots.flags.writeable = False
    return roots


# ---------------------------------------------------------------------------
# Propagator tables.
# ---------------------------------------------------------------------------


def _pairs(z, zp, L, rows, columns=None):
    """Integer site arrays (n, 2) and (n', 2) (:func:`lattice._integer_array`
    in the closed row and column ranges, or ValueError), and the residue of
    z1 - z'1 mod L and its antiperiodic sign (n, n', 1, 1) of each pair."""
    lo, hi = zip(columns or (-np.inf, np.inf), rows)
    try:
        z, zp = (_integer_array(s, 2, 2, "site coordinates") for s in (z, zp))
        inside = all(((lo <= a) & (a <= hi)).all() for a in (z, zp))
    except ValueError:
        inside = False
    if not inside:
        where = f"columns {columns[0]}..{columns[1]} and " if columns else ""
        raise ValueError(f"site coordinates must be integers, in {where}"
                         f"rows {rows[0]}..{rows[1]}")
    m, sign = antiperiodic_wrap(z[:, None, 0] - zp[:, 0], L)
    return z, zp, m, sign[..., None, None]


class PropagatorTable:
    """Base interface: 2x2 block two-point functions g_{ww'}(z, z').

    Each table type has one lookup, ``blocks(z, zp)``: the (n, n', 2, 2)
    blocks of every pair of integer site arrays (n, 2) and (n', 2).  A site
    off the table, or a coordinate that is not an integer, raises
    ValueError."""

    variant = "abstract"

    def block(self, z, zp):
        """The 2x2 block g(z, z'): the 1x1 case of :meth:`blocks`."""
        return self.blocks([z], [zp])[0, 0]

    def products(self, n, rows, coeffs, fields):
        """Matrix of the field products of ``n`` linear combinations of
        fields: term t adds ``coeffs[t]`` times the field ``fields[t] =
        (omega, x1, x2)`` (omega 0 for '+', 1 for '-') to combination
        ``rows[t]``.  Entry (i, j) is ``sum c c' g_{omega omega'}(site,
        site')`` over the terms of i and j, for every i and j: the diagonal
        reads g at coincident sites, so a principal submatrix that repeats
        an index is the covariance of a repeated combination; the strict
        upper triangle is the skew covariance.  One :meth:`blocks` call
        reads every ordered pair of the distinct sites, in order of first
        appearance (:func:`lattice._groups`)."""
        first, index = _groups(fields[:, None, 1:])
        C = np.zeros((n, 2 * len(first)), dtype=complex)
        np.add.at(C, (rows, 2 * index + fields[:, 0]), coeffs)
        sites = fields[first, 1:]
        P = self.blocks(sites, sites).transpose(0, 2, 1, 3)
        return C @ P.reshape(C.shape[1], C.shape[1]) @ C.T


class TranslationInvariantTable(PropagatorTable):
    """Table of the form ``g(z, z') = s * data[d1 mod L, z2, z'2]``.

    ``d1 = z1 - z'1`` enters only through the stored residue, with the
    antiperiodic sign ``s = (-1)^q`` for a wrap of ``q`` periods; rows run
    over 0..M+1 (the closure) unless restricted.  A block of a row outside
    the stored ones, or of coordinates that are not integers, raises
    ``ValueError``.
    """

    def __init__(self, geom, variant, data, row_offset=0):
        self.geom = geom
        self.variant = variant
        self.data = np.asarray(data, dtype=complex)
        self.row_offset = row_offset

    def blocks(self, z, zp):
        a = self.row_offset
        z, zp, m, sign = _pairs(z, zp, self.geom.L,
                                (a, a + self.data.shape[1] - 1))
        out = self.data[m, z[:, None, 1] - a, zp[None, :, 1] - a]
        out *= sign
        return out

    # the benchmark's tracer wraps the scalar lookup on this class itself
    block = PropagatorTable.block


class DenseTable(PropagatorTable):
    """Full (2LM)x(2LM) table from a dense inversion: a block of a site
    outside columns 1..L, rows 1..M or not on integers raises ValueError."""

    def __init__(self, geom, variant, matrix):
        self.geom = geom
        self.variant = variant
        self.matrix = np.asarray(matrix, dtype=complex)

    def blocks(self, z, zp):
        L, M = self.geom.L, self.geom.M
        z, zp, _, _ = _pairs(z, zp, L, (1, M), (1, L))
        i, j = self.geom.site_index(z.T), self.geom.site_index(zp.T)
        return self.matrix.reshape(L * M, 2, L * M, 2)[i[:, None], :,
                                                       j[None, :]]

    # the benchmark's tracer wraps the scalar lookup on this class itself
    block = PropagatorTable.block


def max_block_difference(ta, tb, sites):
    """Max entrywise |ta - tb| over all ordered pairs from ``sites``."""
    return float(np.max(np.abs(ta.blocks(sites, sites)
                               - tb.blocks(sites, sites)), initial=0.0))


# ---------------------------------------------------------------------------
# Massive propagator.
# ---------------------------------------------------------------------------


def s_weights(geom, params):
    """The convolution kernels s_+(y), s_-(y) for y = 0..L-1.

    ``s_pm(y) = (1/L) sum_{k1} e^{-i k1 y}/(1 + t1 e^{+- i k1})`` over the
    antiperiodic momenta; antiperiodic in y with period L.  Summing the
    geometric series in t1 mode by mode gives ``s_+(y) = (-t1)^y/(1+t1^L)``,
    ``s_-(y) = -(-t1)^(L-y)/(1+t1^L)`` for y > 0 and ``s_-(0) = s_+(0)``.
    """
    L, t1 = geom.L, params.t1
    y = np.arange(L)
    sp = (-t1) ** y / (1.0 + t1 ** L)
    sm = -(-t1) ** (L - y) / (1.0 + t1 ** L)
    sm[0] = sp[0]
    return sp, sm


def s_eval(s_arr, y, L):
    """Evaluate an antiperiodic kernel array at arbitrary integer y."""
    m, sign = antiperiodic_wrap(y, L)
    return sign * s_arr[m]


class RowDiagonalTable(PropagatorTable):
    """Table of the form ``g(z, z') = s * data[d1 mod L]`` on equal rows
    (sign as in :class:`TranslationInvariantTable`), zero across rows.  A
    site outside rows 1..M or not on integers raises ValueError."""

    def __init__(self, geom, variant, data):
        self.geom, self.variant, self.data = geom, variant, data

    def blocks(self, z, zp):
        z, zp, m, sign = _pairs(z, zp, self.geom.L, (1, self.geom.M))
        same = z[:, None, 1] == zp[None, :, 1]
        return sign * self.data[m] * same[..., None, None]


def massive_propagator(geom, params):
    """The row-diagonal xi propagator, ``[[0, s_+(d1)], [-s_-(d1), 0]]``."""
    sp, sm = s_weights(geom, params)
    data = np.zeros((geom.L, 2, 2), dtype=complex)
    data[:, 0, 1], data[:, 1, 0] = sp, -sm
    return RowDiagonalTable(geom, "massive", data)


# ---------------------------------------------------------------------------
# Critical propagator: Fourier representation.
# ---------------------------------------------------------------------------


class _Modes(NamedTuple):
    """The per-k1 data of one momentum sum, the cylinder's or the torus'
    (see :func:`_modes`)."""

    phase: np.ndarray  # (K1, offsets): e^{-i k1 d1}, k1 by row
    k2: np.ndarray     # (K1, K2) or (1, K2): the nonnegative k2 of each k1
    w: np.ndarray      # (K1, K2): real weights, +-k2 multiplicity folded in
    s1: np.ndarray     # (K1,): 2 i t1 sin k1
    B: np.ndarray      # (K1,): B(k1)
    c: float           # 1 - t1^2


def _modes(params, weight, phase, k1, k2, norm):
    """The :class:`_Modes` of the momenta ``k1`` and their k2 >= 0.  A mode
    adds ``w D ghat(k1, k2)`` times its phases, ``w = weight/(norm D)``
    real and even in k2, and ``D ghat`` is affine in ``e^{+-i k2}`` with
    the k1 coefficients s1, c = 1 - t1^2 and B: so the sum is folded onto
    k2 >= 0, w doubled at every k2 > 0.  ``weight`` (or None) takes the
    broadcast (k1, k2) arrays and must be even in k2 to the bit
    (``ValueError`` otherwise)."""
    w = 1.0 / (norm * coeff_D(k1[:, None], k2, params)) * (1.0 + (k2 > 0))
    if weight is not None:
        k1s, k2s = np.broadcast_arrays(k1[:, None], k2)
        wk = weight(k1s, k2s)
        if not np.array_equal(wk, weight(k1s, -k2s)):
            raise ValueError("the momentum weight must be even in k2: "
                             "weight(k1, -k2) == weight(k1, k2)")
        w = w * wk
    return _Modes(phase, k2, w, 2j * params.t1 * np.sin(k1),
                  coeff_B(k1, params), 1.0 - params.t1 ** 2)


def _critical_modes(geom, params, weight):
    """The critical cylinder's modes: the M + 1 nonnegative k2 roots of
    each k1, ``norm = 2 L N_M`` (N_M the slope of the phase function of
    :func:`solve_k2_roots` at the root) and the phases of the L residues
    d1 = 0..L-1."""
    if not params.is_critical:
        raise ValueError("Fourier representation requires critical parameters")
    L, M = geom.L, geom.M
    k1, k2 = horizontal_momenta(L), _root_grid(L, M, params)
    B = coeff_B(k1, params)
    q = ((1.0 - B) / (1.0 + B))[:, None]
    N = _phase_slope((q * np.cos(0.5 * k2)) ** 2 + np.sin(0.5 * k2) ** 2, q,
                     M)
    return _modes(params, weight, np.exp(-1j * np.outer(k1, np.arange(L))),
                  k1, k2, 2.0 * L * N)


# bound on the (offsets,) + k2.shape cos temporary of one k2 reduction
_COS_BYTES = 1 << 18


def _k2_columns(modes, n):
    """``C(k1; n) = sum_{k2} w cos(k2 n)`` over the k2 of each k1 (a
    (1, K2) row of k2 is shared by every k1), at the integer offsets
    ``n``: one real reduction, shape (len(n), K1).  C is even in n."""
    return np.einsum("lk,nlk->nl", modes.w,
                     np.cos(np.asarray(n)[:, None, None] * modes.k2))


def _two_by_two(a, b, c, d):
    """The blocks ``[[a, b], [c, d]]`` of four arrays of a common shape."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)],
                    axis=-2)


def _offset_profiles(modes, d, s):
    """The profiles ``g(d)`` and ``r(s)`` over the phase columns (offsets)
    at the vertical differences ``d`` and sums ``s``, (len d, offsets, 2, 2)
    and (len s, offsets, 2, 2): ``g(d) = [[-S(|d|), X(d)], [-X(-d), S(|d|)]]``
    and ``r(s) = [[-S(s), -V(s)], [V(s), S(2M+2-s)]]``, ``S(n) = s1 C(n)``,
    ``X(d) = c (B C(|d+1|) - C(|d|))`` and ``V(s) = c (C(s) - B C(|s-1|))``
    summed over k1 by one matmul (X and V cancel within each k1).  C is
    formed once per offset read (found by ``np.bincount``: a first
    ``np.unique`` imports ``numpy.ma``), ``_COS_BYTES`` at a time."""
    top, a = 2 * modes.k2.shape[1], np.abs  # top = 2M + 2
    n = np.bincount(a(np.concatenate([d, d + 1, d - 1, s, s - 1, top - s])))
    n, C = np.flatnonzero(n), np.empty((len(n), len(modes.B)))
    step = max(1, _COS_BYTES // modes.k2.nbytes)
    for i in range(0, len(n), step):
        C[n[i:i + step]] = _k2_columns(modes, n[i:i + step])
    c, B, s1 = modes.c, modes.B, modes.s1
    Sd, Ss, Sr, Xd, Xm, V = np.split(np.concatenate([
        s1 * C[a(d)], s1 * C[s], s1 * C[top - s],
        c * (B * C[a(d + 1)] - C[a(d)]), c * (B * C[a(d - 1)] - C[a(d)]),
        c * (C[s] - B * C[a(s - 1)])]) @ modes.phase,
        np.cumsum([len(d), len(s), len(s), len(d), len(d)]))
    return _two_by_two(-Sd, Xd, -Xm, Sd), _two_by_two(-Ss, -V, V, Sr)


def critical_propagator_fourier(geom, params, weight=None, variant="critical"):
    """The critical cylinder propagator from the explicit momentum sum.

    ``weight``, if given, is a vectorized function of (k1, k2) arrays of a
    common shape multiplying each momentum summand -- the hook used by the
    multiscale decomposition.  The sum is folded onto the nonnegative k2
    roots, so the weight must be even in k2 to the bit (``ValueError``
    otherwise); every :class:`~isingcyl.multiscale.CutoffWeight` is, as it
    depends on k2 only through D.  Rows cover the closure 0..M+1, where the
    formula extends and exhibits its boundary cancellations.

    The block of a row pair is ``g(d) - r(s)`` with ``d = z2 - z'2`` and
    ``s = z2 + z'2`` (see :func:`_offset_profiles`).  The profiles of every
    offset come from the real k2 columns ``C(k1; n)``, n = 0..2M+2
    (O(L M^2)), combined and summed over k1 by one matmul (O(L^2 M)); g and
    r are then laid out over the row pairs as Toeplitz and Hankel windows
    (O(L M^2)).
    """
    L, M = geom.L, geom.M
    g, r = _offset_profiles(_critical_modes(geom, params, weight),
                            np.arange(-(M + 1), M + 2), np.arange(2 * M + 3))
    # windows [z2, d1, a, b, z'2] of g[M + 1 + z2 - z'2] and r[z2 + z'2]
    window = np.lib.stride_tricks.sliding_window_view
    G = window(g[::-1], M + 2, axis=0)[::-1]
    R = window(r, M + 2, axis=0)
    data = np.empty((L, M + 2, M + 2, 2, 2), dtype=complex)
    order = (1, 0, 4, 2, 3)
    np.subtract(G.transpose(order), R.transpose(order), out=data)
    return TranslationInvariantTable(geom, variant, data)


class LazyCriticalTable(PropagatorTable):
    """Pointwise critical propagator: the same momentum sum as
    :func:`critical_propagator_fourier`, evaluated at the offsets read.

    The block of a row pair is ``g(d) - r(s)`` (d = z2 - z'2,
    s = z2 + z'2), so the table keeps only the profiles g(d) and r(s) over
    the L residues of d1: a :meth:`blocks` call computes the offsets it
    reads for the first time in one batch (O(L M) each for the k2
    columns, O(L^2) for the k1 sums), and at most 2(2M+3) L blocks are
    held.  Rows outside 0..M+1 and non-integer coordinates raise
    ``ValueError``.
    """

    variant = "critical-lazy"

    def __init__(self, geom, params):
        self.geom = geom
        self._modes = _critical_modes(geom, params, None)
        # the profiles computed so far, and the index into them of each
        # offset (-1 until computed): d + M + 1 for g, s for r
        self._g = self._r = np.zeros((0, geom.L, 2, 2), dtype=complex)
        self._g_at, self._r_at = np.full((2, 2 * geom.M + 3), -1)

    def blocks(self, z, zp):
        M = self.geom.M
        z, zp, m, sign = _pairs(z, zp, self.geom.L, (0, M + 1))
        d = z[:, None, 1] - zp[:, 1] + M + 1
        s = z[:, None, 1] + zp[:, 1]
        new_d = np.flatnonzero(np.bincount(d[self._g_at[d] < 0]))
        new_s = np.flatnonzero(np.bincount(s[self._r_at[s] < 0]))
        if new_d.size or new_s.size:
            g, r = _offset_profiles(self._modes, new_d - (M + 1), new_s)
            self._g_at[new_d] = len(self._g) + np.arange(len(new_d))
            self._r_at[new_s] = len(self._r) + np.arange(len(new_s))
            self._g = np.concatenate([self._g, g])
            self._r = np.concatenate([self._r, r])
        out = self._g[self._g_at[d], m]
        out -= self._r[self._r_at[s], m]
        out *= sign
        return out

    # the benchmark's tracer wraps the scalar lookup on this class itself
    block = PropagatorTable.block


def boundary_residual(table, sites, columns):
    """Largest closure-row entry that the boundary conditions force to 0.

    phi_+ vanishes on row 0 and phi_- on row M+1, so for ``z`` in
    ``sites`` and ``x`` in ``columns`` the (+, .) row of g((x, 0), z), the
    (-, .) row of g((x, M+1), z) and, in the other orientation, the (., +)
    column of g(z, (x, 0)) and the (., -) column of g(z, (x, M+1)) vanish.
    One :meth:`~PropagatorTable.blocks` call reads each orientation.
    """
    k = len(columns)
    edge = [(x, row) for row in (0, table.geom.M + 1) for x in columns]
    out, into = table.blocks(edge, sites), table.blocks(sites, edge)
    return float(max(np.max(np.abs(a), initial=0.0) for a in (
        out[:k, :, 0], out[k:, :, 1], into[:, :k, :, 0], into[:, k:, :, 1])))


# ---------------------------------------------------------------------------
# Critical and massive quadratic forms; direct inversion oracle.
# ---------------------------------------------------------------------------


def _conv_kernels(geom, params):
    """Real-space convolution kernels of b and Delta at the raw offsets
    1 - L .. L - 1."""
    L, k1 = geom.L, horizontal_momenta(geom.L)
    ph = np.exp(1j * np.outer(np.arange(1 - L, L), k1))
    return ph @ coeff_b(k1, params) / L, ph @ coeff_Delta(k1, params) / L


def _basis(L, x1, m, w):
    """Basis index ``2*site + omega`` of the field at column x1, row m."""
    return 2 * ((m - 1) * L + (x1 - 1)) + w


def build_A_critical(geom, params):
    """The antisymmetric matrix A_c with S_c = (1/2)(phi, A_c phi).

    Basis order: index 2*site + omega with omega in {0: '+', 1: '-'} and
    sites row-major (rows 1..M).  The row M+1 field phi_- is identically
    zero, so the t2 coupling stops at row M-1.
    """
    L, M = geom.L, geom.M
    cb, cD = _conv_kernels(geom, params)
    C = np.zeros((2 * L * M, 2 * L * M), dtype=complex)
    # each coupling is one array assignment, each entry of C set once
    m, x, xp = np.ogrid[1:M + 1, 1:L + 1, 1:L + 1]
    dd = xp - x + L - 1  # index of the offset xp - x in the kernel arrays
    C[_basis(L, x, m, 0), _basis(L, xp, m, 1)] += -cb[dd]
    C[_basis(L, x, m, 0), _basis(L, xp, m, 0)] += -0.5j * cD[dd]
    C[_basis(L, x, m, 1), _basis(L, xp, m, 1)] += +0.5j * cD[dd]
    C[_basis(L, x, m[:-1], 0), _basis(L, x, m[:-1] + 1, 1)] += params.t2
    A = C - C.T
    if not np.max(np.abs(A.imag)) < 1e-12:
        raise NumericalError("critical quadratic form is not real")
    return A.real


def build_A_massive(geom, params):
    """The antisymmetric matrix A_m with S_m = (1/2)(xi, A_m xi)."""
    L, M = geom.L, geom.M
    C = np.zeros((2 * L * M, 2 * L * M))
    m, x = np.ogrid[1:M + 1, 1:L + 1]
    r, sign = antiperiodic_wrap(x, L)  # the neighbor x + 1 = r + 1
    C[_basis(L, x, m, 0), _basis(L, x, m, 1)] += 1.0
    C[_basis(L, x, m, 0), _basis(L, r + 1, m, 1)] += sign * params.t1
    return C - C.T


DIRECT_INVERSION_CAP = 8192


def _direct_table(geom, params, builder, variant):
    n = 2 * geom.L * geom.M
    if n > DIRECT_INVERSION_CAP:
        raise ValueError(f"dense inversion dimension {n} exceeds cap "
                         f"{DIRECT_INVERSION_CAP}")
    A = builder(geom, params)
    try:
        G = -np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular quadratic form for {variant}") \
            from exc
    return DenseTable(geom, variant, G)


def critical_propagator_direct(geom, params):
    """-A_c^{-1} as a dense table: the oracle for the Fourier formula."""
    return _direct_table(geom, params, build_A_critical, "critical-direct")


def massive_propagator_direct(geom, params):
    """-A_m^{-1} as a dense table: the oracle for the s_+/- formula."""
    return _direct_table(geom, params, build_A_massive, "massive-direct")


# ---------------------------------------------------------------------------
# Infinite-volume propagator.
# ---------------------------------------------------------------------------


class DoublingError(NumericalError):
    """The torus sum did not converge; carries the last two estimates."""

    def __init__(self, msg, last, prev):
        super().__init__(msg)
        self.last, self.prev = last, prev


def infinite_propagator_grid(params, weight, N, z1, z2):
    """The raw N-torus sum ``(1/N^2) sum_k ghat(k) w(k) e^{-i k.z}`` at
    every offset of ``z1 x z2``, shape (len z1, len z2, 2, 2).

    The momenta ``horizontal_momenta(N)`` (N even) on both axes make the
    sum antiperiodic in N along each raw integer offset.  ``weight`` (or
    None) takes broadcastable (k1, k2) arrays and must be even in k2.  The
    sum is g(z2) of :func:`_offset_profiles` with the torus modes: phases
    at z1, the N/2 positive k2 shared by every k1 and ``norm = N^2``.
    O(N^2 |z2| + N |z1| |z2|) time, O(N^2) memory.  Offsets that are not
    integers (:func:`lattice._integer_array`) raise ValueError.
    """
    if N % 2:
        raise ValueError(f"the torus size N must be even, got {N}")
    z1, z2 = (_integer_array(z, 1, np.size(z), "torus offsets")
              for z in (z1, z2))
    k = horizontal_momenta(N)
    modes = _modes(params, weight, np.exp(-1j * np.outer(k, z1)), k,
                   k[None, N // 2:], N * N)
    g, _ = _offset_profiles(modes, z2, np.zeros(0, dtype=int))
    return g.swapaxes(0, 1)


def infinite_propagator(zs, params):
    """The infinite-volume propagator at the integer offsets ``zs``.

    Evaluates the momentum integral of ghat by the torus sum of
    :func:`infinite_propagator_grid` at the distinct first and second
    components of ``zs``, doubling the torus and Richardson-extrapolating
    the O(N^-2) and O(N^-4) error terms (the massless integrand makes the
    raw sums converge only algebraically), all offsets as one (K, 2, 2)
    array.  Stops once the extrapolated entries change by less than
    1e-10, or raises :class:`DoublingError` after N = 2048.  Returns a dict
    ``z -> 2x2 block``; offsets that are not integer pairs raise ValueError.
    """
    zs = [tuple(z) for z in zs]
    if not zs:
        raise ValueError("empty offset list: need at least one offset")
    z = _integer_array(zs, 2, 2, "torus offsets")
    z1, i1 = np.unique(z[:, 0], return_inverse=True)
    z2, i2 = np.unique(z[:, 1], return_inverse=True)
    raw, r1, r2, best = [], [], [], []
    N = 64
    for _ in range(6):  # N = 64 .. 2048
        raw.append(infinite_propagator_grid(params, None, N, z1, z2)[i1, i2])
        if len(raw) >= 2:
            r1.append((4.0 * raw[-1] - raw[-2]) / 3.0)
        if len(r1) >= 2:
            r2.append((16.0 * r1[-1] - r1[-2]) / 15.0)
        best.append((r2 or r1 or raw)[-1])
        if len(best) >= 2:
            delta = np.max(np.abs(best[-1] - best[-2]))
            if delta < 1e-10:
                return dict(zip(zs, best[-1]))
        N *= 2
    raise DoublingError(
        f"torus sum did not converge to 1e-10 at N = {N // 2} "
        f"(last change {delta:.3g})", dict(zip(zs, best[-1])),
        dict(zip(zs, best[-2])))


# ---------------------------------------------------------------------------
# Scaling-limit propagator.
# ---------------------------------------------------------------------------


def gscal_scalar(x, y, t2s):
    """g^scal(x, y) = -(1/(2 pi t2 (1 - t2))) * x/(x^2 + y^2)."""
    return -x / (2.0 * np.pi * t2s * (1.0 - t2s) * (x * x + y * y))


def _g1(x, y, params):
    return gscal_scalar(x / (1.0 - params.t2), y / (1.0 - params.t1),
                        params.t2)


def _g2(x, y, params):
    return gscal_scalar(y / (1.0 - params.t1), x / (1.0 - params.t2),
                        params.t2)


_IMAGES = 64


def _require_on_cylinder(points, ell1, ell2, name="cylinder"):
    """Raise ValueError naming the first point that is not finite with
    0 <= x <= ell1 and 0 < y < ell2 (NaN fails every comparison), or that
    coincides with an earlier one (``np.allclose``; x = 0 and x = ell1 are
    one point)."""
    points = [(float(a), float(b)) for a, b in points]
    for i, z in enumerate(points):
        if not (0.0 <= z[0] <= ell1 and 0.0 < z[1] < ell2):
            raise ValueError(f"point {z} outside the open {name}")
        for w in points[:i]:
            if np.allclose(w, z) or np.allclose(np.abs(np.subtract(w, z)),
                                                (ell1, 0.0)):
                raise ValueError(f"{w} and {z}: not distinct points")


def _alternating_fold(T):
    """Euler-accelerated ``sum_n (-1)^n T[..., n]`` over the last axis,
    which runs over the images n = -64..64.

    ``T`` must have a smooth O(1/|n|) tail; 12 averaging sweeps of the 64
    folded partial sums then converge far below 1e-12.
    """
    sign = (-1.0) ** np.arange(1, _IMAGES + 1)
    x = np.cumsum(np.concatenate(
        [T[..., _IMAGES:_IMAGES + 1],
         sign * (T[..., _IMAGES + 1:] + T[..., _IMAGES - 1::-1])], axis=-1),
        axis=-1)
    for _ in range(12):
        x = 0.5 * (x[..., :-1] + x[..., 1:])
    return x[..., -1]


def scaling_propagator(z, zp, ell1, ell2, params):
    """The continuum cylinder propagator as an alternating image sum.

    ``z``, ``zp`` are distinct points of the open cylinder of circumference
    ``ell1`` and height ``ell2``, 0 <= x <= ell1 and 0 < y < ell2 (x = 0
    and x = ell1 are one point), or ``ValueError`` is raised before any
    sum.  Images carry the alternating
    sign ``(-1)^(n1 + n2)``; all images with |n1|, |n2| <= 64 are evaluated
    as one array, and both lattice directions are summed with Euler
    acceleration, n1 first, so the conditionally convergent 1/r tails are
    resummed to machine precision.
    """
    _require_on_cylinder((z, zp), ell1, ell2)
    z, zp = np.asarray((z, zp), dtype=float)
    dx, dy = z - zp
    sy = (z + zp)[1]
    n = np.arange(-_IMAGES, _IMAGES + 1)
    x, n2 = dx + n * ell1, n[:, None]    # axis 0: n2, axis 1: n1
    y, ry = dy + 2 * n2 * ell2, sy + 2 * n2 * ell2
    g1, g2 = _g1(x, y, params), _g2(x, y, params)
    r1, r2 = _g1(x, ry, params), _g2(x, ry, params)
    T = np.array([g1 - r1, g2 + r2, g2 - r2,
                  _g1(x, sy + 2 * (n2 - 1) * ell2, params) - g1])
    return _alternating_fold(_alternating_fold(T)).reshape(2, 2)


def scaling_series(z, zp, params, sizes):
    """Errors of the rescaled lattice propagator against the continuum one.

    For each n in ``sizes`` the critical n x n table block at the sites
    nearest to ``n z`` and ``n z'``, times n, is compared with the
    :func:`scaling_propagator` of the unit cylinder.  Returns that
    continuum block and the list of largest entry errors.  Both points
    must lie in the open unit cylinder, 0 <= x <= 1 and 0 < y < 1, or
    ``ValueError`` is raised before any sum.
    """
    _require_on_cylinder((z, zp), 1.0, 1.0, "unit cylinder")
    target = scaling_propagator(z, zp, 1.0, 1.0, params)
    errors = []
    for n in sizes:
        table = LazyCriticalTable(CylinderGeometry(n, n), params)
        blk = table.block((round(z[0] * n), round(z[1] * n)),
                          (round(zp[0] * n), round(zp[1] * n))) * n
        errors.append(float(np.max(np.abs(blk - target))))
    return target, errors
