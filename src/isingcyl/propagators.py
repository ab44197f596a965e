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
* the infinite-volume propagator (momentum integral, evaluated on a large
  torus with adaptive doubling), with optional multiplicative momentum
  cutoff -- the building block of the multiscale bulk part;
* the continuum scaling-limit propagator as an image sum.

All tables are stored in complex arithmetic; physical realness is checked
by callers (a failed check raises :class:`NumericalError`), never assumed
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import CylinderGeometry, antiperiodic_wrap


class NumericalError(ArithmeticError):
    """A numerical result failed its own consistency check."""


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


def normalization_N(k1, k2, params, M):
    """N_M(k1, k2): derivative-over-difference normalization factor."""
    B = coeff_B(k1, params)
    num = B * M * np.cos(np.asarray(k2) * M) - (M + 1) * np.cos(np.asarray(k2) * (M + 1))
    den = B * np.cos(np.asarray(k2) * M) - np.cos(np.asarray(k2) * (M + 1))
    return num / den


# ---------------------------------------------------------------------------
# Quantization-condition roots.
# ---------------------------------------------------------------------------


def solve_k2_roots(k1, M, params):
    """Roots of ``sin k2(M+1) = B(k1) sin(k2 M)`` in (-pi, pi).

    ``k1`` is a scalar or an array; the result has shape
    ``shape(k1) + (2M+1,)``, sorted along the last axis and symmetric under
    k2 -> -k2.  k2 = 0 (always a solution) is included -- the choice that
    reproduces the direct inversion of A_c, see the critical-propagator
    tests.  On the critical line B(k1) <= 1, and the condition divided by
    sin k2 is a degree-M polynomial in cos k2 whose sign alternates at the
    points pi j/M; so exactly one positive root lies in each bracket
    (pi j/M, pi (j+1)/M), j = 0..M-1 (McCoy-Wu 1973).  Every bracket of
    every k1 is bisected at once to a width of 1e-7/(M+1), where Newton's
    method converges quadratically, and Newton steps clipped to the bracket
    then reach machine precision.
    """
    B = np.asarray(coeff_B(k1, params), dtype=float)[..., None]
    if np.any(B > 1.0 + 1e-9):
        # Off the critical line the condition may develop complex roots;
        # the Fourier representation is only used on the critical line.
        raise ValueError(f"B(k1) = {B.max()} > 1: not on the critical line")

    def f(k2):
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
    # error falls to ~1e-15 after one step and to roundoff after two
    roots = lo + 0.5 * width
    for _ in range(2):
        fr = f(roots)
        dfr = (M + 1) * np.cos(roots * (M + 1)) - B * M * np.cos(roots * M)
        step = np.where(np.abs(dfr) > 1e-8, fr / np.where(dfr == 0, 1, dfr),
                        0.0)
        roots = np.clip(roots - step, lo, hi)
    # the condition's slope is O(M+1), so the attainable residual scales
    # with it
    if np.any(np.abs(f(roots)) > 1e-12 * (M + 1)):
        raise NumericalError("root residual above 1e-12 after refinement")
    zero = np.zeros(roots.shape[:-1] + (1,))
    return np.concatenate([-roots[..., ::-1], zero, roots], axis=-1)


@dataclass(frozen=True)
class MomentumGrid:
    """The momenta of the critical Fourier sum: the L horizontal momenta
    and, by row, the M+1 nonnegative k2 roots of each (0 first).  The
    negative roots mirror the positive ones."""

    geom: CylinderGeometry
    k1_values: np.ndarray
    k2_roots: np.ndarray  # shape (L, M+1)


@lru_cache(maxsize=16)
def _momentum_grid_cached(L, M, t1, t2):
    geom = CylinderGeometry(L, M)
    params = ModelParams(t1=t1, t2=t2)
    k1v = horizontal_momenta(L)
    # B depends on k1 only through cos k1, and k1v[i] = -k1v[L-1-i]: the
    # roots are solved for the L/2 positive momenta and mirrored
    half = solve_k2_roots(k1v[L // 2:], M, params)[:, M:]
    return MomentumGrid(geom=geom, k1_values=k1v,
                        k2_roots=np.concatenate([half[::-1], half]))


def momentum_grid(geom, params):
    return _momentum_grid_cached(geom.L, geom.M, params.t1, params.t2)


# ---------------------------------------------------------------------------
# Propagator tables.
# ---------------------------------------------------------------------------


def _pairs(z, zp, L, rows, columns=None):
    """Integer site arrays (n, 2) and (n', 2), and the residue of z1 - z'1
    mod L and its antiperiodic sign (n, n', 1, 1) of each pair.  A bool or
    float coordinate, or a row or column outside the closed ranges, raises
    ValueError (numpy reads bools among integers as integers)."""
    arrays = [np.asarray(s) if len(s) else np.zeros((0, 2), dtype=int)
              for s in (z, zp)]
    lo, hi = zip(columns or (-np.inf, np.inf), rows)
    if not all(a.dtype.kind in "iu" and a.shape[1:] == (2,)
               and ((lo <= a) & (a <= hi)).all() for a in arrays) or any(
            isinstance(v, (bool, np.bool_)) for s in (z, zp)
            if not isinstance(s, np.ndarray) for site in s for v in site):
        where = f"columns {columns[0]}..{columns[1]} and " if columns else ""
        raise ValueError(f"site coordinates must be integers, in {where}"
                         f"rows {rows[0]}..{rows[1]}")
    z, zp = (a.astype(np.int64, copy=False) for a in arrays)  # no uint wrap
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

    def products(self, rows):
        """Matrix of the field products of linear combinations of fields.

        A row is a sequence of ``(coeff, omega, site)`` terms, omega 0 for
        '+' and 1 for '-'.  Entry (i, j) is ``sum c c' g_{omega omega'}(site,
        site')`` over the terms of rows i and j, for every i and j: the
        diagonal reads g at coincident sites, so a principal submatrix
        that repeats an index is the covariance of a repeated row.  The
        blocks of every ordered pair of the sites named, a site paired
        with itself included, are read by one :meth:`blocks` call.
        """
        index = {z: a for a, z in enumerate(dict.fromkeys(
            z for row in rows for _, _, z in row))}
        n = len(index)
        C = np.zeros((len(rows), 2 * n), dtype=complex)
        for i, row in enumerate(rows):
            for c, w, z in row:
                C[i, 2 * index[z] + w] += c
        P = self.blocks(list(index), list(index))
        return C @ P.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n) @ C.T

    def covariance(self, rows):
        """Skew covariance matrix of linear combinations of fields: the
        upper triangle of :meth:`products`, the diagonal zero and the lower
        triangle the negated upper one."""
        G = np.triu(self.products(rows), 1)
        return G - G.T


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
    """The per-k1 data of the critical Fourier sum (see
    :func:`_critical_modes`)."""

    phase: np.ndarray  # (L, L): e^{-i k1 d1}, k1 by row, d1 = 0..L-1
    k2: np.ndarray     # (L, M+1): the nonnegative roots of each k1
    w: np.ndarray      # (L, M+1): real weights, +-k2 multiplicity folded in
    s1: np.ndarray     # (L,): 2 i t1 sin k1
    B: np.ndarray      # (L,): B(k1)
    c: float           # 1 - t1^2


def _critical_modes(geom, params, weight):
    """The critical Fourier sum reduced to real per-k1 data.

    A mode contributes ``w(k1, k2) D ghat(k1, k2)`` times its k2 phases,
    with ``w = weight/(2 L N_M D)`` real and even in k2, and the numerators
    ``D ghat`` are affine in ``e^{+-i k2}`` with the k1 coefficients
    ``s1``, ``1 - t1^2`` and ``B``.  So only the nonnegative roots are
    kept, with ``w`` doubled at every positive one.  ``weight`` (or None)
    is evaluated at the roots and at their mirrors; a weight that is not
    even in k2 raises ``ValueError``."""
    if not params.is_critical:
        raise ValueError("Fourier representation requires critical parameters")
    L, M = geom.L, geom.M
    grid = momentum_grid(geom, params)
    k1, k2 = grid.k1_values, grid.k2_roots
    w = 1.0 / (2.0 * L * normalization_N(k1[:, None], k2, params, M)
               * coeff_D(k1[:, None], k2, params))
    if weight is not None:
        k1s = np.broadcast_to(k1[:, None], k2.shape)
        wk = weight(k1s, k2)
        if not np.array_equal(wk, weight(k1s, -k2)):
            raise ValueError("the momentum weight must be even in k2: "
                             "weight(k1, -k2) == weight(k1, k2)")
        w = w * wk
    w[:, 1:] *= 2.0
    return _Modes(np.exp(-1j * np.outer(k1, np.arange(L))), k2, w,
                  2j * params.t1 * np.sin(k1), coeff_B(k1, params),
                  1.0 - params.t1 ** 2)


# bound on the (offsets, L, M+1) cos temporary of one k2 reduction
_COS_BYTES = 1 << 18


def _k2_columns(modes, n):
    """``C(k1; n) = sum_{k2} w cos(k2 n)`` over the roots of each k1, at
    the integer offsets ``n``: one real reduction, shape (len(n), L).  C is
    even in n."""
    return np.einsum("lk,nlk->nl", modes.w,
                     np.cos(np.asarray(n)[:, None, None] * modes.k2))


def _two_by_two(a, b, c, d):
    """The blocks ``[[a, b], [c, d]]`` of four arrays of a common shape."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)],
                    axis=-2)


def _offset_profiles(modes, d, s):
    """The profiles ``g(d)`` and ``r(s)`` over the L residues of d1 at the
    vertical differences ``d`` and sums ``s``, (len d, L, 2, 2) and
    (len s, L, 2, 2): ``g(d) = [[-S(|d|), X(d)], [-X(-d), S(|d|)]]`` and
    ``r(s) = [[-S(s), -V(s)], [V(s), S(2M+2-s)]]``, with ``S(n) = s1 C(n)``,
    ``X(d) = c (B C(|d+1|) - C(|d|))`` and ``V(s) = c (C(s) - B C(|s-1|))``
    summed over k1 by one matmul (X and V cancel within each k1).  C is
    formed once per offset read (found by ``np.bincount``: a first
    ``np.unique`` imports ``numpy.ma``), ``_COS_BYTES`` at a time."""
    top, a = 2 * modes.k2.shape[1], np.abs  # top = 2M + 2
    n = np.flatnonzero(np.bincount(a(np.concatenate([d, d + 1, d - 1, s,
                                                     s - 1, top - s]))))
    C = np.empty((top + 1, len(modes.B)))
    step = max(1, _COS_BYTES // modes.w.nbytes)
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
    """Real-space convolution kernels of b and Delta over raw offsets."""
    L = geom.L
    k1 = horizontal_momenta(L)
    d = np.arange(-(L - 1), L)
    ph = np.exp(1j * np.outer(d, k1))
    cb = ph @ coeff_b(k1, params) / L
    cD = ph @ coeff_Delta(k1, params) / L
    return d, cb, cD


def build_A_critical(geom, params):
    """The antisymmetric matrix A_c with S_c = (1/2)(phi, A_c phi).

    Basis order: index 2*site + omega with omega in {0: '+', 1: '-'} and
    sites row-major (rows 1..M).  The row M+1 field phi_- is identically
    zero, so the t2 coupling stops at row M-1.
    """
    L, M = geom.L, geom.M
    t2 = params.t2
    n = 2 * L * M
    d, cb, cD = _conv_kernels(geom, params)
    off = L - 1  # index of offset 0 in the kernel arrays
    C = np.zeros((n, n), dtype=complex)

    def idx(x1, m, w):
        return 2 * ((m - 1) * L + (x1 - 1)) + w

    for m in range(1, M + 1):
        for x in range(1, L + 1):
            for xp in range(1, L + 1):
                dd = xp - x
                C[idx(x, m, 0), idx(xp, m, 1)] += -cb[off + dd]
                C[idx(x, m, 0), idx(xp, m, 0)] += -0.5j * cD[off + dd]
                C[idx(x, m, 1), idx(xp, m, 1)] += +0.5j * cD[off + dd]
            if m < M:
                C[idx(x, m, 0), idx(x, m + 1, 1)] += t2
    A = C - C.T
    if not np.max(np.abs(A.imag)) < 1e-12:
        raise NumericalError("critical quadratic form is not real")
    return A.real


def _critical_momentum_blocks(k1, M, params):
    """The 2M x 2M horizontal Fourier blocks ``C(k1) - C(-k1)^T`` of A_c,
    basis 2(m-1) + omega, with the rows of :func:`build_A_critical` in
    momentum space: C(m+, m+) = -C(m-, m-) = i Delta/2, C(m+, m-) = -b and
    C(m+, (m+1)-) = t2.  b is even and Delta odd, so C(-k1) = conj C(k1).
    """
    half_delta = 0.5j * coeff_Delta(k1, params)[..., None]
    r = 2 * np.arange(M)
    C = np.zeros(np.shape(k1) + (2 * M, 2 * M), dtype=complex)
    C[..., r, r], C[..., r + 1, r + 1] = half_delta, -half_delta
    C[..., r, r + 1] = -coeff_b(k1, params)[..., None]
    C[..., r[:-1], r[:-1] + 3] = params.t2
    return C - np.conj(np.swapaxes(C, -1, -2))


def build_A_massive(geom, params):
    """The antisymmetric matrix A_m with S_m = (1/2)(xi, A_m xi)."""
    L, M = geom.L, geom.M
    t1 = params.t1
    n = 2 * L * M
    C = np.zeros((n, n))

    def idx(x1, m, w):
        return 2 * ((m - 1) * L + (x1 - 1)) + w

    for m in range(1, M + 1):
        for x in range(1, L + 1):
            C[idx(x, m, 0), idx(x, m, 1)] += 1.0
            r, sign = antiperiodic_wrap(x, L)  # the neighbor x + 1 = r + 1
            C[idx(x, m, 0), idx(r + 1, m, 1)] += sign * t1
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

    The momenta ``-pi + 2 pi (m + 1/2)/N`` make the sum antiperiodic in N
    along each raw integer offset.  ``weight`` (or None) takes
    broadcastable (k1, k2) arrays.  D is real and ghat's numerators depend
    on k2 only through ``e^{+-i k2}``: ``w/D`` is summed over k2 by one
    matmul at the columns z2, z2 +- 1, and over k1, after the per-k1
    numerators, by another.  O(N^2 (|z1| + |z2|)) time, O(N^2) memory.
    """
    z1, z2, t1 = np.asarray(z1), np.asarray(z2), params.t1
    k = -np.pi + 2.0 * np.pi * (np.arange(N) + 0.5) / N
    W = 1.0 / coeff_D(k[:, None], k[None, :], params)
    if weight is not None:
        W = W * weight(k[:, None], k[None, :])
    # columns z2, z2 + 1 (the e^{-i k2} numerator) and z2 - 1 (e^{+i k2})
    cols = np.concatenate([z2, z2 + 1, z2 - 1])
    P0, Pp, Pm = np.split(W @ np.exp(-1j * np.outer(k, cols)), 3, axis=1)
    sin1 = (2j * t1 * np.sin(k))[:, None]
    B = coeff_B(k, params)[:, None]
    c = 1.0 - t1 ** 2
    num = np.stack([-sin1 * P0, -c * (P0 - B * Pp),
                    c * (P0 - B * Pm), sin1 * P0], axis=-1)
    E1 = np.exp(-1j * np.outer(z1, k)) / N ** 2
    return (E1 @ num.reshape(N, -1)).reshape(len(z1), len(z2), 2, 2)


def infinite_propagator(zs, params, weight=None, *, tol=1e-10):
    """The infinite-volume propagator at the integer offsets ``zs``.

    Evaluates the momentum integral of ghat (times the cutoff weight, if
    any) by the torus sum of :func:`infinite_propagator_grid` at the
    distinct first and second components of ``zs``, doubling the torus
    and Richardson-extrapolating the O(N^-2) and O(N^-4) error terms (the
    massless integrand makes the raw sums converge only algebraically).
    Stops once the extrapolated entries change by less than ``tol``.
    Returns a dict ``z -> 2x2 block``.

    The extrapolation assumes a smooth integrand.  A
    :class:`~isingcyl.multiscale.CutoffWeight` is only C^1 (its profile's
    second derivative jumps), so a weighted sum converges too slowly for
    the default ``tol`` and raises :class:`DoublingError` after N = 2048;
    ask such sums for ``tol`` ~ 1e-6.
    """
    zs = [tuple(z) for z in zs]
    z1, i1 = np.unique([z[0] for z in zs], return_inverse=True)
    z2, i2 = np.unique([z[1] for z in zs], return_inverse=True)
    raw, r1, r2 = [], [], []
    prev_best, cur_best = None, None
    N = 64
    for _ in range(6):  # N = 64 .. 2048
        g = infinite_propagator_grid(params, weight, N, z1, z2)
        raw.append({z: g[a, b] for z, a, b in zip(zs, i1, i2)})
        if len(raw) >= 2:
            r1.append({z: (4.0 * raw[-1][z] - raw[-2][z]) / 3.0 for z in zs})
        if len(r1) >= 2:
            r2.append({z: (16.0 * r1[-1][z] - r1[-2][z]) / 15.0 for z in zs})
        prev_best = cur_best
        cur_best = (r2 or r1 or raw)[-1]
        if prev_best is not None:
            delta = max(np.max(np.abs(cur_best[z] - prev_best[z]))
                        for z in zs)
            if delta < tol:
                return cur_best
        N *= 2
    raise DoublingError(
        f"torus sum did not converge to {tol} at N = {N // 2} "
        f"(last change {delta:.3g})", cur_best, prev_best)


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
    ``ell1`` and height ``ell2``.  Images carry the alternating sign
    ``(-1)^(n1 + n2)``; all images with |n1|, |n2| <= 64 are evaluated as
    one array, and both lattice directions are summed with Euler
    acceleration, n1 first, so the conditionally convergent 1/r tails are
    resummed to machine precision.
    """
    z = np.asarray(z, dtype=float)
    zp = np.asarray(zp, dtype=float)
    if np.allclose(z, zp):
        raise ValueError("scaling propagator requires distinct points")
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
    must lie in the open cylinder, 0 < y < 1.
    """
    for p in (z, zp):
        if not 0.0 < p[1] < 1.0:
            raise ValueError(f"point {tuple(p)} outside the open unit "
                             "cylinder")
    target = scaling_propagator(z, zp, 1.0, 1.0, params)
    errors = []
    for n in sizes:
        table = LazyCriticalTable(CylinderGeometry(n, n), params)
        blk = table.block((round(z[0] * n), round(z[1] * n)),
                          (round(zp[0] * n), round(zp[1] * n))) * n
        errors.append(float(np.max(np.abs(blk - target))))
    return target, errors
