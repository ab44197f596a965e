r"""Multiscale decomposition of the critical propagator.

The critical cylinder propagator is split with a Littlewood-Paley partition
of unity in the dispersion ``E(k) = sqrt(D(k1, k2))``:

    1 = chi(2^{-h*} E) + sum_{h = h*+1}^{0} [chi(2^{-h} E) - chi(2^{-h+1} E)]
        + [1 - chi(E)],

with ``h* = -floor(log2 min(L, M))``.  The last bracket lives at unit
momenta and is bookkept with the massive sector; everything else defines
the single-scale propagators g^(h) and the deepest block g^(<= h*), which
telescope back to the smooth sector of g_c exactly.

Each scale is further split into a *bulk* part -- the sign-corrected
restriction of the infinite-volume scale-h propagator -- and an *edge*
remainder localized near the open boundaries:

    g_B^(h)(z, z') = s_L((z - z')_1) g_inf^(h)(per_L((z - z')_1), (z - z')_2),
    g_E^(h) = g^(h) - g_B^(h).

The module also provides the log-linear decay-fit helpers used by the
empirical checks (the sharp decay constants are not asserted, only
fitted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import d_edge_pair, per_L
from .propagators import (
    ModelParams, TranslationInvariantTable, coeff_D,
    critical_propagator_fourier, infinite_propagator_grid,
)

LEQ = "leq"


def chi_profile(x):
    """The cutoff profile: 1 below 1/2, 0 above 1, a smooth polynomial
    step 1 - s^2 (3 - 2s) with s = 2x - 1 in between."""
    x = np.asarray(x, dtype=float)
    s = np.clip(2.0 * x - 1.0, 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


@dataclass(frozen=True)
class CutoffWeight:
    """The momentum weight ``chi(2^-upper E) - chi(2^-lower E)`` with
    ``E = sqrt(D(k1, k2))``; without a ``lower`` scale just
    ``chi(2^-upper E)``.

    A frozen value: weights with equal scales and parameters compare
    equal and are the same function of (k1, k2).  It takes broadcastable
    momentum arrays.
    """

    upper: int
    lower: int | None
    params: ModelParams

    def __call__(self, k1, k2):
        E = np.sqrt(coeff_D(k1, k2, self.params))
        w = chi_profile(2.0 ** (-self.upper) * E)
        if self.lower is not None:
            w = w - chi_profile(2.0 ** (-self.lower) * E)
        return w


@dataclass(frozen=True)
class ScaleCutoff:
    """The scale decomposition bookkeeping for one geometry."""

    h_star: int

    @classmethod
    def for_geometry(cls, geom):
        return cls(h_star=-int(math.floor(math.log2(min(geom.L, geom.M)))))

    @property
    def scales(self):
        """The single-scale labels, deepest first."""
        return tuple(range(self.h_star + 1, 1))

    def weight(self, h, params):
        """The momentum weight of scale ``h`` (an int) or of LEQ."""
        if h == LEQ:
            return CutoffWeight(self.h_star, None, params)
        if h not in self.scales:
            raise ValueError(
                f"scale {h} outside {self.h_star + 1}..0 (or {LEQ!r})")
        return CutoffWeight(h, h - 1, params)

    def smooth_weight(self, params):
        """chi(E): everything except the unit-momentum massive complement."""
        return CutoffWeight(0, None, params)


def scale_propagator(h, geom, params, cutoff=None):
    """The scale-h critical propagator table (h an int, or LEQ).

    Each table is built once per (h, geom, params, cutoff) and shared by
    every caller, so its ``data`` is read-only.
    """
    return _scale_table(h, geom, params,
                        cutoff or ScaleCutoff.for_geometry(geom))


# room for one decomposition (LEQ and the scales h* + 1..0) while
# min(L, M) < 256
@lru_cache(maxsize=8)
def _scale_table(h, geom, params, cutoff):
    table = critical_propagator_fourier(
        geom, params, weight=cutoff.weight(h, params),
        variant=f"critical-scale-{h}")
    table.data.flags.writeable = False
    return table


def smooth_sector_propagator(geom, params, cutoff=None):
    """g_c with the unit-momentum complement removed: the telescoping sum
    of all scale tables."""
    cutoff = cutoff or ScaleCutoff.for_geometry(geom)
    return critical_propagator_fourier(
        geom, params, weight=cutoff.smooth_weight(params),
        variant="critical-smooth")


def telescoping_residual(geom, params, cutoff=None):
    """Largest entry of the sum of all scale tables minus the smooth
    sector table (zero up to roundoff)."""
    cutoff = cutoff or ScaleCutoff.for_geometry(geom)
    acc = scale_propagator(LEQ, geom, params, cutoff).data.copy()
    for h in cutoff.scales:
        acc += scale_propagator(h, geom, params, cutoff).data
    smooth = smooth_sector_propagator(geom, params, cutoff)
    return float(np.max(np.abs(acc - smooth.data)))


# ---------------------------------------------------------------------------
# Bulk / edge splitting.
# ---------------------------------------------------------------------------


def split_residual(split):
    """Largest entry of bulk + edge - full of a :func:`bulk_edge_split`
    (zero up to roundoff)."""
    return float(np.max(np.abs(
        split["bulk"].data + split["edge"].data - split["full"].data)))


def bulk_edge_split(h, geom, params, cutoff=None):
    """Split g^(h) into its bulk restriction and the edge remainder.

    Returns a dict with the ``bulk``, ``edge`` and ``full`` tables; the
    first two sum to the third by construction.  The bulk entry at raw
    horizontal difference d1 carries the sign s_L(d1) (+1, 0, -1 for
    |d1| <, =, > L/2), which reproduces exactly the antiperiodic wrap
    convention of the finite-cylinder tables.  The infinite-volume values
    are the raw N-torus sums of :func:`infinite_propagator_grid` (the
    momentum sum of ``full`` over the torus modes) at the offsets
    ``(per_L(d1), z2 - z'2)``, N the least power of two >= 4 max(L, M) and
    >= 256: O(N^2 M + N L M) time and O(N^2) memory.
    """
    cutoff = cutoff or ScaleCutoff.for_geometry(geom)
    L, M = geom.L, geom.M
    N = max(256, 1 << (4 * max(L, M) - 1).bit_length())
    m = np.arange(L)
    ginf = infinite_propagator_grid(params, cutoff.weight(h, params), N,
                                    per_L(m, L), np.arange(-(M + 1), M + 2))
    full = scale_propagator(h, geom, params, cutoff)
    rows = np.arange(M + 2)
    s = np.sign(L / 2 - m)[:, None, None, None, None]
    data = s * ginf[:, rows[:, None] - rows[None, :] + M + 1]
    bulk = TranslationInvariantTable(geom, f"bulk-scale-{h}", data)
    edge = TranslationInvariantTable(geom, f"edge-scale-{h}",
                                     full.data - data)
    return {"bulk": bulk, "edge": edge, "full": full}


# ---------------------------------------------------------------------------
# Decay fits.
# ---------------------------------------------------------------------------


def fit_exponential_decay(distances, norms):
    """Least-squares fit of log(norm) = a - rate * distance.

    Values at or below 1e-13 (roundoff) are dropped.  Returns a dict with
    the fitted positive-decay ``rate``, the intercept ``log_amplitude`` and
    the coefficient of determination ``r_squared``.
    """
    d = np.asarray(distances, dtype=float)
    n = np.asarray(norms, dtype=float)
    keep = n > 1e-13
    d, n = d[keep], np.log(n[keep])
    if len(d) < 3 or np.ptp(d) == 0:
        raise ValueError("not enough usable points for a decay fit")
    slope, intercept = np.polyfit(d, n, 1)
    resid = n - (slope * d + intercept)
    ss_tot = np.sum((n - n.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 0.0
    return {"rate": -slope, "log_amplitude": intercept, "r_squared": r2}


def edge_decay_profile(h, geom, params, cutoff=None, split=None):
    """(d_E, max-norm) samples of the scale-h edge propagator.

    Sweeps horizontally adjacent pairs from the boundary toward the middle
    of the cylinder at a few horizontal positions; along this sweep the
    boundary-weighted distance d_E grows linearly.
    """
    if split is None:
        split = bulk_edge_split(h, geom, params, cutoff)
    z = [(x, row) for x in (geom.L // 8 + 1, geom.L // 4 + 1, geom.L // 2 - 1)
         for row in range(1, geom.M // 2 + 1)]
    zp = [(geom.wrap_x1(x + 1), row) for x, row in z]
    norms = np.abs(split["edge"].blocks(z, zp).diagonal()).max(axis=(0, 1))
    return np.asarray([d_edge_pair(a, b, geom) for a, b in zip(z, zp)]), norms


def envelope_decay_fit(distances, norms, bin_width=12):
    """Exponential fit of the oscillation envelope: norms are binned by
    distance and each bin contributes its maximum."""
    d = np.asarray(distances, dtype=float)
    n = np.asarray(norms, dtype=float)
    # the bins of d // bin_width by ``return_inverse``: a plain
    # ``np.unique`` imports numpy.ma
    _, group = np.unique(d // bin_width, return_inverse=True)
    bd, bn = [], []
    for g in range(group.max(initial=-1) + 1):
        sel = group == g
        bd.append(d[sel].mean())
        bn.append(n[sel].max())
    return fit_exponential_decay(bd, bn)


def scale_norm_profile(geom, params, cutoff=None):
    """Max-norm of each single-scale table, keyed by h."""
    cutoff = cutoff or ScaleCutoff.for_geometry(geom)
    return {h: float(np.max(np.abs(
        scale_propagator(h, geom, params, cutoff).data)))
        for h in cutoff.scales}
