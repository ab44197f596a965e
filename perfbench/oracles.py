"""Check bookkeeping and the closed-form oracles of the benchmark.

Every comparison of a library result with its oracle goes through
:class:`Checks`.  A check never raises: an exception inside it is counted
as a failed operation, and so is a residual above its tolerance.  The
numbers a check compares are kept, so two passes can be compared bit for
bit through :meth:`Checks.digest`.
"""

from __future__ import annotations

import hashlib
import math
import time

# Residuals are floored to tolerance * 10**-MARGIN_CAP, so the margin
# log10(tolerance / residual) reads at most MARGIN_CAP.  A result a hundred
# times inside its tolerance counts as comfortably inside: roundoff jitter
# far below a tolerance varies from seed to seed and is not a margin.
MARGIN_CAP = 2.0


class Checks:
    """Outcomes of the oracle checks of one pass.

    Each record carries ``seconds``, the time since the previous check
    ended (or since the pass started), so the records split the pass into
    consecutive segments.
    """

    def __init__(self):
        self.records = []
        self._outputs = []
        self._mark = time.perf_counter()

    def check(self, name, fn, tol, *, known_defect=None):
        """Run ``fn() -> (residual, outputs)`` and record the outcome.

        The check passes when the residual is finite and at most ``tol``.
        ``outputs`` are the compared numbers; they enter the digest.
        ``known_defect`` names a documented defect whose failure is
        expected: it still counts as failed, but not as incorrect.
        """
        rec = {"name": name, "tolerance": tol, "residual": None,
               "passed": False, "margin_log10": None,
               "known_defect": known_defect, "error": None, "seconds": None}
        try:
            residual, outputs = fn()
        except Exception as exc:  # a raising operation is a failed check
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            residual = float(residual)
            rec["residual"] = residual
            rec["passed"] = math.isfinite(residual) and residual <= tol
            if math.isfinite(residual):
                floor = tol * 10.0 ** -MARGIN_CAP
                rec["margin_log10"] = math.log10(tol / max(residual, floor))
            self._outputs.extend(_flatten(outputs))
        now = time.perf_counter()
        rec["seconds"] = now - self._mark
        self._mark = now
        self.records.append(rec)
        return rec
    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r["passed"])

    @property
    def unexpected_failures(self):
        return [r for r in self.records
                if not r["passed"] and not r["known_defect"]]

    def min_margin_log10(self):
        margins = [r["margin_log10"] for r in self.records
                   if r["margin_log10"] is not None]
        return min(margins) if margins else None

    def digest(self):
        """SHA-256 over the exact repr of every compared number."""
        h = hashlib.sha256()
        for v in self._outputs:
            h.update(repr(v).encode())
            h.update(b";")
        return h.hexdigest()


def _flatten(obj):
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _flatten(x)
    elif hasattr(obj, "ravel"):  # numpy arrays and scalars
        for x in obj.ravel().tolist():
            yield x
    else:
        yield obj


def onsager_free_energy(beta):
    """Onsager's bulk ``log Z / (number of spins)`` of the isotropic model
    with J = 1 (Onsager 1944; McCoy and Wu 1973).

    ``log(2 cosh 2b) + (1/2pi) int_0^pi log((1 + sqrt(1 - k^2 sin^2 t))/2)
    dt`` with ``k = 2 sinh 2b / cosh^2 2b``.
    """
    from scipy.integrate import quad

    k = 2.0 * math.sinh(2.0 * beta) / math.cosh(2.0 * beta) ** 2

    def integrand(t):
        return math.log(0.5 * (1.0 + math.sqrt(
            max(0.0, 1.0 - k * k * math.sin(t) ** 2))))

    integral, _ = quad(integrand, 0.0, math.pi, limit=200, epsabs=1e-13)
    return math.log(2.0 * math.cosh(2.0 * beta)) + integral / (2.0 * math.pi)


def strict_decrease_ratio(errors):
    """Largest ratio of successive errors: below 1 iff strictly decreasing."""
    return max(b / a if a > 0 else math.inf
               for a, b in zip(errors, errors[1:]))
