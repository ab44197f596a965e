"""Reference Gibbs sums: one Python loop over the spin configurations that
weighs each configuration bond by bond, the plain form of the exhaustive
sum that :func:`isingcyl.freecorr.enumerate_gibbs` reduces to a histogram
of exact counts, kept as its oracle.

Bonds are the horizontal edge of every site and the vertical edge of every
site below row M; they and the observables are read through the edges'
endpoints, with no bit arithmetic.  It costs 2^(LM) iterations of Python
code, so it is only meant for small cases.
"""

import itertools
import math

from isingcyl.lattice import Edge


def gibbs_sums(geom, beta, J1=1.0, J2=1.0, observables=()):
    """log Z, the moment of every nonempty sub-tuple of ``observables``
    (keyed by position sets) and the set of occupied energy levels, as
    (disagreeing horizontal bonds, disagreeing vertical bonds)."""
    sites = geom.sites()
    bonds = [(d, *Edge(z, d).endpoints(geom)) for z in sites for d in "hv"
             if d == "h" or z[1] < geom.M]
    obs = [e.endpoints(geom) for e in observables]
    subsets = [frozenset(s) for r in range(1, len(obs) + 1)
               for s in itertools.combinations(range(len(obs)), r)]
    z, sums, levels = 0.0, dict.fromkeys(subsets, 0.0), set()
    for values in itertools.product((1, -1), repeat=len(sites)):
        spin = dict(zip(sites, values))
        energy, disagree = 0.0, {"h": 0, "v": 0}
        for direction, a, b in bonds:
            energy += (J1 if direction == "h" else J2) * spin[a] * spin[b]
            disagree[direction] += spin[a] != spin[b]
        levels.add((disagree["h"], disagree["v"]))
        w = math.exp(beta * energy)
        z += w
        eps = [spin[a] * spin[b] for a, b in obs]
        for s in subsets:
            sums[s] += w * math.prod(eps[i] for i in s)
    return math.log(z), {s: v / z for s, v in sums.items()}, levels
