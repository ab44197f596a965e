"""Traced runs: spans around the public functions of the numeric layers.

The tracer wraps each traced function from outside the library.  A
function is replaced in every ``isingcyl`` module namespace that holds it
(``kernelcalc.tree_distance`` as well as ``lattice.tree_distance``), and
methods are replaced on each class that defines them (``block`` on every
``PropagatorTable`` subclass).  Spans (name, start, end, parent) are kept
in compact in-memory arrays and written once, after the measured region.
A layer's self time is its span time minus the time of its direct child
spans and of any speed probe that interrupted it.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute or Class.method, metric prefix).  Several functions
# may share one prefix; their spans are counted together.
TARGETS = (
    ("skewlinalg", "pfaffian", "skewlinalg.pfaffian"),
    ("skewlinalg", "moments_to_cumulants", "skewlinalg.moments_to_cumulants"),
    ("lattice", "tree_distance", "lattice.tree_distance"),
    ("lattice", "edge_tree_distance", "lattice.edge_tree_distance"),
    ("kernelcalc", "symmetrize", "kernelcalc.symmetrize"),
    ("kernelcalc", "localize_bulk", "kernelcalc.localize"),
    ("kernelcalc", "localize_edge", "kernelcalc.localize"),
    ("kernelcalc", "localize_source", "kernelcalc.localize"),
    ("kernelcalc", "renormalize_bulk", "kernelcalc.renormalize"),
    ("kernelcalc", "renormalize_edge", "kernelcalc.renormalize"),
    ("kernelcalc", "renormalize_source", "kernelcalc.renormalize"),
    ("kernelcalc", "polynomial_distance", "kernelcalc.polynomial_distance"),
    ("kernelcalc", "weighted_norm", "kernelcalc.weighted_norm"),
    ("kernelcalc", "truncated_expectation",
     "kernelcalc.truncated_expectation"),
    ("kernelcalc", "rg_step", "kernelcalc.rg_step"),
    ("propagators", "solve_k2_roots", "propagators.solve_k2_roots"),
    ("propagators", "critical_propagator_fourier",
     "propagators.critical_propagator_fourier"),
    ("propagators", "LazyCriticalTable.__init__",
     "propagators.lazy_table_init"),
    ("propagators", "infinite_propagator", "propagators.infinite_propagator"),
    ("propagators", "infinite_propagator_grid",
     "propagators.infinite_propagator_grid"),
    ("propagators", "scaling_propagator", "propagators.scaling_propagator"),
    ("propagators", "critical_propagator_direct",
     "propagators.critical_propagator_direct"),
    ("propagators", "TranslationInvariantTable.block", "propagators.block"),
    ("propagators", "DenseTable.block", "propagators.block"),
    ("propagators", "LazyCriticalTable.block", "propagators.block"),
    ("propagators", "s_weights", "propagators.s_weights"),
    ("freecorr", "FreeCorrelator.bilinear_moment", "freecorr.bilinear_moment"),
    ("freecorr", "FreeCorrelator.energy_cumulant", "freecorr.energy_cumulant"),
    ("freecorr", "partition_function_free",
     "freecorr.partition_function_free"),
    ("freecorr", "enumerate_gibbs", "freecorr.enumerate_gibbs"),
    ("freecorr", "scaling_correlation", "freecorr.scaling_correlation"),
    ("multiscale", "scale_propagator", "multiscale.scale_propagator"),
    ("multiscale", "smooth_sector_propagator",
     "multiscale.smooth_sector_propagator"),
    ("multiscale", "bulk_edge_split", "multiscale.bulk_edge_split"),
    ("multiscale", "edge_decay_profile", "multiscale.edge_decay_profile"),
)

PREFIXES = tuple(dict.fromkeys(prefix for _, _, prefix in TARGETS))

# (metric, unit) pairs reported by a traced run, besides calls and self_s
# of every prefix.
EXTRA_METRICS = (
    ("skewlinalg.pfaffian.flops_computed", "flop"),
    ("lattice.distance.repeat_ratio", "1"),
    ("lattice.distance.approx_ratio", "1"),
    ("propagators.block.repeat_ratio", "1"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for prefix in PREFIXES:
        out.append((f"{prefix}.calls", "count"))
        out.append((f"{prefix}.self_s", "s"))
    out.extend(EXTRA_METRICS)
    out.append(("tracing.spans", "count"))
    return out


class Tracer:
    """Span recorder for one pass; :meth:`install` patches the library."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.excluded = array("d")
        self._stack = []
        self._patched = []
        self.pfaffian_flops = 0.0
        self._seen = {"distance": set(), "block": set()}
        self.repeats = {"distance": 0, "block": 0}
        self.distance_calls = 0
        self.approx_distances = 0

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "isingcyl" or name.startswith("isingcyl.")]
        for mod_name, attr, prefix in TARGETS:
            mod = importlib.import_module(f"isingcyl.{mod_name}")
            nid = PREFIXES.index(prefix)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, nid, prefix), orig)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, nid, prefix)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped, orig)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _set(self, owner, key, new, orig):
        setattr(owner, key, new)
        self._patched.append((owner, key, orig))

    def _wrap(self, fn, nid, prefix):
        hook = {
            "skewlinalg.pfaffian": self._on_pfaffian,
            "lattice.tree_distance": self._on_distance,
            "lattice.edge_tree_distance": self._on_distance,
            "propagators.block": self._on_block,
        }.get(prefix)
        names, parents = self.names, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        excluded = self.excluded
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            excluded.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", prefix)
        return traced

    def exclude(self, seconds):
        """Keep ``seconds`` of foreign work (a speed probe) out of the self
        time of the innermost open span."""
        if self._stack:
            self.excluded[self._stack[-1]] += seconds

    # -- counters recorded where the work happens ---------------------------

    def _on_pfaffian(self, fn, args, kwargs, result):
        a = args[0]
        n = np.shape(getattr(a, "array", a))[0]
        self.pfaffian_flops += n ** 3 / 3.0

    def _on_distance(self, fn, args, kwargs, result):
        zs = tuple(tuple(z) for z in args[0])
        xs = tuple(args[1]) if len(args) > 1 else tuple(kwargs.get("xs", ()))
        geom = args[2] if len(args) > 2 else kwargs.get("geom")
        self._count_repeat("distance",
                           hash((fn.__name__, zs, xs, geom,
                                 tuple(sorted(kwargs.items())))))
        self.distance_calls += 1
        self.approx_distances += bool(getattr(result, "approximate", False))

    def _on_block(self, fn, args, kwargs, result):
        table, z, zp = args
        self._count_repeat("block",
                           hash((id(table), tuple(z), tuple(zp))))

    def _count_repeat(self, kind, key):
        seen = self._seen[kind]
        if key in seen:
            self.repeats[kind] += 1
        else:
            seen.add(key)

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-layer counts and self times of this pass."""
        names = np.frombuffer(self.names, dtype=np.int_)
        parents = np.frombuffer(self.parents, dtype=np.int_)
        dur = (np.frombuffer(self.ends, dtype=float)
               - np.frombuffer(self.starts, dtype=float))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child - np.frombuffer(self.excluded, dtype=float)
        k = len(PREFIXES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        out = {}
        for i, prefix in enumerate(PREFIXES):
            out[f"{prefix}.calls"] = int(calls[i])
            out[f"{prefix}.self_s"] = float(self_s[i])
        block_calls = out["propagators.block.calls"]
        out["skewlinalg.pfaffian.flops_computed"] = self.pfaffian_flops
        out["lattice.distance.repeat_ratio"] = _ratio(
            self.repeats["distance"], self.distance_calls)
        out["lattice.distance.approx_ratio"] = _ratio(
            self.approx_distances, self.distance_calls)
        out["propagators.block.repeat_ratio"] = _ratio(
            self.repeats["block"], block_calls)
        out["tracing.spans"] = len(dur)
        return out

    def write(self, path):
        """Write every span of the pass to ``path`` (numpy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, run_id=np.array(self.run_id),
                 layer_names=np.array(PREFIXES),
                 name=np.frombuffer(self.names, dtype=np.int_),
                 parent=np.frombuffer(self.parents, dtype=np.int_),
                 start=np.frombuffer(self.starts, dtype=float),
                 end=np.frombuffer(self.ends, dtype=float))


def _ratio(num, den):
    return num / den if den else 0.0
