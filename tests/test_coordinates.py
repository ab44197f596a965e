"""One integer-coordinate rule: every entry point that takes lattice
coordinates from a caller reads them through ``lattice._integer_array``."""

import numpy as np
import pytest

from isingcyl.kernelcalc import (
    FieldLabel, Kernel, _label_rows, truncated_expectation,
)
from isingcyl.lattice import (
    CylinderGeometry, Edge, _integer_array, tree_distance, tree_distances,
)
from isingcyl.propagators import (
    LazyCriticalTable, ModelParams, critical_propagator_direct,
    critical_propagator_fourier, massive_propagator,
)

GEOM = CylinderGeometry(6, 4)
PARAMS = ModelParams.critical(0.5)
TABLES = {
    "translation-invariant": lambda: critical_propagator_fourier(GEOM, PARAMS),
    "dense": lambda: critical_propagator_direct(GEOM, PARAMS),
    "row-diagonal": lambda: massive_propagator(GEOM, PARAMS),
    "lazy": lambda: LazyCriticalTable(GEOM, PARAMS),
}
LABEL = FieldLabel(1, (0, 0), (1, 2))

# a coordinate that is not an integer, or does not fit its storage, placed
# beside the valid site (1, 2); each row used to be accepted, misread or
# end in an OverflowError at one entry point at least: (True, 2) was read
# as (1, 2) by tree_distances, 2**70 overflowed every numpy cast, a row
# 2**40 overflowed the int32 edge rows of Kernel, and a uint64 column
# 2**63 + 5 wrapped to a negative int64 in table lookups and tree_distances
BAD_SITES = {
    "bool": (True, 2),
    "2**70": (2 ** 70, 2),
    "row 2**40": (1, 2 ** 40),
    "uint64 2**63+5": (np.uint64(2 ** 63 + 5), 2),
}


def _sites(bad):
    """The valid site and ``bad``: a uint64 array where ``bad`` is one."""
    sites = [(1, 2), bad]
    return (np.array(sites, dtype=np.uint64)
            if isinstance(bad[0], np.uint64) else sites)


def _one_key(sites):
    return sites[None] if isinstance(sites, np.ndarray) else [sites]


ENTRY_POINTS = {
    **{f"blocks-{kind}": lambda bad, make=make: make().blocks(
        _sites(bad), [(1, 1)]) for kind, make in TABLES.items()},
    **{f"blocks-{kind}-second": lambda bad, make=make: make().blocks(
        [(1, 1)], _sites(bad)) for kind, make in TABLES.items()},
    "tree_distance": lambda bad: tree_distance([(1, 2), bad], (), GEOM),
    "tree_distances": lambda bad: tree_distances(
        _one_key(_sites(bad)), np.zeros((1, 0, 3), dtype=int), GEOM),
    "Kernel-label": lambda bad: Kernel(GEOM, 2, 0, 0, {
        ((LABEL, FieldLabel(-1, (0, 0), bad)), ()): 1.0}),
    "Kernel-edge": lambda bad: Kernel(GEOM, 2, 0, 1, {
        ((LABEL, LABEL), (Edge(bad, "h"),)): 1.0}),
    "truncated_expectation": lambda bad: truncated_expectation(
        [(LABEL, FieldLabel(-1, (0, 0), bad))], TABLES["dense"]()),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("bad", list(BAD_SITES))
def test_every_entry_point_raises_value_error(entry, bad):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](BAD_SITES[bad])


class TestIntegerArray:
    @pytest.mark.parametrize("a", [
        [(1, 2), (3, 4)], ((1, 2), [3, 4]), [np.array([1, 2]), (3, 4)],
        np.array([(1, 2), (3, 4)], dtype=np.uint8),
        np.array([(1, 2), (3, 4)], dtype=np.int32),
        [(np.uint64(1), np.int8(2)), (3, 4)]])
    def test_arrays_and_sequences_read_alike(self, a):
        got = _integer_array(a, 2, 2, "sites")
        assert got.dtype == np.int64
        assert got.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("a, shape", [
        ([], (0, 2)), (np.zeros((0, 2)), (0, 2)), ([[]], (1, 0, 2)),
        ([[], []], (2, 0, 2))])
    def test_empty_inputs_take_the_width(self, a, shape):
        ndim = len(shape)
        assert _integer_array(a, ndim, 2, "sites").shape == shape

    @pytest.mark.parametrize("a", [
        [(1, 2), (3,)], [(1, 2, 3)], [(), ()], [1, 2], [[(1, 2)]],
        np.zeros((2, 3), dtype=int), np.zeros(2, dtype=int), 7])
    def test_other_shapes_raise(self, a):
        with pytest.raises(ValueError, match="axes"):
            _integer_array(a, 2, 2, "sites")

    @pytest.mark.parametrize("a", [
        [(1, 2), (True, 2)], [(1, 2), (1.0, 2)], [(1, np.float64(2))],
        [(1, np.True_)], [(1, "2")], [(1, None)],
        np.array([(1.0, 2.0)]), np.array([(True, False)]),
        np.array([(1, 2)], dtype=object)])
    def test_non_integers_raise(self, a):
        with pytest.raises(ValueError, match="integers"):
            _integer_array(a, 2, 2, "sites")

    @pytest.mark.parametrize("bits", [32, 64])
    def test_the_signed_range_is_exact(self, bits):
        lo, hi = -2 ** (bits - 1), 2 ** (bits - 1) - 1
        got = _integer_array([(lo, hi)], 2, 2, "sites", bits=bits)
        assert got.dtype == np.dtype(f"int{bits}")
        assert got.tolist() == [[lo, hi]]
        for a in ([(lo - 1, 0)], [(0, hi + 1)],
                  np.array([(0, hi + 1)], dtype=np.uint64)):
            with pytest.raises(ValueError, match=f"fit in {bits} bits"):
                _integer_array(a, 2, 2, "sites", bits=bits)

    def test_label_rows_keep_their_messages(self):
        assert _label_rows([LABEL]).tolist() == [[1, 0, 0, 1, 2]]
        assert _label_rows([]).shape == (0, 5)
        with pytest.raises(ValueError, match="fit in 32 bits"):
            _label_rows([FieldLabel(1, (0, 0), (2 ** 31, 1))])
        with pytest.raises(ValueError, match="integers"):
            _label_rows([FieldLabel(1, (0, 0), (1.5, 1))])
