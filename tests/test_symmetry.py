"""Symmetry group closure and orbit enumeration tests."""

import itertools
import math
import random

import pytest

import oracles
from rookgon import (
    GroupTooLarge,
    SymmetryGroup,
    iter_degree_vectors,
    iter_orbit_min_vectors,
    rook_graph,
    rook_symmetry,
)
from rookgon.symmetry import _is_min_image, _iter_canonical_explicit, _rook_shape

# every rook host whose group the explicit closure lists quickly (at most
# 1,152 elements); the closure is the oracle for the product engine
ENGINE_DIMS = ([2, 2], [2, 3], [3, 3], [2, 4], [3, 4], [4, 4],
               [2, 2, 2], [2, 2, 3], [2, 3, 3])


def orbit_of(d, elements):
    return {tuple(d[p[i]] for i in range(len(d))) for p in elements}


# ======================================================================
# group construction
# ======================================================================

def test_rook_symmetry_orders():
    # factor permutations, plus swaps of equal-sized factors
    assert len(rook_symmetry([2, 3]).elements()) == 2 * 6
    assert len(rook_symmetry([2, 2]).elements()) == 2 * 2 * 2
    assert len(rook_symmetry([3, 3]).elements()) == 6 * 6 * 2
    assert len(rook_symmetry([2, 2, 2]).elements()) == 8 * 6
    assert len(rook_symmetry([4, 4]).elements()) == 24 * 24 * 2


def test_rook_symmetry_rejects_non_integer_dims():
    # int() coercion used to build the 2x3 group from the first two
    for dims in ((2.5, 3), ("2", "3"), (2, True)):
        with pytest.raises(ValueError):
            rook_symmetry(dims)


def test_rook_symmetry_order_matches_enumeration():
    for dims in ([2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 3], [2, 3, 3]):
        order = math.prod(math.factorial(d) for d in dims)
        for _, run in itertools.groupby(dims):
            order *= math.factorial(len(list(run)))
        assert len(rook_symmetry(dims).elements()) == order


def test_rook_symmetry_generators_are_automorphisms():
    for dims in ([2, 3], [3, 3], [2, 2, 3]):
        g = rook_graph(dims)
        sym = rook_symmetry(dims)
        for p in sym.generators:
            assert oracles.is_automorphism(g, p)


def test_rook_symmetry_elements_are_automorphisms():
    g = rook_graph([2, 3])
    for p in rook_symmetry([2, 3]).elements():
        assert oracles.is_automorphism(g, p)


def test_rook_symmetry_is_full_automorphism_group_small():
    # on these hosts the brute-force automorphism count matches
    for dims in ([2, 2], [2, 3]):
        g = rook_graph(dims)
        assert len(oracles.automorphisms(g)) == len(rook_symmetry(dims).elements())


def test_symmetry_group_closure():
    sym = rook_symmetry([2, 2])
    els = set(sym.elements())
    for p, q in itertools.product(els, repeat=2):
        assert tuple(p[q[i]] for i in range(4)) in els


def test_symmetry_group_rejects_non_permutation():
    with pytest.raises(ValueError):
        SymmetryGroup([(0, 0, 1)], 3)


def test_group_too_large():
    # full symmetric group on 12 points: 479 million elements
    cycle = tuple(range(1, 12)) + (0,)
    swap = (1, 0) + tuple(range(2, 12))
    sym = SymmetryGroup([cycle, swap], 12)
    with pytest.raises(GroupTooLarge):
        sym.elements(limit=10000)


# ======================================================================
# degree vector enumeration
# ======================================================================

def test_iter_degree_vectors_counts():
    for total, size in [(0, 3), (1, 4), (3, 4), (4, 6), (5, 2)]:
        vecs = list(iter_degree_vectors(total, size))
        assert len(vecs) == math.comb(total + size - 1, size - 1)
        assert all(len(v) == size and sum(v) == total for v in vecs)
        assert all(min(v) >= 0 for v in vecs)
        assert len(set(vecs)) == len(vecs)
        assert vecs == sorted(vecs)  # ascending lexicographic


def test_iter_degree_vectors_validation():
    with pytest.raises(ValueError):
        list(iter_degree_vectors(1, 0))
    with pytest.raises(ValueError):
        list(iter_degree_vectors(-1, 2))


def test_orbit_min_vectors_no_group():
    assert list(iter_orbit_min_vectors(2, 3, None)) == \
        list(iter_degree_vectors(2, 3))


def test_orbit_min_vectors_counts_2x3():
    counts = [sum(1 for _ in iter_orbit_min_vectors(t, 6, (2, 3)))
              for t in (1, 2, 3, 4)]
    assert counts == [1, 4, 7, 16]


def test_orbit_min_vectors_counts_match_burnside():
    # the stream yields one vector per orbit.  The oracle itself matches a
    # direct fixed-point count on 2x3 and the frozen 4x4 gonality counts.
    els = rook_symmetry([2, 3]).elements()
    for total in (1, 2, 3):
        fixed = sum(1 for p in els for d in iter_degree_vectors(total, 6)
                    if tuple(d[p[i]] for i in range(6)) == d)
        assert oracles.burnside_orbit_count(els, 6, total) * len(els) == fixed
    els = rook_symmetry([4, 4]).elements()
    assert [oracles.burnside_orbit_count(els, 16, t) for t in range(1, 12)] == \
        [1, 3, 7, 21, 47, 128, 303, 754, 1735, 3989, 8712]
    # 2x3x3 up to degree 8 is matched against the explicit closure below
    for dims, degrees in (([2, 3], range(7)), ([3, 4], range(13)),
                          ([2, 5], range(13)), ([2, 3, 3], (9,))):
        n = math.prod(dims)
        els = rook_symmetry(dims).elements()
        for total in degrees:
            got = sum(1 for _ in iter_orbit_min_vectors(total, n, dims))
            assert got == oracles.burnside_orbit_count(els, n, total), \
                (dims, total)


def test_orbit_min_vectors_partition_all_vectors():
    els = rook_symmetry([2, 2]).elements()
    for total in (1, 2, 3, 4):
        reps = list(iter_orbit_min_vectors(total, 4, (2, 2)))
        seen = set()
        for r in reps:
            orb = orbit_of(r, els)
            assert not orb & seen  # orbits are disjoint
            assert min(orb) == r   # rep is the lex-min member
            seen |= orb
        assert len(seen) == math.comb(total + 3, 3)


def test_orbit_min_vectors_stream_is_sorted():
    reps = list(iter_orbit_min_vectors(3, 9, (3, 3)))
    assert reps == sorted(reps)
    assert len(reps) == len(set(reps))


def test_orbit_min_vectors_size_mismatch():
    with pytest.raises(ValueError):
        list(iter_orbit_min_vectors(2, 5, (2, 3)))
    with pytest.raises(ValueError):
        list(iter_orbit_min_vectors(2, 8, [2, 2]))


def test_orbit_min_vectors_rejects_non_rook_dims():
    # a single factor is a complete graph, and a factor of size 1 adds no
    # edges: neither is a rook shape, so the engine refuses them
    for dims, size in (((5,), 5), ((1, 3), 3), ((2, 1), 2), ((), 1)):
        with pytest.raises(ValueError):
            list(iter_orbit_min_vectors(1, size, dims))


# ======================================================================
# the product-structured engine against the explicit closure
# ======================================================================

def test_engine_orbit_stream_matches_explicit_closure():
    for dims in ENGINE_DIMS:
        n = math.prod(dims)
        els = rook_symmetry(dims).elements()
        for total in range(9):
            assert list(iter_orbit_min_vectors(total, n, dims)) == \
                list(_iter_canonical_explicit(total, n, els)), (dims, total)


def test_leaf_test_matches_orbit_minimum():
    # the exact leaf test alone, without the orderly search's prune set.
    # Entries come from a small random palette up to 9, so sums go far
    # past the degree-8 stream above, and half the vectors are orbit
    # minima or one swap away from one, so fibers tie often.
    rng = random.Random(8)
    for dims in ENGINE_DIMS:
        n = math.prod(dims)
        els = rook_symmetry(dims).elements()
        shape = _rook_shape(tuple(dims))
        for trial in range(300):
            palette = rng.sample(range(10), rng.randint(1, 4))
            x = tuple(rng.choice(palette) for _ in range(n))
            if trial % 2:
                x = list(min(orbit_of(x, els)))
                if trial % 4 == 3:
                    i, j = rng.sample(range(n), 2)
                    x[i], x[j] = x[j], x[i]
                x = tuple(x)
            assert _is_min_image(shape, x) == (x == min(orbit_of(x, els))), \
                (dims, x)


def test_rook_paths_never_list_the_group(monkeypatch):
    # the 6x6 group has 1,036,800 elements, past the explicit closure cap
    def listed(self, *args, **kwargs):
        raise AssertionError("elements() called on a rook group")

    monkeypatch.setattr(SymmetryGroup, "elements", listed)
    assert sum(1 for _ in iter_orbit_min_vectors(2, 36, (6, 6))) == 3
