"""Symmetry group closure and orbit enumeration tests."""

import itertools
import math
import random
from collections import Counter
from operator import itemgetter

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
from rookgon.symmetry import (
    _iter_canonical_explicit,
    _rook_shape,
    _RowLeafTest,
    orbit_count,
)

# rook hosts whose group the explicit closure lists quickly (at most
# 1,296 elements), each with the top degree of its stream check; the
# closure is the oracle for the product engine.  Two, three and four
# factors, with one and two outer axes of size 3, and 2x3x2, whose
# equal-size axes are apart.
ENGINE_DIMS = (([2, 2], 8), ([2, 3], 8), ([3, 3], 8), ([2, 4], 8),
               ([3, 4], 8), ([4, 4], 8), ([2, 2, 2], 8), ([2, 2, 3], 8),
               ([2, 3, 3], 8), ([2, 3, 2], 6), ([2, 2, 2, 2], 6), ([3, 3, 3], 4))


def orbit_of(d, elements):
    return {tuple(map(d.__getitem__, p)) for p in elements}


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
    # prod d_i! times, per size, the factorial of the number of axes of
    # that size, wherever they stand
    for dims in ([2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 3], [2, 3, 3],
                 [2, 3, 2], [3, 2, 3]):
        order = math.prod(math.factorial(d) for d in dims)
        order *= math.prod(map(math.factorial, Counter(dims).values()))
        assert len(rook_symmetry(dims).elements()) == order


def test_rook_symmetry_generators_are_automorphisms():
    for dims in ([2, 3], [3, 3], [2, 2, 3], [2, 3, 2], [3, 2, 3]):
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


def test_iter_degree_vectors_match_the_oracle():
    for total in range(7):
        for size in range(1, 8):
            assert list(iter_degree_vectors(total, size)) == \
                list(oracles.effective_divisors(size, total)), (total, size)


def test_iter_degree_vectors_validation():
    # the length is a positive int: True used to yield (2,), and 1.5 and
    # "3" raised TypeError
    for size in (0, -1, True, 1.5, "3", None):
        with pytest.raises(ValueError):
            list(iter_degree_vectors(2, size))
    # a degree is a nonnegative int: 1.5 used to yield (0, 1.5), (1, 0.5)
    for total in (-1, 1.5, True, "2"):
        with pytest.raises(ValueError):
            list(iter_degree_vectors(total, 2))


def test_orbit_min_vectors_no_group():
    assert list(iter_orbit_min_vectors(2, 3, None)) == \
        list(iter_degree_vectors(2, 3))


def test_orbit_min_vectors_prune_drops_whole_prefixes():
    # a prune that keeps everything gives the plain stream; one that drops
    # the prefix (1,) removes exactly the vectors starting with 1, and it
    # sees each prefix once with the chips left for the open positions
    for total, size in ((0, 1), (3, 1), (4, 3), (5, 4)):
        assert list(iter_orbit_min_vectors(total, size, None, lambda c, i, r: False)) \
            == list(iter_degree_vectors(total, size))
    seen = []

    def drop_ones(c, i, r):
        seen.append((tuple(c[:i]), r))
        assert sum(c[:i]) + r == 4
        return c[:i] == [1]

    got = list(iter_orbit_min_vectors(4, 3, None, drop_ones))
    assert got == [c for c in iter_degree_vectors(4, 3) if c[0] != 1]
    assert len(seen) == len(set(seen))
    with pytest.raises(ValueError, match="needs the plain stream"):
        list(iter_orbit_min_vectors(2, 6, (2, 3), lambda c, i, r: False))
    with pytest.raises(ValueError):
        list(iter_orbit_min_vectors(2, 0, None, lambda c, i, r: False))


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
                          ([2, 5], range(13)), ([4, 5], range(11)),
                          ([2, 3, 3], (9,))):
        n = math.prod(dims)
        els = rook_symmetry(dims).elements()
        for total in degrees:
            got = sum(1 for _ in iter_orbit_min_vectors(total, n, dims))
            assert got == oracles.burnside_orbit_count(els, n, total), \
                (dims, total)


def test_orbit_count_matches_listed_group():
    # the sum over axis orders and cycle types against Burnside over
    # every listed element, on two, three and four factors
    for dims, top in (([2, 2], 12), ([2, 3], 12), ([3, 3], 12), ([3, 4], 12),
                      ([2, 5], 12), ([4, 4], 12), ([2, 2, 2], 10), ([2, 2, 3], 9),
                      ([2, 3, 3], 8), ([2, 3, 2], 6), ([2, 2, 2, 2], 6),
                      ([3, 3, 3], 4)):
        n = math.prod(dims)
        els = rook_symmetry(dims).elements()
        for total in range(top + 1):
            assert orbit_count(dims, total) == \
                oracles.burnside_orbit_count(els, n, total), (dims, total)
    # the group swaps equal-size axes wherever they stand, so every
    # ordering of the same sizes has the same orbits
    assert [orbit_count((2, 2, 3), t) for t in range(2, 6)] == [6, 15, 52, 128]
    for orderings in (((2, 3, 2), (3, 2, 2), (2, 2, 3)), ((3, 2, 3), (2, 3, 3)),
                      ((2, 3, 2, 3), (2, 2, 3, 3))):
        counts = {dims: [orbit_count(dims, t) for t in range(7)] for dims in orderings}
        assert len(set(map(tuple, counts.values()))) == 1, counts
    # the 4x5 degree-14 and 5x5 degree-18/19 level sizes
    assert orbit_count((4, 5), 14) == 361_716
    assert orbit_count((5, 5), 18) == 14_197_066
    assert orbit_count((5, 5), 19) == 31_395_053
    for dims in ((5,), (1, 3)):
        with pytest.raises(ValueError):
            orbit_count(dims, 3)
    # -1 used to count 1 orbit and -2 to raise IndexError; float dims
    # and degrees raised TypeError
    for dims, total in (((2, 2), -1), ((3, 4), -2), ((2.0, 2), 1),
                        ((2, 2), 1.5), ((2, 2), True)):
        with pytest.raises(ValueError):
            orbit_count(dims, total)


def test_orbit_min_vectors_partition_all_vectors():
    # brute force over the closed group, sharing no code with the walk
    # that both the engine and _iter_canonical_explicit run through
    for dims, top in (([2, 2], 4), ([2, 3], 4), ([3, 3], 4), ([2, 2, 2], 4),
                      ([2, 2, 3], 4), ([4, 4], 3)):
        n = math.prod(dims)
        els = rook_symmetry(dims).elements()
        for total in range(1, top + 1):
            seen = set()
            for r in iter_orbit_min_vectors(total, n, dims):
                orb = orbit_of(r, els)
                assert not orb & seen, (dims, r)  # orbits are disjoint
                assert min(orb) == r, (dims, r)   # rep is the lex-min member
                # the group is vertex-transitive, so the rep's smallest
                # entry sits at vertex 0
                assert r[0] == min(r), (dims, r)
                seen |= orb
            assert len(seen) == math.comb(total + n - 1, n - 1), (dims, total)


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
    # dims that are not ints, and degrees that are not nonnegative ints,
    # with or without dims (-1 used to yield nothing and True (0, 0, 0, 1))
    for total, size, dims in ((2, 4, (2.0, 2)), (2, 4, (2, True)),
                              (-1, 4, (2, 2)), (True, 4, (2, 2)),
                              (1.5, 4, (2, 2)), (-1, 4, None), (1.5, 4, None),
                              (-1, 8, (2, 2, 2))):
        with pytest.raises(ValueError):
            list(iter_orbit_min_vectors(total, size, dims))


# ======================================================================
# the product-structured engine against the explicit closure
# ======================================================================

def test_engine_orbit_stream_matches_explicit_closure():
    for dims, top in ENGINE_DIMS:
        n = math.prod(dims)
        els = rook_symmetry(dims).elements()
        for total in range(top + 1):
            reps = list(iter_orbit_min_vectors(total, n, dims))
            assert reps == list(_iter_canonical_explicit(total, n, els)), (dims, total)
            # the group is vertex-transitive, so a lex-min representative
            # has its fewest chips at vertex 0, where the gonality scan
            # refutes it
            assert all(c[0] == min(c) for c in reps), (dims, total)


def test_leaf_test_matches_orbit_minimum():
    # the exact leaf test alone, without the orderly search's prune set.
    # Entries come from a small random palette up to 9, so sums go far
    # past the streams above, and half the vectors are orbit
    # minima or one swap away from one, so fibers tie often.
    rng = random.Random(8)
    for dims, _ in ENGINE_DIMS:
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
            assert shape.leaf_test(sum(x))(x) == (x == min(orbit_of(x, els))), \
                (dims, x)


def _composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _column_class(cols, first):
    """-1 if some column sorts below ``first``, else 0 if one ties it,
    else 1."""
    cols = [sorted(col) for col in cols]
    return -1 if min(cols) < first else 0 if first in cols else 1


def test_row_leaf_test_keeps_prefix_state_across_vectors():
    # one tester per host sees vectors in ascending order, as the orbit
    # stream gives them, and then shuffled.  Vectors come in groups that
    # share their first n-1 rows (a random vector's, or an orbit
    # minimum's, so prefixes are both rejected and accepted), and each
    # group holds pairs that differ only in the last row.  In every
    # third group the last row reorders a prefix row, so it ties where
    # that row did and the search runs past it.  On square hosts each
    # group also holds last rows that put one column below row 0, tied
    # with it, or above it once sorted, and each of the three runs with
    # a prefix the row search kept.
    rng = random.Random(16)
    for dims, total, groups in (([3, 3], 9, 90), ([3, 4], 8, 90), ([4, 4], 8, 90),
                                ([2, 5], 8, 90), ([5, 5], 10, 12)):
        n = math.prod(dims)
        m = dims[-1]
        cut = n - m
        square = dims[0] == m
        getters = [itemgetter(*p) for p in rook_symmetry(dims).elements()]

        def orbit_min(x):
            return min(g(x) for g in getters)

        vecs = set()
        for group in range(groups):
            if group % 3 == 2:
                share = total // 2 if cut == m else rng.randint(0, total // 2)
                row = _composition(rng, share, m)
                x = _composition(rng, total - 2 * share, cut - m) if cut > m else []
                at = m * rng.randint(0, len(x) // m)
                x = x[:at] + row + x[at:] + rng.sample(row, m)
            else:
                x = _composition(rng, total, n)
            if group % 2:
                x = list(orbit_min(x))
            prefix = x[:cut]
            last = x[cut:]
            vecs.add(tuple(x))
            vecs.add(tuple(prefix + last[::-1]))
            for _ in range(4):
                vecs.add(tuple(prefix + _composition(rng, total - sum(prefix), m)))
            if square:
                # one last row for each class its entry v in column j
                # gives, the largest such v, so v = rem (the rest 0) is one
                rem = total - sum(prefix)
                j = rng.randrange(m)
                by_class = {}
                for v in range(rem, -1, -1):
                    rest = _composition(rng, rem - v, m - 1)
                    y = prefix + rest[:j] + [v] + rest[j:]
                    by_class.setdefault(_column_class([prefix[j::m] + [v]], x[:m]), y)
                vecs.update(map(tuple, by_class.values()))
        if square:
            # total/m on the antidiagonal: the tying entry is the last row's sum
            vecs.add(tuple(total // m if i + j == m - 1 else 0
                           for i in range(m) for j in range(m)))
        expected = {x: x == orbit_min(x) for x in vecs}
        ordered = sorted(vecs)
        shuffled = ordered[:]
        rng.shuffle(shuffled)
        test = _RowLeafTest(_rook_shape(tuple(dims)), total)
        after_rejected = 0
        classes = set()
        for x in ordered + shuffled:
            shared = list(x[:cut]) == test.prefix and test.nodes is None
            assert test.accepts(list(x)) == expected[x], (dims, x)
            after_rejected += shared
            if square and test.nodes is not None:
                classes.add(_column_class([list(x[j::m]) for j in range(m)], list(x[:m])))
        assert after_rejected >= 10, dims
        assert 0 < sum(expected.values()) < len(vecs), dims
        if square:
            assert classes == {-1, 0, 1}, dims


def test_rook_paths_never_list_the_group(monkeypatch):
    # the 6x6 group has 1,036,800 elements, past the explicit closure cap
    def listed(self, *args, **kwargs):
        raise AssertionError("elements() called on a rook group")

    monkeypatch.setattr(SymmetryGroup, "elements", listed)
    assert sum(1 for _ in iter_orbit_min_vectors(2, 36, (6, 6))) == 3
    # nor the outer relabelings: on two factors they would be n! fiber
    # orders (40,320 on 8x8), and the row tester needs none
    assert _rook_shape((8, 8)).orders == ()


def test_prune_set_sizes():
    # two factors: the moves under the identity axis order plus the bare
    # transpose; three or more: the moves under every axis order
    sizes = {(4, 5): 19, (4, 4): 16, (5, 5): 25, (2, 2, 2, 3): 143, (3, 3, 3): 161}
    for dims, size in sizes.items():
        assert len(_rook_shape(dims).prune) == size, dims


def test_outer_relabelings_are_listed_only_below_the_limit():
    assert sum(map(len, _rook_shape((4, 4, 4)).orders)) == 576
    for dims in ((6, 6, 6), (2, 6, 6, 2)):
        with pytest.raises(ValueError, match="outer relabelings"):
            next(iter_orbit_min_vectors(1, math.prod(dims), dims))
