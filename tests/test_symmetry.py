"""Symmetry group, orbit enumeration, and canonical form tests."""

import itertools
import math
import random

import pytest

import oracles
from rookgon import (
    GroupTooLarge,
    SymmetryGroup,
    canonical_divisor_form,
    complete_graph,
    iter_degree_vectors,
    iter_orbit_min_vectors,
    rook_certificate_divisor,
    rook_graph,
    rook_symmetry,
)
from rookgon.symmetry import _iter_canonical_explicit

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
    assert rook_symmetry([2, 3]).order() == 2 * 6
    assert rook_symmetry([2, 2]).order() == 2 * 2 * 2
    assert rook_symmetry([3, 3]).order() == 6 * 6 * 2
    assert rook_symmetry([2, 2, 2]).order() == 8 * 6
    assert rook_symmetry([4, 4]).order() == 24 * 24 * 2


def test_rook_symmetry_order_matches_enumeration():
    for dims in ([2, 2], [2, 3], [3, 3], [2, 2, 2]):
        sym = rook_symmetry(dims)
        els = sym.elements()
        assert len(els) == sym.order()
        assert len(set(els)) == len(els)


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
        assert len(oracles.automorphisms(g)) == rook_symmetry(dims).order()


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
    sym = rook_symmetry([2, 3])
    counts = [sum(1 for _ in iter_orbit_min_vectors(t, 6, sym))
              for t in (1, 2, 3, 4)]
    assert counts == [1, 4, 7, 16]


def test_orbit_min_vectors_counts_match_burnside():
    # orbit count == average number of vectors fixed by a group element
    sym = rook_symmetry([2, 3])
    els = sym.elements()
    for total in (1, 2, 3):
        fixed = 0
        for p in els:
            fixed += sum(1 for d in iter_degree_vectors(total, 6)
                         if tuple(d[p[i]] for i in range(6)) == d)
        want, rem = divmod(fixed, len(els))
        assert rem == 0
        got = sum(1 for _ in iter_orbit_min_vectors(total, 6, sym))
        assert got == want


def test_orbit_min_vectors_partition_all_vectors():
    sym = rook_symmetry([2, 2])
    els = sym.elements()
    for total in (1, 2, 3, 4):
        reps = list(iter_orbit_min_vectors(total, 4, sym))
        seen = set()
        for r in reps:
            orb = orbit_of(r, els)
            assert not orb & seen  # orbits are disjoint
            assert min(orb) == r   # rep is the lex-min member
            seen |= orb
        assert len(seen) == math.comb(total + 3, 3)


def test_orbit_min_vectors_stream_is_sorted():
    sym = rook_symmetry([3, 3])
    reps = list(iter_orbit_min_vectors(3, 9, sym))
    assert reps == sorted(reps)
    assert len(reps) == len(set(reps))


def test_orbit_min_vectors_size_mismatch():
    with pytest.raises(ValueError):
        list(iter_orbit_min_vectors(2, 5, rook_symmetry([2, 3])))


# ======================================================================
# canonical form
# ======================================================================

def test_canonical_form_is_orbit_minimum():
    rng = random.Random(4201)
    sym = rook_symmetry([2, 3])
    els = sym.elements()
    for _ in range(50):
        d = tuple(rng.randint(-2, 3) for _ in range(6))
        canon = canonical_divisor_form(d, sym)
        assert canon == min(orbit_of(d, els))


def test_canonical_form_invariant_on_orbit():
    rng = random.Random(4202)
    sym = rook_symmetry([2, 2, 2])
    els = sym.elements()
    for _ in range(20):
        d = tuple(rng.randint(0, 2) for _ in range(8))
        canon = canonical_divisor_form(d, sym)
        for p in rng.sample(els, 5):
            img = tuple(d[p[i]] for i in range(8))
            assert canonical_divisor_form(img, sym) == canon


def test_canonical_form_idempotent():
    rng = random.Random(4203)
    sym = rook_symmetry([3, 3])
    for _ in range(30):
        d = tuple(rng.randint(-1, 2) for _ in range(9))
        canon = canonical_divisor_form(d, sym)
        assert canonical_divisor_form(canon, sym) == canon


def test_canonical_form_explicit_group_path():
    # a group without dims exercises the explicit-enumeration branch
    sym_dims = rook_symmetry([2, 3])
    sym_plain = SymmetryGroup(sym_dims.generators, 6)
    rng = random.Random(4204)
    for _ in range(40):
        d = tuple(rng.randint(-2, 3) for _ in range(6))
        assert canonical_divisor_form(d, sym_plain) == \
            canonical_divisor_form(d, sym_dims)


def test_canonical_form_length_mismatch():
    with pytest.raises(ValueError):
        canonical_divisor_form((1, 2), rook_symmetry([2, 2]))


def test_canonical_form_large_group_backtracking():
    # (6,6) has a 1,036,800-element group; the dims-aware canonical form
    # must work without enumerating it
    sym = rook_symmetry([6, 6])
    d = tuple(1 if v % 7 == 0 else 0 for v in range(36))
    canon = canonical_divisor_form(d, sym)
    assert sorted(canon) == sorted(d)
    assert canonical_divisor_form(canon, sym) == canon
    # spot check: a few hand-applied symmetries never go below the canon
    g = rook_graph([6, 6])
    row_swap = tuple(g.label_to_index(((1, 0, 2, 3, 4, 5)[r], c))
                     for r, c in g.labels())
    transpose = tuple(g.label_to_index((c, r)) for r, c in g.labels())
    for p in (row_swap, transpose):
        assert oracles.is_automorphism(g, p)
        img = tuple(d[p[i]] for i in range(36))
        assert canonical_divisor_form(img, sym) == canon
        assert not img < canon


# ======================================================================
# the product-structured engine against the explicit closure
# ======================================================================

def test_engine_orbit_stream_matches_explicit_closure():
    for dims in ENGINE_DIMS:
        sym = rook_symmetry(dims)
        els = sym.elements()
        for total in range(9):
            assert list(iter_orbit_min_vectors(total, sym.n, sym)) == \
                list(_iter_canonical_explicit(total, sym.n, els)), (dims, total)


def test_engine_canonical_form_matches_brute_force():
    rng = random.Random(4205)
    for dims in ENGINE_DIMS:
        sym = rook_symmetry(dims)
        els = sym.elements()
        for _ in range(12):
            d = tuple(rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(sym.n))
            assert canonical_divisor_form(d, sym) == min(orbit_of(d, els)), \
                (dims, d)


def test_hand_built_group_streams_match_rook_engine():
    # without dims the stream runs on the explicit closure
    rook = rook_symmetry([2, 3])
    plain = SymmetryGroup(rook.generators, 6)
    for total in range(5):
        assert list(iter_orbit_min_vectors(total, 6, plain)) == \
            list(iter_orbit_min_vectors(total, 6, rook))


def test_rook_paths_never_list_the_group(monkeypatch):
    # the 6x6 group has 1,036,800 elements, past the explicit closure cap
    def listed(self, *args, **kwargs):
        raise AssertionError("elements() called on a rook group")

    monkeypatch.setattr(SymmetryGroup, "elements", listed)
    sym = rook_symmetry([6, 6])
    cert = rook_certificate_divisor([6, 6])
    assert sum(1 for _ in iter_orbit_min_vectors(2, 36, sym)) == 3
    assert canonical_divisor_form(cert, sym) == tuple(cert)
