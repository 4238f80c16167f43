"""Gonality search, certificates, and the slice report."""

import math
import random

import pytest

import oracles
from rookgon import (
    MultiGraph,
    complete_graph,
    default_degree_cap,
    k_gonality,
    poorest_slice_chips,
    rank_at_least,
    rook_certificate_divisor,
    rook_graph,
    verify_rank_at_least,
)
from rookgon.gonality import _rook_gonality


def gon(dims, k=1, **kw):
    return k_gonality(rook_graph(dims), k=k, symmetry=True, **kw)


# ======================================================================
# small exact values
# ======================================================================

def test_gonality_2x2():
    res = gon([2, 2])
    assert res.value == 2
    assert res.witness == [0, 0, 0, 2]
    assert res.exhaustive
    assert res.refuted_degrees == (1,)
    assert res.orbit_counts == {1: 1}
    assert res.symmetry
    assert res.degree_cap == 2


def test_gonality_2x3():
    res = gon([2, 3])
    assert res.value == 3
    assert res.witness == [0, 0, 0, 1, 1, 1]
    assert res.exhaustive
    assert res.refuted_degrees == (1, 2)
    assert res.orbit_counts == {1: 1, 2: 4}


def test_gonality_2x4_and_3x3():
    assert gon([2, 4]).value == 4
    res = gon([3, 3])
    assert res.value == 6
    assert res.exhaustive
    assert res.refuted_degrees == (1, 2, 3, 4, 5)


def test_gonality_witness_has_the_claimed_rank():
    res = gon([3, 3])
    g = rook_graph([3, 3])
    assert rank_at_least(g, res.witness, 1)
    ok, _ = verify_rank_at_least(g, res.witness, 1)
    assert ok


def test_gonality_without_symmetry_agrees():
    for dims in ([2, 2], [2, 3], [2, 2, 2]):
        g = rook_graph(dims)
        plain = k_gonality(g)
        pruned = k_gonality(g, symmetry=True)
        assert not plain.symmetry and pruned.symmetry
        assert plain.value == pruned.value
        assert plain.exhaustive == pruned.exhaustive


def test_gonality_symmetry_on_unsorted_dims():
    # 2x3x2 is the graph 2x2x3 with its equal-size axes apart: the group
    # swaps them anyway, so both scan the same number of representatives
    for k in (1, 2):
        g = rook_graph([2, 3, 2])
        pruned = k_gonality(g, k, symmetry=True)
        plain = k_gonality(g, k)
        assert (pruned.value, pruned.witness) == (plain.value, plain.witness)
        assert pruned.orbit_counts == \
            k_gonality(rook_graph([2, 2, 3]), k, symmetry=True).orbit_counts


def test_plain_scan_counts_every_vector():
    # most vectors are refuted by one burn before any rank test; each one
    # must still be counted, and the witness stays the lex-min one
    res = k_gonality(rook_graph([3, 4]), 1)
    assert not res.symmetry
    assert res.value == 8
    assert res.witness == [0] * 8 + [2] * 4
    assert res.orbit_counts == {d: math.comb(11 + d, d) for d in range(1, 8)}


def test_plain_scan_matches_class_oracle():
    # value, lex-min witness and per-degree counts of the plain scan,
    # against the class-rank oracle run over every effective divisor in
    # lexicographic order; the last host has no dims and double edges
    hosts = [rook_graph([2, 3]), rook_graph([2, 2, 2]),
             MultiGraph([[0, 2, 1, 0, 0],
                         [2, 0, 1, 1, 0],
                         [1, 1, 0, 3, 1],
                         [0, 1, 3, 0, 2],
                         [0, 0, 1, 2, 0]])]
    for g in hosts:
        ge = oracles.class_rank_at_least(g)
        for k in (1, 2, 3):
            res = k_gonality(g, k)
            deg = k
            while True:
                witness = next((list(c) for c in oracles.effective_divisors(g.n, deg)
                                if ge(c, k)), None)
                if witness is not None:
                    break
                assert res.orbit_counts[deg] == math.comb(g.n - 1 + deg, deg)
                deg += 1
            assert (res.value, res.witness) == (deg, witness), (g.mult, k)
            assert len(res.orbit_counts) == deg - k


def test_gonality_complete_graph():
    # chips at all but one vertex of K_n move anywhere: gonality n-1
    for n in (2, 3, 4):
        res = k_gonality(complete_graph(n))
        assert res.value == n - 1


def test_higher_gonality_small():
    assert gon([2, 2], k=2).value == 3
    assert gon([2, 3], k=2).value == 5
    assert gon([2, 2], k=3).value == 4
    assert gon([2, 3], k=3).value == 6


# ======================================================================
# search controls
# ======================================================================

def test_gonality_lower_bound_skips_small_degrees():
    res = gon([2, 3], lower_bound=2)
    assert res.value == 3
    assert res.witness == [0, 0, 0, 1, 1, 1]
    assert not res.exhaustive          # degree 1 was never scanned
    assert res.refuted_degrees == (2,)
    assert res.orbit_counts == {2: 4}


def test_gonality_lower_bound_at_or_below_k_is_full():
    res = gon([2, 2], lower_bound=1)
    assert res.exhaustive
    assert res.value == 2


def test_gonality_cap_exhausted():
    res = gon([2, 3], degree_cap=2)
    assert res.value is None
    assert res.witness is None
    assert res.exhaustive
    assert res.refuted_degrees == (1, 2)
    assert res.orbit_counts == {1: 1, 2: 4}


def test_gonality_validation():
    g = rook_graph([2, 2])
    with pytest.raises(ValueError):
        k_gonality(g, k=0)
    with pytest.raises(ValueError):
        k_gonality(g, k=True)
    with pytest.raises(ValueError):
        k_gonality(g, degree_cap=0)
    with pytest.raises(ValueError):
        k_gonality(g, lower_bound=-1)
    with pytest.raises(ValueError):
        k_gonality(g, lower_bound=1.5)
    # a lower bound above the degree cap leaves nothing to scan; it used
    # to return value None as if the cap had been exhausted
    with pytest.raises(ValueError, match="above the degree cap"):
        k_gonality(g, lower_bound=100)
    with pytest.raises(ValueError, match="above the degree cap"):
        k_gonality(g, degree_cap=3, lower_bound=4)
    assert k_gonality(g, degree_cap=3, lower_bound=3).value == 3  # cap itself is scanned
    for bad in ("5", 2.9, 5.0, True, False):
        with pytest.raises(ValueError):
            k_gonality(g, degree_cap=bad)
    for bad in ("2", 2.0, True, False):
        with pytest.raises(ValueError):
            k_gonality(g, lower_bound=bad)
    with pytest.raises(TypeError):
        k_gonality(g, sym=None)  # the group hint is gone


def test_gonality_symmetry_needs_a_rook_shape():
    # symmetry is read from g.dims, and only a rook shape has the rook
    # group; any other graph is scanned plainly
    hosts = [
        complete_graph(4),                                    # dims (4,)
        MultiGraph(rook_graph([2, 3]).mult),                  # no dims
    ]
    for g in hosts:
        pruned = k_gonality(g, symmetry=True)
        plain = k_gonality(g)
        assert not pruned.symmetry
        assert pruned == plain


def test_gonality_checks_the_stream_against_burnside(monkeypatch):
    # a stream that loses one representative of a refuted degree is caught
    from rookgon import gonality

    stream = gonality.iter_orbit_min_vectors

    def lossy(total, size, dims, *prune):
        reps = list(stream(total, size, dims, *prune))
        return iter(reps[:-1] if total == 3 else reps)

    monkeypatch.setattr(gonality, "iter_orbit_min_vectors", lossy)
    for dims in ([3, 3], [2, 2, 2], [2, 2, 2, 2]):
        with pytest.raises(RuntimeError, match="degree 3"):
            gon(dims)
    monkeypatch.undo()

    # a plain scan whose prune drops one block of degree 3 without
    # counting it is caught by the stars-and-bars count
    scan = gonality._plain_scan

    def lossy_scan(g, k):
        prune, refuted = scan(g, k)
        dropped = []

        def drop_one(c, i, r):
            if not dropped and i == 2 and sum(c[:i]) + r == 3:
                dropped.append(c[:i])
                return True
            return prune(c, i, r)
        return drop_one, refuted

    monkeypatch.setattr(gonality, "_plain_scan", lossy_scan)
    with pytest.raises(RuntimeError, match="degree 3: the plain scan counted"):
        k_gonality(rook_graph([3, 3]))


@pytest.mark.parametrize("dims, k, symmetry, value, tests", [
    ([3, 4], 1, False, 8, 799),
    ([2, 5], 3, False, 10, 2809),
    ([2, 2, 3], 2, False, 9, 5846),
    ([4, 4], 1, True, 12, 37),
    ([3, 3], 2, True, 8, 21),
    ([2, 2, 3], 2, True, 9, 54),
    ([3, 3], 3, True, 9, 61),
])
def test_scan_rank_test_counts(monkeypatch, dims, k, symmetry, value, tests):
    # a plain scan drops most divisors before any rank test by block
    # refutations and the reduction of each leaf at its first poor vertex
    # after 0; an orbit scan by the reduction of each representative at
    # vertex 0.  The rank test then starts with its own reduction there
    from rookgon import gonality

    calls = 0
    full_test = gonality.rank_at_least

    def counted(g, d, k):
        nonlocal calls
        calls += 1
        return full_test(g, d, k)

    monkeypatch.setattr(gonality, "rank_at_least", counted)
    res = k_gonality(rook_graph(dims), k=k, symmetry=symmetry)
    assert res.symmetry == symmetry
    assert res.value == value
    assert calls == tests


def _random_host(rng, n):
    """A connected multigraph on n vertices with multiplicities 1 to 3."""
    mult = [[0] * n for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        mult[u][v] = mult[v][u] = rng.randint(1, 3)
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(range(n), 2)
        mult[u][v] = mult[v][u] = rng.randint(1, 3)
    return MultiGraph(mult)


def test_plain_scan_matches_the_reference_loop():
    # value, lex-min witness, refuted degrees and per-degree counts of the
    # plain scan against the plainest loop over every effective divisor
    rng = random.Random(3801)
    for _ in range(100):
        g = _random_host(rng, rng.randint(2, 7))
        for k in (1, 2, 3):
            res = k_gonality(g, k)
            want = oracles.plain_gonality(g, k, res.degree_cap)
            got = (res.value, res.witness, res.refuted_degrees, res.orbit_counts)
            assert got == want, (g.mult, k)


def test_plain_scan_drops_only_divisors_of_low_rank(monkeypatch):
    # every vector the scan does not hand to rank_at_least has rank < k;
    # the patched test answers no, so each degree up to the cap is scanned
    # whole
    from rookgon import gonality

    hosts = [rook_graph([2, 3]), rook_graph([2, 2, 2]),
             MultiGraph([[0, 2, 1, 0, 0],
                         [2, 0, 1, 3, 0],
                         [1, 1, 0, 2, 1],
                         [0, 3, 2, 0, 2],
                         [0, 0, 1, 2, 0]])]
    for g in hosts:
        ge = oracles.class_rank_at_least(g)
        for k in (1, 2, 3):
            handed = []
            monkeypatch.setattr(gonality, "rank_at_least",
                                lambda _g, d, _k: handed.append(tuple(d)) or False)
            res = k_gonality(g, k, degree_cap=k + 4)
            assert res.value is None
            handed = set(handed)
            dropped = 0
            for deg in range(k, k + 5):
                for c in oracles.effective_divisors(g.n, deg):
                    if c not in handed:
                        dropped += 1
                        assert not ge(c, k), (g.mult, c, k)
            assert dropped, (g.mult, k)


def test_default_degree_cap_values():
    assert default_degree_cap(rook_graph([2, 2]), 1) == 2
    assert default_degree_cap(rook_graph([3, 4]), 1) == 8
    assert default_degree_cap(rook_graph([3, 3]), 2) == 8
    assert default_degree_cap(rook_graph([3, 3]), 3) == 9
    g = complete_graph(3)
    assert default_degree_cap(g, 2) == g.genus() + 2
    for bad in (0, -1, True, 1.0, 2.5, "2"):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            default_degree_cap(rook_graph([3, 3]), bad)


def test_rook_gonality_matches_scanned_values():
    # values measured by exhaustive scans, and unsorted dims
    scanned = {(2, 4): (4, 7, 8), (2, 5): (5, 9, 10), (3, 4): (8, 11, 12)}
    for dims, values in scanned.items():
        assert [_rook_gonality(dims, k) for k in (1, 2, 3)] == list(values)
    for dims, value in (((2, 2, 4), 8), ((2, 3, 3), 9), ((2, 2, 2, 2), 8),
                        ((4, 3), 8), ((3, 2, 2), 6)):
        assert _rook_gonality(dims, 1) == value


def test_default_degree_cap_falls_back_exactly_where_no_closed_form():
    for dims, k in (((3, 3), 4), ((2, 4), 5), ((2, 2, 2), 2), ((2, 2, 3), 3),
                    (None, 1), ((4,), 1)):
        assert _rook_gonality(dims, k) is None
    has_form = {(2, 3): (1, 2, 3), (3, 3): (1, 2, 3), (2, 2, 2): (1,)}
    hosts = [rook_graph([2, 3]), rook_graph([3, 3]), rook_graph([2, 2, 2]),
             complete_graph(4), MultiGraph([[0, 2], [2, 0]])]
    for g in hosts:
        for k in range(1, 6):
            form = _rook_gonality(g.dims, k)
            assert (form is not None) == (k in has_form.get(g.dims, ()))
            want = g.genus() + k if form is None else form
            assert default_degree_cap(g, k) == want


def test_default_degree_cap_above_the_vertex_count():
    # genus + k, not n + genus: a tree has rank deg, so k chips suffice
    # even when k exceeds the vertex count
    k2 = complete_graph(2)
    p3 = MultiGraph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    for g, k, witness in ((k2, 3, [0, 3]), (p3, 4, [0, 0, 4])):
        res = k_gonality(g, k=k)
        assert res.degree_cap == k
        assert (res.value, res.witness, res.refuted_degrees) == (k, witness, ())
    # the scan stops at its first witness, so the lower cap moves no result
    g = complete_graph(4)   # genus 3
    new, old = k_gonality(g, k=2), k_gonality(g, k=2, degree_cap=g.n + g.genus())
    assert (new.degree_cap, old.degree_cap) == (5, 7)
    assert ((new.value, new.witness, new.refuted_degrees, new.orbit_counts)
            == (old.value, old.witness, old.refuted_degrees, old.orbit_counts))


# ======================================================================
# certificates
# ======================================================================

def test_certificate_shape_rank1():
    assert rook_certificate_divisor([2, 3]) == [0, 0, 0, 1, 1, 1]
    assert rook_certificate_divisor([3, 3]) == [0, 0, 0, 1, 1, 1, 1, 1, 1]
    cert = rook_certificate_divisor([3, 4])
    assert sum(cert) == 8                         # (3-1)*4
    cert3d = rook_certificate_divisor([2, 2, 2])
    assert sum(cert3d) == 4


def test_certificate_empty_copy_is_smallest_factor():
    # a zeroed copy of everything-but-the-smallest-factor
    g = rook_graph([3, 4])
    cert = rook_certificate_divisor([3, 4])
    zeros = [v for v, c in enumerate(cert) if c == 0]
    assert len(zeros) == 4
    coords = {g.vertex_label(v) for v in zeros}
    assert coords == {(0, c) for c in range(4)}


def test_certificate_shape_rank3():
    assert rook_certificate_divisor([2, 3], k=3) == [1] * 6


def test_certificate_validation():
    with pytest.raises(ValueError):
        rook_certificate_divisor([5])
    with pytest.raises(ValueError):
        rook_certificate_divisor([1, 3])
    with pytest.raises(ValueError):
        rook_certificate_divisor([3, 3], k=2)
    for k in (True, 1.0, 3.0, 0, -1):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            rook_certificate_divisor([3, 3], k=k)
    # int() coercion used to build a 2x3 certificate from the first two
    for dims in ((2.5, 3), ("2", "3"), (2, True)):
        with pytest.raises(ValueError):
            rook_certificate_divisor(dims)


def test_certificates_verify():
    for dims in ([2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 3]):
        g = rook_graph(dims)
        ok, bad = verify_rank_at_least(g, rook_certificate_divisor(dims), 1)
        assert ok, f"rank-1 certificate failed on {dims}: {bad}"
    for dims in ([2, 2], [2, 3], [3, 3]):
        g = rook_graph(dims)
        ok, bad = verify_rank_at_least(
            g, rook_certificate_divisor(dims, k=3), 3)
        assert ok, f"all-ones rank-3 certificate failed on {dims}: {bad}"


def test_certificate_matches_gonality_value():
    for dims in ([2, 2], [2, 3], [3, 3]):
        assert sum(rook_certificate_divisor(dims)) == gon(dims).value


# ======================================================================
# slice report
# ======================================================================

def test_poorest_slice_chips():
    g = rook_graph([2, 3])
    assert poorest_slice_chips(g, [0, 0, 0, 1, 1, 1]) == {
        "poorest_row_chips": 0,
        "poorest_column_chips": 1,
    }
    assert poorest_slice_chips(complete_graph(4), [1, 1, 1, 1]) is None
    assert poorest_slice_chips(rook_graph([2, 2, 2]), [0] * 8) is None
    with pytest.raises(ValueError):
        poorest_slice_chips(g, [0, 0, 0])
