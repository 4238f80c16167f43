"""Gonality search, certificates, and the slice report."""

import pytest

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


def test_default_degree_cap_values():
    assert default_degree_cap(rook_graph([2, 2]), 1) == 2
    assert default_degree_cap(rook_graph([3, 4]), 1) == 8
    assert default_degree_cap(rook_graph([3, 3]), 2) == 8
    assert default_degree_cap(rook_graph([3, 3]), 3) == 9
    g = complete_graph(3)
    assert default_degree_cap(g, 2) == g.n + g.genus()


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
