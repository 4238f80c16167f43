"""Scramble tests: hitting numbers, egg cuts, orders, constructions."""

import dataclasses
import itertools
import math
import random

import pytest

import oracles
from rookgon import (
    MultiGraph,
    Scramble,
    connected_subsets,
    cube_diagonal_avoidance,
    cut_weight,
    egg_cut_floor,
    exhaustive_cut_bound_check,
    hitting_number,
    induced_components,
    is_connected_subset,
    min_egg_cut,
    min_side_cut_floor,
    rook_graph,
    scramble_from_json,
    scramble_order,
    scramble_to_json,
    square_augmented_scramble,
    staircase_avoidance,
    star_scramble,
    uniform_scramble,
)
from rookgon.scrambles import _max_induced_edges


def check_order_report(s, rep):
    """Structural checks every order report must satisfy."""
    host = s.host
    hit = set(rep.hitting_set)
    avoid = set(rep.max_avoidance)
    assert hit | avoid == set(range(host.n))
    assert not hit & avoid
    assert rep.hitting_number == len(hit)
    for egg in s.eggs:
        assert hit & set(egg), f"egg {egg} missed"
        assert not set(egg) <= avoid
    if rep.min_egg_cut is None:
        assert rep.order == rep.hitting_number
    else:
        assert rep.order == min(rep.hitting_number, rep.min_egg_cut)
    if rep.cut_exact and rep.cut_pair is not None:
        a, b = rep.cut_pair
        assert not set(a) & set(b)
        side = set(rep.cut_side)
        assert set(a) <= side and not set(b) & side
        assert cut_weight(host, side) == rep.min_egg_cut


def _dimless_square():
    """The 4-cycle built directly, so it carries no dims and no cut floor."""
    return MultiGraph([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])


# ======================================================================
# construction and validation
# ======================================================================

def test_scramble_normalizes_eggs():
    g = rook_graph([2, 2])
    s = Scramble(g, [[1, 0], [0, 1], (2,), [3, 2, 2]])
    assert s.eggs == ((0, 1), (2,), (2, 3))


def test_scramble_rejects_bad_vertices():
    g = rook_graph([2, 2])
    with pytest.raises(ValueError):
        Scramble(g, [[0, 4]])
    with pytest.raises(ValueError):
        Scramble(g, [[0, True]])


def test_scramble_rejects_malformed_eggs():
    g = rook_graph([2, 3])
    for eggs in ([[0, 1], 5], [[0, "x"]], [[0, None]], [[0, [1]]], ["01"]):
        with pytest.raises(ValueError):
            Scramble(g, eggs)
        with pytest.raises(ValueError):
            scramble_from_json({"host": [2, 3], "eggs": eggs})
    with pytest.raises(ValueError):
        scramble_from_json({"host": [2, 3], "eggs": [[0, 1], (3, 4)]})


def test_scramble_hints_stay_private():
    # The hints promise that the eggs are every connected subset of one
    # size, which sends the hitting number through the grid DP.  Only the
    # family constructors may make that promise.  Taken on trust, the hint
    # gave hitting number 4 for the single egg {0, 1} and order 3 (true
    # order 2) for two disjoint 2-eggs: an overestimated lower bound.
    g = rook_graph([2, 3])
    with pytest.raises(TypeError):
        Scramble(g, [[0, 1]], uniform_size=2)
    one = Scramble(g, [[0, 1]])
    with pytest.raises(AttributeError):
        one.uniform_size = 2
    assert one.uniform_size is None and not one.with_squares
    assert hitting_number(one)[0] == 1
    two = scramble_from_json(
        {"host": [2, 3], "eggs": [[0, 1], [3, 4]], "uniform_size": 3})
    assert two.uniform_size is None
    rep = scramble_order(two)
    assert (rep.hitting_number, rep.min_egg_cut, rep.order) == (2, 3, 2)


def test_scramble_constructor_reports_problems():
    g = rook_graph([2, 3])
    ok = Scramble(g, [[0, 1], [3]])
    assert ok.eggs == ((0, 1), (3,))
    with pytest.raises(ValueError) as err:
        Scramble(g, [[0, 4]])            # a diagonal pair: disconnected
    assert str(err.value) == "invalid scramble: egg 0 is not connected: [0, 4]"
    with pytest.raises(ValueError) as err:
        Scramble(rook_graph([2, 2]), [[], [0]])
    assert str(err.value) == "invalid scramble: egg 0 is empty"


def test_scramble_constructor_matches_is_connected_subset():
    # construction rejects exactly the eggs that is_connected_subset and
    # the brute-force oracle reject, with the same messages, on connected
    # and disconnected eggs
    rng = random.Random(11)
    hosts = [rook_graph([3, 4]), rook_graph([2, 2, 3]), rook_graph([2, 3, 3])]
    hosts += [oracles.random_multigraph(rng) for _ in range(6)]
    seen = set()
    for g in hosts:
        eggs = [rng.sample(range(g.n), rng.randint(1, g.n)) for _ in range(40)]
        eggs += list(connected_subsets(g, min(3, g.n)))[:10]
        expect = []
        for idx, egg in enumerate(sorted({tuple(sorted(e)) for e in eggs})):
            ok = is_connected_subset(g, egg)
            assert ok == oracles.connected(g, egg)
            seen.add(ok)
            if not ok:
                expect.append(f"egg {idx} is not connected: {list(egg)}")
        if expect:
            with pytest.raises(ValueError) as err:
                Scramble(g, eggs)
            assert str(err.value) == "invalid scramble: " + "; ".join(expect)
        else:
            assert len(Scramble(g, eggs).eggs) == len(set(map(frozenset, eggs)))
    assert seen == {True, False}


def test_scramble_constructor_rejects_non_iterable_eggs():
    g = rook_graph([2, 3])
    for eggs in (5, None):
        with pytest.raises(ValueError, match="not a list of eggs"):
            Scramble(g, eggs)


def test_star_scramble_shapes():
    s = star_scramble(4, 4)
    assert len(s.eggs) == 176
    assert s.uniform_size == 3
    assert all(len(e) == 3 for e in s.eggs)
    assert not s.with_squares
    with pytest.raises(ValueError):
        star_scramble(4, 3)
    with pytest.raises(ValueError):
        star_scramble(1, 5)
    for n, m in ((2, "3"), (2, 3.0), (True, 3), (None, 3)):
        with pytest.raises(ValueError, match="integers"):
            star_scramble(n, m)


def test_uniform_scramble_is_all_connected_subsets():
    g = rook_graph([3, 3])
    s = uniform_scramble(g, 2)
    assert s.eggs == tuple(connected_subsets(g, 2))
    assert s.uniform_size == 2
    for k in (2.0, True, "2", 0, 10):
        with pytest.raises(ValueError, match="k must be an integer"):
            uniform_scramble(g, k)


def test_family_scrambles_match_vertex_list_construction():
    # a family scramble stores masks and decodes eggs on demand; the
    # vertex-list constructor on its eggs holds the same eggs and answers
    # the same order query.  It carries no fast-path hints, so branch and
    # bound may pick another maximum avoidance set than the grid DP.
    families = [star_scramble(4, 4), uniform_scramble(rook_graph([3, 3]), 2),
                uniform_scramble(rook_graph([2, 2, 3]), 2),
                square_augmented_scramble((4, 4))]
    for s in families:
        t = Scramble(s.host, s.eggs)
        assert t.uniform_size is None
        assert t.eggs == s.eggs
        assert t.masks == s.masks
        assert set(t.masks) == {sum(1 << v for v in e) for e in s.eggs}
        for mode in ("exact", "auto"):
            got, want = scramble_order(t, mode), scramble_order(s, mode)
            check_order_report(t, got)
            assert (dataclasses.replace(got, hitting_set=None, max_avoidance=None)
                    == dataclasses.replace(want, hitting_set=None, max_avoidance=None))


def test_mask_constructor_checks_every_mask():
    g = rook_graph([2, 3])
    ok = Scramble._from_masks(g, [0b11, 0b11, 0b1000], 2)
    assert ok.masks == (0b11, 0b1000)
    assert ok.eggs == ((0, 1), (3,))
    for bad in (0, True, -1, 1 << 6, 1.0, "3"):
        with pytest.raises(ValueError, match="not a nonempty vertex set"):
            Scramble._from_masks(g, [0b11, bad], 2)
    with pytest.raises(ValueError, match=r"not connected: \[0, 4\]"):
        Scramble._from_masks(g, [0b11, 0b10001], 2)  # a diagonal pair


def test_square_augmented_shapes():
    s = square_augmented_scramble((6, 6))
    assert s.with_squares and s.uniform_size == 5
    assert len(s.eggs) == 50697
    sizes = {len(e) for e in s.eggs}
    assert sizes == {4, 5}
    with pytest.raises(ValueError):
        square_augmented_scramble((6,))
    with pytest.raises(ValueError):
        square_augmented_scramble((3.9, 3))  # int() used to build 3x3


def test_square_augmented_refuses_egg_size_above_five(monkeypatch):
    # 7x7 used to enumerate 1.26M eggs and then never finish branch and bound
    import rookgon.scrambles as scr
    monkeypatch.setattr(scr, "connected_masks",
                        lambda *a: pytest.fail("eggs were enumerated"))
    for dims in ((7, 7), (7, 3), (9, 9)):
        with pytest.raises(ValueError, match="up to 5"):
            square_augmented_scramble(dims)


# ======================================================================
# hitting numbers
# ======================================================================

def test_hitting_number_checks_the_avoidance_set(monkeypatch):
    import rookgon.scrambles as scr
    s = star_scramble(4, 4)
    monkeypatch.setattr(scr, "_max_avoidance_grid", lambda *a: s.masks[0])
    with pytest.raises(RuntimeError, match="containing an egg"):
        hitting_number(s)


def test_hitting_number_empty_scramble():
    g = rook_graph([2, 2])
    s = Scramble(g, [])
    assert hitting_number(s) == (0, (), (0, 1, 2, 3))
    rep = scramble_order(s)
    assert rep.order == 0 and rep.min_egg_cut is None


def test_hitting_number_matches_brute_force():
    cases = [
        uniform_scramble(rook_graph([2, 3]), 2),
        uniform_scramble(rook_graph([2, 3]), 3),
        uniform_scramble(rook_graph([3, 3]), 3),
        uniform_scramble(rook_graph([2, 2, 2]), 2),
        star_scramble(3, 3),
        Scramble(rook_graph([2, 3]), [[0, 1], [4, 5], [2]]),
    ]
    for s in cases:
        n, hit, avoid = hitting_number(s)
        want, _ = oracles.max_avoidance(s.host, s.eggs)
        assert len(avoid) == want
        assert n == s.host.n - want
        check_order_report(s, scramble_order(s))


def test_hitting_grid_dp_matches_branch_and_bound():
    # same egg lists, hints stripped so the general solver runs
    for build in (lambda: star_scramble(3, 5),
                  lambda: star_scramble(4, 4),
                  lambda: uniform_scramble(rook_graph([3, 4]), 3),
                  lambda: square_augmented_scramble((4, 4)),
                  lambda: square_augmented_scramble((5, 4))):
        s = build()
        plain = Scramble(s.host, s.eggs)
        assert hitting_number(s)[0] == hitting_number(plain)[0]


def test_star_hitting_values():
    assert hitting_number(star_scramble(3, 4))[0] == 9
    assert hitting_number(star_scramble(4, 4))[0] == 11
    assert hitting_number(star_scramble(4, 5))[0] == 14
    assert hitting_number(star_scramble(4, 6))[0] == 18


def test_star_hitting_6x6():
    n, hit, avoid = hitting_number(star_scramble(6, 6))
    assert n == 24
    assert len(avoid) == 12


def test_square_augmented_hitting_6x6():
    n, hit, avoid = hitting_number(square_augmented_scramble((6, 6)))
    assert n == 27
    assert len(avoid) == 9


# ======================================================================
# egg cuts
# ======================================================================

def test_min_egg_cut_matches_brute_force():
    cases = [
        uniform_scramble(rook_graph([2, 3]), 2),
        uniform_scramble(rook_graph([3, 3]), 3),
        uniform_scramble(rook_graph([2, 2, 2]), 2),
        star_scramble(3, 3),
        Scramble(rook_graph([2, 3]), [[0, 1], [4, 5], [2]]),
    ]
    for s in cases:
        res = min_egg_cut(s)
        assert res.value == oracles.min_egg_cut(s.host, s.eggs)
        a, b = res.pair
        assert not set(a) & set(b)
        assert cut_weight(s.host, res.side) == res.value


def test_min_egg_cut_no_disjoint_pair():
    g = rook_graph([2, 3])
    s = Scramble(g, [[0, 1], [0, 2], [0, 3]])  # all share vertex 0
    res = min_egg_cut(s)
    assert res == (None, None, None)
    rep = scramble_order(s)
    assert rep.order == rep.hitting_number == 1
    assert rep.hitting_set == (0,)


def test_min_egg_cut_respects_floor_shortcut():
    # the scan derives its own certified floor; a caller-supplied floor
    # could stop it above the true minimum, so none is accepted
    s = star_scramble(3, 4)
    with pytest.raises(TypeError):
        min_egg_cut(s, floor=egg_cut_floor(s))
    assert min_egg_cut(s).value == 8
    # on three-factor hosts the floor stops the scan early without
    # moving the value, the witness pair or the cut side
    for dims, value in (([2, 2, 3], 6), ([2, 3, 3], 8)):
        res = min_egg_cut(uniform_scramble(rook_graph(dims), 2))
        assert res == (value, ((0, 1), (2, 5)), (0, 1))
    # a caller floor of 10**6 would stop these two scans at 9 and 8
    assert min_egg_cut(uniform_scramble(rook_graph([3, 4]), 3)).value == 8
    assert min_egg_cut(uniform_scramble(rook_graph([2, 5]), 2)).value == 5


def test_cut_floor_values():
    assert min_side_cut_floor((4, 4), 3) == 12
    assert min_side_cut_floor((6, 6), 4) == 28
    assert min_side_cut_floor((6, 6), 5) == 30
    assert min_side_cut_floor((3, 4), 2) == 8
    assert min_side_cut_floor((3, 3, 3), 3) == 12
    assert min_side_cut_floor((3, 3), 5) is None
    assert min_side_cut_floor((3, 3), 0) is None
    for dims, min_side in (((2, 2.5), 1), ((3, 3), 1.5), ((3, 3), True)):
        with pytest.raises(ValueError):
            min_side_cut_floor(dims, min_side)


def _min_cut_by_size(g):
    """Least cut weight over sides of each size, by a Gray-code sweep of
    every vertex subset."""
    best = [0] + [None] * g.n
    inset = bytearray(g.n)
    cut = size = 0
    for i in range(1, 1 << g.n):
        v = (i & -i).bit_length() - 1
        e_in = sum(mm for w, mm in g.adj[v] if inset[w])
        if inset[v]:
            inset[v] = 0
            size -= 1
            cut += 2 * e_in - g.degrees[v]
        else:
            inset[v] = 1
            size += 1
            cut += g.degrees[v] - 2 * e_in
        if best[size] is None or cut < best[size]:
            best[size] = cut
    return best


def test_cut_floor_is_sound():
    # the profile relaxation never exceeds the true constrained minimum,
    # and on these small hosts it is exact, size by size
    for dims in [(2, 3), (3, 3), (3, 4), (2, 4), (2, 2, 2), (2, 2, 3),
                 (2, 3, 3)]:
        g = rook_graph(dims)
        best = _min_cut_by_size(g)
        deg = g.degrees[0]
        for size in range(g.n + 1):
            assert deg * size - 2 * _max_induced_edges(dims)[size] == best[size]
        for smin in range(1, g.n // 2 + 1):
            assert min_side_cut_floor(dims, smin) == min(best[smin:g.n - smin + 1])


def test_max_induced_edges_matches_profile_scan():
    # the layer knapsack equals the literal layer x position Gale-Ryser
    # scan: on two factors that is the exact row/column profile scan
    for n in range(2, 8):
        for m in range(n, 8):
            assert _max_induced_edges((n, m)) == tuple(
                oracles.max_induced_edges_profile_scan((n, m), size)
                for size in range(n * m + 1))
    for dims in [(2, 2, 2), (2, 3, 3), (3, 3, 3), (3, 2, 4), (2, 2, 2, 2)]:
        edges = _max_induced_edges(dims)
        for size in range(math.prod(dims) // 2 + 1):
            assert edges[size] == oracles.max_induced_edges_profile_scan(dims, size)


def test_egg_cut_floor_uses_smallest_egg():
    s = star_scramble(4, 4)
    assert egg_cut_floor(s) == 12
    assert egg_cut_floor(square_augmented_scramble((6, 6))) == 28
    assert egg_cut_floor(uniform_scramble(rook_graph([2, 2, 2]), 2)) == 4
    assert egg_cut_floor(uniform_scramble(rook_graph([3, 3, 3]), 3)) == 12
    assert egg_cut_floor(Scramble(rook_graph([2, 2]), [])) is None
    assert egg_cut_floor(Scramble(_dimless_square(), [[0], [2]])) is None


# ======================================================================
# orders
# ======================================================================

def test_star_orders():
    rep = scramble_order(star_scramble(4, 4))
    assert (rep.hitting_number, rep.min_egg_cut, rep.order) == (11, 12, 11)
    assert rep.cut_exact
    assert len(rep.max_avoidance) == 5
    check_order_report(star_scramble(4, 4), rep)

    rep = scramble_order(star_scramble(3, 4))
    assert (rep.hitting_number, rep.min_egg_cut, rep.order) == (9, 8, 8)
    check_order_report(star_scramble(3, 4), rep)


def test_uniform_orders_2d():
    # single-vertex eggs on two rows: the order is the vertex degree
    for m in range(2, 7):
        s = uniform_scramble(rook_graph([2, m]), 1)
        rep = scramble_order(s)
        assert rep.order == m
        assert rep.hitting_number == 2 * m
        check_order_report(s, rep)
    # edge eggs on three rows
    for m in range(3, 6):
        s = uniform_scramble(rook_graph([3, m]), 2)
        rep = scramble_order(s)
        assert rep.order == 2 * m
        assert rep.hitting_number == 3 * m - 3
        assert rep.min_egg_cut == 2 * (3 + m - 2) - 2
        check_order_report(s, rep)


def test_uniform_orders_3d():
    rep = scramble_order(uniform_scramble(rook_graph([2, 2, 2]), 2))
    assert rep.order == 4
    rep = scramble_order(uniform_scramble(rook_graph([2, 2, 3]), 2))
    assert rep.order == 6
    assert rep.hitting_number == 8
    assert rep.min_egg_cut == 6


def test_square_augmented_order_floor_mode():
    s = square_augmented_scramble((6, 6))
    rep = scramble_order(s, cut_mode="floor")
    assert rep.hitting_number == 27
    assert rep.min_egg_cut == 28
    assert not rep.cut_exact
    assert rep.cut_pair is None and rep.cut_side is None
    assert rep.order == 27
    check_order_report(s, rep)


def test_cut_mode_auto():
    # floor 12 >= hitting 11: auto takes the floor shortcut
    rep = scramble_order(star_scramble(4, 4), cut_mode="auto")
    assert rep.order == 11 and rep.min_egg_cut == 12 and not rep.cut_exact
    # floor 8 < hitting 9: auto must fall back to the exact scan
    rep = scramble_order(star_scramble(3, 4), cut_mode="auto")
    assert rep.order == 8 and rep.cut_exact
    # floor 4 >= hitting 4 on 2x2x2: auto takes the shortcut
    rep = scramble_order(uniform_scramble(rook_graph([2, 2, 2]), 2),
                         cut_mode="auto")
    assert rep.order == 4 and rep.min_egg_cut == 4 and not rep.cut_exact
    # no floor on a host without dims: auto runs the exact scan
    s = Scramble(_dimless_square(), [[0], [2]])
    rep = scramble_order(s, cut_mode="auto")
    assert rep.cut_exact and rep.order == rep.min_egg_cut == 2


def test_cut_mode_floor_rejected_when_below_hitting():
    with pytest.raises(ValueError):
        scramble_order(star_scramble(3, 4), cut_mode="floor")
    # floor 12 < hitting 17 on 3x3x3
    with pytest.raises(ValueError, match="below the hitting number"):
        scramble_order(uniform_scramble(rook_graph([3, 3, 3]), 3),
                       cut_mode="floor")
    with pytest.raises(ValueError, match="no cut floor"):
        scramble_order(Scramble(_dimless_square(), [[0], [2]]),
                       cut_mode="floor")
    with pytest.raises(ValueError):
        scramble_order(star_scramble(4, 4), cut_mode="nope")


# ======================================================================
# avoidance constructions
# ======================================================================

def test_staircase_avoidance_4x5():
    got = staircase_avoidance(4, 5)
    assert got == (0, 1, 7, 8, 14, 19)
    host = rook_graph([4, 5])
    comps = induced_components(host, got)
    assert all(len(c) <= 2 for c in comps)
    # egg-free for the 3-subset star scramble, so hitting <= 14
    s = star_scramble(4, 5)
    avoid = set(got)
    assert not any(set(e) <= avoid for e in s.eggs)
    assert hitting_number(s)[0] <= 20 - 6


def test_staircase_avoidance_properties():
    for n, m in [(4, 4), (4, 5), (5, 5), (5, 6), (6, 7), (5, 11)]:
        got = staircase_avoidance(n, m)
        assert len(got) == m + 1
        host = rook_graph([n, m])
        comps = induced_components(host, got)
        assert all(len(c) < n - 1 for c in comps)
        eggs = {e for e in connected_subsets(host, n - 1)}
        avoid = set(got)
        assert not any(set(e) <= avoid for e in eggs)


def test_staircase_avoidance_bounds():
    with pytest.raises(ValueError):
        staircase_avoidance(3, 4)    # too few rows
    with pytest.raises(ValueError):
        staircase_avoidance(4, 2)    # too few columns
    with pytest.raises(ValueError):
        staircase_avoidance(4, 6)    # board too wide for the construction
    for n, m in ((4.0, 5), (4, 5.0), ("4", 5), (True, 5)):
        with pytest.raises(ValueError):
            staircase_avoidance(n, m)  # sizes must be integers
    # the narrowest legal board
    assert len(staircase_avoidance(4, 3)) == 4


def test_cube_diagonal_avoidance_3():
    got = cube_diagonal_avoidance(3)
    assert got == (1, 2, 3, 6, 9, 13, 17, 18, 22, 26)
    host = rook_graph([3, 3, 3])
    comps = induced_components(host, got)
    assert sorted(len(c) for c in comps) == [2, 2, 2, 2, 2]


def test_cube_diagonal_avoidance_4():
    got = cube_diagonal_avoidance(4)
    assert len(got) == 18
    host = rook_graph([4, 4, 4])
    comps = induced_components(host, got)
    assert sorted(len(c) for c in comps) == [3] * 6
    for n in (2, "3", 3.0, True):
        with pytest.raises(ValueError):
            cube_diagonal_avoidance(n)


def test_induced_components():
    g = rook_graph([2, 3])
    assert induced_components(g, [0, 1, 5]) == [(0, 1), (5,)]
    assert induced_components(g, []) == []
    assert induced_components(g, range(6)) == [(0, 1, 2, 3, 4, 5)]


def test_induced_components_match_brute_force_partition():
    # the component of u is the union of every connected subset of verts
    # that contains u
    rng = random.Random(9127)
    hosts = [rook_graph([3, 4]), rook_graph([2, 2, 3])]
    hosts += [oracles.random_multigraph(rng, max_n=7) for _ in range(6)]
    for g in hosts:
        for _ in range(15):
            verts = rng.sample(range(g.n), rng.randint(0, min(g.n, 8)))
            comp = {u: {u} for u in verts}
            for r in range(2, len(verts) + 1):
                for sub in itertools.combinations(verts, r):
                    if oracles.connected(g, sub):
                        for u in sub:
                            comp[u].update(sub)
            want = sorted(set(tuple(sorted(c)) for c in comp.values()))
            assert induced_components(g, verts + verts[:2]) == want, (g.mult, verts)


# ======================================================================
# cut bound scan
# ======================================================================

def test_cut_bound_check_2x2():
    rep = exhaustive_cut_bound_check(2, 2)
    assert rep.ok
    assert rep.bound == 2
    assert rep.checked == 14
    assert rep.violation is None
    assert rep.tight_weight == 2
    assert cut_weight(rook_graph([2, 2]), rep.tight_side) == 2


def test_cut_bound_check_counts_and_tightness():
    # checked = bipartitions where each side has at least n-1 vertices
    for n, m in [(2, 3), (3, 3), (2, 5), (3, 4)]:
        rep = exhaustive_cut_bound_check(n, m)
        assert rep.ok and rep.violation is None
        assert rep.bound == (n - 1) * m
        g = rook_graph([n, m])
        total = n * m
        want = sum(math.comb(total, s)
                   for s in range(n - 1, total - n + 2))
        assert rep.checked == want
        assert rep.tight_weight == rep.bound
        assert cut_weight(g, rep.tight_side) == rep.bound
        # the tight witness leaves whole rows on each side
        rows = {v // m for v in rep.tight_side}
        assert all(v // m in rows for v in rep.tight_side)
        assert len(rep.tight_side) == len(rows) * m


def test_cut_bound_check_validation():
    with pytest.raises(ValueError):
        exhaustive_cut_bound_check(3, 2)
    with pytest.raises(ValueError):
        exhaustive_cut_bound_check(3, 7)  # 21 cells: board too large


# ======================================================================
# JSON round trip
# ======================================================================

def test_scramble_json_roundtrip():
    s = star_scramble(3, 4)
    back = scramble_from_json(scramble_to_json(s))
    assert back.eggs == s.eggs
    assert back.host.mult == s.host.mult
    assert back.host.dims == s.host.dims


def test_scramble_json_dims_shortcut():
    s = scramble_from_json({"host": [2, 3], "eggs": [[0, 1], [3, 4]]})
    assert s.host.dims == (2, 3)
    assert s.eggs == ((0, 1), (3, 4))


def test_scramble_json_rejects_malformed():
    with pytest.raises(ValueError):
        scramble_from_json([])
    with pytest.raises(ValueError):
        scramble_from_json({"host": [2, 3]})
    with pytest.raises(ValueError):
        scramble_from_json({"host": 5, "eggs": []})
    with pytest.raises(ValueError):
        scramble_from_json({"host": [2, 3], "eggs": "zzz"})
