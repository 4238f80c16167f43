"""Scramble tests: hitting numbers, egg cuts, orders, constructions."""

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest

import oracles
from rookgon import (
    MultiGraph,
    Scramble,
    connected_subsets,
    cube_diagonal_avoidance,
    cut_weight,
    egg_cut_floor,
    hitting_number,
    induced_components,
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
from rookgon import graphs
from rookgon.scrambles import (_max_avoidance_branch_bound, _max_avoidance_grid,
                                _max_induced_edges)
from rookgon.suite import _random_multigraph as random_multigraph


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
    # size, which sends the hitting number through the grid knapsack.  Only
    # the family constructors may make that promise.  Taken on trust, the hint
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
    # a row, a column and a repeated vertex pass; eggs are sorted sets
    ok = Scramble(g, [[2, 1, 0], [0, 3], [0, 0, 1]])
    assert ok.eggs == ((0, 1), (0, 1, 2), (0, 3))
    with pytest.raises(ValueError) as err:
        Scramble(g, [[0, 4]])            # a diagonal pair: disconnected
    assert str(err.value) == "invalid scramble: egg 0 is not connected: [0, 4]"
    with pytest.raises(ValueError) as err:
        Scramble(rook_graph([2, 2]), [[], [0]])
    assert str(err.value) == "invalid scramble: egg 0 is empty"


def test_scramble_constructor_matches_connected_oracle():
    # construction rejects exactly the eggs that the brute-force oracle
    # rejects, with the same messages, on connected and disconnected eggs
    rng = random.Random(11)
    hosts = [rook_graph([3, 4]), rook_graph([2, 2, 3]), rook_graph([2, 3, 3])]
    hosts += [random_multigraph(rng) for _ in range(6)]
    seen = set()
    for g in hosts:
        eggs = [rng.sample(range(g.n), rng.randint(1, g.n)) for _ in range(40)]
        eggs += list(connected_subsets(g, min(3, g.n)))[:10]
        expect = []
        for idx, egg in enumerate(sorted({tuple(sorted(e)) for e in eggs})):
            ok = oracles.connected(g, egg)
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
    # bound may pick another maximum avoidance set than the grid knapsack.
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
            assert (got._replace(hitting_set=None, max_avoidance=None)
                    == want._replace(hitting_set=None, max_avoidance=None))


def _listed_family(monkeypatch, g, masks):
    """A family scramble on g whose enumerator yields the given masks."""
    import rookgon.scrambles as scr
    s = uniform_scramble(g, 2)
    monkeypatch.setattr(scr, "connected_masks", lambda *a: iter(masks))
    return s


def test_mask_constructor_checks_every_mask(monkeypatch):
    # a family lists its eggs on the first read of masks, through the
    # same check as the vertex-list constructor
    g = rook_graph([2, 3])
    ok = _listed_family(monkeypatch, g, [0b11, 0b11, 0b1000])
    assert ok.masks == (0b11, 0b1000)
    assert ok.eggs == ((0, 1), (3,))
    with pytest.raises(ValueError) as err:
        _listed_family(monkeypatch, g, [0b11, 0]).masks
    assert str(err.value) == "invalid scramble: egg 0 is empty"
    bad = _listed_family(monkeypatch, g, [0b11, 0b10001, 0b1000])  # a diagonal pair
    for _ in range(2):  # a failed listing stores nothing and fails again
        with pytest.raises(ValueError) as err:
            bad.eggs
        assert str(err.value) == "invalid scramble: egg 1 is not connected: [0, 4]"
        assert bad._masks is None


def test_both_constructors_report_bad_eggs_alike(monkeypatch):
    # every bad egg is named, in egg order, whichever way the eggs arrive
    g = rook_graph([2, 3])
    for eggs in ([[0, 4], [1]], [[], [2]], [[], [0, 4], [3, 5], [1, 5], [0, 1]]):
        masks = [sum(1 << v for v in egg) for egg in eggs]
        with pytest.raises(ValueError) as from_verts:
            Scramble(g, eggs)
        with pytest.raises(ValueError) as from_masks:
            _listed_family(monkeypatch, g, masks).masks
        assert str(from_masks.value) == str(from_verts.value)
    assert str(from_verts.value) == ("invalid scramble: egg 0 is empty; "
                                     "egg 2 is not connected: [0, 4]; "
                                     "egg 3 is not connected: [1, 5]")


def test_family_scramble_is_not_decoded_until_read():
    s = star_scramble(4, 4)
    assert s._masks is None and s._eggs is None and s._egg_masks is None
    assert len(s.eggs) == len(s._egg_masks) == len(s._masks) == 176


def test_family_counts_and_floors_match_the_listing():
    # egg_count and egg_cut_floor answer from the definition before the
    # eggs are listed, and agree with the listed eggs afterwards; on 5x5
    # star-squares (k = 4) the squares are connected 4-subsets already
    for s in _small_grid_family_scrambles() + [
            star_scramble(6, 6), square_augmented_scramble((6, 6)),
            square_augmented_scramble((5, 5))]:
        count, floor = s.egg_count, egg_cut_floor(s)
        assert s._masks is None
        assert count == len(s.masks)
        smallest = min(mask.bit_count() for mask in s.masks)
        assert floor == min_side_cut_floor(s.host.dims, smallest)


def test_two_factor_egg_count_matches_the_enumerator():
    # the closed form answers every k without listing the eggs
    for n, m in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5),
                 (4, 4), (5, 2)):
        g = rook_graph([n, m])
        for k in range(1, n * m + 1):
            s = uniform_scramble(g, k)
            assert s.egg_count == sum(1 for _ in graphs.connected_masks(g, k))
            assert s._masks is None


def test_egg_count_enumerates_off_two_factor_hosts():
    # a three-factor host and a host without dims count by enumeration;
    # the dims-less 3x3 rook graph counts what the closed form counts
    rook = rook_graph([3, 3])
    dimless = graphs.graph_from_json(
        {key: val for key, val in graphs.graph_to_json(rook).items() if key != "dims"})
    assert dimless.dims is None
    for k in range(1, 10):
        s = uniform_scramble(dimless, k)
        assert s.egg_count == len(s.masks) == uniform_scramble(rook, k).egg_count
    for k in range(1, 13):
        s = uniform_scramble(rook_graph([2, 2, 3]), k)
        assert s.egg_count == len(s.masks)


def test_family_certificate_catches_a_square(monkeypatch):
    # one 2x2 square is a 4-cell component, below the egg size 5, so
    # only the square test can reject it
    import rookgon.scrambles as scr
    s = square_augmented_scramble((6, 6))
    square = (1 << 0) | (1 << 1) | (1 << 6) | (1 << 7)
    assert [len(c) for c in induced_components(s.host, graphs.mask_vertices(square))] == [4]
    monkeypatch.setattr(scr, "_max_avoidance_grid", lambda *a: square)
    with pytest.raises(RuntimeError, match="containing an egg"):
        hitting_number(s)


def test_auto_and_floor_orders_list_no_eggs(monkeypatch):
    import rookgon.cli as cli

    def listed(*args):
        raise AssertionError("eggs were listed")

    monkeypatch.setattr(Scramble, "_set_eggs", listed)
    for s in (star_scramble(6, 6), square_augmented_scramble((6, 6))):
        rep = scramble_order(s, "auto")
        assert not rep.cut_exact
        cli.order_record(s, rep)
        assert s._masks is None
    monkeypatch.undo()
    # exact mode lists the eggs, once, through the check
    check = Scramble._set_eggs
    checked = []

    def counted(s, masks):
        checked.append(s)
        check(s, masks)

    monkeypatch.setattr(Scramble, "_set_eggs", counted)
    s = star_scramble(4, 4)
    assert scramble_order(s, "exact").cut_exact
    assert checked == [s] and len(s._masks) == 176


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
    # the grid knapsack takes squares only for components of at most 4
    # cells; 7x7 used to enumerate 1.26M eggs before refusing
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


def test_hitting_number_certifies_the_general_search(monkeypatch):
    # the certificate off the grid path: against every listed egg, and
    # against the family definition without listing its eggs
    import rookgon.scrambles as scr
    listed = Scramble(rook_graph([2, 3]), [[0, 1], [4, 5], [2]])
    family = uniform_scramble(rook_graph([2, 2, 2]), 2)
    for s, egg in ((listed, 0b110000), (family, 0b11)):
        monkeypatch.setattr(scr, "_max_avoidance_branch_bound", lambda _: egg)
        with pytest.raises(RuntimeError, match="containing an egg"):
            hitting_number(s)
    assert family._masks is None


def test_hitting_number_on_large_sparse_scrambles():
    # 1,024 vertices: more than Python's default recursion limit
    g = rook_graph([32, 32])
    assert hitting_number(Scramble(g, [[0]])) == (1, (0,), tuple(range(1, 1024)))
    pairs = Scramble(g, [[2 * i, 2 * i + 1] for i in range(512)])
    assert hitting_number(pairs) == (512, tuple(range(1, 1024, 2)),
                                     tuple(range(0, 1024, 2)))


def test_hitting_number_empty_scramble():
    # an empty scramble covers no vertex, so the search decides none
    hosts = (rook_graph([2, 2]), _dimless_square(), rook_graph([2, 2, 2]),
             rook_graph([32, 32]))
    for g in hosts:
        s = Scramble(g, [])
        assert hitting_number(s) == (0, (), tuple(range(g.n)))
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


def _small_grid_family_scrambles():
    """Every uniform scramble up to k = 6 and every square-augmented
    scramble on the two-factor hosts of at most 16 vertices, plus three
    more family scrambles: 78 in all."""
    cases = [star_scramble(3, 5), star_scramble(4, 4),
             square_augmented_scramble((5, 4))]
    for n in range(2, 5):
        for m in range(n, 16 // n + 1):
            host = rook_graph([n, m])
            cases += [uniform_scramble(host, k)
                      for k in range(1, min(6, n * m) + 1)]
            cases.append(square_augmented_scramble((n, m)))
    assert len(cases) == 78
    return cases


def _random_connected_masks(rng, g, count, sizes):
    """count random connected vertex sets of g, each grown from a random
    vertex by random neighbours to a size drawn from sizes."""
    nbr = g.nbr_masks
    masks = []
    for _ in range(count):
        mask = 1 << rng.randrange(g.n)
        for _ in range(rng.choice(sizes) - 1):
            frontier = 0
            for v in graphs.mask_vertices(mask):
                frontier |= nbr[v]
            mask |= 1 << rng.choice(graphs.mask_vertices(frontier & ~mask))
        masks.append(mask)
    return masks


def test_hitting_grid_dp_matches_branch_and_bound():
    # same egg lists, hints stripped so the general solver runs
    for s in _small_grid_family_scrambles():
        plain = Scramble(s.host, s.eggs)
        assert plain.uniform_size is None
        assert hitting_number(s)[0] == hitting_number(plain)[0]


def test_branch_bound_matches_plain_search():
    # the suffix bound returns the very set of the search without it
    cases = [uniform_scramble(rook_graph([3, 3, 3]), k) for k in (2, 3, 4)]
    cases += [uniform_scramble(rook_graph([2, 3, 4]), 3),
              uniform_scramble(rook_graph([2, 2, 2, 2]), 3)]
    cases += _small_grid_family_scrambles()
    rng = random.Random(2106)
    for dims in ((3, 3, 3), (2, 3, 4), (5, 5)):
        host = rook_graph(list(dims))
        for count in (3, 20, 80, 300):
            masks = _random_connected_masks(rng, host, count, (2, 3, 4))
            cases.append(Scramble(host, map(graphs.mask_vertices, masks)))
    host = rook_graph([4, 4, 4])
    masks = _random_connected_masks(rng, host, 20, (2, 3, 4))
    cases.append(Scramble(host, map(graphs.mask_vertices, masks)))
    for s in cases:
        assert _max_avoidance_branch_bound(s) == oracles.max_avoidance_plain_search(s)


def test_uniform_hitting_three_factors():
    # each equals the plain search's answer
    for dims, k, want in (((3, 3, 4), 3, 24), ((3, 3, 3), 4, 16),
                          ((2, 3, 4), 3, 16)):
        assert hitting_number(uniform_scramble(rook_graph(list(dims)), k))[0] == want


def _has_full_square(mask, n, m):
    """Whether mask holds all four cells of some 2x2 square of the n x m
    grid."""
    return any(all(mask >> r * m + c & 1 for r in rows for c in cols)
               for rows in itertools.combinations(range(n), 2)
               for cols in itertools.combinations(range(m), 2))


def test_grid_avoidance_sets_are_valid():
    # every returned set keeps its components within the cap, holds no
    # full square when squares are eggs, and is as large as the one on the
    # transposed grid
    for n in range(2, 9):
        for m in range(2, 9):
            g = rook_graph([n, m])
            for cap in range(8):
                for no_squares in (False, True) if cap <= 4 else (False,):
                    mask = _max_avoidance_grid(n, m, cap, no_squares)
                    comps = induced_components(g, graphs.mask_vertices(mask))
                    assert all(len(c) <= cap for c in comps)
                    assert not (no_squares and _has_full_square(mask, n, m))
                    assert mask.bit_count() == _max_avoidance_grid(
                        m, n, cap, no_squares).bit_count()
    with pytest.raises(ValueError, match="up to 4"):
        _max_avoidance_grid(6, 6, 5, True)


def test_grid_avoidance_witnesses_are_frozen():
    # the witness masks on every grid up to 8 x 8 and cap up to 8 (with
    # squares for caps up to 4), digested; frozen from the knapsack that
    # also tried dropping a row or a column, which never moved a mask
    lines = [f"{n} {m} {cap} {int(sq)} {_max_avoidance_grid(n, m, cap, sq):x}"
             for n in range(1, 9) for m in range(1, 9) for cap in range(9)
             for sq in ((False, True) if cap <= 4 else (False,))]
    assert len(lines) == 896
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "04612686fed587ed280bb761515ee6e7ebf5e2a13698d1d8ef0eb60051c1a35e")


def test_grid_avoidance_sizes_beyond_branch_and_bound():
    # sizes from an independent solver (the column sweep that 0.9.0
    # replaced) on hosts branch and bound cannot reach
    for args, size in (((6, 8, 4, False), 12), ((7, 7, 5, False), 14),
                       ((8, 8, 6, False), 18), ((6, 6, 4, True), 9)):
        assert _max_avoidance_grid(*args).bit_count() == size


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

def _count_flows(monkeypatch):
    """Count the calls to the two flow entry points the pair scan reads."""
    calls = {"min_cut_value": 0, "min_cut_between": 0}
    for name in calls:
        def counted(*args, _real=getattr(graphs, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(graphs, name, counted)
    return calls


def _check_egg_cut(s, res):
    """The value is the brute-force minimum, the pair is the first
    disjoint pair in egg order whose cut attains it, and the side is the
    minimal minimum side of that pair."""
    assert res.value == oracles.min_egg_cut_by_tables(s.host, s.eggs)
    if res.value is None:
        assert res == (None, None, None)
        return
    for a, b in itertools.combinations(s.eggs, 2):
        if (a, b) == res.pair:
            break
        if not set(a) & set(b):
            # exact with this cutoff means a cut at or below the minimum
            assert not graphs.min_cut_value(s.host, a, b, cutoff=res.value + 1)[1]
    else:
        pytest.fail(f"witness pair {res.pair} is not an egg pair")
    assert res.side == oracles.minimal_min_cut_side(s.host, *res.pair)


def test_table_egg_cut_oracle_matches_the_plain_one():
    # the plain oracle finishes quickly only on hosts of 12 or fewer
    # vertices; _check_egg_cut needs the table one on the larger families
    rng = random.Random(5)
    cases = []
    for _ in range(300):
        g = random_multigraph(rng, 9, 10)
        masks = _random_connected_masks(rng, g, rng.randint(0, 8), (1, 2))
        cases.append((g, [graphs.mask_vertices(m) for m in masks]))
    cases += [(s.host, s.eggs) for s in _small_grid_family_scrambles()
              if s.host.n <= 12]
    assert len(cases) == 347
    for host, eggs in cases:
        assert (oracles.min_egg_cut_by_tables(host, eggs)
                == oracles.min_egg_cut(host, eggs))


def test_min_egg_cut_matches_brute_force():
    cases = [
        uniform_scramble(rook_graph([2, 3]), 2),
        uniform_scramble(rook_graph([3, 3]), 3),
        uniform_scramble(rook_graph([2, 2, 2]), 2),
        star_scramble(3, 3),
        Scramble(rook_graph([2, 3]), [[0, 1], [4, 5], [2]]),
    ]
    for s in cases + _small_grid_family_scrambles():
        _check_egg_cut(s, min_egg_cut(s))


def test_min_egg_cut_no_disjoint_pair():
    g = rook_graph([2, 3])
    s = Scramble(g, [[0, 1], [0, 2], [0, 3]])  # all share vertex 0
    res = min_egg_cut(s)
    assert res == (None, None, None)
    rep = scramble_order(s)
    assert rep.order == rep.hitting_number == 1
    assert rep.hitting_set == (0,)


def test_min_egg_cut_computes_the_floor_at_the_first_disjoint_pair(monkeypatch):
    import rookgon.scrambles as scr
    calls = []

    def counted(s, _real=scr.egg_cut_floor):
        calls.append(s)
        return _real(s)

    monkeypatch.setattr(scr, "egg_cut_floor", counted)
    # no disjoint pair, so no floor: the 32x32 floor alone costs ~0.5 s
    for s in (Scramble(rook_graph([32, 32]), [[0]]),
              Scramble(rook_graph([2, 3]), [[0, 1], [0, 2], [0, 3]])):
        assert min_egg_cut(s) == (None, None, None)
    assert calls == []
    s = star_scramble(4, 4)
    assert min_egg_cut(s).value == 12
    assert calls == [s]
    s = uniform_scramble(rook_graph([2, 2, 3]), 2)
    assert min_egg_cut(s) == (6, ((0, 1), (2, 5)), (0, 1))
    assert calls[1:] == [s]


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


def test_min_egg_cut_solves_each_incumbent_once(monkeypatch):
    # star 4x4 meets its floor on the first pair: one full solve, no screen
    calls = _count_flows(monkeypatch)
    s = star_scramble(4, 4)
    res = min_egg_cut(s)
    assert calls == {"min_cut_value": 0, "min_cut_between": 1}
    _check_egg_cut(s, res)
    # heavy8 has no floor, so all 28 singleton pairs are scanned: each
    # pair after the first is screened, and each new incumbent solved
    path = Path(__file__).parent / "frozen" / "heavy8-singletons.json"
    s = scramble_from_json(json.loads(path.read_text()))
    cuts = [oracles.min_cut(s.host, a, b) for a, b in itertools.combinations(s.eggs, 2)]
    incumbents = sum(cut < min(cuts[:i], default=cut + 1) for i, cut in enumerate(cuts))
    assert (len(cuts), incumbents) == (28, 3)
    calls.update(dict.fromkeys(calls, 0))
    res = min_egg_cut(s)
    assert calls == {"min_cut_value": len(cuts) - 1, "min_cut_between": incumbents}
    _check_egg_cut(s, res)


def test_cut_floor_values():
    assert min_side_cut_floor((4, 4), 3) == 12
    assert min_side_cut_floor((6, 6), 4) == 28
    assert min_side_cut_floor((6, 6), 5) == 30
    assert min_side_cut_floor((3, 4), 2) == 8
    assert min_side_cut_floor((3, 3, 3), 3) == 12
    assert min_side_cut_floor((3, 3), 5) is None
    assert min_side_cut_floor((3, 3), 0) is None
    for dims, min_side in (((2, 2.5), 1), ((3, 3), 1.5), ((3, 3), True),
                           ((-2, -3), 1), ((2, -3, -1), 1), ((0, 3), 1)):
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


def test_square_augmented_order_auto_takes_the_floor():
    s = square_augmented_scramble((6, 6))
    rep = scramble_order(s, cut_mode="auto")
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
    # floor 12 < hitting 17 on 3x3x3: the exact scan meets the floor
    rep = scramble_order(uniform_scramble(rook_graph([3, 3, 3]), 3),
                         cut_mode="auto")
    assert rep.min_egg_cut == 12 and rep.cut_exact and rep.order == 12
    # floor 4 >= hitting 4 on 2x2x2: auto takes the shortcut
    rep = scramble_order(uniform_scramble(rook_graph([2, 2, 2]), 2),
                         cut_mode="auto")
    assert rep.order == 4 and rep.min_egg_cut == 4 and not rep.cut_exact
    # no floor on a host without dims: auto runs the exact scan
    s = Scramble(_dimless_square(), [[0], [2]])
    rep = scramble_order(s, cut_mode="auto")
    assert rep.cut_exact and rep.order == rep.min_egg_cut == 2


def test_cut_mode_other_than_exact_or_auto_raises():
    for mode in ("floor", "nope"):
        with pytest.raises(ValueError, match="exact or auto"):
            scramble_order(star_scramble(4, 4), cut_mode=mode)


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
    # a legal board above the vertex limit is refused before any cell is
    # placed (10**9 columns would take 10**9 cells)
    for n, m in ((50, 100), (10 ** 5, 10 ** 9)):
        with pytest.raises(ValueError, match="above the limit"):
            staircase_avoidance(n, m)


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
    assert len(cube_diagonal_avoidance(12)) == 14 * 11   # 1,728 vertices
    with pytest.raises(ValueError, match="above the limit"):
        cube_diagonal_avoidance(13)                       # 2,197 vertices


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
    hosts += [random_multigraph(rng, max_n=7) for _ in range(6)]
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
    rep = oracles.exhaustive_cut_bound_check(2, 2)
    assert rep.ok
    assert rep.bound == 2
    assert rep.checked == 14
    assert rep.violation is None
    assert rep.tight_weight == 2
    assert cut_weight(rook_graph([2, 2]), rep.tight_side) == 2


def test_cut_bound_check_counts_and_tightness():
    # checked = bipartitions where each side has at least n-1 vertices
    for n, m in [(2, 3), (3, 3), (2, 5), (3, 4)]:
        rep = oracles.exhaustive_cut_bound_check(n, m)
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
        oracles.exhaustive_cut_bound_check(3, 2)
    with pytest.raises(ValueError):
        oracles.exhaustive_cut_bound_check(3, 7)  # 21 cells: board too large
    # non-integer sizes used to raise TypeError from the comparison
    for n, m in (("2", 3), (2, None), (2.0, 3), (True, 3), (2, "3")):
        with pytest.raises(ValueError):
            oracles.exhaustive_cut_bound_check(n, m)


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
