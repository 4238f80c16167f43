"""Graph construction, subset enumeration, and min-cut tests."""

import itertools
import random

import pytest

import oracles
from rookgon import (
    MultiGraph,
    Scramble,
    complete_graph,
    connected_masks,
    connected_subsets,
    cut_weight,
    fire_set,
    graph_from_json,
    graph_to_json,
    induced_components,
    min_cut_between,
    min_cut_value,
    rook_graph,
)
from rookgon.graphs import MAX_JSON_VERTICES, _dims_nbr_masks
from rookgon.suite import _random_multigraph as random_multigraph


# ======================================================================
# constructors and validation
# ======================================================================

def test_complete_graph_structure():
    g = complete_graph(4)
    assert g.n == 4
    assert g.degrees == (3, 3, 3, 3)
    assert g.edge_count() == 6
    assert g.genus() == 3
    assert all(g.mult[u][v] == (1 if u != v else 0)
               for u in range(4) for v in range(4))


def test_complete_graph_single_vertex():
    g = complete_graph(1)
    assert g.n == 1
    assert g.edge_count() == 0
    assert g.genus() == 0
    # non-integers used to raise TypeError from range() or <
    for n in (0, -2, 2.5, 3.0, "3", True, None):
        with pytest.raises(ValueError):
            complete_graph(n)


def test_rook_graph_2x3_structure():
    g = rook_graph([2, 3])
    assert g.n == 6
    assert g.dims == (2, 3)
    assert g.degrees == (3,) * 6
    assert g.edge_count() == 9
    assert g.genus() == 4
    # row-major labels
    assert g.labels() == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    for v in range(6):
        assert g.label_to_index(g.vertex_label(v)) == v
    for v in (True, 1.5, -1, 6):
        with pytest.raises(ValueError):
            g.vertex_label(v)      # vertices must be ints in range
    for coords in ((0.5, 1), (True, 2), (0, 3), (0,)):
        with pytest.raises(ValueError):
            g.label_to_index(coords)
    # adjacency: same row or same column
    for u in range(6):
        for v in range(6):
            ru, cu = g.vertex_label(u)
            rv, cv = g.vertex_label(v)
            want = 1 if u != v and (ru == rv or cu == cv) else 0
            assert g.mult[u][v] == want


def test_rook_graph_matches_cartesian_product():
    got = oracles.cartesian_product(complete_graph(2), complete_graph(3))
    want = rook_graph([2, 3])
    assert got.mult == want.mult


def test_rook_graph_three_factors():
    g = rook_graph([2, 2, 3])
    assert g.n == 12
    assert g.dims == (2, 2, 3)
    assert g.degrees == (1 + 1 + 2,) * 12
    product = oracles.cartesian_product
    h = product(product(complete_graph(2), complete_graph(2)), complete_graph(3))
    assert g.mult == h.mult


def test_dims_must_be_integers():
    # int() coercion used to build 2x3 from the first four
    for dims in ([2, 3.7], ["2", "3"], [2, True], [2.0, 3], [[2], 3]):
        with pytest.raises(ValueError):
            rook_graph(dims)
    mult = rook_graph([2, 3]).mult
    for dims in ([2, 3.0], ["2", "3"], [True, 3]):
        with pytest.raises(ValueError):
            MultiGraph(mult, dims=dims)
    assert MultiGraph(mult, dims=(2, 3)).dims == (2, 3)


def test_dims_masks_match_the_label_pair_rule():
    # every dims of at most three axes of sizes 1-4, () and unsorted included
    shapes = [d for k in range(4) for d in itertools.product(range(1, 5), repeat=k)]
    assert len(shapes) == 85
    for dims in shapes:
        labels = list(itertools.product(*map(range, dims)))
        mult = [[int(oracles.rook_adjacent(x, y)) for y in labels] for x in labels]
        want = tuple(sum(m << v for v, m in enumerate(row)) for row in mult)
        assert _dims_nbr_masks(dims) == want, dims
        assert MultiGraph(mult, dims=dims).dims == dims


def test_check_dims_rejects_graphs_near_a_rook_graph():
    rook = rook_graph([3, 3])
    doubled = [list(row) for row in rook.mult]
    doubled[0][1] = doubled[1][0] = 2          # same support, one edge doubled
    missing = [list(row) for row in rook.mult]
    missing[0][1] = missing[1][0] = 0          # one edge removed
    swap = [4, 1, 2, 3, 0, 5, 6, 7, 8]         # vertices 0 and 4 exchanged
    swapped = [[rook.mult[swap[u]][swap[v]] for v in range(9)] for u in range(9)]
    for mult in (doubled, missing, swapped):
        assert MultiGraph(mult).dims is None
        with pytest.raises(ValueError, match="inconsistent with the adjacency"):
            MultiGraph(mult, dims=[3, 3])
    assert MultiGraph([[0]], dims=[]).dims == ()


def test_dims_constructors_refuse_more_vertices_than_the_limit():
    for build, arg in ((rook_graph, [300, 300]), (rook_graph, [2] * 12),
                       (complete_graph, MAX_JSON_VERTICES + 1)):
        with pytest.raises(ValueError, match="above the limit"):
            build(arg)
    assert rook_graph([2] * 11).n == MAX_JSON_VERTICES


def test_multigraph_validation():
    with pytest.raises(ValueError):
        MultiGraph([])  # no vertices
    with pytest.raises(ValueError):
        MultiGraph([[0, 1], [1]])  # not square
    with pytest.raises(ValueError):
        MultiGraph([[1]])  # loop
    with pytest.raises(ValueError):
        MultiGraph([[0, 2], [1, 0]])  # asymmetric
    with pytest.raises(ValueError):
        MultiGraph([[0, -1], [-1, 0]])  # negative multiplicity
    with pytest.raises(ValueError):
        MultiGraph([[0, True], [True, 0]])  # bools are not counts
    # every entry is type-checked, not only the upper triangle
    with pytest.raises(ValueError):
        MultiGraph([[0, 1, 1], [1.0, 0, 1], [1, 1, 0]])  # float below the diagonal
    with pytest.raises(ValueError):
        MultiGraph([[0.0, 1], [1, 0]])  # float on the diagonal
    with pytest.raises(ValueError):
        MultiGraph([[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # disconnected
    with pytest.raises(ValueError):
        MultiGraph([[0, 1], [1, 0]], dims=[3])  # dims do not match


def test_multigraph_parallel_edges():
    g = MultiGraph([[0, 3], [3, 0]])
    assert g.degrees == (3, 3)
    assert g.edge_count() == 3
    assert g.genus() == 2


def test_complete_graph_labels():
    g = complete_graph(3)
    assert g.dims == (3,)
    assert g.labels() == ((0,), (1,), (2,))


def _level_graphs(rng):
    """Random multigraphs, and hand-built ones whose multiplicities skip
    levels (1, 3, 7) or reach 10**9."""
    gs = [random_multigraph(rng, max_n=7, max_extra=14) for _ in range(40)]
    gs.append(MultiGraph([[0, 1, 3, 7], [1, 0, 0, 3], [3, 0, 0, 1], [7, 3, 1, 0]]))
    gs.append(MultiGraph([[0, 10**9, 0], [10**9, 0, 1], [0, 1, 0]]))
    return gs


def test_graph_masks_count_edges_into_vertex_sets():
    rng = random.Random(2511)
    for g in _level_graphs(rng):
        for u in range(g.n):
            assert g.nbr_masks[u] == sum(1 << v for v in range(g.n) if g.mult[u][v])
            # at most one (mask, weight) pair per distinct multiplicity
            assert len(g.level_masks[u]) <= len({m for m in g.mult[u] if m})
        for _ in range(12):
            b = rng.getrandbits(g.n)
            for u in range(g.n):
                got = (g.nbr_masks[u] & b).bit_count() + sum(
                    w * (x & b).bit_count() for x, w in g.level_masks[u])
                want = sum(g.mult[u][v] for v in range(g.n) if b >> v & 1)
                assert got == want, (g.mult, u, b)
    # simple graphs keep no multiplicity levels
    for g in (rook_graph([3, 4]), complete_graph(5)):
        assert g.level_masks == ((),) * g.n


def test_graph_genus_and_labels_match_their_definitions():
    rng = random.Random(2512)
    plain = _level_graphs(rng)
    labelled = [rook_graph([2, 3]), rook_graph([2, 2, 3]), complete_graph(4),
                oracles.cartesian_product(complete_graph(2), complete_graph(3)),
                graph_from_json(graph_to_json(rook_graph([3, 3])))]
    for g in plain + labelled:
        edges = sum(g.mult[u][v] for u in range(g.n) for v in range(u + 1, g.n))
        assert g.genus() == edges - g.n + 1
    for g in labelled:
        assert g.labels() == tuple(itertools.product(*map(range, g.dims)))
        for v, label in enumerate(g.labels()):
            assert g.label_to_index(label) == v
    for g in plain:
        with pytest.raises(ValueError):
            g.labels()


def test_graph_cache_is_empty_after_construction():
    rng = random.Random(2513)
    for g in _level_graphs(rng) + [
            rook_graph([3, 3]), complete_graph(3),
            oracles.cartesian_product(complete_graph(2), complete_graph(2)),
            graph_from_json(graph_to_json(rook_graph([2, 3])))]:
        assert g._cache == {}


def test_label_helpers_require_dims():
    g = MultiGraph([[0, 1], [1, 0]])
    assert g.dims is None
    with pytest.raises(ValueError):
        g.vertex_label(0)
    with pytest.raises(ValueError):
        g.label_to_index((0,))


# ======================================================================
# connected subsets
# ======================================================================

def test_connected_subsets_counts_small():
    g = rook_graph([2, 3])
    assert sum(1 for _ in connected_subsets(g, 1)) == 6
    assert sum(1 for _ in connected_subsets(g, 2)) == 9   # one per edge
    assert sum(1 for _ in connected_subsets(g, 3)) == 14
    assert sum(1 for _ in connected_subsets(g, 6)) == 1


def test_connected_subsets_match_oracle():
    rng = random.Random(4101)
    for _ in range(20):
        g = random_multigraph(rng, max_n=6, max_extra=4)
        k = rng.randint(1, g.n)
        got = sorted(connected_subsets(g, k))
        want = sorted(oracles.connected_subsets(g, k))
        assert got == want


def test_connected_subsets_are_sorted_unique():
    g = rook_graph([3, 3])
    subs = list(connected_subsets(g, 3))
    assert all(s == tuple(sorted(s)) for s in subs)
    assert len(subs) == len(set(subs))


def test_connected_masks_decode_to_connected_subsets():
    # the mask stream, decoded bit by bit, is the tuple stream in order
    hosts = [complete_graph(5), rook_graph([2, 3]), rook_graph([3, 3]),
             rook_graph([2, 2, 2]),
             MultiGraph([[0, 2, 1, 0], [2, 0, 0, 3], [1, 0, 0, 1], [0, 3, 1, 0]])]
    for g in hosts:
        for k in range(1, g.n + 1):
            masks = list(connected_masks(g, k))
            decoded = [tuple(v for v in range(g.n) if m >> v & 1) for m in masks]
            assert decoded == list(connected_subsets(g, k)), (g.n, k)


def test_connected_subsets_rejects_bad_k():
    g = rook_graph([2, 2])
    for k in (0, 5, -1, 2.0, True, "2", None):
        with pytest.raises(ValueError) as masks_err:
            list(connected_masks(g, k))
        with pytest.raises(ValueError) as subsets_err:
            list(connected_subsets(g, k))
        assert str(masks_err.value) == str(subsets_err.value)


# ======================================================================
# vertex sets at the boundary
# ======================================================================

# every public entry that takes a vertex set, called on the 2x3 rook
# graph with that set; vertex 5 stays outside it to serve as a sink
VERTEX_SET_CALLS = {
    "fire_set": lambda g, vs: fire_set(g, [1] * g.n, vs),
    "cut_weight": cut_weight,
    "induced_components": induced_components,
    "min_cut_between source": lambda g, vs: min_cut_between(g, vs, [5]),
    "min_cut_between sink": lambda g, vs: min_cut_between(g, [5], vs),
    "min_cut_value": lambda g, vs: min_cut_value(g, vs, [5]),
    "Scramble": lambda g, vs: Scramble(g, [vs]).eggs,
}


@pytest.mark.parametrize("call", VERTEX_SET_CALLS.values(), ids=VERTEX_SET_CALLS)
def test_vertex_sets_share_one_check(call):
    g = rook_graph([2, 3])
    for bad in (True, 1.5, "0", -1, g.n):
        with pytest.raises(ValueError, match="out of range"):
            call(g, [0, 1, bad])
    # repeats and order do not matter
    assert call(g, [3, 1, 0, 1, 3]) == call(g, [0, 1, 3])


# ======================================================================
# cuts
# ======================================================================

def test_cut_weight_examples():
    g = rook_graph([3, 3])
    row = [0, 1, 2]
    # each row vertex has 2 edges to its column below
    assert cut_weight(g, row) == 6
    assert cut_weight(g, [0]) == 4
    assert cut_weight(g, range(9)) == 0
    with pytest.raises(ValueError):
        cut_weight(g, [0, 9])


def test_cut_weight_matches_oracle():
    rng = random.Random(4102)
    for _ in range(25):
        g = random_multigraph(rng, max_n=6)
        r = rng.randint(0, g.n)
        side = rng.sample(range(g.n), r)
        assert cut_weight(g, side) == oracles.cut_weight(g, side)
    # multiplicities 1, 3 and 7 at one vertex, and one edge of 10**9
    skipped = MultiGraph([[0, 1, 3, 7], [1, 0, 0, 3], [3, 0, 0, 1], [7, 3, 1, 0]])
    huge = MultiGraph([[0, 10**9, 0], [10**9, 0, 1], [0, 1, 0]])
    for g in (skipped, huge):
        for r in range(g.n + 1):
            for side in itertools.combinations(range(g.n), r):
                assert cut_weight(g, side) == oracles.cut_weight(g, side)


def test_min_cut_between_matches_oracle():
    rng = random.Random(4103)
    for _ in range(30):
        g = random_multigraph(rng, max_n=6, max_extra=5)
        if g.n < 2:
            continue
        s, t = rng.sample(range(g.n), 2)
        res = min_cut_between(g, [s], [t])
        assert res.value == oracles.min_cut(g, [s], [t])
        # the witness side is a real cut of the stated weight
        assert s in res.source_side and t not in res.source_side
        assert cut_weight(g, res.source_side) == res.value


def test_min_cut_between_side_is_minimal():
    # the side is the intersection of every minimum cut side that holds
    # s and avoids t, not just some side of the right weight
    rng = random.Random(4105)
    cases = []
    for _ in range(25):
        g = random_multigraph(rng, max_n=7, max_extra=6)
        s, t = rng.sample(range(g.n), 2)
        cases.append((g, [s], [t]))
    for dims in ([2, 3], [3, 3], [2, 2, 2]):
        g = rook_graph(dims)
        for _ in range(8):
            picked = rng.sample(range(g.n), rng.randint(2, 4))
            cut = rng.randint(1, len(picked) - 1)
            cases.append((g, picked[:cut], picked[cut:]))
    for g, s, t in cases:
        res = min_cut_between(g, s, t)
        assert res.source_side == oracles.minimal_min_cut_side(g, s, t)
        assert res.value == oracles.min_cut(g, s, t)


def test_min_cut_between_vertex_sets():
    g = rook_graph([3, 3])
    res = min_cut_between(g, [0, 1, 2], [6, 7, 8])  # top row vs bottom row
    assert res.value == oracles.min_cut(g, [0, 1, 2], [6, 7, 8]) == 6
    assert set(res.source_side) >= {0, 1, 2}
    assert not set(res.source_side) & {6, 7, 8}


def test_min_cut_between_rejects_overlap():
    g = rook_graph([2, 2])
    with pytest.raises(ValueError):
        min_cut_between(g, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        min_cut_between(g, [], [1])


def test_min_cut_value_cutoff_semantics():
    g = rook_graph([3, 3])
    true_cut = oracles.min_cut(g, [0], [8])
    full = min_cut_value(g, [0], [8])
    assert full == (true_cut, True)
    low = min_cut_value(g, [0], [8], cutoff=2)
    assert low == (2, False)       # stopped early: only a lower bound
    high = min_cut_value(g, [0], [8], cutoff=true_cut + 3)
    assert high == (true_cut, True)
    at = min_cut_value(g, [0], [8], cutoff=true_cut)
    assert at == (true_cut, False)  # reached the cutoff, so not certified


def test_min_cut_value_cutoff_on_multigraphs():
    # vertex sets on both sides, cutoffs below, at and above the true cut
    rng = random.Random(4107)
    cases = []
    for _ in range(25):
        g = random_multigraph(rng, max_n=7, max_extra=8)
        picked = rng.sample(range(g.n), rng.randint(2, g.n))
        cut = rng.randint(1, len(picked) - 1)
        cases.append((g, picked[:cut], picked[cut:]))
    huge = MultiGraph([[0, 10**9, 0], [10**9, 0, 1], [0, 1, 0]])
    cases += [(huge, [0], [1, 2]), (huge, [0, 1], [2]), (huge, [1], [0, 2])]
    for g, s, t in cases:
        true_cut = oracles.min_cut(g, s, t)
        assert min_cut_value(g, s, t) == (true_cut, True)
        for cutoff in (1, true_cut // 2, true_cut - 1, true_cut,
                       true_cut + 1, 2 * true_cut + 5):
            value, exact = min_cut_value(g, s, t, cutoff=cutoff)
            assert exact == (true_cut < cutoff), (s, t, cutoff)
            if exact:
                assert value == true_cut
            else:
                assert cutoff <= value <= true_cut


def test_min_cut_parallel_edges():
    g = MultiGraph([[0, 2, 0], [2, 0, 3], [0, 3, 0]])
    assert min_cut_between(g, [0], [2]).value == 2
    assert min_cut_between(g, [1], [2]).value == 3


# ======================================================================
# JSON round trip
# ======================================================================

def test_graph_json_roundtrip():
    for g in (rook_graph([2, 3]), complete_graph(4),
              MultiGraph([[0, 2], [2, 0]])):
        data = graph_to_json(g)
        back = graph_from_json(data)
        assert back.mult == g.mult
        assert back.dims == g.dims


def test_graph_json_shape():
    data = graph_to_json(rook_graph([2, 2]))
    assert data["vertex_count"] == 4
    assert data["dims"] == [2, 2]
    assert data["edges"] == [[0, 1, 1], [0, 2, 1], [1, 3, 1], [2, 3, 1]]
    plain = graph_to_json(MultiGraph([[0, 2], [2, 0]]))
    assert plain["dims"] is None
    assert plain["edges"] == [[0, 1, 2]]


def test_graph_json_rejects_malformed():
    with pytest.raises(ValueError):
        graph_from_json([1, 2])
    with pytest.raises(ValueError):
        graph_from_json({"vertex_count": 2})
    with pytest.raises(ValueError):
        graph_from_json({"vertex_count": 2, "edges": [[0, 1]]})
    with pytest.raises(ValueError):
        graph_from_json({"vertex_count": 2, "edges": [[0, 1, True]]})
    for dims in ([2.0], ["2"], [True], "2", 2):
        with pytest.raises(ValueError):
            graph_from_json({"vertex_count": 2, "edges": [[0, 1, 1]],
                             "dims": dims})
    # a non-list edges value used to raise TypeError from the edge loop
    for edges in (5, None, 1.5, True, "01"):
        with pytest.raises(ValueError):
            graph_from_json({"vertex_count": 2, "edges": edges})
    # too few edges to connect, or too many vertices: refused before the
    # n × n matrix is built
    with pytest.raises(ValueError, match="connected"):
        graph_from_json({"vertex_count": 100000, "edges": []})
    n = MAX_JSON_VERTICES + 1
    path = [[u, u + 1, 1] for u in range(n - 1)]
    with pytest.raises(ValueError, match="above the limit"):
        graph_from_json({"vertex_count": n, "edges": path})
