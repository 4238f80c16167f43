"""Graph construction, subset enumeration, and min-cut tests."""

import random

import pytest

import oracles
from rookgon import (
    MultiGraph,
    Scramble,
    cartesian_product,
    complete_graph,
    connected_masks,
    connected_subsets,
    cut_weight,
    fire_set,
    graph_from_json,
    graph_to_json,
    induced_components,
    is_connected_subset,
    min_cut_between,
    min_cut_value,
    rook_graph,
)


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
    got = cartesian_product(complete_graph(2), complete_graph(3))
    want = rook_graph([2, 3])
    assert got.mult == want.mult


def test_rook_graph_three_factors():
    g = rook_graph([2, 2, 3])
    assert g.n == 12
    assert g.dims == (2, 2, 3)
    assert g.degrees == (1 + 1 + 2,) * 12
    h = cartesian_product(cartesian_product(complete_graph(2),
                                            complete_graph(2)),
                          complete_graph(3))
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

def test_is_connected_subset_basics():
    g = rook_graph([2, 3])
    assert is_connected_subset(g, [0])
    assert is_connected_subset(g, [0, 1, 2])          # a row
    assert is_connected_subset(g, [0, 3])             # a column
    assert not is_connected_subset(g, [0, 4])         # diagonal pair
    assert not is_connected_subset(g, [])
    assert is_connected_subset(g, [0, 0, 1])  # duplicates collapse
    with pytest.raises(ValueError):
        is_connected_subset(g, [0, 6])
    with pytest.raises(ValueError):
        is_connected_subset(g, [0, True])


def test_connected_subsets_counts_small():
    g = rook_graph([2, 3])
    assert sum(1 for _ in connected_subsets(g, 1)) == 6
    assert sum(1 for _ in connected_subsets(g, 2)) == 9   # one per edge
    assert sum(1 for _ in connected_subsets(g, 3)) == 14
    assert sum(1 for _ in connected_subsets(g, 6)) == 1


def test_connected_subsets_match_oracle():
    rng = random.Random(4101)
    for _ in range(20):
        g = oracles.random_multigraph(rng, max_n=6, max_extra=4)
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
    "is_connected_subset": is_connected_subset,
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
        g = oracles.random_multigraph(rng, max_n=6)
        r = rng.randint(0, g.n)
        side = rng.sample(range(g.n), r)
        assert cut_weight(g, side) == oracles.cut_weight(g, side)


def test_min_cut_between_matches_oracle():
    rng = random.Random(4103)
    for _ in range(30):
        g = oracles.random_multigraph(rng, max_n=6, max_extra=5)
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
        g = oracles.random_multigraph(rng, max_n=7, max_extra=6)
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
