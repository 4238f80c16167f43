"""Chip-firing tests: firing, burning, reduction, winnability, rank."""

import itertools
import random

import pytest

import oracles
from rookgon import (
    MultiGraph,
    SymmetryGroup,
    complete_graph,
    degree,
    dhar_burn,
    divisor_from_json,
    divisor_to_json,
    divisors,
    equivalent,
    fire_set,
    is_effective_away_from,
    is_winnable,
    rank,
    rank_at_least,
    rook_graph,
    v_reduce,
    verify_rank_at_least,
)
from rookgon.suite import _random_multigraph as random_multigraph


def canonical_divisor(g):
    return [g.degrees[v] - 2 for v in range(g.n)]


def random_divisor(rng, n, lo=-2, hi=3):
    return [rng.randint(lo, hi) for _ in range(n)]


# ======================================================================
# basics
# ======================================================================

def test_degree():
    assert degree([1, -2, 4]) == 3
    assert degree([]) == 0


def test_is_effective_away_from():
    assert is_effective_away_from([0, 1, 2])
    assert not is_effective_away_from([0, -1, 2])
    assert is_effective_away_from([0, -1, 2], 1)
    assert not is_effective_away_from([-1, -1, 2], 1)


def test_fire_set_moves_chips_along_boundary():
    g = rook_graph([2, 2])
    # fire the top row: each vertex sends one chip down its column
    assert fire_set(g, [2, 2, 0, 0], [0, 1]) == [1, 1, 1, 1]
    # firing everything changes nothing
    assert fire_set(g, [1, 0, 2, 3], range(4)) == [1, 0, 2, 3]


def test_fire_set_matches_laplacian():
    rng = random.Random(4301)
    for _ in range(40):
        g = random_multigraph(rng, max_n=6)
        d = random_divisor(rng, g.n)
        r = rng.randint(1, g.n)
        sub = rng.sample(range(g.n), r)
        counts = [1 if v in sub else 0 for v in range(g.n)]
        moved = oracles.laplacian_image(g, counts)
        assert fire_set(g, d, sub) == [d[i] + moved[i] for i in range(g.n)]


def test_fire_set_inverse_of_complement():
    rng = random.Random(4302)
    for _ in range(40):
        g = random_multigraph(rng, max_n=6)
        d = random_divisor(rng, g.n)
        r = rng.randint(1, g.n - 1)
        sub = rng.sample(range(g.n), r)
        comp = [v for v in range(g.n) if v not in sub]
        assert fire_set(g, fire_set(g, d, sub), comp) == d


def test_fire_set_validation():
    g = rook_graph([2, 2])
    assert fire_set(g, [1, 2, 3, 4], []) == [1, 2, 3, 4]  # empty: no-op
    with pytest.raises(ValueError):
        fire_set(g, [0, 0, 0, 0], [4])
    with pytest.raises(ValueError):
        fire_set(g, [0, 0, 0], [0])


# ======================================================================
# burning
# ======================================================================

def test_dhar_burn_concrete():
    g = rook_graph([2, 2])
    rep = dhar_burn(g, [2, 0, 0, 0], 3)
    assert rep.burnt == (1, 2, 3)
    assert rep.unburnt == (0,)
    assert rep.source == 3
    assert rep.burning_edges == (2, 1, 1, 2)


def test_dhar_burn_everything_burns_on_zero():
    g = complete_graph(4)
    rep = dhar_burn(g, [0, 0, 0, 0], 0)
    assert rep.unburnt == ()
    assert set(rep.burnt) == {0, 1, 2, 3}


def test_dhar_burn_unburnt_is_union_of_firable_sets():
    # exhaustive over all chip vectors bounded by the degree, K2..K5
    for n in range(2, 6):
        g = complete_graph(n)
        deg = n - 1
        others = list(range(1, n))
        subsets = [s for r in range(1, n)
                   for s in itertools.combinations(others, r)]
        for chips_rest in itertools.product(range(deg + 1), repeat=n - 1):
            chips = [0] + list(chips_rest)
            union = set()
            for sub in subsets:
                if all(chips[v] >= sum(m for w, m in g.adj[v]
                                       if w not in sub) for v in sub):
                    union.update(sub)
            assert set(dhar_burn(g, chips, 0).unburnt) == union


def test_burn_resumed_from_a_richer_divisor_matches_a_fresh_burn():
    # the plain gonality scan resumes the burn on a divisor from the burn
    # on one that holds at least as many chips everywhere
    from rookgon import divisors

    rng = random.Random(4318)
    for _ in range(200):
        g = random_multigraph(rng, max_n=7)
        rich = [rng.randint(0, 4) for _ in range(g.n)]
        poor = [rng.randint(0, x) for x in rich]
        v = rng.randrange(g.n)
        start = divisors._burn(g, rich, v)
        resumed, fresh = divisors._burn(g, poor, v, start), divisors._burn(g, poor, v)
        assert (resumed[0], list(resumed[1])) == (fresh[0], list(fresh[1]))


def test_dhar_burn_unburnt_set_is_firable_random():
    rng = random.Random(4303)
    for _ in range(60):
        g = random_multigraph(rng, max_n=7)
        d = [rng.randint(0, 4) for _ in range(g.n)]
        src = rng.randrange(g.n)
        rep = dhar_burn(g, d, src)
        assert src in rep.burnt
        assert set(rep.burnt) | set(rep.unburnt) == set(range(g.n))
        assert not set(rep.burnt) & set(rep.unburnt)
        if rep.unburnt:
            fired = fire_set(g, d, rep.unburnt)
            assert all(fired[v] >= 0 for v in rep.unburnt)


def test_dhar_burn_pins_burnt_set_tallies_on_a_multigraph():
    # each tally is the multiplicity of edges into the final burnt set, so
    # when everything burns it is the degree, whatever the source
    g = MultiGraph([[0, 3, 1, 0, 2],
                    [3, 0, 0, 4, 1],
                    [1, 0, 0, 2, 0],
                    [0, 4, 2, 0, 1],
                    [2, 1, 0, 1, 0]])
    cases = [
        ([0, 2, 1, 3, 1], 0, ((0, 1, 2, 3, 4), (), 0, (6, 8, 3, 7, 4))),
        ([5, 0, 1, 2, 0], 3, ((0, 1, 2, 3, 4), (), 3, (6, 8, 3, 7, 4))),
        ([1, 3, 2, 0, 2], 4, ((0, 1, 2, 3, 4), (), 4, (6, 8, 3, 7, 4))),
        ([0, 3, 0, 5, 3], 0, ((0, 2), (1, 3, 4), 0, (1, 3, 1, 2, 2))),
        ([2, 2, 2, 2, 2], 1, ((0, 1, 2, 3, 4), (), 1, (6, 8, 3, 7, 4))),
    ]
    for d, src, want in cases:
        assert tuple(dhar_burn(g, d, src)) == want, (d, src)


def test_dhar_burn_tallies_match_multiplicities_random():
    rng = random.Random(5581)
    for _ in range(80):
        g = random_multigraph(rng, max_n=7)
        d = [rng.randint(0, 5) for _ in range(g.n)]
        src = rng.randrange(g.n)
        d[src] = rng.randint(-3, 3)
        rep = dhar_burn(g, d, src)
        for u in range(g.n):
            want = sum(g.mult[u][w] for w in rep.burnt)
            assert rep.burning_edges[u] == want, (g.mult, d, src, u)
            if u in rep.unburnt:
                assert want <= d[u]
            elif u != src:
                assert want > d[u]


def test_dhar_burn_tallies_on_skipped_and_huge_multiplicities():
    # multiplicities 1, 3 and 7 at one vertex, and one edge of 10**9
    skipped = MultiGraph([[0, 1, 3, 7], [1, 0, 0, 3], [3, 0, 0, 1], [7, 3, 1, 0]])
    huge = MultiGraph([[0, 10**9, 0], [10**9, 0, 1], [0, 1, 0]])
    rng = random.Random(5582)
    for g in (skipped, huge):
        for _ in range(60):
            d = [rng.choice([0, 1, 2, 3, 5, 8, 10**9 - 1, 10**9]) for _ in range(g.n)]
            src = rng.randrange(g.n)
            rep = dhar_burn(g, d, src)
            for u in range(g.n):
                want = sum(g.mult[u][w] for w in rep.burnt)
                assert rep.burning_edges[u] == want, (g.mult, d, src, u)
                if u in rep.unburnt:
                    assert want <= d[u]
                elif u != src:
                    assert want > d[u]


def test_rank_leaves_only_search_memos_in_the_graph_cache():
    rng = random.Random(5583)
    hosts = [rook_graph([2, 3]), complete_graph(4)]
    hosts += [random_multigraph(rng, max_n=5) for _ in range(6)]
    for g in hosts:
        assert g._cache == {}
        for _ in range(4):
            d = random_divisor(rng, g.n, lo=-1, hi=2)
            rank(g, d)
            for v in range(g.n):
                v_reduce(g, d, v)
            is_winnable(g, d)
            equivalent(g, d, random_divisor(rng, g.n, lo=-1, hi=2))
        assert set(g._cache) <= {"rank_ge"}, sorted(map(repr, g._cache))
    g = rook_graph([2, 3])
    assert rank(g, [1, 0, 0, 0, 0, 0]) == 0
    assert "rank_ge" in g._cache
    v_reduce(g, [-1, 0, 0, 0, 0, 1], 5)
    assert set(g._cache) <= {"rank_ge"}


def test_dhar_burn_validation():
    g = rook_graph([2, 2])
    with pytest.raises(ValueError):
        dhar_burn(g, [0, 0, 0, 0], 4)
    with pytest.raises(ValueError):
        dhar_burn(g, [0, 0, 0], 0)


# ======================================================================
# reduction
# ======================================================================

def test_v_reduce_concrete():
    g = rook_graph([2, 2])
    res = v_reduce(g, [2, 0, 0, 0], 2)
    assert res.reduced == [0, 1, 1, 0]
    assert res.firing_counts == [1, 0, 0, 0]


def test_v_reduce_identity_on_reduced():
    g = rook_graph([2, 2])
    res = v_reduce(g, [0, 1, 1, 0], 2)
    assert res.reduced == [0, 1, 1, 0]
    assert res.firing_counts == [0, 0, 0, 0]


def test_v_reduce_properties_random():
    rng = random.Random(4304)
    for _ in range(60):
        g = random_multigraph(rng, max_n=6)
        d = random_divisor(rng, g.n)
        v = rng.randrange(g.n)
        res = v_reduce(g, d, v)
        # the firing counts hit the stated result and fix the base
        assert res.firing_counts[v] == 0
        moved = oracles.laplacian_image(g, res.firing_counts)
        assert res.reduced == [d[i] + moved[i] for i in range(g.n)]
        # definitional reducedness and idempotence
        assert oracles.is_reduced(g, res.reduced, v)
        again = v_reduce(g, res.reduced, v)
        assert again.reduced == res.reduced
        assert again.firing_counts == [0] * g.n


def heavy_multigraph(rng, n):
    """A connected multigraph whose pair multiplicities are drawn from 0-4,
    with at least one pair joined by 3 or more edges."""
    while True:
        mult = [[0] * n for _ in range(n)]
        for u in range(n):
            for w in range(u + 1, n):
                mult[u][w] = mult[w][u] = rng.randint(0, 4)
        if max(map(max, mult)) < 3:
            continue
        try:
            return MultiGraph(mult)
        except ValueError:  # disconnected
            continue


def test_reduction_and_rank_on_heavy_multigraphs():
    # reductions burn on per-multiplicity neighbour masks; heavy edges
    # exercise every layer of them
    rng = random.Random(4317)
    for _ in range(40):
        g = heavy_multigraph(rng, rng.randint(2, 6))
        for _ in range(6):
            d = random_divisor(rng, g.n, lo=-4, hi=6)
            v = rng.randrange(g.n)
            res = v_reduce(g, d, v)
            assert res.firing_counts[v] == 0
            moved = oracles.laplacian_image(g, res.firing_counts)
            assert res.reduced == [d[i] + moved[i] for i in range(g.n)]
            assert oracles.is_reduced(g, res.reduced, v)
            again = v_reduce(g, res.reduced, v)
            assert again.reduced == res.reduced
            assert again.firing_counts == [0] * g.n
    for _ in range(12):
        g = heavy_multigraph(rng, rng.randint(2, 5))
        ge = oracles.class_rank_at_least(g)
        for _ in range(10):
            d = random_divisor(rng, g.n, lo=-1, hi=4)
            for k in range(0, 4):
                assert rank_at_least(g, d, k) == ge(d, k), (g.mult, d, k)


def test_deep_debt_reductions_fire_balls_many_times(monkeypatch):
    # debt down to -30 on 2x2x2x2 and a 12-cycle (diameters 4 and 6) and
    # on heavy multigraphs: _clear_debt fires each distance ball as often
    # as its farthest debt needs in one call
    rng = random.Random(4319)
    cycle = [[0] * 12 for _ in range(12)]
    for u in range(12):
        w = (u + 1) % 12
        cycle[u][w] = cycle[w][u] = rng.randint(1, 3)
    hosts = [(rook_graph([2, 2, 2, 2]), 3), (MultiGraph(cycle), 8)]
    hosts += [(heavy_multigraph(rng, rng.randint(4, 7)), 4) for _ in range(4)]
    fire, fired = divisors._fire, []

    def recording(g, chips, verts, mask, counts, times=1):
        fired.append(times)
        fire(g, chips, verts, mask, counts, times)

    monkeypatch.setattr(divisors, "_fire", recording)
    for g, cases in hosts:
        fired.clear()
        for _ in range(cases):
            d = random_divisor(rng, g.n, lo=-30, hi=12)
            v = rng.randrange(g.n)
            res = v_reduce(g, d, v)
            assert res.firing_counts[v] == 0
            moved = oracles.laplacian_image(g, res.firing_counts)
            assert res.reduced == [d[i] + moved[i] for i in range(g.n)]
            assert oracles.is_reduced(g, res.reduced, v), (g.mult, d, v)
        assert max(fired) > 1, g.mult  # some ball fired more than once


def test_v_reduce_unique_per_class():
    # equivalent divisors reduce to the same vector, inequivalent do not
    rng = random.Random(4305)
    for _ in range(30):
        g = random_multigraph(rng, max_n=5)
        d = random_divisor(rng, g.n)
        v = rng.randrange(g.n)
        counts = [rng.randint(0, 2) for _ in range(g.n)]
        moved = oracles.laplacian_image(g, counts)
        shifted = [d[i] + moved[i] for i in range(g.n)]
        assert v_reduce(g, shifted, v).reduced == v_reduce(g, d, v).reduced
        bumped = list(d)
        bumped[rng.randrange(g.n)] += 1  # degree changes: new class
        assert v_reduce(g, bumped, v).reduced != v_reduce(g, d, v).reduced


def test_v_reduce_validation():
    g = rook_graph([2, 2])
    with pytest.raises(ValueError):
        v_reduce(g, [0, 0, 0, 0], 5)
    with pytest.raises(ValueError):
        v_reduce(g, [0, 0], 0)
    with pytest.raises(ValueError):
        v_reduce(g, [0, 0, 0, True], 0)


# ======================================================================
# equivalence and winnability
# ======================================================================

def test_equivalent_concrete():
    g = rook_graph([2, 2])
    assert equivalent(g, [2, 0, 0, 0], [0, 1, 1, 0])
    assert not equivalent(g, [2, 0, 0, 0], [0, 0, 2, 0])
    assert not equivalent(g, [1, 0, 0, 0], [0, 0, 0, 2])  # degree mismatch


def test_equivalent_matches_linear_algebra_oracle():
    rng = random.Random(4306)
    for _ in range(50):
        g = random_multigraph(rng, max_n=5)
        d1 = random_divisor(rng, g.n)
        d2 = random_divisor(rng, g.n)
        assert equivalent(g, d1, d2) == oracles.equivalent(g, d1, d2)


def test_is_winnable_matches_oracle():
    rng = random.Random(4307)
    for _ in range(40):
        g = random_multigraph(rng, max_n=4, max_extra=3)
        d = random_divisor(rng, g.n, lo=-2, hi=2)
        assert is_winnable(g, d) == oracles.winnable(g, d)


def test_is_winnable_edges():
    g = complete_graph(3)
    assert not is_winnable(g, [-1, 0, 0])   # negative degree
    assert is_winnable(g, [0, 0, 0])
    assert is_winnable(g, [-1, 2, 0])       # degree above genus - 1
    # degree 0 but a nonzero class in the Z/3 chip group of a triangle
    assert not is_winnable(g, [-1, 1, 0])
    assert not is_winnable(g, [-1, -1, 1])


# ======================================================================
# rank
# ======================================================================

def test_rank_concrete():
    g = complete_graph(3)
    assert rank(g, [-1, 0, 0]) == -1
    assert rank(g, [0, 0, 0]) == 0
    assert rank(g, [1, 1, 0]) == 1
    assert rank(g, [1, 1, 1]) == 2  # canonical divisor of K3, genus 1


def test_rank_matches_definitional_oracle():
    rng = random.Random(4308)
    for _ in range(25):
        g = random_multigraph(rng, max_n=4, max_extra=3)
        d = random_divisor(rng, g.n, lo=-1, hi=2)
        assert rank(g, d) == oracles.rank(g, d)


def test_rank_riemann_roch_identity():
    rng = random.Random(4309)
    for _ in range(40):
        g = random_multigraph(rng, max_n=6)
        d = random_divisor(rng, g.n)
        k = canonical_divisor(g)
        kd = [k[i] - d[i] for i in range(g.n)]
        genus = g.genus()
        assert rank(g, d) - rank(g, kd) == degree(d) - genus + 1


def test_rank_above_canonical_degree_matches_oracle():
    # Riemann–Roch: past degree 2g - 2 the rank is deg - g, with no search
    rng = random.Random(4314)
    for _ in range(15):
        g = random_multigraph(rng, max_n=4, max_extra=2)
        genus = g.genus()
        d = random_divisor(rng, g.n, lo=-1, hi=2)
        d[rng.randrange(g.n)] += 2 * genus - 1 + rng.randint(0, 1) - degree(d)
        want = degree(d) - genus
        assert oracles.rank(g, d) == want
        assert rank(g, d) == want
        assert rank_at_least(g, d, want) and not rank_at_least(g, d, want + 1)
        assert "rank" not in g._cache and "rank_ge" not in g._cache


def test_rank_monotone_in_chips():
    rng = random.Random(4310)
    for _ in range(30):
        g = random_multigraph(rng, max_n=5)
        d = random_divisor(rng, g.n)
        bumped = list(d)
        bumped[rng.randrange(g.n)] += 1
        assert rank(g, bumped) >= rank(g, d)


def test_rank_invariant_under_equivalence():
    rng = random.Random(4311)
    for _ in range(25):
        g = random_multigraph(rng, max_n=5)
        d = random_divisor(rng, g.n)
        counts = [rng.randint(0, 2) for _ in range(g.n)]
        moved = oracles.laplacian_image(g, counts)
        shifted = [d[i] + moved[i] for i in range(g.n)]
        assert rank(g, shifted) == rank(g, d)


def test_rank_at_least_consistent_with_rank():
    rng = random.Random(4312)
    for _ in range(25):
        g = random_multigraph(rng, max_n=5)
        d = random_divisor(rng, g.n, lo=-1, hi=2)
        r = rank(g, d)
        for k in range(0, r + 2):
            assert rank_at_least(g, d, k) == (k <= r)


def _check_rank_at_least(g, divisors, max_k):
    ge = oracles.class_rank_at_least(g)
    for d in divisors:
        d = list(d)
        base = v_reduce(g, d, 0).reduced[0]
        for k in range(max_k + 1):
            got = rank_at_least(g, d, k)
            assert got == ge(d, k), (g.mult, d, k)
            if base < k:
                # the 0-reduced form keeps fewer than k chips at vertex 0
                assert not got, (g.mult, d, k)


def test_rank_at_least_sweeps_every_small_divisor():
    k4 = [[int(i != j) for j in range(4)] for i in range(4)]
    k4[0][1] = k4[1][0] = 2
    hosts = [rook_graph([2, 3]), rook_graph([2, 2, 2]), MultiGraph(k4)]
    for g in hosts:
        _check_rank_at_least(g, itertools.product(range(-1, 3), repeat=g.n), 3)


def test_rank_at_least_random_multigraphs():
    rng = random.Random(4315)
    hosts = 0
    while hosts < 40:
        g = random_multigraph(rng, max_n=7)
        if max(max(row) for row in g.mult) < 2:
            continue
        hosts += 1
        divisors = [random_divisor(rng, g.n, lo=-1, hi=3) for _ in range(25)]
        _check_rank_at_least(g, divisors, 4)


def test_poorest_vertex_burn_refutes_only_low_rank():
    # the gonality scan drops a divisor on this refutation before any rank
    # test, so every refutation must rest on a reduced form at the poorest
    # vertex with fewer than k chips there, and the class oracle must agree
    # that rank(c) < k
    rng = random.Random(4317)
    hosts = [(rook_graph([2, 3]), 4), (rook_graph([3, 3]), 4),
             (rook_graph([2, 2, 2]), 4)]
    while len(hosts) < 7:
        g = random_multigraph(rng, max_n=6)
        if max(max(row) for row in g.mult) > 1:
            hosts.append((g, 4))
    past_first_burn = 0
    for g, top in hosts:
        ge = oracles.class_rank_at_least(g)
        refuted = kept = 0
        for deg in range(top + 1):
            for c in oracles.effective_divisors(g.n, deg):
                v = c.index(min(c))
                red = None
                for k in (1, 2, 3):
                    if divisors._refuted_at_poorest(g, c, k):
                        refuted += 1
                        if red is None:
                            red = v_reduce(g, c, v).reduced
                            assert oracles.is_reduced(g, red, v), (g.mult, c)
                            assert oracles.equivalent(g, red, c), (g.mult, c)
                            past_first_burn += red != list(c)
                        assert red[v] < k, (g.mult, c, k)
                        assert not ge(c, k), (g.mult, c, k)
                    elif not ge(c, k):
                        kept += 1
        assert refuted and kept, g.mult
    # some refutations must have needed the reduction past the first burn
    assert past_first_burn


def test_class_rank_oracle_matches_definitional_rank():
    rng = random.Random(4316)
    for _ in range(30):
        g = random_multigraph(rng, max_n=4, max_extra=3)
        ge = oracles.class_rank_at_least(g)
        d = random_divisor(rng, g.n, lo=-1, hi=2)
        r = oracles.rank(g, d)
        assert [ge(d, k) for k in range(-1, r + 3)] == [True] * (r + 2) + [False] * 2


def test_rank_at_least_negative_k_is_trivially_true():
    g = rook_graph([2, 2])
    assert rank_at_least(g, [-5, 0, 0, 0], -1)
    assert rank_at_least(g, [0, 0, 0, 0], -3)


def test_rank_at_least_rejects_non_integer_k():
    g = rook_graph([2, 3])
    for k in (1.5, 2.0, True, False, "1", None):
        with pytest.raises(ValueError):
            rank_at_least(g, [2, 1, 1, 1, 0, 0], k)


# ======================================================================
# rank certification
# ======================================================================

def test_verify_rank_at_least_agrees_with_rank():
    rng = random.Random(4313)
    for _ in range(20):
        g = random_multigraph(rng, max_n=5)
        d = random_divisor(rng, g.n, lo=-1, hi=2)
        r = rank(g, d)
        for k in range(0, min(r, 2) + 2):
            ok, bad = verify_rank_at_least(g, d, k)
            assert ok == (k <= r)
            if not ok:
                # the counterexample is a real theft that loses the game
                assert sum(bad) == k and min(bad) >= 0
                assert not is_winnable(g, [d[i] - bad[i]
                                           for i in range(g.n)])
            else:
                assert bad is None


def test_verify_rank_at_least_counterexamples():
    g = rook_graph([2, 3])
    d = [0, 0, 0, 1, 1, 1]
    for k in (0, 1):
        assert verify_rank_at_least(g, d, k) == (True, None)
    ok, bad = verify_rank_at_least(g, d, 2)
    assert not ok
    assert degree(bad) == 2
    assert not is_winnable(g, [d[i] - bad[i] for i in range(6)])

    # (0,4,1,3,2) is not an automorphism of this multigraph; when the
    # check took a group hint, passing it here answered (True, None)
    g = MultiGraph([(0, 2, 1, 1, 0), (2, 0, 0, 2, 0), (1, 0, 0, 0, 1),
                    (1, 2, 0, 0, 0), (0, 0, 1, 0, 0)])
    d = [2, 0, 0, 1, 0]
    assert verify_rank_at_least(g, d, 1) == (False, [0, 1, 0, 0, 0])
    assert rank(g, d) == 0
    with pytest.raises(TypeError):
        verify_rank_at_least(g, d, 1, sym=SymmetryGroup([(0, 4, 1, 3, 2)], 5))


# ======================================================================
# JSON round trip
# ======================================================================

def test_divisor_json_roundtrip():
    d = [0, -1, 3]
    assert divisor_from_json(divisor_to_json(d)) == d


def test_divisor_json_rejects_malformed():
    with pytest.raises(ValueError):
        divisor_from_json({"chips": [0, 1.5]})
    with pytest.raises(ValueError):
        divisor_from_json({"chips": "nope"})
    with pytest.raises(ValueError):
        divisor_from_json({})
    with pytest.raises(ValueError):
        divisor_from_json({"chips": [True, 0]})
