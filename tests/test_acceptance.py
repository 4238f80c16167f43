"""Acceptance criteria: frozen exact values for every published claim.

Each test covers one numbered criterion and ends with a single summary
line; run with -s (or read the -v test lines) for the per-criterion
verdicts.  All comparisons are exact integers.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import oracles
from rookgon import (
    complete_graph,
    connected_subsets,
    cube_diagonal_avoidance,
    degree,
    dhar_burn,
    exhaustive_cut_bound_check,
    fire_set,
    hitting_number,
    k_gonality,
    rank,
    rook_certificate_divisor,
    rook_graph,
    scramble_order,
    square_augmented_scramble,
    staircase_avoidance,
    star_scramble,
    uniform_scramble,
    v_reduce,
    verify_rank_at_least,
)


def gon(dims, k=1, **kw):
    return k_gonality(rook_graph(dims), k=k, symmetry=True, **kw)


def ok(n, msg):
    print(f"[acceptance] criterion {n}: PASS — {msg}")


# ----------------------------------------------------------------------
# 1. exhaustive gonality values
# ----------------------------------------------------------------------

def test_criterion_01_gonality_exhaustive():
    for n, m in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]:
        res = gon([n, m])
        assert res.value == (n - 1) * m, (n, m, res.value)
        assert res.exhaustive
        assert res.refuted_degrees == tuple(range(1, res.value))
    res44 = gon([4, 4])
    assert res44.value == 12
    assert res44.exhaustive
    assert res44.refuted_degrees == tuple(range(1, 12))
    assert res44.orbit_counts == {
        1: 1, 2: 3, 3: 7, 4: 21, 5: 47, 6: 128, 7: 303, 8: 754,
        9: 1735, 10: 3989, 11: 8712,
    }
    ok(1, "gonality of (n-1)m confirmed exhaustively on 2x2, 2x3, 2x4, "
          "3x3, 3x4, 4x4 (degree 11 refuted on 4x4)")


# ----------------------------------------------------------------------
# 2. certificate upper bounds
# ----------------------------------------------------------------------

def test_criterion_02_certificates():
    checked = 0
    for n in range(2, 7):
        for m in range(n, 7):
            g = rook_graph([n, m])
            cert = rook_certificate_divisor([n, m])
            assert sum(cert) == (n - 1) * m
            passed, bad = verify_rank_at_least(g, cert, 1)
            assert passed, f"certificate failed on {(n, m)}: {bad}"
            checked += 1
    for dims in ([2, 2, 2], [2, 2, 3], [2, 3, 3]):
        g = rook_graph(dims)
        cert = rook_certificate_divisor(dims)
        passed, bad = verify_rank_at_least(g, cert, 1)
        assert passed, f"certificate failed on {dims}: {bad}"
        checked += 1
    ok(2, f"empty-row certificates verified rank >= 1 on {checked} hosts "
          "(all 2<=n<=m<=6 plus three 3-factor hosts)")


# ----------------------------------------------------------------------
# 3. higher gonalities
# ----------------------------------------------------------------------

def test_criterion_03_higher_gonalities():
    values = {}
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        g1 = gon([n, m]).value
        g2 = gon([n, m], k=2).value
        g3 = gon([n, m], k=3).value
        assert g2 == n * m - 1, (n, m, g2)
        assert g3 == n * m, (n, m, g3)
        assert g1 <= g2 - 1 <= g3 - 2
        values[(n, m)] = (g1, g2, g3)
    for n in range(2, 5):
        for m in range(n, 5):
            g = rook_graph([n, m])
            passed, bad = verify_rank_at_least(g, [1] * (n * m), 3)
            assert passed, f"all-ones rank-3 failed on {(n, m)}: {bad}"
    ok(3, f"second/third gonality nm-1/nm on {sorted(values)}; chain "
          "gon1 <= gon2-1 <= gon3-2; all-ones has rank >= 3 up to 4x4")


# ----------------------------------------------------------------------
# 4. headline scramble orders
# ----------------------------------------------------------------------

def test_criterion_04_scramble_orders():
    rep = scramble_order(star_scramble(4, 4))
    assert (rep.hitting_number, rep.min_egg_cut, rep.order) == (11, 12, 11)
    assert rep.cut_exact

    n66, _, _ = hitting_number(star_scramble(6, 6))
    assert n66 == 24

    squares = square_augmented_scramble((6, 6))
    nsq, _, _ = hitting_number(squares)
    assert nsq == 27
    floored = scramble_order(squares, cut_mode="floor")
    assert floored.min_egg_cut >= 27
    assert floored.order == 27
    ok(4, "order(3-subset scramble on 4x4) = 11 (hit 11, cut 12); "
          "hitting 24 on 6x6; hitting 27 and cut >= 27 with squares, "
          "so that order is 27")


# ----------------------------------------------------------------------
# 5. scramble families on two-factor hosts
# ----------------------------------------------------------------------

def test_criterion_05_scramble_families():
    for m in range(2, 7):
        assert scramble_order(uniform_scramble(rook_graph([2, m]), 1)).order == m
    for m in range(3, 6):
        assert scramble_order(uniform_scramble(rook_graph([3, m]), 2)).order == 2 * m

    assert hitting_number(star_scramble(4, 6))[0] == 18

    stair = staircase_avoidance(4, 5)
    assert len(stair) == 6
    s45 = star_scramble(4, 5)
    avoid = set(stair)
    assert not any(set(e) <= avoid for e in s45.eggs)
    hit45 = hitting_number(s45)[0]
    assert hit45 == 20 - 6 == 14
    assert hit45 < 15  # the order is at most the hitting number
    ok(5, "uniform orders m (2 rows, m<=6) and 2m (3 rows, 3<=m<=5); "
          "hitting 18 on 4x6; 6-vertex egg-free staircase on 4x5 forces "
          "order below 15")


# ----------------------------------------------------------------------
# 6. three-factor scramble orders
# ----------------------------------------------------------------------

def test_criterion_06_three_factor_orders():
    rep = scramble_order(uniform_scramble(rook_graph([2, 2, 2]), 2))
    assert rep.order == 4
    rep = scramble_order(uniform_scramble(rook_graph([2, 2, 3]), 2))
    assert rep.order == 6
    ok(6, "edge-scramble orders 4 on 2x2x2 and 6 on 2x2x3")


# ----------------------------------------------------------------------
# 7. cube diagonal avoidance
# ----------------------------------------------------------------------

def test_criterion_07_cube_diagonal():
    avoid = cube_diagonal_avoidance(3)
    assert len(avoid) == 10
    host = rook_graph([3, 3, 3])
    from rookgon import induced_components
    comps = induced_components(host, avoid)
    assert sorted(len(c) for c in comps) == [2] * 5
    complement = set(range(27)) - set(avoid)
    assert len(complement) == 17 <= (3 - 1) * 9 - 1
    eggs = list(connected_subsets(host, 3))
    assert len(eggs) == 351
    for egg in eggs:
        assert set(egg) & complement, f"missed egg {egg}"
    ok(7, "10-vertex avoidance set in 5 pairs on the 3x3x3 host; its "
          "17-vertex complement hits all 351 connected 3-subsets")


# ----------------------------------------------------------------------
# 8. cut bound sweep
# ----------------------------------------------------------------------

def test_criterion_08_cut_bound():
    boards = 0
    for n in range(2, 5):
        for m in range(n, 9):
            if n * m > 16:
                continue
            rep = exhaustive_cut_bound_check(n, m)
            assert rep.ok, (n, m, rep.violation)
            assert rep.bound == (n - 1) * m
            assert rep.tight_weight == rep.bound
            boards += 1
    ok(8, f"cut weight >= (n-1)m over every split of {boards} boards "
          "(nm <= 16), tight on a full row")


# ----------------------------------------------------------------------
# 9. core divisor properties
# ----------------------------------------------------------------------

def test_criterion_09_divisor_properties():
    import random

    # reduction: uniqueness per class, idempotence (100 seeded cases)
    rng = random.Random(900)
    for _ in range(100):
        g = oracles.random_multigraph(rng)
        d = [rng.randint(-2, 3) for _ in range(g.n)]
        v = rng.randrange(g.n)
        res = v_reduce(g, d, v)
        assert oracles.is_reduced(g, res.reduced, v)
        again = v_reduce(g, res.reduced, v)
        assert again.reduced == res.reduced
        assert again.firing_counts == [0] * g.n
        counts = [rng.randint(0, 2) for _ in range(g.n)]
        moved = oracles.laplacian_image(g, counts)
        shifted = [d[i] + moved[i] for i in range(g.n)]
        assert v_reduce(g, shifted, v).reduced == res.reduced

    # firing a set then its complement restores the divisor (100 cases)
    rng = random.Random(901)
    for _ in range(100):
        g = oracles.random_multigraph(rng)
        d = [rng.randint(-2, 3) for _ in range(g.n)]
        r = rng.randint(1, g.n - 1)
        sub = rng.sample(range(g.n), r)
        comp = [u for u in range(g.n) if u not in sub]
        assert fire_set(g, fire_set(g, d, sub), comp) == d

    # the unburnt set is the union of all firable sets (exhaustive, K2-K6)
    for n in range(2, 7):
        g = complete_graph(n)
        subsets = [s for r in range(1, n)
                   for s in itertools.combinations(range(1, n), r)]
        for rest in itertools.product(range(n), repeat=n - 1):
            chips = [0] + list(rest)
            union = set()
            for sub in subsets:
                if all(chips[u] >= sum(mm for w, mm in g.adj[u]
                                       if w not in sub) for u in sub):
                    union.update(sub)
            assert set(dhar_burn(g, chips, 0).unburnt) == union

    # duality identity rank(d) - rank(K-d) = deg(d) - genus + 1 (50 cases)
    rng = random.Random(903)
    for _ in range(50):
        g = oracles.random_multigraph(rng, max_n=6)
        d = [rng.randint(-2, 3) for _ in range(g.n)]
        kan = [g.degrees[u] - 2 for u in range(g.n)]
        kd = [kan[i] - d[i] for i in range(g.n)]
        assert rank(g, d) - rank(g, kd) == degree(d) - g.genus() + 1

    # symmetry pruning changes nothing on hosts up to nine vertices
    for dims in ([2, 2], [2, 3], [2, 4], [3, 3], [2, 2, 2]):
        g = rook_graph(dims)
        plain = k_gonality(g)
        pruned = k_gonality(g, symmetry=True)
        assert plain.value == pruned.value
        assert plain.exhaustive == pruned.exhaustive

    ok(9, "reduction uniqueness/idempotence and firing reversibility on "
          "100 seeded cases each; burning maximality exhaustive to K6; "
          "duality identity on 50 cases; symmetry on/off agreement on "
          "all hosts up to 9 vertices")


# ----------------------------------------------------------------------
# 10. determinism across worker counts
# ----------------------------------------------------------------------

def test_criterion_10_determinism():
    # every --threads value runs the same serial scan, so one --threads 8
    # run is byte-compared with a report frozen from a --threads 1 run
    frozen = Path(__file__).parent / "frozen" / "verify-standard-seed0.report"
    proc = subprocess.run(
        [sys.executable, "-m", "rookgon.cli", "verify",
         "--suite", "standard", "--seed", "0", "--threads", "8"],
        capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == frozen.read_bytes()
    report = json.loads(proc.stdout.decode())
    assert report["counts"]["fail"] == 0
    assert report["counts"]["pass"] == len(report["claims"])
    ok(10, f"standard suite ({len(report['claims'])} claims, all pass) with "
           "8 workers is byte-identical to the frozen 1-worker report")
