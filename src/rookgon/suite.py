"""Verification suites: registered claims with expected values.

Each claim recomputes one published quantity (a gonality, a certificate
check, a scramble order, or a bulk property sweep) and compares it with
its expected value.  Expected gonalities and certificate degrees come
from the paper's closed form ``gonality._rook_gonality``, which is also
the scan's degree cap.  The check stays a full one: the scan starts at
degree k, so a form set too high meets a witness below it and reads a
lower value, and a form set too low exhausts the cap and reads
``value: None``.  Suites nest: standard extends smoke, full extends
standard.  Reports carry no wall times so that reruns stay
byte-identical; timing goes to stderr.
"""

from __future__ import annotations

import random
import sys
import time
from typing import Callable, NamedTuple

from . import SUITE_NAMES, divisors, gonality, graphs, scrambles


class Claim(NamedTuple):
    id: str
    statement: str
    params: dict
    fn: Callable[[dict], tuple]      # ctx -> (expected, computed)


# ----------------------------------------------------------------------
# shared hosts, scrambles and gonalities (memoized per run)
# ----------------------------------------------------------------------

def _memo(ctx, make, *args):
    """make(*args) once per run: the memo lives in the run's ctx, so no
    claim reports a value computed by an earlier run.  Hosts are memoized
    too, so a host argument keys by the one object its run built."""
    memo = ctx.setdefault("memo", {})
    if (make, args) not in memo:
        memo[make, args] = make(*args)
    return memo[make, args]


def _host(ctx, dims) -> graphs.MultiGraph:
    return _memo(ctx, graphs._dims_graph, dims)


def _gon_scan(host, k, lower_bound):
    return gonality.k_gonality(host, k=k, symmetry=True, lower_bound=lower_bound)


def _gon_value(ctx, dims, k, lower_bound=None):
    return _memo(ctx, _gon_scan, _host(ctx, dims), k, lower_bound)


def _tag(dims) -> str:
    return "x".join(map(str, dims))


# ----------------------------------------------------------------------
# claim bodies
# ----------------------------------------------------------------------

def _claim_gonality(dims, k=1):
    """A full check though the expected value is the scan's cap: a wrong
    closed form reads a lower value or None (see the module docstring)."""
    expect = gonality._rook_gonality(dims, k)
    def fn(ctx):
        res = _gon_value(ctx, dims, k)
        return ({"value": expect, "exhaustive": True},
                {"value": res.value, "exhaustive": res.exhaustive})
    kind = {1: "gonality", 2: "second gonality", 3: "third gonality"}[k]
    return Claim(
        id=f"gon{k if k > 1 else ''}-{_tag(dims)}",
        statement=f"{kind} of the {_tag(dims)} rook graph is {expect}, "
                  f"refuting every smaller degree",
        params={"dims": list(dims), "k": k},
        fn=fn,
    )


def _claim_gonality_chain(dims):
    def fn(ctx):
        v1, v2, v3 = (_gon_value(ctx, dims, k).value for k in (1, 2, 3))
        return (True, v1 <= v2 - 1 <= v3 - 2)
    return Claim(
        id=f"gon-chain-{_tag(dims)}",
        statement=f"on the {_tag(dims)} rook graph the gonality ladder rises by "
                  f"at least one per rank step",
        params={"dims": list(dims)},
        fn=fn,
    )


def _claim_certificate(dims):
    expect = gonality._rook_gonality(dims, 1)
    def fn(ctx):
        d = gonality.rook_certificate_divisor(dims, k=1)
        ok, _ = divisors.verify_rank_at_least(_host(ctx, dims), d, 1)
        return ({"ok": True, "degree": expect},
                {"ok": ok, "degree": divisors.degree(d)})
    return Claim(
        id=f"cert-rank1-{_tag(dims)}",
        statement=f"the empty-copy certificate on the {_tag(dims)} rook graph has "
                  f"rank at least 1 at the gonality degree",
        params={"dims": list(dims)},
        fn=fn,
    )


def _claim_all_ones_rank3(dims):
    def fn(ctx):
        d = gonality.rook_certificate_divisor(dims, k=3)
        ok, _ = divisors.verify_rank_at_least(_host(ctx, dims), d, 3)
        return (True, ok)
    return Claim(
        id=f"allones-rank3-{_tag(dims)}",
        statement=f"the all-ones divisor on the {_tag(dims)} rook graph has rank "
                  f"at least 3",
        params={"dims": list(dims)},
        fn=fn,
    )


def _claim_star_order(n, m, expect_order, expect_hit, expect_cut):
    def fn(ctx):
        rep = scrambles.scramble_order(_memo(ctx, scrambles.star_scramble, n, m))
        return ({"order": expect_order, "hitting": expect_hit,
                 "cut": expect_cut, "cut_exact": True},
                {"order": rep.order, "hitting": rep.hitting_number,
                 "cut": rep.min_egg_cut, "cut_exact": rep.cut_exact})
    return Claim(
        id=f"star-order-{n}x{m}",
        statement=f"the ({n-1})-subset scramble on the {n}x{m} rook graph "
                  f"has order {expect_order}",
        params={"dims": [n, m]},
        fn=fn,
    )


def _claim_star_hitting(n, m, expect):
    def fn(ctx):
        hn, _, avoid = scrambles.hitting_number(
            _memo(ctx, scrambles.star_scramble, n, m))
        return ({"hitting": expect, "avoidance": n * m - expect},
                {"hitting": hn, "avoidance": len(avoid)})
    return Claim(
        id=f"star-hitting-{n}x{m}",
        statement=f"the ({n-1})-subset scramble on the {n}x{m} rook graph "
                  f"has hitting number {expect}",
        params={"dims": [n, m]},
        fn=fn,
    )


def _claim_uniform_order(dims, k, expect):
    tag = _tag(dims)
    def fn(ctx):
        rep = scrambles.scramble_order(
            _memo(ctx, scrambles.uniform_scramble, _host(ctx, dims), k))
        return (expect, rep.order)
    return Claim(
        id=f"uniform{k}-{tag}",
        statement=f"the connected {k}-subset scramble on the {tag} rook "
                  f"graph has order {expect}",
        params={"dims": list(dims), "k": k},
        fn=fn,
    )


def _claim_cut_bound(n, m):
    """The certified cut floor, exact on two factors, against the bound,
    and one full row's cut for tightness."""
    bound = (n - 1) * m
    def fn(ctx):
        floor = scrambles.min_side_cut_floor((n, m), n - 1)
        return ({"ok": True, "tight": bound},
                {"ok": floor >= bound,
                 "tight": graphs.cut_weight(_host(ctx, (n, m)), range(m))})
    return Claim(
        id=f"cut-bound-{n}x{m}",
        statement=f"every balanced cut of the {n}x{m} rook graph has weight "
                  f"at least {bound}, tight at a full row",
        params={"dims": [n, m]},
        fn=fn,
    )


def _random_multigraph(rng, max_n=7, max_extra=6):
    n = rng.randint(2, max_n)
    mult = [[0] * n for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        mult[u][v] += 1
        mult[v][u] += 1
    for _ in range(rng.randint(0, max_extra)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            mult[u][v] += 1
            mult[v][u] += 1
    return graphs.MultiGraph(mult)


def _claim_reduction_properties(cases):
    def fn(ctx):
        rng = random.Random(ctx["seed"] * 7919 + 1)
        for _ in range(cases):
            g = _random_multigraph(rng)
            d = [rng.randint(-4, 6) for _ in range(g.n)]
            v = rng.randrange(g.n)
            red = divisors.v_reduce(g, d, v)
            # Laplacian consistency of the firing counts
            for w in range(g.n):
                back = d[w] - g.degrees[w] * red.firing_counts[w] \
                    + sum(g.mult[u][w] * red.firing_counts[u] for u in range(g.n))
                if back != red.reduced[w]:
                    return (True, f"firing counts inconsistent on case {d}")
            if not divisors.is_effective_away_from(red.reduced, v):
                return (True, "reduction not effective away from the base")
            again = divisors.v_reduce(g, red.reduced, v)
            if again.reduced != red.reduced:
                return (True, "reduction is not idempotent")
            # uniqueness: reduce an equivalent divisor reached by set firings
            d2 = list(d)
            for _ in range(rng.randint(1, 4)):
                subset = [u for u in range(g.n) if rng.random() < 0.5]
                if subset:
                    d2 = divisors.fire_set(g, d2, subset)
            red2 = divisors.v_reduce(g, d2, v)
            if red2.reduced != red.reduced:
                return (True, "equivalent divisors reduced differently")
        return (True, True)
    return Claim(
        id="reduction-properties",
        statement=f"base-point reduction is idempotent, effective away from "
                  f"the base, and constant on equivalence classes "
                  f"({cases} random cases)",
        params={"cases": cases},
        fn=fn,
    )


def _claim_firing_reversibility(cases):
    def fn(ctx):
        rng = random.Random(ctx["seed"] * 7919 + 2)
        for _ in range(cases):
            g = _random_multigraph(rng)
            d = [rng.randint(-3, 5) for _ in range(g.n)]
            subset = [u for u in range(g.n) if rng.random() < 0.5]
            moved = divisors.fire_set(g, d, subset)
            rest = [u for u in range(g.n) if u not in subset]
            if divisors.fire_set(g, moved, rest) != d:
                return (True, f"firing a set then its complement moved {d}")
        return (True, True)
    return Claim(
        id="firing-reversibility",
        statement=f"firing a vertex set then its complement restores the "
                  f"divisor ({cases} random cases)",
        params={"cases": cases},
        fn=fn,
    )


def _burn_matches_maximal_firable(g):
    n = g.n
    deg = n - 1
    chips = [0] * n
    # each subset avoiding the source, with the edges each member sends
    # out of it: a subset is firable when every member has that many chips
    requirements = {}
    for mask in range(1, 1 << (n - 1)):
        sub = tuple(v + 1 for v in range(n - 1) if mask >> v & 1)
        requirements[sub] = tuple(
            (v, sum(mm for w, mm in g.adj[v] if w not in sub)) for v in sub)

    def firable(req, ch):
        for v, out in req:
            if ch[v] < out:
                return False
        return True

    stack = [0] * (n - 1)
    while True:
        for v in range(1, n):
            chips[v] = stack[v - 1]
        union = set()
        for sub, req in requirements.items():
            if firable(req, chips):
                union.update(sub)
        rep = divisors.dhar_burn(g, chips, 0)
        if set(rep.unburnt) != union:
            return f"burn mismatch for chips {chips}"
        if union and not firable(requirements[tuple(sorted(union))], chips):
            return f"unburnt set not firable for chips {chips}"
        pos = 0
        while pos < n - 1 and stack[pos] == deg:
            stack[pos] = 0
            pos += 1
        if pos == n - 1:
            return True
        stack[pos] += 1


def _claim_burn_maximal(ns):
    tag = "-".join(str(n) for n in ns)
    def fn(ctx):
        for n in ns:
            out = _burn_matches_maximal_firable(_host(ctx, (n,)))
            if out is not True:
                return (True, f"n={n}: {out}")
        return (True, True)
    return Claim(
        id=f"burn-maximal-{tag}",
        statement=f"on complete graphs (n in {list(ns)}) the unburnt set "
                  f"equals the union of all firable sets avoiding the source, "
                  f"for every chip vector up to the degree cap",
        params={"sizes": list(ns)},
        fn=fn,
    )


def _claim_rank_duality(cases):
    def fn(ctx):
        rng = random.Random(ctx["seed"] * 7919 + 3)
        for _ in range(cases):
            g = _random_multigraph(rng, max_n=6, max_extra=5)
            d = [rng.randint(-1, 2) for _ in range(g.n)]
            k = [g.degrees[v] - 2 for v in range(g.n)]
            dual = [k[v] - d[v] for v in range(g.n)]
            lhs = divisors.rank(g, d) - divisors.rank(g, dual)
            rhs = divisors.degree(d) - g.genus() + 1
            if lhs != rhs:
                return (True, f"rank duality broke on chips {d}")
        return (True, True)
    return Claim(
        id="rank-duality",
        statement=f"rank(d) - rank(canonical - d) equals degree(d) - genus + 1 "
                  f"({cases} random cases)",
        params={"cases": cases},
        fn=fn,
    )


def _claim_symmetry_agreement(dims, k=1):
    tag = _tag(dims)
    def fn(ctx):
        host = _host(ctx, dims)
        plain = gonality.k_gonality(host, k=k)
        pruned = _gon_value(ctx, dims, k)
        return ({"value": plain.value, "exhaustive": True},
                {"value": pruned.value, "exhaustive": pruned.exhaustive})
    return Claim(
        id=f"sym-agreement{k if k > 1 else ''}-{tag}",
        statement=f"rank-{k} gonality search on the {tag} rook graph returns "
                  f"the same value with and without symmetry pruning",
        params={"dims": list(dims), "k": k},
        fn=fn,
    )


def _claim_staircase(n, m):
    def fn(ctx):
        verts = scrambles.staircase_avoidance(n, m)
        hn, _, _ = scrambles.hitting_number(_memo(ctx, scrambles.star_scramble, n, m))
        bound = n * m - (m + 1)
        return ({"size": m + 1, "hitting_at_most": True},
                {"size": len(verts), "hitting_at_most": hn <= bound})
    return Claim(
        id=f"staircase-{n}x{m}",
        statement=f"the staircase construction on the {n}x{m} rook graph is "
                  f"an egg-free set of size {m+1}, capping the hitting number "
                  f"at {n*m - (m+1)}",
        params={"dims": [n, m]},
        fn=fn,
    )


def _claim_cube_diagonal(n):
    """The complement meets every connected n-subset exactly when no
    induced component of the set has n vertices (``_avoids_family``)."""
    def fn(ctx):
        host = _host(ctx, (n, n, n))
        verts = scrambles.cube_diagonal_avoidance(n)
        comps = scrambles.induced_components(host, verts)
        hits_all = scrambles._avoids_family(scrambles.uniform_scramble(host, n),
                                            graphs._vertex_mask(host, verts))
        return ({"size": (n + 2) * (n - 1), "components": n + 2,
                 "component_size": n - 1, "complement_hits_all": True},
                {"size": len(verts), "components": len(comps),
                 "component_size": max(len(c) for c in comps),
                 "complement_hits_all": hits_all})
    return Claim(
        id=f"cube-diagonal-{n}",
        statement=f"the diagonal construction on the {n}x{n}x{n} rook graph "
                  f"splits into {n+2} components of size {n-1} and its "
                  f"complement meets every connected {n}-subset",
        params={"n": n},
        fn=fn,
    )


def _claim_squares_hitting():
    def fn(ctx):
        hn, _, avoid = scrambles.hitting_number(
            _memo(ctx, scrambles.square_augmented_scramble, (6, 6)))
        return ({"hitting": 27, "avoidance": 9},
                {"hitting": hn, "avoidance": len(avoid)})
    return Claim(
        id="squares-hitting-6x6",
        statement="adding all 2x2 squares to the 5-subset scramble on the "
                  "6x6 rook graph raises the hitting number to 27",
        params={"dims": [6, 6]},
        fn=fn,
    )


def _claim_squares_order():
    def fn(ctx):
        s = _memo(ctx, scrambles.square_augmented_scramble, (6, 6))
        rep = scrambles.scramble_order(s, cut_mode="auto")
        return ({"order": 27, "cut_at_least": True},
                {"order": rep.order,
                 "cut_at_least": scrambles.egg_cut_floor(s) >= 27})
    return Claim(
        id="squares-order-6x6",
        statement="the square-augmented scramble on the 6x6 rook graph has "
                  "order 27: the certified cut floor clears the hitting number",
        params={"dims": [6, 6]},
        fn=fn,
    )


def _claim_gonality_refute(dims):
    """The paper's gonality, the star scramble's order clearing every degree
    below the value less one and the scan refuting that degree itself."""
    expect = gonality._rook_gonality(dims, 1)
    refute = expect - 1
    def fn(ctx):
        star = _memo(ctx, scrambles.star_scramble, *dims)
        order = scrambles.scramble_order(star).order
        res = _gon_value(ctx, dims, 1, lower_bound=order)
        return ({"value": expect, "refuted": True, "order": refute},
                {"value": res.value,
                 "refuted": refute in res.refuted_degrees,
                 "order": order})
    return Claim(
        id=f"gon-refute-{_tag(dims)}",
        statement=f"gonality of the {_tag(dims)} rook graph is {expect}: the "
                  f"scramble order clears degrees below {refute} and the "
                  f"search refutes {refute} itself",
        params={"dims": list(dims)},
        fn=fn,
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def _smoke_claims():
    return [
        _claim_gonality((2, 2)),
        _claim_uniform_order((2, 3), 1, 3),
        _claim_burn_maximal((2, 3, 4)),
    ]


def _standard_claims():
    claims = _smoke_claims()
    claims += [_claim_gonality(dims) for dims in ((2, 3), (2, 4), (3, 3))]
    claims += [_claim_certificate((n, m)) for n in range(2, 7) for m in range(n, 7)]
    claims += [_claim_certificate(dims) for dims in ((2, 2, 2), (2, 2, 3), (2, 3, 3))]
    ladder = ((2, 2), (2, 3), (3, 3))
    claims += [_claim_gonality(dims, k) for k in (2, 3) for dims in ladder]
    claims += [_claim_gonality_chain(dims) for dims in ladder]
    claims += [_claim_all_ones_rank3(dims)
               for dims in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))]
    claims += [
        _claim_star_order(4, 4, 11, 11, 12),
        _claim_star_hitting(6, 6, 24),
        _claim_squares_hitting(),
        _claim_squares_order(),
        _claim_star_hitting(4, 6, 18),
        _claim_staircase(4, 5),
    ]
    # 2x3 is registered by the smoke tier
    claims += [_claim_uniform_order((2, m), 1, m) for m in (2, 4, 5, 6)]
    claims += [_claim_uniform_order((3, m), 2, 2 * m) for m in (3, 4, 5)]
    claims += [
        _claim_uniform_order((2, 2, 2), 2, 4),
        _claim_uniform_order((2, 2, 3), 2, 6),
        _claim_cube_diagonal(3),
    ]
    for n, m in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                 (3, 3), (3, 4), (3, 5), (4, 4)):
        claims.append(_claim_cut_bound(n, m))
    claims += [
        _claim_reduction_properties(100),
        _claim_firing_reversibility(100),
        _claim_burn_maximal((5, 6)),
        _claim_rank_duality(50),
    ]
    claims += [_claim_symmetry_agreement(dims)
               for dims in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2))]
    claims += [_claim_symmetry_agreement(dims, k=2) for dims in ((2, 2), (2, 3))]
    return claims


def _full_claims():
    claims = _standard_claims()
    claims += [
        _claim_star_order(3, 4, 8, 9, 8),
        _claim_gonality((3, 4)),
        _claim_gonality_refute((4, 4)),
    ]
    return claims


def suite_claims(name: str):
    if name == "smoke":
        claims = _smoke_claims()
    elif name == "standard":
        claims = _standard_claims()
    elif name == "full":
        claims = _full_claims()
    else:
        raise ValueError(f"unknown suite {name!r} (choose from {SUITE_NAMES})")
    seen = set()
    for c in claims:
        if c.id in seen:
            raise RuntimeError(f"duplicate claim id {c.id}")
        seen.add(c.id)
    return claims


def run_suite(name: str, seed: int = 0, log=None) -> dict:
    """Run a suite and return its report as a plain dict.

    The report is deterministic for a given (suite, seed): every claim
    is computed by this run, and hosts, scrambles and gonalities are
    shared between claims only within it.  Per-claim timing goes to the
    log stream (stderr), never into the report.
    """
    if log is None:
        log = sys.stderr
    claims = suite_claims(name)
    ctx = {"seed": seed}
    rows = []
    # "skipped" here and "budget_secs" below are constants left from the
    # removed wall-clock budget: the frozen reports pin them byte for byte.
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for claim in claims:
        row = {
            "id": claim.id,
            "statement": claim.statement,
            "params": claim.params,
        }
        t0 = time.monotonic()
        try:
            expected, computed = claim.fn(ctx)
            status = "pass" if expected == computed else "fail"
        except Exception as exc:  # a claim crash is a failure, not an abort
            expected, computed = None, f"{type(exc).__name__}: {exc}"
            status = "fail"
        dt = time.monotonic() - t0
        row["expected"] = expected
        row["computed"] = computed
        row["status"] = status
        counts[status] += 1
        rows.append(row)
        print(f"[suite] {status.upper():4s} {claim.id} ({dt:.2f}s)", file=log)
    return {
        "suite": name,
        "seed": seed,
        "budget_secs": None,
        "claims": rows,
        "counts": counts,
    }
