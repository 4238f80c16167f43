"""Divisors on multigraphs: set-firing, burning, reduction, rank.

A divisor is a plain integer vector indexed by vertex; every operation
takes the host graph explicitly so copies stay cheap inside searches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .graphs import MultiGraph, _vertex_mask, edges_into, mask_vertices
from .symmetry import iter_degree_vectors


class BurnReport(NamedTuple):
    burnt: tuple
    unburnt: tuple
    source: int
    burning_edges: tuple  # multiplicity of the edges from each vertex into the burnt set


class ReductionResult(NamedTuple):
    reduced: list
    firing_counts: list  # net fires per vertex, normalized so the base fires 0 times


def _check_divisor(g: MultiGraph, d: Sequence[int]) -> list:
    chips = list(d)
    if len(chips) != g.n:
        raise ValueError("divisor length does not match the vertex count")
    for x in chips:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError("chip counts must be integers")
    return chips


def degree(d: Sequence[int]) -> int:
    """Sum of all chip counts."""
    return sum(d)


def is_effective_away_from(d: Sequence[int], v: Optional[int] = None) -> bool:
    """True iff every entry is nonnegative, excepting index v when given."""
    for i, x in enumerate(d):
        if x < 0 and i != v:
            return False
    return True


def fire_set(g: MultiGraph, d: Sequence[int], a: Iterable[int]) -> list:
    """Fire every vertex of a: one chip crosses each edge leaving a."""
    chips = _check_divisor(g, d)
    mask = _vertex_mask(g, a)
    _fire(g, chips, mask_vertices(mask), mask, None)
    return chips


def _fire(g: MultiGraph, chips: list, verts: Sequence[int], mask: int,
          counts: Optional[list], times: int = 1) -> None:
    """Fire the vertex set verts, whose bitmask is mask, times times in
    place: times chips cross each edge leaving the set, and counts, when
    given, gains times at each fired vertex.  Every chip move runs here."""
    for u in verts:
        if counts is not None:
            counts[u] += times
        sent = 0
        for w, m in g.adj[u]:
            if not mask >> w & 1:
                m *= times
                chips[w] += m
                sent += m
        chips[u] -= sent


# ======================================================================
# burning
# ======================================================================

def dhar_burn(g: MultiGraph, d: Sequence[int], source: int) -> BurnReport:
    """Run the burning process from source on a divisor that is effective
    away from it; the unburnt set is the maximal subset that can fire
    without sending any of its members negative.

    A vertex ignites when the multiplicity of its burning incident edges
    exceeds its chips.  ``burning_edges[u]`` is the multiplicity of the
    edges from u into the final burnt set: at most u's chips when u is
    unburnt, more than them when u is burnt and not the source."""
    chips = _check_divisor(g, d)
    _vertex_mask(g, (source,))
    if not is_effective_away_from(chips, source):
        raise ValueError("divisor must be effective away from the source")
    burnt, unburnt = _burn(g, chips, source)
    tally = tuple(edges_into(g, u, burnt) for u in range(g.n))
    return BurnReport(mask_vertices(burnt), tuple(unburnt), source, tally)


# ======================================================================
# reduction
# ======================================================================

def _reduce(g: MultiGraph, chips: list, v: int, counts: Optional[list]) -> None:
    """Reduce chips toward v in place: clear any debt away from v, then
    fire unburnt sets until the burn from v spreads everywhere."""
    if min(chips) < 0:
        _clear_debt(g, chips, v, counts)
    _fire_unburnt(g, chips, v, counts)


def _clear_debt(g: MultiGraph, chips: list, v: int, counts: Optional[list]) -> None:
    """Make chips effective away from v in place, in at most ecc(v) rounds.

    A round fires B, the ball of vertices closer to v than the farthest
    indebted vertex (distance l), t times.  Firing B moves chips only from
    B to distance l, and each vertex there has an edge into B, so t, the
    largest ceil(debt / edges into B) over the debtors at distance l, is
    the fewest fires that clear them, as firing B once per step would.
    Later rounds fire smaller balls, which leave distance l alone."""
    nbr = g.nbr_masks
    balls = [1 << v]  # balls[i]: the vertices within distance i of v
    while True:
        debt = sum(1 << u for u, x in enumerate(chips) if x < 0) & ~(1 << v)
        if not debt:
            return
        while debt & ~balls[-1]:
            grown = balls[-1]
            for u in mask_vertices(grown):
                grown |= nbr[u]
            balls.append(grown)
        while not debt & ~balls[-2]:  # balls[0] never covers the debt
            balls.pop()
        ball = balls[-2]
        t = max(-(chips[u] // edges_into(g, u, ball))
                for u in mask_vertices(debt & ~ball))
        _fire(g, chips, mask_vertices(ball), ball, counts, t)


@lru_cache(maxsize=None)
def _others(n: int) -> tuple:
    """others[v] lists every vertex of an n-vertex graph but v."""
    return tuple(tuple(u for u in range(n) if u != v) for v in range(n))


def _burn(g: MultiGraph, chips: Sequence[int], v: int,
          start: Optional[tuple] = None) -> tuple:
    """The burn from v on chips, effective away from v: returns the burnt
    set as a bitmask and the unburnt vertices in ascending order.

    Each sweep visits the unburnt vertices in index order and ignites
    every one whose burning edges outnumber its chips, until a sweep
    ignites nothing; the fixed point does not depend on the order.  A
    vertex's burning edges are counted from the graph's neighbour and
    multiplicity-level masks.

    ``start``, when given, is the (burnt, unburnt) pair of an earlier burn
    from v on chips that hold at least these chips at every vertex.  Fewer
    chips only help the fire, so that burnt set lies inside this one and
    the burn resumes from it."""
    nbr = g.nbr_masks
    levels = g.level_masks
    if start is None:
        burnt, unburnt = 1 << v, _others(g.n)[v]
    else:
        burnt, unburnt = start
    while unburnt:
        before = burnt
        left = []
        for u in unburnt:
            # graphs.edges_into, inlined: the rank-nosym queries run 257,364
            # burns, and calling it here made them about 20% slower.  The
            # levels only add edges, and only to a vertex with a burnt
            # neighbour, so they are read only when the plain count
            # neither ignites u nor is 0.
            c = (nbr[u] & burnt).bit_count()
            if c > chips[u]:
                burnt |= 1 << u
                continue
            if c and levels[u]:
                for x, w in levels[u]:
                    c += w * (x & burnt).bit_count()
                if c > chips[u]:
                    burnt |= 1 << u
                    continue
            left.append(u)
        if burnt == before:
            break
        unburnt = left
    return burnt, unburnt


def _fire_unburnt(g: MultiGraph, chips: list, v: int, counts: Optional[list],
                  burn: Optional[tuple] = None) -> None:
    """Finish a reduction of chips, effective away from v, in place: fire
    the unburnt set once per round until the burn from v reaches every
    vertex.  ``burn``, when given, is the burn from v on chips as they
    stand, and the first round fires its unburnt set."""
    full = (1 << g.n) - 1
    burnt, unburnt = _burn(g, chips, v) if burn is None else burn
    while unburnt:
        _fire(g, chips, unburnt, full ^ burnt, counts)
        burnt, unburnt = _burn(g, chips, v)


def _reduced_tuple(g: MultiGraph, chips: list) -> tuple:
    """Reduce at base vertex 0, mutating chips; returns the result tuple."""
    _reduce(g, chips, 0, None)
    return tuple(chips)


def v_reduce(g: MultiGraph, d: Sequence[int], v: int) -> ReductionResult:
    """The unique v-reduced divisor equivalent to d, plus net firing counts."""
    chips = _check_divisor(g, d)
    _vertex_mask(g, (v,))
    counts = [0] * g.n
    _reduce(g, chips, v, counts)
    base = counts[v]
    if base:
        counts = [c - base for c in counts]
    return ReductionResult(chips, counts)


def is_winnable(g: MultiGraph, d: Sequence[int]) -> bool:
    """True iff d is equivalent to an effective divisor."""
    chips = _check_divisor(g, d)
    if all(x >= 0 for x in chips):
        return True
    if sum(chips) < 0:
        return False
    return _reduced_tuple(g, chips)[0] >= 0


def equivalent(g: MultiGraph, d1: Sequence[int], d2: Sequence[int]) -> bool:
    """True iff the divisors differ by a sequence of set firings."""
    c1 = _check_divisor(g, d1)
    c2 = _check_divisor(g, d2)
    if sum(c1) != sum(c2):
        return False
    return _reduced_tuple(g, c1) == _reduced_tuple(g, c2)


# ======================================================================
# rank
# ======================================================================

def rank(g: MultiGraph, d: Sequence[int]) -> int:
    """Baker–Norine rank: -1 when unwinnable, else the largest r such
    that d survives the removal of every effective divisor of degree r.

    Above degree 2g - 2, Riemann–Roch (Baker–Norine 2007) gives the rank
    as deg(d) - g without any search.  Below it, the rank is the largest
    k for which the ``rank_at_least`` recursion holds; it never exceeds
    the chips that the 0-reduced form keeps at vertex 0."""
    chips = _check_divisor(g, d)
    deg = sum(chips)
    if deg < 0:
        return -1
    genus = g.genus()
    if deg > 2 * genus - 2:
        return deg - genus
    memo = g._cache.setdefault("rank_ge", {})
    rd = _reduced_tuple(g, chips)
    r = -1
    while r < rd[0] and _rank_ge(g, rd, r + 1, memo):
        r += 1
    return r


def rank_at_least(g: MultiGraph, d: Sequence[int], k: int) -> bool:
    """Decide rank(d) >= k without computing the exact rank.

    The recursion removes one chip at a time from the 0-reduced form.  It
    refutes as soon as vertex 0 holds fewer than k chips, reduces a child
    only when removing the chip puts a vertex into debt, and at k = 1
    settles each such child by its chips at vertex 0, with no further
    recursion and no memo entry."""
    chips = _check_divisor(g, d)
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError("k must be an integer")
    if k <= -1:
        return True
    deg = sum(chips)
    if deg < k:
        return False
    genus = g.genus()
    if deg > 2 * genus - 2:
        return deg - genus >= k  # Riemann–Roch, as in rank()
    memo = g._cache.setdefault("rank_ge", {})
    rd = _reduced_tuple(g, chips)
    return _rank_ge(g, rd, k, memo)


def _rank_ge(g: MultiGraph, rd: tuple, k: int, memo: dict) -> bool:
    """rank(rd) >= k for a 0-reduced rd and k >= 0.

    Sound shortcuts, all because rd is 0-reduced: rd - k*e0 stays
    0-reduced, so it is unwinnable when rd[0] < k; rd - e0 needs no
    reduction; and rd - e_u is effective, hence winnable, unless
    rd[u] = 0, in which case u is the only vertex in debt.
    """
    if rd[0] < k:
        return False
    if k == 0:
        return True
    if k == 1:
        return all(rd[u] or _reduced_child(g, rd, u)[0] >= 0
                   for u in range(1, g.n))
    key = (rd, k)
    val = memo.get(key)
    if val is None:
        val = memo[key] = (
            _rank_ge(g, (rd[0] - 1,) + rd[1:], k - 1, memo)
            and all(_rank_ge(g, _reduced_child(g, rd, u), k - 1, memo)
                    for u in range(1, g.n)))
    return val


def _refutes(g: MultiGraph, chips: Sequence[int], v: int, k: int,
             burn: Optional[tuple] = None) -> bool:
    """True when red_v(chips), the v-reduced form of an effective chips of
    length g.n, holds fewer than k chips at v: rank(chips) >= k would make
    chips - k*e_v winnable, and its v-reduced form is red_v(chips) - k*e_v.
    False says nothing.  Nothing is checked, and chips is left as it is.

    ``burn``, when given, is the burn from v on chips, resumed by the
    caller with ``_burn``.  When the burn reaches every vertex, chips is
    v-reduced; else ``_fire_unburnt`` reduces a copy from it."""
    if chips[v] >= k:
        return False
    if burn is None:
        burn = _burn(g, chips, v)
    if not burn[1]:
        return True
    red = list(chips)
    _fire_unburnt(g, red, v, None, burn)
    return red[v] < k


def _reduced_child(g: MultiGraph, rd: tuple, u: int) -> tuple:
    """The 0-reduced form of rd - e_u for a 0-reduced rd and u != 0.

    Taking a chip can only help the burn from 0, so rd - e_u is still
    0-reduced unless it puts u into debt."""
    child = list(rd)
    child[u] -= 1
    if child[u] < 0:
        _reduce(g, child, 0, None)
    return tuple(child)


def verify_rank_at_least(g: MultiGraph, d: Sequence[int], k: int):
    """Check that d minus every effective divisor of degree k stays
    winnable; on failure, return the first offending placement.

    Returns (ok, counterexample-or-None).  Every degree-k vector is
    checked, in ascending lexicographic order, so the answer rests on
    the definition of rank alone.
    """
    chips = _check_divisor(g, d)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be a nonnegative integer")
    for e in iter_degree_vectors(k, g.n):
        rem = [a - b for a, b in zip(chips, e)]
        if not is_winnable(g, rem):
            return False, list(e)
    return True, None


# ======================================================================
# JSON interchange
# ======================================================================

def divisor_to_json(d: Sequence[int]) -> dict:
    return {"chips": list(d)}


def divisor_from_json(data: dict) -> list:
    if not isinstance(data, dict) or "chips" not in data:
        raise ValueError('divisor JSON must be an object with a "chips" list')
    chips = data["chips"]
    if not isinstance(chips, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in chips
    ):
        raise ValueError("chips must be a list of integers")
    return list(chips)
