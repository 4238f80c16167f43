"""Gonality search: smallest degree of a divisor of rank >= k.

Degrees are scanned in ascending order, and at each degree the effective
divisors in lexicographic order.  The scan stops at the first one of
rank >= k, which is therefore the lexicographically smallest witness of
the smallest degree.  A divisor c passed over without the rank recursion
is refuted by a reduction: when red_v(c), its v-reduced form, holds
fewer than k chips at v, rank(c) < k, since rank(c) >= k would make
c - k*e_v winnable and the v-reduced form of that is red_v(c) - k*e_v.

With symmetry on a rook graph, one representative per automorphism orbit
is streamed and each is reduced at its poorest vertex.  The plain scan
prunes the stream's depth-first walk over the prefixes itself:

- Block lemma.  Fix c[:i], leave r chips for positions i.., and let
  v < i hold fewer than k chips.  Every completion is at most the bound
  B that puts r chips on each open position, and a set that can fire
  legally on a completion can fire on B.  So when B is v-reduced, so is
  every completion, and the whole block of C(r + n-i-1, r) vectors has
  rank < k.  It is counted without being built.
- Resume rule.  Fewer chips only help the fire, so the burn from v on a
  child's bound, or on a single completion, starts from the burnt set of
  the nearest bound burnt above it.  When every vertex that burn leaves
  unburnt lies in the prefix, it is final for the whole block, which
  stops testing; a completion the burn does not refute continues its
  reduction from it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from . import graphs
from .divisors import _burn, _fire_unburnt, _refuted_at_poorest, rank_at_least
from .symmetry import iter_orbit_min_vectors, orbit_count


class GonalityResult(NamedTuple):
    k: int
    value: Optional[int]           # None when the degree cap was exhausted
    witness: Optional[list]
    exhaustive: bool               # every degree below value was refuted by scan
    degree_cap: int
    lower_bound: Optional[int]
    refuted_degrees: tuple
    orbit_counts: dict             # degree -> representatives scanned
    symmetry: bool


def _check_k(k) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be a positive integer")


def _rook_gonality(dims: Optional[Sequence[int]], k: int) -> Optional[int]:
    """The paper's rank-k gonality of the rook graph on dims, else None.
    k=1, any rook shape: (min-1) * (product of the others), the degree of
    ``rook_certificate_divisor(dims, 1)``; k=2 and 3 on n x m: nm-1, nm."""
    if not graphs.is_rook_shape(dims):
        return None
    size = math.prod(dims)
    if k == 1:
        return (min(dims) - 1) * (size // min(dims))
    if len(dims) == 2 and k in (2, 3):
        return size - 1 if k == 2 else size
    return None


def default_degree_cap(g: graphs.MultiGraph, k: int) -> int:
    """The paper's value ``_rook_gonality`` where it has one, else
    genus + k: every divisor of that degree has rank >= k (Riemann-Roch).
    k=2 has no certificate divisor: its cap is the paper's nm-1 itself."""
    _check_k(k)
    cap = _rook_gonality(g.dims, k)
    return g.genus() + k if cap is None else cap


def rook_certificate_divisor(dims: Sequence[int], k: int = 1) -> list:
    """Known positive-rank chip placements on rook graphs.

    k=1: one chip everywhere except a zeroed copy of the product of all
    factors but the smallest, giving degree (min-1) * (product of the
    rest).  k=3: one chip on every vertex (rank >= 3 on two-factor
    graphs).  Other ranks have no closed-form family here.
    """
    dims = graphs._rook_dims(dims)
    _check_k(k)
    if k == 1:
        axis = dims.index(min(dims))
        return [0 if c[axis] == 0 else 1 for c in graphs._vertex_coords(dims)]
    if k == 3:
        return [1] * math.prod(dims)
    raise ValueError("certificate families exist only for ranks 1 and 3")


def k_gonality(g: graphs.MultiGraph, k: int = 1,
               degree_cap: Optional[int] = None,
               symmetry: bool = False,
               lower_bound: Optional[int] = None) -> GonalityResult:
    """Minimum degree of an effective divisor of rank >= k, by ascending
    exhaustive search up to the degree cap.

    With ``symmetry`` set and ``g`` a rook graph (its ``dims`` have at
    least two factors, each at least 2), one divisor per automorphism
    orbit is scanned.  ``MultiGraph`` accepts ``dims`` only when they
    match its edges, so that group is sound; any other graph is scanned
    plainly and the result reports ``symmetry`` False.

    Each streamed divisor c is counted.  On a rook host with symmetry, c
    is then refuted at its poorest vertex v (smallest index on ties) when
    it can be: if c[v] < k, c is reduced at v (one burn from v, then the
    unburnt sets fire until the burn reaches every vertex), and a
    reduced form with fewer than k chips at v refutes.  A plain scan
    refutes whole blocks of vectors by the module's block lemma and
    reduces each vector left over at its first vertex after 0 with fewer
    than k chips, resuming the burns of its prefixes (``_plain_scan``);
    the stream yields only what that leaves.  Only the survivors reach
    ``rank_at_least``.

    Every refuted degree's count is checked, against the Burnside count
    (``symmetry.orbit_count``) with symmetry and against the stars and
    bars count C(deg + n-1, n-1) without; a mismatch raises RuntimeError.
    """
    _check_k(k)
    for name, val in (("degree cap", degree_cap), ("lower bound", lower_bound)):
        if val is not None and (not isinstance(val, int) or isinstance(val, bool)):
            raise ValueError(f"{name} must be an integer")
    dims = g.dims if symmetry and graphs.is_rook_shape(g.dims) else None
    cap = default_degree_cap(g, k) if degree_cap is None else degree_cap
    if cap < k:
        raise ValueError("degree cap below k can never hold a rank-k divisor")
    if lower_bound is not None and lower_bound < 0:
        raise ValueError("lower bound must be a nonnegative integer")
    if lower_bound is not None and lower_bound > cap:
        raise ValueError("lower bound above the degree cap leaves no degree to scan")

    start = k if lower_bound is None else max(k, lower_bound)
    refuted = []
    orbit_counts = {}
    witness = None
    for deg in range(start, cap + 1):
        prune, refuted_by_prune = _plain_scan(g, k) if dims is None else (None, None)
        count = 0
        for c in iter_orbit_min_vectors(deg, g.n, dims, prune):
            count += 1
            if (prune is not None or not _refuted_at_poorest(g, c, k)) \
                    and rank_at_least(g, c, k):
                witness = list(c)
                break
        if witness is not None:
            break
        if dims is None:
            count += refuted_by_prune[0]
            if count != (expected := math.comb(deg + g.n - 1, deg)):
                raise RuntimeError(f"degree {deg}: the plain scan counted {count} "
                                   f"vectors, stars and bars counts {expected}")
        elif count != (expected := orbit_count(dims, deg)):
            raise RuntimeError(f"degree {deg}: the orbit stream gave {count} "
                               f"representatives, Burnside counts {expected}")
        refuted.append(deg)
        orbit_counts[deg] = count
    return GonalityResult(
        k=k, value=None if witness is None else deg, witness=witness,
        exhaustive=lower_bound is None or lower_bound <= k,
        degree_cap=cap, lower_bound=lower_bound,
        refuted_degrees=tuple(refuted), orbit_counts=orbit_counts,
        symmetry=dims is not None,
    )


def _prefix_inflow(g: graphs.MultiGraph) -> list:
    """inflow[i]: the most edges that one vertex u >= i sends into the
    vertices below i.  With r chips on each of u >= i and r at least
    inflow[i], those vertices can fire together."""
    into = [0] * g.n
    inflow = [0]
    for i in range(1, g.n):
        for u, m in g.adj[i - 1]:
            into[u] += m
        inflow.append(max(into[i:]))
    return inflow


def _plain_scan(g: graphs.MultiGraph, k: int) -> tuple:
    """The prune a plain scan for rank >= k hands to
    ``iter_orbit_min_vectors``, and a one-entry list that counts the
    vectors it refutes.

    Along each prefix, v is the first vertex after 0 with fewer than k
    chips; vertex 0 is left to ``rank_at_least``, whose recursion starts
    by reducing there.  A prefix with several completions is tested on
    its bound B by the block lemma, unless r reaches ``_prefix_inflow``,
    when the open positions can fire on B.  A prefix with one completion
    c is refuted when red_v(c)[v] < k.  Burns resume as the module's
    resume rule says, so each completion is burnt from v once.
    """
    inflow = _prefix_inflow(g)
    n = g.n
    # entry i is what a prefix of length i inherits from its parent: v
    # (-1 while there is none), the burn from v to resume (None: burn
    # afresh) and whether its burns can still reach every vertex
    src = [-1] * (n + 1)
    burns = [None] * (n + 1)
    tests = [True] * (n + 1)
    refuted = [0]

    def prune(c: list, i: int, r: int) -> bool:
        v, burn, test = src[i], burns[i], tests[i]
        if v < 0 and i > 1 and c[i - 1] < k:
            v = i - 1
        if i == n - 1 or not r:  # c is the prefix's one completion
            if v < 0 and i and r < k:
                v = i
            if v < 0:
                return False
            if test:
                burn = _burn(g, c, v, burn)
            if burn[1]:
                red = c[:]
                _fire_unburnt(g, red, v, None, burn)
                if red[v] >= k:
                    return False
            refuted[0] += 1
            return True
        if v >= 0 and test and r < inflow[i]:
            c[i:] = [r] * (n - i)
            burn = _burn(g, c, v, burn)
            if not burn[1]:
                refuted[0] += math.comb(r + n - i - 1, r)
                return True
            test = burn[1][-1] >= i
        src[i + 1], burns[i + 1], tests[i + 1] = v, burn, test
        return False

    return prune, refuted


def poorest_slice_chips(g: graphs.MultiGraph, d: Sequence[int]) -> Optional[dict]:
    """For two-factor rook graphs: the chip total of the poorest copy of
    each factor (poorest row / poorest column); None otherwise."""
    dims = g.dims
    if dims is None or len(dims) != 2:
        return None
    n, m = dims
    if len(d) != n * m:
        raise ValueError("divisor length does not match the graph")
    rows = [sum(d[i * m + j] for j in range(m)) for i in range(n)]
    cols = [sum(d[i * m + j] for i in range(n)) for j in range(m)]
    return {"poorest_row_chips": min(rows), "poorest_column_chips": min(cols)}
