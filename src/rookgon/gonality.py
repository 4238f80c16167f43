"""Gonality search: smallest degree of a divisor of rank >= k.

Degrees are scanned in ascending order; at each degree the effective
divisors (one representative per symmetry orbit when a group is given)
are streamed in lexicographic order and tested with the rank recursion.
The scan stops at the first success, which is therefore the
lexicographically smallest witness of the smallest degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import graphs
from .divisors import rank_at_least
from .symmetry import SymmetryGroup, iter_orbit_min_vectors


@dataclass
class GonalityResult:
    k: int
    value: Optional[int]           # None when the degree cap was exhausted
    witness: Optional[list]
    exhaustive: bool               # every degree below value was refuted by scan
    degree_cap: int
    lower_bound: Optional[int]
    refuted_degrees: tuple = ()
    orbit_counts: dict = field(default_factory=dict)  # degree -> representatives scanned
    symmetry: bool = False


def is_automorphism(g: graphs.MultiGraph, perm: Sequence[int]) -> bool:
    """Does the vertex permutation preserve all edge multiplicities?"""
    p = tuple(perm)
    if sorted(p) != list(range(g.n)):
        return False
    mult = g.mult
    for u in range(g.n):
        pu = p[u]
        for v in range(u + 1, g.n):
            if mult[u][v] != mult[pu][p[v]]:
                return False
    return True


def default_degree_cap(g: graphs.MultiGraph, k: int) -> int:
    """Certificate degree for rook graphs where one is known, else a
    degree at which rank >= k is guaranteed."""
    dims = g.dims
    if dims is not None and len(dims) >= 2 and all(d >= 2 for d in dims):
        if k == 1:
            small = min(dims)
            return (small - 1) * (math.prod(dims) // small)
        if len(dims) == 2 and k == 2:
            return math.prod(dims) - 1
        if len(dims) == 2 and k == 3:
            return math.prod(dims)
    return g.n + g.genus()


def rook_certificate_divisor(dims: Sequence[int], k: int = 1) -> list:
    """Known positive-rank chip placements on rook graphs.

    k=1: one chip everywhere except a zeroed copy of the product of all
    factors but the smallest, giving degree (min-1) * (product of the
    rest).  k=3: one chip on every vertex (rank >= 3 on two-factor
    graphs).  Other ranks have no closed-form family here.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 2 for d in dims):
        raise ValueError("invalid rook dimensions")
    n = math.prod(dims)
    if k == 1:
        axis = dims.index(min(dims))
        size = 1
        for b in range(axis + 1, len(dims)):
            size *= dims[b]
        chips = []
        for v in range(n):
            coord = (v // size) % dims[axis]
            chips.append(0 if coord == 0 else 1)
        return chips
    if k == 3:
        return [1] * n
    raise ValueError("certificate families exist only for ranks 1 and 3")


def k_gonality(g: graphs.MultiGraph, k: int = 1,
               degree_cap: Optional[int] = None,
               sym: Optional[SymmetryGroup] = None,
               lower_bound: Optional[int] = None) -> GonalityResult:
    """Minimum degree of an effective divisor of rank >= k, by ascending
    exhaustive search up to the degree cap."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be a positive integer")
    if sym is not None:
        if sym.n != g.n:
            raise ValueError("group degree does not match the graph")
        for p in sym.generators:
            if not is_automorphism(g, p):
                raise ValueError("symmetry generator is not a graph automorphism")
    cap = default_degree_cap(g, k) if degree_cap is None else int(degree_cap)
    if cap < k:
        raise ValueError("degree cap below k can never hold a rank-k divisor")
    if lower_bound is not None and (not isinstance(lower_bound, int) or lower_bound < 0):
        raise ValueError("lower bound must be a nonnegative integer")

    start = k if lower_bound is None else max(k, lower_bound)
    full_scan = lower_bound is None or lower_bound <= k
    refuted = []
    orbit_counts = {}
    for deg in range(start, cap + 1):
        count = 0
        for c in iter_orbit_min_vectors(deg, g.n, sym):
            count += 1
            if rank_at_least(g, list(c), k):
                return GonalityResult(
                    k=k, value=deg, witness=list(c),
                    exhaustive=full_scan, degree_cap=cap,
                    lower_bound=lower_bound,
                    refuted_degrees=tuple(refuted),
                    orbit_counts=dict(orbit_counts),
                    symmetry=sym is not None,
                )
        refuted.append(deg)
        orbit_counts[deg] = count
    return GonalityResult(
        k=k, value=None, witness=None,
        exhaustive=full_scan, degree_cap=cap, lower_bound=lower_bound,
        refuted_degrees=tuple(refuted), orbit_counts=dict(orbit_counts),
        symmetry=sym is not None,
    )


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
