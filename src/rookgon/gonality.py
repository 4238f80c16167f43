"""Gonality search: smallest degree of a divisor of rank >= k.

Degrees are scanned in ascending order; at each degree the effective
divisors (one representative per automorphism orbit when symmetry is
asked for on a rook graph) are streamed in lexicographic order and
tested with the rank recursion.  The scan stops at the first success,
which is therefore the lexicographically smallest witness of the
smallest degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import graphs
from .divisors import rank_at_least
from .symmetry import is_rook_shape, iter_orbit_min_vectors


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


def default_degree_cap(g: graphs.MultiGraph, k: int) -> int:
    """Certificate degree for rook graphs where one is known, else a
    degree at which rank >= k is guaranteed."""
    dims = g.dims
    if is_rook_shape(dims):
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
    dims = graphs._int_dims(dims)
    if not is_rook_shape(dims):
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
               symmetry: bool = False,
               lower_bound: Optional[int] = None) -> GonalityResult:
    """Minimum degree of an effective divisor of rank >= k, by ascending
    exhaustive search up to the degree cap.

    With ``symmetry`` set and ``g`` a rook graph (its ``dims`` have at
    least two factors, each at least 2), one divisor per automorphism
    orbit is scanned.  ``MultiGraph`` accepts ``dims`` only when they
    match its edges, so that group is sound; any other graph is scanned
    plainly and the result reports ``symmetry`` False.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be a positive integer")
    dims = g.dims if symmetry and is_rook_shape(g.dims) else None
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
        for c in iter_orbit_min_vectors(deg, g.n, dims):
            count += 1
            if rank_at_least(g, list(c), k):
                return GonalityResult(
                    k=k, value=deg, witness=list(c),
                    exhaustive=full_scan, degree_cap=cap,
                    lower_bound=lower_bound,
                    refuted_degrees=tuple(refuted),
                    orbit_counts=dict(orbit_counts),
                    symmetry=dims is not None,
                )
        refuted.append(deg)
        orbit_counts[deg] = count
    return GonalityResult(
        k=k, value=None, witness=None,
        exhaustive=full_scan, degree_cap=cap, lower_bound=lower_bound,
        refuted_degrees=tuple(refuted), orbit_counts=dict(orbit_counts),
        symmetry=dims is not None,
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
