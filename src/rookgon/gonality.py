"""Gonality search: smallest degree of a divisor of rank >= k.

Degrees are scanned in ascending order; at each degree the effective
divisors (one representative per automorphism orbit when symmetry is
asked for on a rook graph) are streamed in lexicographic order, and
each one that its reduction at the poorest vertex does not refute is
tested with the rank recursion.  The scan stops at the first success,
which is therefore the lexicographically smallest witness of the
smallest degree.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from . import graphs
from .divisors import _refuted_at_poorest, rank_at_least
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

    Each streamed divisor c is counted, then refuted at its poorest
    vertex v (smallest index on ties) when it can be: if c[v] < k, c is
    reduced at v (one burn from v, then the unburnt sets fire until the
    burn reaches every vertex), and rank(c) < k when the v-reduced form
    holds fewer than k chips at v, since rank(c) >= k would make
    c - k*e_v winnable and its v-reduced form is red_v(c) - k*e_v.  Only
    the survivors reach ``rank_at_least``.

    On a rook host every refuted degree's streamed count is checked
    against the Burnside count (``symmetry.orbit_count``), and a mismatch
    raises RuntimeError.
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
        count = 0
        for c in iter_orbit_min_vectors(deg, g.n, dims):
            count += 1
            if not _refuted_at_poorest(g, c, k) and rank_at_least(g, c, k):
                witness = list(c)
                break
        if witness is not None:
            break
        if dims is not None and count != (expected := orbit_count(dims, deg)):
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
