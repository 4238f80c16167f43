"""Multigraph core: constructors, connectivity, cuts, flows, JSON I/O.

Vertices are integers ``0..n-1``.  Graphs built as products of complete
graphs carry a ``dims`` tuple and coordinate labels laid out row-major
(last coordinate varies fastest), so witness sets serialize stably.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class FlowResult(NamedTuple):
    value: int
    source_side: tuple  # minimal source side: vertices residual-reachable from s


class MultiGraph:
    """Loopless connected undirected multigraph with integer multiplicities.

    The constructor builds what searches read (``adj``, ``nbr_masks``,
    ``level_masks``, the genus); ``_cache`` holds only what
    searches grow, the rank memo ``"rank_ge"``."""

    __slots__ = ("n", "mult", "dims", "adj", "degrees", "nbr_masks", "level_masks",
                 "_genus", "_cache")

    def __init__(self, mult: Sequence[Sequence[int]], dims: Optional[Sequence[int]] = None):
        n = len(mult)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        rows = []
        for u in range(n):
            row = tuple(mult[u])
            if len(row) != n:
                raise ValueError("multiplicity matrix must be square")
            rows.append(row)
        # a row of plain nonnegative ints equal to its column passes whole;
        # any other row is walked entry by entry, so the first faulty entry
        # picks the message and int subclasses other than bool still pass
        cols = list(zip(*rows))
        for u, row in enumerate(rows):
            if set(map(type, row)) != {int} or min(row) < 0 or row != cols[u]:
                for v, m in enumerate(row):
                    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
                        raise ValueError("multiplicities must be nonnegative integers")
                    if m != rows[v][u]:
                        raise ValueError("multiplicity matrix must be symmetric")
            if row[u] != 0:
                raise ValueError("loops are not allowed")
        self.n = n
        self.mult = tuple(rows)
        self.adj = tuple(tuple((v, m) for v, m in enumerate(row) if m) for row in rows)
        self.degrees = tuple(sum(m for _, m in nbrs) for nbrs in self.adj)
        self.nbr_masks = tuple(sum(1 << v for v, _ in nbrs) for nbrs in self.adj)
        self.level_masks = tuple(map(_level_masks, self.adj))
        self._genus = self.edge_count() - n + 1
        self._cache: dict = {}
        full = (1 << n) - 1
        if lowest_component(self.nbr_masks, full) != full:
            raise ValueError("graph must be connected")
        self.dims = None if dims is None else self._check_dims(dims)

    # -- structure ---------------------------------------------------------

    def _check_dims(self, dims: Sequence[int]) -> tuple:
        """dims as a tuple, once this graph is simple with the neighbour
        masks that ``_dims_nbr_masks`` gives them."""
        dims = _positive_dims(dims)
        if math.prod(dims) != self.n:
            raise ValueError("dims do not match the vertex count")
        if any(self.level_masks) or self.nbr_masks != _dims_nbr_masks(dims):
            raise ValueError("dims are inconsistent with the adjacency structure")
        return dims

    def vertex_label(self, v: int) -> tuple:
        """Coordinate tuple of a vertex; requires product dims."""
        if self.dims is None:
            raise ValueError("graph has no coordinate labels")
        _vertex_mask(self, (v,))
        return tuple(v // math.prod(self.dims[a + 1:]) % d for a, d in enumerate(self.dims))

    def label_to_index(self, coords: Sequence[int]) -> int:
        if self.dims is None:
            raise ValueError("graph has no coordinate labels")
        if len(coords) != len(self.dims):
            raise ValueError("coordinate arity mismatch")
        v = 0
        for c, d in zip(coords, self.dims):
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < d:
                raise ValueError(f"coordinate {c!r} out of range")
            v = v * d + c
        return v

    def labels(self) -> tuple:
        """All coordinate labels in vertex order."""
        if self.dims is None:
            raise ValueError("graph has no coordinate labels")
        return _vertex_coords(self.dims)

    def edge_count(self) -> int:
        """Total edge multiplicity."""
        return sum(self.degrees) // 2

    def genus(self) -> int:
        """First Betti number |E| - |V| + 1."""
        return self._genus


def _level_masks(nbrs: Sequence[tuple]) -> tuple:
    """One vertex's (mask, weight) pair per distinct multiplicity m > 1
    among its (neighbour, multiplicity) pairs: the neighbours joined by at
    least m edges, and m less the next lower multiplicity (or 1), so that
    ``edges_into`` can count multiplicities with one popcount per level."""
    ordered = sorted(nbrs, key=lambda vm: -vm[1])
    pairs, mask = [], 0
    for (v, m), (_, below) in zip(ordered, ordered[1:] + [(None, 1)]):
        mask |= 1 << v
        if m > below:
            pairs.append((mask, m - below))
    return tuple(pairs)


# ======================================================================
# constructors
# ======================================================================

def complete_graph(n: int) -> MultiGraph:
    """K_n with a single edge between every pair of distinct vertices."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("complete graph size must be an integer")
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return _dims_graph((n,))


def _positive_dims(dims: Sequence[int]) -> tuple:
    """dims as a tuple; every entry must be an int (bools rejected) of at
    least 1, the size of one complete-graph factor."""
    dims = tuple(dims)
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ValueError("dims must be integers")
    if any(d < 1 for d in dims):
        raise ValueError("dims entries must be positive")
    return dims


def is_rook_shape(dims: Optional[Sequence[int]]) -> bool:
    """Do these dimensions describe a rook graph: at least two factors,
    each of size at least 2?"""
    return dims is not None and len(dims) >= 2 and all(d >= 2 for d in dims)


def _rook_dims(dims: Sequence[int]) -> tuple:
    """dims as a tuple, if they are ints that describe a rook graph."""
    dims = _positive_dims(dims)
    if not is_rook_shape(dims):
        raise ValueError("invalid rook dimensions")
    return dims


def _vertex_coords(dims: Sequence[int]) -> tuple:
    """Every vertex's coordinate tuple on a product of the given sizes,
    in vertex order: the last coordinate varies fastest."""
    return tuple(itertools.product(*map(range, dims)))


def _dims_nbr_masks(dims: Sequence[int]) -> tuple:
    """Each vertex's neighbour mask on a product of complete graphs of the
    given positive sizes: the other cells v + (j - c)*s, j < d, on its line
    along each axis of size d and stride s, where c is v's coordinate."""
    n = math.prod(dims)
    masks = [0] * n
    stride = n
    for d in dims:
        stride //= d
        line = sum(1 << j * stride for j in range(d))  # the line through cell 0
        for v in range(n):
            masks[v] |= (line << (v - v // stride % d * stride)) ^ (1 << v)
    return tuple(masks)


def _limited_nbr_masks(dims: tuple) -> tuple:
    """``_dims_nbr_masks(dims)``, refused above ``MAX_JSON_VERTICES``
    vertices before anything is allocated."""
    n = math.prod(dims)
    if n > MAX_JSON_VERTICES:
        raise ValueError(f"dims {list(dims)} give {n} vertices, above the limit "
                         f"of {MAX_JSON_VERTICES} vertices")
    return _dims_nbr_masks(dims)


def _dims_graph(dims: tuple) -> MultiGraph:
    """The product of complete graphs of the given positive sizes, refused
    above ``MAX_JSON_VERTICES`` vertices before anything is allocated."""
    masks = _limited_nbr_masks(dims)
    n = len(masks)
    rows = []
    for mask in masks:
        row = [0] * n
        for v in mask_vertices(mask):
            row[v] = 1
        rows.append(row)
    return MultiGraph(rows, dims=dims)


def rook_graph(dims: Sequence[int]) -> MultiGraph:
    """Iterated product of complete graphs; every dim >= 2, at least two dims."""
    return _dims_graph(_rook_dims(dims))


# ======================================================================
# subsets and cuts
# ======================================================================

def _vertex_mask(g: MultiGraph, verts: Iterable[int]) -> int:
    """A vertex set as a bitmask: the one check for vertex sets entering
    the package.  Each entry must be an int (bools rejected) in range;
    repeats and order do not matter."""
    n = g.n
    mask = 0
    for v in verts:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise ValueError(f"vertex {v!r} out of range")
        mask |= 1 << v
    return mask


def lowest_component(nbr: Sequence[int], mask: int) -> int:
    """The connected component of the lowest vertex of a vertex bitmask,
    as a bitmask, under the neighbour masks nbr; 0 for an empty mask.  A
    nonempty mask is connected iff this returns it.  No range checks,
    for trusted vertex sets."""
    seen = frontier = mask & -mask
    while frontier and seen != mask:
        low = frontier & -frontier
        frontier ^= low
        fresh = nbr[low.bit_length() - 1] & (mask ^ seen)  # seen is inside mask
        seen |= fresh
        frontier |= fresh
    return seen


def _component_masks(nbr: Sequence[int], mask: int) -> Iterator[int]:
    """The connected components of a vertex bitmask under the neighbour
    masks nbr, as bitmasks, in order of their lowest vertex.  No range
    checks, for trusted vertex sets."""
    while mask:
        comp = lowest_component(nbr, mask)
        yield comp
        mask ^= comp


def edges_into(g: MultiGraph, u: int, mask: int) -> int:
    """Total multiplicity of the edges from vertex u into the vertex bitmask
    mask: one popcount for u's neighbour mask and one, times its weight,
    per multiplicity level.  No range checks, for trusted vertices."""
    count = (g.nbr_masks[u] & mask).bit_count()
    for x, w in g.level_masks[u]:
        count += w * (x & mask).bit_count()
    return count


def cut_weight(g: MultiGraph, a: Iterable[int]) -> int:
    """Total multiplicity of edges with exactly one end in a."""
    mask = _vertex_mask(g, a)
    rest = ((1 << g.n) - 1) ^ mask
    return sum(edges_into(g, u, rest) for u in mask_vertices(mask))


def connected_subsets(g: MultiGraph, k: int) -> Iterator[tuple]:
    """All connected k-subsets as sorted vertex tuples, in the order of
    connected_masks."""
    return map(mask_vertices, connected_masks(g, k))


def _check_subset_size(g: MultiGraph, k: int) -> None:
    """Raise ValueError unless k is an integer from 1 to g's vertex count."""
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= g.n:
        raise ValueError("k must be an integer between 1 and the vertex count")


def connected_masks(g: MultiGraph, k: int) -> Iterator[int]:
    """All connected k-subsets as vertex bitmasks, each exactly once, in
    a fixed order.

    Grows subsets from an anchor vertex (the smallest member), extending
    only with larger-indexed vertices from exclusive neighborhoods, so no
    subset is produced twice.  A bad k raises ValueError at the call.
    """
    _check_subset_size(g, k)
    if k == 1:
        return (1 << u for u in range(g.n))
    return _connected_masks(g.nbr_masks, g.n, k)


def _connected_masks(nbr, n, k):
    for anchor in range(n):
        above = -1 << (anchor + 1)
        sub = 1 << anchor
        yield from _esu_extend(nbr, above, sub, nbr[anchor] & above,
                               nbr[anchor] | sub, k - 1)


def mask_vertices(mask: int) -> tuple:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _esu_extend(nbr, above, sub, ext, closed, need):
    while ext:
        low = ext & -ext
        ext ^= low  # removed for this branch and all later siblings
        if need == 1:
            yield sub | low
        else:
            w = low.bit_length() - 1
            fresh = nbr[w] & above & ~closed
            yield from _esu_extend(
                nbr, above, sub | low, ext | fresh, closed | low | nbr[w], need - 1
            )


# ======================================================================
# max flow / min cut
# ======================================================================

def min_cut_between(g: MultiGraph, s: Iterable[int], t: Iterable[int]) -> FlowResult:
    """Minimum-weight cut separating vertex set s from t, via max flow.

    Returns the cut value and the minimal source side (every vertex
    reachable from s in the residual graph), which makes the witness
    deterministic: neither depends on the flow algorithm.
    """
    return FlowResult(*_flow(g, s, t, cutoff=None))


def min_cut_value(g: MultiGraph, s: Iterable[int], t: Iterable[int],
                  cutoff: Optional[int] = None) -> tuple:
    """(value, exact) pair; with a cutoff the flow stops once it reaches it.

    With a cutoff, ``exact`` is True iff the min cut is below it; when it
    is False the value is a lower bound on the min cut of at least cutoff.
    """
    value, _ = _flow(g, s, t, cutoff=cutoff)
    return value, cutoff is None or value < cutoff


def _flow(g: MultiGraph, s: Iterable[int], t: Iterable[int], cutoff: Optional[int]):
    """(flow value, source side) from vertex set s to vertex set t, by
    shortest augmenting paths (Edmonds and Karp) from the whole of s.

    Each edge of multiplicity m is two residual arcs of capacity m.  Each
    round searches breadth first from every vertex of s at once, stops at
    the first vertex of t it reaches and pushes that path's bottleneck.
    When no path is left, the side is the sorted tuple of vertices the last
    search reached: those residual-reachable from s.  When the flow reaches
    cutoff first, it stops with side None and a value between cutoff and
    the min cut."""
    smask = _vertex_mask(g, s)
    tmask = _vertex_mask(g, t)
    if not smask or not tmask:
        raise ValueError("source and sink sets must be nonempty")
    if smask & tmask:
        raise ValueError("source and sink sets must be disjoint")
    sources = mask_vertices(smask)
    residual = [dict(nbrs) for nbrs in g.adj]
    flow = 0
    while cutoff is None or flow < cutoff:
        parent = dict.fromkeys(sources)
        queue = deque(sources)
        end = None
        while queue and end is None:
            u = queue.popleft()
            for v, c in residual[u].items():
                if c and v not in parent:
                    parent[v] = u
                    if tmask >> v & 1:
                        end = v
                        break
                    queue.append(v)
        if end is None:
            return flow, tuple(sorted(parent))
        path = []
        while parent[end] is not None:
            path.append((parent[end], end))
            end = parent[end]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push
    return flow, None


# ======================================================================
# JSON interchange
# ======================================================================

def graph_to_json(g: MultiGraph) -> dict:
    edges = []
    for u in range(g.n):
        for v, m in g.adj[u]:
            if u < v:
                edges.append([u, v, m])
    edges.sort()
    return {
        "vertex_count": g.n,
        "edges": edges,
        "dims": list(g.dims) if g.dims is not None else None,
    }


# The most vertices graph_from_json and the dims constructors accept: a graph
# holds two n × n matrices while it is built, 64 MiB of 8-byte slots at 2048.
MAX_JSON_VERTICES = 2048


def graph_from_json(data: dict) -> MultiGraph:
    """The graph of a graph_to_json object, checked in full before allocating."""
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    try:
        n = data["vertex_count"]
        edges = data["edges"]
    except KeyError as exc:
        raise ValueError(f"graph JSON is missing key {exc}") from None
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("vertex_count must be a positive integer")
    if not isinstance(edges, (list, tuple)):
        raise ValueError("edges must be a list of [u, v, mult] triples")
    seen = set()
    for item in edges:
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise ValueError("each edge must be a [u, v, mult] triple")
        u, v, m = item
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v, m)):
            raise ValueError("edge entries must be integers")
        if not (0 <= u < v < n):
            raise ValueError("edges must satisfy 0 <= u < v < vertex_count")
        if m < 1:
            raise ValueError("edge multiplicity must be at least 1")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge [{u}, {v}]")
        seen.add((u, v))
    if len(edges) < n - 1:
        raise ValueError("graph must be connected")
    if n > MAX_JSON_VERTICES:
        raise ValueError(f"vertex_count {n} is above the limit of "
                         f"{MAX_JSON_VERTICES} vertices")
    dims = data.get("dims")
    if dims is not None and not isinstance(dims, (list, tuple)):
        raise ValueError("dims must be a list of integers or null")
    mult = [[0] * n for _ in range(n)]
    for u, v, m in edges:
        mult[u][v] = mult[v][u] = m
    return MultiGraph(mult, dims=dims)
