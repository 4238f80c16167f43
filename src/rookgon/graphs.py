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
    """Loopless connected undirected multigraph with integer multiplicities."""

    __slots__ = ("n", "mult", "dims", "adj", "degrees", "_cache")

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
        for u, row in enumerate(rows):
            for v, m in enumerate(row):
                if not isinstance(m, int) or isinstance(m, bool) or m < 0:
                    raise ValueError("multiplicities must be nonnegative integers")
                if m != rows[v][u]:
                    raise ValueError("multiplicity matrix must be symmetric")
            if row[u] != 0:
                raise ValueError("loops are not allowed")
        self.n = n
        self.mult = tuple(rows)
        self.adj = tuple(
            tuple((v, rows[u][v]) for v in range(n) if rows[u][v] > 0) for u in range(n)
        )
        self.degrees = tuple(sum(m for _, m in nbrs) for nbrs in self.adj)
        self._cache: dict = {}
        full = (1 << n) - 1
        if lowest_component(neighbour_masks(self), full) != full:
            raise ValueError("graph must be connected")
        if dims is not None:
            dims = _int_dims(dims)
            self._check_dims(dims)
        self.dims = dims

    # -- structure ---------------------------------------------------------

    def _check_dims(self, dims: tuple) -> None:
        if any(d < 1 for d in dims):
            raise ValueError("dims entries must be positive")
        if math.prod(dims) != self.n:
            raise ValueError("dims do not match the vertex count")
        labels = _vertex_coords(dims)
        for u in range(self.n):
            for v in range(u + 1, self.n):
                hamming = sum(1 for a, b in zip(labels[u], labels[v]) if a != b)
                want = 1 if hamming == 1 else 0
                if self.mult[u][v] != want:
                    raise ValueError("dims are inconsistent with the adjacency structure")

    def vertex_label(self, v: int) -> tuple:
        """Coordinate tuple of a vertex; requires product dims."""
        labels = self.labels()
        _vertex_mask(self, (v,))
        return labels[v]

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
        lab = self._cache.get("labels")
        if lab is None:
            lab = self._cache["labels"] = _vertex_coords(self.dims)
        return lab

    def edge_count(self) -> int:
        """Total edge multiplicity."""
        return sum(self.degrees) // 2

    def genus(self) -> int:
        """First Betti number |E| - |V| + 1."""
        return self.edge_count() - self.n + 1


# ======================================================================
# constructors
# ======================================================================

def complete_graph(n: int) -> MultiGraph:
    """K_n with a single edge between every pair of distinct vertices."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("complete graph size must be an integer")
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    mult = [[0 if u == v else 1 for v in range(n)] for u in range(n)]
    return MultiGraph(mult, dims=(n,))


def cartesian_product(g: MultiGraph, h: MultiGraph) -> MultiGraph:
    """Cartesian product: (x1,y1)~(x2,y2) iff equal in one slot, adjacent in the other."""
    n = g.n * h.n
    mult = [[0] * n for _ in range(n)]
    for x1 in range(g.n):
        for y1 in range(h.n):
            u = x1 * h.n + y1
            for y2, m in h.adj[y1]:
                mult[u][x1 * h.n + y2] = m
            for x2, m in g.adj[x1]:
                mult[u][x2 * h.n + y1] = m
    dims = None
    if g.dims is not None and h.dims is not None:
        dims = g.dims + h.dims
    return MultiGraph(mult, dims=dims)


def _int_dims(dims: Sequence[int]) -> tuple:
    """dims as a tuple; every entry must be an int (bools rejected)."""
    dims = tuple(dims)
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ValueError("dims must be integers")
    return dims


def _vertex_coords(dims: Sequence[int]) -> tuple:
    """Every vertex's coordinate tuple on a product of the given sizes,
    in vertex order: the last coordinate varies fastest."""
    return tuple(itertools.product(*map(range, dims)))


def rook_graph(dims: Sequence[int]) -> MultiGraph:
    """Iterated product of complete graphs; every dim >= 2, at least two dims."""
    dims = _int_dims(dims)
    if len(dims) < 2:
        raise ValueError("rook graph needs at least two dimensions")
    if any(d < 2 for d in dims):
        raise ValueError("rook graph dimensions must be at least 2")
    g = complete_graph(dims[0])
    for d in dims[1:]:
        g = cartesian_product(g, complete_graph(d))
    return g


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


def is_connected_subset(g: MultiGraph, s: Iterable[int]) -> bool:
    """True iff s is nonempty and induces a connected subgraph."""
    mask = _vertex_mask(g, s)
    return mask != 0 and lowest_component(neighbour_masks(g), mask) == mask


def neighbour_masks(g: MultiGraph) -> tuple:
    """Per-vertex neighbour bitmasks, built once per graph."""
    nbr = g._cache.get("nbr_masks")
    if nbr is None:
        nbr = g._cache["nbr_masks"] = tuple(
            sum(1 << v for v, _ in g.adj[u]) for u in range(g.n))
    return nbr


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


def cut_weight(g: MultiGraph, a: Iterable[int]) -> int:
    """Total multiplicity of edges with exactly one end in a."""
    mask = _vertex_mask(g, a)
    total = 0
    for u in mask_vertices(mask):
        for v, m in g.adj[u]:
            if not mask >> v & 1:
                total += m
    return total


def connected_subsets(g: MultiGraph, k: int) -> Iterator[tuple]:
    """All connected k-subsets as sorted vertex tuples, in the order of
    connected_masks."""
    return map(mask_vertices, connected_masks(g, k))


def connected_masks(g: MultiGraph, k: int) -> Iterator[int]:
    """All connected k-subsets as vertex bitmasks, each exactly once, in
    a fixed order.

    Grows subsets from an anchor vertex (the smallest member), extending
    only with larger-indexed vertices from exclusive neighborhoods, so no
    subset is produced twice.  A bad k raises ValueError at the call.
    """
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= g.n:
        raise ValueError("k must be an integer between 1 and the vertex count")
    if k == 1:
        return (1 << u for u in range(g.n))
    return _connected_masks(neighbour_masks(g), g.n, k)


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
    deterministic.  The side is the set that the flow's last
    breadth-first search levelled before it failed to reach t.
    """
    value, level = _flow(g, s, t, cutoff=None)
    return FlowResult(value, tuple(v for v in range(g.n) if level[v] >= 0))


def min_cut_value(g: MultiGraph, s: Iterable[int], t: Iterable[int],
                  cutoff: Optional[int] = None) -> tuple:
    """(value, exact) pair; with a cutoff the flow stops once it reaches it.

    When ``exact`` is False the true min cut is >= the returned value.
    """
    value, _ = _flow(g, s, t, cutoff=cutoff)
    exact = cutoff is None or value < cutoff
    return value, exact


def _flow(g: MultiGraph, s: Iterable[int], t: Iterable[int], cutoff: Optional[int]):
    """(flow value, levels) from s to t, as _dinic returns them."""
    smask = _vertex_mask(g, s)
    tmask = _vertex_mask(g, t)
    if not smask or not tmask:
        raise ValueError("source and sink sets must be nonempty")
    if smask & tmask:
        raise ValueError("source and sink sets must be disjoint")
    n = g.n
    S, T = n, n + 1
    big = sum(g.degrees) + 1
    cap = [[0] * (n + 2) for _ in range(n + 2)]
    nbrs = [list() for _ in range(n + 2)]
    for u in range(n):
        for v, m in g.adj[u]:
            cap[u][v] = m
        nbrs[u] = [v for v, _ in g.adj[u]]
    for u in mask_vertices(smask):
        cap[S][u] = big
        nbrs[S].append(u)
        nbrs[u].append(S)
    for u in mask_vertices(tmask):
        cap[u][T] = big
        nbrs[u].append(T)
        nbrs[T].append(u)
    return _dinic(nbrs, cap, S, T, big, cutoff)


def _dinic(nbrs, cap, s, t, big, cutoff):
    """Max flow from s to t, stopping once it reaches cutoff when given.

    Returns (flow, level).  When the flow runs to the end, level is the
    last breadth-first search, which failed to reach t: the vertices it
    levelled (level >= 0) are exactly those residual-reachable from s.
    When the cutoff stops the flow, level is None."""
    flow = 0
    size = len(nbrs)
    while True:
        level = [-1] * size
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            lu = level[u]
            for v in nbrs[u]:
                if level[v] < 0 and cap[u][v] > 0:
                    level[v] = lu + 1
                    q.append(v)
        if level[t] < 0:
            return flow, level
        ptr = [0] * size

        def push(u, limit):
            if u == t:
                return limit
            row = nbrs[u]
            while ptr[u] < len(row):
                v = row[ptr[u]]
                if cap[u][v] > 0 and level[v] == level[u] + 1:
                    got = push(v, min(limit, cap[u][v]))
                    if got:
                        cap[u][v] -= got
                        cap[v][u] += got
                        return got
                ptr[u] += 1
            return 0

        while True:
            pushed = push(s, big)
            if not pushed:
                break
            flow += pushed
            if cutoff is not None and flow >= cutoff:
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


def graph_from_json(data: dict) -> MultiGraph:
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    try:
        n = data["vertex_count"]
        edges = data["edges"]
    except KeyError as exc:
        raise ValueError(f"graph JSON is missing key {exc}") from None
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("vertex_count must be a positive integer")
    mult = [[0] * n for _ in range(n)]
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
        mult[u][v] = m
        mult[v][u] = m
    dims = data.get("dims")
    if dims is not None and not isinstance(dims, (list, tuple)):
        raise ValueError("dims must be a list of integers or null")
    return MultiGraph(mult, dims=dims)
