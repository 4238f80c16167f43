"""Multigraph core: constructors, connectivity, cuts, flows, JSON I/O.

Vertices are integers ``0..n-1``.  Graphs built as products of complete
graphs carry a ``dims`` tuple and coordinate labels laid out row-major
(last coordinate varies fastest), so witness sets serialize stably.
"""

from __future__ import annotations

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
        for u in range(n):
            if rows[u][u] != 0:
                raise ValueError("loops are not allowed")
            for v in range(u + 1, n):
                m = rows[u][v]
                if not isinstance(m, int) or isinstance(m, bool) or m < 0:
                    raise ValueError("multiplicities must be nonnegative integers")
                if m != rows[v][u]:
                    raise ValueError("multiplicity matrix must be symmetric")
        self.n = n
        self.mult = tuple(rows)
        self.adj = tuple(
            tuple((v, rows[u][v]) for v in range(n) if rows[u][v] > 0) for u in range(n)
        )
        self.degrees = tuple(sum(m for _, m in nbrs) for nbrs in self.adj)
        self._cache: dict = {}
        if not is_connected_mask(neighbour_masks(self), (1 << n) - 1):
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
        labels = [self._unravel(v, dims) for v in range(self.n)]
        for u in range(self.n):
            for v in range(u + 1, self.n):
                hamming = sum(1 for a, b in zip(labels[u], labels[v]) if a != b)
                want = 1 if hamming == 1 else 0
                if self.mult[u][v] != want:
                    raise ValueError("dims are inconsistent with the adjacency structure")

    @staticmethod
    def _unravel(v: int, dims: tuple) -> tuple:
        coords = []
        for d in reversed(dims):
            coords.append(v % d)
            v //= d
        return tuple(reversed(coords))

    def vertex_label(self, v: int) -> tuple:
        """Coordinate tuple of a vertex; requires product dims."""
        if self.dims is None:
            raise ValueError("graph has no coordinate labels")
        if not 0 <= v < self.n:
            raise ValueError("vertex out of range")
        return self._unravel(v, self.dims)

    def label_to_index(self, coords: Sequence[int]) -> int:
        if self.dims is None:
            raise ValueError("graph has no coordinate labels")
        if len(coords) != len(self.dims):
            raise ValueError("coordinate arity mismatch")
        v = 0
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise ValueError("coordinate out of range")
            v = v * d + c
        return v

    def labels(self) -> tuple:
        """All coordinate labels in vertex order."""
        lab = self._cache.get("labels")
        if lab is None:
            lab = tuple(self.vertex_label(v) for v in range(self.n))
            self._cache["labels"] = lab
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

def _check_subset(g: MultiGraph, s: Iterable[int]) -> list:
    out = []
    seen = set()
    for v in s:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < g.n:
            raise ValueError(f"vertex {v!r} out of range")
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def is_connected_subset(g: MultiGraph, s: Iterable[int]) -> bool:
    """True iff s is nonempty and induces a connected subgraph."""
    verts = _check_subset(g, s)
    return is_connected_mask(neighbour_masks(g), sum(1 << v for v in verts))


def neighbour_masks(g: MultiGraph) -> tuple:
    """Per-vertex neighbour bitmasks, built once per graph."""
    nbr = g._cache.get("nbr_masks")
    if nbr is None:
        nbr = g._cache["nbr_masks"] = tuple(
            sum(1 << v for v, _ in g.adj[u]) for u in range(g.n))
    return nbr


def is_connected_mask(nbr: Sequence[int], mask: int) -> bool:
    """True iff the vertex bitmask is nonempty and connected under the
    neighbour masks nbr; no range checks, for trusted vertex sets."""
    if not mask:
        return False
    seen = frontier = mask & -mask
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        fresh = nbr[low.bit_length() - 1] & mask & ~seen
        seen |= fresh
        frontier |= fresh
    return seen == mask


def cut_weight(g: MultiGraph, a: Iterable[int]) -> int:
    """Total multiplicity of edges with exactly one end in a."""
    verts = _check_subset(g, a)
    inside = bytearray(g.n)
    for v in verts:
        inside[v] = 1
    total = 0
    for u in verts:
        for v, m in g.adj[u]:
            if not inside[v]:
                total += m
    return total


def connected_subsets(g: MultiGraph, k: int) -> Iterator[tuple]:
    """All connected k-subsets, each exactly once, in a fixed order.

    Grows subsets from an anchor vertex (the smallest member), extending
    only with larger-indexed vertices from exclusive neighborhoods, so no
    subset is produced twice.
    """
    n = g.n
    if not 1 <= k <= n:
        raise ValueError("k must be between 1 and the vertex count")
    if k == 1:
        for u in range(n):
            yield (u,)
        return
    nbr = neighbour_masks(g)
    for anchor in range(n):
        above = -1 << (anchor + 1)
        sub = 1 << anchor
        ext = nbr[anchor] & above
        closed = nbr[anchor] | sub
        for mask in _esu_extend(nbr, above, sub, ext, closed, k - 1):
            out = []
            m = mask
            while m:
                low = m & -m
                out.append(low.bit_length() - 1)
                m ^= low
            yield tuple(out)


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
    deterministic.
    """
    value, cap, nbrs, S = _flow(g, s, t, cutoff=None)
    n = g.n
    seen = bytearray(n + 2)
    seen[S] = 1
    stack = [S]
    while stack:
        u = stack.pop()
        for v in nbrs[u]:
            if not seen[v] and cap[u][v] > 0:
                seen[v] = 1
                stack.append(v)
    side = tuple(v for v in range(n) if seen[v])
    return FlowResult(value, side)


def min_cut_value(g: MultiGraph, s: Iterable[int], t: Iterable[int],
                  cutoff: Optional[int] = None) -> tuple:
    """(value, exact) pair; with a cutoff the flow stops once it reaches it.

    When ``exact`` is False the true min cut is >= the returned value.
    """
    value, _, _, _ = _flow(g, s, t, cutoff=cutoff)
    exact = cutoff is None or value < cutoff
    return value, exact


def _flow(g: MultiGraph, s: Iterable[int], t: Iterable[int], cutoff: Optional[int]):
    sv = _check_subset(g, s)
    tv = _check_subset(g, t)
    if not sv or not tv:
        raise ValueError("source and sink sets must be nonempty")
    if set(sv) & set(tv):
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
    for u in sorted(sv):
        cap[S][u] = big
        nbrs[S].append(u)
        nbrs[u].append(S)
    for u in sorted(tv):
        cap[u][T] = big
        nbrs[u].append(T)
        nbrs[T].append(u)
    value = _dinic(nbrs, cap, S, T, big, cutoff)
    return value, cap, nbrs, S


def _dinic(nbrs, cap, s, t, big, cutoff):
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
            return flow
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
                return flow


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
