"""Scrambles: egg collections, hitting numbers, egg cuts, and orders.

A scramble is a collection of eggs (nonempty connected vertex sets) on a
host graph.  The hitting number is computed exactly through a maximum
avoidance set; the minimum egg cut through pairwise max-flow with an
early-terminating incumbent, which stops as soon as it meets a certified
cut floor.  The floor exists on every rook host: it bounds the induced
edges of a vertex set from its layer counts along the first axis,
recursively, and is exact on two factors.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import graphs
from .graphs import MultiGraph, connected_masks, rook_graph


class Scramble:
    """Eggs over a host graph, stored as sorted, deduplicated vertex
    bitmasks in ``masks``.  Every egg set passes ``_set_eggs`` before it
    is stored, and an empty or disconnected egg raises ValueError naming
    each bad egg in egg order.  ``eggs`` holds the same eggs as ascending
    vertex tuples in ascending order, decoded from the masks on first
    read; the same decode keeps each egg's mask in egg order.

    ``Scramble(host, eggs)`` checks and stores its egg list at once.  A
    family scramble (``star_scramble``, ``uniform_scramble``,
    ``square_augmented_scramble``) holds only its host and its read-only
    hints ``uniform_size`` (every connected subset of that size is an
    egg) and ``with_squares`` (so is every 2x2 square).  It lists its
    eggs from ``graphs.connected_masks`` on the first read of ``masks``
    or ``eggs``, through the same check, so a bad egg raises there.
    Solvers that need no egg list answer from the definition:
    ``hitting_number`` certifies either search's avoidance set against
    the family itself (only the knapsack of two-factor families runs
    without the list), ``egg_cut_floor`` takes the smallest egg size
    from the hints, and ``egg_count`` counts the connected subsets
    without listing them.  A scramble built directly or loaded from JSON
    never carries hints, so an unchecked hint cannot steer the grid
    knapsack to a wrong hitting number.
    """

    __slots__ = ("host", "_masks", "_eggs", "_egg_masks", "_uniform_size",
                 "_with_squares")

    def __init__(self, host: MultiGraph, eggs: Iterable[Iterable[int]]):
        try:
            eggs = iter(eggs)
        except TypeError:
            raise ValueError(f"eggs {eggs!r} is not a list of eggs") from None
        masks = []
        for egg in eggs:
            if isinstance(egg, (str, bytes)):
                raise ValueError(f"egg {egg!r} is not a list of vertices")
            try:
                verts = iter(egg)
            except TypeError:
                raise ValueError(f"egg {egg!r} is not a list of vertices") from None
            masks.append(graphs._vertex_mask(host, verts))
        self._start(host, None, False)
        self._set_eggs(masks)

    @classmethod
    def _family(cls, host: MultiGraph, k: int,
                with_squares: bool = False) -> "Scramble":
        """Every connected k-subset of host (plus every 2x2 square of a
        two-factor host), listed on first read; a bad k raises here."""
        graphs._check_subset_size(host, k)
        s = cls.__new__(cls)
        s._start(host, k, with_squares)
        return s

    def _start(self, host: MultiGraph, uniform_size: Optional[int],
               with_squares: bool) -> None:
        self.host = host
        self._masks = self._eggs = self._egg_masks = None
        self._uniform_size, self._with_squares = uniform_size, with_squares

    def _family_masks(self) -> Iterator[int]:
        """The family's eggs as bitmasks, squares after the k-subsets."""
        yield from connected_masks(self.host, self._uniform_size)
        if self._with_squares:
            n, m = self.host.dims
            for r1, r2 in itertools.combinations(range(n), 2):
                for c1, c2 in itertools.combinations(range(m), 2):
                    yield ((1 << r1 * m + c1) | (1 << r1 * m + c2)
                           | (1 << r2 * m + c1) | (1 << r2 * m + c2))

    def _set_eggs(self, masks: Iterable[int]) -> None:
        """Store the eggs; if an egg is empty or disconnected, store
        nothing and raise ValueError naming each bad one in egg order."""
        masks = tuple(sorted(set(masks)))
        nbr = self.host.nbr_masks

        def bad(mask):
            return not mask or graphs.lowest_component(nbr, mask) != mask

        if any(map(bad, masks)):
            raise ValueError("invalid scramble: " + "; ".join(
                f"egg {idx} is not connected: {list(egg)}" if mask
                else f"egg {idx} is empty"
                for idx, (egg, mask) in enumerate(zip(*_decode(masks)))
                if bad(mask)))
        self._masks = masks

    @property
    def masks(self) -> tuple:
        if self._masks is None:
            self._set_eggs(self._family_masks())
        return self._masks

    @property
    def eggs(self) -> tuple:
        if self._eggs is None:
            self._eggs, self._egg_masks = _decode(self.masks)
        return self._eggs

    @property
    def egg_count(self) -> int:
        """The number of eggs.  A family not yet listed counts its
        connected k-subsets in closed form on a two-factor host
        (``_rook_connected_count``) and as the enumerator yields them on
        any other, plus the C(n,2)*C(m,2) squares unless k = 4, where
        every square is already a connected 4-subset."""
        if self._masks is not None:
            return len(self._masks)
        host, k = self.host, self._uniform_size
        if host.dims is not None and len(host.dims) == 2:
            count = _rook_connected_count(*host.dims, k)
        else:
            count = sum(1 for _ in connected_masks(host, k))
        if self._with_squares and k != 4:
            n, m = host.dims
            count += math.comb(n, 2) * math.comb(m, 2)
        return count

    @property
    def uniform_size(self) -> Optional[int]:
        return self._uniform_size

    @property
    def with_squares(self) -> bool:
        return self._with_squares


def _rook_connected_count(n: int, m: int, k: int) -> int:
    """The number of connected k-subsets of the n x m rook graph.

    Read cell (r, c) as the edge r-c of the complete bipartite graph on
    the rows and columns: a cell set is connected exactly when its edges
    form a connected graph on the rows and columns they touch.  So the
    count sums, over the a rows and b columns a set spans, C(n, a) *
    C(m, b) connected spanning graphs with k edges on those sides.
    """
    return sum(math.comb(n, a) * math.comb(m, b) * _connected_bipartite(a, b, k)
               for a in range(1, min(n, k) + 1)
               for b in range(1, min(m, k + 1 - a) + 1))


@lru_cache(maxsize=None)
def _connected_bipartite(a: int, b: int, e: int) -> int:
    """The number of connected graphs with e edges on labelled sides of a
    and b vertices, every vertex included (a >= 1).

    Inclusion-exclusion on the component of the first vertex of side a:
    of the C(ab, e) graphs, those whose component spans a' < a or b' < b
    vertices are C(a-1, a'-1) * C(b, b') choices of that component's
    vertices, times its connected graphs with e' edges, times any e - e'
    edges among the (a-a')(b-b') pairs outside it.  A component with no
    side-b vertex is the first vertex alone, with no edge.
    """
    if b == 0:
        return int(a == 1 and e == 0)
    count = math.comb(a * b, e)
    for a1 in range(1, a + 1):
        for b1 in range(b + 1 if a1 < a else b):
            rest = (a - a1) * (b - b1)
            ways = math.comb(a - 1, a1 - 1) * math.comb(b, b1)
            for e1 in range(max(0, a1 + b1 - 1), min(e, a1 * b1) + 1):
                count -= (ways * _connected_bipartite(a1, b1, e1)
                          * math.comb(rest, e - e1))
    return count


def _decode(masks: tuple) -> tuple:
    """The masks as ascending vertex tuples in ascending order, and each
    egg's mask in egg order; distinct masks decode to distinct tuples."""
    mask_of = dict(zip(map(graphs.mask_vertices, masks), masks))
    eggs = tuple(sorted(mask_of))
    return eggs, tuple(map(mask_of.__getitem__, eggs))


# ======================================================================
# hitting number via maximum avoidance
# ======================================================================

def hitting_number(s: Scramble):
    """Exact minimum hitting set size with witnesses.

    Returns (number, hitting set, maximum avoidance set).  When the
    scramble is a family on a two-factor rook graph (all connected
    k-subsets, optionally plus all 2x2 squares), the avoidance maximum
    comes from a knapsack over component shapes; otherwise from an
    include/exclude search over the vertices that some egg covers,
    bounded by the exact optima of its suffixes (Russian-doll search).
    Either set is certified in one place: a family scramble's against
    the family itself, without listing its eggs (every induced component
    has fewer than k vertices, and with squares no 2x2 square lies
    wholly inside), any other scramble's against every egg.  An empty
    scramble covers no vertex, so every vertex avoids it.
    """
    host = s.host
    k = s._uniform_size
    if k is not None and host.dims is not None and len(host.dims) == 2:
        avoid = _max_avoidance_grid(host.dims[0], host.dims[1], k - 1,
                                    s._with_squares)
    else:
        avoid = _max_avoidance_branch_bound(s)
    if not (_avoids_family(s, avoid) if k is not None
            else all(mask & avoid != mask for mask in s.masks)):
        raise RuntimeError("avoidance solver returned a set containing an egg")
    hit = graphs.mask_vertices(((1 << host.n) - 1) ^ avoid)
    return len(hit), hit, graphs.mask_vertices(avoid)


def _avoids_family(s: Scramble, avoid: int) -> bool:
    """Whether the vertex bitmask holds no egg of the family scramble s,
    on any host: a set holds a connected k-subset exactly when one of its
    induced components has k or more vertices, and (on the two-factor
    hosts that carry squares) it holds a 2x2 square exactly when two of
    its rows share two columns."""
    if any(comp.bit_count() >= s._uniform_size
           for comp in graphs._component_masks(s.host.nbr_masks, avoid)):
        return False
    if s._with_squares:
        n, m = s.host.dims
        rows = [avoid >> r * m & ((1 << m) - 1) for r in range(n)]
        return all((a & b).bit_count() < 2
                   for a, b in itertools.combinations(rows, 2))
    return True


def _max_avoidance_branch_bound(s: Scramble) -> int:
    """Exact maximum egg-free set, as a bitmask, by include/exclude search
    with a Russian-doll bound (Verfaillie, Lemaitre and Schiex, 1996).

    A vertex outside every egg is in every maximum set, so the search
    decides only the covered vertices and adds the rest at the end.  It
    takes them in order of descending egg membership (ties by index),
    include before exclude, depth first on an explicit stack.  ``cap[p]``
    is the exact optimum over the suffix ``order[p:]``, solved from the
    shortest suffix up, and a node at position p dies when its count plus
    ``cap[p]`` cannot beat the best.  A suffix's optimum is ``cap[p + 1]``
    or one more, so each suffix solve starts from ``cap[p + 1]`` and
    stops at its first larger leaf.  The full solve starts below its
    optimum, and the bound never cuts a leaf that beats the best, so it
    returns the first maximum set in include-first order: the set the
    search without the bound returns over all the vertices.
    """
    n = s.host.n
    member = [[] for _ in range(n)]
    covered = 0
    for mask in s.masks:
        covered |= mask
        for v in graphs.mask_vertices(mask):
            member[v].append(mask)
    order = sorted(graphs.mask_vertices(covered), key=lambda v: (-len(member[v]), v))
    size = len(order)
    cap = [0] * (size + 1)
    best_mask = 0
    for p in range(size - 1, -1, -1):
        # cap[p] is an upper bound until its solve ends; the full solve
        # (p == 0) starts one below its least possible optimum
        top = cap[p] = cap[p + 1] + 1
        best_size = cap[p + 1] - (p == 0)
        stack = [(p, 0, 0)]
        while stack and best_size < top:
            pos, mask, count = stack.pop()
            if count + cap[pos] <= best_size:
                continue
            if pos == size:
                best_size, best_mask = count, mask
                continue
            v = order[pos]
            stack.append((pos + 1, mask, count))
            newmask = mask | (1 << v)
            for egg in member[v]:
                if egg & ~newmask == 0:
                    break
            else:
                stack.append((pos + 1, newmask, count + 1))
        cap[p] = best_size
    return best_mask | (((1 << n) - 1) ^ covered)


def _max_avoidance_grid(nrows: int, ncols: int, maxcomp: int,
                        no_squares: bool) -> int:
    """Exact maximum vertex set on an nrows x ncols rook graph whose
    induced components all have at most maxcomp vertices (and, when
    no_squares is set, which contains no full 2x2 square), as a bitmask.

    Read cell (r, c) as the edge r-c of the complete bipartite graph on
    the rows and columns: two cells are adjacent exactly when their edges
    share an end, so components use disjoint rows and columns, and one on
    a rows and b columns holds from a+b-1 to a*b cells.  The maximum is
    then an unbounded knapsack over component shapes (a, b) with
    a+b-1 <= maxcomp, each worth min(a*b, maxcomp); ``best[i][j]`` is the
    most cells on i rows and j columns.  No transition skips a row or a
    column: for i, j >= 1 an optimal set has a component (a single cell
    beats the empty set), and taking the rows and columns it spans leaves
    a set on (i-a) x (j-b), so some shape reaches ``best[i][j]`` and the
    walk back always finds one.  With maxcomp 4 the only 4-cell
    component on 2 x 2 is the full square, so no_squares caps that shape
    at 3 cells.

    The witness places each chosen shape in its own block of rows and
    columns and fills the block's first row, then its first column, then
    the rest row by row: the first a+b-1 cells span the block, so each
    block is connected.
    """
    if maxcomp <= 0:
        return 0
    if no_squares and maxcomp > 4:
        raise ValueError("square-free avoidance supports component caps up to 4 only")
    shapes = [(a, b, min(a * b, 3 if no_squares and a == b == 2 else maxcomp))
              for a in range(1, min(nrows, maxcomp) + 1)
              for b in range(1, min(ncols, maxcomp + 1 - a) + 1)]
    best = [[0] * (ncols + 1) for _ in range(nrows + 1)]
    for i in range(1, nrows + 1):
        for j in range(1, ncols + 1):
            best[i][j] = max(worth + best[i - a][j - b]
                             for a, b, worth in shapes if a <= i and b <= j)

    mask = 0
    i, j = nrows, ncols
    while best[i][j]:
        for a, b, worth in shapes:
            if a <= i and b <= j and worth + best[i - a][j - b] == best[i][j]:
                i -= a
                j -= b
                cells = ([(i, j + t) for t in range(b)]
                         + [(i + s, j) for s in range(1, a)]
                         + [(i + s, j + t) for s in range(1, a) for t in range(1, b)])
                for r, c in cells[:worth]:
                    mask |= 1 << r * ncols + c
                break
    return mask


# ======================================================================
# egg cuts
# ======================================================================

class EggCutResult(NamedTuple):
    value: Optional[int]      # None means no two eggs are disjoint (+infinity)
    pair: Optional[tuple]     # the egg pair attaining the minimum
    side: Optional[tuple]     # minimal source side of the minimum cut


_INFEASIBLE = -(1 << 62)


@lru_cache(maxsize=None)
def _max_induced_edges(dims: tuple) -> tuple:
    """Entry s bounds from above the edges induced by s vertices of the
    rook graph on `dims`; exact on one clique and on two factors.

    Split the first axis into n = dims[0] layers, each a rook graph on
    dims[1:] with m vertices.  A vertex set meets the layers in r_1 >=
    ... >= r_n vertices (after sorting) and the line along the first
    axis through position p in c_p; its induced edges are those inside
    the layers plus sum C(c_p, 2).  The layer x position incidence is a
    0/1 matrix with margins r and c, so c is majorized by the conjugate
    r* of r (Gale-Ryser), and C(x, 2) is convex, so sum C(c_p, 2) <=
    sum C(r*_j, 2) = sum (i-1) r_i (Karamata), with equality for the
    staircase matrix.  Bounding each layer recursively leaves the
    maximum of sum_i bound(r_i) + (i-1) r_i over descending r, a dynamic
    program over the layers in which each count is capped by the one
    before it.
    """
    if len(dims) == 1:
        return tuple(s * (s - 1) // 2 for s in range(dims[0] + 1))
    layer = _max_induced_edges(dims[1:])
    m = len(layer) - 1
    total = dims[0] * m
    # best[rem][cap]: most edges the layers still to fill can hold with
    # rem vertices, each layer taking at most cap and no more than the
    # layer before it
    best = [[0] * (m + 1)] + [[_INFEASIBLE] * (m + 1) for _ in range(total)]
    for i in range(dims[0] - 1, -1, -1):
        gain = [layer[r] + i * r for r in range(m + 1)]
        nxt = []
        for rem in range(total + 1):
            row = [best[rem][0]]
            for cap in range(1, m + 1):
                take = gain[cap] + best[rem - cap][cap] if cap <= rem else _INFEASIBLE
                row.append(max(row[-1], take))
            nxt.append(row)
        best = nxt
    return tuple(row[m] for row in best)


def min_side_cut_floor(dims: Sequence[int], min_side: int) -> Optional[int]:
    """Certified lower bound on the cut weight of the rook graph on
    `dims` over partitions with both sides of at least min_side vertices
    (None if impossible); exact on two factors.

    The host is regular of degree deg, so a side X has cut weight
    deg*|X| - 2*e(X) and the induced-edge bound gives the floor.  A cut
    and its complement weigh the same, so sides up to half suffice.
    """
    dims = graphs._positive_dims(dims)
    if not isinstance(min_side, int) or isinstance(min_side, bool):
        raise ValueError("min_side must be an integer")
    total = math.prod(dims)
    if min_side < 1 or 2 * min_side > total:
        return None
    deg = sum(d - 1 for d in dims)
    edges = _max_induced_edges(dims)
    return min(deg * size - 2 * edges[size]
               for size in range(min_side, total // 2 + 1))


def egg_cut_floor(s: Scramble) -> Optional[int]:
    """A certified lower bound on the minimum egg cut when the host is a
    rook graph: every egg-separating partition has both sides at least
    as large as the smallest egg.  A family's smallest egg is k, or
    min(k, 4) with squares, so its eggs are not listed."""
    host = s.host
    if host.dims is None or len(host.dims) < 2:
        return None
    k = s._uniform_size
    if k is not None:
        smallest = min(k, 4) if s._with_squares else k
    elif s.masks:
        smallest = min(m.bit_count() for m in s.masks)
    else:
        return None
    return min_side_cut_floor(host.dims, smallest)


# disjoint pairs an exact scan may screen while its incumbent is still
# above the cut floor; every exact query on a rook host in the suites and
# README meets the floor on its first flow
_FLOW_BUDGET = 10_000


def min_egg_cut(s: Scramble) -> EggCutResult:
    """Minimum over disjoint egg pairs of the min cut separating them.

    The first disjoint pair is solved in full, value and minimal side,
    and becomes the incumbent.  Every later pair is screened by a flow
    that stops at the incumbent; only a pair that comes in below it is
    solved in full, and becomes the new incumbent.  So the witness is the
    first pair (in egg order) attaining the minimum, and the scan stops
    as soon as the incumbent reaches the certified cut floor.

    On a host with a cut floor (every rook host) the scan screens at most
    ``_FLOW_BUDGET`` pairs without meeting the floor, then refuses with
    ValueError: a family scramble can have about 1e9 disjoint pairs (the
    6x6 star-squares scramble, whose cut 30 sits above its floor 28).
    Without a floor the scan covers the pairs of the egg list as given.
    The floor is computed at the first disjoint pair, so a scramble
    without one pays for no floor.
    """
    floor = None
    host = s.host
    best = EggCutResult(None, None, None)
    flows = 0
    pairs = itertools.combinations(zip(s.eggs, s._egg_masks), 2)
    for (a, amask), (b, bmask) in pairs:
        if amask & bmask:
            continue
        if not flows:
            floor = egg_cut_floor(s)
        elif floor is not None and flows == _FLOW_BUDGET:
            raise ValueError(
                f"exact egg cut refused: {flows} pair flows left the best "
                f"cut at {best.value}, above the certified floor {floor}; "
                f"--cut-mode auto uses the floor when it reaches the "
                f"hitting number")
        flows += 1
        if best.value is not None:
            value, below = graphs.min_cut_value(host, a, b, cutoff=best.value)
            if not below:
                continue
        fr = graphs.min_cut_between(host, a, b)
        if best.value is not None and fr.value != value:
            raise RuntimeError("flow re-solve disagreed with the pair scan")
        best = EggCutResult(fr.value, (a, b), fr.source_side)
        if floor is not None and best.value <= floor:
            break
    return best


# ======================================================================
# order
# ======================================================================

class OrderReport(NamedTuple):
    hitting_number: int
    hitting_set: tuple
    max_avoidance: tuple
    min_egg_cut: Optional[int]  # None means no disjoint egg pair exists
    cut_exact: bool             # False: min_egg_cut is a certified lower bound
    cut_pair: Optional[tuple]
    cut_side: Optional[tuple]
    order: int


def scramble_order(s: Scramble, cut_mode: str = "exact") -> OrderReport:
    """Order = min(hitting number, minimum egg cut).

    ``cut_mode`` "exact" runs the pairwise flow scan; "auto" reports the
    certified cut floor instead (``cut_exact`` false) when the floor is at
    least the hitting number, which already pins the order, and runs the
    exact scan otherwise.  No disjoint egg pair means the cut is +infinity
    and the order equals the hitting number; a listed scramble without one
    takes the exact scan in both modes, which pays for no floor.  (A
    family on a rook host, which has a Hamiltonian path, has a disjoint
    pair exactly when it has a floor.)
    """
    if cut_mode not in ("exact", "auto"):
        raise ValueError("cut_mode must be exact or auto")
    hn, hit, avoid = hitting_number(s)
    if cut_mode == "auto" and (s._uniform_size is not None or any(
            a & b == 0 for a, b in itertools.combinations(s.masks, 2))):
        floor = egg_cut_floor(s)
        if floor is not None and floor >= hn:
            return OrderReport(hn, hit, avoid, floor, False, None, None, hn)
    res = min_egg_cut(s)
    order = hn if res.value is None else min(hn, res.value)
    return OrderReport(hn, hit, avoid, res.value, True, res.pair,
                       res.side, order)


# ======================================================================
# scramble families
# ======================================================================

def star_scramble(n: int, m: int) -> Scramble:
    """All connected (n-1)-subsets of the n x m rook graph."""
    n, m = graphs._positive_dims((n, m))
    if not (2 <= n <= m):
        raise ValueError("star scramble needs 2 <= n <= m")
    return Scramble._family(rook_graph([n, m]), n - 1)


def uniform_scramble(g: MultiGraph, k: int) -> Scramble:
    """All connected k-subsets of an arbitrary host."""
    return Scramble._family(g, k)


def square_augmented_scramble(dims: Sequence[int] = (6, 6)) -> Scramble:
    """All connected (n-1)-subsets of the n x m rook graph plus every
    axis-aligned 2x2 square.

    The interesting host is 6x6, where the squares raise the hitting
    number without lowering the cut floor; other sizes are accepted but
    experimental.  Egg sizes n-1 above 5 are refused: the grid knapsack
    takes the squares only for components of up to 4 cells, and 7x7 alone
    would hand 1.26M eggs to the general search.
    """
    dims = graphs._positive_dims(dims)
    if len(dims) != 2 or any(d < 2 for d in dims):
        raise ValueError("square-augmented scrambles need two dims of at least 2")
    n, m = dims
    if n - 1 > 5:
        raise ValueError(f"square-augmented scrambles support egg sizes n-1 up "
                         f"to 5 only; {n}x{m} has egg size {n - 1}")
    return Scramble._family(rook_graph([n, m]), n - 1, with_squares=True)


# ======================================================================
# avoidance constructions
# ======================================================================

def induced_components(g: MultiGraph, verts: Iterable[int]) -> list:
    """Connected components of the induced subgraph, as sorted tuples in
    ascending order."""
    return [graphs.mask_vertices(comp) for comp in
            graphs._component_masks(g.nbr_masks, graphs._vertex_mask(g, verts))]


def staircase_avoidance(n: int, m: int) -> tuple:
    """An (m+1)-vertex set on the n x m rook graph whose components all
    have fewer than n-1 vertices, so it avoids every connected
    (n-1)-subset.  Exists exactly for n-1 <= m < (n-2)(n-1), n >= 4.

    Writing m = k(n-2) + r: the first k rows take n-2 cells each across
    disjoint column blocks; the leftover columns take a short run in the
    next row, joined by one cell below its first column.  When r = 0 the
    last full run gives up its final cell, and the freed column takes a
    vertical pair in the two rows below the runs.  The set is checked
    against the host's neighbour masks before it is returned.
    """
    n, m = graphs._positive_dims((n, m))
    if n < 4:
        raise ValueError("staircase avoidance needs n >= 4")
    if not (n - 1 <= m < (n - 2) * (n - 1)):
        raise ValueError("staircase avoidance needs n-1 <= m < (n-2)(n-1)")
    nbr = graphs._limited_nbr_masks((n, m))
    k, r = divmod(m, n - 2)
    cells = []
    if r >= 1:
        for i in range(k):
            for c in range(i * (n - 2), (i + 1) * (n - 2)):
                cells.append((i, c))
        lead = k * (n - 2)
        for t in range(r):
            cells.append((k, lead + t))
        cells.append((k + 1, lead))
    else:
        for i in range(k - 1):
            for c in range(i * (n - 2), (i + 1) * (n - 2)):
                cells.append((i, c))
        for c in range((k - 1) * (n - 2), k * (n - 2) - 1):
            cells.append((k - 1, c))
        cells.append((k, m - 1))
        cells.append((k + 1, m - 1))
    verts = tuple(sorted(i * m + j for i, j in cells))
    if len(verts) != m + 1:
        raise RuntimeError("staircase construction produced the wrong size")
    if any(comp.bit_count() >= n - 1
           for comp in graphs._component_masks(nbr, sum(1 << v for v in verts))):
        raise RuntimeError("staircase construction is not egg-free")
    return verts


def cube_diagonal_avoidance(n: int) -> tuple:
    """A (n+2)(n-1)-vertex set on the n x n x n rook graph splitting into
    n+2 components of n-1 vertices each: two axis runs off a corner plus
    a diagonal wall of runs.  The split is checked against the host's
    neighbour masks before the set is returned."""
    (n,) = graphs._positive_dims((n,))
    if n < 3:
        raise ValueError("cube diagonal avoidance needs n >= 3")
    nbr = graphs._limited_nbr_masks((n, n, n))
    cells = set()
    for c in range(1, n):
        cells.add((0, 0, c))
        cells.add((0, c, 0))
    for a in range(1, n):
        for c in range(n):
            cells.add((a, c, c))
    verts = tuple(sorted((a * n + b) * n + c for a, b, c in cells))
    sizes = [comp.bit_count() for comp in
             graphs._component_masks(nbr, sum(1 << v for v in verts))]
    if len(verts) != (n + 2) * (n - 1) or sizes != [n - 1] * (n + 2):
        raise RuntimeError("cube diagonal construction came out malformed")
    return verts


# ======================================================================
# JSON interchange
# ======================================================================

def scramble_to_json(s: Scramble) -> dict:
    return {
        "host": graphs.graph_to_json(s.host),
        "eggs": [list(e) for e in s.eggs],
    }


def scramble_from_json(data: dict) -> Scramble:
    if not isinstance(data, dict):
        raise ValueError("scramble JSON must be an object")
    try:
        host = data["host"]
        eggs = data["eggs"]
    except KeyError as exc:
        raise ValueError(f"scramble JSON is missing key {exc}") from None
    if isinstance(host, (list, tuple)):
        hostg = rook_graph(host)
    elif isinstance(host, dict):
        hostg = graphs.graph_from_json(host)
    else:
        raise ValueError("host must be a graph object or a dims list")
    if not isinstance(eggs, list) or not all(isinstance(e, list) for e in eggs):
        raise ValueError("eggs must be a list of vertex lists")
    return Scramble(hostg, eggs)
