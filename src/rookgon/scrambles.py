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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, NamedTuple, Optional, Sequence

from . import graphs
from .graphs import MultiGraph, connected_masks, cut_weight, rook_graph


class Scramble:
    """Eggs over a host graph, stored as sorted, deduplicated vertex
    bitmasks in ``masks``; building one with an empty or disconnected egg
    raises ValueError.  ``eggs`` holds the same eggs as ascending vertex
    tuples in ascending order, decoded from the masks on first read; the
    same decode keeps each egg's mask in egg order.

    ``uniform_size`` / ``with_squares`` are read-only fast-path hints.
    Only the family constructors in this module set them, because they
    build the egg list themselves: every connected subset of that size
    (plus every 2x2 square).  A scramble built directly or loaded from
    JSON never carries them, so an unchecked hint cannot steer the grid
    DP to a wrong hitting number.
    """

    __slots__ = ("host", "masks", "_eggs", "_egg_masks", "_uniform_size",
                 "_with_squares")

    def __init__(self, host: MultiGraph, eggs: Iterable[Iterable[int]]):
        try:
            eggs = iter(eggs)
        except TypeError:
            raise ValueError(f"eggs {eggs!r} is not a list of eggs") from None
        masks = set()
        for egg in eggs:
            if isinstance(egg, (str, bytes)):
                raise ValueError(f"egg {egg!r} is not a list of vertices")
            try:
                verts = iter(egg)
            except TypeError:
                raise ValueError(f"egg {egg!r} is not a list of vertices") from None
            masks.add(graphs._vertex_mask(host, verts))
        self.masks = tuple(sorted(masks))
        self._decode()
        nbr = graphs.neighbour_masks(host)
        problems = []
        for idx, (egg, mask) in enumerate(zip(self._eggs, self._egg_masks)):
            if not mask:
                problems.append(f"egg {idx} is empty")
            elif graphs.lowest_component(nbr, mask) != mask:
                problems.append(f"egg {idx} is not connected: {list(egg)}")
        if problems:
            raise ValueError("invalid scramble: " + "; ".join(problems))
        self.host = host
        self._uniform_size = None
        self._with_squares = False

    @classmethod
    def _from_masks(cls, host: MultiGraph, masks: Iterable[int],
                    uniform_size: int, with_squares: bool = False) -> "Scramble":
        """A family scramble over egg bitmasks, each checked to be a
        nonempty connected vertex set of the host."""
        masks = list(masks)
        full = 1 << host.n
        nbr = graphs.neighbour_masks(host)
        for mask in masks:
            if not isinstance(mask, int) or isinstance(mask, bool) or not 0 < mask < full:
                raise ValueError(f"egg mask {mask!r} is not a nonempty vertex set")
            if graphs.lowest_component(nbr, mask) != mask:
                raise ValueError(f"invalid scramble: egg is not connected: "
                                 f"{list(graphs.mask_vertices(mask))}")
        s = cls.__new__(cls)
        s.host = host
        s.masks = tuple(sorted(set(masks)))
        s._eggs = None
        s._uniform_size = uniform_size
        s._with_squares = with_squares
        return s

    def _decode(self) -> None:
        """Decode the masks into ``eggs``, and keep each egg's mask in egg
        order; distinct masks decode to distinct tuples."""
        mask_of = dict(zip(map(graphs.mask_vertices, self.masks), self.masks))
        self._eggs = tuple(sorted(mask_of))
        self._egg_masks = tuple(map(mask_of.__getitem__, self._eggs))

    @property
    def eggs(self) -> tuple:
        if self._eggs is None:
            self._decode()
        return self._eggs

    @property
    def uniform_size(self) -> Optional[int]:
        return self._uniform_size

    @property
    def with_squares(self) -> bool:
        return self._with_squares


# ======================================================================
# hitting number via maximum avoidance
# ======================================================================

def hitting_number(s: Scramble):
    """Exact minimum hitting set size with witnesses.

    Returns (number, hitting set, maximum avoidance set).  The avoidance
    maximum comes from a column-sweep DP when the scramble is all
    connected k-subsets of a two-factor rook graph (optionally plus all
    2x2 squares), else from branch and bound over vertex inclusion.
    """
    host = s.host
    n = host.n
    if not s.masks:
        return 0, (), tuple(range(n))
    avoid = None
    if (s._uniform_size is not None and host.dims is not None
            and len(host.dims) == 2):
        maxcomp = s._uniform_size - 1
        if not s._with_squares or maxcomp <= 4:
            avoid = _max_avoidance_grid(
                host.dims[0], host.dims[1], maxcomp,
                s._with_squares and maxcomp == 4,
            )
    if avoid is None:
        avoid = _max_avoidance_branch_bound(s)
    for mask in s.masks:
        if mask & avoid == mask:
            raise RuntimeError("avoidance solver returned a set containing an egg")
    hit = graphs.mask_vertices(((1 << n) - 1) ^ avoid)
    return len(hit), hit, graphs.mask_vertices(avoid)


def _max_avoidance_branch_bound(s: Scramble) -> int:
    """Exact maximum egg-free set, as a bitmask, by include/exclude search.

    Vertices are decided in order of descending egg membership; a branch
    dies when even taking every remaining vertex cannot beat the best.
    """
    host = s.host
    n = host.n
    egg_masks = s.masks
    member = [[] for _ in range(n)]
    for ei, mask in enumerate(egg_masks):
        for v in graphs.mask_vertices(mask):
            member[v].append(ei)
    order = sorted(range(n), key=lambda v: (-len(member[v]), v))
    best_size = -1
    best_mask = 0

    def dfs(pos, mask, count):
        nonlocal best_size, best_mask
        if count + (n - pos) <= best_size:
            return
        if pos == n:
            best_size = count
            best_mask = mask
            return
        v = order[pos]
        newmask = mask | (1 << v)
        ok = True
        for ei in member[v]:
            if egg_masks[ei] & ~newmask == 0:
                ok = False
                break
        if ok:
            dfs(pos + 1, newmask, count + 1)
        dfs(pos + 1, mask, count)

    dfs(0, 0, 0)
    return best_mask


def _max_avoidance_grid(nrows: int, ncols: int, maxcomp: int,
                        no_squares: bool) -> int:
    """Exact maximum vertex set on an nrows x ncols rook graph whose
    induced components all have at most maxcomp vertices (and, when
    no_squares is set, which contains no full 2x2 square), as a bitmask.

    Column sweep.  The cells picked in one column form a clique, so they
    join exactly one component; a live component is summarized by how
    many rows it owns and its cell count, and rows are interchangeable,
    so a DP state is the sorted multiset of (rowcount, size) pairs.

    A component with two cells in two rows is necessarily a single
    column's pair, so with maxcomp 4 a 2x2 square appears exactly when a
    (2,2) component alone takes two cells in both its rows and no fresh
    row; that one transition is what no_squares forbids.
    """
    if maxcomp <= 0:
        return 0
    if no_squares and maxcomp > 4:
        raise ValueError("square-free avoidance supports component caps up to 4 only")

    dp = {(): 0}
    parents = []
    for _col in range(ncols):
        ndp = {}
        npar = {}
        for state in sorted(dp):
            val = dp[state]
            old = ndp.get(state)
            if old is None or val > old:
                ndp[state] = val
                npar[state] = (state, None)
            free = nrows - sum(rc for rc, _ in state)
            seen_groups = set()
            for r in range(len(state) + 1):
                for idxs in itertools.combinations(range(len(state)), r):
                    chosen = tuple(sorted(state[i] for i in idxs))
                    if chosen in seen_groups:
                        continue
                    seen_groups.add(chosen)
                    rc_sum = sum(e[0] for e in chosen)
                    sz_sum = sum(e[1] for e in chosen)
                    a_range = range(len(idxs), rc_sum + 1) if idxs else (0,)
                    rest = [state[i] for i in range(len(state)) if i not in idxs]
                    for a_tot in a_range:
                        for u in range(free + 1):
                            cells = a_tot + u
                            if cells == 0:
                                continue
                            new_sz = sz_sum + cells
                            if new_sz > maxcomp:
                                continue
                            if (no_squares and len(chosen) == 1
                                    and chosen[0] == (2, 2)
                                    and a_tot == 2 and u == 0):
                                continue
                            new_state = tuple(sorted(rest + [(rc_sum + u, new_sz)]))
                            nv = val + cells
                            old = ndp.get(new_state)
                            if old is None or nv > old:
                                ndp[new_state] = nv
                                npar[new_state] = (state, (chosen, a_tot, u))
        dp = ndp
        parents.append(npar)

    best_state = None
    best_val = -1
    for state in sorted(dp):
        if dp[state] > best_val:
            best_val = dp[state]
            best_state = state

    # walk parents back, then replay forward with concrete rows
    trail = []
    cur = best_state
    for col in range(ncols - 1, -1, -1):
        prev, move = parents[col][cur]
        trail.append(move)
        cur = prev
    trail.reverse()

    comps: List[list] = []  # [rowset, size]
    used_rows = set()
    cells_out = []
    for col, move in enumerate(trail):
        if move is None:
            continue
        chosen, a_tot, u = move
        picked = []
        taken = set()
        for rc, sz in chosen:
            for ci in range(len(comps)):
                if ci not in taken and len(comps[ci][0]) == rc and comps[ci][1] == sz:
                    picked.append(ci)
                    taken.add(ci)
                    break
            else:
                raise RuntimeError("avoidance replay lost a component")
        rows_sel = []
        remaining = a_tot
        for pos, ci in enumerate(picked):
            later = len(picked) - pos - 1
            take = min(len(comps[ci][0]), remaining - later)
            rows_sel.extend(sorted(comps[ci][0])[:take])
            remaining -= take
        if remaining:
            raise RuntimeError("avoidance replay mis-split a merge")
        fresh = [r for r in range(nrows) if r not in used_rows][:u]
        rows_sel.extend(fresh)
        for rr in rows_sel:
            cells_out.append((rr, col))
        new_rows = set(fresh)
        new_size = a_tot + u
        for ci in picked:
            new_rows |= comps[ci][0]
            new_size += comps[ci][1]
        comps = [c for i, c in enumerate(comps) if i not in taken]
        comps.append([new_rows, new_size])
        used_rows |= new_rows

    mask = 0
    for r, c in cells_out:
        mask |= 1 << r * ncols + c
    if mask.bit_count() != best_val:
        raise RuntimeError("avoidance replay dropped cells")
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
    dims = graphs._int_dims(dims)
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
    as large as the smallest egg."""
    host = s.host
    if host.dims is None or len(host.dims) < 2 or not s.masks:
        return None
    return min_side_cut_floor(host.dims, min(m.bit_count() for m in s.masks))


# flows an exact pair scan may run while its incumbent is still above
# the cut floor; every exact query in the tests, suites and README
# finishes within 8 flows
_FLOW_BUDGET = 10_000


def min_egg_cut(s: Scramble) -> EggCutResult:
    """Minimum over disjoint egg pairs of the min cut separating them.

    Flows terminate early at the incumbent, and the pair scan stops as
    soon as the incumbent reaches the certified cut floor.  The witness
    is the first pair (in egg order) attaining the minimum.

    On a host with a cut floor (every rook host) the scan runs at most
    ``_FLOW_BUDGET`` flows without meeting the floor, then refuses with
    ValueError: a family scramble can have about 1e9 disjoint pairs (the
    6x6 star-squares scramble, whose cut 30 sits above its floor 28).
    Without a floor the scan covers the pairs of the egg list as given.
    """
    floor = egg_cut_floor(s)
    host = s.host
    eggs = s.eggs
    masks = s._egg_masks
    best = None
    best_pair = None
    done = False
    flows = 0
    for i in range(len(eggs)):
        mi = masks[i]
        for j in range(i + 1, len(eggs)):
            if mi & masks[j]:
                continue
            if floor is not None and flows == _FLOW_BUDGET:
                raise ValueError(
                    f"exact egg cut refused: {flows} pair flows left the best "
                    f"cut at {best}, above the certified floor {floor}; "
                    f"--cut-mode auto uses the floor when it reaches the "
                    f"hitting number")
            flows += 1
            # with no incumbent the flow is exact; with one, exact means smaller
            value, exact = graphs.min_cut_value(host, eggs[i], eggs[j], cutoff=best)
            if exact:
                best = value
                best_pair = (i, j)
            if floor is not None and best <= floor:
                done = True
                break
        if done:
            break
    if best is None:
        return EggCutResult(None, None, None)
    fr = graphs.min_cut_between(host, eggs[best_pair[0]], eggs[best_pair[1]])
    if fr.value != best:
        raise RuntimeError("flow re-solve disagreed with the pair scan")
    return EggCutResult(best, (eggs[best_pair[0]], eggs[best_pair[1]]),
                        fr.source_side)


# ======================================================================
# order
# ======================================================================

@dataclass
class OrderReport:
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

    ``cut_mode`` "exact" runs the pairwise flow scan; "floor" uses the
    certified cut floor alone (valid only when it is at least the hitting
    number, which already pins the order); "auto" picks "floor" when that
    condition holds.  No disjoint egg pair means the cut is +infinity and
    the order equals the hitting number.
    """
    if cut_mode not in ("exact", "floor", "auto"):
        raise ValueError("cut_mode must be exact, floor, or auto")
    hn, hit, avoid = hitting_number(s)
    if cut_mode != "exact":
        floor = egg_cut_floor(s)
        if cut_mode == "auto":
            cut_mode = "floor" if (floor is not None and floor >= hn) else "exact"
    if cut_mode == "floor":
        if floor is None:
            raise ValueError("no cut floor is available for this scramble; use exact mode")
        if floor < hn:
            raise ValueError("cut floor is below the hitting number; exact cut needed")
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
    n, m = graphs._int_dims((n, m))
    if not (2 <= n <= m):
        raise ValueError("star scramble needs 2 <= n <= m")
    host = rook_graph([n, m])
    return Scramble._from_masks(host, connected_masks(host, n - 1), n - 1)


def uniform_scramble(g: MultiGraph, k: int) -> Scramble:
    """All connected k-subsets of an arbitrary host."""
    return Scramble._from_masks(g, connected_masks(g, k), k)


def square_augmented_scramble(dims: Sequence[int] = (6, 6)) -> Scramble:
    """All connected (n-1)-subsets of the n x m rook graph plus every
    axis-aligned 2x2 square.

    The interesting host is 6x6, where the squares raise the hitting
    number without lowering the cut floor; other sizes are accepted but
    experimental.  Egg sizes n-1 above 5 are refused: the grid DP cannot
    take the squares there, and branch and bound runs for minutes on 7x7
    without an answer.
    """
    dims = graphs._int_dims(dims)
    if len(dims) != 2 or any(d < 2 for d in dims):
        raise ValueError("square-augmented scrambles need two dims of at least 2")
    n, m = dims
    if n - 1 > 5:
        raise ValueError(f"square-augmented scrambles support egg sizes n-1 up "
                         f"to 5 only; {n}x{m} has egg size {n - 1}")
    host = rook_graph([n, m])
    masks = list(connected_masks(host, n - 1))
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(m):
                for c2 in range(c1 + 1, m):
                    masks.append((1 << r1 * m + c1) | (1 << r1 * m + c2)
                                 | (1 << r2 * m + c1) | (1 << r2 * m + c2))
    return Scramble._from_masks(host, masks, n - 1, with_squares=True)


# ======================================================================
# avoidance constructions
# ======================================================================

def induced_components(g: MultiGraph, verts: Iterable[int]) -> list:
    """Connected components of the induced subgraph, as sorted tuples in
    ascending order."""
    left = graphs._vertex_mask(g, verts)
    nbr = graphs.neighbour_masks(g)
    comps = []
    while left:
        comp = graphs.lowest_component(nbr, left)
        comps.append(graphs.mask_vertices(comp))
        left ^= comp
    return comps


def staircase_avoidance(n: int, m: int) -> tuple:
    """An (m+1)-vertex set on the n x m rook graph whose components all
    have fewer than n-1 vertices, so it avoids every connected
    (n-1)-subset.  Exists exactly for n-1 <= m < (n-2)(n-1), n >= 4.

    Writing m = k(n-2) + r: the first k rows take n-2 cells each across
    disjoint column blocks; the leftover columns take a short run in the
    next row, joined by one cell below its first column.  When r = 0 the
    last full run gives up its final cell, and the freed column takes a
    vertical pair in the two rows below the runs.
    """
    n, m = graphs._int_dims((n, m))
    if n < 4:
        raise ValueError("staircase avoidance needs n >= 4")
    if not (n - 1 <= m < (n - 2) * (n - 1)):
        raise ValueError("staircase avoidance needs n-1 <= m < (n-2)(n-1)")
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
    host = rook_graph([n, m])
    if len(verts) != m + 1:
        raise RuntimeError("staircase construction produced the wrong size")
    comps = induced_components(host, verts)
    if any(len(c) >= n - 1 for c in comps):
        raise RuntimeError("staircase construction is not egg-free")
    return verts


def cube_diagonal_avoidance(n: int) -> tuple:
    """A (n+2)(n-1)-vertex set on the n x n x n rook graph splitting into
    n+2 components of n-1 vertices each: two axis runs off a corner plus
    a diagonal wall of runs."""
    (n,) = graphs._int_dims((n,))
    if n < 3:
        raise ValueError("cube diagonal avoidance needs n >= 3")
    host = rook_graph([n, n, n])
    cells = set()
    for c in range(1, n):
        cells.add((0, 0, c))
        cells.add((0, c, 0))
    for a in range(1, n):
        for c in range(n):
            cells.add((a, c, c))
    verts = tuple(sorted(host.label_to_index(t) for t in cells))
    comps = induced_components(host, verts)
    if len(verts) != (n + 2) * (n - 1) or len(comps) != n + 2 \
            or any(len(c) != n - 1 for c in comps):
        raise RuntimeError("cube diagonal construction came out malformed")
    return verts


# ======================================================================
# cut bound sweep
# ======================================================================

@dataclass
class CutBoundReport:
    ok: bool
    bound: int
    checked: int
    violation: Optional[dict]
    tight_side: tuple
    tight_weight: int


def exhaustive_cut_bound_check(n: int, m: int) -> CutBoundReport:
    """Sweep every cut of the n x m rook graph with both sides of at
    least n-1 vertices and confirm the weight is at least (n-1)m, with
    tightness witnessed by a full row.  Gray-code order keeps the sweep
    incremental."""
    if not 2 <= n <= m:
        raise ValueError("needs 2 <= n <= m")
    total = n * m
    if total > 20:
        raise ValueError(
            "board too large for the exhaustive cut sweep (limit nm <= 20); "
            "check smaller boards or sample cuts instead"
        )
    g = rook_graph([n, m])
    nbr = graphs.neighbour_masks(g)  # rook hosts are simple
    deg = g.degrees
    bound = (n - 1) * m
    side = 0
    cut = 0
    size = 0
    checked = 0
    violation = None
    for i in range(1, 1 << total):
        v = (i & -i).bit_length() - 1
        e_in = (nbr[v] & side).bit_count()
        side ^= 1 << v
        if side >> v & 1:
            size += 1
            cut += deg[v] - 2 * e_in
        else:
            size -= 1
            cut += 2 * e_in - deg[v]
        if size >= n - 1 and total - size >= n - 1:
            checked += 1
            if cut < bound and violation is None:
                violation = {"side": graphs.mask_vertices(side), "weight": cut}
    row = tuple(range(m))
    tight = cut_weight(g, row)
    if violation is None and tight != bound:
        raise RuntimeError("full-row cut missed the bound it should attain")
    return CutBoundReport(
        ok=violation is None,
        bound=bound,
        checked=checked,
        violation=violation,
        tight_side=row,
        tight_weight=tight,
    )


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
