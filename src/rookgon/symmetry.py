"""Vertex-permutation symmetry of rook graphs.

A chip vector on a rook graph is a tensor with one axis per factor (the
last axis varies fastest in the vertex numbering).  The group used here
relabels the values along each axis independently and permutes axes of
equal size: by Sabidussi's theorem (Imrich and Klavzar, Handbook of
Product Graphs) the whole automorphism group of a product of complete
graphs.  Every cell permutation comes from ``_cell_perm``.  Every
vector stream is one depth-first walk over prefixes with one prefix
hook (``_pruned_compositions``).  The orbit stream's hook is an orderly
search over a few group elements (``_canonical_prune``) that never
lists the group.  Its leaf test sorts the columns for the last axis.
On two factors it searches the row orders once per shared prefix
(``_RowLeafTest``); on three or more it tries the relabelings of the
outer axes, listed once per shape as fiber orders.  ``SymmetryGroup``
closes a generator set explicitly and is the reference the tests
compare the engine against.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache, partial
from operator import add, eq, itemgetter, lt
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import _rook_dims


class GroupTooLarge(RuntimeError):
    """Raised when explicit element enumeration would exceed the cap."""


_EXPLICIT_LIMIT = 200_000


class SymmetryGroup:
    """A permutation group on vertices, given by generators and closed
    explicitly by ``elements()``."""

    def __init__(self, generators: Iterable[Sequence[int]], n: int):
        gens = []
        for p in generators:
            p = tuple(p)
            if sorted(p) != list(range(n)):
                raise ValueError("generator is not a permutation of the vertices")
            gens.append(p)
        self.generators = tuple(gens)
        self.n = n
        self._elements = None

    def elements(self, limit: int = _EXPLICIT_LIMIT) -> tuple:
        """Every group element as a vertex permutation (BFS closure)."""
        if self._elements is not None:
            return self._elements
        ident = tuple(range(self.n))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for q in self.generators:
                    r = tuple(p[q[i]] for i in range(self.n))
                    if r not in seen:
                        if len(seen) >= limit:
                            raise GroupTooLarge(
                                f"group exceeds {limit} explicit elements"
                            )
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        self._elements = tuple(sorted(seen))
        return self._elements


def _cell_perm(dims: Sequence[int], order: Sequence[int],
               relabel: Sequence[Sequence[int]]) -> tuple:
    """The cell permutation that puts axis ``order[b]``, relabeled by
    ``relabel[b]``, in place of axis b: entry v is the cell whose
    coordinate b is ``relabel[b][c[order[b]]]``, where c is v's
    coordinates.  ``order`` must keep the sizes."""
    offsets = [None] * len(dims)
    stride = math.prod(dims)
    for b, a in enumerate(order):
        stride //= dims[b]
        offsets[a] = [i * stride for i in relabel[b]]
    return tuple(map(sum, itertools.product(*offsets)))


def _moves(d: int) -> list:
    """The identity of range(d), then each adjacent transposition."""
    return [range(d)] + [[*range(i), i + 1, i, *range(i + 2, d)] for i in range(d - 1)]


def rook_symmetry(dims: Sequence[int]) -> SymmetryGroup:
    """Generators of the automorphism group of a rook graph.

    Adjacent value transpositions within each coordinate factor, plus a
    swap of every pair of coordinate axes of equal size.  By Sabidussi's
    theorem (Imrich and Klavzar, Handbook of Product Graphs) they
    generate every automorphism of the product of complete graphs.
    """
    dims = _rook_dims(dims)
    axes = range(len(dims))
    ident = tuple(map(range, dims))
    gens = []
    for a, d in enumerate(dims):
        for t in _moves(d)[1:]:
            relabel = list(ident)
            relabel[a] = t
            gens.append(_cell_perm(dims, axes, relabel))
    for a, b in itertools.combinations(axes, 2):
        if dims[a] == dims[b]:
            order = list(axes)
            order[a], order[b] = b, a
            gens.append(_cell_perm(dims, order, ident))
    return SymmetryGroup(gens, math.prod(dims))


def _axis_orders(dims: tuple) -> Iterator[tuple]:
    """Every axis permutation that keeps the sizes: the axes of each size
    are reordered among their own places.  The identity comes first."""
    classes = {}
    for a, d in enumerate(dims):
        classes.setdefault(d, []).append(a)
    classes = list(classes.values())
    for combo in itertools.product(*map(itertools.permutations, classes)):
        order = list(range(len(dims)))
        for places, axes in zip(classes, combo):
            for b, a in zip(places, axes):
                order[b] = a
        yield tuple(order)


# ======================================================================
# composition streams
# ======================================================================

def _check_total(total: int) -> None:
    """A degree must be an int (bools rejected) and at least 0."""
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise ValueError("total must be a nonnegative integer")


def iter_degree_vectors(total: int, size: int) -> Iterator[tuple]:
    """All nonnegative integer vectors of the given length summing to total,
    in ascending lexicographic order."""
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError("vector length must be a positive integer")
    _check_total(total)
    return _pruned_compositions(total, size, lambda c, i, r: False)


def _pruned_compositions(total: int, size: int,
                         prune: Callable[[list, int, int], bool]) -> Iterator[tuple]:
    """The degree vectors of iter_degree_vectors, walked depth first over
    their prefixes so that ``prune`` can drop every completion of one
    prefix at once (see iter_orbit_min_vectors).  The walk keeps its
    place in c and in the chips left after each prefix, not on the call
    stack, so its depth is not bounded by the recursion limit."""
    c = [0] * size
    last = size - 1
    rem = [total] * size  # rem[i]: chips left after the prefix c[:i]
    i = 0
    while True:
        r = rem[i]
        if i == last or not r:  # one completion: r on the last place, or all zeros
            c[i:] = [r] * (size - i)
            if not prune(c, i, r):
                yield tuple(c)
        elif not prune(c, i, r):  # down to the first child: c[i] = 0
            c[i] = 0
            i += 1
            rem[i] = r
            continue
        while i and not rem[i]:  # c[i-1] took every chip: back up
            i -= 1
        if not i:
            return
        c[i - 1] += 1  # the next sibling
        rem[i] -= 1


def _canonical_prune(size: int, perms: Sequence[Sequence[int]],
                     accept: Optional[Callable[[list], bool]] = None
                     ) -> Callable[[list, int, int], bool]:
    """The prune that makes the walk an orderly search (Read, "Every one
    a winner", Ann. Discrete Math. 1978): it keeps the vectors c whose
    image (c[q[j]])_j under each q in ``perms`` is not lexicographically
    smaller, and of those the ones ``accept`` takes.  When ``perms`` is
    a whole group less the identity, those are the lex-min orbit
    representatives.

    Each q stays live with the first position j where its image is
    undecided or ties c.  At a prefix the parent's live permutations
    advance over the fixed positions: an image that turns out smaller
    drops the prefix, and one that turns out larger leaves the list.  At
    a completion they finish over the whole vector before ``accept``
    runs.  Entry i of ``live`` is what a prefix of length i inherits
    from its parent, as in ``gonality._plain_scan``.
    """
    last = size - 1
    live = [[(q, 0) for q in perms]] * (size + 1)

    def prune(c: list, i: int, r: int) -> bool:
        end = size if i == last or not r else i  # size: c is the one completion
        fresh = []
        for q, j in live[i]:
            while j < end and q[j] < end:
                a = c[q[j]]
                b = c[j]
                if a != b:
                    break
                j += 1
            else:
                fresh.append((q, j))
                continue
            if a < b:
                return True
        if end == size:
            return accept is not None and not accept(c)
        live[i + 1] = fresh
        return False

    return prune


def iter_orbit_min_vectors(total: int, size: int,
                           dims: Optional[Sequence[int]],
                           prune: Optional[Callable[[list, int, int], bool]] = None
                           ) -> Iterator[tuple]:
    """One lexicographically minimal representative per orbit of degree
    vectors under the automorphism group of the rook graph on ``dims``,
    streamed in ascending order.

    Every stream is one depth-first walk over the prefixes of the degree
    vectors with one prefix hook, ``prune(c, i, r)``: c[:i] is fixed and
    r chips are left for positions i..size-1.  When i is size - 1 or r
    is 0 the prefix has one completion, already written into c.  A true
    answer drops every vector with that prefix.  With ``dims`` None the
    hook is the caller's ``prune`` (None keeps everything), and it may
    overwrite c[i:].  With ``dims`` it is ``_canonical_prune``: an
    orderly search over the shape's cheap pruning permutations with the
    exact leaf test on each completion, and a caller's prune is refused.

    Dimensions that are not a rook shape, or whose product is not
    ``size``, raise ValueError.
    """
    if dims is None:
        stream = iter_degree_vectors(total, size)  # checks total and size
        yield from stream if prune is None else _pruned_compositions(total, size, prune)
        return
    if prune is not None:
        raise ValueError("a prune needs the plain stream (dims None)")
    _check_total(total)
    dims = _rook_dims(dims)
    if math.prod(dims) != size:
        raise ValueError("rook dimensions do not match the vector length")
    shape = _rook_shape(dims)
    yield from _pruned_compositions(
        total, size, _canonical_prune(size, shape.prune, shape.leaf_test(total)))


def _iter_canonical_explicit(total: int, size: int,
                             elements: Iterable[Sequence[int]]) -> Iterator[tuple]:
    """Orderly generation of lex-min orbit representatives under an
    explicitly listed group (every non-identity element prunes)."""
    perms = sorted(set(map(tuple, elements)) - {tuple(range(size))})
    yield from _pruned_compositions(total, size, _canonical_prune(size, perms))


# ======================================================================
# orbit counts
# ======================================================================

def _cycle_types(n: int) -> Iterator[tuple]:
    """Every cycle type of S_n (a partition of n, largest part first)
    with the number of permutations of that type."""
    def parts(rest, largest):
        if rest == 0:
            yield ()
            return
        for a in range(min(rest, largest), 0, -1):
            for tail in parts(rest - a, a):
                yield (a,) + tail

    for lam in parts(n, n):
        z = 1
        for a, run in itertools.groupby(lam):
            k = len(list(run))
            z *= a ** k * math.factorial(k)
        yield lam, math.factorial(n) // z


def _fixed_count(lengths: Iterable[int], total: int) -> int:
    """Vectors summing to ``total`` that are constant on every cycle,
    given the cycle lengths: [x^total] of prod 1/(1 - x^length)."""
    coef = [1] + [0] * total
    for length in lengths:
        for t in range(length, total + 1):
            coef[t] += coef[t - length]
    return coef[total]


def _cycles(perm: Sequence[int]) -> list:
    """The cycles of a permutation of range(len(perm)), as lists."""
    seen = [False] * len(perm)
    cycles = []
    for v in range(len(perm)):
        cycle = []
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = perm[v]
        if cycle:
            cycles.append(cycle)
    return cycles


def orbit_count(dims: Sequence[int], total: int) -> int:
    """Number of orbits of nonnegative vectors summing to ``total`` under
    the group the orbit stream uses on the rook host ``dims``, by
    Burnside's lemma without listing the group.

    An element fixes a vector iff the vector is constant on each cell
    cycle.  On a cycle of r axes of size d in the element's axis order,
    conjugating moves the cycle's relabelings onto its last axis as their
    product, and (d!)^(r-1) |class(mu)| tuples give a product of type mu.
    So the sum runs over the axis orders and one type per axis cycle.
    """
    _check_total(total)
    terms, order = _burnside_terms(_rook_dims(dims))
    fixed = sum(weight * _fixed_count(lengths, total) for lengths, weight in terms)
    count, rem = divmod(fixed, order)
    if rem:
        raise RuntimeError("Burnside sum is not a multiple of the group order")
    return count


@lru_cache(maxsize=None)
def _burnside_terms(dims: tuple) -> tuple:
    """The part of ``orbit_count`` that no degree changes: each cell
    cycle-length multiset with the summed weight of its representative
    permutations, and the group order."""
    orders = list(_axis_orders(dims))
    terms = {}
    for order in orders:
        cycles = _cycles(order)
        for types in itertools.product(*(_cycle_types(dims[c[0]]) for c in cycles)):
            relabel = [range(d) for d in dims]
            weight = 1
            for cycle, (mu, size) in zip(cycles, types):
                # mu's cycles on consecutive values, each shifted by one
                relabel[cycle[-1]] = [s + (i + 1) % a for s, a in
                                      zip(itertools.accumulate((0,) + mu), mu)
                                      for i in range(a)]
                weight *= math.factorial(dims[cycle[0]]) ** (len(cycle) - 1) * size
            perm = _cell_perm(dims, order, relabel)
            lengths = tuple(sorted(map(len, _cycles(perm))))
            terms[lengths] = terms.get(lengths, 0) + weight
    return tuple(terms.items()), math.prod(map(math.factorial, dims)) * len(orders)


# ======================================================================
# the product-structured engine
# ======================================================================

# the most outer-axis relabelings a three-or-more-factor shape lists:
# 576 on 4x4x4, 14,400 on 5x5x5 (6.6 MB), 518,400 on 6x6x6 (226 MB)
_ORDERS_LIMIT = 20_000

# the most candidates a shape may try for its pruning permutations:
# prod(dims) move combinations under each axis order (two factors try
# only the identity order), 384 on 2x2x2x2, 750 on 5x5x5, 46,080 on the
# 6-cube, 645,120 on the 7-cube (whose set exhausted memory)
_PRUNE_LIMIT = 50_000


class _Shape:
    """Index tables for the tensor view of a vector of length prod(dims).

    A fiber is a run of ``m = dims[-1]`` consecutive entries: the values
    along the last axis for one tuple of outer coordinates.
    """

    def __init__(self, dims: tuple):
        self.n = math.prod(dims)
        self.m = dims[-1]
        self.outer = outer = dims[:-1]
        # three or more factors: every relabeling of the outer axes as a
        # fiber order, grouped by the source fiber it puts first (two
        # factors would need n! of them and use _RowLeafTest instead)
        relabelings = math.prod(map(math.factorial, outer)) if len(outer) > 1 else 0
        candidates = self.n * math.prod(map(math.factorial, Counter(dims).values()))
        for count, what, limit in ((relabelings, "outer relabelings", _ORDERS_LIMIT),
                                   (candidates, "pruning permutations", _PRUNE_LIMIT)):
            if count > limit:
                raise ValueError(
                    f"the symmetric scan on {'x'.join(map(str, dims))} would build "
                    f"{count:,} {what}, above the limit of {limit:,}; "
                    "scan without symmetry (--no-symmetry)")
        self.orders = ()
        if relabelings:
            ident = range(len(outer))
            groups = [[] for _ in range(self.n // self.m)]
            for relabel in itertools.product(
                    *(itertools.permutations(range(d)) for d in outer)):
                order = _cell_perm(outer, ident, relabel)
                groups[order[0]].append(itemgetter(*order))
            self.orders = tuple(map(tuple, groups))
        orders = list(_axis_orders(dims))
        reorders = [_cell_perm(dims, order, tuple(map(range, dims)))
                    for order in orders[1:]]
        self.axis_perms = tuple(itemgetter(*p) for p in reorders)
        # cheap pruning permutations for the orderly search: every bare
        # axis reorder, and at most one adjacent transposition per axis
        # under every axis order on three or more factors, under the
        # identity order only on two (on 4x4, 16 permutations per node
        # instead of 31 for 6% more leaf tests)
        moves = list(map(_moves, dims))
        prune = set(reorders)
        for order in orders if len(dims) > 2 else orders[:1]:
            for relabel in itertools.product(*moves):
                prune.add(_cell_perm(dims, order, relabel))
        prune.discard(tuple(range(self.n)))
        self.prune = tuple(sorted(prune))

    def leaf_test(self, total: int) -> Callable[[Sequence[int]], bool]:
        """The exact leaf test for vectors summing to ``total``: the
        per-prefix ``_RowLeafTest`` on two factors, ``_is_min_image`` on
        three or more."""
        if len(self.outer) == 1:
            return _RowLeafTest(self, total).accepts
        return partial(_is_min_image, self)

    def sources(self, x: tuple) -> list:
        """The fibers of x under each axis order, identity first; axis
        orders that give the same vector give one source."""
        m = self.m
        ys = dict.fromkeys([x] + [perm(x) for perm in self.axis_perms])
        return [[y[i:i + m] for i in range(0, self.n, m)] for y in ys]


@lru_cache(maxsize=None)
def _rook_shape(dims: tuple) -> _Shape:
    return _Shape(dims)


def _is_min_image(shape: _Shape, x: Sequence[int]) -> bool:
    """True iff x is the lexicographically smallest vector in its orbit.

    Every image of x is some axis order of x (a source) with its fibers
    reordered by one relabeling of the outer axes and the values along
    the last axis relabeled; for a fixed fiber order the best relabeling
    of the last axis sorts the columns.  Image fiber 0 is a sorted source
    fiber, so a source fiber that sorts below x's first fiber rejects x,
    and only the fiber orders that put a fiber sorting to x's first
    fiber in front are tried.  Three or more factors only: two factors
    have no listed fiber orders (see ``_Shape.leaf_test``).
    """
    sources = shape.sources(tuple(x))
    rows = sources[0]
    first = list(rows[0])
    starts = []
    for fibers in sources:
        heads = list(map(sorted, fibers))
        if min(heads) < first:
            return False
        starts.append((fibers, heads))
    orders = shape.orders
    for fibers, heads in starts:
        for i, head in enumerate(heads):
            if head == first:
                for order in orders[i]:
                    if list(zip(*sorted(zip(*order(fibers))))) < rows:
                        return False
    return True


def _multiset(rows: list) -> dict:
    """Distinct rows with their multiplicities."""
    return {row: rows.count(row) for row in rows}


def _row_image_smaller(left: dict, f: int, scaled: list, tkeys: list,
                       base: int, nodes: list) -> bool:
    """Two factors: with image fibers 0..f-1 tying the target, is some
    ordering of the unplaced rows ``left`` (a multiset of distinct rows),
    with its columns sorted, lexicographically smaller than the target?

    ``scaled`` holds the column keys of the rows placed so far, times the
    base, and ``tkeys`` the target's column keys after each row.  Equal
    rows are tried once at each depth, only a row whose image fiber ties
    the target's goes deeper, and the first smaller one answers True.
    Every node reached by ties is appended to ``nodes`` as (depth, scaled
    keys, unplaced rows); the search stops once every row is placed.
    """
    nodes.append((f, scaled, dict(left)))
    if f == len(tkeys):
        return False  # every row is placed
    t = tkeys[f]
    for row, c in left.items():
        if c:
            s = list(map(add, scaled, row))
            s.sort()
            if s < t:
                return True
            if s == t:
                left[row] = c - 1
                hit = _row_image_smaller(
                    left, f + 1, [(key + v) * base for key, v in zip(scaled, row)],
                    tkeys, base, nodes)
                left[row] = c
                if hit:
                    return True
    return False


class _RowLeafTest:
    """The exact leaf test on a two-factor host, for vectors summing to
    ``total``: ``accepts(x)`` says whether x is the lexicographically
    smallest vector in its orbit.

    It is the search ``_is_min_image`` makes, with the work on the first
    n-1 rows (the prefix) done once per prefix.  Column keys use the fixed base
    ``total + 1``.  When the prefix changes, the tester rebuilds the
    prefix rows, the target's column keys after each of them, and every
    tie node of the identity source's row search that uses prefix rows
    only; a prefix-only image smaller than the target rejects every
    vector with that prefix.  Any other image of the identity source
    places the last row at one of those tie nodes, so per vector the
    last row is tried there, and searched past only where it ties.  On
    square hosts the transposed source (the columns) puts a sorted column
    first, and a column sorts higher as its last-row entry grows, so the
    prefix also fixes, per column, the entries that sort it below row 0
    (rejecting the vector) and the one entry that ties it.  The
    transposed source is searched only when some column ties; if a
    column sorts below row 0 for every entry the last row can hold, the
    prefix is rejected.  The orbit stream meets the vectors in ascending
    order, so consecutive vectors share their prefix; any order gives the
    same answers.
    """

    def __init__(self, shape: _Shape, total: int):
        self.m = shape.m
        self.cut = shape.n - shape.m
        self.square = bool(shape.axis_perms)
        self.base = total + 1
        # set per prefix by _load; nodes None: a prefix-only image is smaller
        self.prefix = self.rows = self.tkeys = self.scaled = None
        self.nodes = self.lows = self.ties = None

    def _load(self, prefix: Sequence[int]) -> None:
        m = self.m
        base = self.base
        rows = [tuple(prefix[i:i + m]) for i in range(0, self.cut, m)]
        tkeys = [list(rows[0])]
        for row in rows[1:]:
            tkeys.append([key * base + v for key, v in zip(tkeys[-1], row)])
        nodes = []
        if _row_image_smaller(_multiset(rows), 0, [0] * m, tkeys, base, nodes):
            nodes = None
        if self.square and nodes is not None:
            # the transposed source's first image fiber is a sorted column:
            # per column, last-row entries below ``lows`` sort it below row
            # 0 (reject), the entry in ``ties`` (-1 for none) ties it, and
            # larger ones sort it above
            rem = base - 1 - sum(prefix)
            first = list(rows[0])
            lows = []
            ties = []
            for col in zip(*rows):
                col = list(col)
                for v in range(rem + 1):
                    s = sorted(col + [v])
                    if s >= first:
                        break
                else:
                    nodes = None  # below row 0 for every last row
                    break
                lows.append(v)
                ties.append(v if s == first else -1)
            self.lows = lows
            self.ties = ties
        self.scaled = [key * base for key in tkeys[-1]]
        tkeys.append(None)  # the last row's keys, filled per vector
        self.prefix = prefix
        self.rows = rows
        self.tkeys = tkeys
        self.nodes = nodes

    def accepts(self, x: Sequence[int]) -> bool:
        cut = self.cut
        prefix = x[:cut]
        if prefix != self.prefix:
            self._load(prefix)
        nodes = self.nodes
        if nodes is None:
            return False
        last = x[cut:]
        if self.square and any(map(lt, last, self.lows)):
            return False
        base = self.base
        tkeys = self.tkeys
        final = len(tkeys) - 1
        tkeys[final] = list(map(add, self.scaled, last))
        for f, scaled, left in nodes:
            s = list(map(add, scaled, last))
            s.sort()
            t = tkeys[f]
            if s < t:
                return False
            if s == t and f < final and _row_image_smaller(
                    left, f + 1, [(key + v) * base for key, v in zip(scaled, last)],
                    tkeys, base, []):
                return False
        if self.square and any(map(eq, last, self.ties)) and _row_image_smaller(
                _multiset(list(zip(*self.rows, last))), 0, [0] * self.m,
                tkeys, base, []):
            return False
        return True
