"""Vertex-permutation symmetry of rook graphs.

A chip vector on a rook graph is a tensor with one axis per factor (the
last axis varies fastest in the vertex numbering).  Its automorphism
group reorders axes of equal size and relabels the values along each
axis independently.  The orbit stream uses that product structure and
never lists the group; it reads the group from the rook dimensions
alone.  ``SymmetryGroup`` closes a generator set explicitly and is the
reference the tests compare the engine against.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import _int_dims


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


def is_rook_shape(dims: Optional[Sequence[int]]) -> bool:
    """Do these dimensions describe a rook graph: at least two factors,
    each of size at least 2?"""
    return dims is not None and len(dims) >= 2 and all(d >= 2 for d in dims)


def _strides(dims: Sequence[int]) -> list:
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()
    return strides


def rook_symmetry(dims: Sequence[int]) -> SymmetryGroup:
    """Automorphism generators of a rook graph.

    Adjacent value transpositions within each coordinate factor, plus a
    swap of neighbouring coordinate axes whenever their sizes agree.
    """
    dims = _int_dims(dims)
    if not is_rook_shape(dims):
        raise ValueError("invalid rook dimensions")
    n = math.prod(dims)
    strides = _strides(dims)

    def decode(v):
        return tuple((v // strides[a]) % dims[a] for a in range(len(dims)))

    def encode(coords):
        return sum(c * s for c, s in zip(coords, strides))

    gens = []
    for a, d in enumerate(dims):
        for i in range(d - 1):
            perm = []
            for v in range(n):
                c = list(decode(v))
                if c[a] == i:
                    c[a] = i + 1
                elif c[a] == i + 1:
                    c[a] = i
                perm.append(encode(c))
            gens.append(tuple(perm))
    for a in range(len(dims) - 1):
        if dims[a] == dims[a + 1]:
            perm = []
            for v in range(n):
                c = list(decode(v))
                c[a], c[a + 1] = c[a + 1], c[a]
                perm.append(encode(c))
            gens.append(tuple(perm))
    return SymmetryGroup(gens, n)


def _axis_orders(dims: tuple) -> Iterator[tuple]:
    """Axis permutations allowed by the group: reorder only within
    maximal runs of equal sizes.  The identity comes first."""
    runs = []
    start = 0
    for i in range(1, len(dims) + 1):
        if i == len(dims) or dims[i] != dims[start]:
            runs.append(tuple(range(start, i)))
            start = i
    for combo in itertools.product(*(itertools.permutations(r) for r in runs)):
        order = []
        for block in combo:
            order.extend(block)
        yield tuple(order)


# ======================================================================
# composition streams
# ======================================================================

def iter_degree_vectors(total: int, size: int) -> Iterator[tuple]:
    """All nonnegative integer vectors of the given length summing to total,
    in ascending lexicographic order."""
    if size < 1:
        raise ValueError("vector length must be positive")
    if total < 0:
        raise ValueError("total must be nonnegative")
    yield from _orderly(total, size, ())


def iter_orbit_min_vectors(total: int, size: int,
                           dims: Optional[Sequence[int]]) -> Iterator[tuple]:
    """One lexicographically minimal representative per orbit of degree
    vectors under the automorphism group of the rook graph on ``dims``,
    streamed in ascending order.

    With ``dims`` None this is every degree vector.  Dimensions that are
    not a rook shape, or whose product is not ``size``, raise ValueError.
    """
    if dims is None:
        yield from iter_degree_vectors(total, size)
        return
    dims = tuple(dims)
    if not is_rook_shape(dims):
        raise ValueError("invalid rook dimensions")
    if math.prod(dims) != size:
        raise ValueError("rook dimensions do not match the vector length")
    shape = _rook_shape(dims)
    yield from _orderly(total, size, shape.prune,
                        lambda c: _is_min_image(shape, c))


def _iter_canonical_explicit(total: int, size: int,
                             elements: Iterable[Sequence[int]]) -> Iterator[tuple]:
    """Orderly generation of lex-min orbit representatives under an
    explicitly listed group (every non-identity element prunes)."""
    ident = tuple(range(size))
    invs = []
    for p in set(tuple(p) for p in elements):
        if p == ident:
            continue
        q = [0] * size
        for i, pi in enumerate(p):
            q[pi] = i
        invs.append(tuple(q))
    invs.sort()
    yield from _orderly(total, size, invs)


def _orderly(total: int, size: int, invs: Sequence[Sequence[int]],
             accept: Optional[Callable[[list], bool]] = None) -> Iterator[tuple]:
    """Depth-first orderly generation of degree vectors in ascending
    lexicographic order.

    Each live permutation q tracks the first position j where the image
    (c[q[j]])_j is still undecided or equal to the prefix; permutations
    whose image turns out larger are dropped, ones whose image turns out
    smaller kill the branch.  When ``invs`` lists a whole group this is
    exact.  Otherwise ``accept`` decides each complete vector.
    """
    c = [-1] * size
    live_at = [[(q, 0) for q in invs]] + [None] * size
    rem_at = [total] + [0] * size
    last = size - 1
    pos = 0
    while pos >= 0:
        rem = rem_at[pos]
        v = rem if pos == last else c[pos] + 1
        if v > rem or (pos == last and c[pos] == v):
            c[pos] = -1  # values exhausted: backtrack
            pos -= 1
            continue
        c[pos] = v
        end = pos + 1
        ok = True
        fresh = []
        for q, j in live_at[pos]:
            drop = False
            while j < end:
                qj = q[j]
                if qj >= end:
                    break  # image coordinate not assigned yet
                a = c[qj]
                b = c[j]
                if a < b:
                    ok = False  # image is lex-smaller: prefix not canonical
                    break
                if a > b:
                    drop = True  # image is lex-larger for any completion
                    break
                j += 1
            if not ok:
                break
            if not drop:
                fresh.append((q, j))
        if not ok:
            continue
        if pos == last:
            if accept is None or accept(c):
                yield tuple(c)
            continue
        live_at[end] = fresh
        rem_at[end] = rem - v
        pos = end


# ======================================================================
# the product-structured engine
# ======================================================================

class _Shape:
    """Index tables for the tensor view of a vector of length prod(dims).

    A fiber is a run of ``m = dims[-1]`` consecutive entries: the values
    along the last axis for one tuple of outer coordinates.
    """

    def __init__(self, dims: tuple):
        self.n = math.prod(dims)
        self.m = dims[-1]
        self.outer = outer = dims[:-1]
        self.nfibers = nf = self.n // self.m
        k = len(outer)
        self.fstride = fstride = _strides(outer)
        self.coords = tuple(tuple((f // fstride[a]) % outer[a] for a in range(k))
                            for f in range(nf))
        # outer axes whose next index first appears at each fiber
        self.pending = tuple(
            tuple(a for a in range(k)
                  if all(cf[b] == 0 for b in range(k) if b != a))
            for cf in self.coords)
        strides = _strides(dims)
        flat = [tuple((v // strides[a]) % dims[a] for a in range(len(dims)))
                for v in range(self.n)]
        orders = list(_axis_orders(dims))
        self.axis_perms = tuple(
            itemgetter(*(sum(cv[order[b]] * strides[b] for b in range(len(dims)))
                         for cv in flat))
            for order in orders[1:])
        # cheap pruning permutations for the orderly search: at most one
        # adjacent transposition per axis, under every axis order (a set
        # closed under inverses)
        moves = [(None,) + tuple(range(d - 1)) for d in dims]
        prune = set()
        for order in orders:
            for combo in itertools.product(*moves):
                perm = []
                for cv in flat:
                    v = 0
                    for b, i in enumerate(combo):
                        x = cv[order[b]]
                        if x == i:
                            x += 1
                        elif i is not None and x == i + 1:
                            x -= 1
                        v += x * strides[b]
                    perm.append(v)
                prune.add(tuple(perm))
        prune.discard(tuple(range(self.n)))
        self.prune = tuple(sorted(prune))

    def sources(self, x: tuple) -> list:
        """The fibers of x under each axis order, identity first."""
        m = self.m
        out = [[x[i:i + m] for i in range(0, self.n, m)]]
        for perm in self.axis_perms:
            y = perm(x)
            out.append([y[i:i + m] for i in range(0, self.n, m)])
        return out


@lru_cache(maxsize=None)
def _rook_shape(dims: tuple) -> _Shape:
    return _Shape(dims)


def _is_min_image(shape: _Shape, x: Sequence[int]) -> bool:
    """True iff x is the lexicographically smallest vector in its orbit.

    Every image of x is some axis order of x (a source) with each axis's
    values relabeled.  For a fixed image of the outer axes the best order
    of the last axis is to sort the columns, so the search packs each
    column, read down the fibers placed so far, into one int key (base
    ``max(x) + 1``).  The sorted keys compare with the target's column
    keys at that depth exactly as the image fiber compares with x's
    fiber, given the earlier fibers tie.  Image fiber 0 is a sorted
    source fiber, so a source fiber that sorts below x's first fiber
    settles the test before any search.
    """
    x = tuple(x)
    sources = shape.sources(x)
    first = list(sources[0][0])
    heads = []
    for rows in sources:
        h = list(map(sorted, rows))
        if min(h) < first:
            return False
        heads.append(h)
    base = max(x) + 1
    # x's own packed column keys after each fiber
    tkeys = [first]
    keys = first
    for row in sources[0][1:]:
        keys = [key * base + v for key, v in zip(keys, row)]
        tkeys.append(keys)
    improve = _improve_rows if len(shape.outer) == 1 else _improve
    for rows, h in zip(sources, heads):
        # a search starts only from fibers that sort to x's first fiber
        if first in h and improve(shape, rows, h, tkeys, base):
            return False
    return True


def _improve_rows(shape: _Shape, rows: list, heads: list, tkeys: list,
                  base: int) -> bool:
    """Two factors: is some ordering of the source ``rows``, with its
    columns sorted, lexicographically smaller than the target?

    The unplaced rows are kept as a multiset of distinct rows, so equal
    rows are tried once at each depth.  ``scaled`` holds the column keys
    of the rows placed so far, times the base.  Only a row whose image
    fiber ties the target's goes deeper; the first smaller one answers
    True.
    """
    left = dict.fromkeys(rows, 0)
    for row in rows:
        left[row] += 1
    last = len(rows) - 1

    def place(f, scaled):
        t = tkeys[f]
        for row, c in left.items():
            if c:
                s = sorted(map(add, scaled, row))
                if s < t:
                    return True
                if s == t and f < last:
                    left[row] = c - 1
                    hit = place(f + 1, [(key + v) * base
                                        for key, v in zip(scaled, row)])
                    left[row] = c
                    if hit:
                        return True
        return False

    # image fiber 0 is a sorted row, and none sorts below the target's
    first = tkeys[0]
    for row, head in dict(zip(rows, heads)).items():
        if head == first:
            c = left[row]
            left[row] = c - 1
            hit = place(1, [v * base for v in row])
            left[row] = c
            if hit:
                return True
    return False


def _improve(shape: _Shape, rows: list, heads: list, tkeys: list,
             base: int) -> bool:
    """Three or more factors: is some image of the source ``rows`` under
    per-axis value relabelings lexicographically smaller than the
    target?

    Outer axes are mapped one new index at a time by backtracking, so
    the image takes its fibers from a chosen sequence of source fibers;
    ``offs[a][new]`` holds the chosen old index of axis a times its
    fiber stride.  A fiber smaller than the target answers True, a
    larger one prunes the branch, and only ties go deeper.
    """
    outer = shape.outer
    coords = shape.coords
    pending = shape.pending
    fstride = shape.fstride
    k = len(outer)
    offs = [[0] * s for s in outer]
    used = [[False] * s for s in outer]
    last = shape.nfibers - 1

    def place(f, scaled):
        axes = pending[f]
        while not axes:  # every outer index of fiber f is mapped already
            cf = coords[f]
            old = 0
            for a in range(k):
                old += offs[a][cf[a]]
            row = rows[old]
            s = sorted(map(add, scaled, row))
            t = tkeys[f]
            if s != t:
                return s < t
            if f == last:
                return False
            scaled = [(key + v) * base for key, v in zip(scaled, row)]
            f += 1
            axes = pending[f]
        (a,) = axes  # past fiber 0, one axis at a time takes a new index
        t = tkeys[f]
        ua = used[a]
        oa = offs[a]
        new = coords[f][a]
        stride = fstride[a]
        start = 0  # the other outer coordinates are 0 here
        for b in range(k):
            if b != a:
                start += offs[b][0]
        for o in range(outer[a]):
            if ua[o]:
                continue
            row = rows[start + o * stride]
            s = sorted(map(add, scaled, row))
            if s < t:
                return True
            if s == t and f < last:
                oa[new] = o * stride
                ua[o] = True
                hit = place(f + 1, [(key + v) * base
                                    for key, v in zip(scaled, row)])
                ua[o] = False
                if hit:
                    return True
        return False

    # image fiber 0 maps every outer axis at once, to a source fiber
    # that sorts to the target's first fiber
    first = tkeys[0]
    for old, head in enumerate(heads):
        if head != first:
            continue
        cf = coords[old]
        for a in range(k):
            offs[a][0] = cf[a] * fstride[a]
            used[a][cf[a]] = True
        hit = place(1, [v * base for v in rows[old]])
        for a in range(k):
            used[a][cf[a]] = False
        if hit:
            return True
    return False
