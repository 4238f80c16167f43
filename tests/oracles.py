"""Independent brute-force oracles used to check the library.

Everything here is written from the definitions, in the slowest, most
obvious way, and touches only the public graph fields (n, mult, adj,
and dims for the Cartesian product).  Keep instances tiny.  The two
shortcuts are ``min_egg_cut_by_tables``, which tries every bipartition
like ``min_egg_cut`` but keeps its per-set tables as byte strings, so
20-vertex hosts take under a second (a test holds the two equal), and
``exhaustive_cut_bound_check``, which sweeps every cut of a rook board
in Gray-code order on its neighbour masks: the reference for the
certified cut floor that the ``cut-bound-*`` suite claims read.
"""

import itertools
from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple, Optional

from rookgon import MultiGraph, graphs, rook_graph


def connected(g, verts):
    verts = list(dict.fromkeys(verts))
    if not verts:
        return False
    inside = set(verts)
    seen = {verts[0]}
    frontier = [verts[0]]
    while frontier:
        u = frontier.pop()
        for w in range(g.n):
            if g.mult[u][w] and w in inside and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == inside


def connected_subsets(g, k):
    out = []
    for combo in itertools.combinations(range(g.n), k):
        if connected(g, combo):
            out.append(combo)
    return out


def rook_adjacent(x, y):
    """Two cells of a product of complete graphs are adjacent iff their
    coordinate labels differ in exactly one coordinate."""
    return sum(a != b for a, b in zip(x, y)) == 1


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


def cut_weight(g, side):
    inside = set(side)
    total = 0
    for u in inside:
        for w in range(g.n):
            if w not in inside:
                total += g.mult[u][w]
    return total


def min_cut(g, sources, sinks):
    """Minimum cut separating sources from sinks, by trying every side."""
    src = set(sources)
    snk = set(sinks)
    rest = [v for v in range(g.n) if v not in src and v not in snk]
    best = None
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            side = src | set(extra)
            w = cut_weight(g, side)
            if best is None or w < best:
                best = w
    return best


def minimal_min_cut_side(g, sources, sinks):
    """The intersection of every minimum-weight side that contains the
    sources and avoids the sinks, as a sorted tuple, by trying every side."""
    src = set(sources)
    snk = set(sinks)
    rest = [v for v in range(g.n) if v not in src and v not in snk]
    best = None
    common = None
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            side = src | set(extra)
            w = cut_weight(g, side)
            if best is None or w < best:
                best, common = w, side
            elif w == best:
                common = common & side
    return tuple(sorted(common))


def is_automorphism(g, perm):
    for u in range(g.n):
        for w in range(g.n):
            if g.mult[u][w] != g.mult[perm[u]][perm[w]]:
                return False
    return True


def automorphisms(g):
    """All automorphisms by brute permutation filter (tiny graphs only)."""
    out = []
    for perm in itertools.permutations(range(g.n)):
        if is_automorphism(g, perm):
            out.append(perm)
    return out


def burnside_orbit_count(elements, n, d):
    """Orbits of length-n nonnegative vectors of sum d under the listed
    permutation group, by Burnside: the average number of vectors an
    element fixes.  A fixed vector is constant on each cycle, so an
    element with cycle lengths l_i fixes [x^d] of prod 1/(1 - x^l_i)
    vectors."""
    fixed = 0
    for p in elements:
        seen = [False] * n
        coef = [1] + [0] * d
        for i in range(n):
            length = 0
            while not seen[i]:
                seen[i] = True
                i = p[i]
                length += 1
            if length:
                for t in range(length, d + 1):
                    coef[t] += coef[t - length]
        fixed += coef[d]
    count, rem = divmod(fixed, len(elements))
    assert rem == 0, "not a group: Burnside's average is not an integer"
    return count


def laplacian_image(g, counts):
    """The chip movement caused by firing each vertex counts[v] times."""
    n = g.n
    out = [0] * n
    for v in range(n):
        if counts[v]:
            deg = sum(g.mult[v])
            out[v] -= deg * counts[v]
            for w in range(n):
                out[w] += g.mult[v][w] * counts[v]
    return out


def equivalent(g, d1, d2):
    """Linear-algebra equivalence: d1 - d2 must be an integer Laplacian
    image.  Solve with the base vertex's firing count pinned to zero."""
    n = g.n
    diff = [d1[i] - d2[i] for i in range(n)]
    if sum(diff) != 0:
        return False
    if n == 1:
        return True
    # rows/cols 1..n-1 of the Laplacian form an invertible system
    a = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                a[i - 1][j - 1] = Fraction(sum(g.mult[i]))
            else:
                a[i - 1][j - 1] = Fraction(-g.mult[i][j])
    b = [Fraction(-diff[i]) for i in range(1, n)]
    # gaussian elimination
    m = n - 1
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] *= inv
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [a[r][c] - f * a[col][c] for c in range(m)]
                b[r] -= f * b[col]
    return all(x.denominator == 1 for x in b)


def effective_divisors(n, total):
    """All nonnegative integer vectors of the given length and sum."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in effective_divisors(n - 1, total - first):
            yield (first,) + rest


def winnable(g, d):
    """Definitional winnability: equivalent to some effective divisor."""
    total = sum(d)
    if total < 0:
        return False
    return any(equivalent(g, list(e), list(d))
               for e in effective_divisors(g.n, total))


def rank(g, d):
    """Definitional rank, layered on definitional winnability."""
    if not winnable(g, d):
        return -1
    r = 0
    while True:
        for e in effective_divisors(g.n, r + 1):
            if not winnable(g, [d[i] - e[i] for i in range(g.n)]):
                return r
        r += 1


def class_rank_at_least(g):
    """A decider for rank(d) >= k that works on linear-equivalence classes.

    Same definitions as ``rank``, organised so that sweeping every small
    divisor on eight vertices stays cheap.  Two divisors of one degree are
    equivalent iff the inverse of the reduced Laplacian (base vertex 0
    removed) maps their difference into the integers, so a class is its
    degree plus that image modulo the integers, scaled by a common
    denominator.  A class is winnable iff building effective divisors
    chip by chip reaches it; rank(d) >= k unrolls to every d - e_u having
    rank >= k - 1.  Returns ``ge(d, k)``.
    """
    n = g.n
    m = n - 1
    a = [[Fraction(0)] * m for _ in range(m)]
    for i in range(1, n):
        for j in range(1, n):
            a[i - 1][j - 1] = Fraction(sum(g.mult[i]) if i == j
                                       else -g.mult[i][j])
    inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = 1 / a[col][col]
        a[col] = [x * f for x in a[col]]
        inv[col] = [x * f for x in inv[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [a[r][c] - f * a[col][c] for c in range(m)]
                inv[r] = [inv[r][c] - f * inv[col][c] for c in range(m)]
    den = 1
    for row in inv:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    rows = [tuple(int(x * den) for x in row) for row in inv]
    cols = list(zip(*rows))

    def key(d):
        rest = d[1:]
        return (sum(d), tuple(sum(map(mul, row, rest)) % den
                              for row in rows))

    def shift(c, u, s):
        deg, img = c
        if u:
            img = tuple((x + s * y) % den for x, y in zip(img, cols[u - 1]))
        return (deg + s, img)

    effective = [{key([0] * n)}]
    memo = {}

    def winnable(c):
        if c[0] < 0:
            return False
        while len(effective) <= c[0]:
            effective.append({shift(e, u, 1) for e in effective[-1]
                              for u in range(n)})
        return c in effective[c[0]]

    def class_ge(c, k):
        val = memo.get((c, k))
        if val is None:
            if k == 0:
                val = winnable(c)
            else:
                val = all(class_ge(shift(c, u, -1), k - 1)
                          for u in range(n))
            memo[(c, k)] = val
        return val

    def ge(d, k):
        return k < 0 or class_ge(key(d), k)

    return ge


def plain_gonality(g, k, cap):
    """Rank-k gonality by the plainest loop: every effective divisor of
    each degree from k to cap in lexicographic order, decided by
    ``class_rank_at_least``.  Returns (value, witness, refuted degrees,
    vectors per refuted degree); value and witness are None past cap."""
    ge = class_rank_at_least(g)
    refuted, counts = [], {}
    for deg in range(k, cap + 1):
        vectors = list(effective_divisors(g.n, deg))
        witness = next((list(c) for c in vectors if ge(c, k)), None)
        if witness is not None:
            return deg, witness, tuple(refuted), counts
        refuted.append(deg)
        counts[deg] = len(vectors)
    return None, None, tuple(refuted), counts


def is_reduced(g, d, v):
    """Definitional reducedness: effective away from v and no nonempty
    subset avoiding v can fire without some member going negative."""
    for i, x in enumerate(d):
        if i != v and x < 0:
            return False
    others = [u for u in range(g.n) if u != v]
    for r in range(1, len(others) + 1):
        for sub in itertools.combinations(others, r):
            inside = set(sub)
            if all(d[u] >= sum(g.mult[u][w] for w in range(g.n)
                               if w not in inside)
                   for u in sub):
                return False
    return True


def max_avoidance(host, eggs):
    """Largest vertex set containing no egg, by scanning all subsets."""
    n = host.n
    egg_sets = [set(e) for e in eggs]
    best = -1
    best_set = None
    for mask in range(1 << n):
        sel = {v for v in range(n) if mask >> v & 1}
        if len(sel) <= best:
            continue
        if any(e <= sel for e in egg_sets):
            continue
        best = len(sel)
        best_set = sel
    return best, best_set


def max_avoidance_plain_search(s):
    """Largest egg-free set of scramble s, as a bitmask, by the plain
    include/exclude search that the package used before its suffix
    bound: vertices in order of descending egg membership (ties by
    index), include before exclude, and a branch dies when taking every
    undecided vertex cannot beat the best.  Returns the first maximum
    set in that order."""
    n = s.host.n
    egg_masks = s.masks
    member = [[ei for ei, mask in enumerate(egg_masks) if mask >> v & 1]
              for v in range(n)]
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


def min_egg_cut(host, eggs):
    """Minimum cut separating two eggs, by scanning all bipartitions."""
    n = host.n
    egg_sets = [set(e) for e in eggs]
    best = None
    for mask in range(1, 1 << n):
        side = {v for v in range(n) if mask >> v & 1}
        rest = set(range(n)) - side
        if not rest:
            continue
        if any(e <= side for e in egg_sets) and any(e <= rest for e in egg_sets):
            w = cut_weight(host, side)
            if best is None or w < best:
                best = w
    return best


def min_egg_cut_by_tables(host, eggs):
    """``min_egg_cut`` over the same bipartitions (None if no side and
    its complement both hold an egg), fast enough for 20 vertices.

    Each table has one byte per vertex set X, at index X read as a
    bitmask, and is kept as one little-endian integer, so a step over
    every set is one integer operation.
    ``with_v[v]`` marks the sets holding v.  ``holds`` marks the sets
    holding an egg: each egg marks itself, then for each vertex v every
    set without v passes its mark to the same set with v, 2**v bytes up.
    The complement of X sits at index 2**n - 1 - X, so the reversed
    table marks the sets whose complement holds an egg.  ``cut`` sums,
    over the pairs uv, their multiplicity on the sets holding exactly
    one of u and v.  The answer is the least weight of a side that, like
    its complement, holds an egg."""
    n = host.n
    size = 1 << n
    with_v = [int.from_bytes((bytes(1 << v) + b"\x01" * (1 << v)) * (size >> v + 1),
                             "little") for v in range(n)]
    marks = bytearray(size)
    for e in eggs:
        marks[sum(1 << v for v in e)] = 1
    holds = int.from_bytes(marks, "little")
    for v in range(n):
        holds |= holds << (8 << v) & with_v[v]
    both = holds & int.from_bytes(holds.to_bytes(size, "little")[::-1], "little")
    assert sum(map(sum, host.mult)) // 2 < 256, "cut weights must fit a byte"
    cut = sum(host.mult[u][w] * (with_v[u] ^ with_v[w])
              for u, w in itertools.combinations(range(n), 2))
    cuts = cut.to_bytes(size, "little")
    for weight in range(256):
        at_weight = cuts.translate(bytes(b == weight for b in range(256)))
        if int.from_bytes(at_weight, "little") & both:
            return weight
    return None


def max_induced_edges_profile_scan(dims, size):
    """The layer-profile bound on induced edges, scanned literally: every
    layer partition r against every position partition c, kept when a
    0/1 layer x position matrix with those margins exists (Gale-Ryser),
    scoring sum of the recursive layer bounds plus sum C(c_p, 2).  On two
    factors this is the exact row/column profile scan."""
    if len(dims) == 1:
        return size * (size - 1) // 2
    n, rest = dims[0], tuple(dims[1:])
    positions = 1
    for d in rest:
        positions *= d

    def partitions(total, max_parts, max_val):
        if total == 0:
            return [()]
        if max_parts == 0:
            return []
        return [(v,) + p for v in range(min(total, max_val), 0, -1)
                for p in partitions(total - v, max_parts - 1, v)]

    def feasible(rows, cols):
        return all(sum(rows[:k]) <= sum(min(c, k) for c in cols)
                   for k in range(1, len(rows) + 1))

    # position partitions by descending score, so a row partition's scan
    # stops at its first feasible one or once it cannot beat the best
    scored = sorted(((sum(c * (c - 1) // 2 for c in cols), cols)
                     for cols in partitions(size, positions, n)), reverse=True)
    best = -1
    for rows in partitions(size, n, positions):
        base = sum(max_induced_edges_profile_scan(rest, r) for r in rows)
        for score, cols in scored:
            if base + score <= best:
                break
            if feasible(rows, cols):
                best = base + score
                break
    return best


class CutBoundReport(NamedTuple):
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
    n, m = graphs._positive_dims((n, m))
    if not 2 <= n <= m:
        raise ValueError("needs 2 <= n <= m")
    total = n * m
    if total > 20:
        raise ValueError(
            "board too large for the exhaustive cut sweep (limit nm <= 20); "
            "check smaller boards or sample cuts instead"
        )
    g = rook_graph([n, m])
    nbr = g.nbr_masks  # rook hosts are simple
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
