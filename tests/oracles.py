"""Independent oracles, deliberately decoupled from the package.

The brute-force routines use plain tuples with composition spelled out
inline.  SchreierSims is a generic stabilizer-chain engine on numpy image
arrays that knows nothing of the tree; it is the reference the layered
engine in ggsver.permgroups is tested against.  Neither shares a code path
with the package.

reference_close is the exception: it runs the package's closure one
candidate at a time, every candidate a leaf permutation.  It sifts by its
own division, with powers of the inverses of the representatives it makes
itself (_sift below), and shares the package's per-level elimination
(ggsver.permgroups._Layers, through _adjoin and _Layer.add); it differs in
the queue, so it is the reference for what the closure does with its
candidates.  It takes the level-(N-2) module generators T by its own
integer elimination, and with all_pairs follows the earlier rule that
commuted every pair of level-(N-2) representatives.  In a warm closure it
still commutes each new representative with the start's rows, which the
package skips.

power_verdict_all_slots compares a subgroup with a block product by
sifting k's generators placed in every slot, whatever the subgroup was
closed in; it reuses the package's witness rule and is the reference for
checks._power_verdict, which sifts one slot when that decides the rest.

growth_order_exponent reads the layer dimensions of a small session of the
package and extends them by a growth law that is measured, not proved; the
tests check that small build against SchreierSims.

same_group compares two of the package's group handles through their public
membership and orders; the tests use it where they assert an equality.

Portrait is the recursive reference for the generators the package writes in
closed form: a permutation of the first-level subtrees plus p child
portraits, flattened into leaf images one level at a time.
"""

from bisect import bisect_left
from collections import deque
from itertools import product

import numpy as np


def tuple_mul(p, q):
    """Apply p then q."""
    return tuple(q[x] for x in p)


def bfs_closure(gens):
    """All elements of the group generated by tuple permutations."""
    gens = [tuple(g) for g in gens]
    n = len(gens[0]) if gens else 0
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = tuple_mul(w, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def log_order(count, p):
    """Exponent k with count == p**k; raises on anything else."""
    k = 0
    while count % p == 0:
        count //= p
        k += 1
    if count != 1:
        raise AssertionError("group order is not a prime power")
    return k


def independent_by_enumeration(p, rows):
    """True when only the trivial combination of the rows vanishes mod p."""
    rows = [tuple(x % p for x in row) for row in rows]
    width = len(rows[0])
    for coeffs in product(range(p), repeat=len(rows)):
        if all(c == 0 for c in coeffs):
            continue
        combo = [0] * width
        for c, row in zip(coeffs, rows):
            for idx, x in enumerate(row):
                combo[idx] = (combo[idx] + c * x) % p
        if all(x == 0 for x in combo):
            return False
    return True


def circulant_rank(p, e):
    """F_p-rank of the p x p circulant matrix whose rows are the cyclic
    shifts of (e_1, ..., e_(p-1), 0), by plain Gaussian elimination."""
    first = [x % p for x in e] + [0]
    rows = [first[-k:] + first[:-k] for k in range(p)]
    rank = 0
    for col in range(p):
        pivot = next((i for i in range(rank, p) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        top = [x * inv % p for x in rows[rank]]
        rows[rank] = top
        for i in range(rank + 1, p):
            f = rows[i][col]
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def ggs_order_exponent(p, e, n):
    """log_p|G_n| for the GGS group of a non-constant vector e, n >= 2:
    t * p^(n-2) + 1 - delta * (p^(n-2) - 1)/(p - 1), with t the circulant
    rank and delta = 1 exactly when e is symmetric (Fernandez-Alcober and
    Zugadi-Reizabal, Trans. AMS 2014)."""
    delta = 1 if list(e) == list(e)[::-1] else 0
    return circulant_rank(p, e) * p ** (n - 2) + 1 - delta * (p ** (n - 2) - 1) // (p - 1)


def growth_order_exponent(small, n):
    """log_p|G_n| for n >= r + 1 by the growth law, from `small`, a session
    on r directed generators at depth r + 2: with d_m the layer dimensions
    of its G, sum_(m <= r) d_m + d_(r+1) (p^(n-r-1) - 1)/(p - 1), as the
    layers from r + 1 on multiply by p.

    Measured, not proved: every non-constant row space measured satisfies
    d_m = p d_(m-1) for m >= r + 2, and the constant vector does not.
    Branching over a subgroup that holds st_G(r+1) would give it
    (Bartholdi, Grigorchuk and Sunic, Branch groups, 2003).  It reads the
    package's layers at depth r + 2 only, which the tests check against
    SchreierSims; for r = 1 it is ggs_order_exponent."""
    p, r = small.spec.p, small.spec.r
    if small.depth != r + 2 or n < r + 1:
        raise ValueError(f"needs a depth-{r + 2} session and n >= {r + 1}")
    d = small.G.chain.dimensions()
    return sum(d[: r + 1]) + d[r + 1] * (p ** (n - r - 1) - 1) // (p - 1)


# -- reference generator portraits -------------------------------------------


class Portrait:
    """A tree automorphism truncated at a fixed depth: the permutation of the
    p first-level subtrees and p child portraits of depth one less; depth 0
    is the identity leaf.  Children may be shared."""

    def __init__(self, p, depth, root_perm, children):
        self.p = p
        self.depth = depth
        self.root_perm = tuple(root_perm)
        self.children = tuple(children)

    def is_identity(self):
        return self.root_perm == tuple(range(self.p)) and all(
            c.is_identity() for c in self.children
        )

    def images(self, level):
        """Images of the p**level vertices at the given level."""
        if level == 0:
            return np.zeros(1, dtype=np.intp)
        if self.is_identity():
            return np.arange(self.p**level, dtype=np.intp)
        if level == 1:
            return np.array(self.root_perm, dtype=np.intp)
        block = self.p ** (level - 1)
        out = np.empty(self.p * block, dtype=np.intp)
        for d in range(self.p):
            out[d * block : (d + 1) * block] = (
                self.root_perm[d] * block + self.children[d].images(level - 1)
            )
        return out


def portrait_identity(p, depth):
    """The trivial portrait, one node per level shared by all p children."""
    cur = Portrait(p, 0, range(p), ())
    for d in range(1, depth + 1):
        cur = Portrait(p, d, range(p), (cur,) * p)
    return cur


def portrait_rooted(p, depth, power):
    """The arity cycle to the given power at the root, trivial below."""
    root = [(d + power) % p for d in range(p)]
    return Portrait(p, depth, root, (portrait_identity(p, depth - 1),) * p)


def portrait_directed(p, vector, depth):
    """psi(b) = (a^e_1, ..., a^e_(p-1), b), built from the leaf up; at depth 1
    everything truncates away."""
    cur = portrait_identity(p, 1)
    for d in range(2, depth + 1):
        kids = [portrait_rooted(p, d - 1, e) for e in vector] + [cur]
        cur = Portrait(p, d, range(p), kids)
    return cur


def portrait_embed(g, word, depth):
    """Act as g on the subtree at the given vertex, trivially elsewhere."""
    if not word:
        return g
    sub = portrait_embed(g, word[1:], depth - 1)
    idle = portrait_identity(g.p, depth - 1)
    kids = [sub if d == word[0] else idle for d in range(g.p)]
    return Portrait(g.p, depth, range(g.p), kids)


# -- reference Schreier-Sims ---------------------------------------------------


def _inverse(arr):
    inv = np.empty_like(arr)
    inv[arr] = np.arange(len(arr))
    return inv


def _first_moved(arr):
    moved = np.flatnonzero(arr != np.arange(len(arr)))
    return int(moved[0]) if moved.size else None


class _Level:
    def __init__(self, point, degree):
        idn = np.arange(degree)
        self.point = point
        self.gens = []
        self.orbit = [point]
        self.u = {point: idn}
        self.uinv = {point: idn}
        self.done = [0]  # generators already paired with each orbit point


class SchreierSims:
    """Deterministic incremental Schreier-Sims over the base 0 < 1 < 2 < ...

    A strong generator whose first moved point is f, found while checking
    the level at point q, joins the generating sets of the levels in the
    half-open range (q, f].  Works for any permutation group.
    """

    def __init__(self, degree, generators=()):
        self.degree = degree
        self.levels = []
        self.points = []
        self.strong = []  # (images, low, first moved)
        for g in generators:
            self.add(np.asarray(g, dtype=np.intp))

    def sift(self, arr):
        """None for a member, else the residue."""
        cur = np.asarray(arr, dtype=np.intp)
        while True:
            q = _first_moved(cur)
            if q is None:
                return None
            i = bisect_left(self.points, q)
            if i == len(self.points) or self.points[i] != q:
                return cur
            uinv = self.levels[i].uinv.get(int(cur[q]))
            if uinv is None:
                return cur
            cur = uinv[cur]

    def contains(self, arr):
        return self.sift(arr) is None

    def order(self):
        out = 1
        for lvl in self.levels:
            out *= len(lvl.orbit)
        return out

    def add(self, arr):
        """Adjoin an element; True when the group grows."""
        res = self.sift(arr)
        if res is None:
            return False
        self._insert(res, -1)
        i = len(self.levels) - 1
        while i >= 0:
            grown_at = self._verify(self.levels[i])
            i = i - 1 if grown_at is None else bisect_left(self.points, grown_at)
        return True

    def _insert(self, arr, low):
        fm = _first_moved(arr)
        self.strong.append((arr, low, fm))
        i = bisect_left(self.points, fm)
        if i == len(self.points) or self.points[i] != fm:
            lvl = _Level(fm, self.degree)
            self.levels.insert(i, lvl)
            self.points.insert(i, fm)
            lvl.gens = [s for s, lo, f in self.strong if lo < fm <= f]
            self._extend(lvl, [fm])
        else:
            self._add_gen(self.levels[i], arr)
        for lvl in self.levels:
            if low < lvl.point < fm:
                self._add_gen(lvl, arr)
        return fm

    def _add_gen(self, lvl, arr):
        lvl.gens.append(arr)
        frontier = []
        for x in list(lvl.orbit):
            y = int(arr[x])
            if y not in lvl.u:
                self._orbit_add(lvl, y, arr[lvl.u[x]])
                frontier.append(y)
        self._extend(lvl, frontier)

    def _orbit_add(self, lvl, y, uy):
        lvl.u[y] = uy
        lvl.uinv[y] = _inverse(uy)
        lvl.orbit.append(y)
        lvl.done.append(0)

    def _extend(self, lvl, frontier):
        qi = 0
        while qi < len(frontier):
            x = frontier[qi]
            qi += 1
            for s in lvl.gens:
                y = int(s[x])
                if y not in lvl.u:
                    self._orbit_add(lvl, y, s[lvl.u[x]])
                    frontier.append(y)

    def _verify(self, lvl):
        """Sift the unprocessed Schreier generators of a level; the point of
        the level that gained a strong generator, or None when clean."""
        for oi, x in enumerate(lvl.orbit):
            while lvl.done[oi] < len(lvl.gens):
                s = lvl.gens[lvl.done[oi]]
                lvl.done[oi] += 1
                z = lvl.uinv[int(s[x])][s[lvl.u[x]]]
                res = self.sift(z)
                if res is not None:
                    return self._insert(res, lvl.point)
        return None


def reference_normal_closure(degree, seeds, conj_by):
    """SchreierSims of the closure of the seeds under conjugation by conj_by."""
    chain = SchreierSims(degree)
    work = [np.asarray(s, dtype=np.intp) for s in seeds]
    conj = [(np.asarray(y), _inverse(np.asarray(y))) for y in conj_by]
    qi = 0
    while qi < len(work):
        w = work[qi]
        qi += 1
        if chain.add(w):
            work.extend(y[w[yinv]] for y, yinv in conj)
    return chain


def reference_commutator(x, y):
    """x^-1 y^-1 x y, composed left to right, on image arrays."""
    x, y = np.asarray(x), np.asarray(y)
    return y[x[_inverse(y)[_inverse(x)]]]


def same_group(a, b):
    """Equal orders, and every generator of a lies in b."""
    return a.order_exponent == b.order_exponent and b.containment_witness(a) is None


def _power(x, k):
    out = x
    for _ in range(k - 1):
        out = x[out]
    return out


def _labels(x, p, n, m):
    """The level-m labels of a leaf permutation x of the depth-n tree: the
    first leaf below vertex v goes into child label[v] of x(v)."""
    below = p ** (n - m)
    return x[np.arange(p**m) * below] // (below // p) % p


def _sift_upper(layers, x, start):
    """(level, element, labels) of the first non-zero labels of an element x
    of st(start) & W_N, dividing above the last level only: on each level x
    is divided, pivot by pivot in row order, by the power of each
    representative's inverse that its label at the pivot asks for.  When
    none is left above the last level, the element is x so divided, which
    lies in st(N-1), with its last-level labels."""
    p, n = layers.tree.p, layers.tree.depth
    for m in range(start, n - 1):
        lvl = layers.levels[m]
        pivots = lvl.pivots[: lvl.dim].tolist()
        for j, k in enumerate(_labels(x, p, n, m)[pivots].tolist()):
            if k:
                x = _power(_inverse(lvl.reps[j]), k)[x]
        r = _labels(x, p, n, m)
        if r.any():
            return m, x, r
    return n - 1, x, _labels(x, p, n, n - 1)


def _sift(layers, x, start):
    """(level, element, labels) of the first non-zero residual of an element
    of st(start) & W_N, or None when it lies in the layers' group: as
    _sift_upper, the last level's labels reduced against its rows."""
    m, x, r = _sift_upper(layers, x, start)
    if m < layers.tree.depth - 1:
        return m, x, r
    r = layers.levels[-1].residual(r, layers.tree.p)
    return (m, x, r.astype(np.intp)) if r.any() else None


def _adjoin(layers, m, x, residual):
    """Make the residual a representative at a level m below the last;
    returns its images."""
    return layers.levels[m].push(layers._admit(m, x, residual)[1])


def _copied(start):
    """New layers holding copies of the start's arrays, trimmed to its rows."""
    from ggsver.permgroups import _Layer, _Layers

    levels = []
    for m, lvl in enumerate(start.levels):
        d = lvl.dim
        out = _Layer(start.tree, m)
        out.rows, out.pivots = lvl.rows[:d].copy(), lvl.pivots[:d].copy()
        out.leaves, out.heads, out.dim = lvl.leaves[:d].copy(), lvl.heads[:d].copy(), d
        out.reps = [r.copy() for r in lvl.reps[:d]]
        out.divs = [[x.copy() for x in plane[:d]] for plane in lvl.divs]
        levels.append(out)
    return _Layers(start.tree, levels)


def _adds_pivot(p, rows):
    """For each integer row in order, whether it lies outside the span over
    F_p of the rows before it."""
    basis, out = [], []
    for v in rows:
        v = np.asarray(v, dtype=np.int64) % p
        for j, b in basis:
            v = (v - v[j] * b) % p
        nonzero = np.flatnonzero(v)
        if len(nonzero):
            j = nonzero[0]
            basis.append((j, v * pow(int(v[j]), -1, p) % p))
        out.append(bool(len(nonzero)))
    return out


def reference_module_generators(tree, lvl, new, conj_by):
    """Indices of the level-(N-2) rows that span the layer modulo the sum of
    its rows moved by x - 1, x in conj_by, in integers; the rows from `new`
    on when there are at most len(conj_by) of them."""
    d = lvl.dim
    if d - new <= len(conj_by):
        return list(range(new, d))
    p, n = tree.p, tree.depth
    below = p**2
    rows = lvl.rows[:d].astype(np.int64)
    # x's vertex permutation of level N-2: the first leaf below vertex v
    # goes below vertex x(v)
    moved = []
    for x in conj_by:
        perm = np.asarray(x)[np.arange(p ** (n - 2)) * below] // below
        shifted = np.empty_like(rows)
        shifted[:, perm] = rows
        moved.extend(shifted - rows)
    adds = _adds_pivot(p, moved + list(rows))[len(moved) :]
    return [j for j in range(d) if adds[j]]


def reference_close(tree, seeds, conj_by, start=None, all_pairs=False):
    """Layers of the closure of the seeds under conjugation by conj_by, and
    the seeds and conjugates that left a residual, each with the level of its
    residual, sifting every candidate as a leaf permutation in queue order;
    from copies of the start's layers when given.  As the package's closure
    does, it queues the p-th power alone of a new level-(N-2)
    representative, holds back conjugates that reach the last level, then
    queues [t, r] for t in T, computed here in integers, and each final
    level-(N-2) representative r ahead of them, once no other candidate is
    left.  Unlike the package's closure, it commutes a new representative
    with every peer and T with every final level-(N-2) representative, the
    start's rows too, so where the two agree array for array the
    commutators the package skips in a warm closure added nothing.  With
    all_pairs it follows the rule the closure had before: a new level-(N-2)
    representative is commuted at once with each of its peers, as on every
    level above, and nothing is held back."""
    from ggsver.permgroups import _Layers

    layers = _Layers(tree) if start is None else _copied(start)
    if not tree.depth:
        return layers, []
    p = tree.p
    last = tree.depth - 1
    mid = layers.levels[last - 1] if last else None
    mid_start = 0 if mid is None else mid.dim
    conj = [(y, _inverse(y)) for y in conj_by]
    main = deque((x, 0, False) for x in seeds)
    side = deque()
    # until the level-(N-2) commutators are queued, conjugates that reached
    # the last level wait, divided by the representatives above it, and so
    # do the conjugates of the last level's rows
    waiting, held = [], []
    commuted = all_pairs
    found = []
    while side or main or not commuted:
        if not (side or main):
            if mid is not None:
                reps = [r.copy() for r in mid.reps[: mid.dim]]
                for t in reference_module_generators(tree, mid, mid_start, conj_by):
                    side.extend((reference_commutator(reps[t], r), last) for r in reps)
            main.extend((x, last, False) for x in waiting + held)
            commuted = True
            continue
        from_main = not side
        if from_main:
            x, start, conjugate = main.popleft()
        else:
            (x, start), conjugate = side.popleft(), False
        if conjugate and not commuted:
            m, y, _ = _sift_upper(layers, x, start)
            if m == last:
                waiting.append(y)
                continue
        hit = _sift(layers, x, start)
        if hit is None:
            continue
        m, y, residual = hit
        if from_main:
            found.append((x, m))
        if m == last:
            bottom = layers.levels[last]
            bottom.add(residual, p)
            rep = tree.from_last_labels(bottom.rows[bottom.dim - 1].astype(np.intp))
        else:
            # copies: a representative may be a view that _adjoin rewrites
            lvl = layers.levels[m]
            peers = [r.copy() for r in lvl.reps[: lvl.dim]]
            rep = _adjoin(layers, m, y, residual)
            side.append((_power(rep, p), m + 1))
            if m + 1 < last or all_pairs:
                side.extend((reference_commutator(rep, r), m + 1) for r in peers)
        conjugates = [y[rep[yinv]] for y, yinv in conj]
        if m == last and not commuted:
            held.extend(conjugates)
        else:
            main.extend((c, m, True) for c in conjugates)
    return layers, found


def power_verdict_all_slots(lhs, k, details):
    """(details, witness) for lhs == K^p as checks._power_verdict gives
    them, deciding the holding case by sifting k's generators placed in
    every first-level slot, p * |k.generators| sifts, whatever lhs was
    closed in.  The witness rule is the package's."""
    from ggsver.checks import _in_power
    from ggsver.portraits import subtree_embed

    p, n = k.prime, k.level + 1
    placed = [subtree_embed(h, p, (j,), n) for j in range(p) for h in k.generators]
    details = dict(details)
    details["lhs_exponent"] = lhs.order_exponent
    details["rhs_exponent"] = p * k.order_exponent
    if lhs.order_exponent == details["rhs_exponent"] and all(map(lhs.contains, placed)):
        return details, None
    candidates = (*lhs.origin.elements, *lhs.generators)
    missing = next((g for g in candidates if not _in_power(g, k)), None)
    if missing is None:
        missing = next(x for x in placed if not lhs.contains(x))
    return details, missing
