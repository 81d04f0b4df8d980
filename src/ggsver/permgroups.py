"""Exact subgroups of the iterated wreath product W_N, one layer per level.

Every group here acts on the p**N leaves of the depth-N p-regular rooted tree
and lies in W_N, the tree automorphisms whose label at each vertex is a power
of the p-cycle: g sends child d of a vertex v to child d + g_v (mod p) of
g(v).  Leaves are numbered in base p, most significant digit first, so g_v
is read off a single image: the first leaf below v goes into child g_v of
g(v).  Generators outside W_N are refused with NotPGroup.

The level filtration W_N = st(0) >= st(1) >= ... >= st(N) = 1 has
elementary abelian factors: on st(m) the level-m labels form a vector in
F_p^(p^m), and g -> (g_v) is a homomorphism with kernel st(m+1).  A
subgroup H is stored as one layer per level m: a reduced echelon basis over
F_p of the label vectors of H & st(m), with one element of H & st(m) per
basis row, its representative.  With d_m the dimension of layer m:

* the canonical products r_0 r_1 ... r_(N-1), r_m a product of level-m
  representatives with exponents in 0..p-1, are the elements of H, each
  exactly once, so log_p|H| is the sum of the d_m;
* H & st(m) is the suffix of layers from m on (level_stabilizer);
* x lies in H exactly when reducing it level by level leaves the identity.
  At level m the exponents are the labels of x at the pivot columns, and x
  is divided by that product of representatives.  Everything divided out
  lies in H, so the test is exact for any permutation of the leaves.

An element of st(N-1) is determined by its labels, so the last layer keeps
label rows only and decides by comparing labels.

Closure.  One routine builds every handle: the closure of seed elements
under conjugation by a list of ambient generators (PermGroup(degree, X, p)
takes X for both, normal_closure(K, S) takes S and the generators of K).
Each candidate is reduced level by level; a non-zero residual at level m is
scaled to a unit pivot, cleared from the other rows of its layer (an old
representative is multiplied by a power of the new one), and becomes a
representative r.  It queues (a) its conjugates by the ambient generators,
(b) r^p and (c) its commutators with the other level-m representatives.  (b)
and (c) lie in st(m+1) and go ahead of the next seed or conjugate.  The loop
stops when every queued element has reduced to the identity.

Why that is the closure.  Every representative is a product of seeds,
conjugates and earlier representatives, so it lies in the closure.  Clearing
a pivot keeps, level by level, the group spanned by the representatives,
so an element that reduced to the identity lies in H_m, the group generated
by the final representatives at levels >= m, where m is its level.  Hence
(a) makes each H_m invariant under the ambient generators, and so normal in
a group containing every representative; (b) and (c) put the p-th powers and
the commutators of level-m representatives into H_(m+1).  Induction down
from H_N = 1: H_m/H_(m+1) is elementary abelian and generated by the images
of the d_m final representatives, so |H_m : H_(m+1)| <= p^(d_m); the labels
map H_m onto their
d_m-dimensional span with kernel H_m & st(m+1), which contains H_(m+1), so
|H_m : H_(m+1)| >= p^(d_m).  Both are equalities: H_m & st(m+1) = H_(m+1),
and the canonical products from level m on are H_m, each once.  H_0 holds
every seed and is invariant under the ambient generators, so it is the
closure, and H_0 & st(m) = H_m.

Bottom layer.  An element w of st(N-1) is its level-(N-1) label vector u,
and the closure queues such candidates as vectors, not leaf permutations.
Conjugation permutes labels: y^-1 w y has labels u[pull], pull being the
level-(N-1) vertex map of y^-1, built once per closure for each ambient
generator.  The p-th power and the commutators of a new level-(N-2)
representative are evaluated on the first leaf below each level-(N-1)
vertex only, the commutators with all its peers in one 2-D gather.  A run
of up to _RUN label vectors at the head of a queue is reduced against the
last layer in one matrix product; when a row is added, the rest of the run
loses its pivot-column multiple of that row.  A vector's residual against a
reduced echelon basis is the one vector of its coset that vanishes on the
pivots, so this is the residual that reducing it afresh would give.  Hence a
vector whose residual is zero is dropped exactly where sifting it as a
permutation would drop it: it lies in the span, and the span only grows.
The live vectors are added one at a time in queue order, so the rows,
pivots, representatives and generators found are those of the
one-candidate-at-a-time closure.  Only a main-queue vector that leaves a
residual becomes a permutation again, as one of the generators found.

Block powers.  For H <= W_(N-1), block_power() returns H^p <= W_N, the
product of p copies of H with copy j acting on the leaves below the
first-level vertex j.  An element (h_0, ..., h_(p-1)) of H^p fixes level
m+1 exactly when every h_j fixes level m of the smaller tree, so
H^p & st(m+1) = (H & st(m))^p, and its level-(m+1) labels are the level-m
labels of h_0, ..., h_(p-1) side by side, copy j in the columns
j p^m .. (j+1) p^m - 1.  Hence layer 0 of H^p is empty, and the label
vectors of layer m+1 are the direct sum of p copies of those of layer m of
H.  The block-diagonal matrix of p copies of H's level-m basis spans that
sum, and it is reduced echelon: copy j's pivots are H's pivots shifted by
j p^m, and each pivot column is zero outside its own row.  Row i of copy j
is the labels of H's level-m representative i embedded in slot j, which
lies in H^p & st(m+1), so that embedding is its representative.  No
closure is needed.

Everything here is deterministic: candidates are processed in queue order
and representatives are kept in the order they were found.
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import combinations, product

import numpy as np

from .portraits import DegreeMismatch, Perm, level_of_degree, subtree_embed

__all__ = [
    "NotPGroup",
    "ElementNotInAmbient",
    "PermGroup",
    "equals",
    "normal_closure",
    "commutator_subgroup",
]


class NotPGroup(ValueError):
    """A generator lies outside the iterated wreath product W_N."""


class ElementNotInAmbient(ValueError):
    """A seed element lies outside the ambient group."""


def _inverse(arr: np.ndarray) -> np.ndarray:
    inv = np.empty_like(arr)
    inv[arr] = np.arange(len(arr), dtype=arr.dtype)
    return inv


def _comm(x: np.ndarray, y: np.ndarray, xinv: np.ndarray, yinv: np.ndarray) -> np.ndarray:
    # x^-1 y^-1 x y, composed left to right
    return y[x[yinv[xinv]]]


def _conj(w: np.ndarray, s: np.ndarray, sinv: np.ndarray) -> np.ndarray:
    # s^-1 w s
    return s[w[sinv]]


def _power(x: np.ndarray, k: int) -> np.ndarray:
    out = x
    for _ in range(k - 1):
        out = x[out]
    return out


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    # a mod p for float arrays of small integers; exact, and faster than %
    return a - p * np.floor(a / p)


# label vectors of st(N-1) reduced against the last layer in one product
_RUN = 64

_TREES: dict = {}


class _Tree:
    """Index tables of the depth-n p-regular tree; see _tree()."""

    def __init__(self, p, n: int):
        self.p = p
        self.depth = n
        idn = np.arange(p**n, dtype=np.intp)
        idn.setflags(write=False)
        self.identity = idn
        # the level-m labels of x are digits[m][x[starts[m]]]
        self.starts = [idn[:: p ** (n - m)] for m in range(n)]
        self.digits = [idn // p ** (n - m - 1) % p for m in range(n)]
        self.parent = idn // p
        self.base = idn - idn % p

    def from_last_labels(self, u: np.ndarray) -> np.ndarray:
        """The element of st(n-1) whose level-(n-1) labels are u."""
        return self.base + (self.identity + u[self.parent]) % self.p

    def pull(self, yinv: np.ndarray) -> np.ndarray:
        """The level-(n-1) vertex map of y^-1: the labels of y^-1 w y, for w
        in st(n-1) with labels u, are u[pull(y^-1)]."""
        return yinv[self.starts[-1]] // self.p

    def power_labels(self, x: np.ndarray) -> np.ndarray:
        """The level-(n-1) labels of x^p, for x in st(n-2)."""
        v = self.starts[-1]
        for _ in range(self.p):
            v = x[v]
        return self.digits[-1][v]

    def commutator_labels(self, x, xinv, ys, yinvs) -> np.ndarray:
        """Row j: the level-(n-1) labels of [x, ys[j]], for x and the ys in
        st(n-2), evaluated on the first leaf below each level-(n-1) vertex."""
        v = np.stack(yinvs)[:, xinv[self.starts[-1]]]
        v = np.take_along_axis(np.stack(ys), x[v], axis=1)
        return self.digits[-1][v]

    def in_wreath(self, x: np.ndarray) -> bool:
        """x preserves every level and shifts each vertex's children
        cyclically."""
        p = self.p
        for m in range(self.depth):
            bs = p ** (self.depth - m - 1)
            blocks = x.reshape(p ** (m + 1), bs) // bs
            heads = blocks[:, 0]
            if not (blocks == heads[:, None]).all():
                return False
            kids = heads.reshape(p**m, p)
            if not ((kids - kids[:, :1]) % p == np.arange(p)).all():
                return False
        return True


def _tree(p, n: int) -> _Tree:
    got = _TREES.get((p, n))
    if got is None:
        got = _TREES[(p, n)] = _Tree(p, n)
    return got


class _Layer:
    """Reduced echelon basis over F_p of the level-m labels of H & st(m), as
    float rows (exact for these small integers).  Below the last level each
    row has a representative, and divs[j][c] is representative j raised to
    -c."""

    __slots__ = ("rows", "pivots", "dim", "reps", "divs")

    def __init__(self, width: int):
        self.rows = np.zeros((4, width))
        self.pivots = np.zeros(4, dtype=np.intp)
        self.dim = 0
        self.reps: list[np.ndarray] = []
        self.divs: list[list] = []

    def add(self, residual: np.ndarray, p: int) -> int:
        """Append a residual (zero at every pivot) as a unit-pivot row and
        clear its pivot from the other rows; returns the scale applied."""
        if residual[self.pivots[: self.dim]].any():
            raise AssertionError("a residual is not reduced against its layer")
        j = int(np.flatnonzero(residual)[0])
        scale = pow(int(residual[j]), -1, p)
        if self.dim == len(self.rows):
            self.rows = np.concatenate([self.rows, np.zeros_like(self.rows)])
            self.pivots = np.resize(self.pivots, len(self.rows))
        live = self.rows[: self.dim]
        hit = np.flatnonzero(live[:, j])
        row = residual * scale % p
        live[hit] = _mod(live[hit] - np.outer(live[hit, j], row), p)
        self.rows[self.dim] = row
        self.pivots[self.dim] = j
        self.dim += 1
        return scale


def _divisors(rep: np.ndarray, p: int) -> list:
    inv = _inverse(rep)
    out = [None, inv]
    for _ in range(p - 2):
        out.append(inv[out[-1]])
    return out


class _Layers:
    """The layers of one subgroup of W_N.  Layers are shared with the
    suffixes handed out as level stabilizers and never change once built."""

    __slots__ = ("tree", "levels")

    def __init__(self, tree: _Tree, levels=None):
        self.tree = tree
        self.levels = levels or [_Layer(tree.p**m) for m in range(tree.depth)]

    def dimensions(self) -> list[int]:
        return [lvl.dim for lvl in self.levels]

    def block_power(self, tree: _Tree) -> "_Layers":
        """Layers of the product of p copies of this group, copy j below the
        first-level vertex j of `tree`, which is one level deeper; see the
        module docstring."""
        p = tree.p
        levels = [_Layer(1)]
        for m, lvl in enumerate(self.levels):
            d, cols = lvl.dim, p**m
            out = _Layer(p * cols)
            out.rows = np.kron(np.eye(p), lvl.rows[:d])
            out.pivots = (lvl.pivots[:d] + cols * np.arange(p)[:, None]).ravel()
            out.dim = p * d
            for j in range(p):
                for rep in lvl.reps:
                    emb = subtree_embed(Perm._wrap(rep), p, (j,), tree.depth).images
                    out.reps.append(emb)
                    out.divs.append(_divisors(emb, p))
            levels.append(out)
        return _Layers(tree, levels)

    def suffix(self, m: int) -> "_Layers":
        empty = [_Layer(self.tree.p**k) for k in range(m)]
        return _Layers(self.tree, empty + self.levels[m:])

    def representatives(self, start: int):
        """Representatives from level start on, level by level, in the order
        they were found."""
        last = self.tree.depth - 1
        for m in range(start, self.tree.depth):
            lvl = self.levels[m]
            if m < last:
                yield from lvl.reps
            else:
                for row in lvl.rows[: lvl.dim]:
                    yield self.tree.from_last_labels(row.astype(np.intp))

    # -- reduction -----------------------------------------------------------

    def _exponents(self, x: np.ndarray, m: int) -> np.ndarray:
        lvl = self.levels[m]
        return self.tree.digits[m][x[self.tree.starts[m][lvl.pivots[: lvl.dim]]]]

    def _divide(self, x: np.ndarray, m: int) -> np.ndarray:
        lvl = self.levels[m]
        if lvl.dim:
            for j, k in enumerate(self._exponents(x, m).tolist()):
                if k:
                    x = lvl.divs[j][k][x]
        return x

    def _reduce(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x with the levels below the last divided out, and the element of
        the last layer whose exponents are then read off it."""
        tree = self.tree
        for m in range(tree.depth - 1):
            x = self._divide(x, m)
        lvl = self.levels[-1]
        u = _mod(self._exponents(x, tree.depth - 1) @ lvl.rows[: lvl.dim], tree.p)
        return x, tree.from_last_labels(u.astype(np.intp))

    def contains(self, x: np.ndarray) -> bool:
        x, last = self._reduce(x)
        return bool((x == last).all())

    def _sift(self, x: np.ndarray, start: int):
        """(level, element, labels) of the first non-zero residual of an
        element of st(start) & W_N, or None when it lies in H.  On the last
        level the labels determine the element, which is left out."""
        tree = self.tree
        last = tree.depth - 1
        for m in range(start, last):
            x = self._divide(x, m)
            r = tree.digits[m][x[tree.starts[m]]]
            if r.any():
                return m, x, r
        r = self.bottom_residual(tree.digits[last][x[tree.starts[last]]])
        return (last, None, r.astype(np.intp)) if r.any() else None

    def bottom_residual(self, u: np.ndarray) -> np.ndarray:
        """The residuals against the last layer of u, one label vector of
        st(N-1) or a stack of them, one per row."""
        lvl = self.levels[-1]
        return _mod(u - u[..., lvl.pivots[: lvl.dim]] @ lvl.rows[: lvl.dim], self.tree.p)

    def _adjoin(self, m: int, x, residual: np.ndarray) -> np.ndarray:
        """Make the residual a representative at a level m below the last;
        returns its images."""
        p = self.tree.p
        lvl = self.levels[m]
        column = lvl.rows[: lvl.dim, np.flatnonzero(residual)[0]]
        hits = [(i, int(t)) for i, t in enumerate(column) if t]
        rep = _power(x, lvl.add(residual, p))
        divs = _divisors(rep, p)
        for i, t in hits:
            # row i lost t times the new row, so its representative does too
            lvl.reps[i] = divs[t][lvl.reps[i]]
            lvl.divs[i] = _divisors(lvl.reps[i], p)
        lvl.reps.append(rep)
        lvl.divs.append(divs)
        return rep


def _close(tree: _Tree, seeds, conj_by):
    """Layers of the closure of the seeds under conjugation by conj_by, and
    the seeds and conjugates that left a residual, a generating set."""
    layers = _Layers(tree)
    p = tree.p
    last = tree.depth - 1
    bottom = layers.levels[last]
    conj = [(y, _inverse(y)) for y in conj_by]
    pulls = [tree.pull(yinv) for _, yinv in conj]
    # (element, level its sift starts at), or (labels, None) for an element
    # of st(N-1) given by its level-(N-1) labels
    main = deque((x, 0) for x in seeds)
    side: deque = deque()
    found = []

    def grow_bottom(residual):
        bottom.add(residual, p)
        row = bottom.rows[bottom.dim - 1].astype(np.intp)
        main.extend((row[pull], None) for pull in pulls)

    while side or main:
        from_main = not side
        queue = main if from_main else side
        if queue[0][1] is None:
            run = []
            while queue and queue[0][1] is None and len(run) < _RUN:
                run.append(queue.popleft()[0])
            res = layers.bottom_residual(np.array(run))
            for i, u in enumerate(run):
                if not res[i].any():
                    continue
                if from_main:
                    found.append(tree.from_last_labels(u))
                grow_bottom(res[i])
                # keep the rest reduced against the grown layer
                j, row = bottom.pivots[bottom.dim - 1], bottom.rows[bottom.dim - 1]
                rest = res[i + 1 :]
                hit = np.flatnonzero(rest[:, j])
                rest[hit] = _mod(rest[hit] - np.outer(rest[hit, j], row), p)
            continue
        x, start = queue.popleft()
        hit = layers._sift(x, start)
        if hit is None:
            continue
        m, y, residual = hit
        if from_main:
            found.append(x)
        if m == last:
            grow_bottom(residual)
            continue
        lvl = layers.levels[m]
        peers, peer_invs = list(lvl.reps), [d[1] for d in lvl.divs]
        rep = layers._adjoin(m, y, residual)
        rinv = lvl.divs[-1][1]
        if m + 1 < last:
            side.append((_power(rep, p), m + 1))
            side.extend((_comm(rep, q, rinv, qinv), m + 1) for q, qinv in zip(peers, peer_invs))
        else:
            side.append((tree.power_labels(rep), None))
            if peers:
                side.extend((u, None) for u in tree.commutator_labels(rep, rinv, peers, peer_invs))
        main.extend((_conj(rep, s, sinv), m) for s, sinv in conj)
    return layers, found


class PermGroup:
    """Subgroup of W_N, acting on its p**N leaves, with exact order and
    membership.

    The layers are built lazily on first use; handles are immutable once
    constructed and safe to share.
    """

    def __init__(self, degree: int, generators, prime: int):
        if degree < prime:
            raise ValueError(f"degree {degree} is below the prime {prime}: no tree level")
        self.degree = int(degree)
        self.prime = int(prime)
        self._tree = _tree(self.prime, level_of_degree(self.degree, self.prime))
        gens = []
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator of degree {g.degree} in a degree-{degree} group"
                )
            gens.append(g)
        if not all(self._tree.in_wreath(g.images) for g in gens):
            raise NotPGroup("a generator is not a tree automorphism with cyclic vertex labels")
        self._setup(gens, None)

    def _setup(self, generators, layers, closed_from=None) -> None:
        self.generators: tuple[Perm, ...] = tuple(generators)
        self._chain: _Layers | None = layers
        # (weak reference to the ambient, seeds) for a normal closure; a
        # strong one would make a cycle with the ambient's memo of it
        self._closed_from = closed_from
        self._derived = None
        self._frattini = None
        self._stabilizers: dict[int, "PermGroup"] = {}

    def _built(self, generators, layers, closed_from=None) -> "PermGroup":
        """A handle with the same prime on the tree of the given layers,
        already built."""
        obj = PermGroup.__new__(PermGroup)
        tree = layers.tree
        obj.degree, obj.prime, obj._tree = len(tree.identity), self.prime, tree
        obj._setup(generators, layers, closed_from)
        return obj

    # -- layers and order ----------------------------------------------------

    @property
    def chain(self) -> _Layers:
        if self._chain is None:
            gens = [g.images for g in self.generators]
            self._chain, _ = _close(self._tree, gens, gens)
        return self._chain

    @property
    def order_exponent(self) -> int:
        return sum(self.chain.dimensions())

    @property
    def level(self) -> int:
        return self._tree.depth

    def is_trivial(self) -> bool:
        return self.order_exponent == 0

    # -- membership ---------------------------------------------------------

    def contains(self, x: Perm) -> bool:
        if x.degree != self.degree:
            raise DegreeMismatch("element degree differs from the group degree")
        return self.chain.contains(x.images)

    def contains_subgroup(self, other: "PermGroup") -> bool:
        return self.containment_witness(other) is None

    def containment_witness(self, other: "PermGroup"):
        """First generator of `other` outside self, or None when contained."""
        if other.degree != self.degree:
            raise DegreeMismatch("groups act on different point sets")
        for g in other.generators:
            if not self.contains(g):
                return g
        return None

    # -- derived machinery --------------------------------------------------

    def derived(self) -> "PermGroup":
        if self._derived is None:
            seeds = _commutators(combinations(self.generators, 2))
            self._derived = normal_closure(self, seeds)
        return self._derived

    def frattini(self) -> "PermGroup":
        """Smallest normal subgroup with elementary abelian quotient
        (commutators plus p-th powers of the generators, closed up)."""
        if self._frattini is None:
            p = self.prime
            seeds = _commutators(combinations(self.generators, 2))
            for g in self.generators:
                seeds.append(g**p)
            self._frattini = normal_closure(self, seeds)
        return self._frattini

    def rank(self) -> int:
        """Minimal number of generators, by the Burnside basis theorem."""
        return self.order_exponent - self.frattini().order_exponent

    def block_power(self) -> "PermGroup":
        """The product of p copies of this group, copy j acting on the leaves
        below the first-level vertex j of the tree one level deeper.  Its
        layers are read off this group's layers, with no closure."""
        p, n = self.prime, self.level + 1
        gens = [subtree_embed(g, p, (j,), n) for j in range(p) for g in self.generators]
        return self._built(gens, self.chain.block_power(_tree(p, n)))

    # -- level stabilizers ----------------------------------------------------

    def level_stabilizer(self, m: int) -> "PermGroup":
        """Kernel of the induced action on the level-m vertices: the layers
        from m on, generated by their representatives."""
        n = self.level
        if not 0 <= m <= n:
            raise ValueError(f"level {m} outside 0..{n}")
        if m == 0:
            return self
        got = self._stabilizers.get(m)
        if got is None:
            layers = self.chain.suffix(m)
            gens = [Perm._wrap(r) for r in layers.representatives(m)]
            got = self._built(gens, layers)
            self._stabilizers[m] = got
        return got

    # -- reporting ------------------------------------------------------------

    def chain_summary(self) -> dict:
        dims = self.chain.dimensions()
        return {
            "degree": self.degree,
            "prime": self.prime,
            "order_exponent": sum(dims),
            "level_dimensions": dims,
            # one representative per basis row; bench/spans.py reads this key
            "strong_generator_count": sum(dims),
        }

    def __repr__(self):
        built = self._chain is not None
        size = f"order {self.prime}^{self.order_exponent}" if built else "not built"
        return f"<PermGroup degree={self.degree} gens={len(self.generators)} {size}>"


def _commutators(pairs) -> list[Perm]:
    """The non-trivial commutators [x, y] of the pairs."""
    out = []
    for x, y in pairs:
        c = _comm(x.images, y.images, _inverse(x.images), _inverse(y.images))
        if not np.array_equal(c, np.arange(len(c))):
            out.append(Perm._wrap(c))
    return out


def equals(a: PermGroup, b: PermGroup) -> bool:
    """Order comparison plus one-sided generator membership."""
    if a.degree != b.degree:
        raise DegreeMismatch("groups act on different point sets")
    return a.order_exponent == b.order_exponent and b.contains_subgroup(a)


def normal_closure(ambient: PermGroup, elements) -> PermGroup:
    """Smallest subgroup containing the elements and closed under
    conjugation by the ambient generators."""
    seeds = []
    for e in elements:
        if not isinstance(e, Perm):
            e = Perm(e)
        if not ambient.contains(e):
            raise ElementNotInAmbient("seed element lies outside the ambient group")
        seeds.append(e)
    layers, found = _close(
        ambient._tree, [e.images for e in seeds], [g.images for g in ambient.generators]
    )
    gens = [Perm._wrap(a) for a in found]
    return ambient._built(gens, layers, (weakref.ref(ambient), tuple(seeds)))


def commutator_subgroup(a: PermGroup, b: PermGroup, ambient: PermGroup) -> PermGroup:
    """Normal closure in the ambient group of the commutators [s, y], with s
    running over the elements `a` was normally closed from in the ambient
    group (else its generators) and y over the generators of `b`.  That is
    [a, b] whenever both are normal in the ambient group: modulo the closure
    each s centralizes b, and so does each conjugate of s, since b is
    normal."""
    for sub in (a, b):
        w = ambient.containment_witness(sub)
        if w is not None:
            raise ElementNotInAmbient(
                "commutator arguments must be subgroups of the ambient group"
            )
    closed = a._closed_from
    left = closed[1] if closed is not None and closed[0]() is ambient else a.generators
    return normal_closure(ambient, _commutators(product(left, b.generators)))
