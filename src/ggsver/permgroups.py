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
  lies in H, so the test is exact for any permutation of the leaves.  A
  level m with no rows refuses x as soon as x has non-zero labels there:
  once the levels above m are divided out, a member lies in H & st(m), which
  is H & st(m+1) when layer m is empty, so its level-m labels are zero.

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
and (c) lie in st(m+1) and go ahead of the next seed or conjugate; (a) are
made as they leave the queue (Bottom layer).  The loop stops when every
queued element has reduced to the identity.

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

Warm start.  A closure may start from the layers of a subgroup L that is
invariant under the ambient generators and lies in the closure, and sift
only the seeds.  Then every L & st(m) is invariant under those generators,
and the p-th powers and commutators of L's level-m representatives lie in
L & st(m+1).  The induction above holds unchanged.  Clearing pivots keeps
the group the representatives span, so H_m contains L & st(m) throughout.
The conjugates of L's representatives were never queued, but they lie in
L & st(m), inside H_m; their p-th powers and mutual commutators lie in
L & st(m+1), inside H_(m+1); the commutators of a new representative with
L's are queued as with any peer.  H_0 holds L and every seed and is
invariant, and L lies in the closure, so H_0 is the closure.  It starts
from shares (_Layer.share): views of exactly the rows L holds, so the first
row a level gains moves it into new arrays, and L's layers never change.
Two kinds of closure start warm.  G' is normal in G and lies in it, so
PermGroup.derived() hands its layers to G while G's are unbuilt, and G's
closure starts from them and sifts only a, b_1, ..., b_r; its generators
are those it added, not a generating set, and PermGroup.chain, the one that
runs it, reads only its layers.  A normal closure may be handed a start
(_normal_closure), a subgroup normal in the ambient group that lies in the
result; its generators are then the start's followed by those it found.
GroupSession grows st(1)' and gamma3 so, always from G'', which it closes
first when it is not yet built, and Phi(G) from G' when the two differ.

Normal generators.  A handle records how it was made in one Origin, its
origin: the ambient it was closed in, elements whose closure under the
ambient's generators it is, and the levels of its generators (Generators of
a quotient).  The seeds that leave a residual already close to H_0, so a
cold normal closure records only those as its elements.  They are the prefix
of the generators found, since conjugates join the main queue behind every
seed, so no conjugate leaves it before the last seed.  Let N' be the closure
of the kept seeds under the ambient generators; N' <= H_0 as H_0 holds every
seed.  By induction over the queue, everything the closure handles lies in
N': a kept seed does; a seed that left no residual reduced to the identity,
so it is a product of representatives found before it; a residual is the
candidate divided by earlier representatives, and a representative is a
power of a residual or an earlier one times a power of it; a conjugate of a
representative by an ambient generator lies in N', which those generators
normalize; p-th powers and commutators of representatives lie in N' too.  So
every representative lies in N', H_0 <= N', and H_0 = N'.  A seed that left
no residual even lies in the group generated by the seeds before it: no
conjugate is handled before the last seed, so the representatives it was
reduced by are built from those seeds by products, powers and commutators.
A warm closure keeps every seed, as those that left no residual may reduce
by the start's representatives; the closure of every seed is H_0, as the
start lies in it.

Containment reads the same record.  If H's origin is E in an ambient A, and
K is A or its origin's ambient is A too, K is invariant under A's
generators, so the closure H of E under them lies in K exactly when E does:
containment_witness sifts E alone, and names the first element of E outside
K.  By the above, that is the first seed outside K, whether H was closed cold
or warm, and for a cold closure it is the first of H's generators outside K,
the witness a scan of every generator gives.  When K is A itself, or K is H,
containment_witness sifts nothing.  H is then the closure under A's
generators of elements of A, so it lies in A: a normal closure checks that
its seeds lie in A, and derived(), commutator_subgroup and
GroupSession.st1() build theirs from A's elements.  A handle closed in no
group has no ambient, and matches none.

Bottom layer.  An element w of st(N-1) is its level-(N-1) label vector u,
and the closure queues such candidates as vectors, not leaf permutations,
in stacks, one vector per row.  Conjugation permutes labels: y^-1 w y has
labels u[pull], pull being the level-(N-1) vertex map of y^-1, built once
per closure for each ambient generator.  The p-th power and the commutators
of a new level-(N-2) representative are evaluated on the first leaf below
each level-(N-1) vertex only, the commutators with all its peers in one
gather (on every level below the last the representatives and inverses are
2-D arrays), and queued as one stack.  A permutation candidate is sifted
through the levels above the last only; if it leaves no residual there, its
level-(N-1) labels join the current run of label vectors as a stack of one,
tagged with the permutation.  A stack leaves its queue whole and joins the
run.  The run is reduced against the last layer in one matrix product once
it holds _RUN vectors, when the queues run dry, and before any residual
above the last level is adjoined; it may pass _RUN by one stack.  Its
residuals are written into the last layer's own rows and added one at a
time in queue order: each that is still non-zero becomes a row, and one
elimination clears its pivot from the layer and from the residuals still
pending.  The conjugates of the rows one reduction adds form one stack,
taken from each row as it was added, before later rows cleared their
pivots, row by row in the order added; that is the order and the value in
which one-at-a-time adding queues them.

The label vectors are stored in the narrowest unsigned type that holds
p - 1, uint8 unless p > 256: the tree's level-(N-1) digits have that type,
and so do the last-level labels a sift reads, the stacks of p-th powers and
commutators of level-(N-2) representatives and the conjugate stacks.  A
stack takes an eighth of the bytes of intp, and its product with float32
rows (Exact in float32) runs in single precision, where intp would promote
it to float64.
Above the last level a new representative is queued as one copy, taken
once push has cleared its pivot from the older representatives, once per
ambient generator; the conjugate by that generator is made when the item
leaves the queue.  push rewrites a representative in place when a later row
clears its pivot, which is why the copy is needed: the conjugate is then
the one made at once from the representative as it was, and one array of
the degree's length is held per representative instead of one per ambient
generator.

Exact in float32.  The label rows of a tree's layers are float32 when
(p-1)^2 p^(N-1) + p^3 < 2^22 (_row_type), else float64.  The float code
forms only integers, and under that bound every one of them is below 2^22 in
absolute value, which float32 holds exactly: a residual, or a membership
product, sums u_i r_ij over at most p^(N-1) pivots, each term in
0..(p-1)^2, so every partial sum too, in whatever order the product adds
them, and u minus that sum lies above -(p-1)^2 p^(N-1); _clear subtracts
from rows in 0..p-1 the products c r_j, with c = t scale in 0..(p-1)^2 or
c = 1 - scale above -p, so its values lie strictly between -p^3 and p^3.
_mod(a, p) rounds a/p to float32 with relative error at most 2^-24, so off
by less than 2^22/p 2^-24 = 1/(4p); a/p is an integer, which is then
exact, or lies at least 1/p from every integer, so its floor is exact, and
so are q p and a - q p.  Membership takes no _mod: its product, an integer
in 0..(p-1)^2 p^(N-1), is exact, and from_last_labels reduces it mod p in
integers.  The bound admits p=3 up to N=13, p=5 up to N=8 and p=7 up to
N=6.

Deferring the last level so is exact.  A sift above the last level reads
only the layers above it, adding a bottom row changes only the last layer
and appends to the tail of the main queue, and nothing else is queued while
a run is pending.  So taking a stack whole, or reducing a run that passed
_RUN, leaves every candidate reduced against the layers, and the queues
growing in the order, of the one-candidate-at-a-time closure.  A vector's
residual against a reduced echelon basis is the one vector of its coset
that vanishes on the pivots, so this is the residual that reducing it
afresh would give.  Hence a vector whose residual is zero is dropped exactly
where sifting it as a permutation would drop it: it lies in the span, and
the span only grows.  The live vectors are added one at a time in queue
order, so the rows, pivots, representatives and generators found are those
of the one-candidate-at-a-time closure.  A main-queue candidate that leaves
a residual on the last level is recorded as a generator: its permutation,
or for a label vector the element of st(N-1) that it determines.

Quotients.  For H <= W_N and m < N, truncate(m) returns pi_m(H), the
action of H on the level-m vertices, read off H's layers with no closure.
For k < m the level-k labels of pi_m(h) are those of h, and pi_m(h) fixes
level k exactly when h does, so pi_m(H) & st(k) = pi_m(H & st(k)): layer k
of pi_m(H) has the rows and pivots of layer k of H, and the restrictions of
its representatives and divisors to level m are representatives and
divisors there (x restricted to level m is x[::p^(N-m)] // p^(N-m), as each
level-m vertex is read at the first leaf below it).  Level m-1 becomes the
last layer and keeps its rows only; level-k labels are read on level
k+1 <= m, so every layer is exact.  The layers at levels >= m lie in st(m)
and drop out.

Generators of a quotient.  The closure records in its origin, with each
generator it finds, the level where it left its residual.  truncate(m) keeps
the restrictions of those found above level m, and all of the generators
given by hand (a handle's own, a level stabilizer's representatives).  They
generate pi_m(H): the canonical products are H, so the restricted
representatives at levels below m generate pi_m(H), and by induction over
the closure each representative at a level k < m is, modulo st(m), a word in
the kept generators found at levels <= k.  A representative at level k is a
power of a residual, or an earlier one times a power of one, and a residual
is its candidate divided by representatives at levels <= k.  The candidate
is a seed or a conjugate that left its residual at level k, so a kept
generator, or a p-th power or commutator of representatives at a level below
k, words by induction.  Representatives at levels >= m lie in st(m).  A warm
normal closure lists the start's generators and levels first, a start's
generators given by hand at level 0 so that every truncation keeps them: a
start's representatives at level k are, by the same induction, words in the
start's generators found at levels <= k, and the induction goes through from
them.

Everything here is deterministic: candidates are processed in queue order
and representatives are kept in the order they were found.
"""

from __future__ import annotations

import operator
from collections import deque
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .portraits import DegreeMismatch, Perm, commutator, level_of_degree

__all__ = [
    "NotPGroup",
    "ElementNotInAmbient",
    "Origin",
    "PermGroup",
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


def _comm_rows(x, xinv, ys, yinvs, points) -> np.ndarray:
    """Row j: [x, ys[j]] at the points, an index into the leaves, in one
    gather; ys and yinvs hold elements and their inverses, one per row."""
    v = x[yinvs.take(xinv[points], axis=1)]
    # flat indices into ys, row j offset by j times its length
    v += np.arange(0, ys.size, ys.shape[1])[:, None]
    return ys.take(v)


def _conj(w: np.ndarray, s: np.ndarray, sinv: np.ndarray) -> np.ndarray:
    # s^-1 w s
    return s[w[sinv]]


def _power(x: np.ndarray, k: int) -> np.ndarray:
    out = x
    for _ in range(k - 1):
        out = x[out]
    return out


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    # a mod p, in place, for float arrays of small integers; exact, and
    # faster than %
    q = a / p
    np.floor(q, out=q)
    q *= p
    a -= q
    return a


# label vectors of st(N-1) reduced against the last layer in one product;
# a run may pass it by one stack
_RUN = 64


def _row_type(p: int, n: int):
    """The float type of the label rows of the depth-n tree: float32 when
    every value the float code forms is an integer below 2**22, so held
    exactly (Exact in float32 in the module docstring), else float64."""
    return np.float32 if (p - 1) ** 2 * p ** (n - 1) + p**3 < 2**22 else np.float64


class _Tree:
    """Index tables of the depth-n p-regular tree, and the float type of its
    layers' label rows."""

    def __init__(self, p, n: int):
        self.p = p
        self.depth = n
        self.row_type = _row_type(p, n)
        idn = np.arange(p**n, dtype=np.intp)
        idn.setflags(write=False)
        self.identity = idn
        # the level-m labels of x are digits[m][x[starts[m]]]; the last
        # level's in the narrowest unsigned type, so that the label stacks
        # a closure queues are narrow and multiply the rows in one precision
        self.starts = [idn[:: p ** (n - m)] for m in range(n)]
        self.digits = [idn // p ** (n - m - 1) % p for m in range(n)]
        self.digits[-1] = self.digits[-1].astype(np.min_scalar_type(p - 1))
        self.parent = idn // p
        self.base = idn - idn % p

    def from_last_labels(self, u: np.ndarray) -> np.ndarray:
        """The element of st(n-1) whose level-(n-1) labels are u, or a stack
        of them, one per row of u."""
        return self.base + (self.identity + u.take(self.parent, axis=-1)) % self.p

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


class _Layer:
    """Reduced echelon basis over F_p of the level-m labels of H & st(m), as
    float rows of the tree's row_type: float32 where that is exact, else
    float64 (Exact in float32 in the module docstring); a truncation shares
    rows in the type they have.  leaves[j] = pivots[j] *
    below, with below = p**(N-m), is the first leaf below the vertex of
    pivot j, so one gather reads an element's exponents.  Below the last
    level row j has a representative reps[j], and divs[c-1, j] is reps[j]
    raised to -c.  A layer with no rows makes membership refuse at once an
    element with non-zero labels at its level: a member's are zero there
    (module docstring).
    The arrays grow by doubling, up to the width plus the rows being added;
    rows from dim on are unused, or hold residuals on their way in, until the
    closure drops them.  add and extend take residuals through one
    elimination, _clear.  steps[c-1][j] is a view of divs[c-1, j], made once
    per array, as a list is indexed faster than numpy makes a view."""

    __slots__ = ("rows", "pivots", "leaves", "below", "dim", "reps", "divs", "steps")

    def __init__(self, tree: _Tree, m: int):
        degree = len(tree.identity) if m < tree.depth - 1 else 0
        self.rows = np.empty((0, tree.p**m), dtype=tree.row_type)
        self.pivots = np.empty(0, dtype=np.intp)
        self.below = tree.p ** (tree.depth - m)
        self.leaves = np.empty(0, dtype=np.intp)
        self.dim = 0
        self.reps = np.empty((0, degree), dtype=np.intp)
        self.divs = np.empty((tree.p - 1, 0, degree), dtype=np.intp)
        self.steps = None

    def resize(self, size: int) -> None:
        """Room for exactly `size` rows, the first dim kept, one array at a time."""
        d = self.dim
        self.rows = _fit(self.rows, size, d)
        self.pivots = _fit(self.pivots, size, d)
        self.leaves = _fit(self.leaves, size, d)
        self.reps = _fit(self.reps, size, d)
        divs = np.empty((len(self.divs), size, self.reps.shape[1]), dtype=np.intp)
        divs[:, :d] = self.divs[:, :d]
        self.divs, self.steps = divs, None

    def residual(self, u: np.ndarray, p: int, out=None) -> np.ndarray:
        """The residuals against this layer of u, one label vector or a stack
        of them, one per row; written into out when given."""
        d = self.dim
        r = np.matmul(u[..., self.pivots[:d]], self.rows[:d], out=out)
        return _mod(np.subtract(u, r, out=r), p)

    def _take(self, n: int) -> np.ndarray:
        """The n rows from dim on, room for them made first."""
        d = self.dim
        if d + n > len(self.rows):
            # a layer has at most as many rows as columns, plus those coming in
            self.resize(min(max(16, 2 * len(self.rows), d + n), self.rows.shape[1] + n))
        return self.rows[d : d + n]

    def _reduced(self, r: np.ndarray) -> np.ndarray:
        """r, a residual or a stack of them, checked to be zero at every pivot."""
        if np.count_nonzero(r[..., self.pivots[: self.dim]]):
            raise AssertionError("a residual is not reduced against its layer")
        return r

    def _clear(self, k: int, end: int, p: int):
        """Make row k, zero at every pivot, row dim: scaled to a unit pivot,
        with its pivot column cleared from every other row before end.  The
        rows from dim up to k must be zero.  Returns the new row, the rows
        hit (k among them) with their multiples, and the scale, or None when
        row k is zero."""
        rows = self.rows
        row = rows[k]
        nonzero = row.nonzero()[0]
        if not len(nonzero):
            return None
        j = int(nonzero[0])
        scale = pow(int(row[j]), -1, p)
        col = rows[:end, j]
        hit = col.nonzero()[0]
        t = col[hit]
        # one product scales row k and clears column j from the others: row
        # k loses 1 - scale times itself, row i loses t_i scale times it
        c = t * scale
        c[hit.searchsorted(k)] = 1 - scale
        rows[hit] = _mod(rows[hit] - np.multiply.outer(c, row), p)
        d = self.dim
        row = rows[k].copy()
        if k != d:
            rows[k] = 0
            rows[d] = row
        self.pivots[d] = j
        self.leaves[d] = j * self.below
        self.dim = d + 1
        return row, hit, t, scale

    def add(self, residual: np.ndarray, p: int):
        """Append a residual (zero at every pivot) as a unit-pivot row and
        clear its pivot from the other rows.  Returns the scale applied and
        (row, multiple) for each older row that lost a multiple of the new
        one."""
        d = self.dim
        self._take(1)[0] = self._reduced(residual)
        _, hit, t, scale = self._clear(d, d + 1, p)
        return scale, [(i, int(c)) for i, c in zip(hit.tolist(), t.tolist()) if i != d]

    def extend(self, u: np.ndarray, p: int):
        """Add the residuals of u, a stack of label vectors, one at a time in
        order, as add would: each residual still non-zero once the rows added
        before it are cleared from it becomes a row.  The residuals are
        computed into the rows from dim on; one elimination per new row
        clears it from the layer and from the residuals still pending, and
        moves it up to follow the rows before it.  Returns the indices into
        u of the new rows and those rows as added, before later rows cleared
        their pivots."""
        d = self.dim
        residuals = self._reduced(self.residual(u, p, out=self._take(len(u))))
        end = d + len(u)
        added, as_added = [], []
        for i in np.flatnonzero(np.count_nonzero(residuals, axis=1)).tolist():
            got = self._clear(d + i, end, p)
            if got is not None:
                added.append(i)
                as_added.append(got[0])
        return added, np.array(as_added).reshape(len(added), self.rows.shape[1])

    def push(self, hits) -> np.ndarray:
        """Clear the newest representative's multiples out of the older
        ones: hits holds (row, multiple) for each old row that lost a
        multiple of the new one.  Returns the newest representative."""
        d = self.dim - 1
        for i, t in hits:
            # row i lost t times the new row, so its representative does too
            self.reps[i] = self.divs[t - 1, d][self.reps[i]]
            _divisors(self.reps[i], self.divs[:, i])
        return self.reps[d]

    def share(self) -> "_Layer":
        """A layer with this one's rows that a closure may grow apart from it.
        Its arrays are views of exactly dim rows, so the first row it gains
        resizes them into new arrays before anything is written, and this
        layer never changes."""
        out = _Layer.__new__(_Layer)
        d = out.dim = self.dim
        out.rows, out.pivots, out.leaves = self.rows[:d], self.pivots[:d], self.leaves[:d]
        out.reps, out.divs = self.reps[:d], self.divs[:, :d]
        out.below, out.steps = self.below, None
        return out


def _fit(a: np.ndarray, size: int, keep: int) -> np.ndarray:
    """A new array like a with `size` rows, the first `keep` copied from a."""
    out = np.empty((size, *a.shape[1:]), a.dtype)
    out[:keep] = a[:keep]
    return out


def _divisors(rep: np.ndarray, out: np.ndarray) -> None:
    """Write rep raised to -1, -2, ..., -(p-1) into the p-1 rows of out."""
    out[0][rep] = np.arange(len(rep))
    for c in range(1, len(out)):
        out[c] = out[0][out[c - 1]]


class _Layers:
    """The layers of one subgroup of W_N.  Layers are shared with the
    suffixes handed out as level stabilizers and never change once built."""

    __slots__ = ("tree", "levels")

    def __init__(self, tree: _Tree, levels=None):
        self.tree = tree
        self.levels = levels or [_Layer(tree, m) for m in range(tree.depth)]

    def dimensions(self) -> list[int]:
        return [lvl.dim for lvl in self.levels]

    def truncate(self, m: int) -> "_Layers":
        """Layers of the level-m quotient, 1 <= m < depth: levels 0..m-2
        share rows and pivots and restrict their representatives and
        divisors, level m-1 keeps its rows only, and every level reads its
        leaves on the smaller tree; see Quotients in the module docstring."""
        tree = _Tree(self.tree.p, m)
        step = self.tree.p ** (self.tree.depth - m)
        levels = []
        for k, lvl in enumerate(self.levels[:m]):
            out = _Layer(tree, k)
            out.rows, out.pivots, out.dim = lvl.rows, lvl.pivots, lvl.dim
            out.leaves = lvl.pivots[: lvl.dim] * out.below
            if k < m - 1:
                out.reps = lvl.reps[: lvl.dim, ::step] // step
                out.divs = lvl.divs[:, : lvl.dim, ::step] // step
            levels.append(out)
        return _Layers(tree, levels)

    def suffix(self, m: int) -> "_Layers":
        empty = [_Layer(self.tree, k) for k in range(m)]
        return _Layers(self.tree, empty + self.levels[m:])

    def representatives(self, start: int):
        """Representatives from level start on, level by level, in the order
        they were found."""
        for lvl in self.levels[start:-1]:
            yield from lvl.reps[: lvl.dim]
        last = self.levels[-1]
        for row in last.rows[: last.dim]:
            yield self.tree.from_last_labels(row.astype(np.intp))

    # -- reduction -----------------------------------------------------------

    def _exponents(self, x: np.ndarray, m: int) -> np.ndarray:
        lvl = self.levels[m]
        return self.tree.digits[m][x[lvl.leaves[: lvl.dim]]]

    def _divide(self, x: np.ndarray, m: int) -> np.ndarray:
        lvl = self.levels[m]
        if lvl.dim:
            if lvl.steps is None:
                lvl.steps = [list(plane) for plane in lvl.divs]
            for j, k in enumerate(self._exponents(x, m).tolist()):
                if k:
                    x = lvl.steps[k - 1][j][x]
        return x

    def contains(self, x: np.ndarray) -> bool:
        """Divide x level by level and compare what is left with the element
        of the last layer whose exponents it shows; a level with no rows
        refuses x at once if x has non-zero labels there."""
        tree = self.tree
        last = tree.depth - 1
        for m, lvl in enumerate(self.levels[:last]):
            if lvl.dim:
                x = self._divide(x, m)
            elif np.count_nonzero(tree.digits[m][x[tree.starts[m]]]):
                return False
        lvl = self.levels[last]
        # exact unreduced (Exact in float32); from_last_labels reduces mod p
        u = self._exponents(x, last) @ lvl.rows[: lvl.dim]
        return bool((x == tree.from_last_labels(u.astype(np.intp))).all())

    def _sift_upper(self, x: np.ndarray, start: int):
        """Sift an element of st(start) & W_N through the levels above the
        last: (level, element, labels) of the first non-zero residual there,
        else (last level, element, its level-(N-1) labels).  Reads only the
        layers above the last."""
        tree = self.tree
        last = tree.depth - 1
        for m in range(start, last):
            x = self._divide(x, m)
            r = tree.digits[m][x[tree.starts[m]]]
            if np.count_nonzero(r):
                return m, x, r
        return last, x, tree.digits[last][x[tree.starts[last]]]

    def _admit(self, m: int, x, residual: np.ndarray):
        """Add the residual as row d at a level m below the last, with its
        representative and divisors.  Returns d and the hits to pass to
        _Layer.push; until then the older representatives are as they were
        before."""
        lvl = self.levels[m]
        scale, hits = lvl.add(residual, self.tree.p)
        d = lvl.dim - 1
        lvl.reps[d] = _power(x, scale)
        _divisors(lvl.reps[d], lvl.divs[:, d])
        return d, hits


def _close(tree: _Tree, seeds, conj_by, start: _Layers | None = None):
    """Layers of the closure of the seeds under conjugation by conj_by, and
    the seeds and conjugates that left a residual, each paired with the
    level of its residual: a generating set when there is no start.  A
    start is the layers of a subgroup normalized by conj_by and contained in
    the result; the closure grows from a share of them (Warm start in the
    module docstring)."""
    layers = _Layers(tree, None if start is None else [lvl.share() for lvl in start.levels])
    p = tree.p
    last = tree.depth - 1
    bottom = layers.levels[last]
    conj = [(y, _inverse(y)) for y in conj_by]
    pulls = np.array([tree.pull(yinv) for _, yinv in conj], dtype=np.intp)
    # (element, level its sift starts at, None), or (labels, None, None) for
    # a stack of elements of st(N-1) given by their level-(N-1) labels, one
    # per row; (representative, level, (s, s^-1)) stands for the conjugate
    # s^-1 rep s, made when it is taken from the queue
    main = deque((x, 0, None) for x in seeds)
    side: deque = deque()
    found = []
    # stacks of level-(N-1) labels waiting for the last layer, in queue
    # order, each tagged (from main, the element sifted or None for a
    # stack of label items), and the length of the run after each
    run, tags, ends = [], [], []

    def flush():
        u = np.concatenate(run)
        # the stacks are copied into u; let them go before the product
        run.clear()
        added, rows = bottom.extend(u, p)
        if added:
            owners = [tags[s] for s in np.searchsorted(ends, added, side="right").tolist()]
            # a label item that left a residual stands for the element of
            # st(N-1) its labels determine
            items = [i for i, (from_main, x) in zip(added, owners) if from_main and x is None]
            made = iter(tree.from_last_labels(u[items]) if items else ())
            for from_main, x in owners:
                if from_main:
                    found.append((next(made) if x is None else x, last))
            # the conjugates of each new row as it was added, row by row
            stack = rows.astype(tree.digits[-1].dtype)[:, pulls]
            main.append((stack.reshape(-1, u.shape[1]), None, None))
        tags.clear()
        ends.clear()

    def adjoin(m, y, residual):
        lvl = layers.levels[m]
        d, hits = layers._admit(m, y, residual)
        rep = lvl.reps[d]
        # the p-th power, and the commutators with the peers as they were
        # before push clears the new pivot out of them
        comm = rep, lvl.divs[0, d], lvl.reps[:d], lvl.divs[0, :d]
        if m + 1 < last:
            side.append((_power(rep, p), m + 1, None))
            side.extend((c, m + 1, None) for c in _comm_rows(*comm, slice(None)))
        else:
            labels = tree.digits[-1][_comm_rows(*comm, tree.starts[-1])]
            side.append((np.vstack((tree.power_labels(rep), labels)), None, None))
        lvl.push(hits)
        # push rewrites older representatives in place, and this one once a
        # later row clears its pivot: its conjugates are made, when taken
        # from the queue, from a copy of it as it is now
        rep = rep.copy()
        main.extend((rep, m, by) for by in conj)

    while side or main:
        from_main = not side
        x, start, by = (main if from_main else side).popleft()
        if by is not None:
            x = _conj(x, *by)
        if start is None:
            labels, x = x, None
        else:
            m, y, labels = layers._sift_upper(x, start)
            if m < last:
                # one at a time, the run's bottom rows and their conjugates
                # come before this residual and its consequences
                if run:
                    flush()
                if from_main:
                    found.append((x, m))
                adjoin(m, y, labels)
                continue
            labels = labels[None]
        # a stack joins the run whole, so a run may pass _RUN by one stack
        run.append(labels)
        tags.append((from_main, x))
        ends.append(len(labels) + (ends[-1] if ends else 0))
        if ends[-1] >= _RUN or not (side or main):
            flush()
    # a finished group holds no room it never filled
    for lvl in layers.levels:
        if len(lvl.rows) > lvl.dim:
            lvl.resize(lvl.dim)
    return layers, found


class Origin(NamedTuple):
    """How a handle was made (module docstring, Normal generators): the
    group it was closed in, or None (a handle keeps no subgroup, so no
    cycle); elements whose closure under that group's generators it is;
    each generator's residual level, None when all were given by hand."""

    ambient: PermGroup | None = None
    elements: tuple = ()
    levels: tuple | None = None


class PermGroup:
    """Subgroup of W_N, acting on its p**N leaves, with exact order and
    membership.

    The layers are built lazily on first use, from the derived subgroup's
    when derived() ran first; handles are immutable once constructed, apart
    from that start, and safe to share.
    """

    def __init__(self, degree: int, generators, prime: int):
        if degree < prime:
            raise ValueError(f"degree {degree} is below the prime {prime}: no tree level")
        tree = _Tree(int(prime), level_of_degree(int(degree), int(prime)))
        gens = []
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator of degree {g.degree} in a degree-{degree} group"
                )
            gens.append(g)
        if not all(tree.in_wreath(g.images) for g in gens):
            raise NotPGroup("a generator is not a tree automorphism with cyclic vertex labels")
        self._setup(tree, gens, None, Origin())

    def _setup(self, tree: _Tree, generators, layers, origin: Origin) -> None:
        self.degree, self.prime, self._tree = len(tree.identity), tree.p, tree
        self.generators: tuple[Perm, ...] = tuple(generators)
        self._chain: _Layers | None = layers
        self.origin = origin
        # the layers of a normal subgroup to grow this group's from, until
        # they are built; derived() sets it
        self._start: _Layers | None = None

    def _built(self, generators, layers, origin: Origin = Origin()) -> "PermGroup":
        """A handle on the tree of the given layers, already built, made as
        origin records."""
        obj = PermGroup.__new__(PermGroup)
        obj._setup(layers.tree, generators, layers, origin)
        return obj

    # -- layers and order ----------------------------------------------------

    @property
    def chain(self) -> _Layers:
        if self._chain is None:
            gens = [g.images for g in self.generators]
            self._chain, _ = _close(self._tree, gens, gens, self._start)
            self._start = None
        return self._chain

    @property
    def order_exponent(self) -> int:
        return sum(self.chain.dimensions())

    @property
    def level(self) -> int:
        return self._tree.depth

    # -- membership ---------------------------------------------------------

    def contains(self, x: Perm) -> bool:
        if x.degree != self.degree:
            raise DegreeMismatch("element degree differs from the group degree")
        return self.chain.contains(x.images)

    def containment_witness(self, other: "PermGroup"):
        """First generator of `other` outside self, or None when contained.

        None at once, with no sift, when `other` is self or was closed in
        self: it is then the closure, under self's generators, of elements
        of self.  When `other` was closed from elements E in an ambient A,
        and self is A or was closed in A too, only E is sifted: self is then
        invariant under A's generators, so it holds the closure `other` of E
        exactly when it holds E.  The first element of E outside self is
        then the first seed outside it, the first generator outside it of
        the cold closure of those seeds (Containment in the module
        docstring)."""
        if other.degree != self.degree:
            raise DegreeMismatch("groups act on different point sets")
        if other is self or other.origin.ambient is self:
            return None
        for g in _normal_generators(other, (self, self.origin.ambient)):
            if not self.contains(g):
                return g
        return None

    # -- derived machinery --------------------------------------------------

    def derived(self) -> "PermGroup":
        """The derived subgroup: the normal closure of the commutators of
        the generators.  They lie in this group by construction, so they are
        not sifted, and the closure needs none of this group's layers.  While
        those are unbuilt, they will grow from the derived subgroup's, which
        is normal and contained in this group (Warm start in the module
        docstring).  Each call runs a new closure; a handle keeps no
        subgroup, and GroupSession.derived() is the one that is remembered."""
        d = _normal_closure(self, _commutators(combinations(self.generators, 2)))
        if self._chain is None:
            self._start = d.chain
        return d

    def truncate(self, m: int) -> "PermGroup":
        """The level-m quotient, 1 <= m <= level: this group acting on the
        level-m vertices, with layers read off this group's and no closure.
        Its generators are the restrictions of this group's, less those a
        closure found at level m or below; see Quotients in the module
        docstring."""
        m, n = operator.index(m), self.level
        if not 1 <= m <= n:
            raise ValueError(f"level {m} outside 1..{n}")
        if m == n:
            return self
        gens, levels = self.generators, self.origin.levels
        if levels is not None:
            kept = [i for i, k in enumerate(levels) if k < m]
            gens, levels = [gens[i] for i in kept], tuple(levels[i] for i in kept)
        step = self.prime ** (n - m)
        images = np.array([g.images for g in gens], dtype=np.intp).reshape(-1, self.degree)
        restricted = [Perm._wrap(x) for x in images[:, ::step] // step]
        return self._built(restricted, self.chain.truncate(m), Origin(levels=levels))

    # -- level stabilizers ----------------------------------------------------

    def level_stabilizer(self, m: int) -> "PermGroup":
        """Kernel of the induced action on the level-m vertices: the layers
        from m on, generated by their representatives."""
        m, n = operator.index(m), self.level
        if not 0 <= m <= n:
            raise ValueError(f"level {m} outside 0..{n}")
        if m == 0:
            return self
        layers = self.chain.suffix(m)
        return self._built([Perm._wrap(r) for r in layers.representatives(m)], layers)

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


def _normal_generators(group: PermGroup, ambients) -> tuple:
    """The elements of `group`'s origin, when its ambient is one of the
    ambients and not None (a group closed in nothing matches none), else the
    generators of `group`."""
    ambient, elements, _ = group.origin
    if ambient is not None and any(ambient is a for a in ambients):
        return elements
    return group.generators


def _commutators(pairs) -> list[Perm]:
    """The non-trivial commutators [x, y] of the pairs."""
    comms = (commutator(x, y) for x, y in pairs)
    return [c for c in comms if not c.is_identity()]


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
    return _normal_closure(ambient, seeds)


def _normal_closure(ambient: PermGroup, seeds, start: PermGroup | None = None) -> PermGroup:
    """normal_closure of seeds known to lie in the ambient group, which are
    not sifted.  A start is a subgroup normal in the ambient group that lies
    in the result; the closure grows from its layers (Warm start), its
    generators and their levels come first, and every seed is recorded as a
    normal generator (Normal generators in the module docstring)."""
    layers, found = _close(
        ambient._tree,
        [e.images for e in seeds],
        [g.images for g in ambient.generators],
        None if start is None else start.chain,
    )
    gens = [Perm._wrap(a) for a, _ in found]
    levels = tuple(k for _, k in found)
    if start is not None:
        # generators given by hand are kept by every truncation, as level 0
        before = start.origin.levels or (0,) * len(start.generators)
        origin = Origin(ambient, tuple(seeds), before + levels)
        return ambient._built([*start.generators, *gens], layers, origin)
    # the seeds that left a residual are found's prefix, the very arrays
    # handed in; they alone close to the result (Normal generators)
    kept = []
    for e in seeds:
        if len(kept) < len(found) and found[len(kept)][0] is e.images:
            kept.append(e)
    return ambient._built(gens, layers, Origin(ambient, tuple(kept), levels))


def commutator_subgroup(
    a: PermGroup, b: PermGroup, ambient: PermGroup, start: PermGroup | None = None
) -> PermGroup:
    """Normal closure in the ambient group of the commutators [s, y], with s
    running over normal generators of `a` in the ambient group (the seeds
    that left a residual when `a` was closed, or those its maker recorded;
    else its generators) and y over the generators of `b`.  That is [a, b]
    whenever both are normal in the ambient group: modulo the closure each s
    centralizes b, and so does each conjugate of s, since b is normal, and
    the conjugates of the s generate `a`.

    A start is a subgroup normal in the ambient group that lies in [a, b];
    the closure then grows from its layers (Warm start in the module
    docstring).  The commutators lie in the ambient group once a and b do,
    so a warm closure sifts none of them; a cold one closes through
    normal_closure."""
    for sub in (a, b):
        w = ambient.containment_witness(sub)
        if w is not None:
            raise ElementNotInAmbient(
                "commutator arguments must be subgroups of the ambient group"
            )
    seeds = _commutators(product(_normal_generators(a, (ambient,)), b.generators))
    if start is None:
        # looked up on the module, so a tracer that wraps it counts this
        return normal_closure(ambient, seeds)
    return _normal_closure(ambient, seeds, start)
