"""Leaf permutations of the p-regular rooted tree, and the generator portraits.

Level-m vertices are words of m digits in {0, ..., p-1}, indexed by their
base-p value with the most significant digit first, so the subtree below a
vertex occupies a contiguous index block at every deeper level.  Elements are
Perms of the leaves; products compose left to right: (f * g) sends a leaf x
to g(f(x)).  The block helpers read and write the action below one vertex.

A depth-N portrait stores a permutation of the p first-level subtrees plus p
child portraits of depth N-1; depth 0 is the identity leaf.  Portraits only
construct the generators (rooted, directed) and turn them into Perms.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegreeMismatch",
    "Perm",
    "Automorphism",
    "identity",
    "rooted",
    "directed",
    "embed_at_vertex",
    "commutator",
    "vertex_index",
    "vertex_word",
    "is_odd_prime",
    "level_of_degree",
    "restrict_to_level",
    "subtree_section",
    "subtree_embed",
]


class DegreeMismatch(ValueError):
    """Operands live on different point sets."""


def is_odd_prime(n: int) -> bool:
    """Deterministic trial division; arities here are single digits."""
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Perm:
    """Permutation of {0, ..., n-1} stored as its image array.

    Products act left to right: (p * q)(x) = q(p(x)).
    """

    __slots__ = ("images", "_key")

    def __init__(self, images):
        arr = np.array(images, dtype=np.intp)
        if arr.ndim != 1:
            raise ValueError("images must be a flat sequence")
        n = arr.shape[0]
        if n and (
            arr.min() < 0 or arr.max() >= n or np.bincount(arr, minlength=n).max() > 1
        ):
            raise ValueError("images do not form a permutation of 0..n-1")
        arr.setflags(write=False)
        self.images = arr
        self._key = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Perm":
        # arr must already be a valid intp image array; takes ownership
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj.images = arr
        obj._key = None
        return obj

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls._wrap(np.arange(n, dtype=np.intp))

    @property
    def degree(self) -> int:
        return int(self.images.shape[0])

    def __mul__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatch(
                f"cannot compose degree {self.degree} with degree {other.degree}"
            )
        return Perm._wrap(other.images[self.images])

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "Perm":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.degree, dtype=np.intp)
        return Perm._wrap(inv)

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.degree)))

    def tolist(self) -> list[int]:
        return [int(x) for x in self.images]

    def _bytes(self) -> bytes:
        if self._key is None:
            self._key = self.images.tobytes()
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Perm):
            return NotImplemented
        return self.degree == other.degree and self._bytes() == other._bytes()

    def __hash__(self):
        return hash((self.degree, self._bytes()))

    def __repr__(self):
        if self.degree <= 16:
            return f"Perm({self.tolist()})"
        return f"<Perm degree={self.degree}>"


def vertex_index(word, p: int) -> int:
    """Base-p value of a digit word, most significant digit first."""
    k = 0
    for d in word:
        d = int(d)
        if not 0 <= d < p:
            raise ValueError(f"digit {d} out of range for arity {p}")
        k = k * p + d
    return k


def vertex_word(index: int, level: int, p: int) -> tuple[int, ...]:
    """Inverse of vertex_index at a fixed level."""
    if not 0 <= index < p**level:
        raise ValueError(f"index {index} out of range for level {level}")
    digits = []
    for _ in range(level):
        digits.append(index % p)
        index //= p
    return tuple(reversed(digits))


class Automorphism:
    """Portrait of a tree automorphism, truncated at a fixed depth.

    Built only by identity, rooted, directed and embed_at_vertex, which pass
    valid parts; sub-portraits may be shared between values.
    """

    __slots__ = ("p", "depth", "root_perm", "children", "_ident")

    def __init__(self, p, depth, root_perm, children):
        self.p = p
        self.depth = depth
        self.root_perm = root_perm
        self.children = children
        self._ident = None

    def is_identity(self) -> bool:
        if self._ident is None:
            if self.root_perm != tuple(range(self.p)):
                self._ident = False
            else:
                self._ident = all(c.is_identity() for c in self.children)
        return self._ident

    def to_perm(self, level: int) -> Perm:
        """Induced permutation of the p**level vertices at the given level."""
        if level < 0 or level > self.depth:
            raise ValueError("level outside the portrait depth")
        return Perm._wrap(self._perm_array(level))

    def _perm_array(self, level: int) -> np.ndarray:
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
                self.root_perm[d] * block + self.children[d]._perm_array(level - 1)
            )
        return out


def identity(p: int, depth: int) -> Automorphism:
    """The trivial portrait of the given depth, one node per level shared by
    all p children."""
    if not is_odd_prime(p):
        raise ValueError(f"arity must be an odd prime, got {p}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    trivial = tuple(range(p))
    cur = Automorphism(p, 0, trivial, ())
    cur._ident = True
    for d in range(1, depth + 1):
        cur = Automorphism(p, d, trivial, (cur,) * p)
        cur._ident = True
    return cur


def rooted(p: int, depth: int, power: int = 1) -> Automorphism:
    """Power of the arity cycle: digit d goes to d + power at level 1."""
    if not is_odd_prime(p):
        raise ValueError(f"arity must be an odd prime, got {p}")
    if depth < 1:
        raise ValueError("rooted automorphisms need depth at least 1")
    power = power % p
    if power == 0:
        return identity(p, depth)
    root = tuple((d + power) % p for d in range(p))
    sub = identity(p, depth - 1)
    return Automorphism(p, depth, root, (sub,) * p)


def directed(spec, depth: int, i: int) -> Automorphism:
    """Directed generator number i of a defining-data object.

    Child j < p-1 acts as the cycle raised to the (j+1)-th vector entry; the
    last child repeats the generator one level down.  At depth 1 everything
    truncates away and the result is the identity.
    """
    p = spec.p
    vectors = spec.vectors
    if not 1 <= i <= len(vectors):
        raise ValueError(f"generator index {i} out of range 1..{len(vectors)}")
    if depth < 1:
        raise ValueError("directed generators need depth at least 1")
    vec = vectors[i - 1]
    trivial = tuple(range(p))
    cur = identity(p, 0)
    for d in range(1, depth + 1):
        if d == 1:
            kids = (identity(p, 0),) * p
        else:
            kids = tuple(rooted(p, d - 1, e) for e in vec) + (cur,)
        cur = Automorphism(p, d, trivial, kids)
    return cur


def embed_at_vertex(g: Automorphism, word, depth: int) -> Automorphism:
    """Act as g on the subtree at the given vertex, trivially elsewhere."""
    word = tuple(int(d) for d in word)
    if depth - len(word) != g.depth:
        raise ValueError(
            f"element of depth {g.depth} does not fit at a level-{len(word)} "
            f"vertex of a depth-{depth} tree"
        )
    if not word:
        return g
    d0 = word[0]
    if not 0 <= d0 < g.p:
        raise ValueError(f"digit {d0} out of range for arity {g.p}")
    sub = embed_at_vertex(g, word[1:], depth - 1)
    kids = tuple(
        sub if d == d0 else identity(g.p, depth - 1) for d in range(g.p)
    )
    return Automorphism(g.p, depth, tuple(range(g.p)), kids)


def commutator(f: Perm, g: Perm) -> Perm:
    """[f, g] = f^-1 g^-1 f g."""
    return f.inverse() * g.inverse() * f * g


def level_of_degree(degree: int, p: int) -> int:
    """The N with degree = p**N; rejects anything else."""
    n = 0
    d = 1
    while d < degree:
        d *= p
        n += 1
    if d != degree:
        raise ValueError(f"{degree} is not a power of {p}")
    return n


def restrict_to_level(perm: Perm, p: int, m: int) -> Perm:
    """Quotient a leaf permutation to its action on the level-m blocks."""
    n = level_of_degree(perm.degree, p)
    if not 0 <= m <= n:
        raise ValueError("level outside the leaf depth")
    bs = p ** (n - m)
    blocks = perm.images.reshape(p**m, bs) // bs
    heads = blocks[:, 0]
    if not (blocks == heads[:, None]).all():
        raise ValueError("permutation does not preserve the level blocks")
    return Perm(heads)


def subtree_section(perm: Perm, p: int, word) -> Perm:
    """Permutation induced on the leaf block below a vertex."""
    n = level_of_degree(perm.degree, p)
    word = tuple(int(d) for d in word)
    if len(word) > n:
        raise ValueError("vertex deeper than the leaf level")
    bs = p ** (n - len(word))
    start = vertex_index(word, p) * bs
    seg = perm.images[start : start + bs]
    target = int(seg[0]) // bs
    out = seg - target * bs
    if out.min() < 0 or out.max() >= bs:
        raise ValueError("permutation does not map the block onto a block")
    return Perm(out)


def subtree_embed(perm: Perm, p: int, word, level: int) -> Perm:
    """Inverse of subtree_section: act on one leaf block, fix the rest."""
    n = level
    word = tuple(int(d) for d in word)
    bs = p ** (n - len(word))
    if perm.degree != bs:
        raise ValueError(
            f"block of size {bs} cannot hold a permutation of degree {perm.degree}"
        )
    start = vertex_index(word, p) * bs
    out = np.arange(p**n, dtype=np.intp)
    out[start : start + bs] = start + perm.images
    return Perm._wrap(out)
