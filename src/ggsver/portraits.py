"""Leaf permutations of the p-regular rooted tree, and the generators.

Level-m vertices are words of m digits in {0, ..., p-1}, indexed by their
base-p value with the most significant digit first, so the subtree below a
vertex occupies a contiguous index block at every deeper level.  Elements are
Perms of the leaves; products compose left to right: (f * g) sends a leaf x
to g(f(x)).  The block helpers read and write the action below one vertex.

The generators are written down in closed form, as the images of the p**N
leaves of the depth-N tree: a adds 1 to the first digit, and b_i follows
its first-level rule psi(b_i) = (a^e_1, ..., a^e_(p-1), b_i) down the
rightmost path.  An Automorphism holds those images; to_perm restricts them
to a level.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "DegreeMismatch",
    "Perm",
    "Automorphism",
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
        arr = np.asarray(images)
        if arr.ndim != 1:
            raise ValueError("images must be a flat sequence")
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"images must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.intp)
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
    """Base-p value of a digit word, most significant digit first.  A digit
    that is no integer (a float such as 1.0 too) is refused with TypeError,
    not truncated."""
    k = 0
    for d in word:
        d = operator.index(d)
        if not 0 <= d < p:
            raise ValueError(f"digit {d} out of range for arity {p}")
        k = k * p + d
    return k


def vertex_word(index: int, level: int, p: int) -> tuple[int, ...]:
    """Inverse of vertex_index at a fixed level; index and level must be
    integers (TypeError otherwise)."""
    index, level = operator.index(index), operator.index(level)
    if level < 0 or not 0 <= index < p**level:
        raise ValueError(f"index {index} out of range for level {level}")
    digits = []
    for _ in range(level):
        digits.append(index % p)
        index //= p
    return tuple(reversed(digits))


class Automorphism:
    """A tree automorphism truncated at a fixed depth, as its leaf images.

    Built only by rooted, directed and embed_at_vertex; images is
    a read-only intp array of length p**depth.
    """

    __slots__ = ("p", "depth", "images")

    def __init__(self, p, depth, images):
        images.setflags(write=False)
        self.p = p
        self.depth = depth
        self.images = images

    def to_perm(self, level: int) -> Perm:
        """Induced permutation of the p**level vertices at the given level:
        the first leaf below a vertex lands in the block below its image."""
        if level < 0 or level > self.depth:
            raise ValueError("level outside the portrait depth")
        s = self.p ** (self.depth - level)
        return Perm._wrap(self.images[::s] // s)


def rooted(p: int, depth: int, power: int = 1) -> Automorphism:
    """Power of the arity cycle: digit d goes to d + power at level 1."""
    if not is_odd_prime(p):
        raise ValueError(f"arity must be an odd prime, got {p}")
    if depth < 1:
        raise ValueError("rooted automorphisms need depth at least 1")
    n = p**depth
    leaves = np.arange(n, dtype=np.intp)
    return Automorphism(p, depth, (leaves + power % p * (n // p)) % n)


def directed(spec, depth: int, i: int) -> Automorphism:
    """Directed generator number i of a defining-data object.

    psi(b_i) = (a^e_1, ..., a^e_(p-1), b_i): below each vertex (p-1)^k of
    the rightmost path, child j < p-1 turns its subtree by a^e_(j+1).  At
    depth 1 everything truncates away and the result is the identity.
    """
    p = spec.p
    if not 1 <= i <= len(spec.vectors):
        raise ValueError(f"generator index {i} out of range 1..{len(spec.vectors)}")
    if depth < 1:
        raise ValueError("directed generators need depth at least 1")
    out = np.arange(p**depth, dtype=np.intp)
    turns = np.array(spec.vectors[i - 1], dtype=np.intp)[:, None]
    for k in range(depth - 1):
        block = p ** (depth - k - 1)  # leaves below a child of (p-1)^k
        start = (p**k - 1) * p * block  # first leaf below (p-1)^k
        kids = out[start : start + (p - 1) * block].reshape(p - 1, block)
        kids[:] = (np.arange(block) + turns * (block // p)) % block
        kids += np.arange(start, start + (p - 1) * block, block)[:, None]
    return Automorphism(p, depth, out)


def embed_at_vertex(g: Automorphism, word, depth: int) -> Automorphism:
    """Act as g on the subtree at the given vertex, trivially elsewhere;
    subtree_embed refuses a g that does not fit there."""
    leaves = subtree_embed(g.to_perm(g.depth), g.p, word, depth)
    return Automorphism(g.p, depth, leaves.images)


def commutator(f: Perm, g: Perm) -> Perm:
    """[f, g] = f^-1 g^-1 f g, composed left to right.  It sends f(g(x)) to
    g(f(x)), so one scatter makes it, with no inverse."""
    fg, gf = f * g, g * f  # the products refuse a degree mismatch
    out = np.empty_like(fg.images)
    out[gf.images] = fg.images
    return Perm._wrap(out)


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
    word = tuple(word)  # vertex_index refuses a digit that is no integer
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
    n = operator.index(level)
    word = tuple(word)  # vertex_index refuses a digit that is no integer
    if len(word) > n:
        raise ValueError("vertex deeper than the leaf level")
    bs = p ** (n - len(word))
    if perm.degree != bs:
        raise ValueError(
            f"block of size {bs} cannot hold a permutation of degree {perm.degree}"
        )
    start = vertex_index(word, p) * bs
    out = np.arange(p**n, dtype=np.intp)
    out[start : start + bs] = start + perm.images
    return Perm._wrap(out)
