"""Exact stabilizer chains for finite p-subgroups of Sym(p**N).

The base is the full point sequence 0 < 1 < 2 < ...; a chain level is
materialized only at points some strong generator actually moves.  Strong
generators carry the half-open point range (low, first_moved] of levels whose
generating sets they join, following the incremental deterministic
Schreier-Sims scheme: a residue discovered while verifying the level at point
q is assigned the range (q, first_moved(residue)].

For a complete chain the strong generators whose first moved point is >= q
generate the pointwise stabilizer of {0, ..., q-1}.  PermGroup.level_stabilizer
extracts level stabilizers of the tree action that way from a chain over the
block-plus-leaf action, where the p**m level blocks precede the leaves in the
point order.  That extended chain is built nowhere else: the verification
checks decide the containments st(m) <= H by orders of level images and
generate st(1) from conjugates of the directed generators (see checks).

Everything here is deterministic: orbits grow in FIFO order, generators are
processed in insertion order, and each Schreier pair is sifted exactly once.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .portraits import DegreeMismatch, Perm, level_of_degree

__all__ = [
    "NotPGroup",
    "ElementNotInAmbient",
    "PermGroup",
    "generate",
    "is_subgroup",
    "equals",
    "normal_closure",
    "commutator_subgroup",
]


class NotPGroup(ValueError):
    """Orbit structure incompatible with a p-group."""


class ElementNotInAmbient(ValueError):
    """A seed element lies outside the ambient group."""


_RANGES: dict[int, np.ndarray] = {}


def _arange(n: int) -> np.ndarray:
    r = _RANGES.get(n)
    if r is None:
        r = np.arange(n, dtype=np.intp)
        r.setflags(write=False)
        _RANGES[n] = r
    return r


def _inverse(arr: np.ndarray) -> np.ndarray:
    inv = np.empty_like(arr)
    inv[arr] = _arange(len(arr))
    return inv


def _first_moved(arr: np.ndarray):
    mask = arr != _arange(len(arr))
    k = int(mask.argmax())  # the first True, or 0 when none
    return k if mask[k] else None


def _comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x^-1 y^-1 x y, composed left to right
    return y[x[_inverse(y)[_inverse(x)]]]


def _conj(w: np.ndarray, s: np.ndarray, sinv: np.ndarray) -> np.ndarray:
    # s^-1 w s
    return s[w[sinv]]


class _Level:
    __slots__ = ("point", "gens", "orbit_list", "u", "uinv", "row_done")

    def __init__(self, point: int, degree: int):
        idn = _arange(degree)
        self.point = point
        self.gens: list[np.ndarray] = []
        self.orbit_list: list[int] = [point]
        self.u: dict[int, np.ndarray] = {point: idn}
        self.uinv: dict[int, np.ndarray] = {point: idn}
        self.row_done: list[int] = [0]

    def pending(self) -> bool:
        ng = len(self.gens)
        return any(d < ng for d in self.row_done)


class _Chain:
    __slots__ = ("degree", "levels", "points", "strong", "strong_low", "strong_fm")

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self.points: list[int] = []
        self.strong: list[np.ndarray] = []
        self.strong_low: list[int] = []
        self.strong_fm: list[int] = []

    # -- membership ---------------------------------------------------------

    def sift(self, arr: np.ndarray):
        """Reduce through the chain; None means membership.

        The transversal element divided out at point q fixes every point
        below q and maps the image of q back to q, so the residue fixes all
        points <= q and the next scan starts at q + 1.
        """
        idn = _arange(self.degree)
        points = self.points
        cur = arr
        q = 0
        while True:
            mask = cur[q:] != idn[q:]
            k = int(mask.argmax())  # the first True, or 0 when none
            if not mask[k]:
                return None
            q += k
            i = bisect_left(points, q)
            if i == len(points) or points[i] != q:
                return cur
            uinv = self.levels[i].uinv.get(int(cur[q]))
            if uinv is None:
                return cur
            cur = uinv[cur]
            q += 1

    # -- construction -------------------------------------------------------

    def add_generator(self, arr: np.ndarray, sift_first: bool = True) -> bool:
        """Adjoin an element; returns True when the group grows."""
        if sift_first:
            res = self.sift(arr)
            if res is None:
                return False
            arr = res
        elif _first_moved(arr) is None:
            return False
        self._insert_strong(arr, -1)
        self._complete()
        return True

    def _level_index(self, point: int) -> int:
        return bisect_left(self.points, point)

    def _ensure_level(self, point: int) -> _Level:
        i = self._level_index(point)
        if i < len(self.points) and self.points[i] == point:
            return self.levels[i]
        lvl = _Level(point, self.degree)
        self.levels.insert(i, lvl)
        self.points.insert(i, point)
        gens = [
            self.strong[k]
            for k in range(len(self.strong))
            if self.strong_low[k] < point <= self.strong_fm[k]
        ]
        if gens:
            lvl.gens.extend(gens)
            self._extend_orbit(lvl, list(lvl.orbit_list))
        return lvl

    def _insert_strong(self, arr: np.ndarray, low: int) -> int:
        """Record a strong generator; returns the point of its home level."""
        fm = _first_moved(arr)
        self.strong.append(arr)
        self.strong_low.append(low)
        self.strong_fm.append(fm)
        home_missing = self._level_index(fm) >= len(self.points) or (
            self.points[self._level_index(fm)] != fm
        )
        if home_missing:
            self._ensure_level(fm)  # picks the new generator up via its range
        else:
            self._level_add_gen(self.levels[self._level_index(fm)], arr)
        lo = self._level_index(low) if low >= 0 else 0
        while lo < len(self.points) and self.points[lo] <= low:
            lo += 1
        hi = self._level_index(fm)
        for i in range(lo, hi):
            self._level_add_gen(self.levels[i], arr)
        return fm

    def _level_add_gen(self, lvl: _Level, arr: np.ndarray) -> None:
        lvl.gens.append(arr)
        frontier = []
        for x in list(lvl.orbit_list):
            y = int(arr[x])
            if y not in lvl.u:
                self._orbit_add(lvl, y, arr[lvl.u[x]])
                frontier.append(y)
        self._extend_orbit(lvl, frontier)

    def _orbit_add(self, lvl: _Level, y: int, uy: np.ndarray) -> None:
        lvl.u[y] = uy
        lvl.uinv[y] = _inverse(uy)
        lvl.orbit_list.append(y)
        lvl.row_done.append(0)

    def _extend_orbit(self, lvl: _Level, frontier: list[int]) -> None:
        qi = 0
        while qi < len(frontier):
            x = frontier[qi]
            qi += 1
            ux = lvl.u[x]
            for s in lvl.gens:
                y = int(s[x])
                if y not in lvl.u:
                    self._orbit_add(lvl, y, s[ux])
                    frontier.append(y)

    def _complete(self) -> None:
        i = len(self.levels) - 1
        while i >= 0:
            failed_at = self._verify_level(self.levels[i])
            if failed_at is None:
                i -= 1
            else:
                i = self._level_index(failed_at)

    def _verify_level(self, lvl: _Level):
        """Sift unprocessed Schreier pairs; returns the home point of a new
        strong generator, or None when the level is clean."""
        oi = 0
        while oi < len(lvl.orbit_list):
            gi = lvl.row_done[oi]
            ng = len(lvl.gens)
            if gi < ng:
                x = lvl.orbit_list[oi]
                ux = lvl.u[x]
                while gi < ng:
                    s = lvl.gens[gi]
                    gi += 1
                    lvl.row_done[oi] = gi
                    t = s[ux]
                    z = lvl.uinv[int(s[x])][t]
                    res = self.sift(z)
                    if res is not None:
                        return self._insert_strong(res, lvl.point)
            oi += 1
        return None

    # -- reporting ----------------------------------------------------------

    def orbit_lengths(self) -> list[tuple[int, int]]:
        return [(lvl.point, len(lvl.orbit_list)) for lvl in self.levels]

    def stabilizer_generators(self, point: int) -> list[np.ndarray]:
        """Strong generators fixing every point below the given one."""
        return [
            self.strong[k]
            for k in range(len(self.strong))
            if self.strong_fm[k] >= point
        ]

    def restrict_suffix(self, offset: int) -> "_Chain":
        """Drop the first `offset` points from a chain whose suffix levels all
        fix them pointwise; yields a complete chain on the remaining points."""
        out = _Chain(self.degree - offset)
        for lvl in self.levels:
            if lvl.point < offset:
                continue
            new = _Level(lvl.point - offset, out.degree)
            new.gens = [g[offset:] - offset for g in lvl.gens]
            new.orbit_list = [x - offset for x in lvl.orbit_list]
            new.u = {x - offset: u[offset:] - offset for x, u in lvl.u.items()}
            new.uinv = {x - offset: u[offset:] - offset for x, u in lvl.uinv.items()}
            new.row_done = [len(new.gens)] * len(new.orbit_list)
            out.levels.append(new)
            out.points.append(new.point)
        for k in range(len(self.strong)):
            if self.strong_fm[k] >= offset:
                out.strong.append(self.strong[k][offset:] - offset)
                out.strong_low.append(max(self.strong_low[k] - offset, -1))
                out.strong_fm.append(self.strong_fm[k] - offset)
        return out


def _p_exponent(n: int, p: int) -> int:
    e = 0
    while n % p == 0 and n > 1:
        n //= p
        e += 1
    if n != 1:
        raise NotPGroup(f"orbit length {n * p**e} is not a power of {p}")
    return e


class PermGroup:
    """Subgroup of Sym(degree) with exact order and membership.

    The stabilizer chain is built lazily on first use; handles are immutable
    once constructed and safe to share.
    """

    def __init__(self, degree: int, generators, prime: int | None = None):
        gens = []
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator of degree {g.degree} in a degree-{degree} group"
                )
            gens.append(g)
        self.degree = int(degree)
        self.generators: tuple[Perm, ...] = tuple(gens)
        self.prime = self._infer_prime(prime)
        self._chain: _Chain | None = None
        self._exp: int | None = None
        self._derived = None
        self._frattini = None
        self._stabilizers: dict[int, "PermGroup"] = {}

    def _infer_prime(self, prime):
        if prime is not None:
            if self.degree > 1:
                level_of_degree(self.degree, prime)
            return int(prime)
        if self.degree == 1:
            return None
        n = self.degree
        p = 2
        while n % p:
            p += 1
        level_of_degree(self.degree, p)
        return p

    @classmethod
    def _from_chain(cls, degree, generators, prime, chain) -> "PermGroup":
        obj = cls.__new__(cls)
        obj.degree = degree
        obj.generators = tuple(generators)
        obj.prime = prime
        obj._chain = chain
        obj._exp = None
        obj._derived = None
        obj._frattini = None
        obj._stabilizers = {}
        obj._validate_orbits()
        return obj

    # -- chain and order ----------------------------------------------------

    @property
    def chain(self) -> _Chain:
        if self._chain is None:
            ch = _Chain(self.degree)
            for g in self.generators:
                ch.add_generator(g.images)
            self._chain = ch
            self._validate_orbits()
        return self._chain

    def _validate_orbits(self) -> None:
        exp = 0
        for _, size in self._chain.orbit_lengths():
            exp += _p_exponent(size, self.prime) if self.prime else 0
            if self.prime is None and size != 1:
                raise NotPGroup("nontrivial group needs a prime")
        self._exp = exp

    @property
    def order_exponent(self) -> int:
        if self._exp is None:
            self.chain
        return self._exp

    @property
    def order(self) -> int:
        return (self.prime or 1) ** self.order_exponent

    @property
    def level(self) -> int:
        return level_of_degree(self.degree, self.prime) if self.degree > 1 else 0

    def is_trivial(self) -> bool:
        return self.order_exponent == 0

    # -- membership ---------------------------------------------------------

    def sift(self, x: Perm) -> Perm:
        if x.degree != self.degree:
            raise DegreeMismatch("element degree differs from the group degree")
        res = self.chain.sift(x.images)
        return Perm.identity(self.degree) if res is None else Perm._wrap(res.copy())

    def contains(self, x: Perm) -> bool:
        if x.degree != self.degree:
            raise DegreeMismatch("element degree differs from the group degree")
        return self.chain.sift(x.images) is None

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
            seeds = _pair_commutators(self.generators)
            self._derived = normal_closure(self, seeds)
        return self._derived

    def frattini(self) -> "PermGroup":
        """Smallest normal subgroup with elementary abelian quotient
        (commutators plus p-th powers of the generators, closed up)."""
        if self._frattini is None:
            p = self.prime
            seeds = _pair_commutators(self.generators)
            for g in self.generators:
                seeds.append(g**p)
            self._frattini = normal_closure(self, seeds)
        return self._frattini

    def rank(self) -> int:
        """Minimal number of generators, by the Burnside basis theorem."""
        return self.order_exponent - self.frattini().order_exponent

    # -- level stabilizers ----------------------------------------------------

    def level_stabilizer(self, m: int) -> "PermGroup":
        """Kernel of the induced action on the level-m vertices."""
        p = self.prime
        n = self.level
        if not 0 <= m <= n:
            raise ValueError(f"level {m} outside 0..{n}")
        if m == 0:
            return self
        got = self._stabilizers.get(m)
        if got is not None:
            return got
        if m == n:
            kern = PermGroup(self.degree, [], prime=p)
        else:
            kern = self._kernel_of_block_action(m)
        self._stabilizers[m] = kern
        return kern

    def _kernel_of_block_action(self, m: int) -> "PermGroup":
        p = self.prime
        n = self.level
        nb = p**m
        bs = p ** (n - m)
        ext = _Chain(nb + self.degree)
        for g in self.generators:
            arr = g.images
            blocks = arr.reshape(nb, bs) // bs
            heads = blocks[:, 0]
            if not (blocks == heads[:, None]).all():
                raise ValueError("a generator does not preserve the level blocks")
            ext.add_generator(np.concatenate([heads, arr + nb]))
        image_exp = 0
        for point, size in ext.orbit_lengths():
            if point < nb:
                image_exp += _p_exponent(size, p)
        kern_gens = [
            Perm._wrap(s[nb:] - nb) for s in ext.stabilizer_generators(nb)
        ]
        kern = PermGroup._from_chain(
            self.degree, kern_gens, p, ext.restrict_suffix(nb)
        )
        total = image_exp + kern.order_exponent
        if self._exp is None:
            self._exp = total  # the extended action is faithful on the leaves
        elif self._exp != total:
            raise AssertionError(
                "index times kernel order disagrees with the group order"
            )
        return kern

    # -- reporting ------------------------------------------------------------

    def chain_summary(self) -> dict:
        orbits = self.chain.orbit_lengths()
        return {
            "degree": self.degree,
            "prime": self.prime,
            "order_exponent": self.order_exponent,
            "base_points": [pt for pt, _ in orbits],
            "orbit_lengths": [size for _, size in orbits],
            "strong_generator_count": len(self.chain.strong),
        }

    def strong_generators(self) -> list[Perm]:
        return [Perm._wrap(a.copy()) for a in self.chain.strong]

    def __repr__(self):
        built = self._exp is not None
        size = f"order {self.prime}^{self._exp}" if built else "chain not built"
        return f"<PermGroup degree={self.degree} gens={len(self.generators)} {size}>"


def _pair_commutators(gens) -> list[Perm]:
    out = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = _comm(gens[i].images, gens[j].images)
            if _first_moved(c) is not None:
                out.append(Perm._wrap(c))
    return out


def generate(degree: int, gens, prime: int | None = None) -> PermGroup:
    """Build a handle with a verified deterministic stabilizer chain."""
    g = PermGroup(degree, gens, prime=prime)
    g.chain
    return g


def is_subgroup(h: PermGroup, g: PermGroup) -> bool:
    """True when every generator of h lies in g."""
    return g.contains_subgroup(h)


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
        seeds.append(e.images)
    ch = _Chain(ambient.degree)
    work: list[np.ndarray] = []
    for arr in seeds:
        if ch.add_generator(arr):
            work.append(arr)
    conj_by = [(g.images, _inverse(g.images)) for g in ambient.generators]
    qi = 0
    while qi < len(work):
        w = work[qi]
        qi += 1
        for s, sinv in conj_by:
            c = _conj(w, s, sinv)
            if ch.add_generator(c):
                work.append(c)
    gens = [Perm._wrap(a) for a in work]
    return PermGroup._from_chain(ambient.degree, gens, ambient.prime, ch)


def commutator_subgroup(a: PermGroup, b: PermGroup, ambient: PermGroup) -> PermGroup:
    """Normal closure in the ambient group of the pairwise generator
    commutators; equals [a, b] whenever both arguments are normal in it."""
    for sub in (a, b):
        w = ambient.containment_witness(sub)
        if w is not None:
            raise ElementNotInAmbient(
                "commutator arguments must be subgroups of the ambient group"
            )
    if a is b:
        seeds = _pair_commutators(a.generators)
    else:
        seeds = []
        for x in a.generators:
            for y in b.generators:
                c = _comm(x.images, y.images)
                if _first_moved(c) is not None:
                    seeds.append(Perm._wrap(c))
    return normal_closure(ambient, seeds)
