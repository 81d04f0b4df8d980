"""Defining data for multi-GGS groups and assembly of finite quotients.

A group in this family acts on the p-regular rooted tree (p an odd prime) and
is generated by the rooted cycle `a` together with r directed generators, one
per row of an r x (p-1) matrix over F_p whose rows must be linearly
independent.  Building at depth N yields the permutation group induced on the
p**N leaves, which is exactly the level-N quotient of the infinite group.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .portraits import directed, is_odd_prime, restrict_to_level, rooted
from .permgroups import PermGroup, commutator_subgroup

__all__ = [
    "SpecError",
    "NotPrime",
    "NotOdd",
    "BadLength",
    "DependentVectors",
    "NormalizationImpossible",
    "GGSSpec",
    "Normalization",
    "GroupSession",
    "validate",
    "is_constant",
    "is_symmetric",
    "normalize",
    "build",
    "DEGREE_CAP",
    "default_depth",
]

# Runs with more leaves need an opt-in.  5^5: every run measured at or under
# it took at most 36 s on 2 vCPU, and the defaults it allows run in seconds.
DEGREE_CAP = 3125


class SpecError(ValueError):
    """Defining data rejected; subclasses say why."""


class NotPrime(SpecError):
    pass


class NotOdd(SpecError):
    pass


class BadLength(SpecError):
    pass


class DependentVectors(SpecError):
    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = tuple(certificate)


class NormalizationImpossible(SpecError):
    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class GGSSpec:
    """Validated defining data: an odd prime and independent rows over F_p."""

    p: int
    vectors: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.vectors)


def _row_reduce(rows, p):
    """Gaussian elimination over F_p with a tracked transform.

    Returns (rank, echelon rows, transform); when some combination of the
    input rows vanishes, the transform row that produced it is a dependency
    certificate.
    """
    m = [list(row) for row in rows]
    r = len(m)
    width = len(m[0]) if r else 0
    t = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    rank = 0
    for col in range(width):
        pivot = None
        for i in range(rank, r):
            if m[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        t[rank], t[pivot] = t[pivot], t[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(inv * x) % p for x in m[rank]]
        t[rank] = [(inv * x) % p for x in t[rank]]
        for i in range(r):
            if i != rank and m[i][col] % p:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
                t[i] = [(x - f * y) % p for x, y in zip(t[i], t[rank])]
        rank += 1
    return rank, m, t


def validate(p, vectors) -> GGSSpec:
    """Accept defining data or raise a structured rejection.

    Entries are reduced mod p.  Independence is decided by Gaussian
    elimination; the DependentVectors error carries a vanishing combination.
    """
    p = int(p)
    if p == 2:
        raise NotOdd("the arity prime must be odd")
    if not is_odd_prime(p):
        raise NotPrime(f"{p} is not prime")
    rows = [tuple(int(x) % p for x in v) for v in vectors]
    if not rows:
        raise BadLength("at least one defining vector is required")
    for i, row in enumerate(rows):
        if len(row) != p - 1:
            raise BadLength(
                f"vector {i + 1} has length {len(row)}, expected {p - 1}"
            )
    rank, echelon, transform = _row_reduce(rows, p)
    if rank < len(rows):
        # the transform row that produced a zero echelon row is the certificate
        for i, row in enumerate(echelon):
            if all(x % p == 0 for x in row):
                cert = transform[i]
                raise DependentVectors(
                    "defining vectors are linearly dependent: "
                    + " + ".join(
                        f"{c}*v{j + 1}" for j, c in enumerate(cert) if c % p
                    )
                    + " = 0",
                    certificate=cert,
                )
        raise DependentVectors("defining vectors are linearly dependent", ())
    return GGSSpec(p=p, vectors=tuple(rows))


def is_constant(spec: GGSSpec) -> bool:
    """One directed generator whose vector has all entries equal."""
    if spec.r != 1:
        return False
    v = spec.vectors[0]
    return all(x == v[0] for x in v)


def is_symmetric(vector) -> bool:
    """Palindrome test: entry j equals entry p-j throughout."""
    v = tuple(vector)
    return v == v[::-1]


@dataclass(frozen=True)
class Normalization:
    """Row-reduced defining data plus the invertible transform reaching it."""

    spec: GGSSpec
    transform: tuple[tuple[int, ...], ...]
    case: str
    steps: tuple[str, ...]


def normalize(spec: GGSSpec) -> Normalization:
    """Row-reduce the defining vectors to the shapes the case split expects.

    Allowed moves replace directed generators without changing the generated
    group: scaling a row (a power of the generator), adding a multiple of one
    row to another (a product of generators), and reordering rows.  When every
    row is symmetric the target is a leading 1 in the first row, rows of shape
    (0, *, ..., *, 0) below it, and a 0 in the first row at the first slot
    where the second row is nonzero.  Otherwise the target is a first row
    (1, *, ..., *, m); m != 1 is reached whenever the first and last columns
    differ somewhere on the row space.
    """
    p = spec.p
    rows = [list(v) for v in spec.vectors]
    r = len(rows)
    t = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    steps: list[str] = []

    def scale(i, k):
        rows[i] = [(k * x) % p for x in rows[i]]
        t[i] = [(k * x) % p for x in t[i]]
        steps.append(f"scale row {i + 1} by {k}")

    def add(i, j, k):
        rows[i] = [(x + k * y) % p for x, y in zip(rows[i], rows[j])]
        t[i] = [(x + k * y) % p for x, y in zip(t[i], t[j])]
        steps.append(f"add {k} * row {j + 1} to row {i + 1}")

    def swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        t[i], t[j] = t[j], t[i]
        steps.append(f"swap rows {i + 1} and {j + 1}")

    if all(is_symmetric(v) for v in rows):
        case = "symmetric"
        lead = next((i for i, v in enumerate(rows) if v[0] % p), None)
        if lead is None:
            raise NormalizationImpossible(
                "every row starts with 0, so no leading 1 is reachable",
                step="leading entry",
            )
        if lead != 0:
            swap(0, lead)
        if rows[0][0] != 1:
            scale(0, pow(rows[0][0], -1, p))
        for i in range(1, r):
            if rows[i][0] % p:
                add(i, 0, (-rows[i][0]) % p)
        if r >= 2:
            j = next(idx for idx, x in enumerate(rows[1]) if x % p)
            if rows[0][j] % p:
                add(0, 1, (-rows[0][j] * pow(rows[1][j], -1, p)) % p)
    else:
        case = "non-symmetric"
        pick = None
        for i, v in enumerate(rows):
            if v[0] % p and (v[0] - v[-1]) % p:
                pick = i
                break
        if pick is None:
            for i in range(r):
                for j in range(r):
                    if i == j:
                        continue
                    for k in range(1, p):
                        v0 = (rows[i][0] + k * rows[j][0]) % p
                        vl = (rows[i][-1] + k * rows[j][-1]) % p
                        if v0 and (v0 - vl) % p:
                            add(i, j, k)
                            pick = i
                            break
                    if pick is not None:
                        break
                if pick is not None:
                    break
        if pick is None:
            # first and last columns agree on the whole row space; settle for
            # a non-symmetric first row with leading entry 1
            pick = next(i for i, v in enumerate(rows) if not is_symmetric(v))
            if rows[pick][0] % p == 0:
                donor = next(
                    (j for j, v in enumerate(rows) if v[0] % p), None
                )
                if donor is None:
                    raise NormalizationImpossible(
                        "every row starts with 0, so no leading 1 is reachable",
                        step="leading entry",
                    )
                for k in range(1, p):
                    cand = [
                        (x + k * y) % p for x, y in zip(rows[pick], rows[donor])
                    ]
                    if not is_symmetric(cand):
                        add(pick, donor, k)
                        break
        if pick != 0:
            swap(0, pick)
        if rows[0][0] != 1:
            scale(0, pow(rows[0][0], -1, p))
        for i in range(1, r):
            if rows[i][0] != 1:
                add(i, 0, (1 - rows[i][0]) % p)

    new_spec = validate(p, [tuple(v) for v in rows])
    return Normalization(
        spec=new_spec,
        transform=tuple(tuple(row) for row in t),
        case=case,
        steps=tuple(steps),
    )


@dataclass(frozen=True, eq=False)
class GroupSession:
    """A defining-data object built at a fixed depth.

    Holds the group handle for the induced group on the p**depth leaves,
    generated by the leaf permutations of a, b_1, ..., b_r in that order.
    Immutable apart from one memo of the subgroups the checks share: the
    sessions at lower depths, gamma3, st(1), st(1)' and G''.  G' is
    G.derived(), which the group handle memoizes itself.
    """

    spec: GGSSpec
    depth: int
    G: PermGroup
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def _memoized(self, key, make):
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = make()
        return got

    def at(self, m: int) -> "GroupSession":
        """The session of the same defining data at depth m, 1 <= m <= depth;
        at(depth) is this session.  Its generators are this session's
        restricted to the level-m vertices: the level-m quotient of G is the
        group they generate."""
        if m == self.depth:
            return self
        if not 1 <= m < self.depth:
            raise ValueError(f"depth {m} outside 1..{self.depth}")

        def make():
            p = self.spec.p
            gens = [restrict_to_level(g, p, m) for g in self.G.generators]
            return GroupSession(self.spec, m, PermGroup(p**m, gens, prime=p))

        return self._memoized(("at", m), make)

    def gamma3(self) -> PermGroup:
        """Third lower-central term [[G,G],G]."""
        g = self.G
        return self._memoized("gamma3", lambda: commutator_subgroup(g.derived(), g, g))

    def st1(self) -> PermGroup:
        """The level-1 stabilizer: G's layers from level 1 on, with no
        closure, generated by the p*r conjugates b_i^(a^k).  They fix level
        1, contain every b_i and are permuted by a, so the subgroup they span
        is normal of index p, which is st(1)."""

        def make():
            g = self.G
            a, bs = g.generators[0], g.generators[1:]
            gens = [a**-k * b * a**k for k in range(g.prime) for b in bs]
            return g._built(gens, g.chain.suffix(1))

        return self._memoized("st1", make)

    def st1_derived(self) -> PermGroup:
        # st(1) is normal here, so closing its generator commutators under
        # the ambient generators already yields its derived subgroup
        st1 = self.st1()
        return self._memoized("st1_derived", lambda: commutator_subgroup(st1, st1, self.G))

    def second_derived(self) -> PermGroup:
        d = self.G.derived()
        return self._memoized("second_derived", lambda: commutator_subgroup(d, d, self.G))


def default_depth(spec: GGSSpec) -> int:
    """r + 4, deep enough for the second-derived containment, or the deepest
    level with at most DEGREE_CAP leaves when that is shallower (but at
    least 1, which build then refuses if p alone exceeds the cap)."""
    n = 1
    while n < spec.r + 4 and spec.p ** (n + 1) <= DEGREE_CAP:
        n += 1
    return n


def build(spec: GGSSpec, depth: int, allow_large: bool = False) -> GroupSession:
    """Assemble generators and the leaf-action handle at the given depth.

    The one size gate: depths with more than DEGREE_CAP leaves are refused
    unless allow_large is set, and depths whose leaf arrays numpy cannot
    index are refused always, both before any work.  The sessions at
    smaller depths are restrictions of this one; see GroupSession.at.
    """
    if not isinstance(spec, GGSSpec):
        raise SpecError("build expects validated defining data")
    # first: p**depth of a negative depth is a float that passes the cap
    if depth < 1:
        raise SpecError(f"depth must be at least 1, got {depth}")
    p = spec.p
    degree = p**depth
    if degree > DEGREE_CAP and not allow_large:
        raise SpecError(
            f"{p}^{depth} = {degree} leaves exceeds the cap of {DEGREE_CAP}; "
            "opt in with allow_large=True, or --allow-slow on the command line"
        )
    if 8 * degree > sys.maxsize:
        raise SpecError(f"{p}^{depth} leaves is more than a numpy array can hold")
    auts = [rooted(p, depth, 1)]
    auts += [directed(spec, depth, i) for i in range(1, spec.r + 1)]
    G = PermGroup(degree, [g.to_perm(depth) for g in auts], prime=p)
    return GroupSession(spec=spec, depth=depth, G=G)
