"""Defining data for multi-GGS groups and assembly of finite quotients.

A group in this family acts on the p-regular rooted tree (p an odd prime) and
is generated by the rooted cycle `a` together with r directed generators, one
per row of an r x (p-1) matrix over F_p whose rows must be linearly
independent.  Building at depth N yields the permutation group induced on the
p**N leaves, which is exactly the level-N quotient of the infinite group.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field

from .portraits import Perm, directed, is_odd_prime, rooted
from .permgroups import Origin, PermGroup, _normal_closure, commutator_subgroup

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
    "transversal",
    "validate",
    "is_constant",
    "is_symmetric",
    "normalize",
    "build",
    "DEGREE_CAP",
    "default_depth",
]

# Runs with more leaves need an opt-in.  5^5: on 2 vCPU a full verify at p=5
# N=5 takes 1.2-1.4 s and at p=3 N=7 2.6-3.2 s, while above the cap p=7 N=5
# takes 3.7 s and 577 MiB and p=5 N=6 118 s and 2013 MiB.
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


def _integer(x, what: str) -> int:
    """x as an int, refused with SpecError unless it is an integer (a float
    such as 3.0 is refused too, not truncated)."""
    try:
        return operator.index(x)
    except TypeError:
        raise SpecError(f"{what} must be an integer, got {x!r}") from None


def validate(p, vectors) -> GGSSpec:
    """Accept defining data or raise a structured rejection.

    p and the entries must be integers; entries are reduced mod p.
    Independence is decided by Gaussian elimination; the DependentVectors
    error carries a vanishing combination.
    """
    p = _integer(p, "the arity prime")
    if p == 2:
        raise NotOdd("the arity prime must be odd")
    if not is_odd_prime(p):
        raise NotPrime(f"{p} is not prime")
    rows = [tuple(_integer(x, "a vector entry") % p for x in v) for v in vectors]
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


def _shift(x: Perm, p: int) -> int:
    """The level-1 shift c of x in W_N, which moves vertex j to j + c mod p."""
    return int(x.images[0]) // (x.degree // p)


def transversal(G: PermGroup) -> Perm | None:
    """The generator t that plays a wherever a is read: the first that
    moves level 1, so G = st(1)<t>, or None when each fixes it."""
    return next((x for x in G.generators if _shift(x, G.prime)), None)


@dataclass(frozen=True, eq=False)
class GroupSession:
    """A defining-data object built at a fixed depth.

    Holds the group handle for the induced group on the p**depth leaves,
    generated by the leaf permutations of a, b_1, ..., b_r in any order, or
    any other generating set of it, at the spec's prime and this depth.
    Immutable apart from one memo of the subgroups the checks share: G',
    Phi(G), gamma3, st(1), st(1)', [st(1)', st(1)] and G''.  It is the only
    memo: a group handle keeps no subgroup of its own.  Each is closed at
    most once, at this depth; a check that needs one at a lower depth m
    truncates it with PermGroup.truncate(m), which reads the level-m
    quotient off its layers with no closure.

    A subgroup grows from one in the memo that it always contains (Warm
    start in the permgroups module docstring), and that one is built first
    when it is not yet, so the closures a selection of checks makes depend
    on the subgroups it reads and not on the order it reads them in:
    - G from G': derived() is G.derived(), remembered, and every reader of
      G's layers here and in the checks closes G' first, so that G's
      closure sifts G's generators alone;
    - Phi(G) from G', when the two differ;
    - st(1)' and gamma3 from G'': G' <= st(1), as W_N/st(1) is cyclic, so
      G'' = [G', G'] <= [st(1), st(1)], and G'' = [G', G'] <= [G', G].
    Each start is normal in G.  G'' and [st(1)', st(1)] close cold.
    """

    spec: GGSSpec
    depth: int
    G: PermGroup
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if (self.G.prime, self.G.level) != (self.spec.p, self.depth):
            raise SpecError(f"G is no group of p={self.spec.p} at depth {self.depth}")

    def _memoized(self, key, make):
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = make()
        return got

    def derived(self) -> PermGroup:
        """The derived subgroup G'."""
        return self._memoized("derived", self.G.derived)

    def frattini(self) -> PermGroup:
        """The Frattini subgroup Phi(G) = G'G^p, the smallest normal
        subgroup with elementary abelian quotient.  G/G' is abelian, so it
        is G' itself when every generator's p-th power lies in G', and
        otherwise grown from G' by its normal generators and those powers."""

        def make():
            g, d = self.G, self.derived()
            powers = [x**g.prime for x in g.generators]
            if all(d.contains(x) for x in powers):
                return d
            return _normal_closure(g, [*d.origin.elements, *powers], start=d)

        return self._memoized("frattini", make)

    def gamma3(self) -> PermGroup:
        """Third lower-central term [[G,G],G], grown from G''."""
        g = self.G
        return self._memoized(
            "gamma3",
            lambda: commutator_subgroup(self.derived(), g, g, self.second_derived()),
        )

    def st1(self) -> PermGroup:
        """The level-1 stabilizer: G's layers from level 1 on, with no
        closure, or G itself when no generator moves level 1.  With t =
        transversal(G), each other generator x times t^(-j), j its level-1
        shift over t's, is some n_x in st(1) (x itself when j = 0), and by
        Reidemeister-Schreier the n_x^(t^k), k < p, generate st(1), with
        t^p when that is not 1 (it is 1 in every session build makes).  Its
        origin is G and the n_x (and t^p), which seed st(1)' with r*p*r
        commutators instead of (p*r)^2.  G' is closed first, so that G's
        layers grow from it."""

        def make():
            g, p = self.G, self.spec.p
            t = transversal(g)
            if t is None:
                return g
            self.derived()
            over = pow(_shift(t, p), -1, p)
            js = [(x, _shift(x, p) * over % p) for x in g.generators if x is not t]
            ns = [x * t**-j if j else x for x, j in js]
            power = [x for x in [t**p] if not x.is_identity()]
            gens = [t**-k * n * t**k for k in range(p) for n in ns]
            return g._built(gens + power, g.chain.suffix(1), Origin(g, (*ns, *power)))

        return self._memoized("st1", make)

    def st1_derived(self) -> PermGroup:
        """st(1)', grown from G''.  st(1) is normal here, so closing the
        commutators of the elements it was closed from with its generators
        under G's generators yields its derived subgroup."""
        st1 = self.st1()
        return self._memoized(
            "st1_derived",
            lambda: commutator_subgroup(st1, st1, self.G, self.second_derived()),
        )

    def st1_gamma3(self) -> PermGroup:
        """[st(1)', st(1)], the third lower-central term of st(1)."""
        st1 = self.st1()
        return self._memoized(
            "st1_gamma3", lambda: commutator_subgroup(self.st1_derived(), st1, self.G)
        )

    def second_derived(self) -> PermGroup:
        """G'' = [G', G']."""
        d = self.derived()
        return self._memoized("second_derived", lambda: commutator_subgroup(d, d, self.G))


def _require_spec(spec) -> None:
    """Refuse anything but validated defining data, before any work."""
    if not isinstance(spec, GGSSpec):
        raise SpecError("build expects validated defining data")


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
    index are refused always, both before any work.  Lower depths are
    truncations of this session's subgroups; see PermGroup.truncate.
    """
    _require_spec(spec)
    depth = _integer(depth, "the depth")
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
