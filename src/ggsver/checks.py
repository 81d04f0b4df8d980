"""Per-claim checks on finite quotients, each returning a structured verdict.

Every check evaluates one identity or containment exactly inside the level-N
leaf action of a session.  The statements about the infinite group project
onto each finite level, so a verdict only ever asserts "verified at level N";
a failure comes with a witness that can be re-checked by sifting alone.

Each check is a body registered once under its claim id with @_check, which
puts it in CHECKS in definition order.  The body returns (details, witness),
witness None exactly when the claim holds, or raises NoVerdict: "skipped"
when its hypotheses exclude the defining data, with the hypothesis named, and
"vacuous" when the depth is too small for it to say anything.  The registered
function is the only code that builds a Verdict, so a direct call returns
the same verdict that run_all records.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .ggs import (
    GGSSpec,
    GroupSession,
    NormalizationImpossible,
    SpecError,
    _require_spec,
    _shift,
    build,
    default_depth,
    is_constant,
    is_symmetric,
    normalize,
    transversal,
)
from . import permgroups
from .permgroups import PermGroup
from .portraits import (
    Perm,
    commutator,
    directed,
    embed_at_vertex,  # unused here; bench/spans.py traces checks.embed_at_vertex
    restrict_to_level,
    subtree_embed,
    subtree_section,
    vertex_word,
)

__all__ = [
    "NoVerdict",
    "Verdict",
    "Report",
    "HAS_CSP",
    "CONSTANT_VECTOR_EXCEPTION",
    "classify_csp",
    "check_abelianization",
    "check_gamma3_product",
    "check_key_congruence",
    "check_regular_branch",
    "check_stab1_derived_in_gamma3",
    "check_subdirect",
    "check_psi2_second_derived",
    "check_rank_growth",
    "check_derived_contains_stab",
    "check_second_derived_contains_stab",
    "CHECKS",
    "select_checks",
    "run_all",
]

HOLDS = "holds"
FAILS = "fails"
SKIPPED = "skipped"
VACUOUS = "vacuous"

HAS_CSP = "HasCSP"
CONSTANT_VECTOR_EXCEPTION = "ConstantVectorException"


class NoVerdict(Exception):
    """A check has nothing to decide on this session: status is SKIPPED when
    its hypotheses exclude the defining data, VACUOUS when the depth is too
    small for it to say anything."""

    def __init__(self, status: str, reason: str):
        super().__init__(reason)
        self.status = status
        self.reason = reason


@dataclass
class Verdict:
    claim_id: str
    level: int
    status: str
    details: dict = field(default_factory=dict)
    reason: str | None = None
    witness: object = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_jsonable(self) -> dict:
        w = self.witness
        if isinstance(w, Perm):
            w = {"perm": w.tolist()}
        return {
            "id": self.claim_id,
            "status": self.status,
            "level": self.level,
            "details": self.details,
            "reason": self.reason,
            "witness": w,
        }


@dataclass
class Report:
    """Verdicts of one run, in CHECKS order.  wall_times[id] is the time the
    check took, the shared subgroups it was first to build included: a
    later check that reuses them does not pay for them again."""

    p: int
    vectors: list
    label: str | None
    depth: int
    classification: str
    verdicts: list
    wall_times: dict

    @property
    def failed(self) -> list:
        return [v for v in self.verdicts if v.status == FAILS]

    def to_jsonable(self) -> dict:
        checks = []
        for v in self.verdicts:
            entry = v.to_jsonable()
            entry["wall_time"] = self.wall_times.get(v.claim_id, 0.0)
            checks.append(entry)
        return {
            "spec": {"p": self.p, "vectors": self.vectors, "label": self.label},
            "depth": self.depth,
            "classification": self.classification,
            "classification_note": (
                "definitional from the defining vectors; the per-level checks "
                "in this report are the finite-level evidence"
            ),
            "checks": checks,
        }


def classify_csp(spec: GGSSpec) -> str:
    """Constant vector is the lone exception; everything else has the
    congruence subgroup property."""
    return CONSTANT_VECTOR_EXCEPTION if is_constant(spec) else HAS_CSP


CHECKS: dict = {}


def _check(claim_id):
    """Register a check body under claim_id and return the function that
    turns its (details, witness) or NoVerdict into the Verdict."""

    def register(body):
        @functools.wraps(body)
        def check(session: GroupSession) -> Verdict:
            try:
                details, witness = body(session)
            except NoVerdict as exc:
                return Verdict(claim_id, session.depth, exc.status, reason=exc.reason)
            status = HOLDS if witness is None else FAILS
            return Verdict(claim_id, session.depth, status, details, witness=witness)

        CHECKS[claim_id] = check
        return check

    return register


def _require_depth(session, minimum, what):
    if session.depth < minimum:
        raise NoVerdict(
            VACUOUS, f"{what} needs depth at least {minimum}, got {session.depth}"
        )


def _require_nonconstant(spec):
    if is_constant(spec):
        raise NoVerdict(
            SKIPPED,
            "hypothesis not met: the defining data is the constant-vector group, "
            "which this statement excludes",
        )


def _equality_verdict(lhs, rhs, details):
    """(details, witness) for lhs == rhs: lhs <= rhs by sifting lhs's
    generators, then equal orders; on failure the witness is the first
    generator of one group outside the other."""
    details = dict(details)
    details["lhs_exponent"] = lhs.order_exponent
    details["rhs_exponent"] = rhs.order_exponent
    missing = rhs.containment_witness(lhs)
    if missing is None and lhs.order_exponent != rhs.order_exponent:
        # lhs is a proper subgroup, so some generator of rhs lies outside it
        missing = lhs.containment_witness(rhs)
    return details, missing


def _in_power(g, k) -> bool:
    """g lies in K^p, the product of p copies of k with copy j acting below
    the first-level vertex j: g fixes every first-level vertex and its
    section below each lies in k.  Exact for any permutation of the leaves."""
    p = k.prime
    try:
        fixed = restrict_to_level(g, p, 1).is_identity()
    except ValueError:
        # g splits a first-level block, so it is no tree automorphism
        return False
    return fixed and all(k.contains(subtree_section(g, p, (j,))) for j in range(p))


def _placements(k, slots):
    """k's generators placed below the first-level vertices 0..slots-1, one
    level deeper, slot by slot."""
    p, n = k.prime, k.level + 1
    return (subtree_embed(h, p, (j,), n) for j in range(slots) for h in k.generators)


def _power_verdict(lhs, k, details):
    """(details, witness) for lhs == K^p, with no layers built for K^p.  K^p
    is generated by k's generators placed in each slot, so it equals lhs
    exactly when lhs holds every placement and the orders agree.  Only the
    slot-0 placements are sifted when they decide the others
    (_one_slot_decides), else those of every slot.  On failure the witness
    is the first element of lhs outside K^p among the seeds it was closed
    from and then its generators, else the first placement outside lhs,
    slot by slot.

    The seeds come first so that the witness does not depend on whether
    lhs grew from a start: cold or warm, its origin records every seed it
    was handed.  For a cold lhs the first seed outside K^p is also its first
    generator outside K^p, as a seed that left no residual lies in the
    group generated by the seeds before it, and the seeds that left one are
    the prefix of its generators (Normal generators in the permgroups
    module docstring)."""
    p = k.prime
    slots = 1 if _one_slot_decides(lhs) else p
    details = dict(details)
    details["lhs_exponent"] = lhs.order_exponent
    details["rhs_exponent"] = p * k.order_exponent
    if lhs.order_exponent == details["rhs_exponent"] and all(
        map(lhs.contains, _placements(k, slots))
    ):
        return details, None
    candidates = (*lhs.origin.elements, *lhs.generators)
    missing = next((g for g in candidates if not _in_power(g, k)), None)
    if missing is None:
        missing = next(x for x in _placements(k, p) if not lhs.contains(x))
    return details, missing


@_check("abelianization")
def check_abelianization(session: GroupSession):
    """Index of the derived subgroup is p**(r+1) and the quotient is
    elementary abelian (Frattini equals derived)."""
    spec = session.spec
    _require_depth(session, spec.r + 1, "the abelianization index")
    g = session.G
    d = session.derived()
    index_exp = g.order_exponent - d.order_exponent
    # Phi(G) contains G', so equal orders mean equal groups
    frattini_eq = session.frattini().order_exponent == d.order_exponent
    details = {
        "order_exponent": g.order_exponent,
        "derived_exponent": d.order_exponent,
        "index_exponent": index_exp,
        "expected_index_exponent": spec.r + 1,
        "frattini_equals_derived": frattini_eq,
    }
    ok = index_exp == spec.r + 1 and frattini_eq
    return details, None if ok else dict(details)


@_check("gamma3_product")
def check_gamma3_product(session: GroupSession):
    """The first-level sections of the third lower-central term of the
    level-1 stabilizer fill the full product of p lower-central copies."""
    _require_nonconstant(session.spec)
    _require_depth(session, 3, "the lower-central product identity")
    lhs = session.st1_gamma3()
    return _power_verdict(lhs, session.gamma3().truncate(session.depth - 1), {})


@_check("key_congruence")
def check_key_congruence(session: GroupSession):
    """Product of conjugate-commutators of the reduced first generator lands
    on a first-slot commutator, modulo the product of lower-central copies.

    With the first row reduced to (1, *, ..., *, m), the product over
    k = 0..p-1 of [b^(a^-k), b^(a^(1-k))]^(m^k) agrees with the tuple
    ([a, b]^(1-m), 1, ..., 1) up to the block product of third lower-central
    terms; this needs m != 1 and is skipped otherwise.
    """
    spec = session.spec
    try:
        norm = normalize(spec)
    except NormalizationImpossible:
        raise NoVerdict(
            SKIPPED,
            "hypothesis not met: no row starts with a nonzero entry, so row "
            "operations cannot reach a first row with leading entry 1",
        ) from None
    if norm.case == "symmetric":
        raise NoVerdict(
            SKIPPED,
            "hypothesis not met: m != 1 is required and the constant vector "
            "forces m = 1"
            if is_constant(spec)
            else "hypothesis not met: every row is symmetric after reduction, "
            "so no generator of shape (1, ..., m) with m != 1 exists",
        )
    row = norm.spec.vectors[0]
    m = row[-1]
    if row[0] != 1 or m == 1:
        raise NoVerdict(
            SKIPPED,
            "hypothesis not met: row operations cannot reach a first row with "
            "leading entry 1 and last entry different from 1",
        )
    _require_depth(session, 3, "the commutator-product congruence")
    p = spec.p
    n = session.depth

    t = transversal(session.G)
    if t is None:
        raise NoVerdict(SKIPPED, "hypothesis not met: no generator of G moves level 1")
    # the reduced first generator is the directed generator of the
    # transformed row; it lies in the same group
    b1 = directed(norm.spec, n, 1).to_perm(n)
    # conj[j] = b1^(a^j), a the power of t that shifts level 1 by one
    a = t ** pow(_shift(t, p), -1, p)
    conj = [a**-j * b1 * a**j for j in range(p)]
    terms = (commutator(conj[-k % p], conj[(1 - k) % p]) ** pow(m, k, p) for k in range(p))
    w = functools.reduce(Perm.__mul__, terms)
    small = restrict_to_level(commutator(a, b1), p, n - 1)
    target = subtree_embed(small ** ((1 - m) % p), p, (0,), n)
    delta = w * target.inverse()

    gamma = session.gamma3().truncate(n - 1)
    details = {"m": m, "reduced_row": list(row)}
    for j in range(p):
        q = subtree_section(delta, p, (j,))
        if not gamma.contains(q):
            details["failing_slot"] = j
            return details, q
    return details, None


@_check("regular_branch")
def check_regular_branch(session: GroupSession):
    """First-level sections of the derived subgroup of the level-1 stabilizer
    fill the full product of p derived-subgroup copies.

    With one directed generator this is the non-symmetric case of
    Fernandez-Alcober and Zugadi-Reizabal (Trans. AMS 2014); a symmetric
    single vector is skipped.  Measured at N = 3..5 for p = 5 and N = 3, 4
    for p = 7, its sections fill a subgroup of index p in the product."""
    spec = session.spec
    _require_nonconstant(spec)
    if spec.r == 1 and is_symmetric(spec.vectors[0]):
        raise NoVerdict(
            SKIPPED,
            "hypothesis not met: for one directed generator the identity is "
            "the non-symmetric case, and this defining vector is symmetric; "
            "its branch structure over the third lower-central term is "
            "what gamma3_product checks",
        )
    _require_depth(session, 3, "the branch identity")
    details = {"mode": "extended: r=1 non-constant"} if spec.r == 1 else {}
    lhs = session.st1_derived()
    return _power_verdict(lhs, session.derived().truncate(session.depth - 1), details)


@_check("stab1_derived_in_gamma3")
def check_stab1_derived_in_gamma3(session: GroupSession):
    """The derived subgroup of the level-1 stabilizer sits inside the third
    lower-central term; no exclusions."""
    _require_depth(session, 3, "the level-1 stabilizer containment")
    gamma = session.gamma3()
    lhs = session.st1_derived()
    details = {
        "stab1_derived_exponent": lhs.order_exponent,
        "gamma3_exponent": gamma.order_exponent,
    }
    return details, gamma.containment_witness(lhs)


@_check("subdirect")
def check_subdirect(session: GroupSession):
    """Every first-level projection pi_i of the derived subgroup is the
    whole level-(N-1) group G_(N-1).  When t = transversal(G) passes
    _rooted_shift, as a^c, one slot decides all p: a^c normalizes G' and
    moves slot 0 to every slot with trivial sections, so pi_(kc)(G') =
    pi_0(G').  The check then first counts what G''s layers already show of
    P = pi_0(G'), and closes projections (_projection_verdict) only when the
    count falls short.

    The certificate.  Let c be the number of rows of G''s layers m >= 1
    whose pivot lies below p^(m-1), in slot 0.  In layer m a reduced echelon
    row is zero on every column before its pivot, so the rows with a slot-0
    pivot restrict to slot 0 as independent vectors, and the others to 0.
    Those restrictions are the level-(m-1) labels of pi_0(G' & st(m)), which
    lies in P & st(m-1), so layer m-1 of P has at least that many rows and
    log_p|P| >= c.  G' lies in st(1), and pi_0 is a homomorphism on st(1),
    so P lies in pi_0(st(1)), which the slot-0 sections of st(1)'s
    generators generate; when G_(N-1) holds each of them, P <= G_(N-1).  So
    c = log_p|G_(N-1)| forces P = G_(N-1), and the check holds with no
    closure.  The certificate can only say holds: any other outcome falls
    back to the closure, which names the witness of a failure."""
    spec = session.spec
    _require_nonconstant(spec)
    _require_depth(session, 3, "the subdirect projection check")
    p = spec.p
    if not _rooted_shift(transversal(session.G), p):
        return _projection_verdict(session, p)
    # G' first, so that G's layers grow from it
    c = _slot_zero_pivots(session.derived())
    full = session.G.truncate(session.depth - 1)
    if c == full.order_exponent and all(
        full.contains(subtree_section(x, p, (0,))) for x in session.st1().generators
    ):
        return {"full_exponent": c, "projection_exponents": [c] * p}, None
    return _projection_verdict(session, 1)


def _slot_zero_pivots(h: PermGroup) -> int:
    """The rows of h's layers m >= 1 whose pivot lies in slot 0, below
    p^(m-1): a lower bound on log_p|pi_0(h)| for h in st(1)
    (check_subdirect)."""
    p = h.prime
    return sum(
        int(np.count_nonzero(lvl.pivots[: lvl.dim] < p ** (m - 1)))
        for m, lvl in enumerate(h.chain.levels)
        if m
    )


def _projection_verdict(session: GroupSession, slots: int):
    """(details, witness) of the subdirect check from the projections of G'
    onto slots 0..slots-1, closed one at a time; the first slot that
    differs from G_(N-1) is named.  G = st(1)<t>, t = transversal(G), and
    pi_i is a homomorphism on st(1), which holds G'; so pi_i(G') is the
    normal closure of the pi_i(e^(t^-k)), k < p, e among the elements G'
    was closed from in G, under the slot-i sections of st(1)'s generators.
    When slots is 1 the one exponent stands for all p."""
    p, t = session.spec.p, transversal(session.G)
    # G' first, so that G's layers grow from it
    kept = session.derived().origin.elements
    full = session.G.truncate(session.depth - 1)
    moved = kept if t is None else [t**k * e * t**-k for k in range(p) for e in kept]
    st1 = session.st1().generators
    projections = (
        permgroups._normal_closure(
            PermGroup(full.degree, [subtree_section(x, p, (i,)) for x in st1], p),
            [subtree_section(e, p, (i,)) for e in moved],
        )
        for i in range(slots)
    )
    exponents = []
    details = {"full_exponent": full.order_exponent, "projection_exponents": exponents}
    for i, proj in enumerate(projections):
        exponents.append(proj.order_exponent)
        # only the witness: a projection that misses a generator of full is
        # named by it, one that strictly contains full by its own generator
        _, missing = _equality_verdict(full, proj, {})
        if missing is not None:
            details["failing_slot"] = i
            return details, missing
    exponents *= p // slots
    return details, None


def _rooted_shift(x: Perm | None, p: int) -> int:
    """c when the leaf permutation x is i -> (i + c p^(n-1)) mod p^n with
    c != 0 mod p, else 0 (also for None): the rooted automorphism a^c, which
    moves first-level block j onto block j + c and has trivial sections.
    The shortcuts ask it of transversal(G) and run their one algorithm on
    slot or vertex 0 alone when it passes, on all of them otherwise; in
    every session ggs.build makes it passes with c = 1."""
    if x is None:
        return 0
    c, n = _shift(x, p), x.degree
    return c if np.array_equal(x.images, (np.arange(n) + c * n // p) % n) else 0


def _one_vertex_decides(session: GroupSession) -> bool:
    """Whether G'' holds the embeddings of G'_(N-2) at every level-2 vertex
    as soon as it holds those at (0,0): true when transversal(G) passes
    _rooted_shift, as a^c, and some generator b fixes level 1 and acts
    below some first-level vertex j as a translation that passes it.
    Conjugating by powers of a^c carries the embedding of h at (0,0) to the
    one of h at (j,0); powers of b carry it on to (j,v) for every v, and
    powers of a^c then to every (i,v), all with trivial sections, so h is
    unchanged.  G'' is normal in G, and an embedding at one vertex is a
    homomorphism, so G'' holds every embedding once it holds those at (0,0)."""
    p, g = session.spec.p, session.G
    return bool(_rooted_shift(transversal(g), p)) and any(
        not _shift(b, p)
        and any(_rooted_shift(subtree_section(b, p, (j,)), p) for j in range(p))
        for b in g.generators
    )


def _one_slot_decides(lhs) -> bool:
    """Whether lhs holds an element placed below every first-level vertex as
    soon as it holds it below vertex 0: true when lhs.origin names an
    ambient whose transversal t passes _rooted_shift, as a^c.  lhs is then
    invariant under t, and t^k carries slot 0 to slot k c, every slot."""
    ambient = lhs.origin.ambient
    return ambient is not None and bool(_rooted_shift(transversal(ambient), lhs.prime))


@_check("psi2_second_derived")
def check_psi2_second_derived(session: GroupSession):
    """Each level-2 embedded copy of the depth-(N-2) derived subgroup lies in
    the second derived subgroup; needs at least two directed generators.
    Only the copy at (0,0) is sifted when it decides the others
    (_one_vertex_decides); it is the first the full scan visits, so the
    verdict, details and witness are those of the full scan."""
    spec = session.spec
    if spec.r < 2:
        raise NoVerdict(
            SKIPPED, "hypothesis not met: needs at least two directed generators"
        )
    _require_depth(session, 3, "the level-2 second-derived containment")
    p = spec.p
    n = session.depth
    second = session.second_derived()
    inner = session.derived().truncate(n - 2)
    details = {
        "second_derived_exponent": second.order_exponent,
        "inner_derived_exponent": inner.order_exponent,
    }
    vertices = 1 if _one_vertex_decides(session) else p * p
    for k in range(vertices):
        word = vertex_word(k, 2, p)
        for h in inner.generators:
            emb = subtree_embed(h, p, word, n)
            if not second.contains(emb):
                details["failing_vertex"] = list(word)
                return details, emb
    return details, None


@_check("rank_growth")
def check_rank_growth(session: GroupSession):
    """Minimal generator counts grow along levels: rank at level n is at
    least n for n = 2..r+1, with equality r+1 at level r+1."""
    _require_depth(session, 2, "rank growth")
    spec = session.spec
    top = min(session.depth, spec.r + 1)
    ranks = []
    ok = True
    # log_p of the level-n quotient of a subgroup H is the sum of H's first n
    # layer dimensions, and Phi(G_n) = G_n' G_n^p is the level-n quotient of
    # Phi(G), so both orders are read off depth-N layers; Phi(G) closes G'
    # first, so that G's layers grow from it
    frattini = list(accumulate(session.frattini().chain.dimensions()))
    orders = list(accumulate(session.G.chain.dimensions()))
    for n in range(2, top + 1):
        rk = orders[n - 1] - frattini[n - 1]
        ranks.append([n, rk])
        if rk < n:
            ok = False
    if spec.r + 1 <= session.depth and ranks[-1][1] != spec.r + 1:
        ok = False
    details = {"ranks": ranks, "expected_terminal_rank": spec.r + 1}
    return details, None if ok else dict(details)


def _stabilizer_containment(session: GroupSession, m: int, h: PermGroup):
    """Decide st(m) <= h, for h a subgroup of G, by layer dimensions:
    (log_p|st(m)|, None) when it holds, else (log_p|st(m)|, an element of
    st(m) outside h).

    h & st(m) lies in G & st(m), and their orders are the sums of the layer
    dimensions from level m on, so the containment holds exactly when those
    sums agree.  On failure the witness is the first representative of G at
    a level >= m that h does not contain.
    """
    exponent = sum(session.G.chain.dimensions()[m:])
    if sum(h.chain.dimensions()[m:]) == exponent:
        return exponent, None
    missing = h.containment_witness(session.G.level_stabilizer(m))
    if missing is None:
        raise AssertionError("orders deny a containment that every generator passes")
    return exponent, missing


def _stabilizer_verdict(session, m, subgroup, name):
    """(details, witness) for st(m) <= subgroup(); vacuous below depth
    m + 1, where st(m) is trivial, and subgroup is only called past that."""
    if session.depth < m + 1:
        raise NoVerdict(
            VACUOUS,
            f"the level-{m} stabilizer is trivial or everything at depth "
            f"{session.depth}; need depth at least {m + 1}",
        )
    h = subgroup()
    exponent, missing = _stabilizer_containment(session, m, h)
    details = {
        "stabilizer_level": m,
        "stabilizer_exponent": exponent,
        f"{name}_exponent": h.order_exponent,
    }
    return details, missing


@_check("derived_contains_stab")
def check_derived_contains_stab(session: GroupSession):
    """The level-(r+1) stabilizer sits inside the derived subgroup."""
    return _stabilizer_verdict(
        session, session.spec.r + 1, session.derived, "derived"
    )


@_check("second_derived_contains_stab")
def check_second_derived_contains_stab(session: GroupSession):
    """The level-(r+3) stabilizer sits inside the second derived subgroup."""
    _require_nonconstant(session.spec)
    return _stabilizer_verdict(
        session, session.spec.r + 3, session.second_derived, "second_derived"
    )


def select_checks(checks=None) -> list:
    """The ids to run, in CHECKS order; None selects every check.  An empty
    selection or an unknown id is refused with SpecError."""
    if checks is None:
        return list(CHECKS)
    if not checks:
        raise SpecError("the check selection names no check")
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise SpecError(f"unknown checks: {', '.join(unknown)}")
    return [c for c in CHECKS if c in set(checks)]


def run_all(
    spec: GGSSpec, depth=None, checks=None, label=None, allow_large: bool = False
) -> Report:
    """Build one session, run every requested check against it, and fold the
    verdicts into a report.  The selection is checked by select_checks before
    the build.  The depth defaults to ggs.default_depth; build decides
    whether it is too large, with allow_large as its opt-in.

    The checks run, and the report lists their verdicts and wall times, in
    CHECKS order.  The closures they make do not depend on that order:
    GroupSession builds each start it grows a subgroup from."""
    _require_spec(spec)
    chosen = select_checks(checks)
    if depth is None:
        depth = default_depth(spec)
    session = build(spec, depth, allow_large=allow_large)
    verdicts, times = [], {}
    for cid in chosen:
        t0 = time.perf_counter()
        verdicts.append(CHECKS[cid](session))
        times[cid] = time.perf_counter() - t0
    return Report(
        p=spec.p,
        vectors=[list(v) for v in spec.vectors],
        label=label,
        depth=depth,
        classification=classify_csp(spec),
        verdicts=verdicts,
        wall_times=times,
    )
