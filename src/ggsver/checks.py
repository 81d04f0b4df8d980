"""Per-claim checks on finite quotients, each returning a structured verdict.

Every check evaluates one identity or containment exactly inside the level-N
leaf action of a session.  The statements about the infinite group project
onto each finite level, so a verdict only ever asserts "verified at level N";
a failure comes with a witness that can be re-checked by sifting alone.

Checks whose hypotheses exclude the given defining data report "skipped" with
the hypothesis named; checks run below the depth where they say anything
report "vacuous".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .ggs import DEGREE_CAP, GGSSpec, GroupSession, build, is_constant, normalize
from .permgroups import PermGroup, commutator_subgroup, equals
from .portraits import (
    Perm,
    commutator,
    directed,
    embed_at_vertex,  # unused here; bench/spans.py traces checks.embed_at_vertex
    subtree_embed,
    subtree_section,
    vertex_word,
)

__all__ = [
    "VacuousCheck",
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
    "run_all",
    "default_depth",
]

HOLDS = "holds"
FAILS = "fails"
SKIPPED = "skipped"
VACUOUS = "vacuous"

HAS_CSP = "HasCSP"
CONSTANT_VECTOR_EXCEPTION = "ConstantVectorException"

CONSTANT_HYPOTHESIS = (
    "hypothesis not met: the defining data is the constant-vector group, "
    "which this statement excludes"
)


class VacuousCheck(Exception):
    """The requested depth is too small for the check to say anything."""


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


def _require_depth(session, minimum, what):
    if session.depth < minimum:
        raise VacuousCheck(
            f"{what} needs depth at least {minimum}, got {session.depth}"
        )


def _equality_verdict(claim_id, session, lhs, rhs, details):
    """lhs <= rhs by sifting lhs's generators, then equal orders; on failure
    the witness is the first generator outside the other group."""
    details = dict(details)
    details["lhs_exponent"] = lhs.order_exponent
    details["rhs_exponent"] = rhs.order_exponent
    missing = rhs.containment_witness(lhs)
    if missing is None and lhs.order_exponent == rhs.order_exponent:
        return Verdict(claim_id, session.depth, HOLDS, details)
    if missing is None:
        # lhs is a proper subgroup, so some generator of rhs lies outside it
        missing = lhs.containment_witness(rhs)
    return Verdict(claim_id, session.depth, FAILS, details, witness=missing)


def check_abelianization(session: GroupSession) -> Verdict:
    """Index of the derived subgroup is p**(r+1) and the quotient is
    elementary abelian (Frattini equals derived)."""
    spec = session.spec
    _require_depth(session, spec.r + 1, "the abelianization index")
    g = session.G
    d = g.derived()
    index_exp = g.order_exponent - d.order_exponent
    # G/G' is abelian, so Frattini = G'G^p, generated modulo G' by the p-th
    # powers of the generators
    frattini_eq = all(d.contains(x**spec.p) for x in g.generators)
    details = {
        "order_exponent": g.order_exponent,
        "derived_exponent": d.order_exponent,
        "index_exponent": index_exp,
        "expected_index_exponent": spec.r + 1,
        "frattini_equals_derived": frattini_eq,
    }
    ok = index_exp == spec.r + 1 and frattini_eq
    if ok:
        return Verdict("abelianization", session.depth, HOLDS, details)
    return Verdict(
        "abelianization", session.depth, FAILS, details, witness=dict(details)
    )


def check_gamma3_product(session: GroupSession) -> Verdict:
    """The first-level sections of the third lower-central term of the
    level-1 stabilizer fill the full product of p lower-central copies."""
    spec = session.spec
    if is_constant(spec):
        return Verdict(
            "gamma3_product", session.depth, SKIPPED, reason=CONSTANT_HYPOTHESIS
        )
    _require_depth(session, 3, "the lower-central product identity")
    g = session.G
    lhs = commutator_subgroup(session.st1_derived(), session.st1(), g)
    rhs = session.at(session.depth - 1).gamma3().block_power()
    return _equality_verdict("gamma3_product", session, lhs, rhs, {})


def check_key_congruence(session: GroupSession) -> Verdict:
    """Product of conjugate-commutators of the reduced first generator lands
    on a first-slot commutator, modulo the product of lower-central copies.

    With the first row reduced to (1, *, ..., *, m), the product over
    k = 0..p-1 of [b^(a^-k), b^(a^(1-k))]^(m^k) agrees with the tuple
    ([a, b]^(1-m), 1, ..., 1) up to the block product of third lower-central
    terms; this needs m != 1 and is skipped otherwise.
    """
    spec = session.spec
    norm = normalize(spec)
    if norm.case == "symmetric":
        if is_constant(spec):
            return Verdict(
                "key_congruence",
                session.depth,
                SKIPPED,
                reason=(
                    "hypothesis not met: m != 1 is required and the constant "
                    "vector forces m = 1"
                ),
            )
        return Verdict(
            "key_congruence",
            session.depth,
            SKIPPED,
            reason=(
                "hypothesis not met: every row is symmetric after reduction, "
                "so no generator of shape (1, ..., m) with m != 1 exists"
            ),
        )
    row = norm.spec.vectors[0]
    m = row[-1]
    if row[0] != 1 or m == 1:
        return Verdict(
            "key_congruence",
            session.depth,
            SKIPPED,
            reason=(
                "hypothesis not met: row operations cannot reach a first row "
                "with leading entry 1 and last entry different from 1"
            ),
        )
    _require_depth(session, 3, "the commutator-product congruence")
    p = spec.p
    n = session.depth

    a = session.G.generators[0]
    powers = [a**k for k in range(p)]
    # the reduced first generator is the directed generator of the
    # transformed row; it lies in the same group
    b1 = directed(norm.spec, n, 1).to_perm(n)
    # conj[j] = b1^(a^j)
    conj = [powers[-j % p] * b1 * powers[j] for j in range(p)]
    w = None
    for k in range(p):
        term = commutator(conj[-k % p], conj[(1 - k) % p]) ** pow(m, k, p)
        w = term if w is None else w * term
    lower = session.at(n - 1)
    small = commutator(
        lower.G.generators[0], directed(norm.spec, n - 1, 1).to_perm(n - 1)
    )
    target = subtree_embed(small ** ((1 - m) % p), p, (0,), n)
    delta = w * target.inverse()

    gamma = lower.gamma3()
    details = {"m": m, "reduced_row": list(row)}
    for j in range(p):
        q = subtree_section(delta, p, (j,))
        if not gamma.contains(q):
            details["failing_slot"] = j
            return Verdict(
                "key_congruence", session.depth, FAILS, details, witness=q
            )
    return Verdict("key_congruence", session.depth, HOLDS, details)


def check_regular_branch(session: GroupSession) -> Verdict:
    """First-level sections of the derived subgroup of the level-1 stabilizer
    fill the full product of p derived-subgroup copies."""
    spec = session.spec
    if is_constant(spec):
        return Verdict(
            "regular_branch", session.depth, SKIPPED, reason=CONSTANT_HYPOTHESIS
        )
    _require_depth(session, 3, "the branch identity")
    details = {}
    if spec.r == 1:
        details["mode"] = "extended: r=1 non-constant"
    lhs = session.st1_derived()
    rhs = session.at(session.depth - 1).G.derived().block_power()
    return _equality_verdict("regular_branch", session, lhs, rhs, details)


def check_stab1_derived_in_gamma3(session: GroupSession) -> Verdict:
    """The derived subgroup of the level-1 stabilizer sits inside the third
    lower-central term; no exclusions."""
    _require_depth(session, 3, "the level-1 stabilizer containment")
    gamma = session.gamma3()
    lhs = session.st1_derived()
    details = {
        "stab1_derived_exponent": lhs.order_exponent,
        "gamma3_exponent": gamma.order_exponent,
    }
    missing = gamma.containment_witness(lhs)
    if missing is not None:
        return Verdict(
            "stab1_derived_in_gamma3",
            session.depth,
            FAILS,
            details,
            witness=missing,
        )
    return Verdict("stab1_derived_in_gamma3", session.depth, HOLDS, details)


def check_subdirect(session: GroupSession) -> Verdict:
    """Every first-level projection of the derived subgroup is the whole
    level-(N-1) group.

    One slot decides all p: G' lies in st(1) and is normal in G, and for x
    in st(1) the rooted generator a shifts the sections, pi_i(x^a) =
    pi_(i-1)(x), so every slot has the projection of slot 0.
    """
    spec = session.spec
    if is_constant(spec):
        return Verdict(
            "subdirect", session.depth, SKIPPED, reason=CONSTANT_HYPOTHESIS
        )
    _require_depth(session, 3, "the subdirect projection check")
    p = spec.p
    n = session.depth
    d = session.G.derived()
    full = session.at(n - 1).G
    sections = [subtree_section(g, p, (0,)) for g in d.generators]
    proj = PermGroup(full.degree, sections, prime=p)
    details = {
        "full_exponent": full.order_exponent,
        "projection_exponents": [proj.order_exponent],
    }
    if not equals(proj, full):
        details["failing_slot"] = 0
        missing = proj.containment_witness(full)
        return Verdict("subdirect", session.depth, FAILS, details, witness=missing)
    details["projection_exponents"] *= p
    return Verdict("subdirect", session.depth, HOLDS, details)


def check_psi2_second_derived(session: GroupSession) -> Verdict:
    """Each level-2 embedded copy of the depth-(N-2) derived subgroup lies in
    the second derived subgroup; needs at least two directed generators."""
    spec = session.spec
    if spec.r < 2:
        return Verdict(
            "psi2_second_derived",
            session.depth,
            SKIPPED,
            reason="hypothesis not met: needs at least two directed generators",
        )
    _require_depth(session, 3, "the level-2 second-derived containment")
    p = spec.p
    n = session.depth
    second = session.second_derived()
    inner = session.at(n - 2).G.derived()
    details = {
        "second_derived_exponent": second.order_exponent,
        "inner_derived_exponent": inner.order_exponent,
    }
    for k in range(p * p):
        word = vertex_word(k, 2, p)
        for h in inner.generators:
            emb = subtree_embed(h, p, word, n)
            if not second.contains(emb):
                details["failing_vertex"] = list(word)
                return Verdict(
                    "psi2_second_derived",
                    session.depth,
                    FAILS,
                    details,
                    witness=emb,
                )
    return Verdict("psi2_second_derived", session.depth, HOLDS, details)


def check_rank_growth(session: GroupSession) -> Verdict:
    """Minimal generator counts grow along levels: rank at level n is at
    least n for n = 2..r+1, with equality r+1 at level r+1."""
    _require_depth(session, 2, "rank growth")
    spec = session.spec
    top = min(session.depth, spec.r + 1)
    ranks = []
    ok = True
    for n in range(2, top + 1):
        rk = session.at(n).G.rank()
        ranks.append([n, rk])
        if rk < n:
            ok = False
    if spec.r + 1 <= session.depth and ranks[-1][1] != spec.r + 1:
        ok = False
    details = {"ranks": ranks, "expected_terminal_rank": spec.r + 1}
    if ok:
        return Verdict("rank_growth", session.depth, HOLDS, details)
    return Verdict(
        "rank_growth", session.depth, FAILS, details, witness=dict(details)
    )


def _stabilizer_containment(session: GroupSession, m: int, h: PermGroup):
    """Decide st(m) <= h, for h a subgroup of G, by layer dimensions:
    (log_p|st(m)|, None) when it holds, else (log_p|st(m)|, an element of
    st(m) outside h).

    h & st(m) lies in G & st(m), and their orders are the sums of the layer
    dimensions from level m on, so the containment holds exactly when those
    sums agree.  On failure the witness is the first representative of G at
    a level >= m that h does not contain.
    """
    st = session.G.level_stabilizer(m)
    if h.level_stabilizer(m).order_exponent == st.order_exponent:
        return st.order_exponent, None
    missing = h.containment_witness(st)
    if missing is None:
        raise AssertionError("orders deny a containment that every generator passes")
    return st.order_exponent, missing


def _stabilizer_verdict(claim_id, session, m, h, name):
    exponent, missing = _stabilizer_containment(session, m, h)
    details = {
        "stabilizer_level": m,
        "stabilizer_exponent": exponent,
        f"{name}_exponent": h.order_exponent,
    }
    if missing is not None:
        return Verdict(claim_id, session.depth, FAILS, details, witness=missing)
    return Verdict(claim_id, session.depth, HOLDS, details)


def check_derived_contains_stab(session: GroupSession) -> Verdict:
    """The level-(r+1) stabilizer sits inside the derived subgroup."""
    spec = session.spec
    if session.depth < spec.r + 2:
        raise VacuousCheck(
            f"the level-{spec.r + 1} stabilizer is trivial or everything at "
            f"depth {session.depth}; need depth at least {spec.r + 2}"
        )
    return _stabilizer_verdict(
        "derived_contains_stab", session, spec.r + 1, session.G.derived(), "derived"
    )


def check_second_derived_contains_stab(session: GroupSession) -> Verdict:
    """The level-(r+3) stabilizer sits inside the second derived subgroup."""
    spec = session.spec
    if is_constant(spec):
        return Verdict(
            "second_derived_contains_stab",
            session.depth,
            SKIPPED,
            reason=CONSTANT_HYPOTHESIS,
        )
    if session.depth < spec.r + 4:
        raise VacuousCheck(
            f"the level-{spec.r + 3} stabilizer is trivial or everything at "
            f"depth {session.depth}; need depth at least {spec.r + 4}"
        )
    return _stabilizer_verdict(
        "second_derived_contains_stab",
        session,
        spec.r + 3,
        session.second_derived(),
        "second_derived",
    )


CHECKS = {
    "abelianization": check_abelianization,
    "gamma3_product": check_gamma3_product,
    "key_congruence": check_key_congruence,
    "regular_branch": check_regular_branch,
    "stab1_derived_in_gamma3": check_stab1_derived_in_gamma3,
    "subdirect": check_subdirect,
    "psi2_second_derived": check_psi2_second_derived,
    "rank_growth": check_rank_growth,
    "derived_contains_stab": check_derived_contains_stab,
    "second_derived_contains_stab": check_second_derived_contains_stab,
}


def default_depth(spec: GGSSpec) -> int:
    """Deep enough for the second-derived containment, inside the leaf cap."""
    cap = 0
    d = 1
    while d * spec.p <= DEGREE_CAP:
        d *= spec.p
        cap += 1
    return min(spec.r + 4, cap)


def run_all(
    spec: GGSSpec, depth=None, checks=None, label=None, allow_large: bool = False
) -> Report:
    """Build one session, run every requested check against it, and fold the
    verdicts into a report.  Depths with more than DEGREE_CAP leaves are
    refused with SpecError unless allow_large is set, as in build."""
    if depth is None:
        depth = default_depth(spec)
    if checks is None:
        chosen = list(CHECKS)
    else:
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            raise KeyError(f"unknown checks: {', '.join(unknown)}")
        chosen = [c for c in CHECKS if c in set(checks)]
    session = build(spec, depth, allow_large=allow_large)
    verdicts = []
    times = {}
    for cid in chosen:
        fn = CHECKS[cid]
        t0 = time.perf_counter()
        try:
            v = fn(session)
        except VacuousCheck as exc:
            v = Verdict(cid, depth, VACUOUS, reason=str(exc))
        times[cid] = time.perf_counter() - t0
        verdicts.append(v)
    return Report(
        p=spec.p,
        vectors=[list(v) for v in spec.vectors],
        label=label,
        depth=depth,
        classification=classify_csp(spec),
        verdicts=verdicts,
        wall_times=times,
    )
