import dataclasses
import functools
import random
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import ggsver as gv
from ggsver.checks import (
    CONSTANT_VECTOR_EXCEPTION,
    FAILS,
    HAS_CSP,
    HOLDS,
    SKIPPED,
    VACUOUS,
    _equality_verdict,
    _stabilizer_containment,
    check_abelianization,
    check_derived_contains_stab,
    check_gamma3_product,
    check_key_congruence,
    check_psi2_second_derived,
    check_rank_growth,
    check_regular_branch,
    check_second_derived_contains_stab,
    check_stab1_derived_in_gamma3,
    check_subdirect,
    classify_csp,
)
from ggsver import checks, cli, ggs, permgroups
from ggsver.ggs import DEGREE_CAP, NormalizationImpossible, default_depth, normalize
from ggsver.permgroups import PermGroup, commutator_subgroup
from ggsver.portraits import (
    Perm,
    restrict_to_level,
    rooted,
    subtree_embed,
    subtree_section,
    vertex_word,
)

from census import (
    CENTRAL_CASES,
    CENTRAL_ROW_SPACES,
    GROWTH_SESSIONS,
    P5_DEPTHS,
    P5_ROW_SPACES,
    central_verdict,
    growth_law_mismatch,
    order_mismatches,
    paper_status,
    row_spaces,
    span,
)
from oracles import (
    SchreierSims,
    log_order,
    power_verdict_all_slots,
    reference_commutator,
    reference_normal_closure,
    same_group,
)

SPEC_FIXTURES = ["gs_spec", "const_spec", "r2_spec", "sym5_spec"]

# one directed generator with a symmetric, non-constant defining vector
SYMMETRIC_SINGLE_VECTORS = [
    (5, (1, 2, 2, 1)),
    (5, (1, 0, 0, 1)),
    (5, (0, 1, 1, 0)),
    (7, (1, 2, 3, 3, 2, 1)),
    (7, (0, 0, 1, 1, 0, 0)),
]

# slot 0 of the key-congruence quotient when p=5 `1,2,3,4` at depth 4 is
# handed the reduction of `1,2,0,3` instead of its own
MUTANT_WITNESS = [
    12, 13, 14, 10, 11, 17, 18, 19, 15, 16, 23, 24, 20, 21, 22, 0, 1, 2, 3, 4, 5, 6,
    7, 8, 9, 45, 46, 47, 48, 49, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37,
    38, 39, 40, 41, 42, 43, 44, 73, 74, 70, 71, 72, 50, 51, 52, 53, 54, 56, 57, 58,
    59, 55, 62, 63, 64, 60, 61, 65, 66, 67, 68, 69, 85, 86, 87, 88, 89, 90, 91, 92,
    93, 94, 95, 96, 97, 98, 99, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 119, 115,
    116, 117, 118, 124, 120, 121, 122, 123, 103, 104, 100, 101, 102, 106, 107, 108,
    109, 105, 110, 111, 112, 113, 114,
]


def last_vertex_mutant(spec, depth, gen, vertex):
    """The session of spec at depth with b_gen replaced by b_gen * c, for c
    the p-cycle on the leaves below last-level vertex `vertex`: one label
    off the true generator, and still a tree automorphism."""
    s = gv.build(spec, depth)
    p = spec.p
    images = list(range(p**depth))
    for k in range(p):
        images[vertex * p + k] = vertex * p + (k + 1) % p
    gens = list(s.G.generators)
    gens[gen] = gens[gen] * Perm(images)
    return dataclasses.replace(s, G=PermGroup(p**depth, gens, prime=p))


def member(group, x):
    """x in the group its generators span, decided by SchreierSims, apart
    from the layers."""
    return SchreierSims(group.degree, [g.images for g in group.generators]).contains(
        x.images
    )


def separates(witness, one, other):
    """The witness lies in exactly one of the two groups compared."""
    return member(one, witness) != member(other, witness)


def recheck_witness(s, cid, v):
    """Re-check the witness of a failing verdict of check cid on session s
    apart from the layers, by SchreierSims on the generators of the groups
    the check compares: the rules of TestMutationControls, one per claim."""
    p, n, w = s.spec.p, s.depth, v.witness
    if cid == "abelianization":
        # the witness repeats the details; G' and Phi(G) = G'G^p are closed
        # here from the commutators and powers of G's generators
        gens = [x.images for x in s.G.generators]
        comms = [reference_commutator(x, y) for x in gens for y in gens]
        powers = [(x**p).images for x in s.G.generators]
        exps = [
            log_order(chain.order(), p)
            for chain in (
                SchreierSims(s.G.degree, gens),
                reference_normal_closure(s.G.degree, comms, gens),
                reference_normal_closure(s.G.degree, comms + powers, gens),
            )
        ]
        index, frattini_eq = exps[0] - exps[1], exps[2] == exps[1]
        assert w == v.details
        assert (w["index_exponent"], w["frattini_equals_derived"]) == (index, frattini_eq)
        assert index != s.spec.r + 1 or not frattini_eq
    elif cid == "gamma3_product":
        assert separates(w, s.st1_gamma3(), power_reference(s.gamma3().truncate(n - 1)))
    elif cid == "regular_branch":
        assert separates(w, s.st1_derived(), power_reference(s.derived().truncate(n - 1)))
    elif cid == "key_congruence":
        # a first-level section of the product, outside gamma3 one level down
        assert not member(s.gamma3().truncate(n - 1), w)
    elif cid == "subdirect":
        slot = (v.details["failing_slot"],)
        sections = [subtree_section(g, p, slot) for g in s.derived().generators]
        proj = PermGroup(p ** (n - 1), sections, prime=p)
        assert separates(w, proj, s.G.truncate(n - 1))
    elif cid in ("derived_contains_stab", "second_derived_contains_stab"):
        # in st(m): in G, and trivial on the level-m vertices
        h = s.derived() if cid == "derived_contains_stab" else s.second_derived()
        m = v.details["stabilizer_level"]
        assert restrict_to_level(w, p, m).is_identity() and member(s.G, w)
        assert not member(h, w)
    else:
        raise AssertionError(f"no rule re-checks a failing {cid}")


def placements(k):
    """The generators of k placed below each first-level vertex of the tree
    one level deeper, slot by slot, in generator order within a slot."""
    p, n = k.prime, k.level + 1
    return [subtree_embed(h, p, (j,), n) for j in range(p) for h in k.generators]


def power_reference(k):
    """K^p, the product of p copies of k, closed from its placements."""
    return PermGroup(k.prime ** (k.level + 1), placements(k), prime=k.prime)


class TestClassify:
    @pytest.mark.parametrize(
        "p,rows,expected",
        [
            (3, [(1, 1)], CONSTANT_VECTOR_EXCEPTION),
            (3, [(1, 2)], HAS_CSP),
            (5, [(1, 0, 0, 0), (0, 1, 0, 0)], HAS_CSP),
        ],
    )
    def test_examples(self, p, rows, expected):
        assert classify_csp(gv.validate(p, rows)) == expected


class TestAbelianization:
    def test_index_exponent(self, gs3):
        v = check_abelianization(gs3)
        assert v.holds
        assert v.details["index_exponent"] == 2
        assert v.details["frattini_equals_derived"]

    def test_two_generators_need_depth_three(self, r2_spec):
        # at depth 2 the two directed generators collide, so the index is
        # smaller than p^(r+1): the claim needs depth r+1 to say anything
        g = gv.build(r2_spec, 2).G
        assert g.order_exponent - g.derived().order_exponent == 2
        for depth in (1, 2):
            v = check_abelianization(gv.build(r2_spec, depth))
            assert v.status == VACUOUS and "at least 3" in v.reason
        v3 = check_abelianization(gv.build(r2_spec, 3))
        assert v3.holds and v3.details["index_exponent"] == 3

    def test_one_generator_needs_depth_two(self, gs_spec):
        # at depth 1 G is cyclic of order p, so G' is trivial
        v = check_abelianization(gv.build(gs_spec, 1))
        assert v.status == VACUOUS and "at least 2" in v.reason
        v = check_abelianization(gv.build(gs_spec, 2))
        assert v.holds and v.details["index_exponent"] == 2


class TestGamma3Product:
    def test_holds_at_depth_four(self, gs4):
        assert check_gamma3_product(gs4).holds

    def test_holds_for_two_generators(self, r2_4):
        assert check_gamma3_product(r2_4).holds

    def test_skipped_for_constant(self, const_spec):
        v = check_gamma3_product(gv.build(const_spec, 3))
        assert v.status == SKIPPED
        assert "constant" in v.reason

    def test_vacuous_below_depth_three(self, gs_spec):
        v = check_gamma3_product(gv.build(gs_spec, 2))
        assert v.status == VACUOUS and "at least 3" in v.reason


class TestKeyCongruence:
    def test_holds_for_the_basic_spec(self, gs4):
        v = check_key_congruence(gs4)
        assert v.holds
        assert v.details["m"] == 2

    @pytest.mark.parametrize(
        "p,rows,depth,m",
        [
            (5, [(1, 2, 3, 4)], 4, 4),
            (7, [(1, 2, 3, 4, 5, 6)], 3, 6),
            # two generators; m = 0 leaves only the k = 0 commutator
            (5, [(1, 2, 3, 4), (1, 0, 0, 1)], 4, 4),
            (5, [(1, 0, 0, 0), (0, 1, 0, 0)], 4, 0),
        ],
    )
    def test_holds_beyond_the_basic_spec(self, p, rows, depth, m):
        v = check_key_congruence(gv.build(gv.validate(p, rows), depth))
        assert v.holds
        assert v.details == {"m": m, "reduced_row": list(rows[0])}

    def test_wrong_reduction_fails_with_a_rechecked_witness(self):
        # mutation control: handed the reduction of (1,2,0,3), a row outside
        # this group's row space, the check multiplies commutators of a
        # directed generator from another group, and slot 0 misses gamma3
        s = gv.build(gv.validate(5, [(1, 2, 3, 4)]), 4)
        mutant = normalize(gv.validate(5, [(1, 2, 0, 3)]))
        with mock.patch.object(checks, "normalize", lambda spec: mutant):
            v = check_key_congruence(s)
        assert v.status == FAILS
        assert v.details == {"m": 3, "reduced_row": [1, 2, 0, 3], "failing_slot": 0}
        assert v.witness.tolist() == MUTANT_WITNESS
        # re-checked outside the layers
        gamma = s.gamma3().truncate(3)
        ref = SchreierSims(125, [g.images for g in gamma.generators])
        assert not ref.contains(v.witness.images)

    def test_skipped_for_constant(self, const_spec):
        v = check_key_congruence(gv.build(const_spec, 3))
        assert v.status == SKIPPED
        assert "m = 1" in v.reason or "m != 1" in v.reason

    def test_skipped_for_symmetric(self, sym5_spec):
        v = check_key_congruence(gv.build(sym5_spec, 3))
        assert v.status == SKIPPED
        assert "symmetric" in v.reason

    @pytest.mark.parametrize(
        "p,row",
        # the non-symmetric and the symmetric branch of normalize
        [(3, (0, 1)), (5, (0, 1, 1, 0))],
    )
    def test_skipped_when_no_row_starts_with_a_nonzero_entry(self, p, row):
        spec = gv.validate(p, [row])
        with pytest.raises(NormalizationImpossible):
            normalize(spec)
        v = check_key_congruence(gv.build(spec, 3))
        assert v.status == SKIPPED
        assert "no row starts with a nonzero entry" in v.reason


class TestRegularBranch:
    def test_two_generator_case(self, r2_4):
        v = check_regular_branch(r2_4)
        assert v.holds
        assert "mode" not in v.details

    def test_symmetric_pair(self, sym5_spec):
        v = check_regular_branch(gv.build(sym5_spec, 3))
        assert v.holds

    def test_single_generator_is_flagged_extended(self, gs4):
        v = check_regular_branch(gs4)
        assert v.holds
        assert v.details["mode"] == "extended: r=1 non-constant"

    def test_skipped_for_constant(self, const_spec):
        v = check_regular_branch(gv.build(const_spec, 3))
        assert v.status == SKIPPED

    @pytest.mark.parametrize("p,row", SYMMETRIC_SINGLE_VECTORS)
    def test_skipped_for_a_symmetric_single_vector(self, p, row):
        v = check_regular_branch(gv.build(gv.validate(p, [row]), 3))
        assert v.status == SKIPPED
        assert "symmetric" in v.reason
        assert "gamma3_product" in v.reason

    @pytest.mark.parametrize(
        "p,row,depth",
        [(p, row, n) for p, row in SYMMETRIC_SINGLE_VECTORS for n in (3, 4)]
        + [(5, (1, 2, 2, 1), 5)],
    )
    def test_symmetric_single_vector_misses_the_product_by_index_p(self, p, row, depth):
        # measured: the sections of st(1)' fill a subgroup of index p in
        # G' x ... x G', so the identity the check would assert is false here
        s = gv.build(gv.validate(p, [row]), depth)
        lhs = s.st1_derived()
        rhs = power_reference(s.derived().truncate(depth - 1))
        assert rhs.containment_witness(lhs) is None
        assert rhs.order_exponent - lhs.order_exponent == 1


class TestStab1DerivedInGamma3:
    def test_holds_everywhere(self, gs3, const_spec):
        assert check_stab1_derived_in_gamma3(gs3).holds
        # no constant-vector exclusion on this one
        assert check_stab1_derived_in_gamma3(gv.build(const_spec, 3)).holds

    def test_degenerate_depth_two(self, gs_spec):
        # st(1)' is trivial below depth 3, a containment with no evidence
        for depth in (1, 2):
            session = gv.build(gs_spec, depth)
            assert session.st1_derived().order_exponent == 0
            v = check_stab1_derived_in_gamma3(session)
            assert v.status == VACUOUS and "at least 3" in v.reason


class TestSubdirect:
    def test_all_projections_full(self, gs3):
        v = check_subdirect(gs3)
        assert v.holds
        assert v.details["projection_exponents"] == [v.details["full_exponent"]] * 3

    def test_two_generators(self, r2_spec):
        assert check_subdirect(gv.build(r2_spec, 3)).holds

    def test_skipped_for_constant(self, const_spec):
        v = check_subdirect(gv.build(const_spec, 3))
        assert v.status == SKIPPED
        assert "constant" in v.reason

    @pytest.mark.parametrize("fixture", SPEC_FIXTURES)
    def test_every_slot_projects_like_slot_zero(self, fixture, request):
        # the check builds slot 0 only; G' is normal and the rooted generator
        # permutes the slots, so each slot's projection has its order
        s = gv.build(request.getfixturevalue(fixture), 4)
        p = s.spec.p
        d = s.derived()
        exponents = [
            PermGroup(
                p**3, [subtree_section(g, p, (j,)) for g in d.generators], prime=p
            ).order_exponent
            for j in range(p)
        ]
        assert exponents == [exponents[0]] * p

    def test_projection_above_the_level_below_fails(self, r2_spec):
        # every mutant of b_1 or b_2 below one last-level vertex makes slot
        # 0's projection of G' strictly contain the level-3 group; the
        # witness is a generator of the projection outside it
        for gen in (1, 2):
            for vertex in range(27):
                s = last_vertex_mutant(r2_spec, 4, gen, vertex)
                v = check_subdirect(s)
                assert v.status == FAILS, (gen, vertex)
                if (gen, vertex) == (1, 0):
                    assert v.details == {
                        "full_exponent": 12,
                        "projection_exponents": [13],
                        "failing_slot": 0,
                    }
                full = s.G.truncate(3)
                sections = [subtree_section(g, 3, (0,)) for g in s.derived().generators]
                proj = PermGroup(27, sections, prime=3)
                assert member(proj, v.witness) and not member(full, v.witness)


def _projection(session):
    """The slot-0 projection that check_subdirect's closure
    (_projection_verdict) compares with the level-(N-1) group."""
    verdict = checks._equality_verdict
    with mock.patch.object(checks, "_equality_verdict", wraps=verdict) as eq:
        checks._projection_verdict(session, 1)
    (_, proj, _), _ = eq.call_args
    return proj


class TestSubdirectProjection:
    """_projection_verdict closes slot 0's projection of G' from the slot-0
    sections of the conjugates of G''s kept seeds by powers of a, under the
    sections of st(1)'s generators; it is the group the slot-0 sections of
    every generator of G' span."""

    @pytest.mark.parametrize(
        "fixture,depth",
        [(f, n) for f in ("gs_spec", "r2_spec") for n in (3, 4, 5)]
        + [("sym5_spec", 3), ("sym5_spec", 4)],
    )
    def test_equals_the_sections_of_every_generator(self, fixture, depth, request):
        self._check(gv.build(request.getfixturevalue(fixture), depth))

    def test_equals_the_sections_of_every_generator_on_a_mutant(self, gs_spec):
        self._check(last_vertex_mutant(gs_spec, 5, 1, 0))

    def test_conjugates_by_every_slot_of_the_directed_generators(self):
        # a leading zero makes pi_0(b) trivial: the sections of b's
        # conjugates by a, not b's own, carry the rest of pi_0(st(1))
        self._check(gv.build(gv.validate(3, [(0, 1)]), 4))

    @staticmethod
    def _check(s):
        p = s.spec.p
        sections = [subtree_section(g, p, (0,)) for g in s.derived().generators]
        reference = PermGroup(p ** (s.depth - 1), sections, prime=p)
        proj = _projection(s)
        assert proj.order_exponent == reference.order_exponent
        assert proj.containment_witness(reference) is None
        assert reference.containment_witness(proj) is None


# the conftest specs at N = 3, 4 and 5, sym5 at N = 3 and 4
SUBDIRECT_CASES = [(f, n) for f in ("gs_spec", "r2_spec") for n in (3, 4, 5)] + [
    ("sym5_spec", 3),
    ("sym5_spec", 4),
]

# the p=3 and p=5 row spaces of dimension r <= 2 that are not the constant
# vector
NONCONSTANT_ROWS = [
    (p, rows)
    for p in (3, 5)
    for r in (1, 2)
    for rows in row_spaces(p, r)
    if not gv.ggs.is_constant(gv.validate(p, rows))
]


def _subdirect_run(s):
    """check_subdirect's verdict on s, and whether it reached the closure
    (_projection_verdict) and how many normal closures it made, with G',
    st(1) and G's layers built first."""
    s.derived(), s.st1(), s.G.chain
    with mock.patch.object(
        checks, "_projection_verdict", wraps=checks._projection_verdict
    ) as fallback, mock.patch.object(
        permgroups, "_normal_closure", wraps=permgroups._normal_closure
    ) as closure:
        v = check_subdirect(s)
    return v, fallback.called, closure.call_count


def _agrees_with_every_slot(s):
    """check_subdirect gives the status, details and witness of the closure
    of every slot's projection."""
    v = check_subdirect(s)
    details, witness = checks._projection_verdict(s, s.spec.p)
    assert v.status == (HOLDS if witness is None else FAILS)
    assert v.details == details and v.witness == witness


class TestSubdirectCertificate:
    """When t passes _rooted_shift, check_subdirect holds with no closure
    once G''s slot-0 pivots count log_p|G_(N-1)| and G_(N-1) holds the
    slot-0 sections of st(1)'s generators; else it closes projections.
    Either way it gives the verdict of the closure of every slot."""

    @pytest.mark.parametrize("fixture,depth", SUBDIRECT_CASES)
    def test_build_sessions_are_certified(self, fixture, depth, request):
        s = gv.build(request.getfixturevalue(fixture), depth)
        v, fell_back, closures = _subdirect_run(s)
        assert v.holds and not fell_back and closures == 0
        _agrees_with_every_slot(s)

    @pytest.mark.parametrize("p,rows,count", [(3, [(0, 1)], 9), (5, [(1, 2, 0, 3)], 25)])
    def test_a_short_count_closes_slot_zero_alone(self, p, rows, count):
        s = gv.build(gv.validate(p, rows), 4)
        assert checks._slot_zero_pivots(s.derived()) == count
        v, fell_back, closures = _subdirect_run(s)
        assert v.holds and fell_back and closures == 1
        assert v.details == {"full_exponent": count + 1, "projection_exponents": [count + 1] * p}
        _agrees_with_every_slot(s)

    @pytest.mark.parametrize("fixture,depth", SUBDIRECT_CASES)
    def test_other_generating_sets(self, fixture, depth, request):
        s = gv.build(request.getfixturevalue(fixture), depth)
        for gens in _other_generating_sets(s):
            _agrees_with_every_slot(_with_generators(s, gens))

    def test_mutants(self, request):
        # the mutants of TestMutantSweep; the certificate only ever says
        # holds, so each that fails reached the closure
        failed = 0
        for fixture in ("gs_spec", "r2_spec", "sym5_spec"):
            spec = request.getfixturevalue(fixture)
            for depth, gen in product((3, 4), range(spec.r + 1)):
                for vertex in (0, spec.p ** (depth - 1) - 1):
                    s = last_vertex_mutant(spec, depth, gen, vertex)
                    v, fell_back, _ = _subdirect_run(s)
                    assert fell_back or v.holds, (fixture, depth, gen, vertex)
                    failed += v.status == FAILS
                    _agrees_with_every_slot(s)
        assert failed


class TestSlotZeroBound:
    """The slot-0 pivots of G' bound log_p|pi_0(G')| from below, whether or
    not the bound is tight; a count that meets log_p|G_(N-1)| decides only
    with st(1)'s slot-0 sections inside G_(N-1)."""

    @given(
        case=st.sampled_from(NONCONSTANT_ROWS),
        depth=st.sampled_from((3, 4)),
    )
    def test_pivots_bound_the_closed_projection(self, case, depth):
        p, rows = case
        s = gv.build(gv.validate(p, rows), depth)
        details, _ = checks._projection_verdict(s, 1)
        assert checks._slot_zero_pivots(s.derived()) <= details["projection_exponents"][0]
        _agrees_with_every_slot(s)

    def test_a_full_count_needs_st1_inside_the_level_below(self):
        # p=3 `1,0` at depth 4, b_1 mutated below last-level vertex 0: the
        # slot-0 pivots count log_p|G_3| = 10, but a slot-0 section of a
        # generator of st(1) lies outside G_3, and the projection has order
        # 3^11; the sifts send the check to the closure, which names it
        s = last_vertex_mutant(gv.validate(3, [(1, 0)]), 4, 1, 0)
        assert checks._slot_zero_pivots(s.derived()) == s.G.truncate(3).order_exponent == 10
        v, fell_back, _ = _subdirect_run(s)
        assert v.status == FAILS and fell_back
        assert v.details == {"full_exponent": 10, "projection_exponents": [11], "failing_slot": 0}
        recheck_witness(s, "subdirect", v)


class TestPsi2SecondDerived:
    def test_two_generators_depth_four(self, r2_4):
        assert check_psi2_second_derived(r2_4).holds

    def test_five_regular_pair(self, sym5_spec):
        assert check_psi2_second_derived(gv.build(sym5_spec, 3)).holds

    def test_skipped_for_single_generator(self, gs3):
        v = check_psi2_second_derived(gs3)
        assert v.status == SKIPPED
        assert "two directed generators" in v.reason


def _psi2_sifted(session):
    """The verdict of psi2_second_derived, and the elements it sifted into
    G'' in order."""
    second = session.second_derived()
    real = PermGroup.contains
    sifted = []

    def contains(group, x):
        if group is second:
            sifted.append(x)
        return real(group, x)

    with mock.patch.object(PermGroup, "contains", contains):
        v = check_psi2_second_derived(session)
    return v, sifted


def _scan_every_vertex(session):
    """The embeddings a scan of every level-2 vertex sifts into G'', up to
    the first outside it, with that vertex and embedding, or None."""
    p, n = session.spec.p, session.depth
    second = session.second_derived()
    inner = session.derived().truncate(n - 2)
    tried = []
    for k in range(p * p):
        word = vertex_word(k, 2, p)
        for h in inner.generators:
            tried.append(subtree_embed(h, p, word, n))
            if not second.contains(tried[-1]):
                return tried, list(word), tried[-1]
    return tried, None, None


def _off_level_two(spec, depth):
    """A session of spec whose G is generated by a and two elements of
    st(2), the p-cycle's action placed below (0,0) and (0,1): G permutes
    the level-2 vertices only through a, so not transitively."""
    s = gv.build(spec, depth)
    p = spec.p
    cycle = rooted(p, depth - 2, 1).to_perm(depth - 2)
    deep = [subtree_embed(cycle, p, (0, j), depth) for j in range(2)]
    return dataclasses.replace(s, G=PermGroup(p**depth, [s.G.generators[0], *deep], prime=p))


class TestPsi2OneVertex:
    """psi2_second_derived sifts only the embeddings at (0,0) when a is a
    rooted automorphism and some other generator fixes level 1 and acts as
    one below a first-level vertex, and scans every vertex otherwise; the
    verdict is the full scan's either way."""

    @staticmethod
    def _agrees_with_the_full_scan(s, one_vertex):
        assert checks._one_vertex_decides(s) == one_vertex
        v, sifted = _psi2_sifted(s)
        tried, failing, witness = _scan_every_vertex(s)
        assert v.witness == witness and v.details.get("failing_vertex") == failing
        if one_vertex:
            # one sift per generator of G'_(N-2), each placed at (0,0),
            # where the full scan starts
            inner = s.derived().truncate(s.depth - 2)
            assert sifted == tried[: len(inner.generators)]
        else:
            assert sifted == tried
        return v, tried

    @pytest.mark.parametrize(
        "fixture,depth", [("r2_spec", n) for n in (3, 4, 5)] + [("sym5_spec", n) for n in (3, 4)]
    )
    def test_a_built_session_sifts_one_vertex(self, fixture, depth, request):
        s = gv.build(request.getfixturevalue(fixture), depth)
        v, tried = self._agrees_with_the_full_scan(s, True)
        inner = s.derived().truncate(depth - 2)
        assert v.holds and len(tried) == s.spec.p**2 * len(inner.generators)

    @pytest.mark.parametrize("gen,vertex", [(0, 0), (0, 26)])
    def test_a_mutant_scans_every_vertex(self, r2_spec, gen, vertex):
        # a times a p-cycle below one last-level vertex is no rooted
        # automorphism
        self._agrees_with_the_full_scan(last_vertex_mutant(r2_spec, 4, gen, vertex), False)

    @pytest.mark.parametrize("gen,vertex", [(1, 0), (2, 0), (2, 26)])
    def test_a_directed_mutant_sifts_one_vertex(self, r2_spec, gen, vertex):
        # b_1 = (a, 1, b_1) and b_2 = (1, a, b_2) at p = 3, and the mutant
        # changes one section of one of them, so a section a is left
        self._agrees_with_the_full_scan(last_vertex_mutant(r2_spec, 4, gen, vertex), True)

    @pytest.mark.parametrize("depth", [4, 5])
    def test_a_group_off_level_two_transitivity_scans_every_vertex(self, r2_spec, depth):
        self._agrees_with_the_full_scan(_off_level_two(r2_spec, depth), False)

    def test_the_shape_test_sifts_nothing_and_truncates_nothing(self, r2_spec):
        s = gv.build(r2_spec, 5)
        sift = mock.patch.object(PermGroup, "contains", side_effect=AssertionError("sifted"))
        cut = mock.patch.object(PermGroup, "truncate", side_effect=AssertionError("truncated"))
        with sift, cut:
            assert checks._one_vertex_decides(s)
            assert not checks._one_vertex_decides(last_vertex_mutant(r2_spec, 5, 0, 0))
        assert s.G._chain is None

    def test_nothing_to_embed_asks_nothing(self, sym5_spec):
        # at depth 3, G'_(N-2) is the level-1 quotient of G', which is
        # trivial and has no generators, so nothing is embedded; the shape
        # test sifts nothing and gamma3_product has built G'' already, so
        # the check sifts nothing
        real_check, real_contains = checks.CHECKS["psi2_second_derived"], PermGroup.contains
        sifted, counted = [], []

        def contains(group, x):
            sifted.append(x)
            return real_contains(group, x)

        def check(session):
            before = len(sifted)
            v = real_check(session)
            counted.append(len(sifted) - before)
            return v

        with mock.patch.object(PermGroup, "contains", contains):
            with mock.patch.dict(checks.CHECKS, {"psi2_second_derived": check}):
                rep = gv.run_all(sym5_spec, depth=3)
        v = next(v for v in rep.verdicts if v.claim_id == "psi2_second_derived")
        assert v.holds
        assert v.details == {"second_derived_exponent": 20, "inner_derived_exponent": 0}
        assert counted == [0]


class TestRankGrowth:
    def test_single_generator(self, gs3):
        v = check_rank_growth(gs3)
        assert v.holds
        assert v.details["ranks"] == [[2, 2]]

    def test_two_generators(self, r2_spec):
        v = check_rank_growth(gv.build(r2_spec, 3))
        assert v.holds
        assert v.details["ranks"] == [[2, 2], [3, 3]]

    def test_vacuous_at_depth_one(self, gs_spec):
        # level 1 has no rank to compare, so a verdict there has no evidence
        v = check_rank_growth(gv.build(gs_spec, 1))
        assert v.status == VACUOUS and "at least 2" in v.reason


class TestStabilizerContainments:
    def test_derived_contains_second_level(self, gs4):
        v = check_derived_contains_stab(gs4)
        assert v.holds
        assert v.details["stabilizer_level"] == 2

    def test_vacuous_at_threshold(self, gs_spec):
        v = check_derived_contains_stab(gv.build(gs_spec, 2))
        assert v.status == VACUOUS and "at least 3" in v.reason

    def test_second_derived_vacuous_below_threshold(self, gs4):
        v = check_second_derived_contains_stab(gs4)
        assert v.status == VACUOUS and "at least 5" in v.reason

    def test_second_derived_skipped_for_constant(self, const_spec):
        v = check_second_derived_contains_stab(gv.build(const_spec, 4))
        assert v.status == SKIPPED


class TestOrderDecidedStabilizers:
    @pytest.mark.parametrize("depth", [3, 4])
    @pytest.mark.parametrize("name", SPEC_FIXTURES)
    def test_st1_handle_is_the_level_one_stabilizer(self, request, name, depth):
        session = gv.build(request.getfixturevalue(name), depth)
        g = session.G
        # st1() closes G' first, so that G's layers grow from it; then it
        # makes no closure
        session.derived()
        g.chain
        with mock.patch.object(
            permgroups, "_close", side_effect=AssertionError("closure ran")
        ):
            st1 = session.st1()
            assert len(st1.generators) == session.spec.p * session.spec.r
            assert same_group(st1, g.level_stabilizer(1))
        # G's own layers from level 1 on, shared, and nothing on level 0
        assert st1.chain.levels[0].dim == 0
        for k in range(1, depth):
            assert st1.chain.levels[k] is g.chain.levels[k]

    @pytest.mark.parametrize("name", ["gs_spec", "const_spec", "r2_spec"])
    def test_helper_agrees_with_containment_witness(self, request, name):
        spec = request.getfixturevalue(name)
        session = gv.build(spec, 4)
        d = session.derived()
        # st(r+1) lies in G'; st(1) does not, since b_1 is outside G'
        for m, contained in ((spec.r + 1, True), (1, False)):
            st = session.G.level_stabilizer(m)
            exponent, witness = _stabilizer_containment(session, m, d)
            assert exponent == st.order_exponent
            assert (witness is None) == contained
            assert (d.containment_witness(st) is None) == contained
            if witness is not None:
                assert st.contains(witness)
                assert not d.contains(witness)

    def test_holding_containment_builds_no_stabilizer_handle(self, gs4):
        # st(2) <= G' is read off the layer dimensions alone
        d = gs4.derived()
        exponent = gs4.G.level_stabilizer(2).order_exponent
        with mock.patch.object(
            PermGroup, "level_stabilizer", side_effect=AssertionError("handle built")
        ):
            assert _stabilizer_containment(gs4, 2, d) == (exponent, None)


class TestSessionMemo:
    def test_shared_subgroups_are_memoized_once(self, gs_spec):
        s = gv.build(gs_spec, 4)
        assert s.second_derived() is s.second_derived()
        assert s.gamma3() is s.gamma3() and s.st1_derived() is s.st1_derived()

    @pytest.mark.parametrize("name", SPEC_FIXTURES)
    def test_the_session_alone_remembers_g_prime(self, request, name):
        s = gv.build(request.getfixturevalue(name), 3)
        assert s.derived() is s.derived()
        # the generators have order p, so Phi(G) = G'G^p is G' itself
        assert s.frattini() is s.derived()
        # a group handle keeps no memo: each derived() is a new closure
        assert s.G.derived() is not s.G.derived()

    def test_standalone_checks_share_the_closures(self, gs_spec):
        s = gv.build(gs_spec, 4)

        def run():
            assert check_regular_branch(s).holds
            assert check_gamma3_product(s).holds

        with mock.patch(
            "ggsver.permgroups.normal_closure", wraps=permgroups.normal_closure
        ) as closure:
            calls = _closures(run)
        # none through normal_closure: K, G'', gamma3 and G' are closed from
        # words in G's generators and need no sift, st(1)' grows from G''
        # without it, [st(1)', st(1)] from K, and the level-3 groups are
        # truncations
        assert closure.call_args_list == []
        # K, G'', gamma3, G', G, st(1)' and [st(1)', st(1)], each once
        made = [layers for _, _, layers in calls]
        assert len(made) == len(set(map(id, made))) == 7


def _closures(run):
    """(tree depth, start, layers made) of every closure run() makes, in
    order; the start is "seeds" for a cold closure of seeds under other
    conjugators, and None or the layers it grew from otherwise."""
    calls = []
    real = permgroups._close

    def record(tree, seeds, conj_by, start=None, ambient=None, *, central=False):
        out = real(tree, seeds, conj_by, start, ambient, central=central)
        cold_seeds = seeds is not conj_by and start is None
        calls.append((tree.depth, "seeds" if cold_seeds else start, out[0]))
        return out

    with mock.patch.object(permgroups, "_close", side_effect=record):
        run()
    return calls


def _run_session(run):
    """run(), and the session the run_all inside it built."""
    sessions = []
    real = checks.build

    def build(*args, **kwargs):
        sessions.append(real(*args, **kwargs))
        return sessions[-1]

    with mock.patch.object(checks, "build", side_effect=build):
        out = run()
    [session] = sessions
    return out, session


class TestClosureCensus:
    """Each subgroup is closed once, at the session's depth; the groups the
    checks compare one or two levels down are truncations of those."""

    @pytest.mark.parametrize(
        "p,rows,depth",
        [(5, [(1, 1, 1, 1), (1, 0, 0, 1)], 5), (3, [(1, 0), (0, 1)], 6)],
    )
    def test_run_all_closes_nothing_below_the_depth(self, p, rows, depth):
        run = lambda: gv.run_all(gv.validate(p, rows), depth)
        calls, s = _run_session(lambda: _closures(run))
        # K, G'', gamma3, G', G, st(1)' and [st(1)', st(1)]; G''s slot-0
        # pivots certify subdirect, so no projection closes one level down
        assert sorted(d for d, _, _ in calls) == [depth] * 7
        grown = {id(layers): start for _, start, layers in calls}
        k, second, derived = s._memo["k"].chain, s.second_derived().chain, s.derived().chain
        gamma = s.gamma3().chain
        # K closes first, from seeds, the one cold closure of the run; G''
        # grows from it and needs no seed beyond N1's; gamma3 grows from
        # G'', G' from gamma3 and G's own layers from G', so none closes
        # from its own generators
        assert calls[0][2] is k and grown[id(k)] == "seeds"
        assert None not in grown.values() and list(grown.values()).count("seeds") == 1
        assert grown[id(second)] is k and grown[id(gamma)] is second
        assert grown[id(derived)] is gamma and grown[id(s.G.chain)] is derived
        # st(1)' grows from G'' too, and [st(1)', st(1)] from K
        assert grown[id(s.st1_derived().chain)] is second
        assert grown[id(s.st1_gamma3().chain)] is k

    def test_table_closes_g_and_its_derived_subgroup(self, capsys):
        # K from seeds, G'' from K, gamma3 from G'', G' from gamma3 and G
        # from G', each once at depth 6
        args = ["table", "--p", "3", "--vectors", "1,0;0,1", "--max-depth", "6"]
        calls = _closures(lambda: cli.main(args))
        (d0, s0, k), (d1, s1, second), (d2, s2, gamma), (d3, s3, derived), (d4, s4, _) = calls
        assert (d0, s0, d1, s1, d2, s2) == (6, "seeds", 6, k, 6, second)
        assert (d3, s3, d4, s4) == (6, gamma, 6, derived)
        assert capsys.readouterr().out.splitlines()[-1].split()[:4] == ["6", "298", "3", "3"]

    @pytest.mark.parametrize("cid", list(gv.CHECKS))
    def test_each_check_alone_grows_g_from_g_prime(self, r2_spec, cid):
        s = gv.build(r2_spec, 4)
        starts = [start for _, start, _ in _closures(lambda: gv.CHECKS[cid](s))]
        if cid == "second_derived_contains_stab":
            # vacuous at depth 4
            assert starts == [] and s.G._chain is None
            return
        # key_congruence and psi2_second_derived read no layers of G, yet
        # the derived series grows G's from G''s at once
        assert starts[0] == "seeds" and None not in starts
        assert starts.count(s.derived().chain) == 1

    @pytest.mark.parametrize(
        "p,rows,depth,counts",
        # closures made by run_all over every check, then over each check
        # alone in CHECKS order: a check that reads G' closes K, G'',
        # gamma3, G' and G, whose layers grow from G''s at once; subdirect
        # closes no projection, as G''s slot-0 pivots certify it; the
        # constant vector makes no K
        [
            (5, [(1, 1, 1, 1), (1, 0, 0, 1)], 4, [7, 5, 7, 0, 6, 6, 5, 5, 5, 5, 0]),
            (3, [(1, 2)], 6, [7, 5, 7, 5, 6, 6, 5, 0, 5, 5, 5]),
            (3, [(1, 1)], 5, [5, 4, 0, 0, 0, 5, 0, 0, 4, 4, 0]),
        ],
    )
    def test_st1_derived_and_gamma3_grow_from_g_second(self, p, rows, depth, counts):
        # whatever the selection, the closures that grow from G'' are
        # exactly those of st(1)' and gamma3 that it makes, and G' grows
        # from gamma3: G'' needs no seed here beyond the first closure's,
        # so it is that closure
        spec = gv.validate(p, rows)
        made = []
        for chosen in [None, *([cid] for cid in gv.CHECKS)]:
            run = lambda: gv.run_all(spec, depth, checks=chosen)
            calls, s = _run_session(lambda: _closures(run))
            memo = s._memo
            warm = [memo[k].chain for k in ("st1_derived", "gamma3") if k in memo]
            second = memo["second_derived"].chain if warm else None
            from_second = [layers for _, start, layers in calls if start is second]
            assert sorted(map(id, from_second)) == sorted(map(id, warm)), chosen
            if warm:
                grown = {id(layers): start for _, start, layers in calls}
                assert grown[id(memo["derived"].chain)] is memo["gamma3"].chain, chosen
            made.append(len(calls))
        assert made == counts


class TestWitnesses:
    def test_failing_containment_has_siftable_witness(self, gs3):
        # st(1) is strictly larger than the derived subgroup, so asking the
        # derived subgroup to contain it must fail with a witness
        st1 = gs3.G.level_stabilizer(1)
        d = gs3.derived()
        w = d.containment_witness(st1)
        assert w is not None
        assert st1.contains(w)
        assert not d.contains(w)

    def test_failing_verdicts_carry_witnesses(self, r2_spec):
        # a mutant session whose G lacks the second directed generator: its
        # abelianization has index p^2, not p^(r+1) = p^3
        session = dataclasses.replace(
            gv.build(r2_spec, 3), G=gv.build(gv.validate(3, [(1, 0)]), 3).G
        )
        v = check_abelianization(session)
        assert v.status == FAILS and v.witness is not None
        assert v.witness["index_exponent"] == 2


class TestEqualityVerdict:
    def test_equal_groups_are_sifted_one_way(self, gs4):
        g = gs4.G
        lhs, rhs = g.derived(), commutator_subgroup(g, g, g)
        # the rhs -> lhs sweep would ask lhs about rhs's generators
        with mock.patch.object(lhs, "containment_witness", wraps=lhs.containment_witness) as sweep:
            details, witness = _equality_verdict(lhs, rhs, {})
        assert witness is None and sweep.call_count == 0
        assert details["lhs_exponent"] == details["rhs_exponent"]

    def test_proper_subgroup_is_named_by_a_generator_of_the_larger(self, gs4):
        lhs, rhs = gs4.derived(), gs4.G.level_stabilizer(1)
        _, witness = _equality_verdict(lhs, rhs, {})
        assert witness is lhs.containment_witness(rhs)
        assert rhs.contains(witness) and not lhs.contains(witness)

    def test_larger_lhs_is_named_by_its_own_generator(self, gs4):
        lhs, rhs = gs4.G.level_stabilizer(1), gs4.derived()
        _, witness = _equality_verdict(lhs, rhs, {})
        assert witness is rhs.containment_witness(lhs)
        assert lhs.contains(witness) and not rhs.contains(witness)


def _power_sides(session):
    """(check, (lhs, K) closed cold, (lhs, K) the session's) for the two
    checks that compare lhs with K^p.  The cold sides are closed here with
    commutator_subgroup and no start; the session grows st(1)' from G'' and
    gamma3 from N1 <= G''."""
    s, n = session, session.depth
    g, d, st1 = s.G, s.derived(), s.st1()
    st1d = commutator_subgroup(st1, st1, g)
    gamma = commutator_subgroup(d, g, g)
    down = d.truncate(n - 1)
    return [
        (
            check_gamma3_product,
            (commutator_subgroup(st1d, st1, g), gamma.truncate(n - 1)),
            (s.st1_gamma3(), s.gamma3().truncate(n - 1)),
        ),
        (check_regular_branch, (st1d, down), (s.st1_derived(), down)),
    ]


class TestPowerVerdict:
    """gamma3_product and regular_branch decide lhs == K^p from K's
    generators placed in each first-level slot; no layers are built for K^p,
    and the witness is the one a comparison with K^p's own layers names."""

    @staticmethod
    def _holding_sifts(check, s):
        """(lhs, K, [(group, element)]) for every sift _power_verdict makes
        while check holds on session s."""
        real_verdict, real_contains = checks._power_verdict, PermGroup.contains
        seen, sifted = [], []

        def contains(group, x):
            sifted.append((group, x))
            return real_contains(group, x)

        def verdict(lhs, k, details):
            seen.append((lhs, k))
            with mock.patch.object(PermGroup, "contains", contains):
                return real_verdict(lhs, k, details)

        with mock.patch.object(checks, "_power_verdict", side_effect=verdict):
            assert check(s).holds
        [(lhs, k)] = seen
        return lhs, k, sifted

    @pytest.mark.parametrize("check", [check_gamma3_product, check_regular_branch])
    def test_holding_path_sifts_only_the_placements(self, r2_spec, check):
        lhs, k, sifted = self._holding_sifts(check, gv.build(r2_spec, 5))
        # |K.generators| sifts, each of a slot-0 placement into lhs: lhs was
        # closed in G, whose a moves slot 0 to every other slot; none of
        # lhs's generators and nothing into K
        assert len(sifted) == len(k.generators)
        assert all(group is lhs for group, _ in sifted)
        assert [x for _, x in sifted] == placements(k)[: len(k.generators)]

    @pytest.mark.parametrize("check", [check_gamma3_product, check_regular_branch])
    def test_a_mutated_root_sifts_every_slot(self, r2_spec, check):
        # a times a p-cycle on one last-level vertex is no rooted
        # automorphism, so slot 0 decides nothing: p * |K.generators| sifts,
        # every placement into lhs, and the comparison still holds at depth 3
        s = last_vertex_mutant(r2_spec, 3, 0, 0)
        lhs, k, sifted = self._holding_sifts(check, s)
        assert not checks._one_slot_decides(lhs)
        assert len(sifted) == s.spec.p * len(k.generators)
        assert all(group is lhs for group, _ in sifted)
        assert [x for _, x in sifted] == placements(k)

    @pytest.mark.parametrize("fixture", SPEC_FIXTURES)
    def test_witness_matches_a_comparison_with_the_reference(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        n = 4
        sessions = [gv.build(spec, n)]
        sessions += [last_vertex_mutant(spec, n, gen, 0) for gen in range(spec.r + 1)]
        failed = 0
        for s in sessions:
            for check, (lhs, k), warm in _power_sides(s):
                ref = power_reference(k)
                # the first generator of the cold lhs outside K^p, else the
                # first placement outside lhs
                want = next((g for g in lhs.generators if not ref.contains(g)), None)
                if want is None and lhs.order_exponent != ref.order_exponent:
                    want = next(x for x in placements(k) if not lhs.contains(x))
                details, witness = checks._power_verdict(lhs, k, {})
                assert witness == want
                assert details == {
                    "lhs_exponent": lhs.order_exponent,
                    "rhs_exponent": ref.order_exponent,
                }
                # the warm handles sift their seeds first, so they name it too
                assert checks._power_verdict(*warm, {}) == (details, want)
                v = check(s)
                if v.status != SKIPPED:
                    assert v.witness == want
                failed += want is not None
        # the mutants make comparisons fail
        assert failed


class TestOneSlotPowerVerdict:
    """_power_verdict sifts the slot-0 placements alone when lhs was closed
    in a group whose transversal is a rooted automorphism, and gives the
    details and witness of the all-slot reference in every case: sessions,
    their last-vertex mutants (gen 0 mutates a, so every slot is sifted
    there) and handles closed in nothing."""

    @pytest.mark.parametrize(
        "fixture,depth", [(f, n) for f in SPEC_FIXTURES for n in (3, 4, 5)]
    )
    def test_agrees_with_the_all_slot_reference(self, fixture, depth, request):
        spec = request.getfixturevalue(fixture)
        sessions = [gv.build(spec, depth)]
        sessions += [last_vertex_mutant(spec, depth, gen, 0) for gen in range(spec.r + 1)]
        one_slot = failed = 0
        for i, s in enumerate(sessions):
            for _, cold, warm in _power_sides(s):
                for lhs, k in (cold, warm):
                    decides = checks._one_slot_decides(lhs)
                    # the session's a, and a mutant's unless gen 0 mutates it
                    assert decides == (i != 1), (i, decides)
                    one_slot += decides
                    got = checks._power_verdict(lhs, k, {})
                    assert got == power_verdict_all_slots(lhs, k, {})
                    failed += got[1] is not None
        assert one_slot
        if depth > 3:
            # the mutants make comparisons fail
            assert failed

    @pytest.mark.parametrize("fixture", ["gs_spec", "r2_spec"])
    def test_a_handle_closed_in_nothing_sifts_every_slot(self, fixture, request):
        s = gv.build(request.getfixturevalue(fixture), 4)
        for _, _, (lhs, k) in _power_sides(s):
            bare = PermGroup(lhs.degree, lhs.generators, prime=lhs.prime)
            assert bare.origin.ambient is None and not checks._one_slot_decides(bare)
            got = checks._power_verdict(bare, k, {})
            assert got == power_verdict_all_slots(bare, k, {})
            assert got == checks._power_verdict(lhs, k, {})


def explicit_statuses(s):
    """The statuses of regular_branch, gamma3_product,
    stab1_derived_in_gamma3 and subdirect on session s, from closures of
    explicit generating sets: st(1) from the representatives of
    G.level_stabilizer(1), each projection of G' from the slot sections of
    G''s generators, the level-(N-1) group from the restrictions of G's."""
    p, n = s.spec.p, s.depth
    g = PermGroup(s.G.degree, s.G.generators, prime=p)
    st1 = PermGroup(g.degree, g.level_stabilizer(1).generators, prime=p)
    st1d, d = st1.derived(), g.derived()
    gamma = commutator_subgroup(d, g, g)
    full = PermGroup(p ** (n - 1), [restrict_to_level(x, p, n - 1) for x in g.generators], prime=p)
    projections = [
        PermGroup(p ** (n - 1), [subtree_section(x, p, (i,)) for x in d.generators], prime=p)
        for i in range(p)
    ]
    holds = {
        "regular_branch": same_group(st1d, power_reference(d.truncate(n - 1))),
        "gamma3_product": same_group(
            commutator_subgroup(st1d, st1, st1), power_reference(gamma.truncate(n - 1))
        ),
        "stab1_derived_in_gamma3": gamma.containment_witness(st1d) is None,
        "subdirect": all(same_group(proj, full) for proj in projections),
    }
    return {cid: HOLDS if ok else FAILS for cid, ok in holds.items()}


class TestMutantSweep:
    """On every last-vertex mutant, at last-level vertices 0 and p^(N-1)-1,
    the checks that lean on the generators' shape give the statuses that
    closures of explicit generating sets give.  A mutant of a is no rooted
    automorphism, and a^p is no longer 1."""

    @pytest.mark.parametrize(
        "fixture,depth", [(f, n) for f in ("gs_spec", "r2_spec", "sym5_spec") for n in (3, 4)]
    )
    def test_statuses_match_explicit_closures(self, fixture, depth, request):
        spec = request.getfixturevalue(fixture)
        for gen in range(spec.r + 1):
            for vertex in (0, spec.p ** (depth - 1) - 1):
                s = last_vertex_mutant(spec, depth, gen, vertex)
                want = explicit_statuses(s)
                got = {cid: gv.CHECKS[cid](s).status for cid in want}
                assert got == want, (gen, vertex)

    @pytest.mark.parametrize(
        "fixture,depth,vertex,cid",
        [
            (f, n, v, cid)
            for f, n, last in (("gs_spec", 3, 8), ("r2_spec", 4, 26))
            for v in (0, last)
            for cid in ("regular_branch", "gamma3_product")
        ]
        + [("sym5_spec", 4, 0, "subdirect")],
    )
    def test_a_mutated_root_fails(self, fixture, depth, vertex, cid, request):
        # each held while st(1) left out a^p, or while subdirect read one
        # slot for all p whatever a was; the explicit closures disagree
        s = last_vertex_mutant(request.getfixturevalue(fixture), depth, 0, vertex)
        assert gv.CHECKS[cid](s).status == FAILS

    def test_a_root_with_sections_reads_every_slot(self, gs_spec):
        # a times the p-cycle below each level-2 vertex (j, 0) moves level 1
        # as a does, but its sections are not trivial: every projection of
        # G' is the level-2 group, and the one-slot projection under
        # pi_0(st(1)) reports fails here
        s = gv.build(gs_spec, 3)
        a, b = s.G.generators
        cycle = rooted(3, 1, 1).to_perm(1)
        for j in range(3):
            a = a * subtree_embed(cycle, 3, (j, 0), 3)
        s = dataclasses.replace(s, G=PermGroup(27, [a, b], prime=3))
        assert not checks._rooted_shift(a, 3)
        want = explicit_statuses(s)
        assert {cid: gv.CHECKS[cid](s).status for cid in want} == want
        assert check_subdirect(s).details == {"full_exponent": 3, "projection_exponents": [3] * 3}

    def test_st1_of_a_mutated_root_holds_its_p_th_power(self, gs_spec):
        # at p=3 `1,2`, N=3, a^p is not 1 on the gen-0 mutant: without it
        # the generators of st(1) span 3^6 of its 3^9, and st(1)' 3^3 of 3^5
        s = last_vertex_mutant(gs_spec, 3, 0, 0)
        a = s.G.generators[0]
        assert not (a**3).is_identity()
        st1 = s.st1()
        assert st1.order_exponent == 9 and (a**3) in st1.origin.elements
        assert same_group(PermGroup(27, st1.generators, prime=3), st1)
        assert s.st1_derived().order_exponent == 5


def _with_generators(s, gens):
    """Session s with G generated by gens, and an empty memo."""
    return dataclasses.replace(s, G=PermGroup(s.G.degree, gens, prime=s.spec.p))


def _other_generating_sets(s):
    """Generating sets of G other than a, b_1, ..., b_r in some order: a
    only as a b_1, listed last; b_1 a listed before a, first; and the b_i
    reversed, then b_1 a and a."""
    a, b1, *rest = s.G.generators
    return [[b1, *rest, a * b1], [b1 * a, a, b1, *rest], [*reversed([b1, *rest]), b1 * a, a]]


def _statuses_and_details(s):
    return {cid: (v.status, v.details) for cid, v in ((c, gv.CHECKS[c](s)) for c in gv.CHECKS)}


GENERATOR_ORDER_CASES = [
    (p, rows, n)
    for p, rows in [(3, [(1, 2)]), (3, [(1, 0), (0, 1)]), (5, [(1, 1, 1, 1), (1, 0, 0, 1)])]
    for n in (3, 4)
] + [(5, [(1, 2, 3, 4)], 4)]


class TestGeneratorOrder:
    """No verdict depends on how G's generating set is listed: a is
    ggs.transversal(G), the first generator that moves level 1, and st(1)
    is generated by Reidemeister-Schreier on its powers.  Every order of a,
    b_1, ..., b_r gives the build session's status and details on every
    check, and other generating sets of the same group give the statuses
    closures of explicit generating sets give."""

    @pytest.mark.parametrize("p,rows,depth", GENERATOR_ORDER_CASES)
    def test_every_order_gives_the_build_verdicts(self, p, rows, depth):
        s = gv.build(gv.validate(p, rows), depth)
        want = _statuses_and_details(s)
        gens = s.G.generators
        for order in permutations(range(len(gens))):
            t = _with_generators(s, [gens[i] for i in order])
            assert gv.ggs.transversal(t.G) is gens[0]
            assert _statuses_and_details(t) == want, order

    @pytest.mark.parametrize(
        "fixture,depth", [(f, n) for f in ("gs_spec", "r2_spec", "sym5_spec") for n in (3, 4)]
    )
    def test_other_generating_sets_match_explicit_closures(self, fixture, depth, request):
        s = gv.build(request.getfixturevalue(fixture), depth)
        for i, gens in enumerate(_other_generating_sets(s)):
            t = _with_generators(s, gens)
            assert same_group(t.G, s.G)
            want = explicit_statuses(t)
            assert {cid: gv.CHECKS[cid](t).status for cid in want} == want, i

    @pytest.mark.parametrize("fixture", ["gs_spec", "r2_spec", "sym5_spec"])
    def test_st1_is_generated_and_normally_generated(self, fixture, request):
        # its generators span G & st(1), and so do the conjugates under G of
        # the elements it records; b_1 a to the p-th power is not always 1
        s = gv.build(request.getfixturevalue(fixture), 4)
        for gens in _other_generating_sets(s):
            t = _with_generators(s, gens)
            st1 = t.st1()
            want = t.G.level_stabilizer(1)
            assert same_group(PermGroup(st1.degree, st1.generators, prime=st1.prime), want)
            ambient, kept, *_ = st1.origin
            assert ambient is t.G
            assert same_group(permgroups.normal_closure(t.G, kept), want)

    def test_a_group_that_fixes_level_one_is_its_own_st1(self, r2_spec):
        s = gv.build(r2_spec, 4)
        t = _with_generators(s, s.G.generators[1:])
        assert gv.ggs.transversal(t.G) is None
        assert t.st1() is t.G
        want = explicit_statuses(t)
        assert {cid: gv.CHECKS[cid](t).status for cid in want} == want
        # no generator plays a, so the congruence has nothing to conjugate by
        v = check_key_congruence(t)
        assert v.status == SKIPPED and "moves level 1" in v.reason

    @pytest.mark.parametrize("fixture", ["gs_spec", "r2_spec", "sym5_spec"])
    def test_every_slot_is_closed_when_a_is_not_rooted(self, fixture, request):
        # b_1 a and a b_1 have the sections of b_1, so no slot stands for
        # the others: one closure per slot, each the projection the slot
        # sections of every generator of G' span; on a built session G''s
        # slot-0 pivots certify the check, and nothing closes
        s = gv.build(request.getfixturevalue(fixture), 4)
        p, n = s.spec.p, s.depth
        for gens in [s.G.generators, *_other_generating_sets(s)]:
            t = _with_generators(s, gens)
            rooted = bool(checks._rooted_shift(gv.ggs.transversal(t.G), p))
            assert rooted == (gens is s.G.generators)
            d = t.derived()
            exponents = [
                PermGroup(
                    p ** (n - 1), [subtree_section(g, p, (i,)) for g in d.generators], prime=p
                ).order_exponent
                for i in range(p)
            ]
            with mock.patch.object(
                permgroups, "_normal_closure", wraps=permgroups._normal_closure
            ) as closure:
                v = check_subdirect(t)
            assert v.holds and v.details["projection_exponents"] == exponents
            assert closure.call_count == (0 if rooted else p)


# the conftest specs at N <= 4, sym5 at N = 3 only
NIELSEN_CASES = [
    (p, rows, n)
    for p, rows in [(3, ((1, 2),)), (3, ((1, 1),)), (3, ((1, 0), (0, 1)))]
    for n in (3, 4)
] + [(5, ((1, 1, 1, 1), (1, 0, 0, 1)), 3)]


@functools.lru_cache(maxsize=None)
def _build_verdicts(p, rows, depth):
    s = gv.build(gv.validate(p, rows), depth)
    return s, _statuses_and_details(s)


def _nielsen_moves(n, p):
    """Lists of 1 to 4 Nielsen moves on n generators: (kind, i, step, k),
    with j = i + step mod n another index."""
    move = st.tuples(
        st.sampled_from(["product", "power", "swap"]),
        st.integers(0, n - 1),
        st.integers(1, n - 1),
        st.integers(1, p - 1),
    )
    return st.lists(move, min_size=1, max_size=4)


def _apply_nielsen(gens, moves):
    """gens after the moves: x_i <- x_i x_j^k, x_i <- x_i^k (k is a unit
    mod p and x_i has p-power order, so it generates what x_i does), or
    x_i and x_j swapped.  Each keeps the group the list generates."""
    gens = list(gens)
    for kind, i, step, k in moves:
        j = (i + step) % len(gens)
        if kind == "product":
            gens[i] = gens[i] * gens[j] ** k
        elif kind == "power":
            gens[i] = gens[i] ** k
        else:
            gens[i], gens[j] = gens[j], gens[i]
    return gens


class TestNielsenMoves:
    """Verdicts depend on the group only: any generating set that Nielsen
    moves reach from a, b_1, ..., b_r gives every check the status and
    details of the build session."""

    @pytest.mark.parametrize("p,rows,depth", NIELSEN_CASES)
    @settings(max_examples=20)
    @given(data=st.data())
    def test_every_check_gives_the_build_verdict(self, p, rows, depth, data):
        s, want = _build_verdicts(p, rows, depth)
        moves = data.draw(_nielsen_moves(len(s.G.generators), p))
        t = _with_generators(s, _apply_nielsen(s.G.generators, moves))
        assert _statuses_and_details(t) == want


class TestRunOrder:
    """Each check alone gives the status, details and witness it gives when
    every check runs in CHECKS order on one session, as run_all runs them:
    GroupSession builds each start it grows a subgroup from, so no check
    depends on what the checks before it built."""

    @pytest.mark.parametrize(
        "fixture,depth",
        [(f, n) for f in SPEC_FIXTURES for n in (3, 4)] + [("gs_spec", 5), ("r2_spec", 5)],
    )
    def test_each_check_alone_agrees_with_the_full_run(self, fixture, depth, request):
        spec = request.getfixturevalue(fixture)
        p = spec.p
        makers = [lambda: gv.build(spec, depth)]
        makers += [
            lambda gen=gen, vertex=vertex: last_vertex_mutant(spec, depth, gen, vertex)
            for gen in range(spec.r + 1)
            for vertex in (0, p ** (depth - 1) - 1)
        ]
        # SchreierSims re-checks a witness in well under a second up to 81
        # leaves, and in seconds each at 243 and 625
        recheck = p**depth <= 81
        failed = 0
        for make in makers:
            session = make()
            for cid, check in gv.CHECKS.items():
                v = check(session)
                alone = check(make())
                assert (alone.status, alone.details) == (v.status, v.details), cid
                assert alone.witness == v.witness, cid
                if v.status == FAILS:
                    failed += 1
                    if recheck:
                        recheck_witness(session, cid, v)
        # the mutants make checks fail, so witnesses are compared; at depth
        # 3 every check passes on those of sym5 and of r2
        assert failed or (fixture, depth) in {("sym5_spec", 3), ("r2_spec", 3)}


# the five row spaces of F_3^2: the four lines and the plane
P3_ROW_SPACES = [[(1, 0)], [(0, 1)], [(1, 1)], [(1, 2)], [(1, 0), (0, 1)]]


class TestP3Census:
    """Every multi-GGS group at p=3, one per row space of F_3^2, at its
    default depth: each status is the one census.paper_status gives, only
    the constant vector is classified as the exception, and G/G' has order
    p^(r+1).  The p=5 census runs the same rule on its 1119 row spaces
    (python tests/census.py)."""

    def test_the_row_spaces_are_every_one_once(self):
        lines = (3**2 - 1) // (3 - 1)
        assert len({frozenset(span(3, rows)) for rows in P3_ROW_SPACES}) == lines + 1 == 5
        listed = [rows for r in (1, 2) for rows in row_spaces(3, r)]
        assert sorted(listed) == sorted(P3_ROW_SPACES)

    def test_p5_has_1119_row_spaces_one_per_space(self):
        counts = {r: 0 for r in P5_DEPTHS}
        spaces = set()
        for r in P5_DEPTHS:
            for rows in row_spaces(5, r):
                counts[r] += 1
                spaces.add(frozenset(span(5, rows)))
        assert counts == {1: 156, 2: 806, 3: 156, 4: 1}
        assert len(spaces) == sum(counts.values()) == P5_ROW_SPACES

    @pytest.mark.parametrize(
        "rows", P3_ROW_SPACES, ids=lambda rows: ";".join(",".join(map(str, r)) for r in rows)
    )
    def test_statuses_follow_the_hypotheses(self, rows):
        r = len(rows)
        rep = gv.run_all(gv.validate(3, rows))
        assert rep.depth == r + 4
        exception = rows == [(1, 1)]
        assert rep.classification == (CONSTANT_VECTOR_EXCEPTION if exception else HAS_CSP)
        got = {v.claim_id: v.status for v in rep.verdicts}
        assert got == {c: paper_status(c, 3, rows, rep.depth) for c in gv.CHECKS}
        abelianization = next(v for v in rep.verdicts if v.claim_id == "abelianization")
        assert abelianization.details["index_exponent"] == r + 1

    def test_the_census_decides_the_central_containment(self):
        # census.central_verdict on the p=3 row spaces the script runs it on;
        # the p=5 r=1 ones take about 30 s, so only the script runs them
        assert sum(1 for p, r in CENTRAL_CASES for _ in row_spaces(p, r)) == CENTRAL_ROW_SPACES
        got = [central_verdict(3, rows) for rows in P3_ROW_SPACES]
        assert [s.depth for s, _, _ in got] == [len(rows) + 4 for rows in P3_ROW_SPACES]
        assert all(status == want for _, status, want in got)
        assert [status for _, status, _ in got].count(HOLDS) == 4

    def test_the_census_checks_the_growth_law(self):
        # census.growth_law_mismatch on the sessions of the central
        # containment: the law holds from level r+2 on the four non-constant
        # row spaces and fails on 1,1 (layers 1, 3, 5, 14, 41 at N=5); it
        # says nothing below depth r+3, and catches a mutant whose level-4
        # dimension moves (1, 2, 4, 12, 78 at N=5)
        assert sum(1 for _ in row_spaces(5, 1)) + CENTRAL_ROW_SPACES == GROWTH_SESSIONS
        sessions = [central_verdict(3, rows)[0] for rows in P3_ROW_SPACES]
        assert [growth_law_mismatch(s) for s in sessions] == [False] * 5
        assert sessions[2].G.chain.dimensions() == [1, 3, 5, 14, 41]
        assert growth_law_mismatch(gv.build(gv.validate(3, [(1, 2)]), 3)) is None
        mutant = last_vertex_mutant(gv.validate(3, [(1, 2)]), 5, 0, 0)
        assert growth_law_mismatch(mutant)

    @pytest.mark.parametrize("rows", [[(1, 0)], [(0, 1)], [(1, 2)]], ids=str)
    def test_orders_follow_the_formula(self, rows):
        # the census's order comparison, on the non-constant p=3 lines at
        # depth 5, and on two mutants whose level-4 order it catches
        s = gv.build(gv.validate(3, rows), 5)
        for check in gv.CHECKS.values():
            check(s)
        assert order_mismatches(s) == []
        for gen in (0, 1):
            assert order_mismatches(last_vertex_mutant(gv.validate(3, rows), 4, gen, 0))


class TestRunAll:
    def test_oversized_depth_is_refused_before_any_work(self, gs_spec):
        depth = 11
        assert 3**depth > DEGREE_CAP
        with mock.patch("ggsver.ggs.rooted", side_effect=AssertionError("work started")):
            with pytest.raises(gv.SpecError, match="cap"):
                gv.run_all(gs_spec, depth=depth)
            # opting in goes on to build, which the patch stops at once
            with pytest.raises(AssertionError, match="work started"):
                gv.run_all(gs_spec, depth=depth, allow_large=True)

    def test_basic_spec_all_applicable_hold(self, gs_spec):
        rep = gv.run_all(gs_spec, depth=4)
        assert not rep.failed
        by_id = {v.claim_id: v.status for v in rep.verdicts}
        assert by_id["abelianization"] == HOLDS
        assert by_id["psi2_second_derived"] == SKIPPED
        assert by_id["second_derived_contains_stab"] == VACUOUS

    def test_constant_spec_report(self, const_spec):
        rep = gv.run_all(const_spec, depth=4)
        assert rep.classification == CONSTANT_VECTOR_EXCEPTION
        assert not rep.failed
        statuses = {v.claim_id: v for v in rep.verdicts}
        for cid in ("gamma3_product", "subdirect", "regular_branch"):
            assert statuses[cid].status == SKIPPED
            assert "constant" in statuses[cid].reason
        assert statuses["stab1_derived_in_gamma3"].status == HOLDS

    def test_every_check_reported_exactly_once(self, const_spec):
        rep = gv.run_all(const_spec, depth=4)
        ids = [v.claim_id for v in rep.verdicts]
        assert ids == list(gv.CHECKS)
        allowed = {HOLDS, FAILS, SKIPPED, VACUOUS}
        assert all(v.status in allowed for v in rep.verdicts)
        assert all(cid in rep.wall_times for cid in ids)

    def test_one_build_per_run(self, r2_spec):
        with mock.patch.object(checks, "build", wraps=checks.build) as build:
            with mock.patch.object(ggs, "build", side_effect=AssertionError("rebuilt")):
                rep = gv.run_all(r2_spec, depth=4)
        assert build.call_count == 1
        assert not rep.failed

    def test_check_filter(self, gs_spec):
        rep = gv.run_all(gs_spec, depth=3, checks=["abelianization", "rank_growth"])
        assert [v.claim_id for v in rep.verdicts] == ["abelianization", "rank_growth"]

    def test_unknown_check_rejected(self, gs_spec):
        with pytest.raises(gv.SpecError, match="unknown checks: nope"):
            gv.run_all(gs_spec, depth=3, checks=["nope"])

    @pytest.mark.parametrize("depth", [None, 3])
    def test_a_session_for_a_spec_is_refused_before_any_work(self, gs_spec, depth):
        session = gv.build(gs_spec, 3)
        with mock.patch.object(checks, "build", side_effect=AssertionError("built")):
            for bad in (session, (3, [[1, 2]])):
                with pytest.raises(gv.SpecError, match="validated defining data"):
                    gv.run_all(bad, depth=depth)

    @pytest.mark.parametrize("selection", [[], ["nope"], ["abelianization", "nope"]])
    def test_bad_selection_refused_before_build(self, gs_spec, selection):
        with mock.patch.object(checks, "build", side_effect=AssertionError("built")):
            with pytest.raises(gv.SpecError):
                gv.run_all(gs_spec, depth=3, checks=selection)

    @pytest.mark.parametrize(
        "p,r,depth",
        # r + 4, or the deepest level with at most DEGREE_CAP = 3125 leaves
        [(3, 1, 5), (3, 2, 6), (5, 1, 5), (5, 2, 5), (7, 6, 4), (11, 1, 3), (13, 12, 3)],
    )
    def test_default_depths(self, p, r, depth):
        rows = [[int(i == j) for j in range(p - 1)] for i in range(r)]
        spec = gv.validate(p, rows)
        assert default_depth(spec) == depth
        assert p**depth <= DEGREE_CAP < p ** (depth + 1) or depth == r + 4

    def test_default_depth_of_a_prime_above_the_cap_is_refused_by_build(self):
        spec = gv.validate(3137, [[1] + [0] * 3135])
        assert default_depth(spec) == 1
        with pytest.raises(gv.SpecError, match="exceeds the cap"):
            gv.run_all(spec)


class TestMutationControls:
    """p=3 (1,2) at depth 5 with b_1 times the p-cycle below last-level
    vertex 0.  Each failing check names a permutation that lies in exactly
    one of the two groups it compares, re-checked apart from the layers."""

    @pytest.fixture(scope="class")
    def mutant(self, gs_spec):
        return last_vertex_mutant(gs_spec, 5, 1, 0)

    def test_statuses(self, mutant):
        statuses = {cid: check(mutant).status for cid, check in gv.CHECKS.items()}
        assert statuses == {
            "abelianization": FAILS,
            "gamma3_product": FAILS,
            "key_congruence": HOLDS,
            "regular_branch": FAILS,
            "stab1_derived_in_gamma3": HOLDS,
            "subdirect": FAILS,
            "psi2_second_derived": SKIPPED,
            "rank_growth": HOLDS,
            "derived_contains_stab": FAILS,
            "second_derived_contains_stab": FAILS,
        }

    def test_gamma3_product_witness(self, mutant):
        s = mutant
        v = check_gamma3_product(s)
        lhs = commutator_subgroup(s.st1_derived(), s.st1(), s.G)
        assert separates(v.witness, lhs, power_reference(s.gamma3().truncate(4)))

    def test_regular_branch_witness(self, mutant):
        v = check_regular_branch(mutant)
        rhs = power_reference(mutant.derived().truncate(4))
        assert separates(v.witness, mutant.st1_derived(), rhs)

    def test_subdirect_witness(self, mutant):
        v = check_subdirect(mutant)
        sections = [subtree_section(g, 3, (0,)) for g in mutant.derived().generators]
        proj = PermGroup(81, sections, prime=3)
        assert separates(v.witness, proj, mutant.G.truncate(4))

    @pytest.mark.parametrize(
        "check,m,subgroup",
        [
            (check_derived_contains_stab, 2, lambda s: s.derived()),
            (check_second_derived_contains_stab, 4, lambda s: s.second_derived()),
        ],
    )
    def test_stabilizer_witness(self, mutant, check, m, subgroup):
        # in st(m): in G, and trivial on the level-m vertices
        w = check(mutant).witness
        assert restrict_to_level(w, 3, m).is_identity() and member(mutant.G, w)
        assert not member(subgroup(mutant), w)

    def test_recheck_witness_refuses_a_false_witness(self, gs_spec):
        # at depth 4, where the re-check is cheap: every failing verdict's
        # witness passes recheck_witness, and the identity in its place, or
        # an index one off, does not
        claims = set()
        for gen, vertex in product((0, 1), (0, 26)):
            s = last_vertex_mutant(gs_spec, 4, gen, vertex)
            for cid, check in gv.CHECKS.items():
                v = check(s)
                if v.status != FAILS:
                    continue
                claims.add(cid)
                recheck_witness(s, cid, v)
                if isinstance(v.witness, dict):
                    bad = dict(v.witness, index_exponent=v.witness["index_exponent"] + 1)
                    false = dataclasses.replace(v, details=bad, witness=bad)
                else:
                    false = dataclasses.replace(v, witness=Perm.identity(v.witness.degree))
                with pytest.raises(AssertionError):
                    recheck_witness(s, cid, false)
        # every claim with a rule but second_derived_contains_stab, which is
        # vacuous at depth 4
        assert claims == {
            "abelianization",
            "gamma3_product",
            "key_congruence",
            "regular_branch",
            "subdirect",
            "derived_contains_stab",
        }


class TestProjectionSoundness:
    def test_stabilizer_membership_factors_through_levels(self, gs4):
        # membership in st(m) of the depth-4 quotient is decided by the
        # level-m action alone
        rng = random.Random(47)
        gens = gs4.G.generators
        for _ in range(30):
            w = Perm.identity(81)
            for _ in range(rng.randint(1, 6)):
                w = w * rng.choice(gens) ** rng.randint(1, 2)
            for m in (1, 2, 3):
                assert gs4.G.level_stabilizer(m).contains(w) == (
                    restrict_to_level(w, 3, m).is_identity()
                )


class TestMonotonicEvidence:
    def test_containments_project_downward(self, gs_spec):
        # quick version of the regression across depths 3 and 4; the
        # acceptance suite covers depth 5
        holds_at = {}
        for depth in (3, 4):
            session = gv.build(gs_spec, depth)
            for check in (
                check_derived_contains_stab,
                check_stab1_derived_in_gamma3,
            ):
                v = check(session)
                if v.status != VACUOUS:
                    holds_at[(check.__name__, depth)] = v.holds
        for (name, depth), ok in holds_at.items():
            if depth == 4 and ok and (name, 3) in holds_at:
                assert holds_at[(name, 3)]
