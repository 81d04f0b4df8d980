import dataclasses
import random
from unittest import mock

import pytest

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
from ggsver import checks, ggs, permgroups
from ggsver.ggs import DEGREE_CAP, NormalizationImpossible, default_depth, normalize
from ggsver.permgroups import PermGroup, commutator_subgroup, equals
from ggsver.portraits import Perm, restrict_to_level, subtree_section

from oracles import SchreierSims

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
        gamma = s.at(3).gamma3()
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
        rhs = s.at(depth - 1).G.derived().block_power()
        assert rhs.contains_subgroup(lhs)
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
            assert session.st1_derived().is_trivial()
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
        d = s.G.derived()
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
                full = s.at(3).G
                sections = [subtree_section(g, 3, (0,)) for g in s.G.derived().generators]
                proj = PermGroup(27, sections, prime=3)
                assert member(proj, v.witness) and not member(full, v.witness)


class TestPsi2SecondDerived:
    def test_two_generators_depth_four(self, r2_4):
        assert check_psi2_second_derived(r2_4).holds

    def test_five_regular_pair(self, sym5_spec):
        assert check_psi2_second_derived(gv.build(sym5_spec, 3)).holds

    def test_skipped_for_single_generator(self, gs3):
        v = check_psi2_second_derived(gs3)
        assert v.status == SKIPPED
        assert "two directed generators" in v.reason


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
        g.chain
        with mock.patch.object(
            permgroups, "_close", side_effect=AssertionError("closure ran")
        ):
            st1 = session.st1()
            assert len(st1.generators) == session.spec.p * session.spec.r
            assert equals(st1, g.level_stabilizer(1))
        # G's own layers from level 1 on, shared, and nothing on level 0
        assert st1.chain.levels[0].dim == 0
        for k in range(1, depth):
            assert st1.chain.levels[k] is g.chain.levels[k]

    @pytest.mark.parametrize("name", ["gs_spec", "const_spec", "r2_spec"])
    def test_helper_agrees_with_containment_witness(self, request, name):
        spec = request.getfixturevalue(name)
        session = gv.build(spec, 4)
        d = session.G.derived()
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
        d = gs4.G.derived()
        exponent = gs4.G.level_stabilizer(2).order_exponent
        with mock.patch.object(
            PermGroup, "level_stabilizer", side_effect=AssertionError("handle built")
        ):
            assert _stabilizer_containment(gs4, 2, d) == (exponent, None)


class TestSessionMemo:
    def test_shared_subgroups_are_memoized_once(self, gs_spec):
        s = gv.build(gs_spec, 4)
        assert s.at(s.depth) is s
        assert s.at(2) is s.at(2) and s.at(2).depth == 2
        assert s.at(1).G.order_exponent == 1
        assert s.second_derived() is s.second_derived()
        assert s.gamma3() is s.gamma3() and s.st1_derived() is s.st1_derived()
        for m in (0, 5):
            with pytest.raises(ValueError):
                s.at(m)

    def test_standalone_checks_share_the_closures(self, gs_spec):
        s = gv.build(gs_spec, 4)
        with mock.patch(
            "ggsver.permgroups.normal_closure", wraps=permgroups.normal_closure
        ) as closure:
            assert check_regular_branch(s).holds
            assert check_gamma3_product(s).holds
        ambients = [c.args[0] for c in closure.call_args_list]
        # in G: st(1)' once, then [st(1)', st(1)]; in G_3: G_3', then gamma3
        assert sum(g is s.G for g in ambients) == 2
        assert sum(g is s.at(3).G for g in ambients) == 2
        assert len(ambients) == 4


class TestWitnesses:
    def test_failing_containment_has_siftable_witness(self, gs3):
        # st(1) is strictly larger than the derived subgroup, so asking the
        # derived subgroup to contain it must fail with a witness
        st1 = gs3.G.level_stabilizer(1)
        d = gs3.G.derived()
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
        lhs, rhs = gs4.G.derived(), gs4.G.level_stabilizer(1)
        _, witness = _equality_verdict(lhs, rhs, {})
        assert witness is lhs.containment_witness(rhs)
        assert rhs.contains(witness) and not lhs.contains(witness)

    def test_larger_lhs_is_named_by_its_own_generator(self, gs4):
        lhs, rhs = gs4.G.level_stabilizer(1), gs4.G.derived()
        _, witness = _equality_verdict(lhs, rhs, {})
        assert witness is rhs.containment_witness(lhs)
        assert lhs.contains(witness) and not rhs.contains(witness)


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
        assert separates(v.witness, lhs, s.at(4).gamma3().block_power())

    def test_regular_branch_witness(self, mutant):
        v = check_regular_branch(mutant)
        rhs = mutant.at(4).G.derived().block_power()
        assert separates(v.witness, mutant.st1_derived(), rhs)

    def test_subdirect_witness(self, mutant):
        v = check_subdirect(mutant)
        sections = [subtree_section(g, 3, (0,)) for g in mutant.G.derived().generators]
        proj = PermGroup(81, sections, prime=3)
        assert separates(v.witness, proj, mutant.at(4).G)

    @pytest.mark.parametrize(
        "check,m,subgroup",
        [
            (check_derived_contains_stab, 2, lambda s: s.G.derived()),
            (check_second_derived_contains_stab, 4, lambda s: s.second_derived()),
        ],
    )
    def test_stabilizer_witness(self, mutant, check, m, subgroup):
        # in st(m): in G, and trivial on the level-m vertices
        w = check(mutant).witness
        assert restrict_to_level(w, 3, m).is_identity() and member(mutant.G, w)
        assert not member(subgroup(mutant), w)


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
