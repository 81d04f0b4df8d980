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
    VacuousCheck,
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
    default_depth,
)
from ggsver import permgroups
from ggsver.ggs import DEGREE_CAP
from ggsver.permgroups import PermGroup, commutator_subgroup, equals
from ggsver.portraits import identity, subtree_section

SPEC_FIXTURES = ["gs_spec", "const_spec", "r2_spec", "sym5_spec"]


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
        # smaller than p^(r+1) and the claim honestly fails there
        v = check_abelianization(gv.build(r2_spec, 2))
        assert v.status == FAILS
        assert v.details["index_exponent"] == 2
        assert v.witness is not None
        v3 = check_abelianization(gv.build(r2_spec, 3))
        assert v3.holds and v3.details["index_exponent"] == 3


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
        with pytest.raises(VacuousCheck):
            check_gamma3_product(gv.build(gs_spec, 2))


class TestKeyCongruence:
    def test_holds_for_the_basic_spec(self, gs4):
        v = check_key_congruence(gs4)
        assert v.holds
        assert v.details["m"] == 2

    def test_skipped_for_constant(self, const_spec):
        v = check_key_congruence(gv.build(const_spec, 3))
        assert v.status == SKIPPED
        assert "m = 1" in v.reason or "m != 1" in v.reason

    def test_skipped_for_symmetric(self, sym5_spec):
        v = check_key_congruence(gv.build(sym5_spec, 3))
        assert v.status == SKIPPED
        assert "symmetric" in v.reason


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


class TestStab1DerivedInGamma3:
    def test_holds_everywhere(self, gs3, const_spec):
        assert check_stab1_derived_in_gamma3(gs3).holds
        # no constant-vector exclusion on this one
        assert check_stab1_derived_in_gamma3(gv.build(const_spec, 3)).holds

    def test_degenerate_depth_two(self, gs_spec):
        assert check_stab1_derived_in_gamma3(gv.build(gs_spec, 2)).holds


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
        with pytest.raises(VacuousCheck):
            check_rank_growth(gv.build(gs_spec, 1))


class TestStabilizerContainments:
    def test_derived_contains_second_level(self, gs4):
        v = check_derived_contains_stab(gs4)
        assert v.holds
        assert v.details["stabilizer_level"] == 2

    def test_vacuous_at_threshold(self, gs_spec):
        with pytest.raises(VacuousCheck):
            check_derived_contains_stab(gv.build(gs_spec, 2))

    def test_second_derived_vacuous_below_threshold(self, gs4):
        with pytest.raises(VacuousCheck):
            check_second_derived_contains_stab(gs4)

    def test_second_derived_skipped_for_constant(self, const_spec):
        v = check_second_derived_contains_stab(gv.build(const_spec, 4))
        assert v.status == SKIPPED


class TestOrderDecidedStabilizers:
    @pytest.mark.parametrize("depth", [3, 4])
    @pytest.mark.parametrize("name", SPEC_FIXTURES)
    def test_st1_handle_is_the_level_one_stabilizer(self, request, name, depth):
        session = gv.build(request.getfixturevalue(name), depth)
        st1 = session.st1()
        assert len(st1.generators) == session.spec.p * session.spec.r
        assert equals(st1, session.G.level_stabilizer(1))

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
        v = check_abelianization(gv.build(r2_spec, 2))
        assert v.status == FAILS and v.witness is not None


class TestEqualityVerdict:
    def test_equal_groups_are_sifted_one_way(self, gs4):
        g = gs4.G
        lhs, rhs = g.derived(), commutator_subgroup(g, g, g)
        # the rhs -> lhs sweep would ask lhs about rhs's generators
        with mock.patch.object(lhs, "containment_witness", wraps=lhs.containment_witness) as sweep:
            v = _equality_verdict("claim", gs4, lhs, rhs, {})
        assert v.status == HOLDS and sweep.call_count == 0
        assert v.details["lhs_exponent"] == v.details["rhs_exponent"]

    def test_proper_subgroup_is_named_by_a_generator_of_the_larger(self, gs4):
        lhs, rhs = gs4.G.derived(), gs4.G.level_stabilizer(1)
        v = _equality_verdict("claim", gs4, lhs, rhs, {})
        assert v.status == FAILS
        assert v.witness is lhs.containment_witness(rhs)
        assert rhs.contains(v.witness) and not lhs.contains(v.witness)

    def test_larger_lhs_is_named_by_its_own_generator(self, gs4):
        lhs, rhs = gs4.G.level_stabilizer(1), gs4.G.derived()
        v = _equality_verdict("claim", gs4, lhs, rhs, {})
        assert v.status == FAILS
        assert v.witness is rhs.containment_witness(lhs)
        assert lhs.contains(v.witness) and not rhs.contains(v.witness)


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

    def test_check_filter(self, gs_spec):
        rep = gv.run_all(gs_spec, depth=3, checks=["abelianization", "rank_growth"])
        assert [v.claim_id for v in rep.verdicts] == ["abelianization", "rank_growth"]

    def test_unknown_check_rejected(self, gs_spec):
        with pytest.raises(KeyError):
            gv.run_all(gs_spec, depth=3, checks=["nope"])

    def test_default_depths(self, gs_spec, sym5_spec):
        assert default_depth(gs_spec) == 5
        assert default_depth(sym5_spec) == 6


class TestProjectionSoundness:
    def test_stabilizer_membership_factors_through_levels(self, gs4):
        # membership in st(m) of the depth-4 quotient is decided by the
        # level-m action alone
        rng = random.Random(47)
        gens = list(gs4.generators)
        for _ in range(30):
            w = identity(3, 4)
            for _ in range(rng.randint(1, 6)):
                w = w * rng.choice(gens) ** rng.randint(1, 2)
            for m in (1, 2, 3):
                assert gs4.G.level_stabilizer(m).contains(
                    w.to_perm(4)
                ) == w.truncate(m).to_perm(m).is_identity()


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
                try:
                    v = check(session)
                except VacuousCheck:
                    continue
                holds_at[(check.__name__, depth)] = v.holds
        for (name, depth), ok in holds_at.items():
            if depth == 4 and ok and (name, 3) in holds_at:
                assert holds_at[(name, 3)]
