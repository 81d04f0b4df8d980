import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ggsver as gv
from ggsver.permgroups import (
    PermGroup,
    _Chain,
    commutator_subgroup,
    equals,
    generate,
    is_subgroup,
    normal_closure,
)
from ggsver.portraits import Perm

from oracles import bfs_closure, full_scan_sift, log_order


def session_perms(session):
    return [g.to_perm(session.depth) for g in session.generators]


class TestGenerate:
    def test_cycle_group(self):
        g = generate(3, [Perm([1, 2, 0])], prime=3)
        assert g.order_exponent == 1

    def test_empty_generators(self):
        g = generate(9, [], prime=3)
        assert g.order_exponent == 0
        assert g.is_trivial()

    def test_level_two_order_matches_bfs(self, gs_spec):
        s = gv.build(gs_spec, 2)
        count = len(bfs_closure([g.tolist() for g in s.G.generators]))
        assert s.G.order_exponent == log_order(count, 3) == 3

    def test_degree_mismatch(self):
        with pytest.raises(gv.DegreeMismatch):
            generate(9, [Perm([1, 2, 0])], prime=3)

    def test_not_p_group(self):
        # a transposition inside Sym(9) has an orbit of length 2
        with pytest.raises(gv.NotPGroup):
            generate(9, [Perm([1, 0, 2, 3, 4, 5, 6, 7, 8])], prime=3).chain


class TestMembership:
    def test_identity_everywhere(self, gs3):
        assert gs3.G.contains(Perm.identity(27))

    def test_directed_acts_trivially_at_level_one(self, gs_spec):
        a1 = gv.rooted(3, 1, 1).to_perm(1)
        cyc = generate(3, [a1], prime=3)
        b1 = gv.directed(gs_spec, 2, 1).truncate(1).to_perm(1)
        assert cyc.contains(b1)

    def test_rooted_outside_derived(self, gs3, gs4):
        for s in (gs3, gs4):
            a = s.a.to_perm(s.depth)
            assert not s.G.derived().contains(a)

    def test_sift_residue_is_identity_for_members(self, gs3):
        a, b = session_perms(gs3)
        assert gs3.G.sift(a * b * a).is_identity()


class TestSubgroupsAndClosure:
    def test_trivial_and_self(self, gs3):
        triv = generate(27, [], prime=3)
        assert is_subgroup(triv, gs3.G)
        assert is_subgroup(gs3.G, gs3.G)

    def test_normal_closure_trivial_cases(self, gs3):
        assert normal_closure(gs3.G, []).is_trivial()
        full = normal_closure(gs3.G, list(gs3.G.generators))
        assert equals(full, gs3.G)

    def test_closure_rejects_outsiders(self, gs3):
        outsider = Perm([1, 0] + list(range(2, 27)))
        with pytest.raises(gv.ElementNotInAmbient):
            normal_closure(gs3.G, [outsider])

    def test_conjugate_commutators_generate_stab1_derived(self, gs4):
        # the level-1 stabilizer is normally generated by the directed
        # conjugates, so their pairwise commutators normally generate its
        # derived subgroup
        a = gs4.a
        b = gs4.b[0]
        st1 = gs4.G.level_stabilizer(1)
        conj = [b.conjugated_by(a**k) for k in range(3)]
        seeds = []
        for i in range(3):
            for j in range(3):
                if i != j:
                    seeds.append(gv.commutator(conj[i], conj[j]).to_perm(4))
        closed = normal_closure(st1, seeds)
        assert equals(closed, st1.derived())

    def test_closure_is_conjugation_closed(self, gs3):
        a, b = session_perms(gs3)
        n = normal_closure(gs3.G, [a * b * a.inverse() * b.inverse()])
        for w in n.generators:
            for s in (a, b):
                assert n.contains(s.inverse() * w * s)


class TestDerivedAndFrattini:
    def test_abelian_group_has_trivial_derived(self):
        g = generate(3, [Perm([1, 2, 0])], prime=3)
        assert g.derived().is_trivial()

    def test_derived_index(self, gs3, r2_4):
        assert gs3.G.order_exponent - gs3.G.derived().order_exponent == 2
        # two directed generators leave index p^3 from depth 3 on
        assert r2_4.G.order_exponent - r2_4.G.derived().order_exponent == 3

    def test_second_derived_routes_agree(self, gs4):
        d = gs4.G.derived()
        direct = d.derived()
        via_ambient = commutator_subgroup(d, d, gs4.G)
        assert equals(direct, via_ambient)

    def test_commutator_subgroup_basics(self, gs3):
        assert equals(commutator_subgroup(gs3.G, gs3.G, gs3.G), gs3.G.derived())
        triv = generate(27, [], prime=3)
        assert commutator_subgroup(triv, gs3.G, gs3.G).is_trivial()

    def test_gamma3_contains_stab1_derived(self, gs4):
        g = gs4.G
        gamma3 = commutator_subgroup(g.derived(), g, g)
        st1d = g.level_stabilizer(1).derived()
        assert gamma3.contains_subgroup(st1d)

    def test_frattini_of_cyclic_and_trivial(self):
        assert generate(3, [Perm([1, 2, 0])], prime=3).frattini().is_trivial()
        assert generate(9, [], prime=3).frattini().is_trivial()

    def test_frattini_equals_derived_here(self, gs3, r2_4):
        for g in (gs3.G, r2_4.G):
            assert equals(g.frattini(), g.derived())

    def test_frattini_contains_commutators_and_powers(self, gs3):
        g = gs3.G
        phi = g.frattini()
        for x in g.generators:
            assert phi.contains(x**3)
            for y in g.generators:
                assert phi.contains(x.inverse() * y.inverse() * x * y)
        assert g.rank() <= len(g.generators)

    def test_rank_values(self, gs_spec, r2_spec):
        assert generate(9, [], prime=3).rank() == 0
        assert gv.build(gs_spec, 2).G.rank() == 2
        assert gv.build(r2_spec, 3).G.rank() == 3


class TestLevelStabilizers:
    def test_level_zero_is_everything(self, gs3):
        assert gs3.G.level_stabilizer(0) is gs3.G

    def test_full_depth_is_trivial(self, gs3):
        st = gs3.G.level_stabilizer(3)
        assert st.is_trivial()
        assert equals(generate(27, [], prime=3), st)

    def test_level_one_index_is_p(self, gs3, r2_4):
        for s in (gs3, r2_4):
            st = s.G.level_stabilizer(1)
            assert s.G.order_exponent - st.order_exponent == 1

    def test_lagrange_against_direct_image(self, gs4):
        # the image at level m, built directly at that depth, complements the
        # kernel exponent
        for m in (1, 2, 3):
            st = gs4.G.level_stabilizer(m)
            img = generate(
                3**m,
                [g.truncate(m).to_perm(m) for g in gs4.generators],
                prime=3,
            )
            assert img.order_exponent + st.order_exponent == gs4.G.order_exponent

    def test_out_of_range(self, gs3):
        with pytest.raises(ValueError):
            gs3.G.level_stabilizer(4)

    def test_membership_matches_level_action(self, gs_spec, gs4):
        # an element lies in st(m) exactly when its level-m action is trivial
        rng = random.Random(23)
        gens = list(gs4.generators)
        for _ in range(40):
            w = gv.identity(3, 4)
            for _ in range(rng.randint(1, 6)):
                w = w * rng.choice(gens) ** rng.randint(1, 2)
            perm = w.to_perm(4)
            for m in (1, 2, 3):
                in_st = gs4.G.level_stabilizer(m).contains(perm)
                assert in_st == w.truncate(m).to_perm(m).is_identity()


class TestOracleAndDeterminism:
    def test_orders_against_bfs_at_small_degree(self, gs_spec):
        s2 = gv.build(gs_spec, 2)
        s3 = gv.build(gs_spec, 3)
        handles = [
            generate(3, [gv.rooted(3, 1, 1).to_perm(1)], prime=3),
            s2.G,
            s2.G.derived(),
            s2.G.frattini(),
            s2.G.level_stabilizer(1),
            s3.G,
            s3.G.derived(),
            s3.G.level_stabilizer(1),
            s3.G.level_stabilizer(2),
        ]
        for h in handles:
            gens = [g.tolist() for g in h.generators]
            if not gens:
                gens = [list(range(h.degree))]
            count = len(bfs_closure(gens))
            assert h.order_exponent == log_order(count, 3)

    def test_repeated_builds_are_identical(self, gs_spec):
        a = gv.build(gs_spec, 3).G.chain_summary()
        b = gv.build(gs_spec, 3).G.chain_summary()
        assert a == b

    def test_strong_generators_are_members(self, gs3):
        for s in gs3.G.strong_generators():
            assert gs3.G.contains(s)

    def test_lagrange_monotone_exponents(self, gs4):
        d = gs4.G.derived()
        assert d.order_exponent <= gs4.G.order_exponent
        st = gs4.G.level_stabilizer(2)
        assert st.order_exponent <= gs4.G.order_exponent


# -- resumed sift against the full-scan reference ---------------------------------

_SIFT_SPECS = [
    (3, [(1, 2)]),
    (3, [(1, 0), (0, 1)]),
    (3, [(1, 1)]),
    (5, [(1, 0, 0, 1)]),
]


def _reference_sift(chain, arr):
    res = full_scan_sift(chain.points, [lvl.uinv for lvl in chain.levels], arr)
    return None if res is None else np.array(res, dtype=np.intp)


@st.composite
def _random_subgroups(draw):
    """(degree, prime, generators of a subgroup, probe elements).

    The subgroup is generated by random words in the generators of a
    level-N group.  In half the cases every element is conjugated by one
    random permutation of the leaves: tree groups have base points only at
    block starts, the relabelled ones also at adjacent points, where a scan
    that resumes at the wrong point shows.  The probes are words in the
    ambient generators plus one arbitrary permutation of the leaves.
    """
    p, rows = draw(st.sampled_from(_SIFT_SPECS))
    depth = draw(st.integers(2, 3 if p == 5 else 4))
    g = gv.build(gv.validate(p, rows), depth).G
    letters = st.tuples(st.integers(0, len(g.generators) - 1), st.integers(1, p - 1))
    words = st.lists(letters, min_size=1, max_size=6)
    subgens = draw(st.lists(words, min_size=1, max_size=3))
    probes = draw(st.lists(words, min_size=1, max_size=4))
    sigma = Perm(draw(st.permutations(range(g.degree))))
    if not draw(st.booleans()):
        sigma = Perm.identity(g.degree)

    def evaluate(word):
        w = Perm.identity(g.degree)
        for i, k in word:
            w = w * g.generators[i] ** k
        return sigma.inverse() * w * sigma

    probes = [evaluate(w) for w in probes] + [evaluate([(i, 1)]) for i in range(len(g.generators))]
    probes.append(Perm(draw(st.permutations(range(g.degree)))))
    return g.degree, p, [evaluate(w) for w in subgens], probes


class TestResumedSift:
    @settings(max_examples=25)
    @given(_random_subgroups())
    def test_matches_full_scan_reference(self, case):
        degree, p, subgens, probes = case
        h = PermGroup(degree, subgens, prime=p)
        with mock.patch.object(_Chain, "sift", _reference_sift):
            ref = PermGroup(degree, subgens, prime=p)
            ref_summary = ref.chain_summary()
        assert h.chain_summary() == ref_summary
        assert [x.tolist() for x in h.strong_generators()] == [
            x.tolist() for x in ref.strong_generators()
        ]
        for x in probes:
            got = h.chain.sift(x.images)
            want = _reference_sift(h.chain, x.images)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.tolist() == want.tolist()
