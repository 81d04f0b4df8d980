import gc
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ggsver as gv
from ggsver import permgroups
from ggsver.checks import VacuousCheck
from ggsver.permgroups import (
    ElementNotInAmbient,
    NotPGroup,
    PermGroup,
    commutator_subgroup,
    equals,
    normal_closure,
)
from ggsver.portraits import (
    DegreeMismatch,
    Perm,
    commutator,
    directed,
    restrict_to_level,
    rooted,
    subtree_embed,
)

from oracles import (
    SchreierSims,
    bfs_closure,
    log_order,
    reference_close,
    reference_commutator,
    reference_normal_closure,
)


class TestGenerate:
    def test_cycle_group(self):
        g = PermGroup(3, [Perm([1, 2, 0])], prime=3)
        assert g.order_exponent == 1

    def test_empty_generators(self):
        g = PermGroup(9, [], prime=3)
        assert g.order_exponent == 0
        assert g.is_trivial()

    def test_level_two_order_matches_bfs(self, gs_spec):
        s = gv.build(gs_spec, 2)
        count = len(bfs_closure([g.tolist() for g in s.G.generators]))
        assert s.G.order_exponent == log_order(count, 3) == 3

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            PermGroup(9, [Perm([1, 2, 0])], prime=3)

    def test_not_p_group(self):
        # a transposition inside Sym(9) has an orbit of length 2
        with pytest.raises(NotPGroup):
            PermGroup(9, [Perm([1, 0, 2, 3, 4, 5, 6, 7, 8])], prime=3).chain

    def test_degree_below_the_prime_is_refused(self):
        # degree 1 is the depth-0 tree, which has no levels to store
        with pytest.raises(ValueError):
            PermGroup(1, [], prime=3)


class TestMembership:
    def test_identity_everywhere(self, gs3):
        assert gs3.G.contains(Perm.identity(27))

    def test_directed_acts_trivially_at_level_one(self, gs_spec):
        a1 = rooted(3, 1, 1).to_perm(1)
        cyc = PermGroup(3, [a1], prime=3)
        b1 = directed(gs_spec, 2, 1).to_perm(1)
        assert cyc.contains(b1)

    def test_rooted_outside_derived(self, gs3, gs4):
        for s in (gs3, gs4):
            a = s.G.generators[0]
            assert not s.G.derived().contains(a)

    def test_words_in_the_generators_are_members(self, gs3):
        a, b = gs3.G.generators
        assert gs3.G.contains(a * b * a)


class TestSubgroupsAndClosure:
    def test_trivial_and_self(self, gs3):
        triv = PermGroup(27, [], prime=3)
        assert gs3.G.contains_subgroup(triv)
        assert gs3.G.contains_subgroup(gs3.G)

    def test_normal_closure_trivial_cases(self, gs3):
        assert normal_closure(gs3.G, []).is_trivial()
        full = normal_closure(gs3.G, list(gs3.G.generators))
        assert equals(full, gs3.G)

    def test_closure_rejects_outsiders(self, gs3):
        outsider = Perm([1, 0] + list(range(2, 27)))
        with pytest.raises(ElementNotInAmbient):
            normal_closure(gs3.G, [outsider])

    def test_conjugate_commutators_generate_stab1_derived(self, gs4):
        # the level-1 stabilizer is normally generated by the directed
        # conjugates, so their pairwise commutators normally generate its
        # derived subgroup
        a, b = gs4.G.generators
        st1 = gs4.G.level_stabilizer(1)
        conj = [a ** (-k) * b * a**k for k in range(3)]
        seeds = []
        for i in range(3):
            for j in range(3):
                if i != j:
                    seeds.append(commutator(conj[i], conj[j]))
        closed = normal_closure(st1, seeds)
        assert equals(closed, st1.derived())

    def test_closure_is_conjugation_closed(self, gs3):
        a, b = gs3.G.generators
        n = normal_closure(gs3.G, [a * b * a.inverse() * b.inverse()])
        for w in n.generators:
            for s in (a, b):
                assert n.contains(s.inverse() * w * s)


class TestDerivedAndFrattini:
    def test_abelian_group_has_trivial_derived(self):
        g = PermGroup(3, [Perm([1, 2, 0])], prime=3)
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
        triv = PermGroup(27, [], prime=3)
        assert commutator_subgroup(triv, gs3.G, gs3.G).is_trivial()

    def test_gamma3_contains_stab1_derived(self, gs4):
        g = gs4.G
        gamma3 = commutator_subgroup(g.derived(), g, g)
        st1d = g.level_stabilizer(1).derived()
        assert gamma3.contains_subgroup(st1d)

    def test_memoized_closures_leave_no_reference_cycle(self, gs_spec):
        # a handle and the closures it memoizes are freed by reference
        # counting alone, so repeated runs do not pile up layers
        gc.disable()
        try:
            g = gv.build(gs_spec, 3).G
            commutator_subgroup(g.derived(), g, g)
            g.frattini()
            freed = weakref.ref(g)
            del g
            assert freed() is None
            # so is a session on which every check ran, with its memo
            s = gv.build(gs_spec, 4)
            for check in gv.CHECKS.values():
                try:
                    check(s)
                except VacuousCheck:
                    pass
            freed = [weakref.ref(x) for x in (s, s.G, s.at(3), s.second_derived())]
            del s
            assert [f() for f in freed] == [None] * 4
        finally:
            gc.enable()

    def test_frattini_of_cyclic_and_trivial(self):
        assert PermGroup(3, [Perm([1, 2, 0])], prime=3).frattini().is_trivial()
        assert PermGroup(9, [], prime=3).frattini().is_trivial()

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
        assert PermGroup(9, [], prime=3).rank() == 0
        assert gv.build(gs_spec, 2).G.rank() == 2
        assert gv.build(r2_spec, 3).G.rank() == 3


class TestLevelStabilizers:
    def test_level_zero_is_everything(self, gs3):
        assert gs3.G.level_stabilizer(0) is gs3.G

    def test_full_depth_is_trivial(self, gs3):
        st = gs3.G.level_stabilizer(3)
        assert st.is_trivial()
        assert equals(PermGroup(27, [], prime=3), st)

    def test_level_one_index_is_p(self, gs3, r2_4):
        for s in (gs3, r2_4):
            st = s.G.level_stabilizer(1)
            assert s.G.order_exponent - st.order_exponent == 1

    def test_lagrange_against_direct_image(self, gs4):
        # the image at level m, built directly at that depth, complements the
        # kernel exponent
        for m in (1, 2, 3):
            st = gs4.G.level_stabilizer(m)
            img = PermGroup(
                3**m,
                [restrict_to_level(g, 3, m) for g in gs4.G.generators],
                prime=3,
            )
            assert img.order_exponent + st.order_exponent == gs4.G.order_exponent

    def test_out_of_range(self, gs3):
        with pytest.raises(ValueError):
            gs3.G.level_stabilizer(4)

    def test_membership_matches_level_action(self, gs_spec, gs4):
        # an element lies in st(m) exactly when its level-m action is trivial
        rng = random.Random(23)
        gens = gs4.G.generators
        for _ in range(40):
            perm = Perm.identity(81)
            for _ in range(rng.randint(1, 6)):
                perm = perm * rng.choice(gens) ** rng.randint(1, 2)
            for m in (1, 2, 3):
                in_st = gs4.G.level_stabilizer(m).contains(perm)
                assert in_st == restrict_to_level(perm, 3, m).is_identity()


class TestOracleAndDeterminism:
    def test_orders_against_bfs_at_small_degree(self, gs_spec):
        s2 = gv.build(gs_spec, 2)
        s3 = gv.build(gs_spec, 3)
        handles = [
            PermGroup(3, [rooted(3, 1, 1).to_perm(1)], prime=3),
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
        a, b = (gv.build(gs_spec, 3).G for _ in range(2))
        assert a.chain_summary() == b.chain_summary()
        assert [g.tolist() for g in a.generators] == [g.tolist() for g in b.generators]

    def test_strong_generators_are_members(self, gs3):
        # the generators of each level stabilizer are the representatives
        # from that level on
        for m in range(1, gs3.depth + 1):
            for s in gs3.G.level_stabilizer(m).generators:
                assert gs3.G.contains(s)
                assert restrict_to_level(s, 3, m).is_identity()

    def test_lagrange_monotone_exponents(self, gs4):
        d = gs4.G.derived()
        assert d.order_exponent <= gs4.G.order_exponent
        st = gs4.G.level_stabilizer(2)
        assert st.order_exponent <= gs4.G.order_exponent


# -- differential test against the reference Schreier-Sims -----------------------

_DIFF_SPECS = [
    (3, [(1, 2)]),
    (3, [(1, 0), (0, 1)]),
    (3, [(1, 1)]),
    (5, [(1, 1, 1, 1), (1, 0, 0, 1)]),
]


@st.composite
def _random_subgroups(draw, deepest=4):
    """(level-N group, generators of a random subgroup, probes, one
    arbitrary permutation of the leaves), with N at most `deepest`.

    The subgroup is generated by random words in the generators of a
    level-N group of one of the conftest specs.  The probes are words in the
    ambient generators and words in the subgroup generators.
    """
    p, rows = draw(st.sampled_from(_DIFF_SPECS))
    depth = draw(st.integers(2, min(deepest, 3 if p == 5 else 4)))
    g = gv.build(gv.validate(p, rows), depth).G
    letters = st.tuples(st.integers(0, len(g.generators) - 1), st.integers(1, p - 1))
    words = st.lists(letters, min_size=1, max_size=6)

    def evaluate(word):
        w = Perm.identity(g.degree)
        for i, k in word:
            w = w * g.generators[i] ** k
        return w

    subgens = [evaluate(w) for w in draw(st.lists(words, min_size=1, max_size=3))]
    probes = [evaluate(w) for w in draw(st.lists(words, min_size=1, max_size=4))]
    probes += list(g.generators)
    # words in the subgroup generators, so that members are probed too
    inner = st.lists(st.sampled_from(range(len(subgens))), min_size=1, max_size=6)
    for word in draw(st.lists(inner, min_size=1, max_size=4)):
        w = Perm.identity(g.degree)
        for i in word:
            w = w * subgens[i]
        probes.append(w)
    return g, subgens, probes, Perm(draw(st.permutations(range(g.degree))))


def _reference_exponent(degree, gens, p):
    return log_order(SchreierSims(degree, [x.images for x in gens]).order(), p)


class TestAgainstSchreierSims:
    @settings(max_examples=30)
    @given(_random_subgroups())
    def test_orders_membership_derived_and_stabilizers(self, case):
        g, subgens, probes, arbitrary = case
        p, n = g.prime, g.level
        h = PermGroup(g.degree, subgens, prime=p)
        ref = SchreierSims(g.degree, [x.images for x in subgens])
        assert h.order_exponent == log_order(ref.order(), p)
        for x in probes + [arbitrary]:
            assert h.contains(x) == ref.contains(x.images)
        seeds = [reference_commutator(x.images, y.images) for x in subgens for y in subgens]
        derived = reference_normal_closure(g.degree, seeds, [x.images for x in subgens])
        assert h.derived().order_exponent == log_order(derived.order(), p)
        for x in probes + list(h.derived().generators):
            assert h.derived().contains(x) == derived.contains(x.images)
        for m in range(1, n):
            image = [restrict_to_level(x, p, m) for x in subgens]
            kernel = h.order_exponent - _reference_exponent(p**m, image, p)
            st_m = h.level_stabilizer(m)
            assert st_m.order_exponent == kernel
            for x in probes + list(st_m.generators):
                in_st = restrict_to_level(x, p, m).is_identity()
                assert st_m.contains(x) == (in_st and ref.contains(x.images))


@st.composite
def _block_power_cases(draw):
    """(random subgroup H of a level-N group with N <= 3, probes of degree
    p^(N+1), one arbitrary permutation of that degree).

    The probes are the subgroup's probes embedded in drawn slots, one
    product of such embeddings across slots, and words in the rooted
    generator and the embedded ambient generators, which leave st(1).
    """
    g, subgens, probes, _ = draw(_random_subgroups(deepest=3))
    p, n = g.prime, g.level + 1
    slots = st.lists(
        st.tuples(st.sampled_from(probes), st.integers(0, p - 1)), min_size=1, max_size=4
    )
    embedded = [subtree_embed(x, p, (j,), n) for x, j in draw(slots)]
    spread = Perm.identity(p**n)
    for j, x in enumerate(draw(st.lists(st.sampled_from(probes), min_size=p, max_size=p))):
        spread = spread * subtree_embed(x, p, (j,), n)
    letters = [rooted(p, n, 1).to_perm(n)]
    letters += [subtree_embed(x, p, (j,), n) for j in range(p) for x in g.generators]
    words = []
    for word in draw(st.lists(st.lists(st.sampled_from(letters), min_size=1, max_size=6), min_size=1, max_size=4)):
        w = Perm.identity(p**n)
        for x in word:
            w = w * x
        words.append(w)
    arbitrary = Perm(draw(st.permutations(range(p**n))))
    return p, subgens, embedded + [spread] + words, arbitrary


class TestBlockPower:
    @settings(max_examples=30)
    @given(_block_power_cases())
    def test_agrees_with_the_closure_of_the_embedded_generators(self, case):
        p, subgens, probes, arbitrary = case
        h = PermGroup(subgens[0].degree, subgens, prime=p)
        power = h.block_power()
        n = power.level
        embedded = [subtree_embed(x, p, (j,), n) for j in range(p) for x in subgens]
        ref = PermGroup(p**n, embedded, prime=p)
        assert [x.tolist() for x in power.generators] == [x.tolist() for x in embedded]
        assert power.order_exponent == ref.order_exponent == p * h.order_exponent
        dims = power.chain_summary()["level_dimensions"]
        assert dims == ref.chain_summary()["level_dimensions"]
        assert dims == [0] + [p * d for d in h.chain_summary()["level_dimensions"]]
        for x in probes + [arbitrary]:
            assert power.contains(x) == ref.contains(x)
        for m in range(n + 1):
            assert (
                power.level_stabilizer(m).order_exponent
                == ref.level_stabilizer(m).order_exponent
            )


# -- the closure against its one-candidate-at-a-time reference -------------------


def _recorded_closures(build):
    """Run build() and return the (tree, seeds, conj_by, result) of every
    closure it made."""
    calls = []
    real = permgroups._close

    def record(tree, seeds, conj_by):
        seeds, conj_by = list(seeds), list(conj_by)
        out = real(tree, seeds, conj_by)
        calls.append((tree, seeds, conj_by, out))
        return out

    with mock.patch.object(permgroups, "_close", side_effect=record):
        build()
    return calls


def _assert_same_closure(tree, seeds, conj_by, got):
    layers, found = got
    ref_layers, ref_found = reference_close(tree, seeds, conj_by)
    assert layers.dimensions() == ref_layers.dimensions()
    for lvl, ref in zip(layers.levels, ref_layers.levels):
        assert np.array_equal(lvl.rows[: lvl.dim], ref.rows[: ref.dim])
        assert np.array_equal(lvl.pivots[: lvl.dim], ref.pivots[: ref.dim])
        assert len(lvl.reps) == len(ref.reps)
        for a, b in zip(lvl.reps, ref.reps):
            assert np.array_equal(a, b)
    assert len(found) == len(ref_found)
    for a, b in zip(found, ref_found):
        assert np.array_equal(a, b)


class TestAgainstSequentialClosure:
    """The closure sifts label vectors of st(N-1) in runs; processed one at a
    time as leaf permutations they must give the same layers, array for
    array, and the same generators."""

    @settings(max_examples=30)
    @given(_random_subgroups())
    def test_random_subgroups_and_their_derived(self, case):
        g, subgens, _, _ = case
        g.chain

        def build():
            h = PermGroup(g.degree, subgens, prime=g.prime)
            h.chain
            h.derived().chain
            normal_closure(g, subgens).chain

        calls = _recorded_closures(build)
        assert len(calls) == 3
        for tree, seeds, conj_by, got in calls:
            _assert_same_closure(tree, seeds, conj_by, got)

    def test_second_derived_of_two_generators_at_depth_five(self, r2_spec):
        def build():
            g = gv.build(r2_spec, 5).G
            d = g.derived()
            commutator_subgroup(d, d, g).chain

        calls = _recorded_closures(build)
        assert [sum(got[0].dimensions()) for *_, got in calls] == [100, 97, 91]
        for tree, seeds, conj_by, got in calls:
            _assert_same_closure(tree, seeds, conj_by, got)

    @pytest.mark.parametrize(
        "p,rows,depth",
        [(p, rows, n) for p, rows in _DIFF_SPECS for n in (2, 3)]
        + [(5, [(1, 1, 1, 1), (1, 0, 0, 1)], 4), (3, [(1, 1)], 5)],
    )
    def test_second_derived_series(self, p, rows, depth):
        # depths 2 and 3 put the last level at 1 or 2, so level N-2 is the
        # root or the first level
        def build():
            g = gv.build(gv.validate(p, rows), depth).G
            d = g.derived()
            commutator_subgroup(d, d, g).chain

        calls = _recorded_closures(build)
        assert len(calls) == 3
        for tree, seeds, conj_by, got in calls:
            _assert_same_closure(tree, seeds, conj_by, got)

    def test_run_flushed_before_an_upper_residual(self, gs_spec):
        # members of st(N-1) join the run; the directed generator leaves a
        # residual on level 1, so the run is reduced before it is adjoined
        g = gv.build(gs_spec, 4).G
        tree = g.chain.tree
        bottom = [x.images for x in g.level_stabilizer(3).generators]
        a, b = (x.images for x in g.generators)
        seeds = bottom[:2] + [b] + bottom[2:] + [a] + bottom[:1]
        conj_by = [x.images for x in g.generators]
        sizes = []
        real = permgroups._Layers.bottom_residual

        def spy(layers, u):
            sizes.append(len(u))
            return real(layers, u)

        assert len(bottom) > 2
        with mock.patch.object(permgroups._Layers, "bottom_residual", spy):
            got = permgroups._close(tree, seeds, conj_by)
        assert sizes[0] == 2
        _assert_same_closure(tree, seeds, conj_by, got)
        assert [x.tolist() for x in got[1][:3]] == [x.tolist() for x in seeds[:3]]


def _labels(x, p):
    """Level-(N-1) labels of an element of st(N-1): where the first leaf
    below each last-level vertex goes, mod p."""
    return x[::p] % p


class TestBottomLabelArithmetic:
    """Conjugates, commutators and p-th powers computed on label vectors
    equal the labels read off the composed permutations."""

    @pytest.mark.parametrize(
        "fixture,depth",
        [("gs_spec", n) for n in (3, 4, 5)]
        + [("r2_spec", n) for n in (3, 4, 5)]
        + [("sym5_spec", n) for n in (3, 4, 5)],
    )
    def test_against_composed_permutations(self, fixture, depth, request):
        g = gv.build(request.getfixturevalue(fixture), depth).G
        p, tree = g.prime, g.chain.tree
        reps = g.chain.levels[depth - 2].reps[:6]
        invs = [x.inverse().images for x in map(Perm._wrap, reps)]
        assert reps
        for x, xinv in zip(reps, invs):
            assert np.array_equal(tree.power_labels(x), _labels((Perm._wrap(x) ** p).images, p))
            got = tree.commutator_labels(x, xinv, np.stack(reps), np.stack(invs))
            for row, y in zip(got, reps):
                assert np.array_equal(row, _labels(reference_commutator(x, y), p))
        bottom = g.chain.levels[depth - 1]
        for u in bottom.rows[: bottom.dim][:6].astype(np.intp):
            w = Perm._wrap(tree.from_last_labels(u))
            for s in g.generators:
                conj = s.inverse() * w * s
                assert np.array_equal(u[tree.pull(s.inverse().images)], _labels(conj.images, p))


class TestOutsideTheTree:
    @pytest.mark.parametrize("p,rows", _DIFF_SPECS)
    def test_relabelled_generators_are_refused_before_any_work(self, p, rows):
        # swapping the first two leaves turns the cyclic shift of some
        # vertex's children into a transposition, which W_N does not contain
        g = gv.build(gv.validate(p, rows), 3).G
        swap = Perm([1, 0] + list(range(2, g.degree)))
        relabelled = [swap * x * swap for x in g.generators]
        with mock.patch.object(permgroups, "_close", side_effect=AssertionError("work started")):
            with pytest.raises(NotPGroup):
                PermGroup(g.degree, relabelled, prime=p)
