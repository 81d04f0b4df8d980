import gc
import random
import weakref
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ggsver as gv
from ggsver import permgroups
from ggsver.ggs import _row_reduce
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
                check(s)
            freed = [weakref.ref(x) for x in (s, s.G, s.gamma3(), s.second_derived())]
            del s
            assert [f() for f in freed] == [None] * 4
        finally:
            gc.enable()

    def test_frattini_of_cyclic_and_trivial(self):
        assert PermGroup(3, [Perm([1, 2, 0])], prime=3).frattini().is_trivial()
        assert PermGroup(9, [], prime=3).frattini().is_trivial()

    def test_frattini_equals_derived_here(self, gs3, r2_4):
        # the generators have order p, so Phi = G'G^p is G' with no closure
        for g in (gs3.G, r2_4.G):
            assert g.frattini() is g.derived()

    @pytest.mark.parametrize("p", [3, 5])
    def test_frattini_of_the_cyclic_group_of_order_p_squared(self, p):
        # the adding machine on level 2: x0 x1 -> x0+1 x1, carrying into x1
        # when x0 = p-1; its p-th power lies outside the trivial G'
        images = [
            ((x0 + 1) % p) * p + (x1 + (x0 == p - 1)) % p
            for x0 in range(p)
            for x1 in range(p)
        ]
        g = PermGroup(p * p, [Perm(images)], prime=p)
        assert g.order_exponent == 2 and g.derived().is_trivial()
        assert g.order_exponent - g.frattini().order_exponent == 1
        assert g.frattini().order_exponent == 1
        assert g.frattini().contains(g.generators[0] ** p)

    def test_frattini_contains_commutators_and_powers(self, gs3):
        g = gs3.G
        phi = g.frattini()
        for x in g.generators:
            assert phi.contains(x**3)
            for y in g.generators:
                assert phi.contains(x.inverse() * y.inverse() * x * y)
        assert g.order_exponent - phi.order_exponent <= len(g.generators)

    def test_rank_values(self, gs_spec, r2_spec):
        # the rank is log_p|G : Phi(G)| by the Burnside basis theorem
        def rank(g):
            return g.order_exponent - g.frattini().order_exponent

        assert rank(PermGroup(9, [], prime=3)) == 0
        assert rank(gv.build(gs_spec, 2).G) == 2
        assert rank(gv.build(r2_spec, 3).G) == 3


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

    @settings(max_examples=30)
    @given(_random_subgroups())
    def test_truncations(self, case):
        # each level-m quotient against SchreierSims on the generators of
        # the depth-N group restricted to level m; the generators truncate
        # keeps generate it too
        g, subgens, probes, _ = case
        p, n = g.prime, g.level
        h = PermGroup(g.degree, subgens, prime=p)
        for group in (h, h.derived(), normal_closure(g, subgens)):
            for m in range(1, n):
                cut = group.truncate(m)
                image = [restrict_to_level(x, p, m) for x in group.generators]
                ref = SchreierSims(p**m, [x.images for x in image])
                assert cut.order_exponent == log_order(ref.order(), p)
                assert _reference_exponent(p**m, cut.generators, p) == cut.order_exponent
                for x in probes + list(group.generators):
                    y = restrict_to_level(x, p, m)
                    assert cut.contains(y) == ref.contains(y.images)


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
    def test_trivial_group_without_generators(self):
        h = PermGroup(9, [], prime=3)
        power = h.block_power()
        assert power.generators == () and power.degree == 27
        assert power.chain_summary()["level_dimensions"] == [0, 0, 0]

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


@contextmanager
def _run_sizes():
    """The length of every run the closure reduces, in order."""
    sizes = []
    real = permgroups._Layer.extend

    def spy(lvl, u, p):
        sizes.append(len(u))
        return real(lvl, u, p)

    with mock.patch.object(permgroups._Layer, "extend", spy):
        yield sizes


def _assert_same_closure(tree, seeds, conj_by, got):
    layers, found = got
    ref_layers, ref_found = reference_close(tree, seeds, conj_by)
    assert layers.dimensions() == ref_layers.dimensions()
    for lvl, ref in zip(layers.levels, ref_layers.levels):
        assert np.array_equal(lvl.rows[: lvl.dim], ref.rows[: ref.dim])
        assert np.array_equal(lvl.pivots[: lvl.dim], ref.pivots[: ref.dim])
        assert len(lvl.reps[: lvl.dim]) == len(ref.reps[: ref.dim])
        for a, b in zip(lvl.reps[: lvl.dim], ref.reps[: ref.dim]):
            assert np.array_equal(a, b)
    assert [k for _, k in found] == [k for _, k in ref_found]
    for (a, _), (b, _) in zip(found, ref_found):
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

    @pytest.mark.parametrize(
        "p,rows,depth",
        # the depth-6 closures of the deep_containment benchmark, and a p=5
        # spec whose stacks come from three conjugating generators
        [(3, [(1, 0), (0, 1)], 6), (5, [(1, 1, 1, 1), (1, 0, 0, 1)], 4)],
    )
    def test_runs_that_pass_the_run_length(self, p, rows, depth):
        # a stack joins the run whole, so a run may pass _RUN; G, G' and G''
        # still match the one-at-a-time closure
        def build():
            gv.build(gv.validate(p, rows), depth).second_derived().chain

        with _run_sizes() as sizes:
            calls = _recorded_closures(build)
        assert len(calls) == 3
        assert max(sizes) > permgroups._RUN
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
        assert len(bottom) > 2
        with _run_sizes() as sizes:
            got = permgroups._close(tree, seeds, conj_by)
        assert sizes[0] == 2
        _assert_same_closure(tree, seeds, conj_by, got)
        assert [x.tolist() for x, _ in got[1][:3]] == [x.tolist() for x in seeds[:3]]


# -- normal generators: the seeds a closure keeps ---------------------------------


def _same_spans(h, k):
    """Layer by layer, h and k have the same label span."""
    for a, b in zip(h.chain.levels, k.chain.levels):
        both = np.vstack([a.rows[: a.dim], b.rows[: b.dim]]).astype(int).tolist()
        if a.dim != b.dim or _row_reduce(both, h.prime)[0] != a.dim:
            return False
    return True


def _is_subsequence(kept, seeds):
    # by identity: the very elements handed in, in their order
    rest = iter(seeds)
    return all(any(k is s for s in rest) for k in kept)


class TestNormalGenerators:
    """A normal closure records only the seeds that left a residual, and
    st(1) records b_1, ..., b_r; commutator subgroups seeded from those are
    the ones seeded from every pair of group generators."""

    @pytest.mark.parametrize(
        "p,rows,depth",
        [(p, rows, n) for p, rows in _DIFF_SPECS for n in range(2, 4 if p == 5 else 5)],
    )
    def test_shared_subgroups(self, p, rows, depth):
        s = gv.build(gv.validate(p, rows), depth)
        g = s.G
        handed = []
        real = permgroups.normal_closure

        def record(ambient, elements):
            elements = list(elements)
            out = real(ambient, elements)
            handed.append((out, elements))
            return out

        with mock.patch.object(permgroups, "normal_closure", side_effect=record):
            st1, st1d = s.st1(), s.st1_derived()
            # name, handle, and the pair it is the commutator subgroup of
            subgroups = [
                ("G'", g.derived(), (g, g)),
                ("gamma3", s.gamma3(), (g.derived(), g)),
                ("st(1)", st1, None),
                ("st(1)'", st1d, (st1, st1)),
                ("gamma3(st(1))", commutator_subgroup(st1d, st1, g), (st1d, st1)),
                ("G''", s.second_derived(), (g.derived(), g.derived())),
            ]
        for name, h, pair in subgroups:
            ambient, kept = h._closed_from
            assert ambient() is g, name
            seeds = g.generators[1:] if pair is None else next(
                e for out, e in handed if out is h
            )
            assert _is_subsequence(kept, seeds), name
            again = normal_closure(g, kept)
            assert again.order_exponent == h.order_exponent, name
            assert again.contains_subgroup(h) and h.contains_subgroup(again), name
            if pair is not None:
                x, y = pair
                every = normal_closure(
                    g, [commutator(u, v) for u in x.generators for v in y.generators]
                )
                assert every.order_exponent == h.order_exponent, name
                assert _same_spans(every, h), name

    def test_seed_counts(self, sym5_spec):
        s = gv.build(sym5_spec, 3)
        g = s.G
        st1 = s.st1()
        assert st1._closed_from[0]() is g
        bs = st1._closed_from[1]
        assert len(bs) == s.spec.r
        assert all(b is x for b, x in zip(bs, g.generators[1:]))
        g.derived().chain
        counts = []
        real = permgroups._close

        def record(tree, seeds, conj_by):
            seeds = list(seeds)
            counts.append(len(seeds))
            return real(tree, seeds, conj_by)

        with mock.patch.object(permgroups, "_close", side_effect=record):
            st1d = s.st1_derived()
            commutator_subgroup(st1d, st1, g).chain
        # r*pr = 20 pairs for st(1)' (70 from all (pr)^2 pairs); the 79 for
        # gamma3(st(1)) pair st(1)''s kept seeds with st(1)'s generators
        assert counts == [14, 79]


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
        assert len(reps)
        for x, xinv in zip(reps, invs):
            assert np.array_equal(tree.power_labels(x), _labels((Perm._wrap(x) ** p).images, p))
            got = permgroups._comm_rows(x, xinv, np.stack(reps), np.stack(invs), tree.starts[-1])
            got = tree.digits[-1][got]
            for row, y in zip(got, reps):
                assert np.array_equal(row, _labels(reference_commutator(x, y), p))
        bottom = g.chain.levels[depth - 1]
        for u in bottom.rows[: bottom.dim][:6].astype(np.intp):
            w = Perm._wrap(tree.from_last_labels(u))
            for s in g.generators:
                conj = s.inverse() * w * s
                assert np.array_equal(u[tree.pull(s.inverse().images)], _labels(conj.images, p))


def _echelon_add(p, rows, pivots, v):
    """Add v to a reduced echelon basis over F_p, in plain integers: its
    residual, if non-zero, becomes a unit-pivot row and is cleared from the
    others.  Returns the new row, or None."""
    r = list(v)
    for row, j in zip(rows, pivots):
        c = r[j]
        r = [(x - c * y) % p for x, y in zip(r, row)]
    if not any(r):
        return None
    j = next(i for i, x in enumerate(r) if x)
    inv = pow(r[j], -1, p)
    r = [x * inv % p for x in r]
    for i, row in enumerate(rows):
        c = row[j]
        rows[i] = [(x - c * y) % p for x, y in zip(row, r)]
    rows.append(r)
    pivots.append(j)
    return r


def _bottom_layer(p, depth, rng, k):
    """A last layer of the depth-`depth` tree holding the residuals of k
    random label vectors, added one at a time."""
    lvl = permgroups._Layer(permgroups._tree(p, depth), depth - 1)
    for v in rng.integers(0, p, (k, p ** (depth - 1))):
        r = lvl.residual(v, p)
        if r.any():
            lvl.add(r, p)
    return lvl


class TestBatchedElimination:
    """_Layer.extend adds the residuals of a stack of label vectors as
    sequential _Layer.add would, and as textbook elimination in integers
    does: the same rows, pivots and live indices, and each new row as it was
    when added, before later rows of the stack cleared their pivots."""

    @pytest.mark.parametrize("p,depth", [(3, 4), (5, 3), (7, 3)])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("fill", [False, True])
    def test_against_sequential_add(self, p, depth, seed, fill):
        rng = np.random.default_rng([p, seed, fill])
        width = p ** (depth - 1)
        batched = _bottom_layer(p, depth, np.random.default_rng([p, seed]), width // 3)
        one_by_one = _bottom_layer(p, depth, np.random.default_rng([p, seed]), width // 3)
        d = batched.dim
        free = sorted(set(range(width)) - set(batched.pivots[:d].tolist()))
        assert len(free) >= 3
        a, b, c = free[:3]
        unit = np.eye(width, dtype=np.intp)
        zero = np.zeros(width, dtype=np.intp)
        # e_a + e_b, and e_c with pivot entry 2, so scaled by 1/2
        stack = [(unit[a] + unit[b]) % p, 2 * unit[c] % p, zero]
        stack += list(rng.integers(0, p, (8, width)))
        # depends on earlier vectors of the stack
        stack.append(sum(int(rng.integers(1, p)) * v for v in stack[3:6]) % p)
        # unit[b] clears column b from the row added for e_a + e_b, unless a
        # random vector before it took pivot b
        stack += [zero, unit[b]]
        stack += list(rng.integers(0, p, (4, width)))
        if fill:
            stack += list(unit[rng.permutation(width)])
        stack = np.array(stack, dtype=np.intp)

        plain_rows = batched.rows[:d].astype(int).tolist()
        plain_pivots = batched.pivots[:d].tolist()
        got, as_added = batched.extend(stack, p)
        rows = batched.rows[: batched.dim]
        want, want_rows = [], []
        for i, v in enumerate(stack):
            r = one_by_one.residual(v, p)
            plain = _echelon_add(p, plain_rows, plain_pivots, v.tolist())
            if r.any():
                one_by_one.add(r, p)
                want.append(i)
                want_rows.append(one_by_one.rows[one_by_one.dim - 1].copy())
                assert plain == want_rows[-1].tolist()
            else:
                assert plain is None
        assert got == want
        assert np.array_equal(as_added, np.array(want_rows).reshape(-1, width))
        assert batched.dim == one_by_one.dim == len(plain_rows)
        assert np.array_equal(rows, one_by_one.rows[: one_by_one.dim])
        assert np.array_equal(rows, plain_rows)
        assert np.array_equal(batched.pivots[: batched.dim], plain_pivots)
        assert np.array_equal(batched.pivots[: batched.dim], one_by_one.pivots[: one_by_one.dim])
        assert got[:2] == [0, 1]
        assert np.array_equal(as_added[1], unit[c])
        # e_a + e_b as added, and after a later row took pivot b
        assert np.array_equal(as_added[0], unit[a] + unit[b]) and rows[d][b] == 0
        if fill:
            assert batched.dim == width


class TestLayerLayout:
    """A finished layer holds exactly its dimension of rows, the last layer
    too, whose buffer may hold a run past its width while a closure runs.
    Below the last level a layer holds its representatives and their
    divisors as two arrays of exactly its dimension: nothing reserved for
    rows never filled is kept, and divs[c-1, j] is reps[j] raised to -c."""

    @pytest.mark.parametrize("fixture", ["gs_spec", "r2_spec", "sym5_spec"])
    def test_closure_block_power_and_stabilizer(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        g = gv.build(spec, 5 if spec.p == 3 else 4).G
        for h in (g, g.derived().block_power(), g.level_stabilizer(2)):
            p, degree = h.prime, h.degree
            identity = np.arange(degree)
            layers = h.chain.levels
            assert len(layers) == h.level
            for m, lvl in enumerate(layers):
                assert lvl.rows.shape == (lvl.dim, p**m)
                assert len(lvl.pivots) == lvl.dim
            for lvl in layers[:-1]:
                d = lvl.dim
                assert lvl.reps.shape == (d, degree)
                assert lvl.divs.shape == (p - 1, d, degree)
                for j in range(d):
                    assert np.array_equal(lvl.divs[0, j][lvl.reps[j]], identity)
                    for c in range(1, p - 1):
                        assert np.array_equal(lvl.divs[c, j], lvl.divs[0, j][lvl.divs[c - 1, j]])
            assert sum(lvl.dim for lvl in layers[:-1])


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
