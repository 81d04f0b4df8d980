import gc
import random
import tracemalloc
import weakref
from contextlib import contextmanager
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ggsver as gv
from ggsver import checks, ggs, permgroups
from ggsver.ggs import _row_reduce
from ggsver.permgroups import (
    ElementNotInAmbient,
    NotPGroup,
    PermGroup,
    commutator_subgroup,
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
    vertex_word,
)

from oracles import (
    SchreierSims,
    _adds_pivot,
    bfs_closure,
    log_order,
    reference_close,
    reference_commutator,
    reference_module_generators,
    reference_normal_closure,
    same_group,
)
from test_checks import SPEC_FIXTURES, last_vertex_mutant, power_reference


class TestGenerate:
    def test_cycle_group(self):
        g = PermGroup(3, [Perm([1, 2, 0])], prime=3)
        assert g.order_exponent == 1

    def test_empty_generators(self):
        g = PermGroup(9, [], prime=3)
        assert g.order_exponent == 0

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
            assert not s.derived().contains(a)

    def test_words_in_the_generators_are_members(self, gs3):
        a, b = gs3.G.generators
        assert gs3.G.contains(a * b * a)


def _words(gens, rng, count=8, length=6):
    """Seeded words in gens, each a product of 1..length letters."""
    out = []
    for _ in range(count):
        w = Perm.identity(gens[0].degree)
        for _ in range(rng.randint(1, length)):
            w = w * rng.choice(gens)
        out.append(w)
    return out


def _first_moved_level(x: Perm, p: int, n: int) -> int:
    """The level k with x in st(k) but not st(k+1), for x in W_N."""
    return next(k for k in range(n) if not restrict_to_level(x, p, k + 1).is_identity())


class TestEmptyLayerExit:
    """Membership refuses x at the first level with no rows where x has
    non-zero labels, before any division when no level above it has rows;
    members have zero labels there and still pass."""

    @pytest.mark.parametrize("fixture", ["gs_spec", "const_spec", "r2_spec", "sym5_spec"])
    def test_refused_without_division_and_members_kept(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        p, n = spec.p, 4
        session = gv.build(spec, n)
        g = session.G
        handles = [g.level_stabilizer(m) for m in (1, 2, 3)]
        handles += [session.derived(), power_reference(gv.build(spec, n - 1).G.derived())]
        rng = random.Random(n * p)
        # every level's representatives have non-zero labels at their level
        words = [Perm(r) for r in g.chain.representatives(0)] + _words(list(g.generators), rng)
        for h in handles:
            assert h.level == n
            layers = h.chain.levels
            n_empty = next(k for k, lvl in enumerate(layers) if lvl.dim)
            assert n_empty >= 1
            outside = [x for x in words if _first_moved_level(x, p, n) < min(n_empty, n - 1)]
            assert outside
            fail = AssertionError("divided before the empty layer refused it")
            with mock.patch.object(permgroups._Layers, "_divide", side_effect=fail):
                for x in outside:
                    assert not h.contains(x)
            for x in list(h.generators) + _words(list(h.generators), rng):
                assert h.contains(x)


class TestSubgroupsAndClosure:
    def test_trivial_and_self(self, gs3):
        triv = PermGroup(27, [], prime=3)
        assert gs3.G.containment_witness(triv) is None
        assert gs3.G.containment_witness(gs3.G) is None

    def test_normal_closure_trivial_cases(self, gs3):
        assert normal_closure(gs3.G, []).order_exponent == 0
        full = normal_closure(gs3.G, list(gs3.G.generators))
        assert same_group(full, gs3.G)

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
        assert same_group(closed, st1.derived())

    def test_closure_is_conjugation_closed(self, gs3):
        a, b = gs3.G.generators
        n = normal_closure(gs3.G, [a * b * a.inverse() * b.inverse()])
        for w in n.generators:
            for s in (a, b):
                assert n.contains(s.inverse() * w * s)


def _session(g):
    """A session around a hand-made group, for its memoized subgroups; the
    spec is any valid one at g's prime, and derived() and frattini() read G
    alone."""
    spec = gv.validate(g.prime, [(1,) + (0,) * (g.prime - 2)])
    return gv.GroupSession(spec, g.level, g)


class TestDerivedAndFrattini:
    def test_abelian_group_has_trivial_derived(self):
        g = PermGroup(3, [Perm([1, 2, 0])], prime=3)
        assert g.derived().order_exponent == 0

    def test_derived_index(self, gs3, r2_4):
        assert gs3.G.order_exponent - gs3.derived().order_exponent == 2
        # two directed generators leave index p^3 from depth 3 on
        assert r2_4.G.order_exponent - r2_4.derived().order_exponent == 3

    def test_second_derived_routes_agree(self, gs4):
        d = gs4.derived()
        direct = d.derived()
        via_ambient = commutator_subgroup(d, d, gs4.G)
        assert same_group(direct, via_ambient)

    def test_commutator_subgroup_basics(self, gs3):
        assert same_group(commutator_subgroup(gs3.G, gs3.G, gs3.G), gs3.derived())
        triv = PermGroup(27, [], prime=3)
        assert commutator_subgroup(triv, gs3.G, gs3.G).order_exponent == 0

    def test_gamma3_contains_stab1_derived(self, gs4):
        g = gs4.G
        gamma3 = commutator_subgroup(g.derived(), g, g)
        st1d = g.level_stabilizer(1).derived()
        assert gamma3.containment_witness(st1d) is None

    def test_memoized_closures_leave_no_reference_cycle(self, gs_spec):
        # a handle and the closures built from it are freed by reference
        # counting alone, so repeated runs do not pile up layers
        gc.disable()
        try:
            g = gv.build(gs_spec, 3).G
            commutator_subgroup(g.derived(), g, g)
            freed = weakref.ref(g)
            del g
            assert freed() is None
            # so is a session on which every check ran, with its memo
            s = gv.build(gs_spec, 4)
            for check in gv.CHECKS.values():
                check(s)
            kept = (s, s.G, s.derived(), s.frattini(), s.gamma3(), s.second_derived())
            freed = [weakref.ref(x) for x in kept]
            del s, kept
            assert [f() for f in freed] == [None] * 6
        finally:
            gc.enable()

    def test_frattini_of_cyclic_and_trivial(self):
        for g in (PermGroup(3, [Perm([1, 2, 0])], prime=3), PermGroup(9, [], prime=3)):
            assert _session(g).frattini().order_exponent == 0

    def test_frattini_equals_derived_here(self, gs3, r2_4):
        # the generators have order p, so Phi = G'G^p is G' with no closure
        for s in (gs3, r2_4):
            assert s.frattini() is s.derived()

    @pytest.mark.parametrize("p", [3, 5])
    def test_frattini_of_the_cyclic_group_of_order_p_squared(self, p):
        # the adding machine on level 2: x0 x1 -> x0+1 x1, carrying into x1
        # when x0 = p-1; its p-th power lies outside the trivial G'
        images = [
            ((x0 + 1) % p) * p + (x1 + (x0 == p - 1)) % p
            for x0 in range(p)
            for x1 in range(p)
        ]
        s = _session(PermGroup(p * p, [Perm(images)], prime=p))
        g = s.G
        assert g.order_exponent == 2 and s.derived().order_exponent == 0
        assert g.order_exponent - s.frattini().order_exponent == 1
        assert s.frattini().order_exponent == 1
        assert s.frattini().contains(g.generators[0] ** p)

    def test_frattini_contains_commutators_and_powers(self, gs3):
        g = gs3.G
        phi = gs3.frattini()
        for x in g.generators:
            assert phi.contains(x**3)
            for y in g.generators:
                assert phi.contains(x.inverse() * y.inverse() * x * y)
        assert g.order_exponent - phi.order_exponent <= len(g.generators)

    def test_rank_values(self, gs_spec, r2_spec):
        # the rank is log_p|G : Phi(G)| by the Burnside basis theorem
        def rank(s):
            return s.G.order_exponent - s.frattini().order_exponent

        assert rank(_session(PermGroup(9, [], prime=3))) == 0
        assert rank(gv.build(gs_spec, 2)) == 2
        assert rank(gv.build(r2_spec, 3)) == 3


class TestLevelStabilizers:
    def test_level_zero_is_everything(self, gs3):
        assert gs3.G.level_stabilizer(0) is gs3.G

    def test_full_depth_is_trivial(self, gs3):
        st = gs3.G.level_stabilizer(3)
        assert st.order_exponent == 0
        assert same_group(PermGroup(27, [], prime=3), st)

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

    def test_a_level_that_is_no_integer_is_refused_before_any_closure(self, gs_spec):
        # level_stabilizer(1.0) closed G, then failed in range()
        g = gv.build(gs_spec, 3).G
        with mock.patch.object(permgroups, "_close", side_effect=AssertionError("closed")):
            for op in (g.level_stabilizer, g.truncate):
                with pytest.raises(TypeError):
                    op(1.0)
        assert g._chain is None
        # numpy integers pass; G acts on level 1 as a p-cycle
        assert g.level_stabilizer(np.int64(1)).order_exponent == g.order_exponent - 1
        assert g.truncate(np.int8(2)).level == 2

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
            s2.derived(),
            s2.frattini(),
            s2.G.level_stabilizer(1),
            s3.G,
            s3.derived(),
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
        d = gs4.derived()
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
        # the arbitrary permutation, and each probe times a transposition
        # of two leaves: an odd permutation, so outside W_N
        swap = np.arange(g.degree)
        i, j = arbitrary.images[:2]
        swap[[i, j]] = swap[[j, i]]
        outside = [arbitrary] + [x * Perm(swap) for x in probes]
        h = PermGroup(g.degree, subgens, prime=p)
        ref = SchreierSims(g.degree, [x.images for x in subgens])
        assert h.order_exponent == log_order(ref.order(), p)
        for x in probes + outside:
            assert h.contains(x) == ref.contains(x.images)
        seeds = [reference_commutator(x.images, y.images) for x in subgens for y in subgens]
        derived = reference_normal_closure(g.degree, seeds, [x.images for x in subgens])
        h_derived = h.derived()
        assert h_derived.order_exponent == log_order(derived.order(), p)
        for x in probes + list(h_derived.generators) + outside:
            assert h_derived.contains(x) == derived.contains(x.images)
        for m in range(1, n):
            image = [restrict_to_level(x, p, m) for x in subgens]
            kernel = h.order_exponent - _reference_exponent(p**m, image, p)
            st_m = h.level_stabilizer(m)
            assert st_m.order_exponent == kernel
            for x in probes + list(st_m.generators) + outside:
                # a member of h lies in W_N, so its level-m restriction exists
                in_st = ref.contains(x.images) and restrict_to_level(x, p, m).is_identity()
                assert st_m.contains(x) == in_st

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
    """checks._in_power decides membership in H^p, the product of p copies
    of H, from H's layers alone, and checks._power_verdict compares a group
    with H^p; both against H^p closed cold from H's generators placed in
    each first-level slot."""

    def test_trivial_group_without_generators(self):
        h = PermGroup(9, [], prime=3)
        power = PermGroup(27, [], prime=3)
        assert checks._power_verdict(power, h, {}) == (
            {"lhs_exponent": 0, "rhs_exponent": 0},
            None,
        )
        assert checks._in_power(Perm.identity(27), h)
        assert not checks._in_power(rooted(3, 3, 1).to_perm(3), h)

    @settings(max_examples=30)
    @given(_block_power_cases())
    def test_agrees_with_the_closure_of_the_embedded_generators(self, case):
        p, subgens, probes, arbitrary = case
        h = PermGroup(subgens[0].degree, subgens, prime=p)
        ref = power_reference(h)
        assert ref.order_exponent == p * h.order_exponent
        assert ref.chain_summary()["level_dimensions"] == [0] + [
            p * d for d in h.chain_summary()["level_dimensions"]
        ]
        for x in probes + [arbitrary]:
            assert checks._in_power(x, h) == ref.contains(x)
        details, witness = checks._power_verdict(ref, h, {})
        assert witness is None and details["rhs_exponent"] == ref.order_exponent


# -- the closure against its one-candidate-at-a-time reference -------------------


def _recorded_closures(build):
    """Run build() and return the (tree, seeds, conj_by, start, ambient,
    central, result) of every closure it made."""
    calls = []
    real = permgroups._close

    def record(tree, seeds, conj_by, start=None, ambient=None, *, central=False):
        seeds, conj_by = list(seeds), list(conj_by)
        out = real(tree, seeds, conj_by, start, ambient, central=central)
        calls.append((tree, seeds, conj_by, start, ambient, central, out))
        return out

    with mock.patch.object(permgroups, "_close", side_effect=record):
        build()
    return calls


@contextmanager
def _run_sizes(width):
    """The length of every run a closure reduces against its last layer,
    whose rows are `width` wide, in order.  The scratch layer that finds T
    has rows p times narrower; TestModuleGenerators pins its calls."""
    sizes = []
    real = permgroups._Layer.extend

    def spy(lvl, u, p):
        if u.shape[1] == width:
            sizes.append(len(u))
        return real(lvl, u, p)

    with mock.patch.object(permgroups._Layer, "extend", spy):
        yield sizes


def _adopted(layers, ambient):
    """Per level, whether the closure took the ambient's layer object."""
    if ambient is None:
        return [False] * len(layers.levels)
    return [a is b for a, b in zip(layers.levels, ambient.levels)]


def _assert_same_closure(tree, seeds, conj_by, start, ambient, central, got):
    """The closure against the one-at-a-time reference with the same start:
    the same generators, and the same layers array for array, but for the
    levels it took from the ambient, which have the reference's span.  The
    reference is the full closure, for a central closure too: what that one
    skips adds nothing (Central start in the permgroups module docstring)."""
    layers, found = got
    ref_layers, ref_found = reference_close(tree, seeds, conj_by, start)
    assert layers.dimensions() == ref_layers.dimensions()
    adopted = _adopted(layers, ambient)
    sorted_layers, sorted_ref = _pivot_sorted(layers), _pivot_sorted(ref_layers)
    for k, (lvl, ref) in enumerate(zip(layers.levels, ref_layers.levels)):
        if adopted[k]:
            (pa, ra), (pb, rb) = sorted_layers[k], sorted_ref[k]
            assert np.array_equal(pa, pb) and np.array_equal(ra, rb)
            continue
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
        for call in calls:
            _assert_same_closure(*call)

    def test_second_derived_of_two_generators_at_depth_five(self, r2_spec):
        def build():
            g = gv.build(r2_spec, 5).G
            d = g.derived()
            g._grow_from(d)
            commutator_subgroup(d, d, g).chain

        calls = _recorded_closures(build)
        # G' first, then G grown from it, then G''
        assert [sum(got[0].dimensions()) for *_, got in calls] == [97, 100, 91]
        assert [start is not None for _, _, _, start, *_ in calls] == [False, True, False]
        # G'' closes in G, whose layers exist by then
        assert [ambient is not None for *_, ambient, _, _ in calls] == [False, False, True]
        # G grows centrally from G'
        assert [central for *_, central, _ in calls] == [False, True, False]
        for call in calls:
            _assert_same_closure(*call)

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
            g._grow_from(d)
            commutator_subgroup(d, d, g).chain

        calls = _recorded_closures(build)
        # G', then G grown from it at once, then G''; at depth 2 G' is
        # abelian, so G'' has no seeds
        assert len(calls) == 3
        for call in calls:
            _assert_same_closure(*call)

    @pytest.mark.parametrize(
        "p,rows,depth",
        # the depth-6 closures of the deep_containment benchmark, and a p=5
        # spec whose stacks come from three conjugating generators
        [(3, [(1, 0), (0, 1)], 6), (5, [(1, 1, 1, 1), (1, 0, 0, 1)], 4)],
    )
    def test_runs_that_pass_the_run_length(self, p, rows, depth):
        # a stack joins the run whole, so a run may pass _RUN; K, G'' (N1
        # grown from K), gamma3, and G' and G, grown centrally, still match
        # the one-at-a-time closure
        def build():
            s = gv.build(gv.validate(p, rows), depth)
            s.second_derived().chain
            s.G.chain

        with _run_sizes(p ** (depth - 1)) as sizes:
            calls = _recorded_closures(build)
        assert [central for *_, central, _ in calls] == [False] * 3 + [True] * 2
        assert max(sizes) > permgroups._RUN
        for call in calls:
            _assert_same_closure(*call)

    @pytest.mark.parametrize(
        "p,rows,depth", [(3, [(1, 2)], 5), (3, [(1, 0), (0, 1)], 4), (3, [(1, 0)], 5)]
    )
    def test_session_closures_grown_from_k(self, p, rows, depth):
        # K closes cold, N1 and [st(1)', st(1)] grow from it, and the
        # reference gets the same start.  st(1)' and [st(1)', st(1)] take
        # G's layers from the levels in firsts on, none when that is the
        # depth: at p=3 `1,2` N=5 [st(1)', st(1)] fills level 3 with level 4
        # full; at p=3 `1,0` N=5 st(1)' fills level 2 and [st(1)', st(1)]
        # level 3
        firsts = {((1, 2),): (5, 3), ((1, 0), (0, 1)): (4, 4), ((1, 0),): (2, 3)}[tuple(rows)]
        s = gv.build(gv.validate(p, rows), depth)
        calls = _recorded_closures(lambda: [check(s) for check in gv.CHECKS.values()])
        k = s._memo["k"].chain
        assert [start for _, _, _, start, *_ in calls].count(k) == 2
        for handle, m in zip((s.st1_derived(), s.st1_gamma3()), firsts):
            assert _adopted(handle.chain, s.G.chain) == [level >= m for level in range(depth)]
        for call in calls:
            _assert_same_closure(*call)

    def test_last_level_seeds_wait_for_the_upper_residuals(self, gs_spec):
        # members of st(N-1) wait as label stacks; the directed generator
        # leaves a residual on level 1 and is adjoined before any of them
        # reaches the last layer, yet the seeds stay the generators' prefix
        g = gv.build(gs_spec, 4).G
        tree = g.chain.tree
        bottom = [x.images for x in g.level_stabilizer(3).generators]
        a, b = (x.images for x in g.generators)
        seeds = bottom[:2] + [b] + bottom[2:] + [a] + bottom[:1]
        conj_by = [x.images for x in g.generators]
        assert len(bottom) > 2
        with _run_sizes(tree.p ** (tree.depth - 1)) as sizes:
            got = permgroups._close(tree, seeds, conj_by)
        # the last layer's first run holds all that phase 1 left, the
        # commutators and the conjugates' labels, 38 vectors in all
        assert sizes[0] == 38
        _assert_same_closure(tree, seeds, conj_by, None, None, False, got)
        assert [x.tolist() for x, _ in got[1][:3]] == [x.tolist() for x in seeds[:3]]

    @pytest.mark.parametrize(
        "p,rows,depth", [(3, [(1, 0), (0, 1)], 5), (5, [(1, 1, 1, 1), (1, 0, 0, 1)], 4)]
    )
    def test_the_last_layer_grows_after_the_last_upper_residual(self, p, rows, depth):
        # phase 1 never touches the last layer: replayed, each closure of a
        # full run adjoins its last residual above the last level before
        # any layer reduces a stack of label vectors
        spec = gv.validate(p, rows)
        calls = _recorded_closures(lambda: gv.run_all(spec, depth=depth))
        events = []
        admit, extend = permgroups._Layers._admit, permgroups._Layer.extend

        def admitted(layers, *args):
            events.append("admit")
            return admit(layers, *args)

        def extended(lvl, *args):
            events.append("extend")
            return extend(lvl, *args)

        both = 0
        for tree, seeds, conj_by, start, ambient, central, (layers, _) in calls:
            events.clear()
            with mock.patch.object(permgroups._Layers, "_admit", admitted), mock.patch.object(
                permgroups._Layer, "extend", extended
            ):
                again, _ = permgroups._close(tree, seeds, conj_by, start, ambient, central=central)
            assert again.dimensions() == layers.dimensions()
            if "extend" in events:
                assert "admit" not in events[events.index("extend") :]
                both += "admit" in events
        assert both


# -- level N-2: commutators with module generators against every pair ------------


def _assert_spans_of_all_pairs(tree, seeds, conj_by, start, ambient, central, got):
    """The closure's layers against the one-at-a-time closure under the rule
    it had before, which commuted every pair of level-(N-2)
    representatives: every layer's rows sorted by pivot, its reduced
    echelon basis in the one order that depends on the span alone, and the
    layers above the last array for array, but for those taken from the
    ambient."""
    layers, _ = got
    ref, _ = reference_close(tree, seeds, conj_by, start, all_pairs=True)
    assert layers.dimensions() == ref.dimensions()
    for (pa, ra), (pb, rb) in zip(_pivot_sorted(layers), _pivot_sorted(ref)):
        assert np.array_equal(pa, pb) and np.array_equal(ra, rb)
    adopted = _adopted(layers, ambient)
    for k, (lvl, want) in enumerate(zip(layers.levels[:-1], ref.levels[:-1])):
        if adopted[k]:
            continue
        for name in ("rows", "pivots", "reps"):
            assert np.array_equal(getattr(lvl, name)[: lvl.dim], getattr(want, name)[: want.dim])


@contextmanager
def _module_generator_calls():
    """(rows of the level-(N-2) layer, rows from the start, ambient
    generators, T, T by integer elimination) for every T a closure
    computes, in order."""
    calls = []
    real = permgroups._module_generators

    def spy(tree, lvl, new, conj):
        t = real(tree, lvl, new, conj)
        want = reference_module_generators(tree, lvl, new, [y for y, _ in conj])
        calls.append((lvl.dim, new, len(conj), t, want))
        return t

    with mock.patch.object(permgroups, "_module_generators", spy):
        yield calls


class TestModuleGenerators:
    """Level N-2 commutes with the module generators T alone, where the
    closure used to commute every pair of representatives.  Both rules close
    to the same group: the layers above the last array for array, and the
    same span on the last."""

    @settings(max_examples=30)
    @given(_random_subgroups())
    def test_random_subgroups_against_every_pair(self, case):
        g, subgens, _, _ = case
        g.chain

        def build():
            h = PermGroup(g.degree, subgens, prime=g.prime)
            h.chain
            h.derived().chain
            normal_closure(g, subgens).chain

        calls = _recorded_closures(build)
        assert len(calls) == 3
        for call in calls:
            _assert_spans_of_all_pairs(*call)

    @pytest.mark.parametrize(
        "p,rows,depth",
        [(p, rows, 5 if p == 3 else 4) for p, rows in _DIFF_SPECS],
    )
    def test_session_subgroups_against_every_pair(self, p, rows, depth):
        # every closure of a full run: the derived series, G, st(1)',
        # gamma3, gamma3 of st(1) and the subdirect projections
        spec = gv.validate(p, rows)
        with _module_generator_calls() as ts:
            calls = _recorded_closures(lambda: gv.run_all(spec, depth=depth))
        # the rule acts: some closure takes T by elimination, and it is
        # smaller than the layer; and the scratch layer finds the T that
        # integer elimination finds
        assert any(d - new > nx and len(t) < d - new for d, new, nx, t, _ in ts)
        assert all(t == want for *_, t, want in ts)
        for call in calls:
            _assert_spans_of_all_pairs(*call)

    def test_the_deep_containment_cold_closure_queues_t_times_d_plus_d_vectors(self, r2_spec):
        # K, the one cold closure deep_containment makes: level 4 has d = 66
        # rows, and each gains its p-th power when found and |T| = 1
        # commutator stack of 66 once the layer is final, where every pair
        # gave d(d+1)/2 = 2211 level-(N-2) vectors
        counted = {"powers": 0, "commutators": 0}
        real_power, real_comm = permgroups._Tree.power_labels, permgroups._comm_rows

        def power(tree, x):
            counted["powers"] += 1
            return real_power(tree, x)

        def comm(x, xinv, ys, yinvs, points):
            if not isinstance(points, slice):
                counted["commutators"] += len(ys)
            return real_comm(x, xinv, ys, yinvs, points)

        s = gv.build(r2_spec, 6)
        calls = []
        real_close = permgroups._close

        def close(tree, seeds, conj_by, start=None, ambient=None, *, central=False):
            counted.update(powers=0, commutators=0)
            out = real_close(tree, seeds, conj_by, start, ambient, central=central)
            calls.append((start, out[0].levels[-2].dim, dict(counted)))
            return out

        with mock.patch.object(permgroups._Tree, "power_labels", power), mock.patch.object(
            permgroups, "_comm_rows", comm
        ), mock.patch.object(permgroups, "_close", close), _module_generator_calls() as ts:
            s.second_derived()
        start, d, k = calls[0]
        assert start is None and d == 66
        (dim, new, nx, t, want), *_ = ts
        assert (dim, new, nx, t, want) == (66, 0, 3, [0], [0])
        assert k == {"powers": d, "commutators": len(t) * d}
        assert k["powers"] + k["commutators"] <= len(t) * d + d < d * (d + 1) // 2 == 2211


class TestLastLayerModule:
    """The last layer's span is closed under the ambient generators: its
    rows, moved by each one's level-(N-1) vertex map, add no pivot.  That is
    what the last layer's conjugate stacks guarantee, checked in integers
    with no float row."""

    @pytest.mark.parametrize(
        "fixture,depth",
        # p=5 at depth 5 takes 43 s through the row-at-a-time elimination
        [(f, n) for f in SPEC_FIXTURES for n in (3, 4, 5) if (f, n) != ("sym5_spec", 5)],
    )
    def test_every_memo_subgroup(self, fixture, depth, request):
        spec = request.getfixturevalue(fixture)
        s = gv.build(spec, depth)
        for check in gv.CHECKS.values():
            check(s)
        p, width = spec.p, spec.p ** (depth - 1)
        # the first leaf below vertex v goes below vertex x(v)
        maps = [x.images[np.arange(width) * p] // p for x in s.G.generators]
        # K among them, on every spec but the constant vector and p=3 `1,2`
        # at N=3, whose [n, f] are all trivial
        assert ("k" in s._memo) == (fixture != "const_spec" and (fixture, depth) != ("gs_spec", 3))
        for name, h in {"G": s.G, **s._memo}.items():
            lvl = h.chain.levels[-1]
            rows = lvl.rows[: lvl.dim].astype(np.int64)
            moved = []
            for vertex_map in maps:
                shifted = np.empty_like(rows)
                shifted[:, vertex_map] = rows
                moved.extend(shifted)
            assert not any(_adds_pivot(p, [*rows, *moved])[len(rows) :]), name


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
    """A cold normal closure records only the seeds that left a residual,
    and st(1) records b_1, ..., b_r; commutator subgroups seeded from those
    are the ones seeded from every pair of group generators."""

    @pytest.mark.parametrize(
        "p,rows,depth",
        [(p, rows, n) for p, rows in _DIFF_SPECS for n in range(2, 4 if p == 5 else 5)]
        # depth 5, where level 3 has d = 20 rows and T is taken by elimination
        + [(3, [(1, 0), (0, 1)], 5)],
    )
    def test_shared_subgroups(self, p, rows, depth):
        s = gv.build(gv.validate(p, rows), depth)
        g = s.G
        handed = []
        # normal_closure sifts its seeds and hands them on here; derived(),
        # the closures grown from G'' and the session's derived series
        # (through the name ggs binds) hand their seeds here directly
        real = permgroups._normal_closure

        def record(ambient, seeds, start=None, central=False):
            seeds = list(seeds)
            out = real(ambient, seeds, start, central)
            handed.append((out, seeds))
            return out

        with mock.patch.object(
            permgroups, "_normal_closure", side_effect=record
        ), mock.patch.object(ggs, "_normal_closure", side_effect=record):
            st1, st1d = s.st1(), s.st1_derived()
            # name, handle, and the pair it is the commutator subgroup of
            subgroups = [
                ("G'", s.derived(), (g, g)),
                ("gamma3", s.gamma3(), (s.derived(), g)),
                ("st(1)", st1, None),
                ("st(1)'", st1d, (st1, st1)),
                ("gamma3(st(1))", commutator_subgroup(st1d, st1, g), (st1d, st1)),
                ("G''", s.second_derived(), (s.derived(), s.derived())),
            ]
        for name, h, pair in subgroups:
            ambient, kept, _ = h.origin
            assert ambient is g, name
            # the session hands on G' with the closure's layers and other
            # generators
            seeds = g.generators[1:] if pair is None else next(
                e for out, e in handed if out.chain is h.chain
            )
            assert _is_subsequence(kept, seeds), name
            again = normal_closure(g, kept)
            assert again.order_exponent == h.order_exponent, name
            assert again.containment_witness(h) is None, name
            assert h.containment_witness(again) is None, name
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
        assert st1.origin.ambient is g
        bs = st1.origin.elements
        assert len(bs) == s.spec.r
        assert all(b is x for b, x in zip(bs, g.generators[1:]))
        s.derived().chain
        s.second_derived().chain
        counts = []
        real = permgroups._close

        def record(tree, seeds, conj_by, start=None, ambient=None, *, central=False):
            seeds = list(seeds)
            counts.append(len(seeds))
            return real(tree, seeds, conj_by, start, ambient, central=central)

        with mock.patch.object(permgroups, "_close", side_effect=record):
            st1d = s.st1_derived()
            commutator_subgroup(st1d, st1, g).chain
        # r*pr = 20 pairs for st(1)' (70 from all (pr)^2 pairs); it grows
        # from G'', so it records all 14 seeds, and the 112 for
        # gamma3(st(1)) are the non-trivial ones of the 14*pr pairs of those
        # with st(1)'s generators
        assert counts == [14, 112]


# -- warm start: G's layers grown from G''s ---------------------------------------


def _pivot_sorted(layers):
    """Per level, the pivots and rows of a layer sorted by pivot."""
    out = []
    for lvl in layers.levels:
        order = np.argsort(lvl.pivots[: lvl.dim])
        out.append((lvl.pivots[: lvl.dim][order], lvl.rows[: lvl.dim][order]))
    return out


def _layer_arrays(layers):
    """Copies of every array of every layer, to see that none changed."""
    return [
        [a.copy() for a in (lvl.rows, lvl.pivots, lvl.leaves, lvl.reps, lvl.divs)]
        for lvl in layers.levels
    ]


def _wreath_elements(p, n, rng, count):
    """Seeded elements of W_N: each vertex above the leaves turns its
    children by a random power of the p-cycle."""
    out = []
    for _ in range(count):
        x = Perm.identity(p**n)
        for k in range(n):
            cycle = rooted(p, n - k, 1).to_perm(n - k)
            for v in range(p**k):
                x = x * subtree_embed(cycle ** rng.randrange(p), p, vertex_word(v, k, p), n)
        out.append(x)
    return out


_WARM_CASES = [(p, rows, n) for p, rows in _DIFF_SPECS for n in range(2, 5 if p == 5 else 6)]


class TestWarmStart:
    """G's layers grow from G''s when _grow_from is called before they are
    built: the same group as a cold closure, reached without sifting G''s
    seeds and without changing G''s layers."""

    @pytest.mark.parametrize("p,rows,depth", _WARM_CASES)
    def test_warm_g_is_the_cold_closure(self, p, rows, depth):
        g = gv.build(gv.validate(p, rows), depth).G
        d = g.derived()
        # derived() builds none of G's layers by itself
        assert g._chain is None
        before = _layer_arrays(d.chain)
        g._grow_from(d)
        # G's layers are grown at once, G keeps no start, and the layers G'
        # lent are as they were
        warm = g._chain
        assert warm is not None and "_start" not in vars(g)
        for got, want in zip(_layer_arrays(d.chain), before):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        cold = PermGroup(g.degree, g.generators, prime=p)
        assert warm.dimensions() == cold.chain.dimensions()
        for (pa, ra), (pb, rb) in zip(_pivot_sorted(warm), _pivot_sorted(cold.chain)):
            assert np.array_equal(pa, pb) and np.array_equal(ra, rb)
        if depth <= (3 if p == 5 else 4):
            ref = SchreierSims(g.degree, [x.images for x in g.generators])
            rng = random.Random(depth * p)
            probes = _words(list(g.generators), rng) + _wreath_elements(p, depth, rng, 8)
            # some probe lies outside G unless G is all of W_N
            whole = g.order_exponent == (p**depth - 1) // (p - 1)
            assert whole or any(not ref.contains(x.images) for x in probes)
            for x in probes:
                assert g.contains(x) == ref.contains(x.images)

    def test_derived_sifts_nothing(self, r2_spec):
        g = gv.build(r2_spec, 4).G
        fail = AssertionError("a seed was sifted")
        with mock.patch.object(PermGroup, "contains", side_effect=fail):
            d = g.derived()
        # G' closed before G's layers exist; two directed generators leave
        # index p^3
        assert g._chain is None
        assert g.order_exponent - d.order_exponent == 3

    def test_built_handles_keep_no_start(self, gs4):
        g = gs4.G
        layers = g.chain
        g._grow_from(g.derived())
        assert g.chain is layers and "_start" not in vars(g)
        st1 = g.level_stabilizer(1)
        layers = st1.chain
        st1._grow_from(st1.derived())
        assert st1.chain is layers

    @settings(max_examples=30)
    @given(_random_subgroups())
    def test_random_subgroups(self, case):
        g, subgens, _, _ = case
        h = PermGroup(g.degree, subgens, prime=g.prime)
        h._grow_from(h.derived())
        assert h._chain is not None
        cold = PermGroup(g.degree, subgens, prime=g.prime)
        assert _same_spans(h, cold)


_WARM_NORMAL_CASES = [
    (p, rows, n) for p, rows in _DIFF_SPECS for n in range(3, 5 if p == 5 else 6)
]


def _warm_closures(s):
    """(name, warm handle, cold handle, start, copies of the start's arrays
    before the warm closure) for st(1)' and gamma3 grown from G'' and from
    [st(1)', st(1)], each start closed cold first."""
    g, d, st1 = s.G, s.derived(), s.st1()
    cold = {"st(1)'": commutator_subgroup(st1, st1, g), "gamma3": commutator_subgroup(d, g, g)}
    starts = {
        "G''": commutator_subgroup(d, d, g),
        "[st(1)', st(1)]": commutator_subgroup(cold["st(1)'"], st1, g),
    }
    pairs = {"st(1)'": (st1, st1), "gamma3": (d, g)}
    out = []
    for start_name, start in starts.items():
        for name, (a, b) in pairs.items():
            before = _layer_arrays(start.chain)
            warm = commutator_subgroup(a, b, g, start)
            out.append((f"{name} from {start_name}", warm, cold[name], start, before))
    return out


class TestWarmNormalClosure:
    """st(1)' and gamma3 grown from G'' or from [st(1)', st(1)], normal
    subgroups of G that both contain: the cold closure's group, generated by
    the start's generators and those found, and closed from every seed."""

    @pytest.mark.parametrize("p,rows,depth", _WARM_NORMAL_CASES)
    def test_warm_equals_cold(self, p, rows, depth):
        s = gv.build(gv.validate(p, rows), depth)
        g = s.G
        small = depth <= (3 if p == 5 else 4)
        for name, warm, cold, start, before in _warm_closures(s):
            assert warm.chain.dimensions() == cold.chain.dimensions(), name
            assert _same_spans(warm, cold), name
            # the start lent its layers and kept them as they were
            for got, want in zip(_layer_arrays(start.chain), before):
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), name
            # generators: the start's, then those the closure found
            n = len(start.generators)
            assert all(x is y for x, y in zip(warm.generators[:n], start.generators)), name
            assert warm.origin.levels[:n] == start.origin.levels, name
            # every truncation is generated by the generators it keeps
            for m in range(1, depth):
                t = warm.truncate(m)
                again = PermGroup(t.degree, t.generators, prime=p)
                assert again.order_exponent == cold.truncate(m).order_exponent, (name, m)
            # the seeds it records close to it
            ambient, seeds, _ = warm.origin
            again = normal_closure(ambient, seeds)
            assert ambient is g and same_group(again, warm) and same_group(warm, again), name
            if small:
                ref = SchreierSims(g.degree, [x.images for x in cold.generators])
                gen_ref = SchreierSims(g.degree, [x.images for x in warm.generators])
                assert gen_ref.order() == ref.order() == p**warm.order_exponent, name
                rng = random.Random(depth * p)
                probes = _words(list(g.generators), rng) + _words(list(warm.generators), rng)
                probes += _wreath_elements(p, depth, rng, 4)
                assert any(not ref.contains(x.images) for x in probes), name
                for x in probes:
                    assert warm.contains(x) == ref.contains(x.images), name

    def test_a_warm_closure_sifts_no_seed(self, r2_spec):
        s = gv.build(r2_spec, 4)
        g, d = s.G, s.derived()
        start = commutator_subgroup(d, d, g)
        start.chain
        sifted = []
        real = PermGroup.contains

        def contains(group, x):
            sifted.append(group)
            return real(group, x)

        with mock.patch.object(PermGroup, "contains", contains), mock.patch.object(
            permgroups, "normal_closure", side_effect=AssertionError("cold path")
        ):
            warm = commutator_subgroup(d, g, g, start)
        # not even the argument check: G' was closed in G, and G is G
        assert sifted == []
        assert warm.order_exponent == s.gamma3().order_exponent


def test_commutators_need_no_inverse(gs4):
    g, d = gs4.G, gs4.derived()
    xs, ys = list(d.generators[:4]), list(g.generators)
    with mock.patch.object(permgroups, "_inverse", side_effect=AssertionError("inverted")):
        got = permgroups._commutators(xs, ys)
    want = [reference_commutator(x.images, y.images) for x, y in product(xs, ys)]
    want = [c for c in want if not np.array_equal(c, np.arange(len(c)))]
    assert got and len(got) == len(want)
    assert all(np.array_equal(a.images, b) for a, b in zip(got, want))


@pytest.mark.parametrize("fixture", SPEC_FIXTURES)
def test_commutators_match_the_pairwise_ones(fixture, request):
    # the gathers over stacked right factors give commutator(x, y) for each
    # pair in the order of product or combinations, the identity left out;
    # the pairs of a generating set with itself and a repeated element give
    # identities to leave out
    spec = request.getfixturevalue(fixture)
    s = gv.build(spec, 3)
    st1, st1d, g = s.st1(), s.st1_derived(), s.G
    cases = [
        ((st1d.generators, st1.generators), product(st1d.generators, st1.generators)),
        ((g.generators, g.generators), product(g.generators, g.generators)),
        ((g.generators,), combinations(g.generators, 2)),
        ((list(g.generators) * 2,), combinations(list(g.generators) * 2, 2)),
        ((st1.generators, []), ()),
        (([],), ()),
    ]
    for args, pairs in cases:
        want = [c for c in (commutator(x, y) for x, y in pairs) if not c.is_identity()]
        got = permgroups._commutators(*args)
        assert [c.images.tolist() for c in got] == [c.images.tolist() for c in want]
        assert all(not c.images.flags.writeable for c in got)


# -- central start: the start holds the result's commutators with G ---------------


def _central_closures(s):
    """The recorded calls (_recorded_closures) of the central closures that
    running every check on session s makes, in order."""
    calls = _recorded_closures(lambda: [check(s) for check in gv.CHECKS.values()])
    return [call for call in calls if call[5]]


class TestCentralStart:
    """G' from gamma3, G from G' and Phi(G) from G' are promised that the
    start holds their commutators with G, so they queue no conjugate and no
    commutator, only p-th powers (Central start in the permgroups module
    docstring).  What they skip adds nothing: each is the full closure from
    the same start, array for array."""

    @pytest.mark.parametrize("fixture,depth", [(f, n) for f in SPEC_FIXTURES for n in range(2, 6)])
    def test_session_closures_are_the_full_closure(self, fixture, depth, request):
        s = gv.build(request.getfixturevalue(fixture), depth)
        central = _central_closures(s)
        # G' from gamma3, then G from G'
        assert [call[3] for call in central] == [s.gamma3().chain, s.derived().chain]
        for call in central:
            _assert_same_closure(*call)

    @pytest.mark.parametrize("fixture", SPEC_FIXTURES)
    def test_frattini_of_a_mutant_is_the_full_closure(self, fixture, request):
        # with a mutated, a^p lies outside G', so Phi(G) grows from G'
        s = last_vertex_mutant(request.getfixturevalue(fixture), 4, 0, 0)
        central = _central_closures(s)
        d = s.derived()
        assert s.frattini() is not d
        assert [call[3] for call in central] == [s.gamma3().chain, d.chain, d.chain]
        assert central[-1][-1][0] is s.frattini().chain
        for call in central:
            _assert_same_closure(*call)

    def test_a_start_without_the_commutators_falls_short(self, request):
        # negative control: grown centrally from G'', which need not hold
        # [G', G] = gamma3, the closure of S misses part of G' somewhere
        short = 0
        for fixture in SPEC_FIXTURES:
            s = gv.build(request.getfixturevalue(fixture), 4)
            d = s.derived()
            got = permgroups._normal_closure(
                s.G, d.origin.elements, start=s.second_derived(), central=True
            )
            assert got.order_exponent <= d.order_exponent, fixture
            short += got.order_exponent < d.order_exponent
        assert short

    @pytest.mark.parametrize("central", [False, True])
    def test_a_closure_that_adds_no_row_shares_the_start(self, gs4, central):
        # G''s own generators reach its last layer as runs that add no row:
        # no layer takes room, the last one included, so each keeps the
        # start's arrays, and nothing is trimmed
        d = gs4.derived()
        tree = d.chain.tree
        seeds = [x.images for x in d.generators]
        conj_by = [x.images for x in gs4.G.generators]
        with _run_sizes(tree.p ** (tree.depth - 1)) as sizes:
            layers, found = permgroups._close(tree, seeds, conj_by, d.chain, central=central)
        assert sizes and found == []
        assert layers.dimensions() == d.chain.dimensions()
        for lvl, start in zip(layers.levels, d.chain.levels):
            for name in ("rows", "pivots", "leaves", "reps", "divs"):
                got, want = getattr(lvl, name), getattr(start, name)
                assert got.size == 0 or np.shares_memory(got, want), name


def _first_outside(group, other):
    """The first generator of `other` outside `group`, by sifting every one."""
    return next((x for x in other.generators if not group.contains(x)), None)


def _witness_groups(s):
    """The subgroups the checks compare, by name: the shared ones, with
    st(1)', gamma3 and [st(1)', st(1)] closed cold here, the level
    stabilizers of G and the block power of G' one level down, and the
    subgroup G''s kept seeds span, which G need not normalize."""
    g, n = s.G, s.depth
    st1d = commutator_subgroup(s.st1(), s.st1(), g)
    groups = {
        "<E(G')>": PermGroup(g.degree, s.derived().origin.elements, prime=g.prime),
        "G": g,
        "G'": s.derived(),
        "Phi(G)": s.frattini(),
        "gamma3": commutator_subgroup(s.derived(), g, g),
        "st(1)": s.st1(),
        "st(1)'": st1d,
        "[st(1)', st(1)]": commutator_subgroup(st1d, s.st1(), g),
        "G''": s.second_derived(),
        "G'(N-1)^p": power_reference(s.derived().truncate(n - 1)),
    }
    groups.update((f"st_{m}", g.level_stabilizer(m)) for m in range(1, n))
    return groups


class TestContainmentWitnessRule:
    """containment_witness sifts only the elements a normal closure was
    closed from when the container is invariant under the same ambient, and
    names the element a scan of every generator names; for the session's
    st(1)', gamma3 and [st(1)', st(1)], grown warm, that is the element a
    scan of the cold closure's generators names."""

    @pytest.mark.parametrize("fixture,depth", [(f, n) for f in SPEC_FIXTURES for n in (3, 4)])
    def test_matches_a_full_scan(self, fixture, depth, request):
        self._check_every_pair(gv.build(request.getfixturevalue(fixture), depth))

    def test_matches_a_full_scan_on_a_mutant(self, gs_spec):
        self._check_every_pair(last_vertex_mutant(gs_spec, 5, 1, 0))

    @staticmethod
    def _check_every_pair(s):
        groups = _witness_groups(s)
        g = s.G
        warm = {"st(1)'": s.st1_derived(), "gamma3": s.gamma3(), "[st(1)', st(1)]": s.st1_gamma3()}
        outside = 0
        for name, group in groups.items():
            invariant = group is g or group.origin.ambient is g
            for other_name, other in groups.items():
                want = _first_outside(group, other)
                assert group.containment_witness(other) == want, (name, other_name)
                outside += want is not None
                if other_name in warm:
                    assert warm[other_name].containment_witness(group) == (
                        other.containment_witness(group)
                    ), (other_name, name)
                    if invariant:
                        # the warm handle's seeds are sifted first
                        got = group.containment_witness(warm[other_name])
                        assert got == want, (name, other_name)
        # the pairs are not all containments
        assert outside

    @staticmethod
    def _sifted_before_the_closure(a, b, ambient):
        """The elements commutator_subgroup(a, b, ambient) sifts before its
        cold closure starts; raises what it raises."""
        sifted = []
        real_contains = PermGroup.contains
        real_closure = permgroups.normal_closure

        def contains(group, x):
            sifted.append(x)
            return real_contains(group, x)

        def closure(ambient, elements):
            sifted.append("closure")
            return real_closure(ambient, elements)

        sift = mock.patch.object(PermGroup, "contains", autospec=True, side_effect=contains)
        with sift, mock.patch.object(permgroups, "normal_closure", side_effect=closure):
            commutator_subgroup(a, b, ambient)
        return sifted[: sifted.index("closure")]

    def test_commutator_arguments_closed_in_the_ambient_are_not_sifted(self, gs4):
        s = gs4
        g, d = s.G, s.derived()
        # G' was closed in G, and G is the ambient itself: both lie in it
        assert d.origin.ambient is g
        assert self._sifted_before_the_closure(d, g, g) == []
        assert self._sifted_before_the_closure(s.st1(), s.st1(), g) == []

    def test_other_commutator_arguments_are_sifted(self, gs4):
        s = gs4
        g, d = s.G, s.derived()
        # a level stabilizer and a hand-made group were closed in nothing:
        # each is checked by its generators, in order, and G not at all
        st2 = g.level_stabilizer(2)
        made = PermGroup(g.degree, d.generators[:3], prime=g.prime)
        for sub in (st2, made):
            assert sub.origin.ambient is None
            got = self._sifted_before_the_closure(sub, g, g)
            assert len(got) == len(sub.generators)
            assert all(x is y for x, y in zip(got, sub.generators))

    def test_arguments_outside_the_ambient_are_refused(self, gs4):
        s = gs4
        g, d = s.G, s.derived()
        # G is no subgroup of G', by hand or closed in another ambient
        made = PermGroup(g.degree, g.generators, prime=g.prime)
        for sub in (made, s.st1()):
            with pytest.raises(ElementNotInAmbient):
                commutator_subgroup(sub, d, d)
            with pytest.raises(ElementNotInAmbient):
                commutator_subgroup(d, sub, d)


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
    lvl = permgroups._Layer(permgroups._Tree(p, depth), depth - 1)
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


@st.composite
def _label_stacks(draw):
    """(p, m, a stack of level-m label vectors in the narrow type, a
    reordering of it, a split point): the vectors are combinations of a
    random basis of at most the width, so many depend on others."""
    p = draw(st.sampled_from([3, 5, 7]))
    m = draw(st.integers(0, {3: 4, 5: 2, 7: 2}[p]))
    width = p**m
    rank = draw(st.integers(0, width))
    n = draw(st.integers(0, 2 * width + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = rng.integers(0, p, (rank, width))
    u = (rng.integers(0, p, (n, rank)) @ basis % p).astype(np.uint8)
    return p, m, u, draw(st.permutations(range(n))), draw(st.integers(0, n))


class TestPivotLemma:
    """Each row's pivot is the first non-zero column of its residual, so the
    pivots are the leading columns of the span, and the rows sorted by pivot
    its reduced echelon basis: the same vectors in two orders give the same
    (Pivots in the permgroups module docstring)."""

    @settings(max_examples=60)
    @given(_label_stacks())
    def test_sorted_rows_depend_on_the_span_alone(self, case):
        p, m, u, order, split = case
        got = []
        for stack in (u, u[order]):
            lvl = permgroups._Layer(permgroups._Tree(p, m + 1), m)
            # two runs, so the second clears its pivots from the first's rows
            lvl.extend(stack[:split], p)
            lvl.extend(stack[split:], p)
            by_pivot = np.argsort(lvl.pivots[: lvl.dim])
            got.append((lvl.dim, lvl.pivots[: lvl.dim][by_pivot], lvl.rows[: lvl.dim][by_pivot]))
        (dim, pivots, rows), (dim2, pivots2, rows2) = got
        assert dim == dim2
        assert np.array_equal(pivots, pivots2)
        assert np.array_equal(rows, rows2)


def _float64_rows():
    """Every tree made meanwhile keeps its label rows in float64."""
    return mock.patch.object(permgroups, "_row_type", lambda p, n: np.float64)


def _assert_same_closures(narrow, wide):
    """Closures recorded with float32 rows and again with float64 rows give
    the same layers, array for array, and the same generators."""
    assert len(narrow) == len(wide)
    for (*_, (layers, found)), (*_, (ref, ref_found)) in zip(narrow, wide):
        assert layers.tree.row_type is np.float32 and ref.tree.row_type is np.float64
        assert layers.dimensions() == ref.dimensions()
        for a, b in zip(layers.levels, ref.levels):
            assert a.rows.dtype == np.float32 and b.rows.dtype == np.float64
            for name in ("rows", "pivots", "leaves", "reps", "divs"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert [k for _, k in found] == [k for _, k in ref_found]
        for (x, _), (y, _) in zip(found, ref_found):
            assert np.array_equal(x, y)


class TestNarrowTypes:
    """Label rows are float32 where every value the float code forms is an
    integer below 2**22, and float64 elsewhere; the last level's labels are
    the narrowest unsigned type holding p - 1.  Neither moves a row, pivot,
    representative or generator."""

    @pytest.mark.parametrize(
        "p,n,row_type",
        # (p-1)^2 p^(n-1) + p^3 against 2^22 = 4194304, on both sides
        [
            (3, 13, np.float32),  # 4 * 3^12 + 27 = 2125791
            (3, 14, np.float64),  # 4 * 3^13 + 27 = 6377319
            (5, 8, np.float32),  # 16 * 5^7 + 125 = 1250125
            (5, 9, np.float64),  # 16 * 5^8 + 125 = 6250125
            (7, 6, np.float32),  # 36 * 7^5 + 343 = 605395
            (7, 7, np.float64),  # 36 * 7^6 + 343 = 4236707
            (2, 22, np.float32),  # 2^21 + 8
            (2, 23, np.float64),  # 2^22 + 8
            (257, 1, np.float64),  # 256^2 + 257^3
        ],
    )
    def test_row_type_on_both_sides_of_the_bound(self, p, n, row_type):
        assert permgroups._row_type(p, n) is row_type

    @pytest.mark.parametrize(
        "p,n,label_type", [(3, 4, np.uint8), (7, 2, np.uint8), (257, 1, np.uint16)]
    )
    def test_last_labels_are_the_narrowest_unsigned_type(self, p, n, label_type):
        tree = permgroups._Tree(p, n)
        assert tree.digits[-1].dtype == label_type
        assert np.array_equal(tree.digits[-1], np.arange(p**n) % p)
        # the levels above the last keep intp
        assert all(d.dtype == np.intp for d in tree.digits[:-1])

    def test_runs_are_label_stacks_times_float32_rows(self, r2_spec):
        # every run the closures of G, G' and G'' reduce is uint8, and so is
        # every stack of conjugates, commutators and p-th powers in it
        dtypes = []
        real = permgroups._Layer.extend

        def spy(lvl, u, p):
            dtypes.append((u.dtype, lvl.rows.dtype))
            return real(lvl, u, p)

        with mock.patch.object(permgroups._Layer, "extend", spy):
            gv.build(r2_spec, 5).second_derived().chain
        assert len(dtypes) > 3
        assert set(dtypes) == {(np.dtype(np.uint8), np.dtype(np.float32))}

    @pytest.mark.parametrize("fixture", SPEC_FIXTURES)
    def test_float32_and_float64_rows_agree_on_a_full_run(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        depth = 4 if spec.p == 3 else 3
        reports = []

        def build():
            reports.append([v.to_jsonable() for v in gv.run_all(spec, depth=depth).verdicts])

        narrow = _recorded_closures(build)
        with _float64_rows():
            wide = _recorded_closures(build)
        _assert_same_closures(narrow, wide)
        assert reports[0] == reports[1]

    @settings(max_examples=30)
    @given(_random_subgroups())
    def test_float32_and_float64_rows_agree_on_random_subgroups(self, case):
        g, subgens, _, _ = case

        def build():
            ambient = PermGroup(g.degree, g.generators, prime=g.prime)
            h = PermGroup(g.degree, subgens, prime=g.prime)
            h.chain
            h.derived().chain
            normal_closure(ambient, subgens).chain

        narrow = _recorded_closures(build)
        with _float64_rows():
            wide = _recorded_closures(build)
        assert len(narrow) == 4
        _assert_same_closures(narrow, wide)

    def test_push_rewrites_a_representative_whose_conjugates_wait(self, r2_spec):
        # b1 b2 and b2 leave residuals (1, 1, 0) and (0, 1, 0) on level 1:
        # the second clears its pivot out of the first's row, and so
        # rewrites the first representative in place, before any conjugate
        # of the first is made
        g = gv.build(r2_spec, 4).G
        tree = g.chain.tree
        _, b1, b2 = g.generators
        seeds = [(b1 * b2).images, b2.images]
        conj_by = [x.images for x in g.generators]
        events = []
        real_push, real_conj = permgroups._Layer.push, permgroups._conj

        def push(lvl, hits):
            events.append(("push", [i for i, _ in hits]))
            return real_push(lvl, hits)

        def conj(w, s, sinv):
            events.append(("conj",))
            return real_conj(w, s, sinv)

        with mock.patch.object(permgroups._Layer, "push", push):
            with mock.patch.object(permgroups, "_conj", conj):
                got = permgroups._close(tree, seeds, conj_by)
        assert events[:2] == [("push", []), ("push", [0])]
        assert ("conj",) in events
        _assert_same_closure(tree, seeds, conj_by, None, None, False, got)


class TestWorkingSet:
    def test_depth_six_second_derived_containment_peak(self, r2_spec):
        # the live bytes Python and numpy allocate, so the heap's reuse of
        # freed pages cannot move it: 9.48 MiB with float64 rows, intp label
        # stacks and eager conjugates, 6.81 MiB without
        before = tracemalloc.is_tracing()
        if not before:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rep = gv.run_all(r2_spec, depth=6, checks=["second_derived_contains_stab"])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not before:
                tracemalloc.stop()
        assert rep.verdicts[0].holds
        assert peak < 8 * 2**20


class TestLayerLayout:
    """A finished layer holds exactly its dimension of rows, the last layer
    too, whose buffer may hold a run past its width while a closure runs,
    and for each pivot the first leaf below its vertex in the handle's own
    tree: in closures, truncations and suffixes alike.  Below the last
    level a layer holds its representatives and their divisors as two
    arrays of exactly its dimension: nothing reserved for rows never filled
    is kept, and divs[c-1, j] is reps[j] raised to -c."""

    @pytest.mark.parametrize("fixture", ["gs_spec", "r2_spec", "sym5_spec"])
    def test_closure_truncation_and_stabilizer(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        g = gv.build(spec, 5 if spec.p == 3 else 4).G
        n = g.level
        handles = (g, g.level_stabilizer(2))
        handles += (g.truncate(n - 1), g.derived().truncate(3), g.truncate(n - 1).level_stabilizer(1))
        for h in handles:
            p, degree = h.prime, h.degree
            identity = np.arange(degree)
            layers = h.chain.levels
            assert len(layers) == h.level
            for m, lvl in enumerate(layers):
                assert lvl.rows.shape == (lvl.dim, p**m)
                assert len(lvl.pivots) == lvl.dim
                below = p ** (h.level - m)
                assert np.array_equal(lvl.leaves, lvl.pivots[: lvl.dim] * below)
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
