import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ggsver as gv
from ggsver.portraits import (
    DegreeMismatch,
    Perm,
    commutator,
    directed,
    embed_at_vertex,
    level_of_degree,
    restrict_to_level,
    rooted,
    subtree_embed,
    subtree_section,
    vertex_index,
    vertex_word,
)
from oracles import portrait_directed, portrait_embed, portrait_rooted

FINGERPRINTS = Path(__file__).parent / "golden" / "fingerprints.json"

# the specs of tests/conftest.py and of the CI verify steps; the golden
# fingerprints add theirs in _suite_specs
EXTRA_SPECS = [
    (3, [(1, 2)]),
    (3, [(1, 1)]),
    (3, [(1, 0), (0, 1)]),
    (5, [(1, 1, 1, 1), (1, 0, 0, 1)]),
    (5, [(1, 1, 1, 1)]),
    (7, [tuple(int(j == i) for j in range(6)) for i in range(6)]),
]

# deepest tree compared per arity: past every depth the suite builds
MAX_DEPTH = {3: 8, 5: 6, 7: 5}


def leaf_generators(spec, depth):
    """Leaf permutations of a, b_1, ..., b_r at the given depth."""
    gens = [rooted(spec.p, depth, 1)]
    gens += [directed(spec, depth, i) for i in range(1, spec.r + 1)]
    return [g.to_perm(depth) for g in gens]


def leaf_words(spec, depths, rng, count):
    """Random words in the generators, one leaf permutation per depth."""
    gens = {n: leaf_generators(spec, n) for n in depths}
    out = []
    for _ in range(count):
        w = {n: Perm.identity(spec.p**n) for n in depths}
        for _ in range(rng.randint(1, 6)):
            i = rng.randrange(spec.r + 1)
            e = rng.randint(1, spec.p - 1)
            w = {n: w[n] * gens[n][i] ** e for n in depths}
        out.append(w)
    return out


class TestIdentityAndRooted:
    def test_identity_fixes_vertices(self):
        e = Perm.identity(9)
        for k in range(9):
            assert e(k) == k

    def test_rooted_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rooted(4, 2)
        with pytest.raises(ValueError):
            rooted(2, 2)
        with pytest.raises(ValueError):
            rooted(9, 2)
        with pytest.raises(ValueError):
            rooted(3, 0)

    def test_rooted_cycles_first_level(self):
        # the first digit moves up by one, the digits below stay
        a = rooted(3, 3, 1).to_perm(3)
        assert a(vertex_index((0, 1, 2), 3)) == vertex_index((1, 1, 2), 3)
        assert a(vertex_index((2, 0, 1), 3)) == vertex_index((0, 0, 1), 3)

    def test_rooted_power_zero_is_identity(self):
        assert rooted(3, 2, 0).to_perm(2) == Perm.identity(9)

    def test_rooted_has_order_p(self):
        a = rooted(5, 2, 1).to_perm(2)
        cur = a
        for _ in range(4):
            assert not cur.is_identity()
            cur = cur * a
        assert cur.is_identity()


def _suite_specs():
    specs = {(p, tuple(map(tuple, rows))) for p, rows in EXTRA_SPECS}
    for entry in json.loads(FINGERPRINTS.read_text()):
        specs.add((entry["p"], tuple(map(tuple, entry["vectors"]))))
    return sorted(specs)


def _assert_levels(aut, ref):
    # the closed form against the recursive portrait, at every level
    for m in range(aut.depth + 1):
        assert np.array_equal(aut.to_perm(m).images, ref.images(m))


class TestClosedForm:
    """The closed-form generators against the recursive portraits of
    tests/oracles.py, image for image."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_rooted_matches_portraits(self, p):
        for depth in range(1, 4):
            for power in range(p):
                _assert_levels(rooted(p, depth, power), portrait_rooted(p, depth, power))

    @pytest.mark.parametrize("p,rows", _suite_specs())
    def test_directed_matches_portraits(self, p, rows):
        spec = gv.validate(p, rows)
        for depth in range(1, MAX_DEPTH[p] + 1):
            for i, vec in enumerate(spec.vectors, start=1):
                got = directed(spec, depth, i).to_perm(depth)
                assert np.array_equal(got.images, portrait_directed(p, vec, depth).images(depth))
        # every level of the deepest first generator
        n = MAX_DEPTH[p]
        _assert_levels(directed(spec, n, 1), portrait_directed(p, spec.vectors[0], n))

    @pytest.mark.parametrize("spec_name", ["gs_spec", "sym5_spec"])
    def test_embed_matches_portraits(self, request, spec_name):
        spec = request.getfixturevalue(spec_name)
        p = spec.p
        for level in (1, 2):
            g = directed(spec, 4 - level, 1)
            ref = portrait_directed(p, spec.vectors[0], 4 - level)
            for k in range(p**level):
                word = vertex_word(k, level, p)
                _assert_levels(embed_at_vertex(g, word, 4), portrait_embed(ref, word, 4))

    @given(
        st.sampled_from([3, 5, 7]).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1).filter(any),
                st.integers(2, 4 if p == 7 else 5),
            )
        )
    )
    def test_first_level_rule_on_random_vectors(self, case):
        # psi(b) = (a^e_1, ..., a^e_(p-1), b), and a is the p-cycle on level 1
        p, vec, n = case
        spec = gv.validate(p, [vec])
        b = directed(spec, n, 1).to_perm(n)
        parts = [subtree_section(b, p, (j,)) for j in range(p)]
        expected = [rooted(p, n - 1, e).to_perm(n - 1) for e in vec]
        expected.append(directed(spec, n - 1, 1).to_perm(n - 1))
        assert parts == expected
        assert rooted(p, n, 1).to_perm(1) == Perm([(d + 1) % p for d in range(p)])


class TestDirected:
    def test_sections_follow_the_vector(self, gs_spec, sym5_spec):
        # b_i's first-level sections are a^e_1, ..., a^e_(p-1), b_i
        for spec, n in ((gs_spec, 4), (sym5_spec, 3)):
            p = spec.p
            for i, vec in enumerate(spec.vectors, start=1):
                b = directed(spec, n, i).to_perm(n)
                parts = [subtree_section(b, p, (j,)) for j in range(p)]
                expected = [rooted(p, n - 1, e).to_perm(n - 1) for e in vec]
                expected.append(directed(spec, n - 1, i).to_perm(n - 1))
                assert parts == expected

    def test_depth_one_truncates_to_identity(self, gs_spec):
        assert directed(gs_spec, 1, 1).to_perm(1) == Perm.identity(3)

    def test_index_out_of_range(self, gs_spec):
        with pytest.raises(ValueError):
            directed(gs_spec, 3, 2)

    def test_generators_have_order_p(self, gs_spec, sym5_spec):
        for spec, depth in [(gs_spec, 2), (gs_spec, 3), (sym5_spec, 2), (sym5_spec, 3)]:
            for g in leaf_generators(spec, depth):
                assert not g.is_identity()
                assert (g**spec.p).is_identity()

    def test_conjugation_by_rooted_shifts_sections(self, sym5_spec):
        # section d of b^a is section d-1 of b; check_subdirect relies on it
        a = rooted(5, 3, 1).to_perm(3)
        for i in (1, 2):
            b = directed(sym5_spec, 3, i).to_perm(3)
            shifted = a.inverse() * b * a
            for d in range(5):
                assert subtree_section(shifted, 5, (d,)) == subtree_section(
                    b, 5, ((d - 1) % 5,)
                )


class TestComposeInverse:
    def test_inverse_antihomomorphism(self, gs_spec):
        rng = random.Random(7)
        els = [w[3] for w in leaf_words(gs_spec, (3,), rng, 20)]
        for f, g in zip(els[::2], els[1::2]):
            assert (f * g).inverse() == g.inverse() * f.inverse()
            assert (f * f.inverse()).is_identity()

    def test_squared_directed_section(self, gs_spec):
        bb = directed(gs_spec, 3, 1).to_perm(3) ** 2
        assert subtree_section(bb, 3, (2,)) == directed(gs_spec, 2, 1).to_perm(2) ** 2

    def test_depth_mismatch_rejected(self, gs_spec):
        with pytest.raises(DegreeMismatch):
            rooted(3, 2, 1).to_perm(2) * rooted(3, 3, 1).to_perm(3)
        with pytest.raises(DegreeMismatch):
            commutator(rooted(3, 2, 1).to_perm(2), rooted(3, 3, 1).to_perm(3))

    def test_commutator_is_the_product(self, gs_spec):
        rng = random.Random(5)
        els = [w[3] for w in leaf_words(gs_spec, (3,), rng, 20)]
        for f, g in zip(els[::2], els[1::2]):
            assert commutator(f, g) == f.inverse() * g.inverse() * f * g


class TestSectionsAndPsi:
    """Sections of leaf permutations below a vertex; at level 1, the map psi."""

    def test_section_of_identity(self):
        e = Perm.identity(27)
        assert subtree_section(e, 3, (0, 1)).is_identity()

    def test_section_twist_law(self, gs_spec):
        # (fg)|v = f|v g|f(v): the slots of a product are read off its factors
        rng = random.Random(11)
        els = [w[3] for w in leaf_words(gs_spec, (3,), rng, 30)]
        for f, g in zip(els[::2], els[1::2]):
            top = restrict_to_level(f, 3, 1)
            for k in range(3):
                lhs = subtree_section(f * g, 3, (k,))
                rhs = subtree_section(f, 3, (k,)) * subtree_section(g, 3, (top(k),))
                assert lhs == rhs

    def test_commutator_with_shifted_conjugate(self, gs_spec):
        # expand [b, b^a] through first-level sections by hand
        b = directed(gs_spec, 3, 1).to_perm(3)
        a = rooted(3, 3, 1).to_perm(3)
        got = commutator(b, a.inverse() * b * a)
        a2 = rooted(3, 2, 1).to_perm(2)
        b2 = directed(gs_spec, 2, 1).to_perm(2)
        assert subtree_section(got, 3, (0,)) == commutator(a2, b2)
        assert subtree_section(got, 3, (1,)).is_identity()
        assert subtree_section(got, 3, (2,)) == commutator(b2, a2**2)


class TestEmbed:
    def test_embed_identity(self):
        e = rooted(3, 2, 0)
        assert embed_at_vertex(e, (0, 1), 4).to_perm(4) == Perm.identity(81)

    def test_embed_fills_one_slot(self, gs_spec):
        g = directed(gs_spec, 3, 1)
        emb = embed_at_vertex(g, (0,), 4).to_perm(4)
        assert subtree_section(emb, 3, (0,)) == g.to_perm(3)
        assert subtree_section(emb, 3, (1,)).is_identity()
        assert subtree_section(emb, 3, (2,)).is_identity()

    def test_disjoint_embeddings_commute(self, gs_spec):
        g = directed(gs_spec, 3, 1)
        h = rooted(3, 3, 1)
        e0 = embed_at_vertex(g, (0,), 4).to_perm(4)
        e1 = embed_at_vertex(h, (1,), 4).to_perm(4)
        assert e0 * e1 == e1 * e0

    def test_depth_mismatch(self, gs_spec):
        with pytest.raises(ValueError):
            embed_at_vertex(directed(gs_spec, 3, 1), (0,), 3)


class TestToPerm:
    def test_rooted_level_one(self):
        assert rooted(3, 2, 1).to_perm(1) == Perm([1, 2, 0])

    def test_identity_levels(self):
        for m in range(3):
            assert rooted(3, 2, 0).to_perm(m).is_identity()

    def test_directed_level_two(self, gs_spec):
        # blocks 0 and 1 follow the vector entries, block 2 truncates away
        b = directed(gs_spec, 2, 1)
        assert b.to_perm(2) == Perm([1, 2, 0, 5, 3, 4, 6, 7, 8])

    def test_level_too_deep(self):
        with pytest.raises(ValueError):
            rooted(3, 2, 1).to_perm(3)


class TestVertexIndexing:
    @pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
    def test_round_trip(self, p, m):
        for k in range(p**m):
            assert vertex_index(vertex_word(k, m, p), p) == k

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            vertex_index((3,), 3)

    def test_non_integral_vertices_are_refused(self):
        # a float digit, index or level was truncated before: vertex 3,
        # the word (1.0, 1.5) and an embedding at vertex 1
        with pytest.raises(TypeError):
            vertex_index((1.9, 0.2), 3)
        with pytest.raises(TypeError):
            vertex_word(4.5, 2, 3)
        with pytest.raises(TypeError):
            vertex_word(4, 2.0, 3)
        with pytest.raises(TypeError):
            embed_at_vertex(rooted(3, 1), (1.9,), 2)
        g = rooted(3, 1).to_perm(1)
        with pytest.raises(TypeError):
            subtree_embed(g, 3, (1.0,), 2)
        with pytest.raises(TypeError):
            subtree_embed(g, 3, (1,), 2.0)
        with pytest.raises(TypeError):
            subtree_section(subtree_embed(g, 3, (1,), 2), 3, (np.float64(1),))

    def test_a_negative_level_or_a_deep_vertex_is_refused(self):
        # vertex_word(0, -1, 3) returned (), and an embedding two levels
        # below a depth-1 tree reported a block of size 1/3
        with pytest.raises(ValueError, match="out of range for level -1"):
            vertex_word(0, -1, 3)
        g = rooted(3, 1).to_perm(1)
        for op in (
            lambda: subtree_embed(g, 3, (0, 1), 1),
            lambda: subtree_section(g, 3, (0, 1)),
        ):
            with pytest.raises(ValueError, match="vertex deeper than the leaf level"):
                op()

    def test_numpy_integers_pass(self):
        one, two = np.int64(1), np.uint8(2)
        assert vertex_index((one, two), 3) == 5
        assert vertex_word(np.int32(5), np.int64(2), 3) == (1, 2)
        g = rooted(3, 1)
        assert embed_at_vertex(g, (one,), 2).to_perm(2) == embed_at_vertex(g, (1,), 2).to_perm(2)
        emb = subtree_embed(g.to_perm(1), 3, (two,), np.int64(2))
        assert emb == subtree_embed(g.to_perm(1), 3, (2,), 2)
        assert subtree_section(emb, 3, (two,)) == g.to_perm(1)


class TestBlockOps:
    def test_restrict_matches_truncation(self, gs_spec):
        # restricting a word to level m gives the same word built at depth m
        rng = random.Random(19)
        for w in leaf_words(gs_spec, (1, 2, 3), rng, 15):
            for m in (1, 2, 3):
                assert restrict_to_level(w[3], 3, m) == w[m]

    def test_section_and_embed_round_trip(self, gs_spec):
        g = directed(gs_spec, 2, 1).to_perm(2)
        emb = subtree_embed(g, 3, (1,), 3)
        assert subtree_section(emb, 3, (1,)) == g
        assert subtree_section(emb, 3, (0,)).is_identity()

    def test_embed_matches_portrait_embedding(self, gs_spec):
        g = directed(gs_spec, 2, 1)
        lhs = subtree_embed(g.to_perm(2), 3, (2, 1), 4)
        rhs = embed_at_vertex(g, (2, 1), 4).to_perm(4)
        assert lhs == rhs

    def test_level_of_degree(self):
        assert level_of_degree(243, 3) == 5
        with pytest.raises(ValueError):
            level_of_degree(10, 3)


class TestPermBasics:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])

    def test_rejects_non_integer_images(self):
        # a float is refused, not truncated; a string is refused, not parsed
        for images in ([0.7, 1.2, 2.9], [0.0, 1.0, 2.0], ["0", "1", "2"], [True, False]):
            with pytest.raises(ValueError, match="integers"):
                Perm(images)
        with pytest.raises(ValueError, match="integers"):
            gv.PermGroup(9, [[1.5, 2, 0, 3, 4, 5, 6, 7, 8]], prime=3)
        assert Perm([]).degree == 0
        assert Perm(np.array([2, 0, 1], dtype=np.uint8)) == Perm([2, 0, 1])

    def test_inverse_round_trip(self):
        q = Perm([2, 0, 1, 3])
        assert (q * q.inverse()).is_identity()
        assert q.inverse().inverse() == q

    def test_power(self):
        q = Perm([1, 2, 0])
        assert q**3 == Perm.identity(3)
        assert q**-1 == q.inverse()

    def test_equality_and_hash_follow_the_images(self):
        q = Perm([2, 0, 1, 3])
        copy = Perm(q.images.copy())
        assert copy is not q and copy == q and hash(copy) == hash(q)
        assert len({q, copy}) == 1
        assert q != Perm([2, 0, 1, 3, 4]) and q != Perm([0, 2, 1, 3])
        assert Perm.identity(3) != Perm.identity(4)


# -- hypothesis property suites ------------------------------------------------

_gen_word = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 2)), min_size=1, max_size=5
)


def _evaluate(gens, word):
    out = Perm.identity(gens[0].degree)
    for sym, e in word:
        out = out * gens[sym] ** e
    return out


class TestHypothesisProperties:
    @given(_gen_word, _gen_word)
    def test_to_perm_homomorphism(self, gs_spec, w1, w2):
        # restriction to level 2 is a homomorphism on leaf words
        gens = leaf_generators(gs_spec, 3)
        f = _evaluate(gens, w1)
        g = _evaluate(gens, w2)
        assert restrict_to_level(f * g, 3, 2) == (
            restrict_to_level(f, 3, 2) * restrict_to_level(g, 3, 2)
        )

    @given(st.integers(1, 8))
    def test_power_commutator_identity(self, gs_spec, n):
        # [a^n, b] expands into the conjugate-chain product of [a, b]
        a, b = leaf_generators(gs_spec, 3)
        lhs = commutator(a**n, b)
        rhs = Perm.identity(27)
        for k in range(n - 1, -1, -1):
            rhs = rhs * a ** (-k) * commutator(a, b) * a**k
        assert lhs == rhs
