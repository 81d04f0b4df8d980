import random

import pytest
from hypothesis import given, strategies as st

from ggsver.portraits import (
    DegreeMismatch,
    Perm,
    commutator,
    directed,
    embed_at_vertex,
    identity,
    level_of_degree,
    restrict_to_level,
    rooted,
    subtree_embed,
    subtree_section,
    vertex_index,
    vertex_word,
)


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
        e = identity(3, 2).to_perm(2)
        for k in range(9):
            assert e(k) == k

    def test_identity_rejects_bad_input(self):
        with pytest.raises(ValueError):
            identity(4, 2)
        with pytest.raises(ValueError):
            identity(2, 2)
        with pytest.raises(ValueError):
            identity(9, 2)
        with pytest.raises(ValueError):
            identity(3, -1)

    def test_rooted_cycles_first_level(self):
        # the first digit moves up by one, the digits below stay
        a = rooted(3, 3, 1).to_perm(3)
        assert a(vertex_index((0, 1, 2), 3)) == vertex_index((1, 1, 2), 3)
        assert a(vertex_index((2, 0, 1), 3)) == vertex_index((0, 0, 1), 3)

    def test_rooted_power_zero_is_identity(self):
        assert rooted(3, 2, 0).is_identity()

    def test_rooted_has_order_p(self):
        a = rooted(5, 2, 1).to_perm(2)
        cur = a
        for _ in range(4):
            assert not cur.is_identity()
            cur = cur * a
        assert cur.is_identity()


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
        assert directed(gs_spec, 1, 1).is_identity()

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


class TestSectionsAndPsi:
    """Sections of leaf permutations below a vertex; at level 1, the map psi."""

    def test_section_of_identity(self):
        e = identity(3, 3).to_perm(3)
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
        e = identity(3, 2)
        assert embed_at_vertex(e, (0, 1), 4).is_identity()

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
            assert identity(3, 2).to_perm(min(m, 2)).is_identity()

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

    def test_inverse_round_trip(self):
        q = Perm([2, 0, 1, 3])
        assert (q * q.inverse()).is_identity()
        assert q.inverse().inverse() == q

    def test_power(self):
        q = Perm([1, 2, 0])
        assert q**3 == Perm.identity(3)
        assert q**-1 == q.inverse()


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
