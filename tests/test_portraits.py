import random

import pytest
from hypothesis import given, strategies as st

from ggsver.portraits import (
    DegreeMismatch,
    NotLevel1Stabilized,
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


def word_elements(spec, depth, rng, count):
    """Random words in the session generators, evaluated as portraits."""
    gens = [rooted(spec.p, depth, 1)] + [
        directed(spec, depth, i) for i in range(1, spec.r + 1)
    ]
    out = []
    for _ in range(count):
        w = identity(spec.p, depth)
        for _ in range(rng.randint(1, 6)):
            g = rng.choice(gens)
            w = w * g ** rng.randint(1, spec.p - 1)
        out.append(w)
    return out


class TestIdentityAndRooted:
    def test_identity_fixes_vertices(self):
        e = identity(3, 2)
        for k in range(9):
            v = vertex_word(k, 2, 3)
            assert e.apply(v) == v

    def test_identity_is_neutral(self, gs_spec):
        g = directed(gs_spec, 2, 1) * rooted(3, 2, 1)
        e = identity(3, 2)
        assert e * g == g
        assert g * e == g

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
        a = rooted(3, 3, 1)
        assert a.apply((0,)) == (1,)
        assert a.apply((2,)) == (0,)

    def test_rooted_power_zero_is_identity(self):
        assert rooted(3, 2, 0) == identity(3, 2)

    def test_rooted_has_order_p(self):
        a = rooted(5, 2, 1)
        cur = a
        for _ in range(4):
            assert not cur.is_identity()
            cur = cur * a
        assert cur.is_identity()


class TestDirected:
    def test_sections_follow_the_vector(self, gs_spec):
        b = directed(gs_spec, 4, 1)
        parts = b.psi()
        assert parts[0] == rooted(3, 3, 1)
        assert parts[1] == rooted(3, 3, 2)
        assert parts[2] == directed(gs_spec, 3, 1)

    def test_depth_one_truncates_to_identity(self, gs_spec):
        assert directed(gs_spec, 1, 1) == identity(3, 1)

    def test_index_out_of_range(self, gs_spec):
        with pytest.raises(ValueError):
            directed(gs_spec, 3, 2)

    def test_generators_have_order_p(self, gs_spec, sym5_spec):
        for spec, depth in [(gs_spec, 2), (gs_spec, 3), (sym5_spec, 2), (sym5_spec, 3)]:
            a = rooted(spec.p, depth, 1)
            assert (a ** spec.p).is_identity()
            for i in range(1, spec.r + 1):
                b = directed(spec, depth, i)
                assert (b ** spec.p).is_identity()

    def test_conjugation_by_rooted_shifts_sections(self, sym5_spec):
        a = rooted(5, 3, 1)
        for i in (1, 2):
            b = directed(sym5_spec, 3, i)
            shifted = b.conjugated_by(a).psi()
            parts = b.psi()
            assert shifted == tuple(parts[(d - 1) % 5] for d in range(5))


class TestComposeInverse:
    def test_cycle_times_its_inverse_power(self):
        a = rooted(3, 3, 1)
        assert (a * a**2).is_identity()
        assert a.inverse() == a**2

    def test_squared_directed_section(self, gs_spec):
        b = directed(gs_spec, 3, 1)
        bb = b * b
        assert bb.section((2,)) == directed(gs_spec, 2, 1) ** 2

    def test_inverse_of_identity(self):
        assert identity(3, 2).inverse() == identity(3, 2)

    def test_inverse_antihomomorphism(self, gs_spec):
        rng = random.Random(7)
        els = word_elements(gs_spec, 3, rng, 20)
        for f, g in zip(els[::2], els[1::2]):
            assert (f * g).inverse() == g.inverse() * f.inverse()
            assert (f * f.inverse()).is_identity()

    def test_depth_mismatch_rejected(self, gs_spec):
        with pytest.raises(DegreeMismatch):
            rooted(3, 2, 1) * rooted(3, 3, 1)


class TestSectionsAndPsi:
    def test_section_of_identity(self):
        e = identity(3, 3)
        assert e.section((0, 1)) == identity(3, 1)

    def test_section_twist_law(self, gs_spec):
        rng = random.Random(11)
        els = word_elements(gs_spec, 3, rng, 30)
        for f, g in zip(els[::2], els[1::2]):
            for k in range(3):
                v = (k,)
                lhs = (f * g).section(v)
                rhs = f.section(v) * g.section(f.apply(v))
                assert lhs == rhs

    def test_psi_requires_trivial_root(self):
        with pytest.raises(NotLevel1Stabilized):
            rooted(3, 2, 1).psi()

    def test_psi_of_identity(self):
        assert identity(3, 2).psi() == (identity(3, 1),) * 3

    def test_psi_matches_sections(self, gs_spec):
        rng = random.Random(13)
        for w in word_elements(gs_spec, 3, rng, 30):
            if w.root_perm != (0, 1, 2):
                continue
            parts = w.psi()
            for j in range(3):
                assert parts[j] == w.section((j,))

    def test_commutator_with_shifted_conjugate(self, gs_spec):
        # expand [b, b^a] through first-level sections by hand
        b = directed(gs_spec, 3, 1)
        a = rooted(3, 3, 1)
        got = commutator(b, b.conjugated_by(a)).psi()
        a2 = rooted(3, 2, 1)
        b2 = directed(gs_spec, 2, 1)
        assert got[0] == commutator(a2, b2)
        assert got[1] == identity(3, 2)
        assert got[2] == commutator(b2, a2**2)


class TestEmbed:
    def test_embed_identity(self):
        e = identity(3, 2)
        assert embed_at_vertex(e, (0, 1), 4).is_identity()

    def test_embed_fills_one_slot(self, gs_spec):
        g = directed(gs_spec, 3, 1)
        emb = embed_at_vertex(g, (0,), 4)
        assert emb.psi() == (g, identity(3, 3), identity(3, 3))

    def test_disjoint_embeddings_commute(self, gs_spec):
        g = directed(gs_spec, 3, 1)
        h = rooted(3, 3, 1)
        e0 = embed_at_vertex(g, (0,), 4)
        e1 = embed_at_vertex(h, (1,), 4)
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

    def test_homomorphism_and_faithfulness(self, gs_spec):
        rng = random.Random(17)
        els = word_elements(gs_spec, 3, rng, 40)
        for f, g in zip(els[::2], els[1::2]):
            for m in (1, 2, 3):
                assert (f * g).to_perm(m) == f.to_perm(m) * g.to_perm(m)
            same = f.to_perm(3) == g.to_perm(3)
            assert same == (f == g)

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
        rng = random.Random(19)
        for w in word_elements(gs_spec, 3, rng, 15):
            full = w.to_perm(3)
            for m in (1, 2, 3):
                assert restrict_to_level(full, 3, m) == w.truncate(m).to_perm(m)

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

    def test_first_moved(self):
        assert Perm([0, 1, 2]).first_moved() is None
        assert Perm([0, 2, 1]).first_moved() == 1


# -- hypothesis property suites ------------------------------------------------

_gen_word = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 2)), min_size=1, max_size=5
)


def _evaluate(spec, depth, word):
    gens = [rooted(spec.p, depth, 1), directed(spec, depth, 1)]
    out = identity(spec.p, depth)
    for sym, e in word:
        out = out * gens[sym] ** e
    return out


class TestHypothesisProperties:
    @given(_gen_word, _gen_word)
    def test_to_perm_homomorphism(self, gs_spec, w1, w2):
        f = _evaluate(gs_spec, 3, w1)
        g = _evaluate(gs_spec, 3, w2)
        assert (f * g).to_perm(2) == f.to_perm(2) * g.to_perm(2)

    @given(_gen_word)
    def test_inverse_round_trip(self, gs_spec, w):
        f = _evaluate(gs_spec, 3, w)
        assert (f * f.inverse()).is_identity()

    @given(_gen_word, st.integers(0, 2))
    def test_section_consistency(self, gs_spec, w, j):
        f = _evaluate(gs_spec, 3, w)
        if f.root_perm == (0, 1, 2):
            assert f.psi()[j] == f.section((j,))

    @given(st.integers(1, 8))
    def test_power_commutator_identity(self, gs_spec, n):
        # [a^n, b] expands into the conjugate-chain product of [a, b]
        a = rooted(3, 3, 1)
        b = directed(gs_spec, 3, 1)
        lhs = commutator(a**n, b)
        rhs = identity(3, 3)
        for k in range(n - 1, -1, -1):
            rhs = rhs * commutator(a, b).conjugated_by(a**k)
        assert lhs == rhs
