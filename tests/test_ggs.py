import random

import pytest

import ggsver as gv
from ggsver.ggs import (
    BadLength,
    DependentVectors,
    NormalizationImpossible,
    NotOdd,
    NotPrime,
    is_constant,
    is_symmetric,
    normalize,
)
from ggsver.permgroups import PermGroup, equals
from ggsver.portraits import Perm, directed, restrict_to_level

from oracles import bfs_closure, independent_by_enumeration, log_order


class TestValidate:
    def test_accepts_the_basic_example(self):
        spec = gv.validate(3, [(1, 2)])
        assert spec.p == 3 and spec.vectors == ((1, 2),)

    def test_accepts_constant(self):
        spec = gv.validate(3, [(1, 1)])
        assert is_constant(spec)

    def test_rejects_scalar_multiple(self):
        with pytest.raises(DependentVectors) as exc:
            gv.validate(3, [(1, 2), (2, 1)])
        cert = exc.value.certificate
        assert any(c % 3 for c in cert)
        # the certificate really is a vanishing combination
        combo = [0, 0]
        for c, row in zip(cert, [(1, 2), (2, 1)]):
            combo = [(x + c * y) % 3 for x, y in zip(combo, row)]
        assert combo == [0, 0]

    def test_rejects_zero_row(self):
        with pytest.raises(DependentVectors):
            gv.validate(3, [(0, 0)])

    def test_rejects_too_many_rows(self):
        with pytest.raises(DependentVectors):
            gv.validate(3, [(1, 0), (0, 1), (1, 1)])

    def test_rejects_bad_length(self):
        with pytest.raises(BadLength):
            gv.validate(5, [(1, 2)])

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            gv.validate(9, [(1,) * 8])

    def test_rejects_two(self):
        with pytest.raises(NotOdd):
            gv.validate(2, [(1,)])

    def test_entries_reduced_mod_p(self):
        spec = gv.validate(3, [(4, -1)])
        assert spec.vectors == ((1, 2),)

    def test_agrees_with_enumeration(self):
        rng = random.Random(31)
        for _ in range(150):
            p = rng.choice([3, 5])
            r = rng.randint(1, min(3, p - 1))
            rows = [
                tuple(rng.randrange(p) for _ in range(p - 1)) for _ in range(r)
            ]
            expected = independent_by_enumeration(p, rows)
            try:
                gv.validate(p, rows)
                got = True
            except DependentVectors:
                got = False
            assert got == expected, rows


class TestClassifiers:
    @pytest.mark.parametrize(
        "p,rows,constant",
        [
            (3, [(1, 1)], True),
            (3, [(1, 2)], False),
            (5, [(1, 0, 0, 0), (0, 1, 0, 0)], False),
        ],
    )
    def test_is_constant(self, p, rows, constant):
        assert is_constant(gv.validate(p, rows)) == constant

    @pytest.mark.parametrize(
        "vector,symmetric",
        [((1, 1), True), ((1, 2), False), ((1, 0, 0, 1), True), ((1, 0, 1, 1), False)],
    )
    def test_is_symmetric(self, vector, symmetric):
        assert is_symmetric(vector) == symmetric

    def test_constant_implies_symmetric(self):
        rng = random.Random(37)
        for _ in range(50):
            p = rng.choice([3, 5, 7])
            c = rng.randrange(1, p)
            spec = gv.validate(p, [(c,) * (p - 1)])
            assert is_constant(spec)
            assert is_symmetric(spec.vectors[0])


class TestNormalize:
    def test_scaling_reaches_leading_one(self):
        norm = normalize(gv.validate(3, [(2, 1)]))
        assert norm.spec.vectors == ((1, 2),)
        assert norm.transform == ((2,),)

    def test_symmetric_pair_reduction(self, sym5_spec):
        norm = normalize(sym5_spec)
        assert norm.case == "symmetric"
        assert norm.spec.vectors[1] == (0, 4, 4, 0)
        assert norm.spec.vectors[0][0] == 1

    def test_fixed_point(self, gs_spec):
        norm = normalize(gs_spec)
        assert norm.spec == gs_spec
        assert norm.transform == ((1,),)
        assert norm.steps == ()

    def test_transform_reproduces_rows(self, sym5_spec):
        norm = normalize(sym5_spec)
        p = sym5_spec.p
        for t_row, new_row in zip(norm.transform, norm.spec.vectors):
            combo = [0] * (p - 1)
            for c, old in zip(t_row, sym5_spec.vectors):
                combo = [(x + c * y) % p for x, y in zip(combo, old)]
            assert tuple(combo) == new_row

    def test_non_symmetric_case_exposes_m(self):
        norm = normalize(gv.validate(5, [(2, 1, 0, 1)]))
        assert norm.case == "non-symmetric"
        row = norm.spec.vectors[0]
        assert row[0] == 1 and row[-1] != 1

    def test_impossible_without_leading_pivot(self):
        with pytest.raises(NormalizationImpossible) as exc:
            normalize(gv.validate(3, [(0, 1)]))
        assert exc.value.step == "leading entry"

    def test_preserves_generated_group(self):
        rng = random.Random(41)
        cases = 0
        while cases < 12:
            p = rng.choice([3, 5])
            r = rng.randint(1, 2)
            rows = [
                tuple(rng.randrange(p) for _ in range(p - 1)) for _ in range(r)
            ]
            try:
                spec = gv.validate(p, rows)
                norm = normalize(spec)
            except gv.SpecError:
                continue
            cases += 1
            depth = 3 if p == 3 else 2
            assert equals(gv.build(spec, depth).G, gv.build(norm.spec, depth).G)

    def test_reduced_generator_is_a_word_in_the_originals(self, sym5_spec):
        # the generator of a combined row equals the ordered product of the
        # original generators raised to the transform coefficients
        norm = normalize(sym5_spec)
        depth = 3
        for t_row, _ in zip(norm.transform, norm.spec.vectors):
            word = Perm.identity(5**depth)
            for i, c in enumerate(t_row, start=1):
                word = word * directed(sym5_spec, depth, i).to_perm(depth) ** c
            idx = norm.transform.index(t_row) + 1
            assert word == directed(norm.spec, depth, idx).to_perm(depth)


class TestBuild:
    def test_level_two_order_matches_bfs(self, gs_spec):
        s = gv.build(gs_spec, 2)
        count = len(bfs_closure([g.tolist() for g in s.G.generators]))
        assert s.G.order_exponent == log_order(count, 3)

    def test_level_one_image_is_the_cycle(self, gs_spec):
        s = gv.build(gs_spec, 3)
        img = PermGroup(
            3, [restrict_to_level(g, 3, 1) for g in s.G.generators], prime=3
        )
        assert img.order_exponent == 1

    def test_depth_cap(self, gs_spec):
        with pytest.raises(gv.SpecError):
            gv.build(gs_spec, 11)
        with pytest.raises(gv.SpecError):
            gv.build(gs_spec, 0)
        assert gv.build(gs_spec, 1).G.order_exponent == 1

    def test_restriction_diagram_on_random_words(self, gs_spec):
        # a word at depth 4 restricted to level 2 is the same word at depth 2
        deep, shallow = gv.build(gs_spec, 4).G, gv.build(gs_spec, 2).G
        gens = list(zip(deep.generators, shallow.generators))
        rng = random.Random(43)
        for _ in range(50):
            w4, w2 = Perm.identity(81), Perm.identity(9)
            for _ in range(rng.randint(1, 5)):
                g4, g2 = rng.choice(gens)
                e = rng.randint(1, 2)
                w4, w2 = w4 * g4**e, w2 * g2**e
            assert restrict_to_level(w4, 3, 2) == w2

    def test_all_constant_vectors_give_the_same_group(self):
        one = gv.build(gv.validate(3, [(1, 1)]), 3)
        two = gv.build(gv.validate(3, [(2, 2)]), 3)
        assert equals(one.G, two.G)


class TestLevelDimensions:
    """Golden layer dimensions d_m = log_p|G & st(m) : G & st(m+1)| of the
    level-N quotient, m = 0..N-1; they guard the layers of the closure."""

    @pytest.mark.parametrize(
        "p,rows,measured",
        [
            (3, [(1, 0), (0, 1)], [1, 3, 8, 22, 66, 198]),
            (5, [(1, 0, 0, 0), (0, 1, 0, 0)], [1, 5, 24, 116]),
            (5, [(1, 1, 1, 1), (1, 0, 0, 1)], [1, 5, 23, 112]),
            (5, [(1, 2, 3, 4), (1, 0, 0, 1)], [1, 5, 22, 108]),
            (5, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], [1, 5, 24, 119]),
            (7, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)], [1, 7, 48]),
        ],
    )
    def test_measured_multi_ggs(self, p, rows, measured):
        # measured: read off this engine's layers, not derived from a formula
        g = gv.build(gv.validate(p, rows), len(measured)).G
        assert g.chain_summary()["level_dimensions"] == measured

    @pytest.mark.parametrize(
        "p,depth",
        [pytest.param(3, depth, id=str(depth)) for depth in range(1, 7)]
        + [pytest.param(5, 5, id="p5-5"), pytest.param(7, 4, id="p7-4")],
    )
    def test_fitted_constant_vector_formula(self, p, depth):
        # fitted to measured runs, not proved: d_0 = 1, d_1 = p and
        # d_k = p^k - (p^k - 1)/(p - 1) for k >= 2
        fitted = [1, p] + [p**k - (p**k - 1) // (p - 1) for k in range(2, depth)]
        g = gv.build(gv.validate(p, [(1,) * (p - 1)]), depth).G
        assert g.chain_summary()["level_dimensions"] == fitted[:depth]
