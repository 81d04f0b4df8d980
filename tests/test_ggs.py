import dataclasses
import random
from unittest import mock

import numpy as np
import pytest

import ggsver as gv
from ggsver import permgroups
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
from ggsver.permgroups import PermGroup
from ggsver.portraits import Perm, directed, restrict_to_level

from oracles import (
    bfs_closure,
    circulant_rank,
    ggs_order_exponent,
    independent_by_enumeration,
    log_order,
    same_group,
)


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

    def test_rejects_a_non_integral_entry(self):
        # int() would truncate 1.5 to 1 and accept the spec of (1, 2)
        with pytest.raises(gv.SpecError, match="entry must be an integer"):
            gv.validate(3, [(1.5, 2)])

    def test_rejects_a_non_integral_prime(self):
        with pytest.raises(gv.SpecError, match="prime must be an integer"):
            gv.validate(3.0, [(1, 2)])

    def test_accepts_numpy_integers(self):
        spec = gv.validate(np.int64(3), [np.array([4, 2])])
        assert spec == gv.validate(3, [(1, 2)])
        assert type(spec.p) is int and all(type(x) is int for x in spec.vectors[0])

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
            assert same_group(gv.build(spec, depth).G, gv.build(norm.spec, depth).G)

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

    def test_rejects_a_non_integral_depth_before_any_work(self, gs_spec):
        with mock.patch("ggsver.ggs.rooted", side_effect=AssertionError("work started")):
            with pytest.raises(gv.SpecError, match="depth must be an integer"):
                gv.build(gs_spec, 2.5)

    @pytest.mark.parametrize(
        "p,rows,depth",
        # a depth-4 group at depth 5; a p=3 group for p=5 defining data
        [(3, [(1, 2)], 5), (5, [(1, 2, 3, 4)], 4)],
    )
    def test_a_session_refuses_a_group_of_another_level_or_prime(self, gs_spec, p, rows, depth):
        g = gv.build(gs_spec, 4).G
        with mock.patch.object(permgroups, "_close", side_effect=AssertionError("closed")):
            with pytest.raises(gv.SpecError):
                gv.GroupSession(gv.validate(p, rows), depth, g)
            with pytest.raises(gv.SpecError):
                dataclasses.replace(gv.build(gv.validate(p, rows), depth), G=g)
        assert g._chain is None

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
        assert same_group(one.G, two.G)


# every conftest spec, at every depth the suite builds it
RESTRICTION_CASES = [
    ("gs_spec", 6),
    ("const_spec", 6),
    ("r2_spec", 6),
    ("sym5_spec", 4),
]


class TestRestriction:
    """The level-m quotient of G is generated by G's generators restricted
    to level m, and the level-m quotients of the subgroups a session closes
    are read off their layers by PermGroup.truncate."""

    @pytest.mark.parametrize("name,top", RESTRICTION_CASES)
    def test_truncation_matches_building_at_each_level(self, request, name, top):
        spec = request.getfixturevalue(name)
        p = spec.p
        gens = {n: gv.build(spec, n).G.generators for n in range(1, top + 1)}
        for n in range(1, top + 1):
            for m in range(1, n + 1):
                assert [restrict_to_level(g, p, m) for g in gens[n]] == list(gens[m])
        # at level 1, a is the p-cycle and every b_i fixes each vertex
        a, *bs = gens[1]
        assert a == Perm([(x + 1) % p for x in range(p)])
        assert len(bs) == spec.r and all(b.is_identity() for b in bs)

    @pytest.mark.parametrize("name,top", RESTRICTION_CASES)
    def test_truncations_match_building_at_that_depth(self, request, name, top):
        # G and G' truncated to level m are the groups a depth-m build
        # closes, array for array; gamma3 and G'' have their rows in
        # another order, as gamma3 grows from G''
        spec = request.getfixturevalue(name)
        session = gv.build(spec, top)
        tops = [session.G, session.derived(), session.gamma3(), session.second_derived()]
        for h in tops:
            h.chain
        with mock.patch.object(permgroups, "_close", side_effect=AssertionError("closed")):
            cuts = {m: [h.truncate(m) for h in tops] for m in range(1, top)}
        for m, (*same, gamma, second) in cuts.items():
            direct = gv.build(spec, m)
            wants = [direct.G, direct.derived()]
            for got, want in zip(same, wants):
                assert got.level == m and got.generators == want.generators
                assert got.chain.dimensions() == want.chain.dimensions()
                for a, b in zip(got.chain.levels, want.chain.levels):
                    assert np.array_equal(a.rows[: a.dim], b.rows[: b.dim])
                    assert np.array_equal(a.pivots[: a.dim], b.pivots[: b.dim])
                for a, b in zip(got.chain.levels[:-1], want.chain.levels[:-1]):
                    assert np.array_equal(a.divs[:, : a.dim], b.divs[:, : b.dim])
                reps = [list(h.chain.representatives(0)) for h in (got, want)]
                assert np.array_equal(reps[0], reps[1])
            for got, want in ((gamma, direct.gamma3()), (second, direct.second_derived())):
                assert got.chain.dimensions() == want.chain.dimensions()
                for a, b in zip(got.chain.levels, want.chain.levels):
                    rows = [
                        set(zip(x.pivots[: x.dim].tolist(), map(tuple, x.rows[: x.dim].tolist())))
                        for x in (a, b)
                    ]
                    assert rows[0] == rows[1]

    def test_truncate_refuses_a_level_outside_one_to_depth(self, gs4):
        g = gs4.G
        assert g.truncate(4) is g
        for m in (-1, 0, 5):
            with pytest.raises(ValueError, match="outside 1..4"):
                g.truncate(m)


class TestClosedFormOrders:
    """log_p|G_n| of GGS groups against a formula proved in the literature,
    computed apart from the package."""

    @pytest.mark.parametrize(
        "p,e,depth",
        [
            (3, (1, 2), 6),
            (3, (1, 0), 6),
            (3, (0, 1), 6),
            (5, (1, 2, 3, 4), 4),
            (5, (1, 2, 2, 1), 4),
            (5, (1, 0, 0, 1), 4),
            (5, (0, 1, 1, 0), 4),
            (5, (1, 2, 0, 3), 4),
            (7, (1, 2, 3, 4, 5, 6), 3),
            (7, (1, 2, 3, 3, 2, 1), 3),
            (7, (0, 0, 1, 1, 0, 0), 3),
        ],
    )
    def test_closed_form_orders_of_ggs_groups(self, p, e, depth):
        # proved, not fitted: the order formula of Fernandez-Alcober and
        # Zugadi-Reizabal, symmetric vectors included
        session = gv.build(gv.validate(p, [e]), depth)
        got = [session.G.truncate(n).order_exponent for n in range(1, depth + 1)]
        assert got == [1] + [ggs_order_exponent(p, e, n) for n in range(2, depth + 1)]

    def test_circulant_rank(self):
        # x^p - 1 = (x - 1)^p over F_p, so the rank is p minus the order of
        # x = 1 as a root of e_1 + e_2 x + ... + e_(p-1) x^(p-2)
        assert circulant_rank(3, (1, 2)) == 2  # 2(x - 1)
        assert circulant_rank(5, (1, 3, 1, 0)) == 3  # (x - 1)^2
        assert circulant_rank(5, (1, 1, 1, 1)) == 5  # 4 at x = 1
        assert circulant_rank(7, (1, 0, 0, 0, 0, 0)) == 7


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
