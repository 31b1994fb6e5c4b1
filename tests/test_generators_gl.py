from fractions import Fraction

import pytest

from parinv.generators_gl import (
    Generator,
    Recipe,
    build_generators,
    descriptor_to_json,
    eval_generator,
    nonvanishing_witness,
    recipe_rows,
    s0_monomial_sign,
)
from parinv.generators_osp import build_system, eval_family
from parinv.linalg import P, Matrix, adjugate, det, inverse
from parinv.sampling import Rng, sample_group_point, sample_slice, sample_unipotent_radical
from parinv.shapes import IndexPair, ShapeError, index_set, make_shape
from parinv import verification

from oracles import (
    adjugate_cofactor,
    derivative_at_zero,
    eval_descriptor_cofactor,
    fraction_mod_p,
    s0_chain_monomial,
    trace_pairing,
)

GL5 = make_shape("gl", 5, (1, 2, 2))
SL5 = make_shape("sl", 5, (1, 2, 2))
O5 = make_shape("o", 5, (1, 3, 1))
# (shape, second component) of the rational points the evaluator is checked at
RATIONAL_POINT_SHAPES = ((SL5, False), (O5, False), (O5, True), (make_shape("sp", 8, (1, 2, 2, 2, 1)), False))

# the complete recipe table of the worked 5x5 example, in order
EXPECTED_RECIPES = {
    (5, 1): Recipe((5,), (), (1,)),
    (4, 1): Recipe((4,), (), (1,)),
    (5, 2): Recipe((5,), (5,), (1, 2)),
    (4, 2): Recipe((4, 5), (), (1, 2)),
    (5, 3): Recipe((5,), (4, 5), (1, 2, 3)),
    (4, 3): Recipe((4, 5), (5,), (1, 2, 3)),
    (3, 3): Recipe((3, 4, 5), (), (1, 2, 3)),
    (2, 3): Recipe((2, 4, 5), (), (1, 2, 3)),
    (5, 4): Recipe((5,), (3, 4, 5), (1, 2, 3, 4)),
    (4, 4): Recipe((4, 5), (4, 5), (1, 2, 3, 4)),
    (3, 4): Recipe((3, 4, 5), (5,), (1, 2, 3, 4)),
    (2, 4): Recipe((2, 3, 4, 5), (), (1, 2, 3, 4)),
    (5, 5): Recipe((5,), (2, 3, 4, 5), (1, 2, 3, 4, 5)),
    (4, 5): Recipe((4, 5), (3, 4, 5), (1, 2, 3, 4, 5)),
    (3, 5): Recipe((3, 4, 5), (4, 5), (1, 2, 3, 4, 5)),
    (2, 5): Recipe((2, 3, 4, 5), (5,), (1, 2, 3, 4, 5)),
    (1, 5): Recipe((1, 2, 3, 4, 5), (), (1, 2, 3, 4, 5)),
}


def random_invertible(rng, n, bound=6):
    while True:
        m = Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m


def test_example_recipe_table():
    gens = build_generators(GL5)
    assert len(gens) == 17
    assert {tuple(g.pair): g.recipe for g in gens} == EXPECTED_RECIPES
    order = [tuple(g.pair) for g in gens]
    assert order == [tuple(p) for p in index_set(GL5).pairs]


def test_sl_drops_full_determinant():
    gens = build_generators(SL5)
    assert len(gens) == 16
    assert all(g.pair != IndexPair(1, 5) for g in gens)


def test_build_rejects_osp_kinds():
    with pytest.raises(ShapeError):
        build_generators(make_shape("o", 4, (2, 2)))


def test_bare_entry_generator():
    rng = Rng(50)
    gens = {tuple(g.pair): g for g in build_generators(GL5)}
    for t in range(5):
        m = random_invertible(rng, 5)
        assert eval_generator(gens[(5, 1)], m) == m.rows[4][0]
        assert eval_generator(gens[(1, 5)], m) == det(m)


def test_j44_at_broken_diagonal_witness_is_one():
    gens = {tuple(g.pair): g for g in build_generators(GL5)}
    witness = nonvanishing_witness(GL5, IndexPair(4, 4))
    assert witness == Matrix(
        [
            [0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0],
            [0, 1, 0, 1, 0],
            [1, 0, 1, 0, 0],
        ]
    )
    assert eval_generator(gens[(4, 4)], witness) == 1


def test_deterministic_witnesses_are_nonzero_everywhere():
    for shape in (GL5, SL5, make_shape("gl", 6, (1, 2, 3)), make_shape("gl", 6, (3, 3))):
        for g in build_generators(shape):
            w = nonvanishing_witness(shape, g.pair)
            assert det(w) != 0  # the witness is a group point
            assert eval_generator(g, w) != 0


def test_eval_matches_cofactor_oracle_at_identity_and_random():
    gens = build_generators(GL5)
    e = Matrix.identity(5)
    for g in gens:
        assert eval_generator(g, e) == eval_descriptor_cofactor(g, e)
    rng = Rng(51)
    for t in range(3):
        m = random_invertible(rng, 5)
        adj = adjugate(m)
        for g in gens:
            assert eval_generator(g, m, adj) == eval_descriptor_cofactor(g, m)
    # rational group points: a k-row minor is read on the numerators over den^k,
    # a stacked generator over den^|x_rows| * adj.den^|adj_rows|
    for shape, second in RATIONAL_POINT_SHAPES:
        system = build_system(shape)
        family = [g for _, g in system.family()]
        for t in range(2):
            m = sample_group_point(shape, Rng(58, t), 6, second_component=second)
            adj = adjugate(m)
            assert m.den > 1 and adj.den > 1
            oracle_adj = adjugate_cofactor([list(r) for r in m.rows])
            for g in family:
                want = eval_descriptor_cofactor(g, m, oracle_adj)
                assert eval_generator(g, m) == want
                assert eval_generator(g, m, adj) == want


def test_eval_refuses_indices_past_n():
    m = Matrix([[(i + 1) ** j for j in range(5)] for i in range(5)])  # Vandermonde
    assert det(m) != 0 and all(x != 0 for row in m.rows for x in row)
    for recipe in (
        Recipe((6,), (), (1,)),
        Recipe((1, 2), (), (1, 6)),
        Recipe((6,), (5,), (1, 2)),
        Recipe((5,), (6,), (1, 2)),
        Recipe((5,), (5,), (1, 6)),
    ):
        with pytest.raises(IndexError):
            eval_generator(Generator(None, recipe), m)


def test_recipe_rows_take_x_then_adj_in_stored_order():
    x = [[10 * r + c for c in range(1, 6)] for r in range(1, 6)]
    adj = [[-v for v in row] for row in x]
    assert recipe_rows(Recipe((4, 2), (), (3, 1)), x) == [[43, 41], [23, 21]]
    rows = recipe_rows(Recipe((5,), (4, 5), (2, 1, 3)), x, adj)
    assert rows == [[52, 51, 53], [-42, -41, -43], [-52, -51, -53]]
    rows[0][0] = 0  # fresh rows: the source is untouched
    assert x[4][1] == 52


def family_values(shape, point):
    return eval_family(build_system(shape).family(), point)


def test_eval_all_in_order():
    rng = Rng(52)
    m = random_invertible(rng, 5)
    family = build_system(GL5).family()
    values = eval_family(family, m)
    assert len(values) == 17
    gens = build_generators(GL5)
    assert [label for label, _ in family] == [f"J({g.pair.i},{g.pair.j})" for g in gens]
    assert values == [eval_generator(g, m) for g in gens]


def test_eval_all_gl2_at_identity():
    shape = make_shape("gl", 2, (1, 1))
    values = family_values(shape, Matrix.identity(2))
    # J(2,1) = x21 -> 0; stacked J(2,2) -> 0; J(1,2) = det -> 1
    assert values == [0, 0, 1]


def test_invariance_under_unipotent_conjugation():
    for shape in (GL5, SL5, make_shape("gl", 6, (1, 2, 3))):
        for t in range(8):
            rng = Rng(53, t)
            x = sample_group_point(shape, rng, 6)
            u = sample_unipotent_radical(shape, rng, 6)
            assert family_values(shape, inverse(u) @ x @ u) == family_values(shape, x)


def test_not_invariant_under_general_conjugation():
    # negative control at module level: full conjugation must move some generator
    rng = Rng(54)
    x = sample_group_point(GL5, rng, 6)
    g = random_invertible(rng, 5)
    moved = family_values(GL5, inverse(g) @ x @ g) != family_values(GL5, x)
    assert moved


def test_monomial_restriction_on_flattened_slice():
    sigma0 = index_set(GL5).sigma0
    gens = [g for g in build_generators(GL5) if g.pair in sigma0]
    assert len(gens) == 7
    for t in range(10):
        m = sample_slice(GL5, Rng(55, t), 9, "s0")
        for g in gens:
            assert eval_generator(g, m) == s0_chain_monomial(GL5, g, m)


def test_pinned_sign_for_pair_2_3():
    gens = {tuple(g.pair): g for g in build_generators(GL5)}
    assert s0_monomial_sign(GL5, gens[(2, 3)]) == -1
    # J(2,3) restricted to S0 is -s51 * s42 * s23
    m = sample_slice(GL5, Rng(56), 9, "s0")
    expected = -m.rows[4][0] * m.rows[3][1] * m.rows[1][2]
    assert eval_generator(gens[(2, 3)], m) == expected


def test_monomial_signs_match_independent_indicator_oracle():
    for pair in index_set(GL5).sigma0:
        indicator = [[Fraction(0)] * 5 for _ in range(5)]
        for t in range(1, pair.j):
            indicator[5 - t][t - 1] = Fraction(1)
        indicator[pair.i - 1][pair.j - 1] = Fraction(1)
        gen = next(g for g in build_generators(GL5) if g.pair == pair)
        oracle_sign = eval_descriptor_cofactor(gen, Matrix(indicator))
        assert s0_monomial_sign(GL5, gen) == oracle_sign


def test_s0_sign_rejects_lower_pairs():
    with pytest.raises(ShapeError):
        s0_monomial_sign(GL5, next(g for g in build_generators(GL5) if g.pair == IndexPair(5, 5)))


def test_dual_eval_matches_cofactor_dual_oracle():
    """First derivatives f'(m)[b] (the dual part of f(m + eps b)) from the
    integer gradients, exact and mod P, against interpolation: the gradient
    of a minor is exact, that of a stacked generator carries the factor det m."""
    rng = Rng(57)
    m = random_invertible(rng, 5)
    b = Matrix([[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)])
    gens = build_generators(GL5)
    assert {bool(g.recipe.adj_rows) for g in gens} == {False, True}  # minors and stacked
    exact = verification._gradients(gens, m.num)
    residues = verification._gradients(gens, [[x % P for x in row] for row in m.num], P)
    for g, h, h_mod_p in zip(gens, exact, residues):
        # independent derivative oracle: f(m + t b) is a polynomial in t
        # (degree |x_rows| + 4 |adj_rows| at worst), so exact interpolation
        # of cofactor-expansion values recovers its linear coefficient,
        # which is f'(m)[b]
        recipe = g.recipe
        degree = (
            len(recipe.x_rows) + 4 * len(recipe.adj_rows)
        )
        nodes = [Fraction(k) for k in range(degree + 1)]
        deriv = derivative_at_zero(nodes, [eval_descriptor_cofactor(g, m + b * u) for u in nodes])
        scale = det(m) if recipe.adj_rows else 1
        assert trace_pairing(h, b.num) == scale * deriv
        assert trace_pairing(h_mod_p, b.num) % P == fraction_mod_p(scale * deriv)


def test_descriptor_json():
    gens = {tuple(g.pair): g for g in build_generators(GL5)}
    assert descriptor_to_json(gens[(4, 2)]) == {
        "pair": [4, 2],
        "kind": "minor",
        "x_rows": [4, 5],
        "adj_rows": [],
        "cols": [1, 2],
    }
    assert descriptor_to_json(gens[(5, 3)]) == {
        "pair": [5, 3],
        "kind": "stacked",
        "x_rows": [5],
        "adj_rows": [4, 5],
        "cols": [1, 2, 3],
    }


def test_recipe_validation():
    bad = [
        lambda: Recipe((1, 2), (), (1,)),
        lambda: Recipe((1,), (2,), (1, 2, 3)),
        # every index is at least 1, and no list repeats one
        lambda: Recipe((0, 2), (), (1, 2)),
        lambda: Recipe((1, 2), (), (-1, 2)),
        lambda: Recipe((2, 2), (), (1, 2)),
        lambda: Recipe((1, 2), (), (3, 3)),
        lambda: Recipe((0,), (5,), (1, 2)),
        lambda: Recipe((5,), (0,), (1, 2)),
        lambda: Recipe((5,), (5,), (0, 1)),
        lambda: Recipe((4, 4), (5,), (1, 2, 3)),
        lambda: Recipe((5,), (4, 4), (1, 2, 3)),
        lambda: Recipe((5,), (5,), (2, 2)),
    ]
    for make in bad:
        with pytest.raises(ShapeError):
            make()
    # a row may come from x and from the adjugate at once: J(5,2) takes row 5 of both
    assert Recipe((5,), (5,), (1, 2)) == EXPECTED_RECIPES[(5, 2)]
