from fractions import Fraction

import pytest

from parinv.generators_gl import (
    MinorRecipe,
    RatioRecipe,
    RatioUndefinedError,
    build_generators,
    eval_generator,
)
from parinv.generators_osp import GeneratorSystem, build_system, corner_minor_recipe, eval_family
from parinv.linalg import GF_P, Matrix, inverse, minor, reduce_mod_p
from parinv.sampling import Rng, sample_group_point, sample_unipotent_radical
from parinv.shapes import IndexPair, index_set, make_shape
from parinv.verification import directional_jacobian

from oracles import derivative_at_zero, fraction_mod_p, minor_cofactor

O4 = make_shape("o", 4, (2, 2))
O5 = make_shape("o", 5, (1, 3, 1))
O6 = make_shape("o", 6, (2, 2, 2))
SP4 = make_shape("sp", 4, (1, 2, 1))
SP8 = make_shape("sp", 8, (1, 2, 2, 2, 1))


def named_values(system: GeneratorSystem, point: Matrix) -> dict:
    family = system.family()
    return dict(zip((label for label, _ in family), eval_family(family, point)))


def test_sp8_system_structure():
    system = build_system(SP8)
    assert len(system.j) == 19
    assert [tuple(g.pair) for g in system.j] == [tuple(p) for p in index_set(SP8).pairs]
    assert system.m0 == MinorRecipe((6, 7, 8), (1, 2, 3))
    assert len(system.ratios) == 4
    assert [tuple(g.pair) for g in system.ratios] == [(5, 4), (4, 4), (5, 5), (4, 5)]
    m45 = next(g for g in system.ratios if g.pair == IndexPair(4, 5))
    assert m45.recipe == RatioRecipe(
        MinorRecipe((4, 6, 7, 8), (1, 2, 3, 5)), MinorRecipe((6, 7, 8), (1, 2, 3))
    )
    labels = [label for label, _ in system.family()]
    assert labels[19:] == ["M0", "M(5,4)", "M(4,4)", "M(5,5)", "M(4,5)"]


def test_even_parts_have_no_ratios():
    system = build_system(O4)
    assert system.m0 is None
    assert system.ratios == ()
    assert len(system.j) == 5
    assert corner_minor_recipe(O4) is None


def test_o5_system_structure():
    system = build_system(O5)
    assert system.m0 == MinorRecipe((5,), (1,))
    assert len(system.ratios) == 9
    assert {tuple(g.pair) for g in system.ratios} == {
        (i, j) for i in (2, 3, 4) for j in (2, 3, 4)
    }
    assert len(system.j) == 4


def test_j_circ_recipes_are_ambient_ones():
    ambient = {g.pair: g.recipe for g in build_generators(SP8.as_gl())}
    for g in build_system(SP8).j:
        assert g.recipe == ambient[g.pair]


def test_gl_system_has_no_ratio_layer():
    # an odd number of parts carries a ratio layer only for the O/Sp kinds
    for kind, n, parts in (("gl", 4, (2, 2)), ("gl", 5, (1, 2, 2)), ("sl", 5, (1, 2, 2))):
        shape = make_shape(kind, n, parts)
        assert build_system(shape) == GeneratorSystem(shape, build_generators(shape), None, ())


def test_eval_at_identity_ratio_undefined():
    system = build_system(SP4)
    values = named_values(system, Matrix.identity(4))
    assert values["M0"] == 0
    assert len([label for label in values if label.startswith("J")]) == 4  # J values still returned
    for gen in system.ratios:
        with pytest.raises(RatioUndefinedError):
            eval_generator(gen, Matrix.identity(4))


def test_even_parts_evaluation_is_trivially_defined():
    system = build_system(O4)
    values = named_values(system, Matrix.identity(4))
    assert "M0" not in values
    assert list(values) == [f"J({g.pair.i},{g.pair.j})" for g in system.j]


def test_ratio_values_match_two_minor_oracle():
    system = build_system(SP8)
    found = 0
    for t in range(12):
        pt = sample_group_point(SP8, Rng(60, t), 4)
        m0 = minor_cofactor(pt.matrix, (6, 7, 8), (1, 2, 3))
        if m0 == 0:
            continue
        found += 1
        for gen in system.ratios:
            num = minor_cofactor(pt.matrix, gen.recipe.numerator.rows, gen.recipe.numerator.cols)
            assert eval_generator(gen, pt.matrix) == num / m0
        if found >= 3:
            break
    assert found >= 3


def test_smallest_pair_is_bare_entry():
    system = build_system(SP8)
    first = system.j[0]
    assert first.pair == IndexPair(8, 1)
    pt = sample_group_point(SP8, Rng(61), 4).matrix
    assert eval_generator(first, pt) == pt.rows[7][0]


def test_invariance_of_all_families():
    for shape in (O5, O6, SP4, SP8, O4):
        system = build_system(shape)
        family = system.family()
        for t in range(5):
            rng = Rng(62, t)
            x = sample_group_point(shape, rng, 5).matrix
            u = sample_unipotent_radical(shape, rng, 5).matrix
            y = inverse(u) @ x @ u
            assert eval_family(family, x) == eval_family(family, y)
            if system.m0 is not None and minor(x, system.m0.rows, system.m0.cols) != 0:
                for gen in system.ratios:
                    assert eval_generator(gen, x) == eval_generator(gen, y)


def test_p_ratio_invariance_where_defined():
    system = build_system(O6)
    checked = 0
    for t in range(10):
        rng = Rng(63, t)
        x = sample_group_point(O6, rng, 5).matrix
        u = sample_unipotent_radical(O6, rng, 5).matrix
        if minor(x, system.m0.rows, system.m0.cols) != 0:
            y = inverse(u) @ x @ u
            assert [eval_generator(g, y) for g in system.ratios] == [
                eval_generator(g, x) for g in system.ratios
            ]
            checked += 1
    assert checked >= 3


def test_degenerate_single_block():
    shape = make_shape("o", 3, (3,))
    system = build_system(shape)
    assert system.j == ()
    assert system.m0 == MinorRecipe((), ())
    pt = sample_group_point(shape, Rng(64), 5)
    assert named_values(system, pt.matrix)["M0"] == 1  # the empty minor
    # ratios degenerate to bare matrix entries
    for gen in system.ratios:
        i, j = gen.pair
        assert eval_generator(gen, pt.matrix) == pt.matrix.rows[i - 1][j - 1]


@pytest.mark.parametrize("shape", [SP8, O5], ids=["sp8", "o5"])
def test_ratio_derivatives_match_interpolation_oracle(shape):
    system = build_system(shape)
    m0 = system.m0
    x = next(
        m
        for m in (sample_group_point(shape, Rng(65, t), 4).matrix for t in range(20))
        if minor_cofactor(m, m0.rows, m0.cols) != 0
    )
    rng = Rng(66)
    b = Matrix([[rng.randint(-4, 4) for _ in range(shape.n)] for _ in range(shape.n)])
    exact = directional_jacobian(system.ratios, x, [b])
    residues = directional_jacobian(system.ratios, reduce_mod_p(x), [reduce_mod_p(b)], GF_P)

    def value_and_derivative(recipe):
        # a k x k minor of x + t b is a polynomial of degree k in t
        nodes = [Fraction(k) for k in range(len(recipe.rows) + 1)]
        vals = [minor_cofactor(x + b * u, recipe.rows, recipe.cols) for u in nodes]
        return vals[0], derivative_at_zero(nodes, vals)

    for gen, exact_row, residue_row in zip(system.ratios, exact.rows, residues):
        num, d_num = value_and_derivative(gen.recipe.numerator)
        den, d_den = value_and_derivative(gen.recipe.denominator)
        want = (d_num * den - num * d_den) / (den * den)  # the quotient rule
        assert exact_row == (want,)
        assert residue_row == [fraction_mod_p(want)]
