import hashlib
import json
from fractions import Fraction

import pytest

from parinv import generators_osp
from parinv.generators_gl import (
    Recipe,
    build_generators,
    eval_generator,
    nonvanishing_witness,
)
from parinv.generators_osp import GeneratorSystem, build_system, corner_minor_recipe, eval_family
from parinv.linalg import Matrix, adjugate, det, inverse
from parinv.sampling import Rng, anti_identity, sample_group_point, sample_slice, sample_unipotent_radical
from parinv.shapes import GroupKind, IndexPair, index_set, make_shape
from parinv import verification

from oracles import (
    adjugate_cofactor,
    derivative_at_zero,
    dense_lie_basis,
    eval_descriptor_cofactor,
    minor_cofactor,
    valid_shapes,
)

O4 = make_shape("o", 4, (2, 2))
O5 = make_shape("o", 5, (1, 3, 1))
O6 = make_shape("o", 6, (2, 2, 2))
SP4 = make_shape("sp", 4, (1, 2, 1))
SP8 = make_shape("sp", 8, (1, 2, 2, 2, 1))


def named_values(system: GeneratorSystem, point: Matrix) -> dict:
    family = system.family()
    return dict(zip((label for label, _ in family), eval_family(family, point)))


def ratio_value(values: dict, gen) -> Fraction:
    """P(i,j) = M(i,j) / M0 from the named family values, as ``parinv eval`` forms it."""
    return values[f"M({gen.pair.i},{gen.pair.j})"] / values["M0"]


def test_sp8_system_structure():
    system = build_system(SP8)
    assert len(system.j) == 19
    assert [tuple(g.pair) for g in system.j] == [tuple(p) for p in index_set(SP8).pairs]
    assert system.m0 == Recipe((6, 7, 8), (), (1, 2, 3))
    assert len(system.ratios) == 4
    assert [tuple(g.pair) for g in system.ratios] == [(5, 4), (4, 4), (5, 5), (4, 5)]
    m45 = next(g for g in system.ratios if g.pair == IndexPair(4, 5))
    assert m45.recipe == Recipe((4, 6, 7, 8), (), (1, 2, 3, 5))
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
    assert system.m0 == Recipe((5,), (), (1,))
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
        assert build_system(shape) == GeneratorSystem(build_generators(shape), None, ())


def test_eval_at_identity_ratio_undefined():
    # M0 = 0 leaves every ratio P(i,j) = M(i,j) / M0 undefined; the family values are still returned
    values = named_values(build_system(SP4), Matrix.identity(4))
    assert values["M0"] == 0
    assert len([label for label in values if label.startswith("J")]) == 4


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
        m0 = minor_cofactor(pt, (6, 7, 8), (1, 2, 3))
        if m0 == 0:
            continue
        found += 1
        values = named_values(system, pt)
        for gen in system.ratios:
            num = minor_cofactor(pt, gen.recipe.x_rows, gen.recipe.cols)
            assert ratio_value(values, gen) == num / m0
        if found >= 3:
            break
    assert found >= 3


def test_smallest_pair_is_bare_entry():
    system = build_system(SP8)
    first = system.j[0]
    assert first.pair == IndexPair(8, 1)
    pt = sample_group_point(SP8, Rng(61), 4)
    assert eval_generator(first, pt) == pt.rows[7][0]


def _m0_at(system, x):
    """The corner minor M0 at x, as the determinant of its submatrix."""
    return det(x.submatrix([i - 1 for i in system.m0.x_rows], [j - 1 for j in system.m0.cols]))


def test_invariance_of_all_families():
    for shape in (O5, O6, SP4, SP8, O4):
        system = build_system(shape)
        family = system.family()
        for t in range(5):
            rng = Rng(62, t)
            x = sample_group_point(shape, rng, 5)
            u = sample_unipotent_radical(shape, rng, 5)
            y = inverse(u) @ x @ u
            assert eval_family(family, x) == eval_family(family, y)
            if system.m0 is not None and _m0_at(system, x) != 0:
                at_x, at_y = named_values(system, x), named_values(system, y)
                for gen in system.ratios:
                    assert ratio_value(at_x, gen) == ratio_value(at_y, gen)


def test_p_ratio_invariance_where_defined():
    system = build_system(O6)
    checked = 0
    for t in range(10):
        rng = Rng(63, t)
        x = sample_group_point(O6, rng, 5)
        u = sample_unipotent_radical(O6, rng, 5)
        if _m0_at(system, x) != 0:
            y = inverse(u) @ x @ u
            at_x, at_y = named_values(system, x), named_values(system, y)
            for gen in system.ratios:
                assert ratio_value(at_y, gen) == ratio_value(at_x, gen)
            checked += 1
    assert checked >= 3


def test_degenerate_single_block():
    shape = make_shape("o", 3, (3,))
    system = build_system(shape)
    assert system.j == ()
    assert system.m0 == Recipe((), (), ())
    pt = sample_group_point(shape, Rng(64), 5)
    values = named_values(system, pt)
    assert values["M0"] == 1  # the empty minor
    # ratios degenerate to bare matrix entries
    for gen in system.ratios:
        i, j = gen.pair
        assert ratio_value(values, gen) == pt.rows[i - 1][j - 1]


@pytest.mark.parametrize("shape", [O5, SP8, make_shape("o", 9, (2, 2, 1, 2, 2))], ids=["o5", "sp8", "o9"])
def test_eval_generator_takes_the_ratio_minors(shape):
    # a ratio generator is its augmented minor M(i,j), evaluated like any other minor
    system = build_system(shape)
    for t in range(3):
        x = sample_group_point(shape, Rng(67, t), 5)
        values = named_values(system, x)
        for gen in system.ratios:
            assert eval_generator(gen, x) == values[f"M({gen.pair.i},{gen.pair.j})"]


@pytest.mark.parametrize("shape", [SP8, O5], ids=["sp8", "o5"])
def test_ratio_derivatives_match_interpolation_oracle(shape):
    system = build_system(shape)
    m0 = system.m0
    x = next(
        m
        for m in (sample_group_point(shape, Rng(65, t), 4) for t in range(20))
        if minor_cofactor(m, m0.x_rows, m0.cols) != 0
    )
    # the rows are taken at the integer numerator X of x = X / d, in the directions X A
    big = Matrix(x.num)
    rng = Rng(66)
    basis = dense_lie_basis(shape, "group")
    coeffs = [rng.randint(-4, 4) for _ in basis]
    a = Matrix.zeros(shape.n, shape.n)
    for c, element in zip(coeffs, basis):
        a = a + element * c
    b = big @ a
    rows = verification._gamma0_rows(shape, big.num)
    assert len(rows) == len(system.ratios)

    def value_and_derivative(recipe):
        # a k x k minor of X + t b is a polynomial of degree k in t
        nodes = [Fraction(k) for k in range(len(recipe.x_rows) + 1)]
        vals = [minor_cofactor(big + b * u, recipe.x_rows, recipe.cols) for u in nodes]
        return vals[0], derivative_at_zero(nodes, vals)

    den, d_den = value_and_derivative(m0)
    for gen, row in zip(system.ratios, rows):
        num, d_num = value_and_derivative(gen.recipe)
        want = (d_num * den - num * d_den) / (den * den)  # the quotient rule
        # a ratio's row carries the factor M0(X)^2
        assert sum(c * v for c, v in zip(coeffs, row)) == den * den * want


LADDER = [
    make_shape("gl", 8, (2, 3, 3)),
    make_shape("gl", 10, (2, 3, 5)),
    make_shape("o", 9, (2, 2, 1, 2, 2)),
    make_shape("sp", 12, (2, 2, 4, 2, 2)),
]


def _label(shape):
    return f"{shape.kind.value}{shape.n}-" + "-".join(map(str, shape.parts))


def one_by_one(family, point):
    """The family's values, one ``eval_generator`` determinant per recipe."""
    adj = adjugate(point)
    return [eval_generator(g, point, adj) for _, g in family]


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the recipes ``eval_family`` sends to ``eval_generator``."""
    calls = []

    def counted(gen, point, adj=None):
        calls.append(gen)
        return eval_generator(gen, point, adj)

    monkeypatch.setattr(generators_osp, "eval_generator", counted)
    return calls


@pytest.mark.parametrize("shape", valid_shapes(5) + LADDER, ids=_label)
def test_chain_values_equal_per_recipe_values_at_group_points(shape):
    family = build_system(shape).family()
    points = [sample_group_point(shape, Rng(91, t), 10) for t in range(2)]
    if shape.kind is GroupKind.O:
        points += [
            sample_group_point(shape, Rng(91, 10 + t), 10, second_component=True)
            for t in range(2)
        ]
    for x in points:
        assert eval_family(family, x) == one_by_one(family, x)


def _fallback_points(shape):
    """Points where some leading minor of a chain vanishes."""
    n = shape.n
    points = [Matrix.identity(n), anti_identity(n)]
    points += [nonvanishing_witness(shape, pair) for pair in index_set(shape).pairs]
    points.append(sample_slice(shape, Rng(92, 0), 10, variant="s0"))
    rows = [list(row) for row in sample_group_point(shape, Rng(92, 1), 10).rows]
    rows[n - 1][0] = 0  # x_{n1}, the first pivot of every chain
    points.append(Matrix(rows))
    return points


def test_chain_values_fall_back_past_a_zero_leading_minor(fallbacks):
    for shape in valid_shapes(5):
        family = build_system(shape).family()
        for k, x in enumerate(_fallback_points(shape)):
            got = eval_family(family, x)
            assert got == one_by_one(family, x), (shape, x)
            if k < 2:  # the identity and the anti-identity
                adj = adjugate_cofactor([list(row) for row in x.rows])
                assert got == [eval_descriptor_cofactor(g, x, adj) for _, g in family]
    assert fallbacks  # the points above do reach the fallback


def test_chain_values_match_cofactor_oracle_at_group_points():
    for shape in valid_shapes(5):
        family = build_system(shape).family()
        x = sample_group_point(shape, Rng(93, 0), 10)
        adj = adjugate_cofactor([list(row) for row in x.rows])
        assert eval_family(family, x) == [eval_descriptor_cofactor(g, x, adj) for _, g in family]


@pytest.mark.parametrize("n", range(1, 7))
def test_every_pair_is_read_off_a_chain(n, fallbacks):
    # the single-block GL(n) system carries all n^2 pairs, minors and stacked
    shape = make_shape("gl", n, (n,))
    family = build_system(shape).family()
    assert len(family) == n * n
    x = sample_group_point(shape, Rng(94, n), 10)
    assert eval_family(family, x) == one_by_one(family, x)
    assert fallbacks == []


def test_a_zero_pivot_sends_only_later_steps_to_the_fallback(fallbacks):
    # at the identity the first pivot x_31 of every chain is 0: the one-column
    # minors are still read at step 0, every other recipe falls back
    family = build_system(make_shape("gl", 3, (3,))).family()
    values = eval_family(family, Matrix.identity(3))
    assert values == one_by_one(family, Matrix.identity(3))
    assert [g.recipe for g in fallbacks] == [g.recipe for _, g in family if len(g.recipe.cols) > 1]


def test_recipes_off_the_chain_pattern_fall_back(fallbacks):
    # the corner minor M0 is chain-shaped; augmented minors with a column
    # past the leading ones, and mutants, are not
    system = build_system(SP8)
    family = system.family()
    x = sample_group_point(SP8, Rng(95), 10)
    assert eval_family(family, x) == one_by_one(family, x)
    off_chain = [g.recipe for g in fallbacks]
    assert system.m0 not in off_chain
    assert off_chain and all(not r.adj_rows and r.cols[-1] > len(r.cols) for r in off_chain)
    mutants = verification.mutated_generators(SP8)
    assert eval_family(mutants, x) == one_by_one(mutants, x)


def test_chain_plan_is_pinned():
    # sha256 of the family and mutant labels, chains, slots and needs_adj of every
    # valid shape with n <= 8; values alone would not show a recipe read off
    # another chain (a trailing-row minor also fits the stacked pattern)
    digest = hashlib.sha256()
    for shape in valid_shapes(8):
        family = build_system(shape).family() + verification.mutated_generators(shape)
        chains, slots, needs_adj = generators_osp._chain_plan(tuple(g.recipe for _, g in family), shape.n)
        digest.update(json.dumps([[label for label, _ in family], chains, slots, needs_adj]).encode())
    assert digest.hexdigest() == "ee00d5668352642b90bc8330cb6adb63940d35cb1d9cc5cac8b29b657945709c"
