import hashlib
import json
from fractions import Fraction

import pytest

from parinv import sampling
from parinv.linalg import Matrix, adjugate, det, inverse, matrix_to_json
from parinv.sampling import (
    InternalConsistencyError,
    Rng,
    SamplingError,
    anti_identity,
    cayley,
    defining_equation_holds,
    form_matrix,
    lie_algebra_basis,
    resolve_slice_sign,
    sample_group_point,
    sample_slice,
    sample_unipotent_radical,
    slice_pattern,
    swap_matrix,
    symplectic_form,
)
from parinv.shapes import GroupKind, ShapeError, dim_unipotent_radical, index_set, make_shape

from oracles import (
    dense_lie_basis,
    form_equation_by_product,
    group_slice_by_blocks,
    lie_basis_by_nullspace,
    radical_by_product,
    valid_shapes,
)

GL5 = make_shape("gl", 5, (1, 2, 2))
SL5 = make_shape("sl", 5, (1, 2, 2))
O5 = make_shape("o", 5, (1, 3, 1))
O6 = make_shape("o", 6, (2, 2, 2))
SP4 = make_shape("sp", 4, (1, 2, 1))
SP8 = make_shape("sp", 8, (1, 2, 2, 2, 1))
OSP_SHAPES = (O5, O6, SP4, SP8, make_shape("o", 4, (2, 2)))


class ZeroRng:
    """Stub generator: every draw is zero (nonzero draws are impossible)."""

    def randint(self, lo, hi):
        return 0


def test_rng_reference_stream_is_frozen():
    # pins the documented SplitMix64 scheme; must never change
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == [
        0x568A9B0B1A2C05EC,
        0x44E5B8B147EF718B,
        0x458563AB55521133,
    ]
    r2 = Rng(42, stream=7)
    assert r2.next_u64() == 0x9FA14B4B7F33D845


def test_rng_determinism_and_stream_separation():
    a = [Rng(9, 3).randint(-50, 50) for _ in range(1)]
    b = [Rng(9, 3).randint(-50, 50) for _ in range(1)]
    assert a == b
    seq1 = [Rng(9, 1).next_u64() for _ in range(4)]
    seq2 = [Rng(9, 2).next_u64() for _ in range(4)]
    assert seq1 != seq2


def test_rng_randint_bounds_and_nonzero():
    rng = Rng(5)
    values = [rng.randint(-3, 3) for _ in range(200)]
    assert set(values) <= set(range(-3, 4))
    assert all(rng.nonzero_int(2) != 0 for _ in range(50))


def test_rng_nonzero_int_refuses_a_bound_below_one():
    # [-0, 0] holds no nonzero integer, so the draw loop would never return
    for bound in (0, -1):
        with pytest.raises(ValueError):
            Rng(5).nonzero_int(bound)


def test_radical_positions_are_memoised_per_shape():
    positions = sampling._strict_upper_positions(GL5)
    assert positions is sampling._strict_upper_positions(make_shape("gl", 5, (1, 2, 2)))
    assert positions == tuple(
        (i, j) for i in range(1, 6) for j in range(1, 6) if GL5.block_of(i) < GL5.block_of(j)
    )
    assert len(positions) == dim_unipotent_radical(GL5) == 8


def test_rng_randint_refuses_ranges_wider_than_one_draw():
    rng = Rng(5)
    widest = (1 << 63) - 1  # the largest --bound: [-B, B] holds 2^64 - 1 values
    values = [rng.randint(-widest, widest) for _ in range(200)]
    assert min(values) < 0 < max(values)
    assert 0 <= rng.randint(0, (1 << 64) - 1) < 1 << 64
    with pytest.raises(ValueError):
        rng.randint(0, 1 << 64)
    with pytest.raises(ValueError):
        rng.randint(-(1 << 70), 1 << 70)


def test_forms():
    assert anti_identity(3) == Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    j4 = symplectic_form(4)
    assert j4 == Matrix([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    assert j4.transpose() == -j4
    with pytest.raises(ShapeError):
        symplectic_form(3)
    with pytest.raises(ShapeError):
        form_matrix(GroupKind.GL, 3)


def test_group_point_validation():
    with pytest.raises(InternalConsistencyError):
        sampling._member(GL5, Matrix.zeros(5, 5), "point")
    with pytest.raises(InternalConsistencyError):
        sampling._member(GL5, Matrix.identity(4), "point")
    with pytest.raises(InternalConsistencyError):
        sampling._member(SL5, Matrix.identity(5) * 2, "point")
    assert sampling._member(O5, Matrix.identity(5), "point") == Matrix.identity(5)


def test_zero_draws_give_identity_radical():
    for shape in (GL5, SP8, O6):
        g = sample_unipotent_radical(shape, ZeroRng(), bound=10)
        assert g == Matrix.identity(shape.n)


def test_cayley_of_zero_is_identity():
    assert cayley(Matrix.zeros(4, 4)) == Matrix.identity(4)


def test_gl_radical_support_matches_star_positions():
    # the worked 5x5 table: U sits at the strictly-upper block positions
    star = {(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)}
    for t in range(10):
        g = sample_unipotent_radical(GL5, Rng(31, t), bound=9)
        for i in range(1, 6):
            for j in range(1, 6):
                entry = g.rows[i - 1][j - 1]
                if i == j:
                    assert entry == 1
                elif (i, j) not in star:
                    assert entry == 0


def test_sp8_radical_form_equation_100_seeds():
    f = form_matrix(SP8.kind, SP8.n)
    for t in range(100):
        g = sample_unipotent_radical(SP8, Rng(30, t), bound=10)
        assert g.transpose() @ f @ g == f


def test_osp_radical_satisfies_form_equation():
    for shape in OSP_SHAPES:
        f = form_matrix(shape.kind, shape.n)
        for t in range(20):
            g = sample_unipotent_radical(shape, Rng(32, t), bound=7)
            assert g.transpose() @ f @ g == f
            # radical elements are block-unipotent: identity diagonal blocks
            for i in range(1, shape.n + 1):
                for j in range(1, shape.n + 1):
                    if shape.block_of(i) >= shape.block_of(j):
                        expected = Fraction(int(i == j))
                        assert g.rows[i - 1][j - 1] == expected


def test_group_samples_satisfy_defining_equations():
    for shape in (GL5, SL5, *OSP_SHAPES):
        for t in range(10):
            pt = sample_group_point(shape, Rng(33, t), bound=6)
            assert defining_equation_holds(shape.kind, pt)
    # special linear samples are exactly unimodular
    for t in range(5):
        assert det(sample_group_point(SL5, Rng(34, t), 6)) == 1


def test_orthogonal_second_component():
    g1 = sample_group_point(O6, Rng(35, 0), 5)
    g2 = sample_group_point(O6, Rng(35, 0), 5, second_component=True)
    assert det(g1) == 1
    assert det(g2) == -1
    assert defining_equation_holds(GroupKind.O, g2)
    with pytest.raises(ShapeError):
        sample_group_point(SP4, Rng(35, 1), 5, second_component=True)
    # O(1) = {1, -1}: there the swap of coordinates 1 and n is -E, not E
    for n in (1, 2, 3):
        g = sample_group_point(make_shape("o", n, (1,) * n), Rng(35, n), 5, second_component=True)
        assert det(g) == -1
        assert defining_equation_holds(GroupKind.O, g)


def test_swap_matrix_preserves_form():
    p = swap_matrix(6)
    f = anti_identity(6)
    assert p.transpose() @ f @ p == f
    assert det(p) == -1


def test_sampler_determinism():
    a = sample_group_point(SP8, Rng(36, 2), 5)
    b = sample_group_point(SP8, Rng(36, 2), 5)
    assert a == b
    c = sample_unipotent_radical(O6, Rng(36, 3), 5)
    d = sample_unipotent_radical(O6, Rng(36, 3), 5)
    assert c == d


def test_sampling_budget_error(monkeypatch):
    # one budget for every rejection loop: group points, slice points, block-upper factors
    monkeypatch.setattr(sampling, "_MAX_ATTEMPTS", 0)
    with pytest.raises(SamplingError):
        sample_group_point(GL5, Rng(37), 5)
    with pytest.raises(SamplingError):
        sample_slice(GL5, Rng(37), 5, "s")
    with pytest.raises(SamplingError):  # two parts: no G_0 point is drawn
        sample_slice(make_shape("o", 4, (2, 2)), Rng(37), 5, "s_circ")


def test_closure_under_conjugation():
    for shape in (GL5, SP8, O5):
        rng = Rng(38)
        x = sample_group_point(shape, rng, 5)
        u = sample_unipotent_radical(shape, rng, 5)
        y = inverse(u) @ x @ u
        assert defining_equation_holds(shape.kind, y)


def test_lie_algebra_basis_counts_and_constraints():
    for shape in (GL5, SL5, *OSP_SHAPES):
        radical = dense_lie_basis(shape, "radical")
        assert len(radical) == dim_unipotent_radical(shape)
        if shape.kind in (GroupKind.O, GroupKind.SP):
            f = form_matrix(shape.kind, shape.n)
            for a in dense_lie_basis(shape, "group") + radical:
                assert a.transpose() @ f + f @ a == Matrix.zeros(shape.n, shape.n)
        for a in radical:
            for i in range(1, shape.n + 1):
                for j in range(1, shape.n + 1):
                    if shape.block_of(i) >= shape.block_of(j):
                        assert a.rows[i - 1][j - 1] == 0


@pytest.mark.parametrize(
    "shape",
    valid_shapes(8, ("o", "sp"))
    + [make_shape("o", 9, (2, 2, 1, 2, 2)), make_shape("sp", 12, (2, 2, 4, 2, 2))],
    ids=lambda s: f"{s.kind.value}{s.n}-" + "-".join(map(str, s.parts)),
)
def test_closed_form_osp_basis_is_the_nullspace_basis(shape):
    # same elements in the same order as the reduced echelon nullspace of
    # the n^2 form constraints, so every sample and report is unchanged
    for which in ("group", "radical"):
        assert dense_lie_basis(shape, which) == lie_basis_by_nullspace(shape, which)


def test_lie_basis_entries_are_nonzero_at_distinct_positions():
    for shape in (GL5, SL5, *OSP_SHAPES):
        for which in ("group", "radical"):
            for entries in lie_algebra_basis(shape, which):
                assert entries
                assert all(v != 0 and type(v) is int for _, _, v in entries)
                positions = [(i, j) for i, j, _ in entries]
                assert len(set(positions)) == len(positions)
                assert all(0 <= i < shape.n and 0 <= j < shape.n for i, j in positions)


def test_lie_algebra_group_dimensions():
    assert len(lie_algebra_basis(GL5, "group")) == 25
    assert len(lie_algebra_basis(SL5, "group")) == 24
    assert len(lie_algebra_basis(SP8, "group")) == 36
    assert len(lie_algebra_basis(O6, "group")) == 15
    assert lie_algebra_basis(make_shape("gl", 3, (3,)), "radical") == ()
    assert len(lie_algebra_basis(GL5, "radical")) == 8
    assert len(lie_algebra_basis(SP8, "radical")) == 14
    assert all(sum(v for i, j, v in a if i == j) == 0 for a in lie_algebra_basis(SL5, "group"))


def test_slice_s_support_and_invertibility():
    pattern = slice_pattern(GL5, "s")
    assert len(pattern) == 17
    for t in range(8):
        m = sample_slice(GL5, Rng(39, t), 8, "s")
        assert det(m) != 0
        for i in range(1, 6):
            for j in range(1, 6):
                if (i, j) not in pattern:
                    assert m.rows[i - 1][j - 1] == 0


def test_slice_s0_support_chain_and_invertibility():
    pattern = slice_pattern(GL5, "s0")
    for t in range(8):
        m = sample_slice(GL5, Rng(40, t), 8, "s0")
        assert det(m) != 0
        for i in range(1, 6):
            assert m.rows[i - 1][5 - i] != 0
        for i in range(1, 6):
            for j in range(1, 6):
                if (i, j) not in pattern:
                    assert m.rows[i - 1][j - 1] == 0


def test_slice_sign_resolution_is_kind_dependent():
    # the form's corner entry F[1][n]: +1 orthogonal, -1 symplectic; +1 for one part
    assert resolve_slice_sign(O5) == 1
    assert resolve_slice_sign(O6) == 1
    assert resolve_slice_sign(SP4) == -1
    assert resolve_slice_sign(SP8) == -1
    assert resolve_slice_sign(make_shape("sp", 2, (2,))) == 1
    assert resolve_slice_sign(make_shape("sp", 4, (4,))) == 1
    with pytest.raises(ShapeError):
        resolve_slice_sign(GL5)


def test_slice_s_circ_in_group_and_ambient_pattern():
    for shape in OSP_SHAPES:
        ambient = slice_pattern(shape, "s")
        for t in range(6):
            pt = sample_slice(shape, Rng(41, t), 5, "s_circ")
            assert (pt.nrows, pt.ncols) == (shape.n, shape.n)
            assert defining_equation_holds(shape.kind, pt)
            for i in range(1, shape.n + 1):
                for j in range(1, shape.n + 1):
                    if (i, j) not in ambient:
                        assert pt.rows[i - 1][j - 1] == 0


def test_slice_s_circ_rejected_for_gl():
    with pytest.raises(ShapeError):
        sample_slice(GL5, Rng(42), 5, "s_circ")


def test_slice_points_carry_gl_shape():
    # S and S0 points are checked as elements of GL(n), whatever the shape's kind
    pt = sample_slice(SP8, Rng(43), 5, "s")
    assert defining_equation_holds(GroupKind.GL, pt) and not defining_equation_holds(GroupKind.SP, pt)
    pt0 = sample_slice(SL5, Rng(43), 5, "s0")
    assert defining_equation_holds(GroupKind.GL, pt0) and det(pt0) != 1


def test_adjugate_of_group_point_stays_exact():
    # sanity: adjugate of a rational Cayley point keeps the identity X X* = det X * E
    x = sample_group_point(SP8, Rng(44), 4)
    adj = adjugate(x)
    assert x @ adj == Matrix.identity(8) * det(x)


def _shifted(m: Matrix, i: int, j: int, delta) -> Matrix:
    rows = [list(r) for r in m.rows]
    rows[i][j] += delta
    return Matrix(rows)


# every orthogonal/symplectic shape family with n <= 8: odd and even part
# counts, odd and even orthogonal sizes
FORM_SHAPES = (
    make_shape("o", 3, (1, 1, 1)),
    make_shape("o", 4, (2, 2)),
    O5,
    O6,
    make_shape("o", 7, (2, 3, 2)),
    make_shape("o", 8, (1, 3, 3, 1)),
    SP4,
    make_shape("sp", 6, (3, 3)),
    SP8,
)


def test_form_check_agrees_with_product_oracle_on_points_and_perturbations():
    # a shift can keep a point in the group (at a long-root position of Sp,
    # say), so only the agreement is asserted point by point
    shifts = rejected = 0
    for shape in FORM_SHAPES:
        for seed in (1, 2, 3):
            rng = Rng(70 + seed, shape.n)
            points = [sample_group_point(shape, rng, 6)]
            if shape.kind is GroupKind.O:
                points.append(sample_group_point(shape, rng, 6, second_component=True))
            points.append(sample_unipotent_radical(shape, rng, 6))
            for m in points:
                assert defining_equation_holds(shape.kind, m) and form_equation_by_product(shape.kind, m)
                for _ in range(3):
                    i, j = rng.randint(0, shape.n - 1), rng.randint(0, shape.n - 1)
                    for delta in (Fraction(1, m.den), m.den):
                        moved = _shifted(m, i, j, delta)
                        verdict = defining_equation_holds(shape.kind, moved)
                        assert verdict == form_equation_by_product(shape.kind, moved)
                        shifts += 1
                        rejected += not verdict
    assert rejected >= 0.9 * shifts


def test_cayley_equals_product_form_on_form_skew_integer_matrices():
    for shape in FORM_SHAPES:
        basis = dense_lie_basis(shape, "group")
        e = Matrix.identity(shape.n)
        rng = Rng(75, shape.n)
        checked = 0
        for _ in range(6):
            a = Matrix.zeros(shape.n, shape.n)
            for b in basis:
                a = a + b * rng.randint(-7, 7)
            assert a.den == 1
            try:
                product = (e - a) @ inverse(e + a)
            except ZeroDivisionError:
                continue
            assert cayley(a) == product
            checked += 1
        assert checked >= 4


def test_failed_radical_assembly_is_an_internal_error(monkeypatch):
    assemble = sampling._parabolic_element

    def perturbed(shape, a, a0, b, v):
        return _shifted(assemble(shape, a, a0, b, v), 0, 0, 1)

    monkeypatch.setattr(sampling, "_parabolic_element", perturbed)
    for shape in (O5, O6, SP8):
        with pytest.raises(InternalConsistencyError):
            sample_unipotent_radical(shape, Rng(76), 5)


def test_failed_group_slice_is_an_internal_error(monkeypatch):
    build = sampling._osp_slice

    def perturbed(shape, rng, bound):
        return _shifted(build(shape, rng, bound), 0, 0, 1)

    monkeypatch.setattr(sampling, "_osp_slice", perturbed)
    for shape in (O5, SP8):
        with pytest.raises(InternalConsistencyError):
            sample_slice(shape, Rng(77), 5, "s_circ")


def test_every_sampler_checks_its_output(monkeypatch):
    # a sampler that builds a non-member is at fault, whichever sampler it is
    monkeypatch.setattr(sampling, "defining_equation_holds", lambda kind, m: False)
    for shape in (GL5, SL5, O5, O6, SP4, make_shape("o", 4, (4,))):
        samplers = [
            lambda: sample_group_point(shape, Rng(78), 5),
            lambda: sample_unipotent_radical(shape, Rng(78), 5),
            lambda: sample_slice(shape, Rng(78), 5, "s"),
            lambda: sample_slice(shape, Rng(78), 5, "s0"),
        ]
        if shape.kind is GroupKind.O:
            samplers.append(lambda: sample_group_point(shape, Rng(78), 5, second_component=True))
        if shape.kind in (GroupKind.O, GroupKind.SP):
            samplers.append(lambda: sample_slice(shape, Rng(78), 5, "s_circ"))
        for sample in samplers:
            with pytest.raises(InternalConsistencyError):
                sample()


@pytest.mark.parametrize(
    "shape",
    valid_shapes(8, ("o", "sp"))
    + [make_shape("o", 9, (2, 2, 1, 2, 2)), make_shape("sp", 12, (2, 2, 4, 2, 2))],
    ids=lambda s: f"{s.kind.value}{s.n}-" + "-".join(map(str, s.parts)),
)
def test_parabolic_assembly_matches_the_block_product_oracles(shape):
    # the radical is p(a, E, b, v) and the group slice F p(a, a0, b, v); the
    # slice sign is the first of +1, -1 whose written-out slice keeps the form
    sign = resolve_slice_sign(shape)
    for seed in (1, 2):
        assert sample_unipotent_radical(shape, Rng(seed, 5), 6) == radical_by_product(shape, Rng(seed, 5), 6)
        assert sample_slice(shape, Rng(seed, 6), 6, "s_circ") == group_slice_by_blocks(shape, Rng(seed, 6), 6, sign)
        keeps = [s for s in (1, -1) if defining_equation_holds(shape.kind, group_slice_by_blocks(shape, Rng(seed, 6), 6, s))]
        assert keeps[0] == sign


def _sampler_outputs(shape, seed):
    points = [sample_group_point(shape, Rng(seed))]
    if shape.kind is GroupKind.O:
        points.append(sample_group_point(shape, Rng(seed), second_component=True))
    points.append(sample_unipotent_radical(shape, Rng(seed)))
    variants = ["s", "s0"] + (["s_circ"] if shape.kind in (GroupKind.O, GroupKind.SP) else [])
    points += [sample_slice(shape, Rng(seed), variant=v) for v in variants]
    return [matrix_to_json(p) for p in points]


# sha256 of the sampled points at seeds 1-3 (default bound); pins the order of
# the rng draws.  The first five were recorded before group points were
# assembled on integers, the last four before the radical and the group slice
# shared one parabolic-element assembly (listed in that order, so the test
# ids of the first five keep their indices)
PINNED_SAMPLES = {
    ("gl", 5, (1, 2, 2)): "6939e68a6973dfafa69f5a5bd0903e1132640c3bcb9efa18b70cbe6840326d87",
    ("o", 4, (2, 2)): "5032a9106387a96563a56d2dd954a52b3dbd603e5e9cb8970e282d860fc35f40",
    ("o", 5, (1, 3, 1)): "ad970d9631efc8c24663f4500817692cbb17da6653308e78b3abe8f3ddadaef8",
    ("sl", 5, (1, 2, 2)): "8738cbfdae1c275451bb360cd6b410ae0bc44a389d91d97735c9b9f0bd5083a5",
    ("sp", 8, (1, 2, 2, 2, 1)): "c5ff225e10d926305a6b4dffe312e2f376c025652b283ada68748272df9d4161",
    ("o", 9, (2, 2, 1, 2, 2)): "441e961202c9cf5ecdde4e2c830a9a3fc6eb48d3af13475d877e40644b3c9af4",
    ("sp", 12, (2, 2, 4, 2, 2)): "e9817f6920c2dc2a07d998abd47a0b8d7008b0fed00b1293891f91c42764eb34",
    ("sp", 4, (4,)): "0052fb74fbc626730d81e11c736ac5152336a157e073627749254137522fb0d8",
    ("o", 3, (1, 1, 1)): "20ce9f07c3cb55e070c2d1906b3294371c6ef5274c7a17454d288c5e9126f8e0",
}


@pytest.mark.parametrize("kind,n,parts", list(PINNED_SAMPLES))
def test_sampler_output_is_pinned(kind, n, parts):
    shape = make_shape(kind, n, parts)
    text = json.dumps([_sampler_outputs(shape, seed) for seed in (1, 2, 3)], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SAMPLES[kind, n, parts]
