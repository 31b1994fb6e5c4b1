from fractions import Fraction

import pytest

from parinv.linalg import (
    GF_P,
    P,
    DimensionError,
    DualMatrix,
    DualScalar,
    Matrix,
    SingularMatrixError,
    adjugate,
    adjugate_mod_p,
    det,
    det_mod_p,
    dual_adjugate,
    dual_det,
    dual_minor,
    inverse,
    inverse_mod_p,
    matrix_from_json,
    matrix_to_json,
    minor,
    nullspace_basis,
    partial_derivative,
    rank,
    rank_mod_p,
    reduce_mod_p,
)
from parinv.sampling import Rng

from oracles import adjugate_cofactor, det_cofactor, minor_cofactor, rank_cofactor

# the explicit 5x5 nonvanishing witness (anti-diagonal ones plus the
# broken diagonal through (4, 4)); its determinant is 1
WITNESS_5 = Matrix(
    [
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [1, 0, 1, 0, 0],
    ]
)

FIXED_5 = Matrix(
    [
        [3, -7, 2, 0, 5],
        [1, 4, -6, 8, -2],
        [0, 9, 1, -3, 7],
        [-5, 2, 4, 6, -1],
        [8, 0, -9, 2, 3],
    ]
)


def random_matrix(rng, n, bound=9):
    return Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def test_det_identity():
    assert det(Matrix.identity(3)) == 1


def test_det_transposition_sign():
    assert det(Matrix([[0, 1], [1, 0]])) == -1


def test_det_witness_matches_cofactor_oracle():
    oracle = det_cofactor([list(r) for r in WITNESS_5.rows])
    assert det(WITNESS_5) == oracle == 1


def test_det_empty_and_single():
    assert det(Matrix([])) == 1
    assert det(Matrix([[Fraction(-7, 3)]])) == Fraction(-7, 3)


def test_det_rejects_non_square():
    with pytest.raises(DimensionError):
        det(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_oracle_on_random_rationals():
    rng = Rng(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = Matrix(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert det(m) == det_cofactor([list(r) for r in m.rows])


def test_det_multiplicative():
    rng = Rng(12)
    for _ in range(20):
        n = rng.randint(1, 5)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert det(a @ b) == det(a) * det(b)


def test_adjugate_identity_and_diag():
    assert adjugate(Matrix.identity(4)) == Matrix.identity(4)
    assert adjugate(Matrix([[2, 0], [0, 3]])) == Matrix([[3, 0], [0, 2]])


def test_adjugate_fundamental_identity_incl_singular():
    rng = Rng(13)
    for k in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, bound=3 if k % 3 == 0 else 9)  # small bound hits singular
        adj = adjugate(m)
        d = det(m)
        scaled = Matrix.identity(n) * d
        assert m @ adj == scaled
        assert adj @ m == scaled


def test_adjugate_of_witness_is_anti_triangular():
    adj = adjugate(WITNESS_5)
    n = 5
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j == n + 1:
                assert adj.rows[i - 1][j - 1] == 1
            elif i + j > n + 1:
                assert adj.rows[i - 1][j - 1] == 0
    assert [list(r) for r in adj.rows] == adjugate_cofactor([list(r) for r in WITNESS_5.rows])


def test_minor_basic():
    assert minor(Matrix([[7]]), [1], [1]) == 7
    assert minor(Matrix.identity(2), [2, 1], [1, 2]) == -1


def test_minor_fixed_value():
    # rows {2} u [4,5] against the column segment [1,3]
    got = minor(FIXED_5, [2, 4, 5], [1, 2, 3])
    assert got == minor_cofactor(FIXED_5, [2, 4, 5], [1, 2, 3]) == 26


def test_minor_empty_selection_is_one():
    assert minor(FIXED_5, [], []) == 1


def test_minor_row_permutation_flips_sign():
    rng = Rng(14)
    for _ in range(10):
        m = random_matrix(rng, 5)
        rows = [2, 4, 5]
        cols = [1, 3, 4]
        base = minor(m, rows, cols)
        assert minor(m, [4, 2, 5], cols) == -base
        assert minor(m, [5, 4, 2], cols) == -base


def test_minor_errors():
    with pytest.raises(DimensionError):
        minor(FIXED_5, [1, 1], [1, 2])
    with pytest.raises(DimensionError):
        minor(FIXED_5, [1, 2], [1])
    with pytest.raises(DimensionError):
        minor(FIXED_5, [0, 1], [1, 2])
    with pytest.raises(DimensionError):
        minor(FIXED_5, [1, 6], [1, 2])


def test_rank_and_nullspace_trivialities():
    z = Matrix.zeros(3, 4)
    assert rank(z) == 0
    basis = nullspace_basis(z)
    assert len(basis) == 4
    assert rank(Matrix.identity(4)) == 4
    assert nullspace_basis(Matrix.identity(4)) == []


def test_rank_proportional_rows():
    m = Matrix([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert nullspace_basis(m) == [(Fraction(-2), Fraction(1))]


def test_rank_matches_enumeration_oracle_and_transpose():
    rng = Rng(15)
    for k in range(30):
        # every other matrix has entries that are multiples of P, which vanish mod P
        m = Matrix([
            [rng.randint(-2, 2) * (P if k % 2 and rng.randint(0, 1) else 1) for _ in range(4)]
            for _ in range(3)
        ])
        r = rank(m)
        assert r == rank_cofactor(m)
        assert r == rank(m.transpose())


def test_rank_falls_back_when_residue_rank_is_short():
    m = Matrix([[P, 0], [0, 1]])
    assert rank_mod_p(reduce_mod_p(m)) == 1
    assert rank(m) == 2


def test_rank_without_residue_certificate():
    m = Matrix([[Fraction(1, P), 1], [1, 1]])
    with pytest.raises(ZeroDivisionError):
        reduce_mod_p(m)
    assert rank(m) == 2
    assert rank(Matrix([[Fraction(1, P), Fraction(2, P)], [1, 2]])) == 1


def test_residue_division_by_a_multiple_of_p_is_refused():
    assert GF_P.div(3, 2) * 2 % P == 3
    with pytest.raises(ZeroDivisionError):
        GF_P.div(1, 2 * P)


def test_residue_kernel_matches_reduced_exact_results():
    rng = Rng(21)
    singular_seen = 0
    for k in range(24):
        n = rng.randint(1, 5)
        m = Matrix([
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)
        ])
        if k % 4 == 0 and n > 1:  # rank at most n - 1, or n - 2
            rows = [list(r) for r in m.rows]
            rows[-1] = list(rows[0]) if k % 8 else [0] * n
            m = Matrix(rows)
        a = reduce_mod_p(m)
        d = det(m)
        singular_seen += d == 0
        assert det_mod_p(a) == reduce_mod_p(Matrix([[d]]))[0][0]
        assert adjugate_mod_p(a) == reduce_mod_p(adjugate(m))
        assert rank_mod_p(a) == rank(m)
        if d != 0:
            assert inverse_mod_p(a) == reduce_mod_p(inverse(m))
        else:
            with pytest.raises(SingularMatrixError):
                inverse_mod_p(a)
    assert singular_seen > 0


def test_nullspace_vectors_are_in_kernel():
    rng = Rng(16)
    for _ in range(15):
        m = Matrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)])
        basis = nullspace_basis(m)
        assert len(basis) == 5 - rank(m)
        for v in basis:
            assert all(sum(row[k] * v[k] for k in range(5)) == 0 for row in m.rows)


def test_inverse_roundtrip_and_singular():
    rng = Rng(17)
    m = random_matrix(rng, 4)
    while det(m) == 0:
        m = random_matrix(rng, 4)
    assert m @ inverse(m) == Matrix.identity(4)
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_matrix_rejects_floats_and_ragged_rows():
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    with pytest.raises(DimensionError):
        Matrix([[1, 2], [3]])


def test_anti_transpose():
    m = Matrix([[1, 2], [3, 4]])
    assert m.anti_transpose() == Matrix([[4, 2], [3, 1]])


def test_dual_scalar_arithmetic():
    a = DualScalar(Fraction(2), Fraction(3))
    b = DualScalar(Fraction(5), Fraction(-1))
    prod = a * b
    assert (prod.value, prod.deriv) == (Fraction(10), Fraction(13))
    q = a / b
    # (a + b eps)(c + d eps) = ac + (ad + bc) eps, so q * b must reproduce a
    back = q * b
    assert (back.value, back.deriv) == (a.value, a.deriv)
    with pytest.raises(ZeroDivisionError):
        a / DualScalar(Fraction(0), Fraction(1))


def test_partial_derivative_of_det_is_adjugate_entry():
    assert partial_derivative(dual_det, Matrix.identity(2), (1, 1)) == 1
    rng = Rng(18)
    for k in range(12):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, bound=3 if k % 3 == 0 else 8)
        adj = adjugate(m)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert partial_derivative(dual_det, m, (i, j)) == adj.rows[j - 1][i - 1]


def test_partial_derivative_of_coordinate():
    f = lambda dm: dm.entry(0, 1)
    assert partial_derivative(f, FIXED_5, (2, 1)) == 0
    assert partial_derivative(f, FIXED_5, (1, 2)) == 1


def test_dual_det_matches_cofactor_expansion_over_duals():
    rng = Rng(19)
    for _ in range(12):
        n = rng.randint(1, 4)
        value = random_matrix(rng, n, bound=4)
        direction = random_matrix(rng, n, bound=4)
        dm = DualMatrix(value, direction)
        cells = [
            [dm.entry(r, c) for c in range(n)]
            for r in range(n)
        ]
        oracle = det_cofactor(cells)
        got = dual_det(dm)
        assert (got.value, got.deriv) == (oracle.value, oracle.deriv)


def test_dual_adjugate_matches_cofactor_oracle_incl_singular():
    rng = Rng(20)
    singular_seen = 0
    for k in range(16):
        n = rng.randint(2, 4)
        value = random_matrix(rng, n, bound=2)
        if k % 4 == 0:
            value = Matrix([list(value.rows[0])] + [list(value.rows[0])] + [list(r) for r in value.rows[2:]])
        singular_seen += det(value) == 0
        direction = random_matrix(rng, n, bound=4)
        dm = DualMatrix(value, direction)
        got = dual_adjugate(dm)
        cells = [[dm.entry(r, c) for c in range(n)] for r in range(n)]
        oracle = adjugate_cofactor(cells)
        for r in range(n):
            for c in range(n):
                assert got.value.rows[r][c] == oracle[r][c].value
                assert got.deriv.rows[r][c] == oracle[r][c].deriv
    assert singular_seen > 0  # the fallback path was exercised


def test_dual_minor_derivative():
    dm = DualMatrix.seed(FIXED_5, 4, 1)  # d/dx_41
    got = dual_minor(dm, [4, 5], [1, 2])
    # det [[x41, x42], [x51, x52]] differentiates to x52
    assert got.deriv == FIXED_5.rows[4][1]


def test_matrix_json_roundtrip():
    m = Matrix([[Fraction(-3, 7), 2], [0, Fraction(5)]])
    payload = matrix_to_json(m)
    assert payload == [["-3/7", "2"], ["0", "5"]]
    assert matrix_from_json(payload) == m
    with pytest.raises(ValueError):
        matrix_from_json({"not": "a matrix"})


def test_matmul_dimension_error():
    with pytest.raises(DimensionError):
        Matrix.identity(2) @ Matrix.identity(3)
