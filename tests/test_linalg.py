import math
from fractions import Fraction

import pytest

from parinv.linalg import (
    P,
    DimensionError,
    _bareiss,
    Matrix,
    SingularMatrixError,
    adjugate,
    adjugate_rows,
    bordered_minors,
    det,
    det_rows,
    inverse,
    matmul_rows,
    matrix_from_json,
    matrix_to_json,
    rank,
    rank_mod_p,
)
from parinv.sampling import Rng, sample_group_point
from parinv.shapes import make_shape

from oracles import (
    _gauss_jordan_mod_p,
    adjugate_cofactor,
    bareiss_exact_reference,
    det_cofactor,
    fraction_mod_p,
    nullspace_basis,
    rank_cofactor,
)

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


def random_rationals(rng, nrows, ncols):
    return Matrix([
        [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(nrows)
    ])


def low_rank(rng, nrows, ncols, r):
    """A rational nrows x ncols matrix of rank at most r."""
    if r == 0:
        return Matrix.zeros(nrows, ncols)
    return random_rationals(rng, nrows, r) @ random_rationals(rng, r, ncols)


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
    # rational matrices of every rank against the cofactor oracle: the
    # adjugate has rank 1 at rank n - 1 and vanishes at rank n - 2 or less
    ranks_seen = set()
    for _ in range(40):
        n = rng.randint(1, 5)
        m = low_rank(rng, n, n, rng.randint(0, n))
        rows = [list(r) for r in m.rows]
        adj = adjugate(m)
        assert det(m) == det_cofactor(rows)
        assert [list(r) for r in adj.rows] == adjugate_cofactor(rows)
        deficit = n - rank_cofactor(m)
        ranks_seen.add(min(deficit, 2))
        if deficit == 1:
            assert rank_cofactor(adj) == 1
        elif deficit >= 2:
            assert adj == Matrix.zeros(n, n)
    assert ranks_seen == {0, 1, 2}
    assert adjugate(Matrix([[0]])) == Matrix([[1]])
    assert adjugate(Matrix([])) == Matrix([])


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
    for _ in range(30):  # rectangular rationals of every rank
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        r = rank(m)
        assert r == rank_cofactor(m)
        assert r == rank(m.transpose())


def test_rank_falls_back_when_residue_rank_is_short():
    m = Matrix([[P, 0], [0, 1]])
    assert rank_mod_p(m.num) == 1
    assert rank(m) == 2


def test_rank_without_residue_certificate():
    # a denominator divisible by P: the numerator rows [[1, P], [P, P]] have
    # residue rank 1, so no certificate, and the exact rank decides
    m = Matrix([[Fraction(1, P), 1], [1, 1]])
    assert m.den == P and rank_mod_p(m.num) == 1
    assert rank(m) == 2
    assert rank(Matrix([[Fraction(1, P), Fraction(2, P)], [1, 2]])) == 1
    # the rank of X / d is the rank of X, whatever d
    m = Matrix([[Fraction(1, 3 * P), Fraction(2, 5)], [Fraction(7, 2), P]])
    assert rank(m) == rank_cofactor(m) == 2


def _assert_residue_square_kernels(a):
    """det_rows and adjugate_rows mod P of square integer rows (left unchanged) equal
    the exact results reduced mod P and the plain mod-P Gauss-Jordan oracle."""
    exact_det, adj = det_rows([list(r) for r in a]), adjugate_rows(a)
    oracle_det, oracle_inv = _gauss_jordan_mod_p(a)
    assert det_rows([list(r) for r in a], P) == exact_det % P == oracle_det
    residue_adj = adjugate_rows(a, P)
    assert residue_adj == [[x % P for x in row] for row in adj]
    if oracle_inv is not None:  # regular mod P: the adjugate is det times the inverse
        assert residue_adj == [[oracle_det * x % P for x in row] for row in oracle_inv]


def _sparse_int(rng):
    return rng.randint(-3, 3) if rng.randint(0, 2) == 0 else 0


def test_residue_kernel_matches_reduced_exact_results():
    rng = Rng(21)
    singular_seen = 0
    for k in range(24):
        n = rng.randint(1, 5)
        m = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if k % 4 == 0 and n > 1:  # rank at most n - 1, or n - 2
            rows = [list(r) for r in m.num]
            rows[-1] = list(rows[0]) if k % 8 else [0] * n
            m = Matrix(rows)
        a = [list(r) for r in m.num]
        singular_seen += det(m) == 0
        _assert_residue_square_kernels(a)
        assert Matrix(adjugate_rows(a)) == adjugate(m)
        assert adjugate_rows([[x + P * rng.randint(-2, 2) for x in row] for row in a], P) == adjugate_rows(a, P)
        assert a == [list(r) for r in m.num]  # the input is left as it was
        assert rank_mod_p(a) == rank(m)
    assert singular_seen > 0
    # small rationals plus multiples of P: the residues are those of the small
    # matrix, whose minors are far below P, so they vanish mod P only when
    # they vanish over Q
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        small = low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        m = Matrix([[x + P * rng.randint(-1, 1) for x in row] for row in small.rows])
        a = [[fraction_mod_p(x) for x in row] for row in m.rows]
        assert a == [[fraction_mod_p(x) for x in row] for row in small.rows]
        assert rank(m) == rank_cofactor(m)
        assert rank_mod_p(a) == rank_cofactor(small)
        if nrows == ncols:
            rows, small_rows = [list(r) for r in m.rows], [list(r) for r in small.rows]
            assert det(m) == det_cofactor(rows)
            assert [list(r) for r in adjugate(m).rows] == adjugate_cofactor(rows)
            assert adjugate_rows(a, P) == [
                [fraction_mod_p(x) for x in row] for row in adjugate_cofactor(small_rows)
            ]
    assert adjugate_rows([[0]], P) == [[1]] and adjugate_rows([[0]]) == [[1]]
    assert adjugate_rows([], P) == [] and rank_mod_p([]) == 0
    # zeros in the pivot column below the pivot and, for the upward steps of
    # the adjugate, above it; row swaps at the first and at a later step; a
    # column without a pivot; an entry P, which is 0 mod P, atop a column
    for a in (
        [[2, 0, 1], [0, 3, 0], [4, 0, 5]],
        [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
        [[1, 2, 3], [2, 4, 7], [5, 1, 0]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        [[1, 2, 3], [2, 4, 6], [0, 0, 1]],
        [[P, 1], [1, 0]],
    ):
        _assert_residue_square_kernels(a)
        assert rank_mod_p(a) == rank(Matrix(a))
    for _ in range(40):  # mostly zero, so rows are skipped and swapped at every step
        n = rng.randint(2, 6)
        a = [[_sparse_int(rng) for _ in range(n)] for _ in range(n)]
        _assert_residue_square_kernels(a)
        assert rank_mod_p(a) == rank(Matrix(a))
    # regular over Q but singular mod P (a row of multiples of P, or det = P):
    # the residue adjugate is the signed cofactors of the residues
    for a in ([[P, 2 * P], [1, 3]], [[1, 2, 3], [4 * P, 5 * P, 7 * P], [2, 9, 4]], [[P + 1, 1], [1, 1]]):
        assert det_rows([list(r) for r in a]) % P == 0 != det_rows([list(r) for r in a])
        _assert_residue_square_kernels(a)
        assert rank_mod_p(a) < rank(Matrix(a)) == len(a)
    # wide and tall residue ranks with a planted rank deficiency, against the
    # exact rank and the rational nullspace
    for nrows, ncols in ((12, 20), (20, 12), (7, 15), (15, 7), (12, 12), (1, 20), (20, 1)):
        r = rng.randint(0, min(nrows, ncols) - 1)
        a = [[0] * ncols for _ in range(nrows)]
        if r:
            left = [[_sparse_int(rng) for _ in range(r)] for _ in range(nrows)]
            a = matmul_rows(left, [[_sparse_int(rng) for _ in range(ncols)] for _ in range(r)])
        m = Matrix(a)
        assert rank_mod_p(a) == rank(m) == ncols - len(nullspace_basis(m)) <= r


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 3, 5, 7 decide every n < 3215031751."""
    assert n < 3215031751
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_certificate_prime_is_one_digit():
    # every residue and pivot inverse fits one 30-bit CPython digit, and the
    # residue kernels need a field; P is the largest such prime
    assert P < 2**30 and _is_prime(P)
    assert not any(_is_prime(q) for q in range(P + 1, 2**30))
    assert [q for q in range(2, 60) if _is_prime(q)] == [q for q in range(2, 60) if all(q % d for d in range(2, q))]


def _assert_bareiss_matches_reference(a, ncols, upward):
    ours, theirs = [list(row) for row in a], [list(row) for row in a]
    log, ref_log = [], []
    assert _bareiss(ours, ncols, upward, log=log) == bareiss_exact_reference(theirs, ncols, upward, ref_log)
    assert (ours, log) == (theirs, ref_log)


def test_exact_bareiss_matches_the_untrimmed_loop():
    # rows with a zero in the pivot column are only rescaled (or left alone
    # when the pivot repeats), and nothing is divided by a previous pivot of 1:
    # pivots, sign, last pivot, final rows and log are those of the full update
    rng = Rng(23)
    inputs = []
    for k in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        entry = _sparse_int if k % 2 else (lambda r: r.randint(-9, 9))
        inputs.append([[entry(rng) for _ in range(ncols)] for _ in range(nrows)])
    for _ in range(10):
        n = rng.randint(2, 5)
        inputs.append([list(row) for row in low_rank(rng, n, n + 1, rng.randint(1, n - 1)).num])
    # zeros in the pivot column above and below the pivot, repeated pivots
    # (piv == prev), a pivot of 1 after others and before, row swaps
    inputs += [
        [[2, 0, 1], [0, 3, 0], [4, 0, 5]],
        [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
        [[1, 0, 0, 2], [0, 1, 0, 3], [0, 0, 1, 4]],
        [[3, 1, 0], [0, 3, 1], [0, 0, 3], [3, 0, 0]],
        [[2, 0, 0], [0, 0, 2], [0, 2, 0], [1, 1, 1]],
        [[1, 2, 3], [2, 4, 6], [0, 0, 1]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        [[5, 0, 7], [0, 0, 0], [0, 1, 0]],
    ]
    for a in inputs:
        for upward in (False, True):
            _assert_bareiss_matches_reference(a, len(a[0]), upward)
            # the adjugate's augmented form [a | E]
            if len(a) == len(a[0]):
                aug = [list(row) + [int(i == j) for j in range(len(a))] for i, row in enumerate(a)]
                _assert_bareiss_matches_reference(aug, len(a), upward)


def test_matmul_rows_matches_matrix_product():
    rng = Rng(22)
    for _ in range(20):
        k, m, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) * P ** rng.randint(0, 1) for _ in range(m)] for _ in range(k)]
        b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        product = matmul_rows(a, b)
        assert Matrix(product) == Matrix(a) @ Matrix(b)
        assert matmul_rows(a, b, P) == [[x % P for x in row] for row in product]


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
    # a string entry is an integer or p/q: Fraction's decimals, exponents,
    # spaces, separators and non-ASCII digits are refused
    assert Matrix([["+3", "-4/6", "007"]]).rows == ((3, Fraction(-2, 3), 7),)
    for text in ("1.5", "1e3", "1e999999999", " 3 ", "1_0", "3/", "/4", "1/-2", "", "\u0663", "3\n"):
        with pytest.raises(ValueError):
            Matrix([[text]])
    with pytest.raises(DimensionError):
        Matrix([[1, 2], [3]])


def test_anti_transpose():
    m = Matrix([[1, 2], [3, 4]])
    assert m.anti_transpose() == Matrix([[4, 2], [3, 1]])


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


def random_fractions(rng, nrows, ncols):
    """Rationals with varied denominators, zeros and integers among them."""
    return [
        [Fraction(rng.randint(-40, 40), rng.randint(1, 36)) for _ in range(ncols)] for _ in range(nrows)
    ]


def test_matrix_is_integer_rows_over_one_canonical_denominator():
    rng = Rng(61)
    for _ in range(40):
        rows = random_fractions(rng, rng.randint(1, 5), rng.randint(1, 5))
        m = Matrix(rows)
        assert m.rows == tuple(tuple(row) for row in rows)  # lowest terms, as given
        assert m.den > 0 and math.gcd(m.den, *(x for row in m.num for x in row)) == 1
        assert m.num == tuple(tuple(x * m.den for x in row) for row in m.rows)
        assert all(type(x) is int for row in m.num for x in row)
    assert Matrix([[0, 0]]).den == 1
    assert Matrix([["3/6", "-1/3"]]).num == ((3, -2),) and Matrix([["3/6", "-1/3"]]).den == 6


def test_equal_matrices_from_different_routes_compare_and_hash_equal():
    rng = Rng(62)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        a = Matrix(random_fractions(rng, nrows, ncols))
        routes = [
            (a * 2) * Fraction(1, 2),
            Fraction(1, 3) * (a * 3),
            a + Matrix.zeros(nrows, ncols),
            -(-a),
            a.transpose().transpose(),
            (a @ Matrix.identity(ncols)),
            Matrix(matrix_to_json(a)),
        ]
        for b in routes:
            assert b == a and hash(b) == hash(a)
            assert (b.num, b.den) == (a.num, a.den)
        zero = Matrix.zeros(nrows, ncols)
        assert a - a == zero and hash(a - a) == hash(zero) and (a - a).den == 1
        rows_idx = [r for r in range(nrows) if rng.randint(0, 1)] or [0]
        cols_idx = [c for c in range(ncols) if rng.randint(0, 1)] or [ncols - 1]
        direct = Matrix([[a.rows[r][c] for c in cols_idx] for r in rows_idx])
        sub = a.submatrix(rows_idx, cols_idx)
        assert sub == direct and hash(sub) == hash(direct)
        if nrows == ncols and det(a) != 0:
            assert inverse(a) @ a == Matrix.identity(nrows)
            assert hash(inverse(a) @ a) == hash(Matrix.identity(nrows))
    assert Matrix([[Fraction(1, 2)]]) != Matrix([[1]])
    assert Matrix([[1, 2]]) != Matrix([[1], [2]])


def test_inverse_and_adjugate_of_rows_over_different_denominators():
    # det, adj and the inverse read the numerator X of X/d, not per-row scales:
    # rows with different lowest-terms denominators, and an SL point whose
    # row 1 is over its determinant, against the cofactor oracle
    rng = Rng(63)
    sl_point = sample_group_point(make_shape("sl", 5, (1, 2, 2)), Rng(63, 1), 10)
    cases = [Matrix([[Fraction(1, 6), Fraction(1, 10)], [2, Fraction(3, 4)]]), sl_point]
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = random_fractions(rng, n, n)
        rows[0] = [x * Fraction(1, rng.randint(1, 50)) for x in rows[0]]
        cases.append(Matrix(rows))
        cases.append(low_rank(rng, n, n, rng.randint(0, n - 1)))
    assert det(sl_point) == 1 and sl_point.den > 1 and all(x.denominator == 1 for x in sl_point.rows[1])
    for m in cases:
        rows = [list(r) for r in m.rows]
        d = det_cofactor(rows)
        assert det(m) == d
        assert [list(r) for r in adjugate(m).rows] == adjugate_cofactor(rows)
        if d:
            assert [list(r) for r in inverse(m).rows] == [[x / d for x in r] for r in adjugate_cofactor(rows)]
        else:
            with pytest.raises(SingularMatrixError):
                inverse(m)
    assert adjugate(Matrix([])) == Matrix([]) and inverse(Matrix([])) == Matrix([]) and det(Matrix([])) == 1


def test_integer_rows_constructor_equals_the_checked_one():
    rng = Rng(64)
    for _ in range(20):
        rows = [[rng.randint(-99, 99) for _ in range(4)] for _ in range(rng.randint(1, 5))]
        m = Matrix.from_integer_rows(rows)
        assert m == Matrix(rows) and hash(m) == hash(Matrix(rows)) and m.den == 1
        assert rank(m) == rank(Matrix(rows))


def test_bordered_minors_match_cofactor_oracle():
    rng = Rng(65)
    for _ in range(40):
        ncols = rng.randint(1, 5)
        nrows = rng.randint(ncols, 6)
        a = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        log = bordered_minors([list(row) for row in a], ncols)
        for s, entries in enumerate(log):
            assert len(entries) == nrows - s
            for t, value in enumerate(entries):
                rows = a[:s] + [a[s + t]]
                assert value == det_cofactor([row[: s + 1] for row in rows])
        # the log runs to the last column, or ends at the first zero leading minor
        leading = [det_cofactor([row[: s + 1] for row in a[: s + 1]]) for s in range(ncols)]
        stop = next((s for s, v in enumerate(leading) if v == 0), ncols - 1)
        assert len(log) == stop + 1


def test_bordered_minors_stop_at_a_zero_leading_minor():
    # the leading 1-minor is 0: a second step would have needed a row swap
    assert bordered_minors([[0, 1], [1, 0]], 2) == [[0, 1]]
    assert bordered_minors([[2, 1], [4, 2], [1, 0]], 2) == [[2, 4, 1], [0, -1]]
