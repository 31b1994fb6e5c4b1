"""Checks of the test oracles that are not cofactor expansions themselves."""
from fractions import Fraction

from parinv.linalg import Matrix
from parinv.sampling import Rng

from oracles import nullspace_basis, rank_cofactor


def low_rank(rng, nrows, ncols, r):
    """A rational nrows x ncols matrix of rank at most r."""
    if r == 0:
        return Matrix.zeros(nrows, ncols)

    def rationals(rows, cols):
        return Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)])

    return rationals(nrows, r) @ rationals(r, ncols)


def test_nullspace_vectors_are_in_kernel():
    rng = Rng(16)
    for _ in range(15):
        m = Matrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)])
        basis = nullspace_basis(m)
        assert len(basis) == 5 - rank_cofactor(m)
        for v in basis:
            assert all(sum(row[k] * v[k] for k in range(5)) == 0 for row in m.rows)
    for _ in range(30):
        # rectangular rationals of every rank; column c is free when it does not
        # raise the rank of the columns before it.  v[free] = e_f and m @ v = 0
        # fix each reduced-echelon basis vector uniquely
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        prefix_ranks = [rank_cofactor(m.submatrix(range(nrows), range(c))) for c in range(ncols + 1)]
        free = [c for c in range(ncols) if prefix_ranks[c + 1] == prefix_ranks[c]]
        basis = nullspace_basis(m)
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            assert [v[c] for c in free] == [int(c == f) for c in free]
            assert m @ Matrix([[x] for x in v]) == Matrix.zeros(nrows, 1)
    assert len(nullspace_basis(Matrix.zeros(3, 4))) == 4
    assert nullspace_basis(Matrix.identity(4)) == []
    assert nullspace_basis(Matrix([[1, 2], [2, 4]])) == [(Fraction(-2), Fraction(1))]
