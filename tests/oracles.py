"""Independent test oracles: first-row cofactor expansion, polynomial
interpolation, forward-mode derivatives, dense commutators, a plain
Fraction Gauss-Jordan nullspace, per-mutant negative controls, and the
O/Sp radical and group slice as explicit block products.

Deliberately naive and separate from the library's elimination-based
paths; the cofactor expansions work over any commutative ring.
"""
import operator
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Callable, NamedTuple

from parinv.generators_gl import eval_generator, s0_monomial_positions, s0_monomial_sign
from parinv.linalg import P, Matrix, adjugate, adjugate_rows, det, inverse
from parinv import sampling
from parinv.sampling import (
    Rng,
    anti_identity,
    form_matrix,
    lie_algebra_basis,
    sample_group_point,
    sample_unipotent_radical,
)
from parinv.shapes import FlagShape, GroupKind, make_shape


def det_cofactor(rows):
    """First-row cofactor expansion; each minor on the last rows is expanded once
    per set of columns it keeps, so an n x n determinant costs about n 2^n terms."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    memo = {}

    def expand(cols):  # the minor on the last len(cols) rows and the columns cols
        r = n - len(cols)
        if len(cols) == 1:
            return rows[r][cols[0]]
        if cols not in memo:
            total = None
            for k, c in enumerate(cols):
                term = rows[r][c] * expand(cols[:k] + cols[k + 1:])
                if k % 2 == 1:
                    term = -term
                total = term if total is None else total + term
            memo[cols] = total
        return memo[cols]

    return expand(tuple(range(n)))


def adjugate_cofactor(rows):
    n = len(rows)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
            cof = det_cofactor(sub)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def minor_cofactor(m: Matrix, row_list, col_list):
    return det_cofactor([[m.rows[r - 1][c - 1] for c in col_list] for r in row_list])


def eval_descriptor_cofactor(gen, m: Matrix, adj=None):
    """Evaluate a generator with cofactor expansion only; adj, when given, is
    ``adjugate_cofactor`` of m's rows, computed once for several generators."""
    recipe = gen.recipe
    if not recipe.adj_rows:
        return minor_cofactor(m, recipe.x_rows, recipe.cols)
    if adj is None:
        adj = adjugate_cofactor([list(r) for r in m.rows])
    rows = [[m.rows[r - 1][c - 1] for c in recipe.cols] for r in recipe.x_rows]
    rows += [[adj[r - 1][c - 1] for c in recipe.cols] for r in recipe.adj_rows]
    return det_cofactor(rows)


def s0_chain_monomial(shape, gen, m: Matrix) -> Fraction:
    """The value an upper generator must take at a point m of the flattened
    slice S0: its sign times the entries of m at its chain positions."""
    chain = s0_monomial_positions(shape.n, gen.pair)
    return s0_monomial_sign(shape, gen) * prod(m.rows[r - 1][c - 1] for r, c in chain)


def rank_cofactor(m: Matrix) -> int:
    """Largest size of a nonvanishing square minor (enumeration; small only)."""
    for size in range(min(m.nrows, m.ncols), 0, -1):
        for rows in combinations(range(1, m.nrows + 1), size):
            for cols in combinations(range(1, m.ncols + 1), size):
                if minor_cofactor(m, rows, cols) != 0:
                    return size
    return 0


def derivative_at_zero(nodes, vals):
    """Exact derivative at 0 of the polynomial interpolating vals at nodes."""
    total = Fraction(0)
    for k, xk in enumerate(nodes):
        others = [x for i, x in enumerate(nodes) if i != k]
        denom = Fraction(1)
        for x in others:
            denom *= xk - x
        # d/dt prod (t - x_i) at t=0: sum over j of prod_{i != j} (0 - x_i)
        num = Fraction(0)
        for j in range(len(others)):
            term = Fraction(1)
            for i, x in enumerate(others):
                if i != j:
                    term *= -x
            num += term
        total += vals[k] * num / denom
    return total


def fraction_mod_p(x: Fraction) -> int:
    """The residue of a rational mod P (its denominator must be prime to P)."""
    return x.numerator * pow(x.denominator, -1, P) % P


def form_equation_by_product(kind, m: Matrix) -> bool:
    """m^t f m == f for the group's form f, by two matrix products."""
    f = form_matrix(kind, m.nrows)
    return m.transpose() @ f @ m == f


def nullspace_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of {v : m @ v = 0}, one vector per free column of the reduced row
    echelon form, by plain Gauss-Jordan elimination over Fractions."""
    rows = [list(r) for r in m.rows]
    pivots = []
    for c in range(m.ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def lie_basis_by_nullspace(shape, which):
    """O/Sp Lie basis as the exact nullspace of the n^2 entries of A^t F + F A
    over the allowed positions (row-major; strictly-upper blocks for the radical)."""
    n = shape.n
    positions = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if which == "group" or shape.block_of(i) < shape.block_of(j)
    ]
    f = form_matrix(shape.kind, n).num
    constraints = []
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            # (A^t F)_{rc} picks A_{i r} F_{i c}; (F A)_{rc} picks F_{r i} A_{i c}
            constraints.append([
                (f[i - 1][c - 1] if j == r else 0) + (f[r - 1][i - 1] if j == c else 0)
                for (i, j) in positions
            ])
    basis = []
    for vec in nullspace_basis(Matrix(constraints)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(positions, vec):
            rows[i - 1][j - 1] = v
        basis.append(Matrix(rows))
    return tuple(basis)


class Field(NamedTuple):
    """The operations the forward-mode oracle needs over one field.

    Over ``QQ`` matrices are ``Matrix`` objects; over ``GF_P`` they are
    lists of residue rows, and inverting a matrix singular mod P raises.
    """

    reduce: Callable  # Matrix -> matrix of this field
    det: Callable
    inverse: Callable
    adjugate: Callable
    matmul: Callable
    trace_product: Callable
    scale: Callable  # (matrix, scalar) -> matrix
    sub: Callable  # (matrix, matrix) -> matrix
    submatrix: Callable  # (matrix, 1-based rows, 1-based cols) -> matrix
    stacked: Callable  # (stacked recipe, top, bottom) -> matrix


def bareiss_exact_reference(a, ncols, upward, log=None):
    """The exact branch of ``linalg._bareiss`` as it stood before its row
    updates were trimmed: every row other than the pivot row, a zero in the
    pivot column included, takes (y * piv - f * z) // prev.  Same arguments
    and return value; rows are eliminated in place."""
    nrows = len(a)
    pivots = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if log is not None:
            log.append([a[i][c] for i in range(r, nrows)])
        k = next((i for i in range(r, nrows) if a[i][c]), None)
        if k is None:
            continue
        if k != r:
            a[r], a[k] = a[k], a[r]
            sign = -sign
        row = a[r]
        piv = row[c]
        for i in range(0 if upward else r + 1, nrows):
            if i == r:
                continue
            x = a[i]
            f = x[c]
            lo = c if i > r else 0
            x[lo:] = [(y * piv - f * z) // prev for y, z in zip(x[lo:], row[lo:])]
        prev = piv
        pivots.append(c)
    return pivots, sign, prev


def _gauss_jordan_mod_p(a):
    """(det, inverse or None) of square residue rows, by Gauss-Jordan elimination mod P."""
    n = len(a)
    aug = [[x % P for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    d = 1
    for c in range(n):
        k = next((i for i in range(c, n) if aug[i][c]), None)
        if k is None:
            return 0, None
        if k != c:
            aug[c], aug[k] = aug[k], aug[c]
            d = -d
        d = d * aug[c][c] % P
        inv = pow(aug[c][c], -1, P)
        aug[c] = [v * inv % P for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(u - f * w) % P for u, w in zip(aug[i], aug[c])]
    return d % P, [row[n:] for row in aug]


def _inverse_mod_p(a):
    inv = _gauss_jordan_mod_p(a)[1]
    if inv is None:
        raise ZeroDivisionError("singular mod P")
    return inv


def _rows_at(a, rows, cols):
    return [[a[r - 1][c - 1] for c in cols] for r in rows]


def _trace_product(a: Matrix, b: Matrix) -> Fraction:
    """trace(a @ b) without forming the product."""
    total = sum(sum(map(operator.mul, row, col)) for row, col in zip(a.num, zip(*b.num)))
    return Fraction(total, a.den * b.den)


def _stacked_matrix(recipe, top: Matrix, bottom: Matrix) -> Matrix:
    """The stacked recipe's rows of top, then of bottom, on its columns."""
    cols0 = [c - 1 for c in recipe.cols]
    return Matrix.from_blocks([
        [top.submatrix([r - 1 for r in recipe.x_rows], cols0)],
        [bottom.submatrix([r - 1 for r in recipe.adj_rows], cols0)],
    ])


def _reduce_mod_p(m: Matrix):
    """The entries of a rational matrix mod P, as residue rows."""
    return [[fraction_mod_p(x) for x in row] for row in m.rows]


QQ = Field(
    reduce=lambda m: m,
    det=det,
    inverse=inverse,
    adjugate=adjugate,
    matmul=operator.matmul,
    trace_product=_trace_product,
    scale=operator.mul,
    sub=operator.sub,
    submatrix=lambda a, rows, cols: a.submatrix([r - 1 for r in rows], [c - 1 for c in cols]),
    stacked=_stacked_matrix,
)
GF_P = Field(
    reduce=_reduce_mod_p,
    det=lambda a: _gauss_jordan_mod_p(a)[0],
    inverse=_inverse_mod_p,
    adjugate=lambda a: adjugate_rows(a, P),
    matmul=lambda a, b: [[sum(map(operator.mul, row, col)) % P for col in zip(*b)] for row in a],
    trace_product=lambda a, b: sum(sum(map(operator.mul, row, col)) for row, col in zip(a, zip(*b))) % P,
    scale=lambda a, s: [[x * s % P for x in row] for row in a],
    sub=lambda a, b: [[(x - y) % P for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)],
    submatrix=_rows_at,
    stacked=lambda recipe, top, bottom: (
        _rows_at(top, recipe.x_rows, recipe.cols) + _rows_at(bottom, recipe.adj_rows, recipe.cols)
    ),
)


def forward_jacobian(gens, point, directions, f=QQ):
    """Forward-mode directional derivatives, generators by directions, over the field f,
    as a list of rows.

    One k x k submatrix and trace product per (generator, direction) pair,
    and d adj(X)[B] = tr(adj(X) B) X^-1 - adj(X) B X^-1 formed from two
    n x n products per direction.
    """
    if any(g.recipe.adj_rows for g in gens):
        x_inv = f.inverse(point)
        adj_x = f.scale(x_inv, f.det(point))
    prepared = []
    for g in gens:
        recipe = g.recipe
        if not recipe.adj_rows:
            prepared.append(f.adjugate(f.submatrix(point, recipe.x_rows, recipe.cols)))
        else:
            prepared.append(f.adjugate(f.stacked(recipe, point, adj_x)))
    rows = [[] for _ in gens]
    for b in directions:
        d_adj = None
        for g, prep, row in zip(gens, prepared, rows):
            recipe = g.recipe
            if not recipe.adj_rows:
                row.append(f.trace_product(prep, f.submatrix(b, recipe.x_rows, recipe.cols)))
            else:
                if d_adj is None:
                    d_adj = f.sub(
                        f.scale(x_inv, f.trace_product(adj_x, b)),
                        f.matmul(f.matmul(adj_x, b), x_inv),
                    )
                row.append(f.trace_product(prep, f.stacked(recipe, b, d_adj)))
    return rows


def trace_pairing(h, b) -> int:
    """tr(h @ b) of two square lists of rows: the derivative of a function
    with transposed gradient h in the direction b."""
    return sum(h[r][c] * b[c][r] for r in range(len(h)) for c in range(len(h)))


def dense_lie_basis(shape, which):
    """``lie_algebra_basis`` as Matrices, each the sum of its (i, j, value) entries."""
    basis = []
    for entries in lie_algebra_basis(shape, which):
        rows = [[0] * shape.n for _ in range(shape.n)]
        for i, j, v in entries:
            rows[i][j] += v
        basis.append(Matrix(rows))
    return tuple(basis)


def tangent_directions(shape, point, f):
    """The tangent directions of the shape's group at a point of f: the units
    E_ij (row-major) for GL, point @ A over the Lie basis otherwise."""
    n = shape.n
    if shape.kind is GroupKind.GL:
        units = ([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)] for i in range(n) for j in range(n))
        return [f.reduce(Matrix(rows)) for rows in units]
    return [f.matmul(point, f.reduce(a)) for a in dense_lie_basis(shape, "group")]


def orbit_rows_dense(shape, point):
    """Flattened point @ A - A @ point over the radical basis, by dense products."""
    rows = [[v for row in (point @ a - a @ point).rows for v in row]
            for a in dense_lie_basis(shape, "radical")]
    return Matrix(rows)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def valid_shapes(max_n, kinds=("gl", "sl", "o", "sp")):
    """Every valid shape of the given kinds with n <= max_n: orthogonal and
    symplectic compositions are palindromic, symplectic n is even."""
    return [
        make_shape(kind, n, parts)
        for kind in kinds
        for n in range(1, max_n + 1)
        if kind != "sp" or n % 2 == 0
        for parts in _compositions(n)
        if kind in ("gl", "sl") or parts == parts[::-1]
    ]


def negative_controls_per_mutant(shape, mutants, seed, trials, bound, stream):
    """The negative-controls details by one loop per mutant: each mutant's
    generator values at x and at g^-1 x g over trials 0, 1, ... until they
    differ, with x and then g drawn from Rng(seed, stream(t)) for trial t."""
    pairs = []

    def pair(t):
        while len(pairs) <= t:
            rng = Rng(seed, stream(len(pairs)))
            x = sample_group_point(shape, rng, bound)
            g = sample_unipotent_radical(shape, rng, bound)
            y = inverse(g) @ x @ g
            pairs.append((x, adjugate(x), y, adjugate(y)))
        return pairs[t]

    outcomes = []
    for label, gen in mutants:
        fails = any(
            eval_generator(gen, x, adj_x) != eval_generator(gen, y, adj_y)
            for x, adj_x, y, adj_y in map(pair, range(trials))
        )
        outcomes.append({"mutation": label, "fails_invariance": fails})
    broken = sum(o["fails_invariance"] for o in outcomes)
    return {"mutants": len(mutants), "broken": broken, "outcomes": outcomes}


def radical_by_product(shape, rng, bound):
    """An O/Sp radical element as the product diag(a, E, a^sigma^-1) shear(v, w) corner(b),
    w = -J_0 v^t I_0, with a, b and v drawn as ``sample_unipotent_radical`` draws them."""
    if shape.ell == 1:
        return Matrix.identity(shape.n)
    n0, big_n0 = shape.n0, shape.N0
    a = sampling._gl_unipotent(FlagShape(GroupKind.GL, big_n0, shape.parts[: shape.ell0]), rng, bound)
    b = sampling._constrained_block(big_n0, shape.kind, rng, bound)
    a_sigma_inv = inverse(a.anti_transpose())
    e0, z_nn = Matrix.identity(big_n0), Matrix.zeros(big_n0, big_n0)
    if shape.ell % 2 == 0:
        diag = Matrix.from_blocks([[a, z_nn], [z_nn, a_sigma_inv]])
        return diag @ Matrix.from_blocks([[e0, b], [z_nn, e0]])
    v = sampling._random_matrix(rng, big_n0, n0, bound)
    w = -(form_matrix(shape.kind, n0) @ v.transpose() @ anti_identity(big_n0))
    e_mid, z_nm, z_mn = Matrix.identity(n0), Matrix.zeros(big_n0, n0), Matrix.zeros(n0, big_n0)
    diag = Matrix.from_blocks([[a, z_nm, z_nn], [z_mn, e_mid, z_mn], [z_nn, z_nm, a_sigma_inv]])
    shear = Matrix.from_blocks([[e0, v, (v @ w) * Fraction(1, 2)], [z_mn, e_mid, w], [z_nn, z_nm, e0]])
    corner = Matrix.from_blocks([[e0, z_nm, b], [z_mn, e_mid, z_mn], [z_nn, z_nm, e0]])
    return diag @ shear @ corner


def group_slice_by_blocks(shape, rng, bound, sign):
    """The O/Sp group slice written out block by block, its top-right block
    sign I_0 a^sigma^-1, with a, b, a0 and v drawn in that order."""
    n0, big_n0 = shape.n0, shape.N0
    if shape.ell == 1:
        return form_matrix(shape.kind, n0) @ sample_group_point(shape, rng, bound)
    i0 = anti_identity(big_n0)
    a = sampling._random_block_upper(FlagShape(GroupKind.GL, big_n0, shape.parts[: shape.ell0]), rng, bound)
    b = sampling._constrained_block(big_n0, shape.kind, rng, bound)
    top_right = (i0 @ inverse(a.anti_transpose())) * sign
    bottom_left = i0 @ a
    if shape.ell % 2 == 0:
        zero = Matrix.zeros(big_n0, big_n0)
        return Matrix.from_blocks([[zero, top_right], [bottom_left, bottom_left @ b]])
    a0 = sample_group_point(make_shape(shape.kind.value, n0, (n0,)), rng, bound)
    v = sampling._random_matrix(rng, big_n0, n0, bound)
    j0 = form_matrix(shape.kind, n0)
    w = -(j0 @ v.transpose() @ i0)
    mid = j0 @ a0
    z_nm, z_mn = Matrix.zeros(big_n0, n0), Matrix.zeros(n0, big_n0)
    return Matrix.from_blocks(
        [
            [Matrix.zeros(big_n0, big_n0), z_nm, top_right],
            [z_mn, mid, mid @ w],
            [bottom_left, bottom_left @ v, bottom_left @ (b + (v @ w) * Fraction(1, 2))],
        ]
    )
