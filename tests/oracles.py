"""Independent test oracles: first-row cofactor expansion only.

Deliberately naive and separate from the library's elimination-based
paths; works over any commutative ring.
"""
import math
from fractions import Fraction
from itertools import combinations

from parinv.generators_gl import MinorRecipe, RatioRecipe, StackedRecipe, stacked_matrix
from parinv.linalg import QQ, P, Matrix, nullspace_basis
from parinv.sampling import form_matrix, lie_algebra_basis
from parinv.shapes import GroupKind, make_shape


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(sub)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


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


def eval_descriptor_cofactor(gen, m: Matrix):
    """Evaluate a generator with cofactor expansion only."""
    recipe = gen.recipe
    if isinstance(recipe, MinorRecipe):
        return minor_cofactor(m, recipe.rows, recipe.cols)
    if isinstance(recipe, StackedRecipe):
        adj = adjugate_cofactor([list(r) for r in m.rows])
        rows = [[m.rows[r - 1][c - 1] for c in recipe.cols] for r in recipe.x_rows]
        rows += [[adj[r - 1][c - 1] for c in recipe.cols] for r in recipe.adj_rows]
        return det_cofactor(rows)
    if isinstance(recipe, RatioRecipe):
        num = minor_cofactor(m, recipe.numerator.rows, recipe.numerator.cols)
        den = minor_cofactor(m, recipe.denominator.rows, recipe.denominator.cols)
        return num / den
    raise TypeError(f"unknown recipe {recipe!r}")


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


def integer_rows_lcm(m: Matrix):
    """Rows cleared of denominators by the lcm of each row's lowest-terms denominators."""
    rows = []
    scales = []
    for row in m.rows:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return rows, scales


def form_equation_by_product(kind, m: Matrix) -> bool:
    """m^t f m == f for the group's form f, by two matrix products."""
    f = form_matrix(kind, m.nrows)
    return m.transpose() @ f @ m == f


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


def _submatrix(f, a, recipe):
    rows = a.rows if f is QQ else a
    return f.matrix([[rows[r - 1][c - 1] for c in recipe.cols] for r in recipe.rows])


def forward_jacobian(gens, point, directions, f=QQ):
    """Forward-mode directional derivatives, generators by directions, over the field f.

    One k x k submatrix and trace product per (generator, direction) pair,
    and d adj(X)[B] = tr(adj(X) B) X^-1 - adj(X) B X^-1 formed from two
    n x n products per direction.
    """
    if any(isinstance(g.recipe, StackedRecipe) for g in gens):
        x_inv = f.inverse(point)
        adj_x = f.scale(x_inv, f.det(point))
    prepared = []
    for g in gens:
        recipe = g.recipe
        if isinstance(recipe, MinorRecipe):
            prepared.append(f.adjugate(_submatrix(f, point, recipe)))
        elif isinstance(recipe, StackedRecipe):
            prepared.append(f.adjugate(stacked_matrix(recipe, point, adj_x, f)))
        else:
            num_sub = _submatrix(f, point, recipe.numerator)
            den_sub = _submatrix(f, point, recipe.denominator)
            den_val = f.det(den_sub)
            if den_val == 0:
                raise ZeroDivisionError("ratio generator undefined at this point")
            prepared.append((f.adjugate(num_sub), f.det(num_sub), f.adjugate(den_sub), den_val))
    rows = [[] for _ in gens]
    for b in directions:
        d_adj = None
        for g, prep, row in zip(gens, prepared, rows):
            recipe = g.recipe
            if isinstance(recipe, MinorRecipe):
                row.append(f.trace_product(prep, _submatrix(f, b, recipe)))
            elif isinstance(recipe, StackedRecipe):
                if d_adj is None:
                    d_adj = f.sub(
                        f.scale(x_inv, f.trace_product(adj_x, b)),
                        f.matmul(f.matmul(adj_x, b), x_inv),
                    )
                row.append(f.trace_product(prep, stacked_matrix(recipe, b, d_adj, f)))
            else:
                adj_num, num_val, adj_den, den_val = prep
                d_num = f.trace_product(adj_num, _submatrix(f, b, recipe.numerator))
                d_den = f.trace_product(adj_den, _submatrix(f, b, recipe.denominator))
                row.append(f.div(d_num * den_val - num_val * d_den, den_val * den_val))
    return f.matrix(rows)


def tangent_directions(shape, point, f):
    """The tangent directions of the shape's group at a point of f: the units
    E_ij (row-major) for GL, point @ A over the Lie basis otherwise."""
    n = shape.n
    if shape.kind is GroupKind.GL:
        return [f.reduce(Matrix.unit(n, i, j)) for i in range(1, n + 1) for j in range(1, n + 1)]
    return [f.matmul(point, f.reduce(a)) for a in lie_algebra_basis(shape, "group")]


def orbit_rows_dense(shape, point):
    """Flattened point @ A - A @ point over the radical basis, by dense products."""
    rows = [[v for row in (point @ a - a @ point).rows for v in row]
            for a in lie_algebra_basis(shape, "radical")]
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
