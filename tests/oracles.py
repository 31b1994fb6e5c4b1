"""Independent test oracles: first-row cofactor expansion only.

Deliberately naive and separate from the library's elimination-based
paths; works over any commutative ring.
"""
import math
from fractions import Fraction
from itertools import combinations

from parinv.generators_gl import MinorRecipe, RatioRecipe, StackedRecipe
from parinv.linalg import P, Matrix
from parinv.sampling import form_matrix


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
