"""Exact dense linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` (always lowest terms, positive
denominator, no rounding ever).  Matrices are immutable.  Determinants go
through fraction-free Bareiss elimination with full pivot search on a
denominator-cleared integer copy; adjugates are built from signed
cofactors so singular input is handled uniformly.

First derivatives of polynomial matrix functions are exact via degree-1
dual numbers: ``det(X + eps*B) = det(X) + eps * trace(adj(X) @ B)``.

Ranks are certified modulo the fixed prime P = 2^61 - 1.  Reducing a
rational matrix mod P (possible when no denominator is divisible by P)
maps every minor to its residue, so rank mod P <= rank over Q.  A residue
rank is therefore accepted only when it meets a proven upper bound on the
rational rank: min(rows, cols), or, for the orthogonal/symplectic tangent
Jacobian, rows(J) + the exact rank of the central ratio rows.  In every
other case -- a smaller residue rank, a denominator or pivot that is not
invertible mod P -- the exact rational rank decides.  P is a constant,
not a random draw, so every report stays deterministic.  ``QQ`` and
``GF_P`` bundle the operations that field-generic code (the tangent
Jacobian build) needs over each field.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence


class DimensionError(ValueError):
    """Raised when matrix shapes or index lists do not fit an operation."""


class SingularMatrixError(ZeroDivisionError):
    """Raised when an inverse of a singular matrix is requested."""


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact scalar expected (int, Fraction or string), got {type(value).__name__}")


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(_to_fraction(x) for x in row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise DimensionError("all rows must have the same length")
        object.__setattr__(self, "rows", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", len(data[0]) if data else 0)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[Fraction(0)] * ncols for _ in range(nrows)])

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Matrix":
        """Matrix unit E_ij (1-based indices)."""
        return cls([[Fraction(int(r == i - 1 and c == j - 1)) for c in range(n)] for r in range(n)])

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a grid of blocks (row sizes must agree)."""
        rows = []
        for block_row in blocks:
            heights = {b.nrows for b in block_row}
            if len(heights) != 1:
                raise DimensionError("blocks in a row must have equal height")
            for r in range(heights.pop()):
                rows.append([x for b in block_row for x in b.rows[r]])
        return cls(rows)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, index: int):
        return self.rows[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.rows])

    def __mul__(self, scalar) -> "Matrix":
        s = _to_fraction(scalar)
        return Matrix([[a * s for a in row] for row in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        # only the nonzero entries of other are multiplied: Lie basis elements,
        # matrix units and unipotent factors are mostly zero
        cols = [[(k, b) for k, b in enumerate(col) if b] for col in zip(*other.rows)]
        zero = Fraction(0)
        return Matrix([[sum((row[k] * b for k, b in col), zero) for col in cols] for row in self.rows])

    def transpose(self) -> "Matrix":
        if not self.rows:
            return self
        return Matrix(list(zip(*self.rows)))

    def anti_transpose(self) -> "Matrix":
        """Transpose across the anti-diagonal: (i, j) -> (j', i')."""
        self._require_square()
        n = self.nrows
        return Matrix([[self.rows[n - 1 - c][n - 1 - r] for c in range(n)] for r in range(n)])

    def trace(self) -> Fraction:
        self._require_square()
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        """Submatrix by 0-based index lists, taken in the listed order."""
        return Matrix([[self.rows[r][c] for c in col_idx] for r in row_idx])

    def _require_square(self):
        if not self.is_square:
            raise DimensionError(f"square matrix required, got {self.nrows}x{self.ncols}")

    def _require_same_shape(self, other: "Matrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("matrix shapes differ")


def _integer_rows(m: Matrix) -> tuple[list[list[int]], Fraction]:
    """Clear denominators row by row; det(m) = bareiss_det / scale."""
    out = []
    scale = 1
    for row in m.rows:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        out.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return out, Fraction(scale)


def det(m: Matrix) -> Fraction:
    """Exact determinant (fraction-free Bareiss, full pivot search)."""
    m._require_square()
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a, scale = _integer_rows(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        pr = pc = -1
        best = 0
        for r in range(k, n):
            for c in range(k, n):
                v = a[r][c]
                if v != 0 and (best == 0 or abs(v) > abs(best)):
                    pr, pc, best = r, c, v
        if best == 0:
            return Fraction(0)
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        if pc != k:
            for row in a:
                row[k], row[pc] = row[pc], row[k]
            sign = -sign
        pivot = a[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (a[r][c] * pivot - a[r][k] * a[k][c]) // prev
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1]) / scale


def adjugate(m: Matrix) -> Matrix:
    """Adjugate X* with X @ X* = X* @ X = det(X) * E, singular input included."""
    m._require_square()
    n = m.nrows
    all_rows = range(n)
    adj = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows = [r for r in all_rows if r != i]
        for j in range(n):
            cols = [c for c in all_rows if c != j]
            cof = det(m.submatrix(rows, cols))
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return Matrix(adj)


def _check_index_lists(m: Matrix, row_list: Sequence[int], col_list: Sequence[int]):
    if len(row_list) != len(col_list):
        raise DimensionError(f"row/column lists differ in length: {len(row_list)} vs {len(col_list)}")
    for name, lst, bound in (("row", row_list, m.nrows), ("column", col_list, m.ncols)):
        if len(set(lst)) != len(lst):
            raise DimensionError(f"duplicate {name} indices in {list(lst)}")
        for i in lst:
            if not 1 <= i <= bound:
                raise DimensionError(f"{name} index {i} out of range 1..{bound}")


def minor(m: Matrix, row_list: Sequence[int], col_list: Sequence[int]) -> Fraction:
    """Determinant of the submatrix at 1-based rows/cols, in the listed order.

    The order is significant: permuting a list flips the sign accordingly.
    """
    _check_index_lists(m, row_list, col_list)
    return det(m.submatrix([i - 1 for i in row_list], [j - 1 for j in col_list]))


def _reduced_echelon(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    a = [list(row) for row in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = next((i for i in range(r, m.nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m.nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    """Exact rank over the rationals; a full residue rank mod P certifies it."""
    bound = min(m.nrows, m.ncols)
    try:
        if rank_mod_p(reduce_mod_p(m)) == bound:
            return bound
    except ZeroDivisionError:
        pass  # a denominator divisible by P: no certificate
    return len(_reduced_echelon(m)[1])


def nullspace_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of {v : m @ v = 0}; one vector per free column, exact."""
    rref, pivots = _reduced_echelon(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for row, p in enumerate(pivots):
            v[p] = -rref[row][f]
        basis.append(tuple(v))
    return basis


def inverse(m: Matrix) -> Matrix:
    """Exact inverse via Gauss-Jordan elimination."""
    m._require_square()
    n = m.nrows
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.rows)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        a[c], a[pivot_row] = a[pivot_row], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return Matrix([row[n:] for row in a])


def trace_product(a: Matrix, b: Matrix) -> Fraction:
    """trace(a @ b) without forming the product."""
    if a.ncols != b.nrows or a.nrows != b.ncols:
        raise DimensionError("trace(a @ b) needs compatible shapes")
    return sum(
        (a.rows[i][k] * b.rows[k][i] for i in range(a.nrows) for k in range(a.ncols)),
        Fraction(0),
    )


P = (1 << 61) - 1  # the Mersenne prime of every residue certificate

Residues = list[list[int]]  # a matrix mod P: rows of ints in [0, P)


def reduce_mod_p(m: Matrix) -> Residues:
    """Entries of m mod P; ZeroDivisionError if a denominator is divisible by P."""
    inverses: dict[int, int] = {}
    out = []
    for row in m.rows:
        out_row = []
        for x in row:
            den = x.denominator
            if den == 1:
                out_row.append(x.numerator % P)
                continue
            inv = inverses.get(den)
            if inv is None:
                if den % P == 0:
                    raise ZeroDivisionError("denominator divisible by P")
                inv = inverses[den] = pow(den, -1, P)
            out_row.append(x.numerator * inv % P)
        out.append(out_row)
    return out


def rank_mod_p(a: Residues) -> int:
    """Rank over GF(P) by forward elimination (a lower bound for the rank over Q)."""
    rows = [list(row) for row in a if any(row)]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        inv = pow(pivot[c], -1, P)
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                f = f * inv % P
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], pivot)]
        r += 1
        if r == len(rows):
            break
    return r


def _det_inverse_mod_p(a: Residues) -> tuple[int, Residues | None]:
    """(det a, a^-1) over GF(P) by Gauss-Jordan; the inverse is None when det is 0."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    d = 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return 0, None
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            d = -d
        d = d * m[c][c] % P
        inv = pow(m[c][c], -1, P)
        m[c] = [x * inv % P for x in m[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and f:
                m[i] = [(x - f * y) % P for x, y in zip(m[i], m[c])]
    return d % P, [row[n:] for row in m]


def det_mod_p(a: Residues) -> int:
    """Determinant over GF(P)."""
    return _det_inverse_mod_p(a)[0]


def inverse_mod_p(a: Residues) -> Residues:
    """Inverse over GF(P); SingularMatrixError if a is singular mod P."""
    inv = _det_inverse_mod_p(a)[1]
    if inv is None:
        raise SingularMatrixError("matrix is singular mod P")
    return inv


def adjugate_mod_p(a: Residues) -> Residues:
    """Adjugate over GF(P): det * inverse, or signed cofactors when singular mod P."""
    d, inv = _det_inverse_mod_p(a)
    if inv is not None:
        return [[d * x % P for x in row] for row in inv]
    n = len(a)
    return [
        [
            (-1) ** (r + c)
            * det_mod_p([row[:r] + row[r + 1:] for k, row in enumerate(a) if k != c])
            % P
            for c in range(n)
        ]
        for r in range(n)
    ]


def _matmul_mod_p(a: Residues, b: Residues) -> Residues:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) % P for col in cols] for row in a]


def _trace_product_mod_p(a: Residues, b: Residues) -> int:
    return sum(sum(map(operator.mul, row, col)) for row, col in zip(a, zip(*b))) % P


def _div_mod_p(x: int, y: int) -> int:
    if y % P == 0:
        raise ZeroDivisionError("division by a multiple of P")
    return x * pow(y, -1, P) % P


class Field(NamedTuple):
    """Matrix and scalar operations over one field, for field-generic code.

    Over ``QQ`` matrices are ``Matrix`` objects; over ``GF_P`` they are
    ``Residues``.  Over ``GF_P`` every division by a residue 0 raises
    ZeroDivisionError, which callers read as "no certificate".
    """

    reduce: Callable  # Matrix -> matrix of this field
    rows: Callable  # matrix -> its rows
    matrix: Callable  # rows -> matrix
    det: Callable
    inverse: Callable
    adjugate: Callable
    matmul: Callable
    trace_product: Callable
    scale: Callable  # (matrix, scalar) -> matrix
    sub: Callable  # (matrix, matrix) -> matrix
    div: Callable  # (scalar, scalar) -> scalar


# kernel names are looked up at call time, so rebinding them (to time
# them, say) reaches field-generic code too
QQ = Field(
    reduce=lambda m: m,
    rows=lambda a: a.rows,
    matrix=Matrix,
    det=lambda a: det(a),
    inverse=lambda a: inverse(a),
    adjugate=lambda a: adjugate(a),
    matmul=lambda a, b: a @ b,
    trace_product=lambda a, b: trace_product(a, b),
    scale=lambda a, s: a * s,
    sub=lambda a, b: a - b,
    div=lambda x, y: x / y,
)
GF_P = Field(
    reduce=lambda m: reduce_mod_p(m),
    rows=lambda a: a,
    matrix=lambda rows: rows,
    det=lambda a: det_mod_p(a),
    inverse=lambda a: inverse_mod_p(a),
    adjugate=lambda a: adjugate_mod_p(a),
    matmul=_matmul_mod_p,
    trace_product=_trace_product_mod_p,
    scale=lambda a, s: [[x * s % P for x in row] for row in a],
    sub=lambda a, b: [[(x - y) % P for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)],
    div=_div_mod_p,
)


@dataclass(frozen=True)
class DualScalar:
    """Degree-1 dual number a + b*eps with eps^2 = 0, exact components."""

    value: Fraction
    deriv: Fraction

    @classmethod
    def constant(cls, x) -> "DualScalar":
        return cls(_to_fraction(x), Fraction(0))

    def _coerce(self, other) -> "DualScalar":
        if isinstance(other, DualScalar):
            return other
        return DualScalar.constant(other)

    def __add__(self, other):
        o = self._coerce(other)
        return DualScalar(self.value + o.value, self.deriv + o.deriv)

    __radd__ = __add__

    def __neg__(self):
        return DualScalar(-self.value, -self.deriv)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return DualScalar(self.value * o.value, self.value * o.deriv + self.deriv * o.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0:
            raise ZeroDivisionError("dual division needs a nonzero value part")
        v = self.value / o.value
        return DualScalar(v, (self.deriv - v * o.deriv) / o.value)


@dataclass(frozen=True)
class DualMatrix:
    """Matrix over dual numbers, stored as value and derivative parts."""

    value: Matrix
    deriv: Matrix

    def __post_init__(self):
        self.value._require_same_shape(self.deriv)

    @classmethod
    def seed(cls, point: Matrix, i: int, j: int) -> "DualMatrix":
        """Seed coordinate (i, j) (1-based) with eps."""
        return cls(point, Matrix.unit(point.nrows, i, j))

    def entry(self, r: int, c: int) -> DualScalar:
        """0-based entry as a dual scalar."""
        return DualScalar(self.value.rows[r][c], self.deriv.rows[r][c])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "DualMatrix":
        return DualMatrix(self.value.submatrix(row_idx, col_idx), self.deriv.submatrix(row_idx, col_idx))


def dual_det(dm: DualMatrix) -> DualScalar:
    """det over dual numbers: value det plus the adjugate-trace derivative."""
    dm.value._require_square()
    return DualScalar(det(dm.value), trace_product(adjugate(dm.value), dm.deriv))


def dual_minor(dm: DualMatrix, row_list: Sequence[int], col_list: Sequence[int]) -> DualScalar:
    _check_index_lists(dm.value, row_list, col_list)
    return dual_det(dm.submatrix([i - 1 for i in row_list], [j - 1 for j in col_list]))


def dual_adjugate(dm: DualMatrix) -> DualMatrix:
    """Adjugate over dual numbers.

    At invertible value parts the closed form
    ``d adj = trace(adj(X) @ B) * X^-1 - adj(X) @ B @ X^-1`` applies; the
    singular case falls back to per-cofactor dual determinants.
    """
    x, b = dm.value, dm.deriv
    x._require_square()
    n = x.nrows
    adj_x = adjugate(x)
    d = det(x)
    if d != 0:
        x_inv = adj_x * (1 / d)
        deriv = x_inv * trace_product(adj_x, b) - (adj_x @ b) @ x_inv
        return DualMatrix(adj_x, deriv)
    all_rows = range(n)
    deriv_rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows = [r for r in all_rows if r != i]
        for j in range(n):
            cols = [c for c in all_rows if c != j]
            cof = dual_det(dm.submatrix(rows, cols)).deriv
            deriv_rows[j][i] = cof if (i + j) % 2 == 0 else -cof
    return DualMatrix(adj_x, Matrix(deriv_rows))


def partial_derivative(
    f: Callable[[DualMatrix], DualScalar], point: Matrix, coordinate: tuple[int, int]
) -> Fraction:
    """Exact d f / d x_ij at the point, by seeding coordinate (i, j) with eps."""
    i, j = coordinate
    return f(DualMatrix.seed(point, i, j)).deriv


def matrix_to_json(m: Matrix) -> list[list[str]]:
    """Array-of-arrays of strings, each an integer or "p/q" in lowest terms."""
    return [[str(x) for x in row] for row in m.rows]


def matrix_from_json(data) -> Matrix:
    """Parse the array-of-arrays-of-strings matrix format (bare ints tolerated)."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("matrix JSON must be an array of arrays")
    return Matrix(data)
