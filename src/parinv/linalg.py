"""Exact dense linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` (always lowest terms, positive
denominator, no rounding ever).  Matrices are immutable.  Every
determinant, adjugate, inverse, rank and nullspace, over Q and mod P, is
read off one fraction-free Bareiss Gauss-Jordan elimination
(``_bareiss``).  Over Q it runs on integer rows, each row cleared of
denominators by its own scale.  A regular matrix's adjugate and inverse
come from eliminating [X | E]; a singular matrix's adjugate falls back
to signed cofactors.

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


def _integer_rows(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row: row i of m is row i of the result / scales[i]."""
    rows = []
    scales = []
    for row in m.rows:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return rows, scales


def _bareiss(a: list[list[int]], ncols: int, upward: bool, p: int | None = None):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    The pivot of each of the first ``ncols`` columns is its first nonzero
    entry at or below the current row, swapped into place; a column
    without one is skipped.  Each step updates every row below the pivot
    row (with ``upward``, every row above it too).  Every entry stays a
    minor of the input (Bareiss 1968; Nakos-Turner-Williams 1997 for the
    upward steps and skipped columns), so the division by the previous
    pivot is exact, and with ``upward`` every pivot row ends up carrying
    the last pivot.  With a prime ``p`` the arithmetic is mod p and the
    division is a multiplication by the inverse.  Returns (pivot columns,
    sign of the row permutation, last pivot).
    """
    nrows = len(a)
    pivots: list[int] = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        k = next((i for i in range(r, nrows) if a[i][c]), None)
        if k is None:
            continue
        if k != r:
            a[r], a[k] = a[k], a[r]
            sign = -sign
        row = a[r]
        piv = row[c]
        if p is not None:
            inv = pow(prev, -1, p)
            g = piv * inv % p
        # every row is rescaled, a zero in the pivot column included: the
        # next exact division relies on it
        for i in range(0 if upward else r + 1, nrows):
            if i == r:
                continue
            x = a[i]
            f = x[c]
            lo = c if i > r else 0  # rows below are zero left of the pivot
            if p is None:
                x[lo:] = [(y * piv - f * z) // prev for y, z in zip(x[lo:], row[lo:])]
            else:
                h = f * inv % p
                x[lo:] = [(y * g - h * z) % p for y, z in zip(x[lo:], row[lo:])]
        pivots.append(c)
        prev = piv
    return pivots, sign, prev


def _det_rows(a: list[list[int]], p: int | None = None) -> int:
    """Determinant of square integer rows (consumed), mod p when given."""
    pivots, sign, last = _bareiss(a, len(a), False, p)
    if len(pivots) < len(a):
        return 0
    return sign * last if p is None else sign * last % p


def _inverse_rows(a: list[list[int]], p: int | None = None):
    """Eliminate [a | E] upward: (sign, last pivot d, d * a^-1), or None if a is singular.

    d = sign * det(a), so sign * d * a^-1 is the adjugate.
    """
    n = len(a)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots, sign, last = _bareiss(aug, n, True, p)
    if len(pivots) < n:
        return None
    return sign, last, [row[n:] for row in aug]


def _adjugate_rows(a: list[list[int]], p: int | None = None) -> list[list[int]]:
    """Adjugate of square integer rows, mod p when given; signed cofactors if singular."""
    solved = _inverse_rows(a, p)
    if solved is not None:
        sign, _, right = solved
        adj = [[sign * x for x in row] for row in right]
    else:
        n = len(a)
        adj = [
            [
                (-1) ** (r + c) * _det_rows([row[:r] + row[r + 1:] for k, row in enumerate(a) if k != c], p)
                for c in range(n)
            ]
            for r in range(n)
        ]
    return adj if p is None else [[x % p for x in row] for row in adj]


def det(m: Matrix) -> Fraction:
    """Exact determinant: sign * last Bareiss pivot / product of the row scales."""
    m._require_square()
    a, scales = _integer_rows(m)
    return Fraction(_det_rows(a), math.prod(scales))


def adjugate(m: Matrix) -> Matrix:
    """Adjugate X* with X @ X* = X* @ X = det(X) * E, singular input included."""
    m._require_square()
    a, scales = _integer_rows(m)
    adj = _adjugate_rows(a)
    # m = D^-1 a for D = diag(scales), so adj(m) = adj(a) D / det(D)
    total = math.prod(scales)
    return Matrix([[Fraction(x * s, total) for x, s in zip(row, scales)] for row in adj])


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


def rank(m: Matrix) -> int:
    """Exact rank over the rationals; a full residue rank mod P certifies it."""
    bound = min(m.nrows, m.ncols)
    try:
        if rank_mod_p(reduce_mod_p(m)) == bound:
            return bound
    except ZeroDivisionError:
        pass  # a denominator divisible by P: no certificate
    return len(_bareiss(_integer_rows(m)[0], m.ncols, False)[0])


def nullspace_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of {v : m @ v = 0}; one vector per free column, exact."""
    a = _integer_rows(m)[0]
    pivots, _, last = _bareiss(a, m.ncols, True)
    # every pivot row carries the last pivot: a[r][f] / last is the reduced echelon entry
    basis = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for row, p in enumerate(pivots):
            v[p] = Fraction(-a[row][f], last)
        basis.append(tuple(v))
    return basis


def inverse(m: Matrix) -> Matrix:
    """Exact inverse: m^-1 = (d * a^-1) D / d for m = D^-1 a, a an integer matrix."""
    m._require_square()
    a, scales = _integer_rows(m)
    solved = _inverse_rows(a)
    if solved is None:
        raise SingularMatrixError("matrix is singular")
    _, last, right = solved
    return Matrix([[Fraction(x * s, last) for x, s in zip(row, scales)] for row in right])


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


def _residue_rows(a: Residues) -> Residues:
    """A reduced copy of a, for the in-place elimination."""
    return [[x % P for x in row] for row in a]


def rank_mod_p(a: Residues) -> int:
    """Rank over GF(P) (a lower bound for the rank over Q)."""
    return len(_bareiss(_residue_rows(a), len(a[0]) if a else 0, False, P)[0])


def det_mod_p(a: Residues) -> int:
    """Determinant over GF(P)."""
    return _det_rows(_residue_rows(a), P)


def inverse_mod_p(a: Residues) -> Residues:
    """Inverse over GF(P); SingularMatrixError if a is singular mod P."""
    solved = _inverse_rows(_residue_rows(a), P)
    if solved is None:
        raise SingularMatrixError("matrix is singular mod P")
    _, last, right = solved
    inv = pow(last, -1, P)
    return [[x * inv % P for x in row] for row in right]


def adjugate_mod_p(a: Residues) -> Residues:
    """Adjugate over GF(P), singular input included."""
    return _adjugate_rows(_residue_rows(a), P)


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


def matrix_to_json(m: Matrix) -> list[list[str]]:
    """Array-of-arrays of strings, each an integer or "p/q" in lowest terms."""
    return [[str(x) for x in row] for row in m.rows]


def matrix_from_json(data) -> Matrix:
    """Parse the array-of-arrays-of-strings matrix format (bare ints tolerated)."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("matrix JSON must be an array of arrays")
    return Matrix(data)
