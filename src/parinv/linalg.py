"""Exact dense linear algebra over arbitrary-precision rationals.

A ``Matrix`` holds integer numerator rows ``num`` over one positive
denominator ``den``, with gcd(den, every entry) = 1, so (num, den) is
canonical and equality and hashing compare integers.  Arithmetic
(``+``, ``-``, scalar ``*``, ``@``, transposes, submatrices, blocks)
runs on the integers; the ``fractions.Fraction`` entries (``rows``) are
built on first access and cached, for JSON and for callers that read
entries.  Determinants are returned as Fractions.  This
is the common-denominator form of rational matrices (FLINT's
``fmpq_mat`` to ``fmpz_mat``).

Every determinant, adjugate, inverse and rank is read off one
Gauss-Jordan elimination loop (``_bareiss``) of integer rows with one
optional prime modulus.  With ``p=None`` it is exact fraction-free
Bareiss.  With ``p=P`` it works on residues as normalised Gauss-Jordan:
each pivot row is scaled to a leading 1, rows with a zero in the pivot
column are skipped, and the "last pivot" is the product of the pivots,
so the residue adjugate is det times the inverse.  Over Q the kernels
read the canonical numerator rows and scale by powers of the one
denominator: det(X / d) = det X / d^n and adj(X / d) = adj X / d^(n-1).
A regular matrix's adjugate and inverse come from eliminating [X | E];
a singular one's adjugate falls back to signed cofactors.  ``det_rows``,
``adjugate_rows`` and ``matmul_rows`` are the integer-row kernels, with
the same optional modulus: generator values are determinants of integer
numerator rows, and the tangent Jacobians are built on the same rows.
``bordered_minors`` logs the pivot-column entries of the exact
elimination before any row swap, which are minors of the input
(Sylvester's identity), so one elimination gives a whole nested chain
of generator values.

A rank does not change when the matrix or a row is multiplied by a
nonzero number, so ``rank`` works on the numerator rows alone.  Ranks
are certified modulo the fixed prime P = 2^30 - 35 = 1073741789, the
largest prime below 2^30, so every residue fits one 30-bit CPython digit
and each residue update multiplies two such digits.  Every minor of the
integer rows reduces to the residue of that minor, so rank mod P <= rank
over Q, and a residue rank is accepted only when it meets a proven upper
bound on the rational rank: min(rows, cols), or, for the
orthogonal/symplectic tangent Jacobian, rows(J) + the exact rank of the
central ratio rows.  In every other case the exact rational rank, on
the numerator rows each divided by its content, decides.  P is a
constant, not a random draw, so every report stays deterministic.
"""
from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Sequence


class DimensionError(ValueError):
    """Raised when matrix shapes or index lists do not fit an operation."""


class SingularMatrixError(ZeroDivisionError):
    """Raised when an inverse of a singular matrix is requested."""


_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # an integer or p/q; Fraction would also read "1e9", " 3 ", "1_0"


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # an int subclass, so a JSON true would read as 1
        raise TypeError("exact scalar expected (int, Fraction or string), got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _SCALAR.fullmatch(value):
            raise ValueError(f"exact scalar string must be an integer or p/q, got {value[:40]!r}")
        return Fraction(value)
    raise TypeError(f"exact scalar expected (int, Fraction or string), got {type(value).__name__}")


_set = object.__setattr__


def _fill(m: "Matrix", num: Sequence[Sequence[int]], den: int) -> "Matrix":
    _set(m, "num", tuple(map(tuple, num)))
    _set(m, "den", den)
    _set(m, "nrows", len(num))
    _set(m, "ncols", len(num[0]) if num else 0)
    _set(m, "_rows", None)
    return m


def _make(num: Sequence[Sequence[int]], den: int) -> "Matrix":
    """The Matrix num / den (den > 0), reduced to its canonical form."""
    if den != 1:
        g = math.gcd(den, *(x for row in num for x in row))
        if g != 1:
            num = [[x // g for x in row] for row in num]
            den //= g
    return _fill(object.__new__(Matrix), num, den)


class Matrix:
    """Immutable dense rational matrix: integer rows ``num`` over one denominator ``den``."""

    __slots__ = ("num", "den", "nrows", "ncols", "_rows")

    def __init__(self, rows: Sequence[Sequence]):
        data = [[x if type(x) is int else _to_fraction(x) for x in row] for row in rows]
        if data and any(len(row) != len(data[0]) for row in data):
            raise DimensionError("all rows must have the same length")
        # entries in lowest terms over the lcm of their denominators: the gcd is already 1
        den = math.lcm(*(x.denominator for row in data for x in row))
        _fill(self, [[x.numerator * (den // x.denominator) for x in row] for row in data], den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions in lowest terms (built once, then cached)."""
        if self._rows is None:
            den = self.den
            _set(self, "_rows", tuple(tuple(Fraction(x, den) for x in row) for row in self.num))
        return self._rows

    @classmethod
    def from_integer_rows(cls, rows: Sequence[Sequence[int]]) -> "Matrix":
        """The matrix of equally long rows of ints, taken as they are (no entry is re-checked)."""
        return _make(rows, 1)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return _make([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return _make([[0] * ncols for _ in range(nrows)], 1)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a grid of blocks (row sizes must agree)."""
        den = math.lcm(*(b.den for block_row in blocks for b in block_row))
        num = []
        for block_row in blocks:
            heights = {b.nrows for b in block_row}
            if len(heights) != 1:
                raise DimensionError("blocks in a row must have equal height")
            scaled = [(b.num, den // b.den) for b in block_row]
            for r in range(heights.pop()):
                num.append([x * s for rows, s in scaled for x in rows[r]])
        if num and any(len(row) != len(num[0]) for row in num):
            raise DimensionError("all rows must have the same length")
        return _make(num, den)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, index: int):
        return self.rows[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return False
        return (self.ncols, self.den, self.num) == (other.ncols, other.den, other.num)

    def __hash__(self) -> int:
        return hash((self.ncols, self.den, self.num))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def _common(self, other: "Matrix"):
        """Both numerators over lcm(den, other.den), and that denominator."""
        self._require_same_shape(other)
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        a = self.num if s == 1 else [[x * s for x in row] for row in self.num]
        b = other.num if t == 1 else [[x * t for x in row] for row in other.num]
        return a, b, den

    def __add__(self, other: "Matrix") -> "Matrix":
        a, b, den = self._common(other)
        return _make([list(map(operator.add, r1, r2)) for r1, r2 in zip(a, b)], den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        a, b, den = self._common(other)
        return _make([list(map(operator.sub, r1, r2)) for r1, r2 in zip(a, b)], den)

    def __neg__(self) -> "Matrix":
        return _make([[-x for x in row] for row in self.num], self.den)

    def __mul__(self, scalar) -> "Matrix":
        s = _to_fraction(scalar)
        p = s.numerator
        return _make([[x * p for x in row] for row in self.num], self.den * s.denominator)

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        # only the nonzero entries of other are multiplied: Lie basis elements,
        # matrix units and unipotent factors are mostly zero
        cols = [[(k, b) for k, b in enumerate(col) if b] for col in zip(*other.num)]
        return _make(
            [[sum([row[k] * b for k, b in col]) for col in cols] for row in self.num],
            self.den * other.den,
        )

    def transpose(self) -> "Matrix":
        if not self.nrows:
            return self
        return _make(list(zip(*self.num)), self.den)

    def anti_transpose(self) -> "Matrix":
        """Transpose across the anti-diagonal: (i, j) -> (j', i')."""
        self._require_square()
        n, num = self.nrows, self.num
        return _make([[num[n - 1 - c][n - 1 - r] for c in range(n)] for r in range(n)], self.den)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        """Submatrix by 0-based index lists, taken in the listed order."""
        num = self.num
        return _make([[num[r][c] for c in col_idx] for r in row_idx], self.den)

    def _require_square(self):
        if not self.is_square:
            raise DimensionError(f"square matrix required, got {self.nrows}x{self.ncols}")

    def _require_same_shape(self, other: "Matrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("matrix shapes differ")


def _bareiss(a: list[list[int]], ncols: int, upward: bool, p: int | None = None,
             log: list[list[int]] | None = None):
    """Gauss-Jordan elimination of integer rows, in place.

    The pivot of each of the first ``ncols`` columns is its first nonzero
    entry at or below the current row, swapped into place; a column
    without one is skipped.  Each step updates every row below the pivot
    row (with ``upward``, every row above it too).  Exact (``p=None``),
    it is fraction-free Bareiss: every row is rescaled, and every entry
    stays a minor of the input (Bareiss 1968; Nakos-Turner-Williams 1997
    for the upward steps and skipped columns), so the division by the
    previous pivot is exact, and with ``upward`` every pivot row ends up
    carrying the last pivot.  With a prime ``p`` (residue rows) it is
    normalised Gauss-Jordan mod p: the pivot row is scaled to a leading 1,
    a row with a zero in the pivot column is skipped, and the other rows
    take one multiplication per entry; the "last pivot" is then the
    product of the pivots.  Either way the last pivot of a full-rank
    square input is the determinant of the row-permuted input.  With a
    list ``log`` (exact only), each step appends the pivot-column entries
    of the current row and the rows below it, taken before any swap.
    Returns (pivot columns, sign of the row permutation, last pivot).
    """
    nrows = len(a)
    pivots: list[int] = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if log is not None:
            log.append([a[i][c] for i in range(r, nrows)])
        for k in range(r, nrows):
            if a[k][c]:
                break
        else:
            continue
        if k != r:
            a[r], a[k] = a[k], a[r]
            sign = -sign
        row = a[r]
        piv = row[c]
        if p is None:
            # every row is rescaled, a zero in the pivot column included: the
            # next exact division relies on it; such a row is only rescaled
            # (not at all when piv == prev), and nothing is divided by prev == 1
            for i in range(0 if upward else r + 1, nrows):
                if i == r:
                    continue
                x = a[i]
                f = x[c]
                lo = c if i > r else 0  # rows below are zero left of the pivot
                if not f:
                    if piv != prev:
                        x[lo:] = [y * piv // prev for y in x[lo:]]
                elif prev == 1:
                    x[lo:] = [y * piv - f * z for y, z in zip(x[lo:], row[lo:])]
                else:
                    x[lo:] = [(y * piv - f * z) // prev for y, z in zip(x[lo:], row[lo:])]
            prev = piv
        else:
            # the pivot row, zero left of c, is scaled to a leading 1; a row
            # with a zero in the pivot column is left as it is
            inv = pow(piv, -1, p)
            row[c:] = tail = [z * inv % p for z in row[c:]]
            for i in range(0 if upward else r + 1, nrows):
                x = a[i]
                f = x[c]
                if f and i != r:
                    x[c:] = [(y - f * z) % p for y, z in zip(x[c:], tail)]
            prev = prev * piv % p
        pivots.append(c)
    return pivots, sign, prev


def det_rows(a: list[list[int]], p: int | None = None) -> int:
    """Determinant of square integer rows (consumed), mod p when given."""
    if p is not None:
        a = [[x % p for x in row] for row in a]
    pivots, sign, last = _bareiss(a, len(a), False, p)
    if len(pivots) < len(a):
        return 0
    return sign * last if p is None else sign * last % p


def bordered_minors(a: list[list[int]], ncols: int) -> list[list[int]]:
    """Bordered leading minors of integer rows (consumed), from one elimination.

    Entry [s][t] is the determinant of rows 0..s-1 and row s + t against
    columns 0..s: at t = 0 the leading (s+1)-minor, else that minor with
    its last row replaced by a later one.  These are the pivot-column
    entries of a Bareiss elimination that has not swapped rows yet
    (Sylvester's identity), so the list ends with the first step whose
    leading minor is 0; a later step would need a swap.
    """
    log: list[list[int]] = []
    _bareiss(a, ncols, False, log=log)
    for s, entries in enumerate(log):
        if entries[0] == 0:
            return log[:s + 1]
    return log


def _inverse_rows(a: Sequence[Sequence[int]], p: int | None = None):
    """Eliminate [a | E] upward: (sign, last pivot d, d * a^-1), or None if a is singular.

    d = sign * det(a), so sign * d * a^-1 is the adjugate.
    """
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots, sign, last = _bareiss(aug, n, True, p)
    if len(pivots) < n:
        return None
    if p is not None:  # the right half is a^-1 itself
        return sign, last, [[x * last % p for x in row[n:]] for row in aug]
    return sign, last, [row[n:] for row in aug]


def adjugate_rows(a: Sequence[Sequence[int]], p: int | None = None) -> list[list[int]]:
    """Adjugate of square integer rows (left unchanged), mod the prime p when given;
    signed cofactors if singular."""
    if p is not None:
        a = [[x % p for x in row] for row in a]
    solved = _inverse_rows(a, p)
    if solved is not None:
        sign, _, right = solved
        adj = [[sign * x for x in row] for row in right]
    else:
        n = len(a)
        adj = [
            [
                (-1) ** (r + c) * det_rows([[*row[:r], *row[r + 1:]] for k, row in enumerate(a) if k != c], p)
                for c in range(n)
            ]
            for r in range(n)
        ]
    return adj if p is None else [[x % p for x in row] for row in adj]


def matmul_rows(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int | None = None) -> list[list[int]]:
    """Product of integer rows a @ b, mod the prime p when given."""
    cols = list(zip(*b))
    if p is None:
        return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
    return [[sum(map(operator.mul, row, col)) % p for col in cols] for row in a]


def det(m: Matrix) -> Fraction:
    """Exact determinant: det(X / d) = det X / d^n."""
    m._require_square()
    return Fraction(det_rows(list(map(list, m.num))), m.den ** m.nrows)


def adjugate(m: Matrix) -> Matrix:
    """Adjugate X* with X @ X* = X* @ X = det(X) * E, singular input included.

    adj(X / d) = adj X / d^(n-1); the 0 x 0 adjugate is itself.
    """
    m._require_square()
    if not m.nrows:
        return m
    return _make(adjugate_rows(m.num), m.den ** (m.nrows - 1))


def rank(m: Matrix) -> int:
    """Exact rank over the rationals; a full residue rank mod P certifies it.

    The rank of m is that of its numerator rows, whatever the denominator,
    and it does not change when a row is divided by its content gcd(row),
    which keeps the exact elimination on the smallest integers.
    """
    bound = min(m.nrows, m.ncols)
    if rank_mod_p(m.num) == bound:
        return bound
    a = [[x // g for x in row] if (g := math.gcd(*row)) > 1 else list(row) for row in m.num]
    return len(_bareiss(a, m.ncols, False)[0])


def inverse(m: Matrix) -> Matrix:
    """Exact inverse: (X / d)^-1 = d * (c X^-1) / c, with c X^-1 and c from eliminating [X | E]."""
    m._require_square()
    solved = _inverse_rows(m.num)
    if solved is None:
        raise SingularMatrixError("matrix is singular")
    _, last, right = solved
    d = m.den if last > 0 else -m.den
    return _make([[x * d for x in row] for row in right], abs(last))


# the prime of every residue certificate, the largest below 2^30: every residue
# and pivot inverse is one 30-bit CPython digit, so an update multiplies two
# one-digit ints and reduces the two-digit product by a one-digit modulus
P = (1 << 30) - 35


def rank_mod_p(a: Sequence[Sequence[int]]) -> int:
    """Rank over GF(P) of integer rows (a lower bound for their rank over Q)."""
    return len(_bareiss([[x % P for x in row] for row in a], len(a[0]) if a else 0, False, P)[0])


def matrix_to_json(m: Matrix) -> list[list[str]]:
    """Array-of-arrays of strings, each an integer or "p/q" in lowest terms."""
    return [[str(x) for x in row] for row in m.rows]


def matrix_from_json(data) -> Matrix:
    """Parse the array-of-arrays-of-strings matrix format (bare ints tolerated)."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("matrix JSON must be an array of arrays")
    return Matrix(data)
