"""Deterministic seeded sampling of exact rational test points.

All randomness flows through a SplitMix64 counter generator so that
identical (seed, stream) inputs reproduce bit-for-bit on every platform:

    state_0 = mix64(seed XOR mix64((stream + 1) * GAMMA))
    next()  : state += GAMMA; return mix64(state)
    randint(lo, hi) = lo + next() mod (hi - lo + 1)

with GAMMA = 0x9E3779B97F4A7C15 and mix64 the SplitMix64 finalizer.
randint refuses a range of more than 2^64 values, which one draw cannot
cover.

Orthogonal/symplectic group points come from the Cayley transform
g = (E - A)(E + A)^-1 of exact form-skew matrices A, which stays inside
the identity component; the form-preserving swap of coordinates 1 and n
(determinant -1; -E on O(1)) reaches the second orthogonal component.
Points are assembled on integers: a Lie element adds only the nonzero
entries of its basis elements, and the form equation is checked on the
integer numerators of the point.  One parabolic element p(a, a0, b, v),
built on the Levi blocks a, the central factor a0 in G_0 and the radical
pieces b, v, is both the radical element (unipotent a, a0 = E) and, times
the form F, the group slice S-circ = F p.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from .linalg import Matrix, SingularMatrixError, det, inverse
from .shapes import FlagShape, GroupKind, ShapeError, index_set

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MAX_ATTEMPTS = 64  # resample budget of every rejection loop


class SamplingError(RuntimeError):
    """Raised when the resample budget is exhausted."""


class InternalConsistencyError(RuntimeError):
    """A constructed element failed its defining equation; this is a bug signal."""


def _mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 stream; same (seed, stream) gives the same draws everywhere."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & MASK64
        self.stream = stream
        self._state = _mix64(self.seed ^ _mix64(((stream + 1) * GAMMA) & MASK64))

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return _mix64(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive; at most 2^64 values, the draws of one step."""
        if hi < lo:
            raise ValueError("empty range")
        if hi - lo >= 1 << 64:
            raise ValueError(f"range [{lo}, {hi}] is wider than 2^64 values")
        return lo + self.next_u64() % (hi - lo + 1)

    def nonzero_int(self, bound: int) -> int:
        """Nonzero integer in [-bound, bound]; bound must be at least 1."""
        if bound < 1:
            raise ValueError(f"no nonzero integer in [-{bound}, {bound}]")
        while True:
            v = self.randint(-bound, bound)
            if v != 0:
                return v


def anti_identity(n: int) -> Matrix:
    """Ones on the anti-diagonal, zeros elsewhere."""
    return Matrix([[int(r + c == n - 1) for c in range(n)] for r in range(n)])


def symplectic_form(n: int) -> Matrix:
    """The 2m x 2m form [[0, -I~], [I~, 0]] built from anti-identity blocks."""
    if n % 2 != 0:
        raise ShapeError(f"symplectic form needs even size, got {n}")
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        rows[r][n - 1 - r] = -1 if r < n // 2 else 1
    return Matrix(rows)


def form_matrix(kind: GroupKind, n: int) -> Matrix:
    """Defining bilinear form of O(n) or Sp(n)."""
    if kind is GroupKind.O:
        return anti_identity(n)
    if kind is GroupKind.SP:
        return symplectic_form(n)
    raise ShapeError(f"no bilinear form for kind {kind.value}")


def _signed_rows(f, num) -> list[list[int]]:
    """Integer rows of f M for the signed permutation f: each is a row of M times a sign."""
    return [[s * x for x in num[c]] for row in f for c, s in enumerate(row) if s]


def defining_equation_holds(kind: GroupKind, m: Matrix) -> bool:
    """Exact membership test in GL / SL / O / Sp."""
    if not m.is_square:
        return False
    if kind is GroupKind.GL:
        return det(m) != 0
    if kind is GroupKind.SL:
        return det(m) == 1
    f = form_matrix(kind, m.nrows).num
    # with m = M / d, m^t f m = f exactly when M^t (f M) = d^2 f, entry by entry
    fm_cols = list(zip(*_signed_rows(f, m.num)))
    d2 = m.den * m.den
    return all(
        sum(map(operator.mul, col, fm_col)) == d2 * f[i][j]
        for i, col in enumerate(zip(*m.num))
        for j, fm_col in enumerate(fm_cols)
    )


def _member(shape: FlagShape, m: Matrix, what: str) -> Matrix:
    """m itself, after checking that it is an n x n element of the shape's group;
    a sampler that built anything else has a bug."""
    if m.nrows != shape.n or m.ncols != shape.n or not defining_equation_holds(shape.kind, m):
        raise InternalConsistencyError(
            f"{what} ({m.nrows}x{m.ncols}) fails the defining equations of {shape.kind.value}({shape.n})"
        )
    return m


def swap_matrix(n: int) -> Matrix:
    """Permutation swapping coordinates 1 and n (-E for n = 1); preserves the O(n) form, det -1."""
    if n == 1:
        return Matrix([[-1]])
    perm = list(range(n))
    perm[0], perm[n - 1] = perm[n - 1], perm[0]
    return Matrix([[int(perm[r] == c) for c in range(n)] for r in range(n)])


def cayley(a: Matrix) -> Matrix:
    """Cayley transform (E - A)(E + A)^-1; raises SingularMatrixError if E + A is singular.

    Computed as 2 (E + A)^-1 - E, the same matrix: E - A = 2E - (E + A).
    """
    e = Matrix.identity(a.nrows)
    return inverse(e + a) * 2 - e


@lru_cache(maxsize=None)
def _strict_upper_positions(shape: FlagShape) -> tuple[tuple[int, int], ...]:
    """1-based positions of the radical: above the diagonal blocks (memoised)."""
    return tuple(
        (i, j)
        for i in range(1, shape.n + 1)
        for j in range(1, shape.n + 1)
        if shape.block_of(i) < shape.block_of(j)
    )


@lru_cache(maxsize=None)
def lie_algebra_basis(shape: FlagShape, which: str = "group") -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Exact basis of the group's Lie algebra, or of the radical's, each element as
    its nonzero (i, j, value) entries, 0-based and row-major; every basis is integral.

    GL uses matrix units; SL the trace-zero ones.  Orthogonal/symplectic
    bases solve A^t F + F A = 0 in closed form over the allowed positions
    (all, or the strictly-upper block ones for the radical; row-major).
    With s_r = F[r][n+1-r] and i' = n + 1 - i, the equation reads
    A_{j'i'} = -s_{i'} s_{j'} A_{ij} = c A_{ij}: each partner pair gives
    E_ij + c E_{j'i'} at its later position, and an anti-diagonal position
    (its own partner) gives E_ij if c = +1 (Sp) and nothing if c = -1 (O).
    This is the exact nullspace basis of the constraints, element for element.
    """
    if which not in ("group", "radical"):
        raise ValueError(f"which must be 'group' or 'radical', got {which!r}")
    n = shape.n
    if shape.kind in (GroupKind.GL, GroupKind.SL):
        if which == "radical":
            return tuple(((i - 1, j - 1, 1),) for i, j in _strict_upper_positions(shape))
        if shape.kind is GroupKind.GL:
            diagonal = [((k, k, 1),) for k in range(n)]
        else:
            diagonal = [((k, k, 1), (k + 1, k + 1, -1)) for k in range(n - 1)]
        return tuple(diagonal + [((i, j, 1),) for i in range(n) for j in range(n) if i != j])
    positions = (
        _strict_upper_positions(shape)
        if which == "radical"
        else [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    )
    s = [row[n - 1 - r] for r, row in enumerate(form_matrix(shape.kind, n).num)]  # s[r - 1] = s_r
    basis = []
    for i, j in positions:
        pi, pj = n + 1 - j, n + 1 - i
        c = -s[n - i] * s[n - j]
        if (pi, pj) == (i, j):
            if c == 1:
                basis.append(((i - 1, j - 1, 1),))
        elif (pi, pj) < (i, j):  # the partner came first: positions are row-major
            basis.append(((pi - 1, pj - 1, c), (i - 1, j - 1, 1)))
    return tuple(basis)


def _random_matrix(rng: Rng, nrows: int, ncols: int, bound: int) -> Matrix:
    return Matrix([[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)])


def _gl_unipotent(shape: FlagShape, rng: Rng, bound: int) -> Matrix:
    rows = [[int(r == c) for c in range(shape.n)] for r in range(shape.n)]
    for (i, j) in _strict_upper_positions(shape):
        rows[i - 1][j - 1] = rng.randint(-bound, bound)
    return Matrix(rows)


def _constrained_block(n0: int, kind: GroupKind, rng: Rng, bound: int) -> Matrix:
    """B with B^sigma = -B (orthogonal) or B^sigma = B (symplectic)."""
    rows = [[0] * n0 for _ in range(n0)]
    for i in range(1, n0 + 1):
        for j in range(1, n0 + 1):
            pi, pj = n0 + 1 - j, n0 + 1 - i  # anti-transpose partner
            if (i, j) == (pi, pj):
                if kind is GroupKind.SP:
                    rows[i - 1][j - 1] = rng.randint(-bound, bound)
                continue
            if (i, j) < (pi, pj):
                v = rng.randint(-bound, bound)
                rows[i - 1][j - 1] = v
                rows[pi - 1][pj - 1] = -v if kind is GroupKind.O else v
    return Matrix(rows)


def _sub_parabolic_shape(shape: FlagShape) -> FlagShape:
    """GL(N0) flag shape on the leading parts (n_1, ..., n_ell0)."""
    return FlagShape(GroupKind.GL, shape.N0, shape.parts[: shape.ell0])


def _parabolic_element(shape: FlagShape, a: Matrix, a0: Matrix | None, b: Matrix, v: Matrix | None) -> Matrix:
    """The parabolic element on the pieces (a, a0, b, v) of an O/Sp shape with at least two parts.

    p = [[a, a v, a (b + v w / 2)], [0, a0, a0 w], [0, 0, a^sigma^-1]] with
    w = -J_0 v^t I_0 (J_0 the central factor's form), or [[a, a b], [0, a^sigma^-1]]
    for an even part count.  a0 = None stands for the identity, so the radical's
    middle row is [0, E, w] with no product.
    """
    big_n0 = shape.N0
    z_nn = Matrix.zeros(big_n0, big_n0)
    a_sigma_inv = inverse(a.anti_transpose())
    if shape.ell % 2 == 0:
        return Matrix.from_blocks([[a, a @ b], [z_nn, a_sigma_inv]])
    n0 = shape.n0
    w = -(form_matrix(shape.kind, n0) @ v.transpose() @ anti_identity(big_n0))
    middle = [Matrix.identity(n0), w] if a0 is None else [a0, a0 @ w]
    return Matrix.from_blocks(
        [
            [a, a @ v, a @ (b + (v @ w) * Fraction(1, 2))],
            [Matrix.zeros(n0, big_n0), *middle],
            [z_nn, Matrix.zeros(big_n0, n0), a_sigma_inv],
        ]
    )


def sample_unipotent_radical(shape: FlagShape, rng: Rng, bound: int = 10) -> Matrix:
    """Random element of the parabolic's unipotent radical."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if shape.kind in (GroupKind.GL, GroupKind.SL):
        u = _gl_unipotent(shape, rng, bound)
    elif shape.ell == 1:  # the parabolic is the whole group; U is trivial
        u = Matrix.identity(shape.n)
    else:
        a = _gl_unipotent(_sub_parabolic_shape(shape), rng, bound)
        b = _constrained_block(shape.N0, shape.kind, rng, bound)
        v = _random_matrix(rng, shape.N0, shape.n0, bound) if shape.ell % 2 == 1 else None
        u = _parabolic_element(shape, a, None, b, v)
    return _member(shape, u, "radical element")


def _random_lie_element(shape: FlagShape, rng: Rng, bound: int) -> Matrix:
    """Sum of c * basis element, one draw c per element in basis order."""
    total = [[0] * shape.n for _ in range(shape.n)]
    for entries in lie_algebra_basis(shape, "group"):
        c = rng.randint(-bound, bound)
        for i, j, x in entries:
            total[i][j] += x * c
    return Matrix(total)


def sample_group_point(shape: FlagShape, rng: Rng, bound: int = 10, second_component: bool = False) -> Matrix:
    """Random exact group element (Cayley transform for O/Sp)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if second_component and shape.kind is not GroupKind.O:
        raise ShapeError("only the orthogonal group has a second component")
    for _ in range(_MAX_ATTEMPTS):
        if shape.kind in (GroupKind.GL, GroupKind.SL):
            g = _random_matrix(rng, shape.n, shape.n, bound)
            d = det(g)
            if d == 0:
                continue
            if shape.kind is GroupKind.SL:
                g = Matrix([[x / d for x in g.num[0]]] + list(g.num[1:]))
        else:
            try:
                g = cayley(_random_lie_element(shape, rng, bound))
            except SingularMatrixError:
                continue
            if second_component:
                g = g @ swap_matrix(shape.n)
        return _member(shape, g, "group sample")
    raise SamplingError(f"no valid sample within {_MAX_ATTEMPTS} attempts")


def slice_pattern(shape: FlagShape, variant: str) -> frozenset[tuple[int, int]]:
    """Positions allowed to be nonzero on the requested slice."""
    gl = index_set(shape.as_gl())
    if variant == "s":
        return frozenset((p.i, p.j) for p in gl.pairs)
    if variant == "s0":
        return frozenset((p.i, p.j) for p in gl.sigma0)
    raise ValueError(f"unknown slice variant {variant!r}")


def resolve_slice_sign(shape: FlagShape) -> int:
    """Sign of the group slice's top-right block: the form's corner entry F[1][n],
    or +1 without a corner block (one part)."""
    if shape.kind not in (GroupKind.O, GroupKind.SP):
        raise ShapeError("slice sign is an orthogonal/symplectic notion")
    return form_matrix(shape.kind, shape.n).num[0][shape.n - 1] if shape.ell >= 2 else 1


def _random_block_upper(shape0: FlagShape, rng: Rng, bound: int) -> Matrix:
    """Random invertible block-upper element of the GL(N0) parabolic."""
    rows = [[0] * shape0.n for _ in range(shape0.n)]
    for seg in shape0.segments:
        for _ in range(_MAX_ATTEMPTS):
            block = _random_matrix(rng, len(seg), len(seg), bound)
            if det(block) != 0:
                break
        else:
            raise SamplingError("no invertible diagonal block found")
        for r, i in enumerate(seg):
            for c, j in enumerate(seg):
                rows[i - 1][j - 1] = block.num[r][c]
    for (i, j) in _strict_upper_positions(shape0):
        rows[i - 1][j - 1] = rng.randint(-bound, bound)
    return Matrix(rows)


def _osp_slice(shape: FlagShape, rng: Rng, bound: int) -> Matrix:
    """S-circ = F p: the form times a parabolic element with a block-upper a, drawn
    in the order a, b, a0, v (F a0 for one part, where the parabolic is G_0)."""
    n0 = shape.n0
    if shape.ell == 1:
        p = sample_group_point(FlagShape(shape.kind, n0, (n0,)), rng, bound)
    else:
        a = _random_block_upper(_sub_parabolic_shape(shape), rng, bound)
        b = _constrained_block(shape.N0, shape.kind, rng, bound)
        a0 = v = None
        if shape.ell % 2 == 1:
            a0 = sample_group_point(FlagShape(shape.kind, n0, (n0,)), rng, bound)
            v = _random_matrix(rng, shape.N0, n0, bound)
        p = _parabolic_element(shape, a, a0, b, v)
    f = form_matrix(shape.kind, shape.n).num
    return Matrix.from_integer_rows(_signed_rows(f, p.num)) * Fraction(1, p.den)


def sample_slice(shape: FlagShape, rng: Rng, bound: int = 10, variant: str = "s") -> Matrix:
    """Random exact point of the slice S, S0 or (for O/Sp) the group slice.

    S and S0 live inside GL(n) whatever the shape's kind, so those points
    are checked against the GL shape of the same composition.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = shape.n
    if variant == "s":
        pattern = slice_pattern(shape, "s")
        for _ in range(_MAX_ATTEMPTS):
            rows = [[0] * n for _ in range(n)]
            for (i, j) in pattern:
                rows[i - 1][j - 1] = rng.randint(-bound, bound)
            m = Matrix(rows)
            if det(m) != 0:
                return _member(shape.as_gl(), m, "slice point")
        raise SamplingError(f"no invertible slice point within {_MAX_ATTEMPTS} attempts")
    if variant == "s0":
        rows = [[0] * n for _ in range(n)]
        for (i, j) in slice_pattern(shape, "s0"):
            rows[i - 1][j - 1] = rng.randint(-bound, bound)
        for i in range(1, n + 1):  # the anti-diagonal chain must not vanish
            rows[i - 1][n - i] = rng.nonzero_int(bound)
        return _member(shape.as_gl(), Matrix(rows), "flattened slice point")
    if variant == "s_circ":
        if shape.kind not in (GroupKind.O, GroupKind.SP):
            raise ShapeError("the group slice exists only for orthogonal/symplectic kinds")
        return _member(shape, _osp_slice(shape, rng, bound), "group slice point")
    raise ValueError(f"unknown slice variant {variant!r}")
