"""Group kind plus composition of [1, n], and all derived index combinatorics.

Indices are 1-based throughout, matching the usual matrix conventions;
0-based offsets appear only inside matrix storage.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class ShapeError(ValueError):
    """Raised for invalid group kind / composition combinations."""


class GroupKind(str, Enum):
    GL = "gl"
    SL = "sl"
    O = "o"
    SP = "sp"

    @classmethod
    def parse(cls, text) -> "GroupKind":
        if isinstance(text, GroupKind):
            return text
        try:
            return cls(str(text).lower())
        except ValueError:
            raise ShapeError(f"unknown group kind {text!r}; expected gl, sl, o or sp") from None


class IndexPair(NamedTuple):
    i: int
    j: int


def order_key(pair: IndexPair) -> tuple[int, int]:
    """Sort key for the total order: first by column, then by descending row."""
    return (pair[1], -pair[0])


@dataclass(frozen=True)
class FlagShape:
    """Group kind and the composition (n_1, ..., n_ell) of [1, n]."""

    kind: GroupKind
    n: int
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "kind", GroupKind.parse(self.kind))
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if not self.parts:
            raise ShapeError("composition must have at least one part")
        if any(p < 1 for p in self.parts):
            raise ShapeError(f"composition parts must be positive, got {self.parts}")
        if sum(self.parts) != self.n:
            raise ShapeError(f"parts {self.parts} sum to {sum(self.parts)}, not n={self.n}")
        if self.kind in (GroupKind.O, GroupKind.SP) and self.parts != self.parts[::-1]:
            raise ShapeError(f"orthogonal/symplectic composition must be palindromic, got {self.parts}")
        if self.kind is GroupKind.SP and self.n % 2 != 0:
            raise ShapeError(f"symplectic kind needs even matrix size, got n={self.n}")

    @property
    def ell(self) -> int:
        return len(self.parts)

    @property
    def ell0(self) -> int:
        return self.ell // 2

    @property
    def N0(self) -> int:
        """Sum of the first ell0 part sizes."""
        return sum(self.parts[: self.ell0])

    @property
    def n0(self) -> int:
        """Size of the central segment (0 when ell is even)."""
        return self.parts[self.ell0] if self.ell % 2 == 1 else 0

    @property
    def segments(self) -> tuple[tuple[int, ...], ...]:
        """The consecutive segments I_1, ..., I_ell as 1-based index tuples."""
        out = []
        start = 1
        for p in self.parts:
            out.append(tuple(range(start, start + p)))
            start += p
        return tuple(out)

    @property
    def central_segment(self) -> tuple[int, ...]:
        """I_0 = I_{ell0+1} for odd ell, empty otherwise."""
        return self.segments[self.ell0] if self.ell % 2 == 1 else ()

    def block_of(self, i: int) -> int:
        """1-based segment number k with i in I_k."""
        if not 1 <= i <= self.n:
            raise ShapeError(f"index {i} out of range 1..{self.n}")
        acc = 0
        for k, p in enumerate(self.parts, start=1):
            acc += p
            if i <= acc:
                return k
        raise AssertionError("unreachable")

    def mirror(self, i: int) -> int:
        """The symmetric index i' = n + 1 - i."""
        if not 1 <= i <= self.n:
            raise ShapeError(f"index {i} out of range 1..{self.n}")
        return self.n + 1 - i

    def as_gl(self) -> "FlagShape":
        """Same composition under the general linear kind (the ambient slice lives there)."""
        return FlagShape(GroupKind.GL, self.n, self.parts)

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "n": self.n, "parts": list(self.parts)}


def make_shape(kind, n: int, parts) -> FlagShape:
    """Validated shape constructor."""
    return FlagShape(GroupKind.parse(kind), n, tuple(parts))


@dataclass(frozen=True)
class GeneratorIndexSet:
    """Index pairs carrying generators, in ascending total order.

    ``sigma0`` holds the pairs on or above the anti-diagonal (i + j <= n + 1),
    ``sigma1`` the rest.  ``gamma0`` is the central square I_0 x I_0 for
    orthogonal/symplectic kinds with an odd number of parts, else empty.
    """

    pairs: tuple[IndexPair, ...]
    sigma0: frozenset[IndexPair]
    sigma1: frozenset[IndexPair]
    gamma0: tuple[IndexPair, ...]


def _gl_pairs(shape: FlagShape) -> list[IndexPair]:
    return [
        IndexPair(i, j)
        for i in range(1, shape.n + 1)
        for j in range(1, shape.n + 1)
        if shape.block_of(i) >= shape.block_of(shape.mirror(j))
    ]


def index_set(shape: FlagShape) -> GeneratorIndexSet:
    """The full generator index combinatorics for the shape's kind."""
    gamma0: tuple[IndexPair, ...] = ()
    if shape.kind in (GroupKind.GL, GroupKind.SL):
        pairs = _gl_pairs(shape)
        if shape.kind is GroupKind.SL:
            pairs.remove(IndexPair(1, shape.n))
    else:
        lowest_row = shape.N0 + shape.n0  # == N0 for even ell
        strict = shape.kind is GroupKind.O
        pairs = [
            p
            for p in _gl_pairs(shape)
            if p.i > lowest_row and (p.i > p.j if strict else p.i >= p.j)
        ]
        central = shape.central_segment
        gamma0 = tuple(
            sorted((IndexPair(i, j) for i in central for j in central), key=order_key)
        )
    pairs.sort(key=order_key)
    sigma0 = frozenset(p for p in pairs if p.i + p.j <= shape.n + 1)
    return GeneratorIndexSet(
        pairs=tuple(pairs),
        sigma0=sigma0,
        sigma1=frozenset(pairs) - sigma0,
        gamma0=gamma0,
    )


def dim_group(shape: FlagShape) -> int:
    n = shape.n
    if shape.kind is GroupKind.GL:
        return n * n
    if shape.kind is GroupKind.SL:
        return n * n - 1
    if shape.kind is GroupKind.O:
        return n * (n - 1) // 2
    return n * (n + 1) // 2


def dim_g0(shape: FlagShape) -> int:
    """Dimension of the central factor O(n0) or Sp(n0); 0 when ell is even."""
    if shape.kind not in (GroupKind.O, GroupKind.SP):
        raise ShapeError("central factor exists only for orthogonal/symplectic kinds")
    n0 = shape.n0
    if n0 == 0:
        return 0
    if shape.kind is GroupKind.O:
        return n0 * (n0 - 1) // 2
    return n0 * (n0 + 1) // 2


def dim_unipotent_radical(shape: FlagShape) -> int:
    parts = shape.parts
    if shape.kind in (GroupKind.GL, GroupKind.SL):
        return sum(
            parts[k] * parts[m] for k in range(len(parts)) for m in range(k + 1, len(parts))
        )
    dim_levi = sum(p * p for p in parts[: shape.ell0]) + dim_g0(shape)
    return (dim_group(shape) - dim_levi) // 2
