"""Determinantal generator systems for the general/special linear kinds.

Each index pair carries a purely combinatorial recipe.  Pairs on or above
the anti-diagonal get a plain minor of X (row i first, then the trailing
segment, columns 1..j); pairs strictly below get the determinant of a
stacked matrix whose top rows come from X and bottom rows from the
adjugate X*, all restricted to columns 1..j.  Row and column lists are
evaluated in the exact order stored, which fixes every sign.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Field, Matrix, QQ, adjugate, det, minor
from .shapes import FlagShape, GroupKind, IndexPair, ShapeError, index_set


class RatioUndefinedError(ZeroDivisionError):
    """The denominator minor vanishes at this point; resample, not a bug."""


@dataclass(frozen=True)
class MinorRecipe:
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise ShapeError("minor recipe needs equally many rows and columns")


@dataclass(frozen=True)
class StackedRecipe:
    x_rows: tuple[int, ...]
    adj_rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.x_rows) + len(self.adj_rows) != len(self.cols):
            raise ShapeError("stacked recipe needs |x_rows| + |adj_rows| = |cols|")


@dataclass(frozen=True)
class RatioRecipe:
    numerator: MinorRecipe
    denominator: MinorRecipe


Recipe = MinorRecipe | StackedRecipe | RatioRecipe


@dataclass(frozen=True)
class Generator:
    """An index pair together with its evaluation recipe."""

    pair: IndexPair | None
    recipe: Recipe


def build_generators(shape: FlagShape) -> tuple[Generator, ...]:
    """One generator per index pair, in ascending order of the pair order."""
    if shape.kind not in (GroupKind.GL, GroupKind.SL):
        raise ShapeError(f"general-linear generators need kind gl or sl, got {shape.kind.value}")
    n = shape.n
    out = []
    for pair in index_set(shape).pairs:
        i, j = pair
        cols = tuple(range(1, j + 1))
        if i + j <= n + 1:
            rows = (i,) + tuple(range(n + 1 - j + 1, n + 1))
            out.append(Generator(pair, MinorRecipe(rows, cols)))
        else:
            i_mirror = n + 1 - i
            x_rows = tuple(range(n - i_mirror + 1, n + 1))
            adj_rows = tuple(range(n - (j - i_mirror) + 1, n + 1))
            out.append(Generator(pair, StackedRecipe(x_rows, adj_rows, cols)))
    return tuple(out)


def stacked_matrix(recipe: StackedRecipe, top, bottom, field: Field = QQ):
    """Assemble the recipe's rows from two sources, columns restricted."""
    cols0 = [c - 1 for c in recipe.cols]
    top, bottom = field.rows(top), field.rows(bottom)
    rows = [[top[r - 1][c] for c in cols0] for r in recipe.x_rows]
    rows += [[bottom[r - 1][c] for c in cols0] for r in recipe.adj_rows]
    return field.matrix(rows)


def eval_generator(gen: Generator, point: Matrix, adj: Matrix | None = None) -> Fraction:
    """Exact value of a generator at the point; pass adj to reuse the adjugate."""
    recipe = gen.recipe
    if isinstance(recipe, MinorRecipe):
        return minor(point, recipe.rows, recipe.cols)
    if isinstance(recipe, StackedRecipe):
        if adj is None:
            adj = adjugate(point)
        return det(stacked_matrix(recipe, point, adj))
    num = minor(point, recipe.numerator.rows, recipe.numerator.cols)
    den = minor(point, recipe.denominator.rows, recipe.denominator.cols)
    if den == 0:
        raise RatioUndefinedError("ratio undefined at this point")
    return num / den


def nonvanishing_witness(shape: FlagShape, pair: IndexPair) -> Matrix:
    """Deterministic invertible point where the pair's generator is nonzero.

    Below the anti-diagonal this is the ones-on-a-broken-diagonal matrix
    from the nonvanishing argument; on or above it the anti-diagonal plus
    a single unit at (i, j) already works.
    """
    n = shape.n
    i, j = pair
    rows = [[Fraction(0)] * n for _ in range(n)]
    for s in range(1, n + 1):
        rows[s - 1][n - s] = Fraction(1)
    if i + j > n + 1:
        for k in range(0, n - i + 1):
            rows[i + k - 1][j - k - 1] = Fraction(1)
    else:
        rows[i - 1][j - 1] = Fraction(1)
    return Matrix(rows)


def s0_monomial_sign(shape: FlagShape, pair: IndexPair) -> int:
    """Sign of the restriction to the flattened slice S0.

    On S0 a generator above the anti-diagonal collapses to
    sign * s_{n,1} s_{n-1,2} ... s_{j'+1,j-1} s_{ij}; evaluating at the
    indicator point with ones on exactly those positions isolates the sign.
    """
    n = shape.n
    i, j = pair
    if i + j > n + 1:
        raise ShapeError(f"pair {pair} is below the anti-diagonal")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for t in range(1, j):
        rows[n - t][t - 1] = Fraction(1)
    rows[i - 1][j - 1] = Fraction(1)
    gen = next(g for g in build_generators(shape.as_gl()) if g.pair == pair)
    value = eval_generator(gen, Matrix(rows))
    if value * value != 1:
        raise AssertionError(f"indicator evaluation should be a sign, got {value}")
    return int(value)


def s0_monomial_value(shape: FlagShape, pair: IndexPair, point: Matrix) -> Fraction:
    """The signed monomial the pair's generator equals on the slice S0."""
    n = shape.n
    i, j = pair
    value = Fraction(s0_monomial_sign(shape, pair))
    for t in range(1, j):
        value *= point.rows[n - t][t - 1]
    return value * point.rows[i - 1][j - 1]


def _minor_json(recipe: MinorRecipe) -> dict:
    return {
        "kind": "minor",
        "x_rows": list(recipe.rows),
        "adj_rows": [],
        "cols": list(recipe.cols),
    }


def descriptor_to_json(gen: Generator) -> dict:
    """Stable JSON form of a generator descriptor."""
    out: dict = {"pair": list(gen.pair) if gen.pair is not None else None}
    recipe = gen.recipe
    if isinstance(recipe, MinorRecipe):
        out.update(_minor_json(recipe))
    elif isinstance(recipe, StackedRecipe):
        out.update(
            kind="stacked",
            x_rows=list(recipe.x_rows),
            adj_rows=list(recipe.adj_rows),
            cols=list(recipe.cols),
        )
    else:
        out.update(
            kind="ratio",
            numerator=_minor_json(recipe.numerator),
            denominator=_minor_json(recipe.denominator),
        )
    return out
