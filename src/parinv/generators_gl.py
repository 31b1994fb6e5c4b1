"""Determinantal generator systems for the general/special linear kinds.

Each index pair carries a purely combinatorial ``Recipe``: the
determinant of some rows of X stacked over some rows of the adjugate X*,
restricted to columns 1..j.  Pairs on or above the anti-diagonal get a
plain minor of X, a recipe with no X* rows (row i first, then the
trailing segment); pairs strictly below take rows of both.  Row and
column lists are evaluated in the exact order stored, which fixes every
sign.

A value is read on integer numerators: ``recipe_rows`` picks the
recipe's square integer rows out of the numerator rows of X (and of X*),
and the determinant of those rows is divided once by the denominators
of the rows taken.  That is ``eval_generator``, one determinant per
recipe.  Every recipe here takes a trailing run of rows against the
leading columns 1..j, so a whole system is nested: the family evaluator
``generators_osp.eval_family`` reads these values off a few no-swap
eliminations (one of the rows of X, one per number of X rows of the
stacked recipes) and keeps ``eval_generator`` for the rest.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, adjugate, det_rows
from .shapes import FlagShape, GroupKind, IndexPair, ShapeError, index_set


def _check_indices(**lists: tuple[int, ...]):
    """Every index is 1-based and no list repeats one (an index past n fails on evaluation)."""
    for name, lst in lists.items():
        if any(i < 1 for i in lst):
            raise ShapeError(f"{name} indices must be at least 1, got {list(lst)}")
        if len(set(lst)) != len(lst):
            raise ShapeError(f"duplicate {name} indices in {list(lst)}")


@dataclass(frozen=True)
class Recipe:
    """The determinant of the rows x_rows of X, then adj_rows of X*, against cols;
    a minor of X has no adj_rows."""

    x_rows: tuple[int, ...]
    adj_rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.x_rows) + len(self.adj_rows) != len(self.cols):
            raise ShapeError("recipe needs |x_rows| + |adj_rows| = |cols|")
        _check_indices(x_rows=self.x_rows, adj_rows=self.adj_rows, cols=self.cols)


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
            out.append(Generator(pair, Recipe(rows, (), cols)))
        else:
            i_mirror = n + 1 - i
            x_rows = tuple(range(n - i_mirror + 1, n + 1))
            adj_rows = tuple(range(n - (j - i_mirror) + 1, n + 1))
            out.append(Generator(pair, Recipe(x_rows, adj_rows, cols)))
    return tuple(out)


def recipe_rows(recipe: Recipe, x, adj=None) -> list[list[int]]:
    """Fresh square rows of the recipe's matrix: the rows of x, then those of
    adj (needed only with adj_rows), restricted to the recipe's columns, all
    1-based and in the stored order.  An index past the size of x raises IndexError.
    """
    cols = [c - 1 for c in recipe.cols]
    return ([[x[r - 1][c] for c in cols] for r in recipe.x_rows]
            + [[adj[r - 1][c] for c in cols] for r in recipe.adj_rows])


def eval_generator(gen: Generator, point: Matrix, adj: Matrix | None = None) -> Fraction:
    """Exact value of a generator at the point: the determinant of
    the recipe's numerator rows over the denominators of the rows taken; the
    adjugate is taken only for adj_rows, and pass adj to reuse it."""
    recipe = gen.recipe
    scale = point.den ** len(recipe.x_rows)
    adj_num = None
    if recipe.adj_rows:
        adj = adjugate(point) if adj is None else adj
        adj_num, scale = adj.num, scale * adj.den ** len(recipe.adj_rows)
    return Fraction(det_rows(recipe_rows(recipe, point.num, adj_num)), scale)


def nonvanishing_witness(shape: FlagShape, pair: IndexPair) -> Matrix:
    """Deterministic invertible point where the pair's generator is nonzero.

    Below the anti-diagonal this is the ones-on-a-broken-diagonal matrix
    from the nonvanishing argument; on or above it the anti-diagonal plus
    a single unit at (i, j) already works.
    """
    n = shape.n
    i, j = pair
    rows = [[0] * n for _ in range(n)]
    for s in range(1, n + 1):
        rows[s - 1][n - s] = 1
    if i + j > n + 1:
        for k in range(0, n - i + 1):
            rows[i + k - 1][j - k - 1] = 1
    else:
        rows[i - 1][j - 1] = 1
    return Matrix(rows)


def s0_monomial_positions(n: int, pair: IndexPair) -> tuple[tuple[int, int], ...]:
    """1-based positions of the chain monomial of an upper pair (i + j <= n + 1):
    the anti-diagonal chain (n, 1), (n - 1, 2), ..., (n + 2 - j, j - 1), then (i, j)."""
    i, j = pair
    return tuple((n + 1 - t, t) for t in range(1, j)) + ((i, j),)


def s0_monomial_sign(shape: FlagShape, gen: Generator) -> int:
    """Sign of the generator's restriction to the flattened slice S0.

    On S0 a generator above the anti-diagonal collapses to sign times the
    product of the entries at ``s0_monomial_positions``; evaluating at the
    indicator point with ones on exactly those positions isolates the sign.
    ``gen`` is the generator of its pair in ``build_generators``.
    """
    n = shape.n
    pair = gen.pair
    if pair.i + pair.j > n + 1:
        raise ShapeError(f"pair {pair} is below the anti-diagonal")
    rows = [[0] * n for _ in range(n)]
    for r, c in s0_monomial_positions(n, pair):
        rows[r - 1][c - 1] = 1
    value = eval_generator(gen, Matrix(rows))
    if value * value != 1:
        raise AssertionError(f"indicator evaluation should be a sign, got {value}")
    return int(value)


def _recipe_json(recipe: Recipe) -> dict:
    return {
        "kind": "stacked" if recipe.adj_rows else "minor",
        "x_rows": list(recipe.x_rows),
        "adj_rows": list(recipe.adj_rows),
        "cols": list(recipe.cols),
    }


def descriptor_to_json(gen: Generator) -> dict:
    """Stable JSON form of a generator descriptor."""
    return {"pair": list(gen.pair) if gen.pair is not None else None, **_recipe_json(gen.recipe)}


def ratio_to_json(gen: Generator, m0: Recipe) -> dict:
    """Stable JSON form of the central ratio M(i,j) / M0, gen being the minor M(i,j)."""
    return {"pair": list(gen.pair), "kind": "ratio", "numerator": _recipe_json(gen.recipe),
            "denominator": _recipe_json(m0)}
