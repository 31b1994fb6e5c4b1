"""The generator system of a shape, one abstraction for every group kind.

The J-generators are the general-linear recipes of the same composition,
filtered to the group's index set (for the general and special linear
kinds the filter keeps every recipe).  For the orthogonal and symplectic
kinds with an odd number of parts the central square of pairs
additionally carries ratio invariants M_ij / M_0 of two corner minors;
M_0 takes the rows of the trailing segments against the columns of the
leading ones, and M_ij augments it by one central row and column.

``eval_family`` is the one family evaluator.  A recipe whose rows and
columns follow a chain pattern (every J recipe of every pair, M_0, and
an M_ij whose column is the next leading one) is read off a fraction-free
elimination that has not swapped rows: by Sylvester's identity its
pivot-column entries are bordered leading minors (Bareiss 1968).  A
recipe whose chain met a zero leading minor before its own step, and
every other recipe, is one ``eval_generator`` determinant.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import Matrix, adjugate, bordered_minors
from .generators_gl import Generator, Recipe, build_generators, eval_generator
from .shapes import FlagShape, GroupKind, index_set


@dataclass(frozen=True)
class GeneratorSystem:
    """J, the corner minor M0, and the augmented minors M_ij of the ratios M_ij / M0."""

    j: tuple[Generator, ...]
    m0: Recipe | None
    ratios: tuple[Generator, ...]

    def family(self) -> list[tuple[str, Generator]]:
        """Named polynomial generators: J, then M0 and the ratio numerators M_ij."""
        out = [(f"J({g.pair.i},{g.pair.j})", g) for g in self.j]
        if self.m0 is not None:
            out.append(("M0", Generator(None, self.m0)))
            out.extend((f"M({g.pair.i},{g.pair.j})", g) for g in self.ratios)
        return out


def corner_minor_recipe(shape: FlagShape) -> Recipe | None:
    """M_0: rows of I_{ell0+2} .. I_ell against columns of I_1 .. I_ell0."""
    if shape.ell % 2 == 0:
        return None
    segs = shape.segments
    rows = tuple(i for seg in segs[shape.ell0 + 1:] for i in seg)  # skips the central segment
    cols = tuple(j for seg in segs[: shape.ell0] for j in seg)
    return Recipe(rows, (), cols)


@lru_cache(maxsize=None)
def build_system(shape: FlagShape) -> GeneratorSystem:
    """The full generator system of a shape (memoised); general linear kinds have no ratio layer."""
    if shape.kind in (GroupKind.GL, GroupKind.SL):
        return GeneratorSystem(build_generators(shape), None, ())
    idx = index_set(shape)
    keep = set(idx.pairs)
    j = tuple(g for g in build_generators(shape.as_gl()) if g.pair in keep)
    m0 = corner_minor_recipe(shape)
    ratios: tuple[Generator, ...] = ()
    if m0 is not None:
        ratios = tuple(
            Generator(pair, Recipe(tuple(sorted(m0.x_rows + (pair.i,))), (),
                                   tuple(sorted(m0.cols + (pair.j,)))))
            for pair in idx.gamma0
        )
    return GeneratorSystem(j, m0, ratios)


def _chain_slot(recipe: Recipe, n: int):
    """Where a chain-shaped recipe is read: (chain, step, offset, sign, x exponent,
    adj exponent), or None for any other recipe.

    Chain k eliminates the rows of X from n down to n + 1 - k, then the
    rows of X* from n down.  A minor on rows (i, n-j+2, ..., n) and
    columns 1..j is on chain n: its bordered minor at step j - 1 with x_i
    as the border row, n + 1 - j - i rows below the pivot row.  A stacked
    recipe on x_rows (n+1-m, ..., n), adj_rows (n+1-a, ..., n) with a >= 1
    and columns 1..m+a is on chain m: its leading minor at step m + a - 1.
    A minor is only ever read on chain n, though a trailing-row one would
    also fit the stacked pattern with a = 0.
    The chains list each run of rows in reverse, which is a sign of
    (-1)^(k(k-1)/2) per run of k rows.
    """
    x_rows, adj_rows, cols = recipe.x_rows, recipe.adj_rows, recipe.cols
    j, m, a = len(cols), len(x_rows), len(adj_rows)
    if not m or cols != tuple(range(1, j + 1)):
        return None
    if not adj_rows:
        i = x_rows[0]
        if i <= n + 1 - j and x_rows[1:] == tuple(range(n - j + 2, n + 1)):
            return n, j - 1, n + 1 - j - i, (-1) ** (j * (j - 1) // 2), j, 0
    elif j <= n and x_rows == tuple(range(n + 1 - m, n + 1)) and adj_rows == tuple(range(n + 1 - a, n + 1)):
        return m, j - 1, 0, (-1) ** (m * (m - 1) // 2 + a * (a - 1) // 2), m, a
    return None


@lru_cache(maxsize=None)
def _chain_plan(recipes: tuple[Recipe, ...], n: int):
    """The chains a family needs and each recipe's slot (memoised per family).

    Returns (chains, slots, needs_adj): each chain is (key, rows of X,
    rows of X*, columns), the fewest that cover its slots; a slot is
    ``_chain_slot`` of its recipe; the adjugate is needed by any recipe
    with adj rows, read off a chain or not.
    """
    slots = tuple(_chain_slot(recipe, n) for recipe in recipes)
    need: dict[int, tuple[int, int]] = {}  # chain -> (rows, columns)
    for key, step, offset, *_ in filter(None, slots):
        rows, cols = need.get(key, (0, 0))
        need[key] = max(rows, step + offset + 1), max(cols, step + 1)
    chains = tuple(
        (key, min(rows, key), rows - min(rows, key), cols) for key, (rows, cols) in sorted(need.items())
    )
    needs_adj = any(recipe.adj_rows for recipe in recipes)
    return chains, slots, needs_adj


def eval_family(family: list[tuple[str, Generator]], point: Matrix) -> list[Fraction]:
    """Exact values of a named family at the point, sharing one adjugate.

    Chain-shaped recipes (see ``_chain_slot``) are read off one no-swap
    fraction-free elimination per chain of the integer numerators of X
    and X*, and divided by den^|x rows| * adj.den^|adj rows|.  A recipe
    whose chain met a zero leading minor before its own step, and every
    other recipe, goes through ``eval_generator``.
    """
    gens = [g for _, g in family]
    chains, slots, needs_adj = _chain_plan(tuple(g.recipe for g in gens), point.nrows)
    adj = adjugate(point) if needs_adj else None
    logs = {}
    for key, x_count, adj_count, ncols in chains:
        rows = [list(point.num[-1 - r][:ncols]) for r in range(x_count)]
        rows += [list(adj.num[-1 - r][:ncols]) for r in range(adj_count)]
        logs[key] = bordered_minors(rows, ncols)
    out = []
    for g, slot in zip(gens, slots):
        if slot is not None:
            key, step, offset, sign, ex, ea = slot
            log = logs[key]
            if step < len(log):
                scale = point.den ** ex * (adj.den ** ea if ea else 1)
                out.append(Fraction(sign * log[step][offset], scale))
                continue
        out.append(eval_generator(g, point, adj))
    return out
