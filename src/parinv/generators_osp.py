"""The generator system of a shape, one abstraction for every group kind.

The J-generators are the general-linear recipes of the same composition,
filtered to the group's index set (for the general and special linear
kinds the filter keeps every recipe).  For the orthogonal and symplectic
kinds with an odd number of parts the central square of pairs
additionally carries ratio invariants M_ij / M_0 of two corner minors;
M_0 takes the rows of the trailing segments against the columns of the
leading ones, and M_ij augments it by one central row and column.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import Matrix, adjugate
from .generators_gl import Generator, MinorRecipe, RatioRecipe, build_generators, eval_generator
from .shapes import FlagShape, GroupKind, index_set


@dataclass(frozen=True)
class GeneratorSystem:
    shape: FlagShape
    j: tuple[Generator, ...]
    m0: MinorRecipe | None
    ratios: tuple[Generator, ...]

    def family(self) -> list[tuple[str, Generator]]:
        """Named polynomial generators: J, then M0 and the ratio numerators M_ij."""
        out = [(f"J({g.pair.i},{g.pair.j})", g) for g in self.j]
        if self.m0 is not None:
            out.append(("M0", Generator(None, self.m0)))
            out.extend(
                (f"M({g.pair.i},{g.pair.j})", Generator(g.pair, g.recipe.numerator))
                for g in self.ratios
            )
        return out


def corner_minor_recipe(shape: FlagShape) -> MinorRecipe | None:
    """M_0: rows of I_{ell0+2} .. I_ell against columns of I_1 .. I_ell0."""
    if shape.ell % 2 == 0:
        return None
    segs = shape.segments
    rows = tuple(i for seg in segs[shape.ell0 + 1:] for i in seg)  # skips the central segment
    cols = tuple(j for seg in segs[: shape.ell0] for j in seg)
    return MinorRecipe(rows, cols)


@lru_cache(maxsize=None)
def build_system(shape: FlagShape) -> GeneratorSystem:
    """The full generator system of a shape (memoised); general linear kinds have no ratio layer."""
    if shape.kind in (GroupKind.GL, GroupKind.SL):
        return GeneratorSystem(shape, build_generators(shape), None, ())
    idx = index_set(shape)
    keep = set(idx.pairs)
    j = tuple(g for g in build_generators(shape.as_gl()) if g.pair in keep)
    m0 = corner_minor_recipe(shape)
    ratios: tuple[Generator, ...] = ()
    if m0 is not None:
        ratios = tuple(
            Generator(
                pair,
                RatioRecipe(
                    MinorRecipe(
                        tuple(sorted(m0.rows + (pair.i,))),
                        tuple(sorted(m0.cols + (pair.j,))),
                    ),
                    m0,
                ),
            )
            for pair in idx.gamma0
        )
    return GeneratorSystem(shape, j, m0, ratios)


def eval_family(family: list[tuple[str, Generator]], point: Matrix) -> list[Fraction]:
    """Exact values of a named family at the point, sharing one adjugate."""
    adj = adjugate(point)
    return [eval_generator(g, point, adj) for _, g in family]
