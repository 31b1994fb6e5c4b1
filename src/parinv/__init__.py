"""Exact construction and machine verification of conjugation invariants
for unipotent radicals of parabolic subgroups of the classical groups."""

__version__ = "0.1.0"
