"""Exact computations on primary Kodaira surfaces.

A primary Kodaira surface is determined by a tuple (tau_B, tau_E, c, delta):
two upper-half-plane points, a nonzero element c of the fibre lattice and an
arbitrary constant delta.  This package represents all of that exactly (no
floats outside of display helpers) and implements the surface's normal forms
and moduli comparison, its fundamental group, the special lifts of its
automorphisms and surjective endomorphisms, their action on de Rham and
Dolbeault cohomology, and their fixed loci.
"""

from .exactfield import (
    DomainError,
    NotInSpan,
    NotInvertible,
    NumberRing,
    NumberValue,
    SymbolDecl,
    Tau,
)
from .surface import KodairaData

__all__ = [
    "DomainError",
    "KodairaData",
    "NotInSpan",
    "NotInvertible",
    "NumberRing",
    "NumberValue",
    "SymbolDecl",
    "Tau",
]
