"""Square-free semigroups, twisted semigroup rings, and their symmetries.

The package is organized along the pipeline:

- coeff: exact coefficient division rings, GF(p^k) and rational quaternions
- sgrp: square-free semigroups, splitting classes, automorphisms
- cohom: cochains, two-cocycles, gauge action, normalization, H^1
- twring: the twisted semigroup ring built from a cocycle
- autos: ring automorphisms and witness isomorphisms, inner/outer split, the exact sequence check
- cli/jsonio: the command-line surface and wire formats
"""

from .coeff import FiniteField, Quaternions
from .common import Bounds, DEFAULT_BOUNDS
from .sgrp import SquareFreeSemigroup, SemigroupAutomorphism

__all__ = [
    "FiniteField",
    "Quaternions",
    "Bounds",
    "DEFAULT_BOUNDS",
    "SquareFreeSemigroup",
    "SemigroupAutomorphism",
]

__version__ = "0.1.0"
