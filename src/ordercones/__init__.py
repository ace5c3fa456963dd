"""Finite posets, isotone function cones, and matrix-algebra order structures.

Desk-scale computational order theory: finite posets with their cones of
order-preserving functions on the commutative side, small self-adjoint
matrix algebras with sphere-region membership cones on the other, and the
round trips between the two.
"""

from . import duality, errors, gps, hermitian, isotone_cone, m2, poset
from .errors import *
from .poset import *
from .isotone_cone import *
from .hermitian import *
from .m2 import *
from .duality import *
from .gps import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *poset.__all__,
    *isotone_cone.__all__,
    *hermitian.__all__,
    *m2.__all__,
    *duality.__all__,
    *gps.__all__,
]
