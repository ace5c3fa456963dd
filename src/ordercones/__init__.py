"""Finite posets, isotone function cones, and matrix-algebra order structures.

Desk-scale computational order theory: finite posets with their cones of
order-preserving functions on the commutative side, small self-adjoint
matrix algebras with sphere-region membership cones on the other, and the
round trips between the two.
"""

from .errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    InvalidInput,
    NegativeValues,
    NotARotation,
    NotHermitian,
    NotIsotone,
    NotNormal,
    NotNormalized,
    OrderConesError,
    OrderNotDetermined,
    PointsNotSeparated,
    UnknownId,
)
from .poset import (
    Bounds,
    FinitePoset,
    FinitePreorder,
    Sprinkling,
    bounds,
    build_poset,
    build_preorder,
    combine,
    interval,
    reduce_preorder,
    sprinkle_minkowski,
)
from .isotone_cone import (
    IsotoneCone,
    cobounded_commutative,
    eval_expr,
    eval_expr_many,
    generated_cone_contains,
    is_isotone,
    minimal_witness,
    order_from_functions,
    stone_nachbin_express,
    stone_nachbin_express_many,
    upset_decomposition,
    upset_decomposition_many,
)
from .hermitian import (
    HermitianMatrix,
    SpectralDecomp,
    classify,
    func_calc,
    lattice_ops,
    spectral,
)
from .m2 import (
    DensityState,
    PureStatePoint,
    SphericalRegion,
    cobounded_witness,
    fubini_study,
    hopf,
    iso_membership,
    join_coeffs,
    pure_state_order,
    pure_state_order_many,
    rotation_preserves,
    state_order,
    transversality,
)
from .duality import (
    FiniteCommutativeIStar,
    algebra_from_poset,
    character_order,
    cobounded_duality_check,
    morphism_check,
)
from .gps import FiniteMetricSpace, gps_complete, gps_order

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
