"""Exact divisor calculus for spherical embeddings with a randomized matrix oracle."""

from types import ModuleType as _ModuleType

from .lattice import (
    AbelianGroupPresentation,
    IntegerMatrix,
    SmithDecomposition,
    cokernel,
    smith_normal_form,
    solve_integer,
)
from .rootdata import Character, Covector, SimpleRootSet, TorusLattice, is_antidominant, pair
from .divisor_model import (
    BoundarySpec,
    ColorSpec,
    Divisor,
    ModelDocumentError,
    SphericalDivisorModel,
    WonderfulModel,
    canonical_divisor,
    class_group,
    class_group_generators,
    class_of,
    is_gorenstein,
    is_principal,
    model_from_json,
    model_to_json,
    principal_divisor,
    validate_model,
    wonderful_section_divisor,
)
from .realization import Curve, MatrixRealization, Minor, Pairing, SemiInvariantSpec
from .families import build_family
from .oracle import (
    LimitSignature,
    TOrderResult,
    limit_signature,
    orbit_dimension,
    semiinvariance_check,
    stabilizer_check,
    t_order,
    verify_boundary_valuations,
)

# The public names imported above; importing them also binds the submodules, which are not exported.
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
