"""Exact calculus of constructible functions on finite simplicial complexes.

The package computes Euler-characteristic weighted integrals, the
combinatorial duality, pushforward and pullback along simplicial maps,
and the costalk restriction to a closed subcomplex, all with exact
integer arithmetic.  On top of that sit local index and dimension
calculations driven by characteristic-cycle data on a complexification
pair, scene files describing such scenarios, and a registry of built-in
models.
"""

from types import ModuleType as _ModuleType

from .calculus import (
    ConstructibleFunction,
    dual,
    euler_integral,
    indicator,
    mod2_reduce,
    open_extend,
    open_pushforward,
    orbit_pushforward,
    pullback,
    pushforward,
    restrict,
    restrict_open,
    shriek_restrict,
    triangle_decompose,
    zero_function,
)
from .complexes import (
    Involution,
    OpenSubset,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    build_complex,
    complement_open,
    compose,
    fixed_point_set,
    inclusion_map,
    involution,
    is_connected,
    is_strongly_free,
    point_complex,
    product,
    quotient_by_involution,
    simplex,
    simplicial_map,
    subcomplex,
)
from .errors import (
    MissingSimplexError,
    ModelError,
    SceneError,
    SceneSemanticError,
    SceneSyntaxError,
)
from .indices import (
    KNOWN_CHECKS,
    CharacteristicCycle,
    CheckResult,
    Expectations,
    RealComplexPair,
    Stratum,
    VerificationReport,
    hyperfunction_dimension,
    hyperfunction_index,
    parity_index,
    smooth_stratum,
    solution_index,
    verify_scene,
)
from .scenes import (
    ModelInfo,
    ModelParam,
    Scene,
    build_model,
    emit_scene,
    list_models,
    parse_scene,
)

__version__ = "0.1.0"

# every public name imported above, each written once
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
