"""Exact optimal-transport norms and linear extension operators on
finite pointed metric spaces.

The pieces fit together like this: ``metric`` holds spaces and subsets,
``measures`` the signed measures supported on them, ``transport``
computes Wasserstein-1 distances and the dual norm on differences of
measures, ``projections`` builds and synthesizes random projections onto
subsets together with their gentle-partition form, and ``extension``
turns a projection (or a Lipschitz bound) into an extension operator
for functions defined on the subset.  ``optim`` is the in-house exact
solver layer underneath; ``io`` and ``cli`` expose it all as JSON files
and subcommands.
"""

from .errors import ContractError, JsonParseError, MalformedInputError, SolverError
from .extension import (
    PointFunction,
    extend_by_projection,
    lip_norm,
    mcshane_extend,
    operator_norm,
)
from .measures import (
    SignedMeasure,
    freespace_moment_bound,
    jordan_decompose,
    total_variation,
)
from .metric import (
    FiniteMetricSpace,
    Subspace,
    Violation,
    doubling_estimate,
    restrict,
    require_valid_metric,
    subspace_from_labels,
    validate_metric,
)
from .projections import (
    GentlePartition,
    ProfileEntry,
    RandomProjection,
    SynthesisResult,
    asymptotic_profile,
    gentle_constant,
    gentle_to_projection,
    identity_projection,
    projection_constant,
    projection_to_gentle,
    retract_l1_ball,
    synthesize_min_k,
    uniform_discrete_bound,
    uniform_discrete_projection,
    weighted_tv_constant,
)
from .transport import TransportResult, kr_norm, verify_duality, w1

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ContractError", "MalformedInputError", "SolverError", "JsonParseError",
    "FiniteMetricSpace", "Subspace", "Violation",
    "validate_metric", "require_valid_metric", "restrict",
    "subspace_from_labels", "doubling_estimate",
    "SignedMeasure", "total_variation", "jordan_decompose", "freespace_moment_bound",
    "TransportResult", "w1", "kr_norm", "verify_duality",
    "RandomProjection", "GentlePartition", "SynthesisResult", "ProfileEntry",
    "identity_projection", "gentle_constant", "weighted_tv_constant",
    "projection_constant", "gentle_to_projection", "projection_to_gentle",
    "uniform_discrete_projection", "uniform_discrete_bound",
    "synthesize_min_k", "asymptotic_profile", "retract_l1_ball",
    "PointFunction", "lip_norm", "mcshane_extend", "extend_by_projection",
    "operator_norm",
]
