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
and subcommands; ``families`` draws the seeded spaces and subsets that
experiments run on.

Importing the package loads none of these modules.  Each public name
below, and each submodule reached as an attribute, loads on first use,
so a caller pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("ContractError", "MalformedInputError", "SolverError", "JsonParseError"), "errors"),
    **dict.fromkeys(
        ("FiniteMetricSpace", "Subspace", "Violation",
         "validate_metric", "require_valid_metric", "restrict",
         "subspace_from_labels", "doubling_estimate"), "metric"),
    **dict.fromkeys(
        ("SignedMeasure", "total_variation", "jordan_decompose",
         "freespace_moment_bound"), "measures"),
    **dict.fromkeys(("TransportResult", "w1", "kr_norm", "verify_duality"), "transport"),
    **dict.fromkeys(
        ("RandomProjection", "GentlePartition", "SynthesisResult", "ProfileEntry",
         "identity_projection", "gentle_constant", "weighted_tv_constant",
         "projection_constant", "gentle_to_projection", "projection_to_gentle",
         "uniform_discrete_projection", "uniform_discrete_bound",
         "synthesize_min_k", "asymptotic_profile", "retract_l1_ball"), "projections"),
    **dict.fromkeys(
        ("PointFunction", "lip_norm", "mcshane_extend", "extend_by_projection",
         "operator_norm"), "extension"),
}
_SUBMODULES = frozenset(
    ("cli", "errors", "extension", "families", "io", "measures", "metric", "optim",
     "projections", "transport"))

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    # Called only for names not yet bound here.  A public name is read from
    # its submodule on every access, so it is always that module's object;
    # an imported submodule binds itself here and stops coming through.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
