"""Exact-arithmetic construction and verification of tilting bundles on
Grassmannians, partial flag varieties, their fibrations, and the descent
bookkeeping of their twisted forms.

Importing the package loads no submodule.  A public name is resolved from its
defining module on every access (PEP 562), so `tiltcheck.X` is always
`tiltcheck.<module>.X`, and only the modules actually used get imported.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "partitions": (
        "CONTAINMENT_ORDER", "SIZE_ORDER", "OrderedPartitionSet", "conjugate", "contains",
        "enumerate_box_partitions",
    ),
    "schur": ("hom_expand", "lr_expand", "schur_dimension", "split_bundle_expand", "twist_weight"),
    "bwb": (
        "CohomologyResult", "FlagSpace", "HomogeneousBundle", "flag_cohomology",
        "grass_pushforward", "grassmannian", "localization_euler", "of_quot", "of_sub",
        "of_sub_dual", "pn_line_cohomology", "projective_space",
    ),
    "collections": (
        "CollectionSpec", "ExtTable", "VerificationReport", "beilinson_collection",
        "end_quiver_dims", "ext_table", "flag_collection", "kapranov_collection",
        "verify_tilting",
    ),
    "descent": (
        "CSAClass", "DescentSummary", "bs_tilting_summary", "generalized_bs_summary",
        "index_of_power", "twisted_tower_summary",
    ),
    "fibration": (
        "BaseModel", "FibrationPlan", "GrassFiber", "TableFiber", "candidate_ext_table",
        "relative_pushforward", "tower_compose", "twist_search",
    ),
}

# public name -> defining submodule; a submodule name maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    owner = importlib.import_module(f"{__name__}.{module}")
    return owner if name == module else getattr(owner, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
