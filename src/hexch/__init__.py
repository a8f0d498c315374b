"""Hierarchically exchangeable random arrays on finite-depth trees.

Construct, sample, estimate and statistically verify random arrays indexed
by the leaves of finite-depth trees (and products of trees) whose law is
invariant under structure-preserving index rearrangements: deterministic
counter-based uniform fields, path-function samplers, directing-hierarchy
extraction and resynthesis, and a permutation-test battery.
"""

from .definetti import (
    DirectingHierarchy,
    EmpiricalMeasure,
    empirical_measure,
    extract_hierarchy,
    hierarchy_json_chunks,
    hierarchy_to_json_obj,
    nested_distance,
    resynthesize,
    wasserstein1,
)
from .fields import (
    SigmaModel,
    UniformField,
    derive_seed,
    sample_ah,
    sample_array,
)
from .hperm import (
    HPerm,
    identity_hperm,
    random_hperm,
    verify_wedge_preservation,
)
from .scenarios import (
    ArraySource,
    ScenarioSpec,
    builtin,
    list_scenarios,
    make_model,
    make_source,
)
from .stattests import (
    TestReport,
    cond_indep_test,
    conditional_iid_test,
    hexch_test,
)
from .tree import (
    ProductVertex,
    TreeVertex,
    encode_vertex,
    leaf,
    leaves,
    path,
    product_path,
    root,
    wedge,
)

__version__ = "0.12.0"
