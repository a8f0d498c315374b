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
    measure_over,
    measure_to_json_obj,
    nested_distance,
    point_mass,
    quantile_resample,
    resynthesize,
    wasserstein1,
)
from .fields import (
    DistSpec,
    IField,
    SigmaModel,
    UniformField,
    derive_seed,
    ifield_truncation_values,
    sample_ah,
    sample_array,
    sample_conditional,
    sample_pair,
    uniform_ifield,
)
from .hperm import (
    HPerm,
    hperm_from_json_obj,
    hperm_to_json_obj,
    identity_hperm,
    random_hperm,
    verify_wedge_preservation,
)
from .scenarios import (
    ArraySource,
    ScenarioSpec,
    builtin,
    list_scenarios,
    make_level_values,
    make_model,
    make_source,
)
from .stattests import (
    TestReport,
    cond_indep_test,
    conditional_iid_test,
    energy_distance,
    hexch_test,
    level_homogeneity_test,
)
from .tree import (
    ProductVertex,
    TreeVertex,
    decode_vertex,
    encode_vertex,
    leaf,
    leaves,
    path,
    product_path,
    root,
    vertices,
    wedge,
)

__version__ = "0.1.0"
