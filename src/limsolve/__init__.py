"""Decide whether the limit of a graph-shaped diagram of finite sets is
empty, in time linear in the shape and parameterized by set width and
feedback vertex number."""

from .graphs import (
    SimpleGraph,
    VertexSet,
    components,
    fvs_exact,
    is_forest,
    remove_vertices,
)
from .diagram import (
    CoDecomposition,
    Restriction,
    SubMask,
    Verdict,
    as_subdiagram,
    check_leg_closure,
    filter_edge,
    restrict_to_subgraph,
    validate,
)
from .solver import (
    InLimResult,
    SectionAssignment,
    SectionTest,
    Witness,
    extract_witness,
    forest_initial,
    image_tree,
    inlim,
    section_tests,
    witness_violations,
)
from .oracle import CapExceeded, brute_image, enumerate_limit
from .cset import (
    CSetCoDecomposition,
    FinCat,
    cset_inlim,
    pointwise_slice,
    validate_cset_codecomp,
    validate_fincat,
)
from .hom import (
    BagDecomposition,
    HomSet,
    build_hom_codecomp,
    find_homomorphism,
    hom_exists,
    hom_set,
    validate_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "BagDecomposition",
    "CapExceeded",
    "CoDecomposition",
    "CSetCoDecomposition",
    "FinCat",
    "HomSet",
    "InLimResult",
    "Restriction",
    "SectionAssignment",
    "SectionTest",
    "SimpleGraph",
    "SubMask",
    "Verdict",
    "VertexSet",
    "Witness",
    "as_subdiagram",
    "brute_image",
    "build_hom_codecomp",
    "check_leg_closure",
    "components",
    "cset_inlim",
    "enumerate_limit",
    "extract_witness",
    "filter_edge",
    "find_homomorphism",
    "forest_initial",
    "fvs_exact",
    "hom_exists",
    "hom_set",
    "image_tree",
    "inlim",
    "is_forest",
    "pointwise_slice",
    "remove_vertices",
    "restrict_to_subgraph",
    "section_tests",
    "validate",
    "validate_cset_codecomp",
    "validate_decomposition",
    "validate_fincat",
    "witness_violations",
]
