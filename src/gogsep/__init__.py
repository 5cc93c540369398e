"""Subgroup separability certificates for free products.

Subgroups of a free product of separable vertex groups are represented
as decorated graph-of-groups immersions; folding, enlargement and
completion turn a finite generating set plus an outside element into a
finite cover certifying the separation, and the verifier re-derives
every claim with independent machinery.
"""

from .core import Graph, GraphOfGroups, Word, bar
from .oracles import (
    FiniteGroup,
    FreeGroup,
    IntGroup,
    SubgroupHandle,
    VertexGroup,
    oracle_from_json,
    subgroup_generate,
)
from .morphism import (
    CheckReport,
    DecoratedMorphism,
    LiftOutcome,
    check_cover,
    check_immersion,
    lift_loop,
    subgroup_member,
)
from .folding import (
    cover_index,
    fold,
    kurosh_rank,
    reduced_kurosh_rank,
    trim_core,
    wedge,
)
from .completion import complete_to_cover
from .enlargement import enlarge, exclusion_sets
from .separator import (
    SeparationCertificate,
    VerificationReport,
    attach_separating_path,
    separate_element,
    verify_certificate,
)
from .verifier import (
    ball_map_check,
    brute_member,
    crosscheck,
    enumerate_ball_elements,
    tree_ball,
)
from .jsonio import (
    certificate_from_json,
    certificate_to_json,
    gog_from_json,
    gog_to_json,
    morphism_from_json,
    morphism_to_json,
    word_from_json,
    word_to_json,
)
from .dotexport import gog_to_dot, morphism_to_dot
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphOfGroups",
    "Word",
    "bar",
    "FiniteGroup",
    "FreeGroup",
    "IntGroup",
    "SubgroupHandle",
    "VertexGroup",
    "oracle_from_json",
    "subgroup_generate",
    "CheckReport",
    "DecoratedMorphism",
    "LiftOutcome",
    "check_cover",
    "check_immersion",
    "lift_loop",
    "subgroup_member",
    "cover_index",
    "fold",
    "kurosh_rank",
    "reduced_kurosh_rank",
    "trim_core",
    "wedge",
    "complete_to_cover",
    "enlarge",
    "exclusion_sets",
    "SeparationCertificate",
    "VerificationReport",
    "attach_separating_path",
    "separate_element",
    "verify_certificate",
    "ball_map_check",
    "brute_member",
    "crosscheck",
    "enumerate_ball_elements",
    "tree_ball",
    "certificate_from_json",
    "certificate_to_json",
    "gog_from_json",
    "gog_to_json",
    "morphism_from_json",
    "morphism_to_json",
    "word_from_json",
    "word_to_json",
    "gog_to_dot",
    "morphism_to_dot",
    "errors",
]
