"""Sums of cubes in integer quaternion rings with i^2 = -a, j^2 = -b.

Exact-arithmetic decomposition of any cube-subgroup element into at most
six cubes (five when 3 divides both a and b), membership testing, and
independent verification machinery: bounded minimal-representation
search and exhaustive modular enumerators.
"""

from .decompose import (
    Decomposition,
    LemmaReport,
    cube_root_congruence,
    decompose,
    identity_6z,
    identity_6z3,
    lemma_residue_check,
    member_cube_subgroup,
    select_pair,
    verify,
)
from .errors import (
    InvalidResidues,
    MixedRings,
    NotRepresentable,
    ParseError,
    PreconditionViolated,
    QuatcubeError,
    VerificationFailed,
)
from .parser import parse_quaternion
from .quat import Quaternion, RingParams, cube, cube_coeffs, p_value, swap_iso
from .residues import (
    Case,
    CaseTag,
    ResidueClass,
    classify_case,
    delta,
    in_S,
    in_T2,
    in_T3,
    lnr6,
)
from .search import (
    SearchConfig,
    min_cubes_search,
    three_cube_residues_mod9,
    two_cube_obstruction,
)

__all__ = [
    "Case",
    "CaseTag",
    "Decomposition",
    "InvalidResidues",
    "LemmaReport",
    "MixedRings",
    "NotRepresentable",
    "ParseError",
    "PreconditionViolated",
    "QuatcubeError",
    "Quaternion",
    "ResidueClass",
    "RingParams",
    "SearchConfig",
    "VerificationFailed",
    "classify_case",
    "cube",
    "cube_coeffs",
    "cube_root_congruence",
    "decompose",
    "delta",
    "identity_6z",
    "identity_6z3",
    "in_S",
    "in_T2",
    "in_T3",
    "lemma_residue_check",
    "lnr6",
    "member_cube_subgroup",
    "min_cubes_search",
    "p_value",
    "parse_quaternion",
    "select_pair",
    "swap_iso",
    "three_cube_residues_mod9",
    "two_cube_obstruction",
    "verify",
]
