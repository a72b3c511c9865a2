"""Exact construction and verification of group-graded algebras with
commutation-factor symmetry: coquasitriangularity, quantum commutativity,
coinvariants, strong grading, and bijectivity of the canonical map."""

from .algebras import (GradedAlgebra, QCReport, StrongGradingReport,
                       build_b_symmetric_truncation, build_group_algebra,
                       build_truncated_poly, build_twisted_group_algebra,
                       check_quantum_commutativity, check_strong_grading,
                       coaction, coinvariants)
from .commutation import (CommutationFactor, check_cqt_axioms, standard_factor,
                          trivial_factor)
from .errors import (CapExceededError, DescriptorError, GroupMismatchError,
                     InternalConsistencyError, QgradedError, ScalarParseError)
from .galois import (EquivalenceReport, GaloisReport, QuotientSpace,
                     RelativeChain, beta_n, canonical_map,
                     check_equivalence_theorem, is_galois)
from .group_hopf import check_hopf_axioms
from .groups import GradingGroup, GroupElement
from .linalg import Echelon, LinearMap
from .scalars import Scalar, format_scalar, parse_scalar, root_of_unity

__all__ = [
    "CapExceededError", "CommutationFactor", "DescriptorError", "Echelon",
    "EquivalenceReport", "GaloisReport", "GradedAlgebra", "GradingGroup",
    "GroupElement", "GroupMismatchError",
    "InternalConsistencyError", "LinearMap", "QCReport",
    "QgradedError", "QuotientSpace", "RelativeChain", "Scalar",
    "ScalarParseError", "StrongGradingReport", "beta_n",
    "build_b_symmetric_truncation", "build_group_algebra",
    "build_truncated_poly", "build_twisted_group_algebra", "canonical_map",
    "check_cqt_axioms", "check_equivalence_theorem", "check_hopf_axioms",
    "check_quantum_commutativity", "check_strong_grading", "coaction",
    "coinvariants", "format_scalar", "is_galois", "parse_scalar",
    "root_of_unity", "standard_factor", "trivial_factor",
]

__version__ = "0.1.0"
