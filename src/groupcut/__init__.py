"""Exact tools for cut-generating functions of the 1-row group relaxation.

Construct Z-periodic piecewise linear functions with rational breakpoints
(possibly discontinuous), test minimality and extremality exactly, compute
additive faces and covered components, move between the infinite and the
finite cyclic group models, and draw the standard diagrams as SVG.
"""

__version__ = "0.1.0"

from .compendium import (CompendiumEntry, construct, drlm_backward_3_slope,
                         equiv5_random_discont_1, gj_2_slope, gmic,
                         gomory_fractional, hildebrand_discont_3_slope_1,
                         sourced_entries)
from .complex2d import (AdditiveFaceSet, Face, delta_pi, delta_pi_limit,
                        enumerate_complex_vertices, face_from_triple,
                        generate_additive_faces,
                        generate_additive_faces_discontinuous,
                        generate_maximal_additive_faces, merit_index)
from .covering import (CoveredComponentSet, EdgeMove,
                       directly_covered_components,
                       generate_covered_components, uncovered_intervals)
from .errors import (ConstructionError, GroupCutError, InternalConsistencyError,
                     NoCandidateFError, NotSubadditiveError, ParameterError,
                     UnsourcedEntryError, UnsupportedCaseError)
from .extremality import (EquationSystem, ExtremalityReport,
                          SymbolicPerturbation, build_equation_system,
                          extremality_test, extremality_test_discrete,
                          find_epsilon, generate_symbolic)
from .minimality import (MinimalityReport, Violation, detect_zero_period,
                         find_f, minimality_test, minimality_test_discrete)
from .pwl import (AffinePiece, DiscreteFunction, PiecewiseFunction,
                  discrete_from_points_and_values, from_breakpoints_and_limits,
                  from_breakpoints_and_values, linear_combination,
                  random_piecewise_function)
from .rational import Rational, format_rational, parse_rational, to_rational
from .transforms import (automorphism, interpolate_to_infinite_group,
                         multiplicative_homomorphism, restrict_to_finite_group)

__all__ = [
    "AdditiveFaceSet", "AffinePiece", "CompendiumEntry", "ConstructionError",
    "CoveredComponentSet", "DiscreteFunction", "EdgeMove", "EquationSystem",
    "ExtremalityReport", "Face", "GroupCutError", "InternalConsistencyError",
    "MinimalityReport", "NoCandidateFError", "NotSubadditiveError",
    "ParameterError", "PiecewiseFunction", "Rational", "SymbolicPerturbation",
    "UnsourcedEntryError", "UnsupportedCaseError", "Violation", "automorphism",
    "build_equation_system", "construct", "delta_pi", "delta_pi_limit",
    "detect_zero_period", "directly_covered_components",
    "discrete_from_points_and_values", "drlm_backward_3_slope",
    "enumerate_complex_vertices", "equiv5_random_discont_1",
    "extremality_test", "extremality_test_discrete", "face_from_triple",
    "find_epsilon", "find_f", "format_rational", "from_breakpoints_and_limits",
    "from_breakpoints_and_values", "generate_additive_faces",
    "generate_additive_faces_discontinuous", "generate_covered_components",
    "generate_maximal_additive_faces", "generate_symbolic",
    "gj_2_slope", "gmic", "gomory_fractional", "hildebrand_discont_3_slope_1",
    "interpolate_to_infinite_group", "linear_combination", "merit_index",
    "minimality_test", "minimality_test_discrete",
    "multiplicative_homomorphism", "parse_rational",
    "random_piecewise_function", "restrict_to_finite_group", "sourced_entries",
    "to_rational", "uncovered_intervals",
]
