"""Exact computations with graded general linear Lie colour (super)algebras."""

from .grading import CommutativeFactor, Degree, GradingGroup, ShapeError
from .gl import (GlElement, GradedSpace, ResourceBoundExceeded,
                 SpaceMismatch, bilinear_form, bracket, jacobi_defect,
                 pbw_dimension_nilradical, positive_roots, rho, skew_defect,
                 supertrace, weight_inner, weyl_orbit)
from .partitions import (count_hook_tableaux, count_standard_tableaux,
                         dim_glN, dim_glN_floor_bits, hook_partitions,
                         hook_table, in_hook, lambda_sharp, partitions_of,
                         transpose)
from .presets import builtin_spaces, preset_space
from .reps import (DualWeightUnsupported, GramReport, KacModule,
                   UnsupportedFactor, UnsupportedSpace, UnitarisableVerdict,
                   casimir_defect, casimir_eigenvalue, classify_unitarisable,
                   dual_weight, gram_report, is_finite_dimensional,
                   kac_dimension, typicality)
from .scalars import Scalar
from .tensor import (SymGroupElement, TensorVector, apply_permutation,
                     braiding_apply, dual_act, gl_act_tensor,
                     highest_weight_vector, schur_weyl_table)
from .weyl import (FockVector, WeylElement, dual_pair_generators,
                   fft_check, fock_apply, glq_relations_check,
                   glvv_decomposition, howe_dimension_sweep,
                   invariant_dimension, invariant_dimensions,
                   verify_dual_pair, weyl_bracket, weyl_multiply)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
