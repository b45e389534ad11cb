"""Maslov-type indices, metaplectic Gaussian calculus, and spinor-holonomy
verification on embedded Lagrangian submanifolds of standard phase space."""

from .core import (DEFAULT_TOLERANCES, LagrangianFrame, SymplecticMatrix,
                   Tolerances, UnitaryComplex, embed_unitary, intersection_dim,
                   l0_frame, lagrangian_from_souriau, line_frame,
                   random_lagrangian, random_unitary, souriau_map,
                   standard_j, unitary_from_symplectic)
from .errors import (CaseError, ConditioningError, DimensionMismatch,
                     ImmersionError, InvariantViolation, MaslovError,
                     SamplingError, SpecError, StateDomainError,
                     TransversalityError)
from .geometry import (LagrangianChart, ParamPath, TransportResult,
                       circle_chart, curve_chart_from_series,
                       flat_plane_chart, gradient_graph_chart,
                       product_torus_chart, tangent_lagrangian_path,
                       transport_frame, verify_corollary1, verify_theorem1,
                       verify_theorem2)
from .index import (CoverPoint, DeckAction, LagrangianPath, clm_index,
                    cover_action, kashiwara_signature, leray_index,
                    leray_transverse, lift_path, mu_hat_on_cover,
                    random_cover_point)
from .metaplectic import (CONST, DELTA, Chirp, Dilate, DistributionState,
                          GaussianAmplitude, JHat, Polynomial,
                          QuadraticFourier, adjoint_quad_fourier,
                          apply_generator, apply_quad_fourier,
                          apply_to_delta, apply_word_to_delta,
                          gaussian_integral, ground_state, hermite_state,
                          l2_inner, l2_norm_squared, lift_frame_path,
                          lift_frame_path_trace, mu_hat, mu_hat_composed,
                          oscillator_level, pin_branch_orthogonal,
                          pin_branch_transverse, quad_fourier_from_symplectic,
                          symplectic_from_quad_fourier)

__version__ = "0.1.0"
