"""Numerics for 2x2 canonical systems with one inner singularity.

Fundamental solutions at complex spectral parameter, regularised boundary
values at the singularity, and the factorised assembly of the matrix
solution across it, validated end-to-end against a built-in closed-form
problem.  See the README for the CLI and the JSON problem schema.
"""

from .boundary import (RegularisedBoundary, gamma_columns, gamma_vec,
                       interface_residual, neville_limit, solve_from_gamma)
from .errors import (CanonsysError, ConditioningError, ConfigError,
                     DomainError, EvaluationError, IndeterminateError,
                     IntegrationError, LimitError, PoleError,
                     SingularityProximityError, UnsupportedSpecError)
from .example import (ExampleConfig, closed_N, closed_Uminus, closed_Uplus,
                      closed_Uplus_inv, closed_W, closed_p, closed_w1,
                      example_problem, example_problem_dict, reference_W,
                      run_validation)
from .hamiltonian import (ConditionReport, Hamiltonian, IndefHamiltonianA,
                          IndivisibleReport, build_p, build_R, check_HS,
                          check_I, check_psd, eval_H, eval_p,
                          hamiltonian_from_spec, identity_hamiltonian,
                          indef_hamiltonian, indivisible_type,
                          problem_from_dict, symplectic_j)
from .monodromy import (KernelSignature, MonodromyFactorisation, assemble_W,
                        compare_discrete, default_v, factorisation,
                        kernel_gram, m_matrix, monodromy_matrix, u_minus,
                        u_plus, weyl_intermediate)
from .solver import (ClosedFormSampler, CombinedSampler, MatrixSolution,
                     SolutionSampler, fundamental, greens_residual, solve_row)
from .wpoly import (DeltaReport, WFunction, build_w_family, delta_diagnostic,
                    omega_sequence, volterra_transform, w_family_for,
                    w_n_diagonal, w_n_general)

__version__ = "0.1.0"

# The one integration path is numpy's; the name stays for callers that record it.
BACKEND = "numpy"

__all__ = [
    # backend
    "BACKEND",
    # boundary
    "RegularisedBoundary", "gamma_columns", "gamma_vec", "interface_residual",
    "neville_limit", "solve_from_gamma",
    # errors
    "CanonsysError", "ConditioningError", "ConfigError", "DomainError",
    "EvaluationError", "IndeterminateError", "IntegrationError", "LimitError",
    "PoleError", "SingularityProximityError", "UnsupportedSpecError",
    # example
    "ExampleConfig", "closed_N", "closed_Uminus", "closed_Uplus",
    "closed_Uplus_inv", "closed_W", "closed_p", "closed_w1", "example_problem",
    "example_problem_dict", "reference_W", "run_validation",
    # hamiltonian
    "ConditionReport", "Hamiltonian", "IndefHamiltonianA", "IndivisibleReport",
    "build_p", "build_R", "check_HS", "check_I", "check_psd", "eval_H",
    "eval_p", "hamiltonian_from_spec", "identity_hamiltonian",
    "indef_hamiltonian", "indivisible_type", "problem_from_dict",
    "symplectic_j",
    # monodromy
    "KernelSignature", "MonodromyFactorisation", "assemble_W",
    "compare_discrete", "default_v", "factorisation", "kernel_gram",
    "m_matrix", "monodromy_matrix", "u_minus", "u_plus", "weyl_intermediate",
    # solver
    "ClosedFormSampler", "CombinedSampler", "MatrixSolution",
    "SolutionSampler", "fundamental", "greens_residual", "solve_row",
    # wpoly
    "DeltaReport", "WFunction", "build_w_family", "delta_diagnostic",
    "omega_sequence", "volterra_transform", "w_family_for", "w_n_diagonal",
    "w_n_general",
]
