"""Fractional backward Jacobi spectral approximation and a collocation solver
for weakly singular adjoint Volterra integral equations on [0,1].

The package namespace holds the solver entry points, the built-in problems,
the error norms and the one numerical exception they raise; everything else
is imported from its module."""

from .approximation import eval_grid, linf_error, weighted_l2_error
from .backward_basis import BackwardSpec
from .jacobi_core import JacobiParams, NumericalError
from .problems import case_i, case_ii, example1, oracle_kr
from .volterra_solver import ProblemDefinition, solve

__version__ = "0.1.0"
