"""Numerical laboratory for fractional competition-diffusion systems.

The package realizes the fractional Laplacian through its degenerate
elliptic extension on a truncated upper half-space and verifies, at desk
scale, the quantitative machinery of segregation problems: scaled
monotonicity functionals, frequency quotients, weighted hemisphere
eigenvalues with the two-cap partition optimum, absorbing-boundary decay
bounds and uniform Hölder-seminorm behavior under strong competition.
"""

from .core import (FracParams, NamedSolution, comparison_f, eval_solution,
                   gamma_inverse, gamma_map)
from .errors import ConfigurationError, ConvergenceError
from .grid import (BoundaryData, Field, GridConfig, HalfSpaceGrid, assemble_La,
                   build_grid, dtn_trace, field_from_function,
                   interpolate_field, read_snapshot, solve_linear,
                   write_snapshot)
from .diagnostics import (MonotonicityReport, RadialProfile, acf_one_phase,
                          almgren, holder_seminorm, log_derivative_residual,
                          monotonicity_check, pohozaev_residual,
                          trace_seminorm)
from .spectral import (ComparisonProfile, PeriodicGrid1D, PVResult,
                       comparison_pv, frac_lap_pv, frac_lap_symbol)
from .sphere import (EquatorRegion, HemisphereMesh, lambda1, lambda1_codim1,
                     nu_acf_caps)
from .system import (CompetitionProblem, SolveResult, solve_system, sweep_beta,
                     trace_overlap)

__version__ = "0.1.0"
