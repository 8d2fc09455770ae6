"""Second-order Lagrangian trajectory solver for the porous medium equation
f_t = (f^m)_xx, m > 1, on an interval with pinned boundary particles.

The solver evolves the particle map x(X, t) with a modified Crank-Nicolson
scheme whose implicit step is the gradient of a strictly convex functional,
solved by a damped self-concordant Newton iteration; the density is recovered
from the deformation gradient.  The discrete energy <f0 ln(D_h x), 1> is
dissipated unconditionally.
"""

from ._kernels import backend_name
from .analysis import (ConvergenceReport, ErrorRecord, StudyResult,
                       convergence_studies, convergence_study,
                       density_error_norms, observed_orders,
                       refinement_study, run_many, trajectory_error_norms)
from .errors import (CoefficientOverflowError, ConfigurationError,
                     DataScaleError, DegenerateMeshError, EnergyViolationError,
                     NonconvergenceError, SingularSystemError, SolverError,
                     SpdViolationError)
from .functional import (SchemeCoefficients, SolverParams,
                         build_coefficients, compute_s_h, eval_F,
                         g_convex_integral, hessian_coefficients,
                         mass_coefficient, q1_oracle, residual,
                         secant_ratio_R, slope_derivative_W)
from .grid import Grid, d_centered_to_nodes, d_forward, d_wide
from .newton import (LAMBDA_STAR, NewtonReport, newton_decrement_lambda,
                     newton_step, self_concordance_a, solve_tridiagonal)
from .problem import (ProblemSpec, TrajectoryState, discrete_energy,
                      discrete_mass, initial_data_from_key, is_admissible,
                      make_problem, quadratic_bump, recover_density)
from .stepper import RunConfig, RunResult, advance, bootstrap, restart, run, steps

__version__ = "0.1.0"
