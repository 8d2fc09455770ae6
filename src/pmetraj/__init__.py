"""Second-order Lagrangian trajectory solver for the porous medium equation
f_t = (f^m)_xx, m > 1, on an interval with pinned boundary particles.

The solver evolves the particle map x(X, t) with a modified Crank-Nicolson
scheme whose implicit step is the gradient of a strictly convex functional,
solved by a damped self-concordant Newton iteration; the density is recovered
from the deformation gradient.  The discrete energy <f0 ln(D_h x), 1> is
dissipated unconditionally.

The names below are the package's API: runs and steps, the studies, the
problem, the grid and its differences, the diagnostics, the error norms,
the records and the errors.  How a step is solved (the functional F, its
gradient and Hessian, the Newton decrement, the tridiagonal solve) is not
part of it: checks and the tests import those from pmetraj.functional,
pmetraj.newton and pmetraj._kernels.  Every entry that takes a node or cell
field returns its result for a field of the right shape, given as an array
or as a list of numbers, and refuses any other with a ValueError or a
pmetraj error whose message starts with the argument's name.
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
from .functional import SolverParams
from .grid import Grid, d_centered_to_nodes, d_forward, d_wide
from .newton import NewtonReport
from .problem import (ProblemSpec, TrajectoryState, discrete_energy,
                      discrete_mass, initial_data_from_key, is_admissible,
                      make_problem, quadratic_bump, recover_density)
from .stepper import RunConfig, RunResult, advance, bootstrap, restart, run, steps

__version__ = "0.1.0"
