"""Conformal mirror descent with logarithmic divergences.

Core geometry (costs, mirror maps, divergences, the conformal Hessian metric),
gradient flows with three Euler discretizations and convergence diagnostics,
deformed exponential families with an online natural-gradient estimator, and
Dirichlet-transport gradient flows on the unit simplex, whose maps take the
exponent alpha of a diversity generator and are stated in closed form.

The package holds what the experiment runners call and what names an object
of the paper; numpy is its only dependency. Finite-difference and quadrature
oracles that only verify these objects live with the tests.
"""

from .core import (BREGMAN_LIMIT, Domain, DomainError, DualPair, Generator,
                   GeometryError, RegularityError, SolverError,
                   bregman_div, conjugate_value, inverse_mirror, lambda_mirror,
                   log_cost, log_div, log_div_self_dual, metric,
                   metric_inverse_sm, mirror_jacobian)
from .flows import (ConvergenceReport, FlowState, Objective,
                    conformal_smoothness_estimate, discrete_lyapunov_run,
                    dual_logdiv_objective, geodesic_flow_check, integrate,
                    lyapunov_continuous, primal_logdiv_objective,
                    quadratic_objective, rhs_dual, rhs_primal,
                    step_adaptive_mirror, step_dual_euler, step_primal_euler,
                    time_change_compare)
from .generators import (dirichlet_generator, linear_generator,
                         log_reciprocal_generator, quadratic_generator,
                         student_t_generator, table_generators)
from .expfam import (DirichletPerturbModel, LambdaExpFamily, OnlineState,
                     StudentTParams, dirichlet_family, dirichlet_perturb_sample,
                     log_loss, online_update, start_state, student_t_coords,
                     student_t_family, student_t_inverse_mirror,
                     student_t_params, student_t_sample)
from .simplex import (as_simplex, barycenter, dirichlet_cost,
                      directional_derivs, perturb, simplex_flow_rhs, step_conformal,
                      step_entropic, transport_map)

__version__ = "0.1.0"
