"""Conformal mirror descent with logarithmic divergences.

Core geometry (costs, mirror maps, divergences, the conformal Hessian metric),
gradient flows with their RK4 integrator, the adaptive mirror step and
convergence diagnostics, deformed exponential families with an online
natural-gradient estimator, and Dirichlet-transport gradient flows on the unit
simplex, whose maps take the exponent alpha of a diversity generator and are
stated in closed form.

Rule: ``src/xmd`` holds what an experiment runner or the benchmark reaches,
and checks live in ``tests/``: a function that only a test calls belongs in
``tests/oracles.py``. A reach test in ``tests/test_experiments.py`` runs the
six runners and fails on any function, method or property defined here that
none of them enters, apart from an allow-list that gives each exception its
reason. numpy is the package's only dependency.
"""

from .core import (BREGMAN_LIMIT, Domain, DomainError, DualPair, Generator,
                   GeometryError, RegularityError, SolverError, inverse_mirror,
                   lambda_mirror, log_cost, log_div, metric)
from .flows import (ConvergenceReport, FlowState, Objective,
                    conformal_smoothness_estimate, discrete_lyapunov_run,
                    dual_logdiv_objective, geodesic_flow_check, integrate,
                    lyapunov_continuous, quadratic_objective, rhs_dual, rhs_primal,
                    step_adaptive_mirror, time_change_compare)
from .generators import (dirichlet_generator, log_reciprocal_generator,
                         quadratic_generator, student_t_generator)
from .expfam import (DirichletPerturbModel, LambdaExpFamily, OnlineState,
                     StudentTParams, dirichlet_family, dirichlet_perturb_sample,
                     online_update, start_state, student_t_family,
                     student_t_params, student_t_sample)
from .simplex import (as_simplex, barycenter, dirichlet_cost,
                      directional_derivs, perturb, simplex_flow_rhs, step_conformal,
                      step_entropic, transport_map)

__version__ = "0.1.0"
