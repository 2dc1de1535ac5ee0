# -*- coding: utf-8 -*-
"""
Conditional gradient splitting for composite convex problems.

The core solver minimizes f + g over a compact convex set through a
partial-linearization oracle with a certified surrogate gap. Shipped
applications: entropic/Laplacian-regularized optimal transport (with a
Sinkhorn oracle and an exact transportation-simplex LMO) and the
L1-ball-constrained elastic-net (projection oracle, SPG and projected
gradient baselines). The ``gcgs`` console script runs both experiment
families and writes CSV/JSON traces.
"""

from .numerics import (EvaluationError, as_matrix, as_vector,
                       finite_diff_grad, golden_section_min, make_rng)
from .solver import (IterationRecord, OracleError, ProjectedGradient,
                     SolveResult, SolverConfig, SpectralProjectedGradient,
                     SplitObjective, StallError, cg_adapter, check_fixed_point,
                     estimate_curvature, solve, step_armijo, step_exact,
                     step_fixed, surrogate_gap)
from .transport import (ConvergenceError, DegeneracyError, TransportProblem,
                        as_histogram, knn_laplacian, laplacian_reg,
                        laplacian_reg_grad, load_matrix_csv,
                        make_cluster_data, marginal_violation, negentropy,
                        negentropy_grad, ot_cg_split, ot_objective, ot_split,
                        save_matrix_csv, sinkhorn, squared_distances,
                        transport_lmo, uniform_histogram, validate_plan)
from .elasticnet import (Dataset, ElasticNetProblem, en_cg_split, en_oracle,
                         en_split, fixed_point_residual, l1_lmo,
                         load_csv_dataset, loss_eval, loss_grad,
                         make_toy_classification, objective, objective_grad,
                         pg_solve, problem_from_dataset, project_l1,
                         save_csv_dataset, spg_solve)

__version__ = "0.1.0"
