"""Transductive generalization-gap toolkit for sparse graph networks.

Library layout:

  graphs       CSR graphs, normalized adjacency, polynomial filters, SBM
  activations  the power-smoothed ReLU family
  models       model specs, parameter layouts, forward passes
  gradients    analytic per-sample / batched gradients, FD oracle
  training     single-draw stochastic training with trajectory tracing
  constants    measured constants and closed-form Lipschitz/Hoelder values
  bounds       the fully evaluable gap certificate and rate surrogates
  datasets     bundle I/O, splits, synthetic data
  experiments  multi-seed runs and gap reports
  cli          command-line front end
"""

import os

# Output bytes depend on the BLAS thread count: pin it before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from .activations import ActivationSpec, act_deriv, act_eval
from .bounds import (BoundInputs, BoundReport, complexity_upper,
                     concentration_terms, excess_risk_rate, gap_certificate,
                     gradient_norm_diagnostics, initial_bounds, rate_factor)
from .constants import (ConstantsReport, compute_cw, compute_cx,
                        constants_report, gradient_smoothness, loss_lipschitz,
                        measure_norms, spectral_norm)
from .datasets import (DatasetBundle, Split, load_bundle, make_split,
                       row_normalize, save_bundle, sbm_bundle)
from .experiments import (ExperimentConfig, GapReport, curve_report,
                          model_spec_for, run_experiment, run_single)
from .gradients import fd_gradient, grad_mean, grad_sample, max_relative_error
from .graphs import (DegreeStats, PropagationMatrix, SparseGraph, appnp_apply,
                     appnp_filter, build_graph, degree_bound, drop_edge,
                     gpr_powers, inf_norm_power, normalized_adjacency,
                     sbm_generate)
from .models import (ForwardCache, ModelSpec, ParamLayout, PropOps, forward,
                     init_params, layout_for, load_params, loss_sample,
                     save_params, softmax_xent)
from .training import (LrSchedule, SgdConfig, TrainTrace, evaluate,
                       gradient_gap, run_sgd, schedule_offset)

__version__ = "0.1.0"
