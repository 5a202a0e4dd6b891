"""SVM training solvers.

- :mod:`repro.solvers.smo` — the classic Sequential Minimal Optimization
  solver with second-order working-set selection (Section 2.1.1 /
  Algorithm 1), with LibSVM's shrinking as a switch and one LRU kernel
  buffer; used by the LibSVM, GPU-baseline and GPUSVM baselines.
- :mod:`repro.solvers.batch_smo` — the paper's batched working-set solver
  (Section 3.3.1): q new violators per round, batched kernel-row
  computation, FIFO GPU buffer reuse, and delta-adaptive early termination
  of the inner subproblem.
- :mod:`repro.solvers.warm_start` — reconstruction of ``(alpha, f)``
  from a previously trained model so incremental retraining (new data,
  changed C/gamma) starts next to the old optimum instead of from zero.
"""

from repro.solvers.base import (
    SolverResult,
    bias_from_f,
    dual_objective,
    lower_mask,
    optimality_gap,
    upper_mask,
)
from repro.solvers.batch_smo import BatchSMOSolver
from repro.solvers.smo import ClassicSMOSolver
from repro.solvers.subproblem import solve_subproblem
from repro.solvers.warm_start import (
    map_prior_alphas,
    reconstruct_gradient,
    rescale_into_box,
    warm_start_pair_state,
)
from repro.solvers.working_set import select_new_violators

__all__ = [
    "BatchSMOSolver",
    "ClassicSMOSolver",
    "SolverResult",
    "bias_from_f",
    "dual_objective",
    "lower_mask",
    "map_prior_alphas",
    "optimality_gap",
    "reconstruct_gradient",
    "rescale_into_box",
    "select_new_violators",
    "solve_subproblem",
    "upper_mask",
    "warm_start_pair_state",
]
