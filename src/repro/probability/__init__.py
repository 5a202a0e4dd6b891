"""Probability machinery for probabilistic SVMs.

- :mod:`repro.probability.platt` — Platt sigmoid fitting (Eqs. 12/13) via
  Newton's method with backtracking, including the paper's parallel
  candidate-step evaluation (Section 3.3.2).
- :mod:`repro.probability.pairwise` — Wu-Lin-Weng pairwise coupling
  (Problem 14 / Eq. 15) solved by Gaussian elimination, plus LibSVM's
  iterative method as a cross-check.
- :mod:`repro.probability.linalg` — the scalar Gaussian elimination with
  partial pivoting; the batched solve the coupling uses is a compute-backend
  primitive (:mod:`repro.backends`).
"""

from repro.probability.linalg import gaussian_elimination
from repro.probability.pairwise import (
    couple_batch,
    couple_probabilities,
    pairwise_matrix_from_estimates,
)
from repro.probability.platt import (
    SigmoidModel,
    fit_sigmoid,
    fit_sigmoids,
    sigmoid_predict,
)

__all__ = [
    "SigmoidModel",
    "couple_batch",
    "couple_probabilities",
    "fit_sigmoid",
    "fit_sigmoids",
    "gaussian_elimination",
    "pairwise_matrix_from_estimates",
    "sigmoid_predict",
]
