"""Correctness checks recomputed in plain NumPy, independent of the solver.

None of these read the solver's own bookkeeping: the KKT gap is rebuilt
from the saved support vectors and the raw inputs, so a solver that
reports convergence it did not reach fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "KKT_RELATIVE_SLACK",
    "PROBABILITY_SUM_TOL",
    "digest",
    "kkt_gaps",
    "probabilities_ok",
    "to_dense",
]

# The solver stops as soon as its maintained gap drops below epsilon, so
# the true gap sits just under it; recomputing the gradient in another
# summation order moves it by float64 rounding only.
KKT_RELATIVE_SLACK = 1e-6
PROBABILITY_SUM_TOL = 1e-9


def to_dense(data: object) -> np.ndarray:
    """Dense float64 copy of a dense array or a CSR matrix (indptr/indices/data)."""
    if hasattr(data, "indptr"):
        m, n = data.shape
        indptr = np.asarray(data.indptr)
        out = np.zeros((m, n))
        rows = np.repeat(np.arange(m), np.diff(indptr))
        out[rows, np.asarray(data.indices)] = np.asarray(data.data)
        return out
    return np.array(data, dtype=np.float64)


def digest(*arrays: object) -> str:
    """SHA-256 over the shapes and raw bytes of the given inputs."""
    h = hashlib.sha256()
    for item in arrays:
        parts = (
            [item.indptr, item.indices, item.data]
            if hasattr(item, "indptr")
            else [np.asarray(item)]
        )
        h.update(repr(tuple(item.shape)).encode())
        for part in parts:
            part = np.ascontiguousarray(part)
            h.update(str(part.dtype).encode())
            h.update(part.tobytes())
    return h.hexdigest()


def kkt_gaps(
    model: object, x_train: np.ndarray, y_train: np.ndarray, gamma: float, penalty: float
) -> list[float]:
    """The KKT gap of every binary SVM of a one-vs-one Gaussian model.

    For the pair (s, t) -- class s labelled +1, class t labelled -1 --
    alpha comes from the stored coefficients (``alpha_i y_i``), the
    gradient ``f_i = sum_j alpha_j y_j K(x_i, x_j) - y_i`` is recomputed
    over every training instance of the pair, and the gap is
    ``max f over I_low - min f over I_up``.  A coefficient outside the box
    ``[0, C]`` or a support vector outside the pair yields ``inf``.
    """
    x = np.asarray(x_train, dtype=np.float64)
    y = np.asarray(y_train)
    classes = np.unique(y)
    sq = np.einsum("ij,ij->i", x, x)
    # One kernel block of every training row against every support
    # vector of any pair; each pair reads its rows and columns from it.
    union = np.unique(np.concatenate([r.global_sv_indices for r in model.records]))
    column = np.full(y.size, -1)
    column[union] = np.arange(union.size)
    kernel = x @ x[union].T
    kernel *= -2.0
    kernel += sq[:, None]
    kernel += sq[union][None, :]
    np.maximum(kernel, 0.0, out=kernel)
    kernel *= -gamma
    np.exp(kernel, out=kernel)
    position = np.full(y.size, -1)
    gaps = []
    for record in model.records:
        members = np.concatenate(
            [np.flatnonzero(y == classes[record.s]), np.flatnonzero(y == classes[record.t])]
        )
        labels = np.where(y[members] == classes[record.s], 1.0, -1.0)
        position[:] = -1
        position[members] = np.arange(members.size)
        sv = np.asarray(record.global_sv_indices)
        local = position[sv]
        coef = np.asarray(record.coefficients, dtype=np.float64)
        alpha = np.zeros(members.size)
        if np.any(local < 0):
            gaps.append(float("inf"))
            continue
        alpha[local] = coef * labels[local]
        if np.any(alpha < 0) or np.any(alpha > penalty):
            gaps.append(float("inf"))
            continue
        f = kernel[np.ix_(members, column[sv])] @ coef - labels
        up = ((labels > 0) & (alpha < penalty)) | ((labels < 0) & (alpha > 0))
        low = ((labels > 0) & (alpha > 0)) | ((labels < 0) & (alpha < penalty))
        gaps.append(float(f[low].max() - f[up].min()) if up.any() and low.any() else 0.0)
    return gaps


def probabilities_ok(probabilities: np.ndarray, n_rows: int, n_classes: int) -> bool:
    """Finite, shaped ``(n_rows, n_classes)``, each row summing to 1."""
    p = np.asarray(probabilities)
    return (
        p.shape == (n_rows, n_classes)
        and bool(np.all(np.isfinite(p)))
        and bool(np.all(np.abs(p.sum(axis=1) - 1.0) <= PROBABILITY_SUM_TOL))
    )
