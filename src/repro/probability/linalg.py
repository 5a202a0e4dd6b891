"""Dense linear solves (moved to :mod:`repro.backends.reference`).

The partial-pivot Gaussian elimination this module used to implement is
now a compute-backend primitive — the batched solve is dispatched through
:meth:`repro.backends.ComputeBackend.gaussian_elimination_batch`, and the
float64 reference implementation lives in
:mod:`repro.backends.reference`.  :func:`gaussian_elimination` stays here
as a plain alias: it remains the documented scalar solve.
"""

from __future__ import annotations

from repro.backends.reference import gaussian_elimination

__all__ = ["gaussian_elimination"]
