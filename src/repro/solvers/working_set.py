"""Selection of the q new violating instances (Section 3.3.1).

"We first sort the training instances based on their optimality indicators
in ascending order.  Then, we choose the top q/2 training instances whose
``y_i alpha_i`` can be increased; and we choose the bottom q/2 training
instances whose ``y_i alpha_i`` can be decreased."

Instances with small ``f`` that can move up and instances with large ``f``
that can move down are exactly the violators of Eq. (9); choosing the
extremes maximises the expected improvement of the dual objective.

The MP-SVM level (Section 3.3.2) runs many binary SVMs at once, so
:func:`select_new_violators` selects for a *stack* of them: one stable
sort of the padded ``(S, n)`` indicator matrix, then each row's picks by a
running count along its sorted order.  Padded lanes are in neither
violator set, so no row picks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["ViolatorSelection", "select_new_violators", "stack_rows"]


@dataclass
class ViolatorSelection:
    """One member's selection inputs; its arrays are not mutated."""

    f: np.ndarray  # optimality indicators
    up: np.ndarray  # I_up mask: y * alpha can rise
    low: np.ndarray  # I_low mask: y * alpha can fall
    wanted: int  # q: up to q/2 picks from each end
    exclude: Optional[np.ndarray] = None  # indices already in the working set


def stack_rows(arrays: Sequence[np.ndarray], width: int) -> np.ndarray:
    """The 1-D ``arrays`` as the rows of one ``(S, width)`` array, zero-padded.

    A single array of the full width comes back as a ``(1, width)`` view,
    not a copy: callers only read the stack.
    """
    if len(arrays) == 1 and arrays[0].size == width:
        return arrays[0][None]
    out = np.zeros((len(arrays), width), dtype=arrays[0].dtype)
    for row, array in enumerate(arrays):
        out[row, : array.size] = array
    return out


def select_new_violators(selections: Sequence[ViolatorSelection]) -> list[np.ndarray]:
    """Pick up to ``wanted`` violating instances (q/2 from each end) per member.

    ``exclude`` holds indices already in the working set (the retained
    half); they are skipped so the new picks genuinely refresh the set.
    Returns one index array per selection, in order: the top picks in
    ascending ``f``, then the bottom picks in descending ``f`` (possibly
    fewer than ``wanted`` near convergence, when few eligible violators
    remain).  Charges nothing: the caller charges each member's sort and
    mask pass on its own engine.
    """
    if not selections:
        return []
    for selection in selections:
        if selection.wanted < 2:
            raise ValidationError(f"q must be >= 2, got {selection.wanted}")
    count = len(selections)
    width = max(s.f.size for s in selections)
    f = stack_rows([s.f for s in selections], width)
    up = stack_rows([s.up for s in selections], width)
    low = stack_rows([s.low for s in selections], width)
    excluded = np.zeros((count, width), dtype=bool)
    for row, selection in enumerate(selections):
        if selection.exclude is not None and len(selection.exclude):
            excluded[row, : selection.f.size][
                np.asarray(selection.exclude, dtype=np.int64)
            ] = True
    half = np.array([s.wanted // 2 for s in selections])[:, None]

    order = f.argsort(axis=1, kind="stable")  # ascending (Alg. 2 line 6)
    flat = order + np.arange(0, count * width, width)[:, None]
    eligible = ~excluded
    # Top of each row's order: the first q/2 eligible whose y*alpha can rise.
    top = (up & eligible).take(flat)
    top &= top.cumsum(axis=1) <= half
    # Bottom: the last q/2 eligible whose y*alpha can fall, not taken above.
    bottom = ((low & eligible).take(flat) & ~top)[:, ::-1]
    bottom &= bottom.cumsum(axis=1) <= half

    top_ids, bottom_ids = order[top], order[:, ::-1][bottom]
    top_ends = top.sum(axis=1).cumsum().tolist()
    bottom_ends = bottom.sum(axis=1).cumsum().tolist()
    return [
        np.concatenate([top_ids[t0:t1], bottom_ids[b0:b1]]).astype(np.int64, copy=False)
        for t0, t1, b0, b1 in zip(
            [0] + top_ends, top_ends, [0] + bottom_ends, bottom_ends
        )
    ]
