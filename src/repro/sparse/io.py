"""Reader/writer for the LibSVM text format.

The paper's datasets are distributed in this format (one instance per line,
``<label> <index>:<value> ...`` with 1-based feature indices).  The reader
is tolerant of comments (``#`` to end of line), blank lines and unsorted
indices, and rejects non-finite labels and values (``nan``, ``inf`` or an
overflowing literal such as ``1e400``) with the line and field; the writer emits canonical sorted 1-based output that LibSVM
itself can read back.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import IO, Iterable, Union

import numpy as np

from repro.exceptions import SparseFormatError
from repro.sparse.csr import CSRMatrix

__all__ = ["load_libsvm", "dump_libsvm"]

PathOrFile = Union[str, Path, IO[str]]


def load_libsvm(
    source: PathOrFile,
    *,
    n_features: int | None = None,
    zero_based: bool = False,
) -> tuple[CSRMatrix, np.ndarray]:
    """Parse LibSVM-format text into ``(X, y)``.

    Parameters
    ----------
    source:
        A path or an open text file.
    n_features:
        Force the column count (useful to align train/test splits).  When
        omitted it is inferred as the largest index seen.
    zero_based:
        Interpret feature indices as 0-based instead of the conventional
        1-based.

    Returns
    -------
    A ``(CSRMatrix, labels)`` pair; labels are float64 (LibSVM permits
    regression targets, classification callers round-trip integers exactly).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_libsvm(
                handle, n_features=n_features, zero_based=zero_based
            )

    labels: list[float] = []
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    max_index = -1
    offset = 0 if zero_based else 1
    for line_no, raw_line in enumerate(source, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            label = float(fields[0])
        except ValueError as exc:
            raise SparseFormatError(
                f"line {line_no}: bad label {fields[0]!r}"
            ) from exc
        if not math.isfinite(label):
            raise SparseFormatError(
                f"line {line_no}: non-finite label {fields[0]!r}"
            )
        labels.append(label)
        cols = np.empty(len(fields) - 1, dtype=np.int64)
        vals = np.empty(len(fields) - 1)
        for pos, field in enumerate(fields[1:]):
            try:
                index_text, value_text = field.split(":", 1)
                cols[pos] = int(index_text) - offset
                vals[pos] = float(value_text)
            except ValueError as exc:
                raise SparseFormatError(
                    f"line {line_no}: bad feature {field!r}"
                ) from exc
            if cols[pos] < 0:
                raise SparseFormatError(
                    f"line {line_no}: feature index {field!r} below "
                    f"{'0' if zero_based else '1'}"
                )
        finite = np.isfinite(vals)
        if not finite.all():
            field = fields[1 + int(np.argmin(finite))]
            raise SparseFormatError(
                f"line {line_no}: non-finite value in feature {field!r}"
            )
        if cols.size:
            max_index = max(max_index, int(cols.max()))
        rows.append((cols, vals))

    width = max_index + 1 if n_features is None else int(n_features)
    if max_index >= width:
        raise SparseFormatError(
            f"feature index {max_index} exceeds n_features={width}"
        )
    matrix = CSRMatrix.from_rows(rows, width)
    return matrix, np.asarray(labels)


def dump_libsvm(
    matrix: CSRMatrix,
    labels: Iterable[float],
    target: PathOrFile,
    *,
    zero_based: bool = False,
    label_format: str = "g",
) -> None:
    """Write ``(matrix, labels)`` in LibSVM text format."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            dump_libsvm(
                matrix,
                labels,
                handle,
                zero_based=zero_based,
                label_format=label_format,
            )
        return

    label_array = np.asarray(list(labels), dtype=np.float64)
    if label_array.size != matrix.shape[0]:
        raise SparseFormatError(
            f"{label_array.size} labels for {matrix.shape[0]} rows"
        )
    offset = 0 if zero_based else 1
    buffer = io.StringIO()
    for i in range(matrix.shape[0]):
        cols, vals = matrix.row(i)
        parts = [format(label_array[i], label_format)]
        parts.extend(
            f"{int(col) + offset}:{val:.17g}" for col, val in zip(cols, vals)
        )
        buffer.write(" ".join(parts))
        buffer.write("\n")
    target.write(buffer.getvalue())
