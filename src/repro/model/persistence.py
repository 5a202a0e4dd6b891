"""Versioned text-format save/load for trained MP-SVM models.

Layout (all header fields one per line, ``key value...``):

    repro-mpsvm 1
    kernel <name> [<param> <value>]...
    penalty <C>
    probability <0|1>
    strategy <ovo|ova>
    classes <k> <label>...
    n_pool <count> <n_features> [dense]
    svm <s> <t> <bias> <sigmoid A> <sigmoid B> <n_sv>
    <pool positions...>
    <coefficients...>
    ... (one svm stanza per pair) ...
    SV
    <pool rows in LibSVM sparse notation, one per line, 0-based>

Support vectors are stored once (the shared pool), so the file mirrors the
paper's in-memory sharing; LibSVM's own model format does the same.  SV
rows are always sparse text.  ``dense`` marks a dense pool: it reloads as
a dense float64 array and predicts the same bits as the saved model.
Files without it (sparse pools, older files) reload as :class:`CSRMatrix`.
Older readers ignore the extra token, so the format version stays 1.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Union

import numpy as np

from repro.exceptions import ModelFormatError
from repro.kernels.functions import kernel_from_name
from repro.model.binary import BinarySVMRecord
from repro.model.multiclass import MPSVMModel
from repro.multiclass.sv_sharing import PooledSVM, SupportVectorPool
from repro.probability.platt import SigmoidModel
from repro.sparse import CSRMatrix

__all__ = ["save_model", "load_model"]

FORMAT_NAME = "repro-mpsvm"
FORMAT_VERSION = 1

PathOrFile = Union[str, Path, IO[str]]


def save_model(model: MPSVMModel, target: PathOrFile) -> None:
    """Write ``model`` to ``target`` in the versioned text format."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            save_model(model, handle)
        return

    write = target.write
    write(f"{FORMAT_NAME} {FORMAT_VERSION}\n")
    params = " ".join(
        f"{key} {value:.17g}" for key, value in model.kernel.params().items()
    )
    write(f"kernel {model.kernel.name}{' ' + params if params else ''}\n")
    write(f"penalty {model.penalty:.17g}\n")
    write(f"probability {1 if model.probability else 0}\n")
    write(f"strategy {model.strategy}\n")
    # Training provenance: which compute backend produced the coefficients
    # and in which working precision.  Readers older than this line skip
    # nothing (they never saw it); this reader treats a missing line as
    # the float64 reference, which is what every older file was trained on.
    backend_name = str(model.metadata.get("backend", "numpy64"))
    backend_dtype = str(model.metadata.get("dtype", "float64"))
    write(f"backend {backend_name} {backend_dtype}\n")
    # ".17g" round-trips every float64 exactly; "g" (6 significant digits)
    # silently corrupts float labels like 1234567.5 on reload.  Integer
    # labels still render without a decimal point either way.
    labels = " ".join(format(label, ".17g") for label in model.classes)
    write(f"classes {model.n_classes} {labels}\n")
    pool = model.sv_pool
    dense = "" if isinstance(pool.pool_data, CSRMatrix) else " dense"
    write(f"n_pool {pool.n_pool} {pool.pool_data.shape[1]}{dense}\n")
    for record, pooled in zip(model.records, pool.svms):
        sigmoid = record.sigmoid
        a = sigmoid.a if sigmoid else 0.0
        b = sigmoid.b if sigmoid else 0.0
        write(
            f"svm {record.s} {record.t} {record.bias:.17g} "
            f"{a:.17g} {b:.17g} {record.n_support}\n"
        )
        write(" ".join(str(int(p)) for p in pooled.pool_positions) + "\n")
        write(" ".join(f"{c:.17g}" for c in pooled.coefficients) + "\n")
    write("SV\n")
    data = pool.pool_data
    if not isinstance(data, CSRMatrix):
        data = CSRMatrix.from_dense(np.asarray(data))
    for i in range(data.shape[0]):
        cols, vals = data.row(i)
        write(" ".join(f"{int(c)}:{v:.17g}" for c, v in zip(cols, vals)) + "\n")


def load_model(source: PathOrFile, *, backend: object = None) -> MPSVMModel:
    """Read a model written by :func:`save_model`.

    The pool is a dense float64 array if the ``n_pool`` line carries
    ``dense``, else a :class:`CSRMatrix`.

    ``backend`` declares the compute backend the caller will run the model
    under (a backend name or instance; ``None`` means the float64
    reference).  Files record the precision the
    model was trained in; a model trained in a narrower dtype (e.g. a
    float32 ``numpy32`` model) refuses to load under a backend of a
    different working dtype rather than silently reinterpreting its
    coefficients — pass the matching backend explicitly.  Files written
    before the ``backend`` header line load as float64-reference models.

    Malformed input (bad or missing fields, truncation, out-of-range or
    duplicate indices, any non-finite number) raises
    :class:`ModelFormatError` naming the line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_model(handle, backend=backend)
    from repro.backends import resolve_backend

    requested = resolve_backend(backend)
    reader = _LineReader([line.rstrip("\n") for line in source])
    try:
        return _parse_model(reader, requested)
    except (ValueError, IndexError) as exc:
        # ModelFormatError is a ValueError: every failure gets the line.
        detail = "missing field" if isinstance(exc, IndexError) else exc
        raise ModelFormatError(f"line {reader.cursor}: {detail}") from None


class _LineReader:
    def __init__(self, lines: list[str]) -> None:
        self.lines = lines
        self.cursor = 0  # 1-based number of the last line read

    def peek(self) -> str:
        return self.lines[self.cursor] if self.cursor < len(self.lines) else ""

    def next(self) -> str:
        if self.cursor >= len(self.lines):
            raise ModelFormatError("unexpected end of model file")
        self.cursor += 1
        return self.lines[self.cursor - 1]

    def expect(self, key: str) -> list[str]:
        line = self.next()
        fields = line.split()
        if not fields or fields[0] != key:
            raise ModelFormatError(f"expected {key!r} line, got {line!r}")
        return fields[1:]


def _finite(values: object, what: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise ModelFormatError(f"non-finite {what}")
    return array


def _parse_model(reader: _LineReader, requested: object) -> MPSVMModel:
    header = reader.next().split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise ModelFormatError(f"not a {FORMAT_NAME} file: {header!r}")
    try:
        version = int(header[1])
    except ValueError:
        raise ModelFormatError(
            f"malformed {FORMAT_NAME} version {header[1]!r}: expected an "
            f"integer (this writer produces version {FORMAT_VERSION})"
        ) from None
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported {FORMAT_NAME} format version: expected "
            f"{FORMAT_VERSION}, found {version}; re-save the model with "
            f"this version of repro (repro.save_model) or load it with a "
            f"release that writes version {version}"
        )

    kernel_fields = reader.expect("kernel")
    kernel_params = {}
    for key, value in zip(kernel_fields[1::2], kernel_fields[2::2]):
        kernel_params[key] = int(value) if key == "degree" else float(value)
    _finite(list(kernel_params.values()), "kernel parameter")
    kernel = kernel_from_name(kernel_fields[0], **kernel_params)

    penalty = float(_finite(float(reader.expect("penalty")[0]), "penalty"))
    probability = bool(int(reader.expect("probability")[0]))
    strategy = reader.expect("strategy")[0]

    # Optional provenance line (absent in files written before compute
    # backends existed; those were all trained by the float64 reference).
    recorded_backend, recorded_dtype = "numpy64", "float64"
    if reader.peek().startswith("backend "):
        backend_fields = reader.expect("backend")
        if len(backend_fields) != 2:
            raise ModelFormatError(
                f"malformed backend line: expected 'backend <name> <dtype>', "
                f"got fields {backend_fields!r}"
            )
        recorded_backend, recorded_dtype = backend_fields
    requested_dtype = np.dtype(requested.dtype).name
    if recorded_dtype != "float64" and requested_dtype != recorded_dtype:
        raise ModelFormatError(
            f"model was trained by backend {recorded_backend!r} in "
            f"{recorded_dtype}, but the requested backend "
            f"{requested.name!r} works in {requested_dtype}; refusing to "
            f"silently reinterpret the coefficients — pass "
            f"load_model(..., backend={recorded_backend!r}) (or another "
            f"{recorded_dtype} backend) to load this model"
        )

    class_fields = reader.expect("classes")
    n_classes = int(class_fields[0])
    classes = _finite([float(v) for v in class_fields[1 : 1 + n_classes]], "label")
    if classes.size != n_classes:
        raise ModelFormatError("class count does not match label list")
    if np.all(classes == classes.astype(np.int64)):
        classes = classes.astype(np.int64)

    pool_fields = reader.expect("n_pool")
    n_pool, n_features = int(pool_fields[0]), int(pool_fields[1])
    if pool_fields[2:] not in ([], ["dense"]):
        raise ModelFormatError(
            f"unknown n_pool storage {' '.join(pool_fields[2:])!r}: "
            f"expected nothing or 'dense'"
        )

    records: list[BinarySVMRecord] = []
    pooled: list[PooledSVM] = []
    n_svms = n_classes * (n_classes - 1) // 2 if strategy == "ovo" else n_classes
    for _ in range(n_svms):
        svm_fields = reader.expect("svm")
        s, t = int(svm_fields[0]), int(svm_fields[1])
        bias, sig_a, sig_b = _finite(
            [float(v) for v in svm_fields[2:5]], f"svm ({s},{t}) bias or sigmoid"
        )
        n_sv = int(svm_fields[5])
        positions = np.asarray([int(v) for v in reader.next().split()], dtype=np.int64)
        if positions.size and not 0 <= positions.min() <= positions.max() < n_pool:
            # Per-stanza counts are attacker/bitrot-controlled: positions
            # must index the declared pool, or prediction would fault (or
            # silently read wrong rows) long after loading succeeded.
            raise ModelFormatError(
                f"svm ({s},{t}): pool position out of range "
                f"[0, {n_pool}) in positions line"
            )
        coefficients = _finite(
            [float(v) for v in reader.next().split()], f"svm ({s},{t}) coefficient"
        )
        if positions.size != n_sv or coefficients.size != n_sv:
            raise ModelFormatError(f"svm ({s},{t}): SV count mismatch")
        sigmoid = SigmoidModel(a=sig_a, b=sig_b) if probability else None
        pooled.append(PooledSVM(s, t, positions, coefficients, bias))
        records.append(
            BinarySVMRecord(
                s=s, t=t,
                global_sv_indices=positions,  # original ids are not persisted
                coefficients=coefficients, bias=bias, sigmoid=sigmoid,
            )
        )

    if reader.next().strip() != "SV":
        raise ModelFormatError("missing SV section")
    rows = []
    for _ in range(n_pool):
        fields = [f.split(":", 1) for f in reader.next().split()]
        cols = np.asarray([int(c) for c, _ in fields], dtype=np.int64)
        vals = _finite([float(v) for _, v in fields], "SV value")
        if cols.size and not (0 <= cols.min() <= cols.max() < n_features):
            raise ModelFormatError(f"SV column out of range [0, {n_features})")
        if np.unique(cols).size != cols.size:
            raise ModelFormatError("duplicate SV column")
        rows.append((cols, vals))
    pool_data = CSRMatrix.from_rows(rows, n_features)
    if pool_fields[2:]:
        pool_data = pool_data.toarray()
    pool = SupportVectorPool(pool_data, np.arange(n_pool, dtype=np.int64), pooled)
    return MPSVMModel(
        classes=classes,
        kernel=kernel,
        penalty=penalty,
        records=records,
        sv_pool=pool,
        probability=probability,
        strategy=strategy,
        metadata={"backend": recorded_backend, "dtype": recorded_dtype},
    )
