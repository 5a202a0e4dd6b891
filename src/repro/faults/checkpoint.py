"""Versioned training checkpoints: lossless session state on the host.

A checkpoint captures, per pairwise problem, the complete resumable
state of its :class:`~repro.solvers.batch_smo.BatchSMOSession` — the
dual weights ``alpha``, the optimality indicators ``f``, the round and
inner-iteration counters, the working-set FIFO and the termination
flags.  That tuple fully determines every future iterate of the solver
(kernel values are pure functions of the data rows under the row-pure tile
discipline), so a session restored from a checkpoint replays *bitwise*
the rounds the lost device would have run — the foundation of the
recovery path's model-parity guarantee.

The serialized form mirrors the registry's conventions (see
``repro.registry.store``): a JSON document with an explicit ``format``
name and integer ``version``, arrays encoded as lossless base64 of
their raw float64 bytes, written via temp-file + atomic rename so a
reader never observes a torn checkpoint.  Unknown formats, newer
versions and corrupt payloads raise
:class:`~repro.exceptions.CheckpointError`, never a silent wrong
restore.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.exceptions import CheckpointError

__all__ = ["SessionSnapshot", "TrainingCheckpoint", "CheckpointStore"]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1


def _encode(array: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()
    ).decode("ascii")


def _decode(payload: str, n: int) -> np.ndarray:
    try:
        raw = base64.b64decode(payload.encode("ascii"), validate=True)
    except Exception as exc:
        raise CheckpointError(f"array payload is not valid base64: {exc}") from exc
    array = np.frombuffer(raw, dtype=np.float64)
    if array.size != n:
        raise CheckpointError(
            f"array payload has {array.size} elements, expected {n}"
        )
    return array.copy()


@dataclass(frozen=True)
class SessionSnapshot:
    """Resumable state of one problem's solver session at a wave boundary."""

    problem_index: int
    alpha: np.ndarray
    f: np.ndarray
    rounds: int
    inner_total: int
    ws_order: tuple
    stalled: int
    converged: bool
    finished: bool

    @classmethod
    def capture(cls, index: int, session) -> "SessionSnapshot":
        """Snapshot ``session`` (a ``BatchSMOSession``) under ``index``."""
        state = session.snapshot_state()
        return cls(
            problem_index=index,
            alpha=state["alpha"],
            f=state["f"],
            rounds=state["rounds"],
            inner_total=state["inner_total"],
            ws_order=tuple(state["ws_order"]),
            stalled=state["stalled"],
            converged=state["converged"],
            finished=state["finished"],
        )

    def restore(self, session) -> None:
        """Put ``session`` back into the captured state."""
        session.restore_state(
            {
                "alpha": self.alpha,
                "f": self.f,
                "rounds": self.rounds,
                "inner_total": self.inner_total,
                "ws_order": list(self.ws_order),
                "stalled": self.stalled,
                "converged": self.converged,
                "finished": self.finished,
            }
        )

    @property
    def n(self) -> int:
        """Instance count of the binary problem."""
        return int(self.alpha.size)

    @property
    def nbytes(self) -> int:
        """Device-to-host payload this snapshot costs to ship."""
        return int(self.alpha.nbytes + self.f.nbytes + 8 * len(self.ws_order))

    def to_json(self) -> dict:
        """The snapshot's JSON object form (lossless)."""
        return {
            "problem_index": int(self.problem_index),
            "n": self.n,
            "alpha_b64": _encode(self.alpha),
            "f_b64": _encode(self.f),
            "rounds": int(self.rounds),
            "inner_total": int(self.inner_total),
            "ws_order": [int(i) for i in self.ws_order],
            "stalled": int(self.stalled),
            "converged": bool(self.converged),
            "finished": bool(self.finished),
        }

    @classmethod
    def from_json(cls, entry: dict) -> "SessionSnapshot":
        """Parse one snapshot; raise :class:`CheckpointError` when malformed."""
        try:
            n = int(entry["n"])
            return cls(
                problem_index=int(entry["problem_index"]),
                alpha=_decode(entry["alpha_b64"], n),
                f=_decode(entry["f_b64"], n),
                rounds=int(entry["rounds"]),
                inner_total=int(entry["inner_total"]),
                ws_order=tuple(int(i) for i in entry["ws_order"]),
                stalled=int(entry["stalled"]),
                converged=bool(entry["converged"]),
                finished=bool(entry["finished"]),
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed session snapshot: {exc}") from exc


@dataclass(frozen=True)
class TrainingCheckpoint:
    """Everything one device had durably shipped at a wave boundary."""

    device: int
    wave: int
    simulated_s: float  # device timeline when the checkpoint was taken
    snapshots: dict = field(default_factory=dict)  # problem_index -> SessionSnapshot

    @property
    def nbytes(self) -> int:
        """Device-to-host bytes shipping this checkpoint costs."""
        return sum(snap.nbytes for snap in self.snapshots.values())

    def to_json(self) -> dict:
        """Self-describing JSON document (format + version header)."""
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "device": int(self.device),
            "wave": int(self.wave),
            "simulated_s": float(self.simulated_s),
            "snapshots": [
                self.snapshots[index].to_json()
                for index in sorted(self.snapshots)
            ],
        }

    @classmethod
    def from_json(cls, raw: dict) -> "TrainingCheckpoint":
        """Parse a checkpoint document, validating format and version."""
        if not isinstance(raw, dict) or raw.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"not a {CHECKPOINT_FORMAT} document")
        if int(raw.get("version", -1)) > CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {raw.get('version')} is newer than "
                f"supported ({CHECKPOINT_VERSION})"
            )
        try:
            snapshots = {
                int(entry["problem_index"]): SessionSnapshot.from_json(entry)
                for entry in raw.get("snapshots", [])
            }
            return cls(
                device=int(raw["device"]),
                wave=int(raw["wave"]),
                simulated_s=float(raw["simulated_s"]),
                snapshots=snapshots,
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc


class CheckpointStore:
    """Atomic, versioned on-disk checkpoints, one file per (device, wave).

    Layout under one store root::

        ckpt-d<device>-w<wave>.json

    Writes go through temp-file + ``os.replace`` like the registry's, so
    a crash mid-write leaves at worst an orphaned temp file.  ``root``
    may be ``None`` for an in-memory store (the trainer's default: the
    last checkpoint is all recovery needs, durability is opt-in).
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._latest: dict[int, TrainingCheckpoint] = {}
        self.n_written = 0

    def save(self, checkpoint: TrainingCheckpoint) -> None:
        """Record ``checkpoint`` as its device's newest, persisting if rooted."""
        self._latest[checkpoint.device] = checkpoint
        self.n_written += 1
        if self.root is None:
            return
        path = self.root / f"ckpt-d{checkpoint.device}-w{checkpoint.wave}.json"
        payload = json.dumps(checkpoint.to_json(), sort_keys=True).encode("utf-8")
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def latest(self, device: int) -> Optional[TrainingCheckpoint]:
        """The newest checkpoint recorded for ``device``, or ``None``."""
        return self._latest.get(device)

    def load(self, path: Union[str, Path]) -> TrainingCheckpoint:
        """Parse one checkpoint file; :class:`CheckpointError` on corruption."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise CheckpointError(f"checkpoint missing: {path}") from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        return TrainingCheckpoint.from_json(raw)
