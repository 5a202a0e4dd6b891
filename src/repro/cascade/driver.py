"""The cascade driver: instance-sharded training of one binary SVM.

The pipeline (Govada et al.'s cascade, PAPERS.md "A Novel Approach to
Distributed Multi-Class SVM"):

1. **Partition** — the instances are cut into seeded, stratified shards
   (:mod:`repro.cascade.partition`), assigned node-major to the cluster's
   devices, and their rows shipped over the host link.
2. **Shard sub-solves** — every shard trains its own sub-SVM as a
   resumable :class:`~repro.solvers.batch_smo.BatchSMOSession`, one wave
   group per device, through the fault-tolerant executor pair-sharded
   training uses (:func:`repro.distributed.waves.run_device_waves`):
   stragglers stretch the device clock, a scripted device loss aborts at
   a wave boundary and the lost shards re-solve on the survivors from
   the last shipped checkpoint.
3. **Reduction-tree merge** — surviving support vectors fold pairwise up
   a topology-aware tree (:mod:`repro.cascade.tree`): the src slot's SV
   rows and weights cross a ``DevicePool`` peer link (intra-node tier
   first; bytes land in the link ledger), the union warm-starts a merged
   sub-solve on the destination device, and only its support vectors
   survive to the next level.
4. **Polish** — the root's active set is only locally optimal, so one
   distributed KKT pass reconstructs the full-problem optimality
   indicators ``f_i`` (each device scores its own resident instances
   against the broadcast root SVs).  If that global dual gap is within
   epsilon, the pass is the verification and the cascade is done;
   otherwise every row ships to the root device once and the exact
   batched solver, warm-started from the merged weights and that ``f``,
   runs over all instances to epsilon (the polishing step of
   Glasmachers' "Recipe for Fast Large-scale SVM Training", PAPERS.md).

The merge is approximate, so the merged weights differ from the
sequential solve's; the polish makes the contract the same as every
other training path — global dual gap at most epsilon — but, unlike the
pair-sharded trainer, there is **no bitwise-parity claim**: the
decision-delta / argmax-agreement gates are enforced in the test-suite
and CI benchmarks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Optional

import numpy as np

from repro.cascade.config import CascadeConfig
from repro.cascade.partition import effective_shards, shard_instances
from repro.cascade.tree import build_reduction_tree, assign_shards
from repro.core.interleave import PairMember
from repro.core.trainer import (
    _batched_solver,
    _batched_task_bytes,
    _config_engine,
)
from repro.distributed.waves import (
    DeviceGroup,
    cluster_pool,
    fault_summary,
    run_device_waves,
)
from repro.faults.checkpoint import CheckpointStore
from repro.faults.plan import FaultPlan
from repro.gpusim.clock import SimClock
from repro.gpusim.engine import FLOAT_BYTES
from repro.kernels.functions import KernelFunction
from repro.kernels.rows import KernelRowComputer
from repro.solvers.base import (
    SolverResult,
    bias_from_f,
    dual_objective,
    optimality_gap,
    resolve_penalty_vector,
    validate_binary_problem,
)
from repro.solvers.warm_start import reconstruct_gradient
from repro.sparse import ops as mops
from repro.telemetry.schema import REPORT_SCHEMA_VERSION
from repro.telemetry.tracer import _json_safe, maybe_span

__all__ = ["CascadeReport", "train_cascade"]

# Constants shipped alongside a slot's SV payload in a merge: the SV
# count, the child's bias, its local gap and iteration count.
_SLOT_HEADER_BYTES = 4 * FLOAT_BYTES


@dataclass(eq=False)
class _ShardMember(PairMember):
    """A cascade shard in the wave driver (named ``shard_<i>``)."""

    @property
    def name(self) -> str:
        return f"shard_{self.index}"


@dataclass
class _ShardProblem:
    """What the wave driver needs to know about one shard."""

    s: int  # shard id
    t: int  # -2 marks cascade shards in any shared tooling
    n: int
    labels: np.ndarray
    global_indices: np.ndarray  # into the *binary problem's* row order


@dataclass
class _Slot:
    """One surviving sub-solution flowing up the reduction tree."""

    indices: np.ndarray  # binary-problem-local instance ids (SVs only)
    alpha: np.ndarray  # matching dual weights (> 0)
    device: int

    @property
    def n_sv(self) -> int:
        return int(self.indices.size)


@dataclass
class CascadeReport:
    """What one cascade solve did and what it cost.

    ``levels`` carries the per-level timeline: the shard phase, then one
    entry per reduction-tree level (SV survival, link tier, bytes), then
    the ``kkt`` pass and, when the merged gap exceeded epsilon, one
    ``polish`` entry.  ``transfer_bytes`` is the per-tier
    interconnect volume the cascade itself moved.
    """

    n_instances: int
    n_shards: int
    requested_shards: int
    n_devices: int
    n_nodes: int
    levels: list[dict] = field(default_factory=list)
    final_gap: float = float("inf")
    n_support: int = 0
    total_iterations: int = 0
    transfer_bytes: dict = field(default_factory=dict)
    tree: dict = field(default_factory=dict)
    simulated_seconds: float = 0.0
    faults: dict = field(default_factory=dict)

    @property
    def sv_survival(self) -> float:
        """Final support count over the instance count."""
        if self.n_instances <= 0:
            return 0.0
        return self.n_support / self.n_instances

    def to_dict(self) -> dict[str, Any]:
        """Flat, JSON-native, schema-versioned snapshot of this report."""
        payload = asdict(self)
        payload["schema_version"] = REPORT_SCHEMA_VERSION
        payload["kind"] = "cascade_report"
        payload["sv_survival"] = self.sv_survival
        return _json_safe(payload)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` snapshot serialized to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _row_bytes(data: mops.MatrixLike) -> float:
    """Average resident bytes of one training row."""
    return mops.matrix_nbytes(data) / max(mops.n_rows(data), 1)


def _slot_payload_bytes(slot: _Slot, per_row: float) -> int:
    """Interconnect bytes one slot costs to ship (SV rows + weights)."""
    return int(
        round(slot.n_sv * per_row)
        + slot.n_sv * FLOAT_BYTES
        + _SLOT_HEADER_BYTES
    )


def _make_shard_member(
    config,
    shard: int,
    indices: np.ndarray,
    data: mops.MatrixLike,
    labels: np.ndarray,
    kernel: KernelFunction,
    penalty: float,
    box: Optional[np.ndarray],
    counters,
) -> _ShardMember:
    """A resumable wave-driver member for one instance shard."""
    engine = _config_engine(config, counters)
    rows = KernelRowComputer(
        engine, kernel, mops.take_rows(data, indices), category="cascade_shard"
    )
    solver = _batched_solver(config, penalty, tracer=None, record_rounds=False)
    session = solver.start(
        rows,
        labels[indices],
        penalty_vector=None if box is None else box[indices],
    )
    problem = _ShardProblem(
        s=shard,
        t=-2,
        n=int(indices.size),
        labels=labels[indices],
        global_indices=indices,
    )
    return _ShardMember(
        index=shard,
        problem=problem,
        engine=engine,
        session=session,
        mem_bytes=_batched_task_bytes(config, int(indices.size)),
        blocks=config.blocks_per_svm,
    )


def _merge_solve(
    config,
    pool,
    slots: dict[int, _Slot],
    step,
    data: mops.MatrixLike,
    labels: np.ndarray,
    kernel: KernelFunction,
    penalty: float,
    box: Optional[np.ndarray],
    per_row: float,
    member_clocks: list[SimClock],
    tracer,
) -> dict:
    """Fold slot ``step.src`` into ``step.dst`` and re-solve the union.

    The src payload crosses the peer link (the pool picks the tier from
    the topology and records the bytes), the concatenated dual weights
    warm-start the merged sub-solve (the children partition the
    instances, so ``sum alpha_i y_i = 0`` is preserved exactly), and the
    destination slot keeps only the surviving support vectors.
    """
    src, dst = slots[step.src], slots[step.dst]
    payload = _slot_payload_bytes(src, per_row)
    pool.device_to_device(
        src.device, dst.device, payload, category="cascade_merge"
    )
    merged_idx = np.concatenate([dst.indices, src.indices])
    merged_alpha = np.concatenate([dst.alpha, src.alpha])
    merged_labels = labels[merged_idx]
    sv_in = int(merged_idx.size)

    engine = _config_engine(config, pool.engine(dst.device).counters)
    with maybe_span(
        tracer,
        "cascade_merge",
        clock=engine.clock,
        src_slot=step.src,
        dst_slot=step.dst,
        tier=step.tier,
        sv_in=sv_in,
        nbytes=payload,
    ) as span:
        rows = KernelRowComputer(
            engine,
            kernel,
            mops.take_rows(data, merged_idx),
            category="cascade_merge",
        )
        initial_f = reconstruct_gradient(
            rows, merged_labels, merged_alpha, category="cascade_merge"
        )
        solver = _batched_solver(
            config, penalty, tracer=None, record_rounds=False
        )
        result = solver.solve(
            rows,
            merged_labels,
            penalty_vector=None if box is None else box[merged_idx],
            initial_alpha=merged_alpha,
            initial_f=initial_f,
        )
        support = result.support_indices
        slots[step.dst] = _Slot(
            indices=merged_idx[support],
            alpha=result.alpha[support],
            device=dst.device,
        )
        del slots[step.src]
        span.set(
            sv_out=int(support.size),
            iterations=result.iterations,
            converged=result.converged,
        )
    member_clocks[dst.device].merge(engine.clock)
    return {
        "src": int(step.src),
        "dst": int(step.dst),
        "tier": step.tier,
        "nbytes": int(payload),
        "sv_in": sv_in,
        "sv_out": int(support.size),
        "iterations": int(result.iterations),
        "simulated_seconds": float(engine.clock.elapsed_s),
    }


def _global_kkt_pass(
    config,
    pool,
    root: _Slot,
    home_device: np.ndarray,
    data: mops.MatrixLike,
    labels: np.ndarray,
    box: np.ndarray,
    kernel: KernelFunction,
    per_row: float,
    member_clocks: list[SimClock],
    tracer,
) -> tuple[np.ndarray, float, dict]:
    """Reconstruct the full-problem ``f`` and the global dual gap.

    Distributed: the root broadcasts its SV rows to every device that
    still owns instances (peer links, tier-charged), each device scores
    its own resident rows as one batched kernel product on its own
    clock, and the per-instance indicators flow back to the root.
    Numerically this is exact — ``f_i = sum_j alpha_j y_j K_ij - y_i``
    with zeros outside the active set.
    """
    n = labels.size
    f_full = np.empty(n)
    coefficients = root.alpha * labels[root.indices]
    sv_rows = mops.take_rows(data, root.indices)
    sv_payload = int(round(root.n_sv * per_row)) + _SLOT_HEADER_BYTES
    devices = sorted(set(int(d) for d in home_device))
    seconds = 0.0
    for device in devices:
        owned = np.flatnonzero(home_device == device)
        if device != root.device:
            pool.device_to_device(
                root.device, device, sv_payload, category="cascade_kkt"
            )
        engine = _config_engine(config, pool.engine(device).counters)
        computer = KernelRowComputer(
            engine,
            kernel,
            mops.take_rows(data, owned),
            category="cascade_kkt",
        )
        block = computer.block(sv_rows, category="cascade_kkt")
        f_full[owned] = coefficients @ block - labels[owned]
        engine.charge(
            "cascade_kkt",
            flops=2 * root.n_sv * owned.size,
            bytes_read=root.n_sv * owned.size * FLOAT_BYTES,
            bytes_written=owned.size * FLOAT_BYTES,
            launches=1,
        )
        if device != root.device:
            pool.device_to_device(
                device, root.device, owned.size * FLOAT_BYTES,
                category="cascade_kkt",
            )
        member_clocks[device].merge(engine.clock)
        seconds = max(seconds, engine.clock.elapsed_s)
    alpha_full = np.zeros(n)
    alpha_full[root.indices] = root.alpha
    gap = optimality_gap(f_full, labels, alpha_full, box)
    stats = {
        "kind": "kkt",
        "n_sv": root.n_sv,
        "gap": float(gap),
        "devices": len(devices),
        "simulated_seconds": float(seconds),
    }
    if tracer is not None:
        with maybe_span(
            tracer,
            "cascade_kkt",
            clock=pool.engine(root.device).clock,
            n_sv=root.n_sv,
            gap=float(gap),
            devices=len(devices),
        ):
            pass
    return f_full, gap, stats


def _cascade_solve(
    config,
    cascade: CascadeConfig,
    pool,
    data: mops.MatrixLike,
    labels: np.ndarray,
    kernel: KernelFunction,
    penalty: float,
    *,
    penalty_vector: Optional[np.ndarray] = None,
    member_clocks: list[SimClock],
    store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 4,
) -> tuple[SolverResult, CascadeReport]:
    """Run one cascade solve over an existing :class:`DevicePool`.

    ``member_clocks`` (one per device) accumulate the wave-scaled member
    time; the caller folds them with the pool's engine clocks to obtain
    the timeline.  Spans go to ``config.tracer``.  Returns the
    full-problem :class:`SolverResult` (alpha over every instance, exact
    final ``f``, bias, global gap) plus the :class:`CascadeReport`.
    """
    cluster = pool.cluster
    tracer = config.tracer
    labels = validate_binary_problem(labels, penalty)
    n = labels.size
    box = resolve_penalty_vector(penalty, n, penalty_vector)
    weighted_box = None if penalty_vector is None else box
    n_shards = effective_shards(labels, cascade.n_shards)
    shards = shard_instances(labels, n_shards, cascade.seed)
    shard_device = assign_shards(n_shards, pool.n_devices)
    per_row = _row_bytes(data)

    report = CascadeReport(
        n_instances=n,
        n_shards=n_shards,
        requested_shards=cascade.n_shards,
        n_devices=pool.n_devices,
        n_nodes=cluster.n_nodes,
    )
    ledger_before = dict(pool.transfer_ledger)
    total_iterations = 0
    total_rows_computed = 0

    # ------------------------------------------------------------------
    # Phase 1: per-device shard sub-solves under the wave scheduler.  A
    # lost device hands its shards round-robin to the survivors, which
    # restore the last shipped checkpoint (or restart) and re-solve.
    # ------------------------------------------------------------------
    results: dict[int, SolverResult] = {}
    shard_seconds = 0.0

    def group(device, indices):
        resident = int(round(sum(shards[s].size for s in indices) * per_row))
        return DeviceGroup(device, indices, resident, resident)

    def build(device, indices, master):
        members = [
            _make_shard_member(
                config, shard, shards[shard], data, labels, kernel, penalty,
                weighted_box, master.counters,
            )
            for shard in indices
        ]
        return members, None

    def regroup(lost_shards, survivors):
        placed: dict[int, list[int]] = {}
        for position, shard in enumerate(lost_shards):
            survivor = survivors[position % len(survivors)]
            placed.setdefault(survivor, []).append(shard)
            shard_device[shard] = survivor
        return [group(device, placed[device]) for device in sorted(placed)]

    def on_done(device, members, outcome):
        nonlocal shard_seconds
        member_clocks[device].merge(outcome.timeline)
        shard_seconds = max(shard_seconds, outcome.timeline.elapsed_s)
        for member in members:
            results[member.index] = member.result
        return {
            "simulated_seconds": outcome.timeline.elapsed_s,
            "max_concurrency": outcome.max_concurrency,
        }

    waves = run_device_waves(
        pool,
        [
            group(device, [s for s in range(n_shards) if shard_device[s] == device])
            for device in sorted(set(shard_device))
        ],
        config=config,
        build=build,
        regroup=regroup,
        on_done=on_done,
        span_name="cascade_shard_wave",
        recovery_span_name="cascade_recovery",
        count_key="n_shards",
        store=store,
        checkpoint_every=checkpoint_every,
    )
    report.faults = waves.summary("recovered_shards")

    # Collapse the shard results into tree slots (SVs only).
    slots: dict[int, _Slot] = {}
    shard_entries = []
    for shard in range(n_shards):
        result = results[shard]
        support = result.support_indices
        slots[shard] = _Slot(
            indices=shards[shard][support],
            alpha=result.alpha[support],
            device=shard_device[shard],
        )
        total_iterations += result.iterations
        total_rows_computed += result.kernel_rows_computed
        shard_entries.append(
            {
                "shard": shard,
                "device": int(shard_device[shard]),
                "n": int(shards[shard].size),
                "sv_out": int(support.size),
                "iterations": int(result.iterations),
                "converged": bool(result.converged),
            }
        )
    report.levels.append(
        {
            "kind": "shard",
            "n_slots": n_shards,
            "sv_in": n,
            "sv_out": int(sum(e["sv_out"] for e in shard_entries)),
            "survival": float(
                sum(e["sv_out"] for e in shard_entries) / max(n, 1)
            ),
            "iterations": int(sum(e["iterations"] for e in shard_entries)),
            "simulated_seconds": float(shard_seconds),
            "shards": shard_entries,
        }
    )

    # ------------------------------------------------------------------
    # Phase 2: pairwise SV merge up the topology-aware reduction tree.
    # ------------------------------------------------------------------
    tree = build_reduction_tree(
        [slots[s].device for s in range(n_shards)], cluster
    )
    for level_steps in tree.levels:
        merges = [
            _merge_solve(
                config, pool, slots, step, data, labels, kernel, penalty,
                weighted_box, per_row, member_clocks, tracer,
            )
            for step in level_steps
        ]
        total_iterations += sum(m["iterations"] for m in merges)
        tier_bytes: dict[str, int] = {}
        for m in merges:
            tier_bytes[m["tier"]] = tier_bytes.get(m["tier"], 0) + m["nbytes"]
        sv_in = sum(m["sv_in"] for m in merges)
        sv_out = sum(m["sv_out"] for m in merges)
        report.levels.append(
            {
                "kind": "merge",
                "n_merges": len(merges),
                "sv_in": int(sv_in),
                "sv_out": int(sv_out),
                "survival": float(sv_out / sv_in) if sv_in else 1.0,
                "iterations": int(sum(m["iterations"] for m in merges)),
                "simulated_seconds": float(
                    max((m["simulated_seconds"] for m in merges), default=0.0)
                ),
                "tier_bytes": tier_bytes,
                "merges": merges,
            }
        )
    report.tree = {
        "n_levels": len(tree.levels),
        "n_merges": tree.n_merges,
        "tier_counts": tree.tier_counts(),
        "root_slot": int(tree.root),
        "root_device": int(slots[tree.root].device),
    }

    # ------------------------------------------------------------------
    # Phase 3: one distributed KKT pass seeds the full-problem ``f``.  A
    # gap within epsilon is the verification; otherwise every row ships
    # to the root once and the exact solver polishes over all n.
    # ------------------------------------------------------------------
    root = slots[tree.root]
    home_device = np.empty(n, dtype=np.int64)
    for shard in range(n_shards):
        home_device[shards[shard]] = shard_device[shard]
    f_full, gap, kkt_stats = _global_kkt_pass(
        config, pool, root, home_device, data, labels, box, kernel,
        per_row, member_clocks, tracer,
    )
    report.levels.append(kkt_stats)
    alpha_full = np.zeros(n)
    alpha_full[root.indices] = root.alpha
    if gap <= config.epsilon:
        result = SolverResult(
            alpha=alpha_full,
            bias=bias_from_f(f_full, labels, alpha_full, box),
            converged=True,
            iterations=0,
            objective=dual_objective(alpha_full, labels, f_full),
            final_gap=float(gap),
            f=f_full,
        )
    else:
        for device in sorted(set(int(d) for d in home_device) - {root.device}):
            owned = int(np.count_nonzero(home_device == device))
            pool.device_to_device(
                device, root.device, int(round(owned * per_row)),
                category="cascade_polish",
            )
        engine = _config_engine(config, pool.engine(root.device).counters)
        with maybe_span(
            tracer, "cascade_polish", clock=engine.clock, gap_before=float(gap)
        ) as span:
            result = _batched_solver(
                config, penalty, tracer=None, record_rounds=False
            ).solve(
                KernelRowComputer(engine, kernel, data, category="cascade_polish"),
                labels,
                penalty_vector=weighted_box,
                initial_alpha=alpha_full,
                initial_f=f_full,
            )
            span.set(
                rounds=result.rounds,
                iterations=result.iterations,
                converged=result.converged,
            )
        # Engine and member clocks both sum into the device's busy time;
        # booking the polish on the engine clock keeps the per-pair
        # float sums of both multiclass trainers in the same order.
        pool.engine(root.device).clock.merge(engine.clock)
        report.levels.append(
            {
                "kind": "polish",
                "gap_before": float(gap),
                "rounds": int(result.rounds),
                "iterations": int(result.iterations),
                "simulated_seconds": float(engine.clock.elapsed_s),
            }
        )

    report.final_gap = float(result.final_gap)
    report.n_support = result.n_support
    report.total_iterations = total_iterations + result.iterations
    tier_totals = {"host": 0, "intra": 0, "inter": 0}
    for (src, dst), nbytes in pool.transfer_ledger.items():
        moved = nbytes - ledger_before.get((src, dst), 0)
        if moved:
            tier_totals[pool.link_tier(src, dst)] += moved
    report.transfer_bytes = tier_totals
    return replace(
        result,
        iterations=report.total_iterations,
        kernel_rows_computed=total_rows_computed + result.kernel_rows_computed,
        diagnostics={"cascade": True, "n_shards": n_shards},
    ), report


def train_cascade(
    config,
    cluster,
    data: mops.MatrixLike,
    y: np.ndarray,
    kernel: KernelFunction,
    penalty: float,
    *,
    cascade: Optional[CascadeConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_every: int = 4,
    checkpoint_dir: Optional[object] = None,
) -> tuple[SolverResult, CascadeReport]:
    """Train one binary SVM instance-sharded across a simulated cluster.

    ``y`` must be ±1 labels; ``config`` is the usual
    :class:`~repro.core.trainer.TrainerConfig` (batched solver only),
    ``cluster`` a (possibly hierarchical)
    :class:`~repro.distributed.cluster.ClusterSpec`.  Returns the
    full-problem :class:`~repro.solvers.base.SolverResult` — dual
    weights over every instance, bias, exact final indicators ``f`` and
    the global dual gap — plus the :class:`CascadeReport` (per-level
    timeline, SV survival, per-tier transfer bytes, faults).

    The trained model is **not** bitwise-identical to the sequential
    solve — the cascade merge is approximate.  The contract is the
    solver's own: ``converged`` on the result means the global dual gap
    over all instances is at most ``config.epsilon``, either at the
    distributed KKT pass over the merged weights or after the polish; a
    polish that hits its round cap warns with a
    :class:`~repro.exceptions.ConvergenceWarning` like any batched solve.

    ``fault_plan`` / ``checkpoint_every`` / ``checkpoint_dir`` mirror
    :func:`~repro.distributed.trainer.train_multiclass_sharded`: device
    losses abort the affected shard solves at a wave boundary and the
    survivors resume them from the last shipped checkpoint; the merge
    tree is then built over the surviving devices and the polish still
    runs to epsilon.
    """
    tracer = config.tracer
    config, pool, store = cluster_pool(
        config,
        cluster,
        what="cascade training",
        fault_plan=fault_plan,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
    )
    cascade = cascade if cascade is not None else CascadeConfig()
    member_clocks = [SimClock() for _ in range(cluster.n_devices)]
    with maybe_span(
        tracer,
        "train_cascade",
        n_instances=mops.n_rows(data),
        n_devices=cluster.n_devices,
        n_nodes=cluster.n_nodes,
        n_shards=cascade.n_shards,
    ) as span:
        result, report = _cascade_solve(
            config,
            cascade,
            pool,
            data,
            np.asarray(y).ravel(),
            kernel,
            penalty,
            member_clocks=member_clocks,
            store=store,
            checkpoint_every=checkpoint_every,
        )
        report.simulated_seconds = max(
            pool.engine(d).clock.elapsed_s + member_clocks[d].elapsed_s
            for d in range(cluster.n_devices)
        )
        report.faults = fault_summary(pool, store, report.faults)
        span.set(
            simulated_seconds=report.simulated_seconds,
            final_gap=report.final_gap,
            n_support=report.n_support,
        )
    return result, report
