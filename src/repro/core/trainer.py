"""The configurable multi-class training pipeline (Algorithm 2).

Every system the paper evaluates is this pipeline under a different
:class:`TrainerConfig`:

==================  ========  =======================  ==========  =========
system              solver    device                   concurrent  sharing
==================  ========  =======================  ==========  =========
LibSVM              classic   CPU (1 or 40 threads)    no          no
GPU baseline        classic   GPU                      no          no
CMP-SVM             batched   CPU (40 threads)         yes         yes
GMP-SVM             batched   GPU                      yes         yes
==================  ========  =======================  ==========  =========

The pipeline: decompose into pairwise problems, train each binary SVM
(classic or batched SMO), fit each sigmoid on the SVM's training-set
decision values (Figure 1), then either sum the per-task simulated times
(sequential systems) or step the solvers in lockstep concurrent waves
(Section 3.3.2, :mod:`repro.core.interleave`).  Kernel-value sharing
(Figure 3) plugs in as a row provider shared by all pairwise solvers.
"""

from __future__ import annotations

import warnings

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.interleave import PairMember, run_interleaved
from repro.core.validation import strict_config
from repro.exceptions import ConvergenceWarning, ValidationError
from repro.gpusim.clock import SimClock
from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import FLOAT_BYTES, ChargeLedger, Engine, make_engine
from repro.gpusim.scheduler import WaveLimits
from repro.kernels.functions import KernelFunction
from repro.kernels.rows import KernelRowComputer
from repro.kernels.shared import SharedClassPairKernels
from repro.model.binary import BinarySVMRecord
from repro.model.multiclass import MPSVMModel
from repro.multiclass.decomposition import class_partition, pair_problems
from repro.multiclass.ova import ova_problems
from repro.multiclass.sv_sharing import SupportVectorPool
from repro.perf.report import TrainingReport
from repro.probability.platt import fit_sigmoid, fit_sigmoids
from repro.solvers.base import resolve_penalty_vector
from repro.solvers.batch_smo import BatchSMOSolver
from repro.solvers.smo import ClassicSMOSolver
from repro.solvers.warm_start import warm_start_pair_state
from repro.sparse import ops as mops
from repro.telemetry.tracer import Tracer, maybe_span

__all__ = ["TrainerConfig", "train_multiclass"]


@strict_config
@dataclass
class TrainerConfig:
    """Every knob that distinguishes the paper's systems."""

    device: DeviceSpec
    solver: str = "batched"  # "batched" (GMP/CMP) or "classic" (LibSVM/baseline)
    flop_efficiency: Optional[float] = None  # None -> device-kind default
    bandwidth_efficiency: float = 1.0  # program-level access-pattern quality
    # MP-SVM-level concurrency (Section 3.3.2): the batched solvers step
    # in lockstep waves with fused kernel launches and the timeline comes
    # from the executed wave trace.  The classic solver has no resumable
    # stepper, so it always trains serially.
    concurrent: bool = True
    share_kernel_values: bool = True  # Figure 3 block sharing
    parallel_line_search: bool = True  # Section 3.3.2 (ii)
    probability: bool = True
    decomposition: str = "ovo"  # "ovo" (pairwise, the paper) or "ova"
    # Per-class penalty multipliers (LibSVM's -wi): label -> weight.
    class_weight: Optional[dict] = None
    # 0/1 fits the sigmoid on the final SVM's training-set decision values
    # (the paper's Figure 1); >= 2 uses LibSVM's stratified k-fold
    # cross-validated decision values (unbiased, k extra solves per pair).
    probability_cv_folds: int = 0
    epsilon: float = 1e-3
    # Batched-solver geometry (Section 4.1 defaults: buffer 1024, q = 512;
    # scaled to keep the paper's buffer/dataset coverage at registry sizes).
    working_set_size: int = 48
    new_per_round: Optional[int] = None
    buffer_rows: Optional[int] = None  # defaults to the working-set size
    buffer_policy: str = "fifo"
    inner_rule: str = "adaptive"
    # Classic-solver LRU kernel buffer (bytes; None disables caching, with
    # or without shrinking).
    classic_cache_bytes: Optional[int] = None
    # LibSVM-style shrinking (active-set reduction) for the classic solver.
    classic_shrinking: bool = False
    # Concurrency packing: SM blocks one binary SVM occupies ("we use
    # larger GPU thread blocks, such that the total number of blocks for a
    # binary SVM is smaller than the number of SMs").
    blocks_per_svm: int = 7
    max_concurrent_svms: Optional[int] = None
    # GPUSVM-style dense storage (Figure 10's pathology).
    force_dense: bool = False
    # Compute backend: None (the float64 reference), a backend name
    # ("numpy64" or "numpy32") or a ComputeBackend instance.
    backend: Optional[object] = None
    # Instance-sharded cascade routing: a repro.cascade.CascadeConfig
    # sends pairwise problems with at least ``cascade.threshold``
    # instances through the cascade SMO driver (seeded instance shards,
    # pairwise SV merge, a polish to epsilon — see repro.cascade) instead
    # of one monolithic solve.  ``None`` keeps every pair monolithic.
    cascade: Optional[object] = None
    # Telemetry: an optional hierarchical span tracer (spans cover the
    # whole run, every pair solve and the concurrency packing; per-round
    # solver records come with it).  Off by default; the hot paths then
    # do no telemetry bookkeeping at all.
    tracer: Optional[Tracer] = None

    def __post_init__(self) -> None:
        if self.solver not in ("batched", "classic"):
            raise ValidationError(f"solver must be batched/classic, got {self.solver!r}")
        if self.decomposition not in ("ovo", "ova"):
            raise ValidationError(
                f"decomposition must be ovo/ova, got {self.decomposition!r}"
            )
        # Both bounds feed the wave-packing rules; non-positive values
        # would silently corrupt SM/concurrency accounting.
        if self.blocks_per_svm <= 0:
            raise ValidationError(
                f"blocks_per_svm must be >= 1, got {self.blocks_per_svm}"
            )
        if self.max_concurrent_svms is not None and self.max_concurrent_svms <= 0:
            raise ValidationError(
                f"max_concurrent_svms must be >= 1, got {self.max_concurrent_svms}"
            )
        if self.backend is not None:
            # Fail at config time, not mid-training; an unknown name or a
            # wrong type raises ValidationError listing the registry.
            from repro.backends import resolve_backend

            resolve_backend(self.backend)
        if self.cascade is not None:
            from repro.cascade.config import CascadeConfig

            if not isinstance(self.cascade, CascadeConfig):
                raise ValidationError(
                    "cascade must be a repro.cascade.CascadeConfig, got "
                    f"{type(self.cascade).__name__}"
                )
            if self.solver != "batched":
                raise ValidationError(
                    "cascade routing drives resumable batched-SMO "
                    f"sessions; solver {self.solver!r} is not shardable"
                )


def train_multiclass(
    config: TrainerConfig,
    data: mops.MatrixLike,
    y: np.ndarray,
    kernel: KernelFunction,
    penalty: float,
    *,
    warm_start: Optional[MPSVMModel] = None,
) -> tuple[MPSVMModel, TrainingReport]:
    """Train a (probabilistic) multi-class SVM under ``config``.

    Returns the fitted model and the simulated-cost report.  When
    ``config.tracer`` is set, the run is recorded as a
    ``train_multiclass`` root span over per-pair ``solve_pair`` spans.

    ``warm_start`` optionally names a previously trained model whose
    dual solution seeds every pair solver (see
    :mod:`repro.solvers.warm_start`): retraining after appending data or
    changing C/gamma then skips most rounds.  The prior model must share
    the decomposition strategy, class set and feature count; instance
    identity is positional (the old training set must be a row-wise
    prefix of, or equal to, the new one) — pairs where the mapping turns
    out unsound fall back to a cold start individually.
    """
    tracer = config.tracer
    if warm_start is not None:
        _validate_warm_start(config, warm_start, data, y)
    if tracer is None:
        return _train_multiclass_impl(
            config, data, y, kernel, penalty, warm_start=warm_start
        )
    with tracer.span("train_multiclass", n_instances=mops.n_rows(data)) as span:
        model, report = _train_multiclass_impl(
            config, data, y, kernel, penalty, warm_start=warm_start
        )
        span.set(
            n_classes=int(model.n_classes),
            n_binary_svms=report.n_binary_svms,
            total_iterations=report.total_iterations,
            simulated_seconds=report.simulated_seconds,
            buffer_hit_rate=report.buffer_hit_rate,
            sharing_hit_rate=report.sharing_hit_rate,
            max_concurrency=report.max_concurrency,
        )
        return model, report


def _config_engine(config: TrainerConfig, counters=None) -> Engine:
    """A fresh engine (own clock) on ``config``'s device and backend."""
    return make_engine(
        config.device,
        flop_efficiency=config.flop_efficiency,
        bandwidth_efficiency=config.bandwidth_efficiency,
        backend=config.backend,
        counters=counters,
    )


def _validate_warm_start(
    config: TrainerConfig,
    prior: MPSVMModel,
    data: mops.MatrixLike,
    y: np.ndarray,
) -> None:
    """Reject warm starts that cannot possibly map onto this problem."""
    if not isinstance(prior, MPSVMModel):
        raise ValidationError(
            f"warm_start must be a fitted MPSVMModel, got {type(prior).__name__}"
        )
    if config.solver != "batched":
        raise ValidationError(
            "warm_start requires the batched solver; the classic SMO path "
            "has no resumable (alpha, f) entry point"
        )
    if prior.strategy != config.decomposition:
        raise ValidationError(
            f"warm_start strategy {prior.strategy!r} does not match "
            f"decomposition {config.decomposition!r}"
        )
    if prior.n_features != mops.n_cols(data):
        raise ValidationError(
            f"warm_start model has {prior.n_features} features, "
            f"training data has {mops.n_cols(data)}"
        )
    classes, _ = class_partition(np.asarray(y).ravel())
    if not np.array_equal(np.asarray(prior.classes), np.asarray(classes)):
        raise ValidationError(
            "warm_start class set does not match the training labels; "
            "incremental retraining requires the same classes"
        )


def _warm_pair_init(
    prior: Optional[MPSVMModel],
    problem,
    rows,
    penalty: float,
    penalty_vector: Optional[np.ndarray],
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``(initial_alpha, initial_f)`` for one pair, or ``None`` (cold).

    Cold fallback covers a missing prior record (should not happen after
    :func:`_validate_warm_start`, but a corrupted model must not crash
    training) and any per-pair mapping failure detected by
    :func:`~repro.solvers.warm_start.warm_start_pair_state`.
    """
    if prior is None:
        return None
    record = next(
        (
            r
            for r in prior.records
            if (r.s, r.t) == (problem.s, problem.t)
        ),
        None,
    )
    if record is None:
        return None
    box = resolve_penalty_vector(penalty, problem.n, penalty_vector)
    return warm_start_pair_state(
        rows,
        problem.labels,
        np.asarray(record.global_sv_indices),
        np.asarray(record.coefficients),
        np.asarray(problem.global_indices),
        box,
    )


def _train_multiclass_impl(
    config: TrainerConfig,
    data: mops.MatrixLike,
    y: np.ndarray,
    kernel: KernelFunction,
    penalty: float,
    *,
    warm_start: Optional[MPSVMModel] = None,
) -> tuple[MPSVMModel, TrainingReport]:
    tracer = config.tracer
    labels = np.asarray(y).ravel()
    classes, partition = class_partition(labels)
    if config.force_dense:
        data = mops.to_dense(data)

    master = _config_engine(config)
    if tracer is not None:
        # Give clock-less spans (the train_multiclass root above all) the
        # master engine's simulated time axis.
        tracer.bind_clock(master.clock)
    # Ship the training data to the device once (PCIe).
    master.transfer(mops.matrix_nbytes(data), category="transfer")

    shared, shared_computer = _make_shared_store(
        config, master, kernel, data, classes, partition
    )

    total_iterations = 0
    total_rows_computed = 0
    peak_task_mem = 0

    if config.class_weight:
        known = set(np.asarray(classes).tolist())
        for label, weight in config.class_weight.items():
            if label not in known:
                raise ValidationError(
                    f"class_weight key {label!r} is not a training label"
                )
            if weight <= 0:
                raise ValidationError("class weights must be positive")

    problems = list(
        pair_problems(classes, partition)
        if config.decomposition == "ovo"
        else ova_problems(classes, partition)
    )

    # Instance-sharded cascade routing: pairs at or above the configured
    # threshold leave the monolithic path and train through the cascade
    # driver (repro.cascade); the rest proceed exactly as before.  Model
    # assembly happens in problem order below, so routing never reorders
    # records.  Results land keyed by problem index.
    finals: dict[int, tuple] = {}
    cascade_cfg = config.cascade
    cascade_indices: set[int] = set()
    if cascade_cfg is not None and cascade_cfg.n_shards > 1:
        cascade_indices = {
            index
            for index, problem in enumerate(problems)
            if problem.n >= cascade_cfg.threshold
        }
    # Each routed pair gets a fresh single-device pool (the multi-device
    # cascade lives in train_multiclass_sharded / repro.cascade); its
    # shard/merge/polish/finalize timeline folds into cascade_clock and
    # its op counters into the master tally.
    cascade_clock = SimClock()
    if cascade_indices:
        from repro.distributed.cluster import ClusterSpec, DevicePool

        if config.device.kind != "gpu":
            raise ValidationError(
                "cascade routing shards instances across (simulated) GPU "
                f"devices; device kind {config.device.kind!r} runs the "
                "monolithic path only"
            )
    for index in sorted(cascade_indices):
        problem = problems[index]
        pool = DevicePool(
            ClusterSpec(device=config.device, n_devices=1),
            flop_efficiency=config.flop_efficiency,
            bandwidth_efficiency=config.bandwidth_efficiency,
            backend=config.backend,
            tracer=tracer,
        )
        member_clocks = [SimClock()]
        with maybe_span(
            tracer,
            "solve_pair",
            clock=pool.engine(0).clock,
            pair=(problem.s, problem.t),
            n=problem.n,
            cascade=True,
        ) as pair_span:
            finals[index], result, finalize_clock = _train_cascade_pair(
                config, classes, problem, pool, data, kernel, penalty,
                member_clocks, pair_span=pair_span,
            )
        if tracer is not None:
            # The cascade unbinds its wave clocks on exit; restore the
            # run-wide default axis for subsequent clock-less spans.
            tracer.bind_clock(master.clock)
        total_iterations += result.iterations
        total_rows_computed += result.kernel_rows_computed
        cascade_clock.merge(pool.engine(0).clock)
        cascade_clock.merge(member_clocks[0])
        cascade_clock.merge(finalize_clock)
        master.counters.merge(pool.engine(0).counters)
    remaining = [
        (index, problem)
        for index, problem in enumerate(problems)
        if index not in cascade_indices
    ]

    # The interleaved driver needs resumable sessions, which only the
    # batched solver provides; a single pair has nothing to interleave.
    use_interleaved = (
        config.concurrent
        and config.solver == "batched"
        and len(remaining) > 1
    )

    schedule_source = "serial"
    wave_trace: Optional[list[dict]] = None
    max_concurrency = 1
    concurrency_speedup = 1.0
    task_clocks: list[SimClock] = []  # folded in after the master clock

    if use_interleaved:
        members: list[PairMember] = [
            _make_pair_member(
                config,
                classes,
                index,
                problem,
                penalty,
                data,
                kernel,
                shared=shared,
                shared_computer=shared_computer,
                counters=master.counters,
                warm_start=warm_start,
            )
            for index, problem in remaining
        ]
        limits = _interleave_limits(config, mops.matrix_nbytes(data))
        outcome = run_interleaved(
            members,
            limits,
            shared=shared,
            tracer=tracer,
            span_clock=master.clock,
        )

        # Finalize in problem order — model assembly (records, SV pool,
        # sigmoids) must not depend on the order sessions terminated.
        finalize_clock = SimClock()
        finalized = _finalize_members(
            config, classes, members, data, kernel, penalty, tracer
        )
        for member, (record, pool_entry, svm_stats, delta) in zip(
            members, finalized
        ):
            svm_stats["warm_start"] = member.warm_started
            finals[member.index] = (record, pool_entry, svm_stats)
            total_iterations += member.result.iterations
            total_rows_computed += member.result.kernel_rows_computed
            peak_task_mem = max(peak_task_mem, member.mem_bytes)
            finalize_clock.merge(delta)
        task_clocks = [outcome.timeline, finalize_clock]
        schedule_source = "wave_trace"
        wave_trace = outcome.wave_trace
        max_concurrency = outcome.max_concurrency
        concurrency_speedup = outcome.concurrency_speedup
    else:
        for index, problem in remaining:
            engine = _config_engine(config, master.counters)
            with maybe_span(
                tracer,
                "solve_pair",
                clock=engine.clock,
                pair=(problem.s, problem.t),
                n=problem.n,
            ) as pair_span:
                if shared is not None and shared_computer is not None:
                    rows = _SharedPairRows(engine, shared, shared_computer, problem)
                    pair_data = None
                else:
                    pair_data = mops.take_rows(data, problem.global_indices)
                    rows = KernelRowComputer(engine, kernel, pair_data)

                penalty_vector = _class_weighted_penalties(
                    config, classes, problem, penalty
                )
                warm = _warm_pair_init(
                    warm_start, problem, rows, penalty, penalty_vector
                )
                result, task_mem = _solve_pair(
                    config, engine, rows, problem.labels, penalty,
                    penalty_vector=penalty_vector, warm=warm,
                )
                total_iterations += result.iterations
                total_rows_computed += result.kernel_rows_computed
                peak_task_mem = max(peak_task_mem, task_mem)

                record, pool_entry, svm_stats = _finalize_pair(
                    config, engine, problem, result, data, kernel, penalty,
                    penalty_vector=penalty_vector, pair_span=pair_span,
                    pair_data=pair_data,
                )
                svm_stats["warm_start"] = warm is not None
                finals[index] = (record, pool_entry, svm_stats)
                task_clocks.append(engine.clock)

    # The executed wave trace (interleaved) or the plain serial sum.
    combined = SimClock()
    combined.merge(master.clock)
    for clock in task_clocks:
        combined.merge(clock)
    # Cascade pairs train sequentially before the monolithic pass; their
    # single-pool timeline (shards, merges, polish, finalize) adds on.
    combined.merge(cascade_clock)

    model, per_svm_stats = _assemble_model(
        config, classes, data, kernel, penalty, finals, master.backend
    )
    report = TrainingReport(
        simulated_seconds=combined.elapsed_s,
        clock=combined,
        counters=master.counters,
        device_name=config.device.name,
        n_binary_svms=len(per_svm_stats),
        total_iterations=total_iterations,
        kernel_rows_computed=total_rows_computed,
        max_concurrency=max_concurrency,
        concurrency_speedup=concurrency_speedup,
        sharing_hit_rate=shared.stats.hit_rate if shared is not None else 0.0,
        peak_task_memory_bytes=peak_task_mem,
        per_svm=per_svm_stats,
        schedule_source=schedule_source,
        wave_trace=wave_trace,
    )
    return model, report


def _assemble_model(
    config: TrainerConfig,
    classes: np.ndarray,
    data: mops.MatrixLike,
    kernel: KernelFunction,
    penalty: float,
    finals: dict,
    backend,
    **metadata,
) -> tuple[MPSVMModel, list[dict]]:
    """The model and its per-SVM stats from every pair's finalize outputs.

    ``finals`` maps problem index to ``(record, pool_entry, svm_stats,
    ...)``.  Records, the shared SV pool and the stats follow problem
    order whichever execution path (cascade / interleaved / sequential,
    any device) produced each pair.  ``metadata`` adds to the model's
    trainer, device, backend and dtype entries.
    """
    ordered = [finals[index] for index in range(len(finals))]
    model = MPSVMModel(
        classes=classes,
        kernel=kernel,
        penalty=float(penalty),
        records=[entry[0] for entry in ordered],
        sv_pool=SupportVectorPool.build(data, [entry[1] for entry in ordered]),
        probability=config.probability,
        strategy=config.decomposition,
        metadata={
            "trainer": config.solver,
            "device": config.device.name,
            "backend": backend.name,
            "dtype": np.dtype(backend.dtype).name,
            **metadata,
        },
    )
    return model, [entry[2] for entry in ordered]


def _train_cascade_pair(
    config: TrainerConfig,
    classes: np.ndarray,
    problem,
    pool,
    data: mops.MatrixLike,
    kernel: KernelFunction,
    penalty: float,
    member_clocks: list[SimClock],
    *,
    store=None,
    checkpoint_every: int = 4,
    pair_span=None,
):
    """Train one routed pair through the cascade driver and finalize it.

    The cascade (``config.cascade``) runs over ``pool`` (its wave-scaled member time lands in
    ``member_clocks``, one per device); the pair then finalizes on a
    fresh engine whose op counts go to the reduction-tree root device.
    The per-SVM ``simulated_seconds`` is the pair's busy time summed over
    every device: shard solves, merges, polish and finalize.  Cascade
    pairs always train cold — a warm-start prior maps a monolithic dual
    solution, which has no sound projection onto the instance shards.

    Returns ``((record, pool_entry, svm_stats), result, finalize_clock)``;
    the stats carry the pair's full ``CascadeReport.to_dict()`` as
    ``"cascade"`` (its reduction-tree root is ``["tree"]["root_device"]``).
    """
    from repro.cascade.driver import _cascade_solve

    engines_before = [engine.clock.copy() for engine in pool.engines]
    members_before = [clock.copy() for clock in member_clocks]
    pair_data = mops.take_rows(data, problem.global_indices)
    penalty_vector = _class_weighted_penalties(config, classes, problem, penalty)
    result, report = _cascade_solve(
        config,
        config.cascade,
        pool,
        pair_data,
        problem.labels,
        kernel,
        penalty,
        penalty_vector=penalty_vector,
        member_clocks=member_clocks,
        store=store,
        checkpoint_every=checkpoint_every,
    )
    root = int(report.tree["root_device"])
    finalize_engine = _config_engine(config, pool.engine(root).counters)
    record, pool_entry, svm_stats = _finalize_pair(
        config, finalize_engine, problem, result, data, kernel, penalty,
        penalty_vector=penalty_vector, pair_span=pair_span,
        pair_data=pair_data,
    )
    svm_stats["warm_start"] = False
    svm_stats["simulated_seconds"] = sum(
        pool.engine(device).clock.since(engines_before[device]).elapsed_s
        + member_clocks[device].since(members_before[device]).elapsed_s
        for device in range(pool.n_devices)
    ) + finalize_engine.clock.elapsed_s
    svm_stats["cascade"] = report.to_dict()
    return (record, pool_entry, svm_stats), result, finalize_engine.clock


def _finalize_pair(
    config: TrainerConfig,
    engine: Engine,
    problem,
    result,
    data: mops.MatrixLike,
    kernel: KernelFunction,
    penalty: float,
    *,
    penalty_vector: Optional[np.ndarray] = None,
    pair_span=None,
    pair_data: Optional[mops.MatrixLike] = None,
    fitted: Optional[tuple] = None,
):
    """Post-solve assembly of one binary SVM: sigmoid, record, pool entry.

    Shared by the sequential loop and the interleaved driver so that
    model assembly is one code path regardless of execution schedule.
    ``fitted`` is the pair's sigmoid already fit in a stack with others
    and the :class:`~repro.gpusim.engine.ChargeLedger` of its charges,
    which are issued here, where a lone fit would issue them.
    Returns ``(BinarySVMRecord, pool_entry, svm_stats)``.
    """
    # Training-set decision values come free from the indicators:
    # v_i = f_i + y_i + b (Eq. 3 vs Eq. 11).
    decisions = result.f + problem.labels + result.bias
    engine.elementwise("decision_values", problem.n, flops_per_element=2)
    sigmoid = None
    if fitted is not None:
        sigmoid, ledger = fitted
        ledger.replay()
    elif config.probability:
        sigmoid_decisions = decisions
        if config.probability_cv_folds > 1:
            # LibSVM's -b 1 methodology: fit the sigmoid on held-out
            # decision values from a stratified cross-validation
            # (the paper's Figure 1 uses the direct values above).
            if pair_data is None:
                pair_data = mops.take_rows(data, problem.global_indices)
            try:
                sigmoid_decisions = _cv_decision_values(
                    config, engine, kernel, pair_data, problem.labels,
                    penalty, penalty_vector=penalty_vector,
                )
            except _CVFallback:
                sigmoid_decisions = decisions
        sigmoid = fit_sigmoid(
            engine,
            sigmoid_decisions,
            problem.labels,
            parallel_line_search=config.parallel_line_search,
        )
    train_error = float(np.mean(np.sign(decisions) != problem.labels))

    support = result.support_indices
    coefficients = result.alpha[support] * problem.labels[support]
    global_sv = problem.global_indices[support]
    pool_entry = (problem.s, problem.t, global_sv, coefficients, result.bias)
    record = BinarySVMRecord(
        s=problem.s,
        t=problem.t,
        global_sv_indices=global_sv,
        coefficients=coefficients,
        bias=result.bias,
        sigmoid=sigmoid,
        iterations=result.iterations,
        objective=result.objective,
        training_error=train_error,
    )
    svm_stats = {
        "pair": (problem.s, problem.t),
        "n": problem.n,
        "iterations": result.iterations,
        "rounds": result.rounds,
        "converged": result.converged,
        "n_support": int(support.size),
        "buffer_hit_rate": result.buffer_hit_rate,
        "simulated_seconds": engine.clock.elapsed_s,
    }
    if result.round_trace is not None:
        svm_stats["round_trace"] = result.round_trace
    if pair_span is not None:
        pair_span.set(
            iterations=result.iterations,
            rounds=result.rounds,
            converged=result.converged,
            n_support=int(support.size),
            buffer_hit_rate=result.buffer_hit_rate,
            simulated_seconds=engine.clock.elapsed_s,
        )
    return record, pool_entry, svm_stats


def _make_shared_store(
    config: TrainerConfig,
    engine: Engine,
    kernel: KernelFunction,
    data: mops.MatrixLike,
    classes: np.ndarray,
    partition: list,
) -> tuple[Optional[SharedClassPairKernels], Optional[KernelRowComputer]]:
    """The cross-SVM segment share for one device, or ``(None, None)``.

    With a single pair there is nothing to share across SVMs ("GMP-SVM is
    in fact the same as the GPU baseline when handling binary problems"),
    so the sharing layer only engages for true multi-class problems.  The
    store is bound to a quarter of device memory so it shares (rather
    than silently replaces) the per-SVM buffers.  The distributed trainer
    builds one such store per device over that device's master engine.
    """
    if not (
        config.share_kernel_values
        and classes.size > 2
        and config.decomposition == "ovo"
    ):
        return None, None
    shared_computer = KernelRowComputer(engine, kernel, data)
    shared_computer.diagonal()  # norms + diagonal once, on the master
    shared = SharedClassPairKernels(
        shared_computer,
        partition,
        max_bytes=config.device.global_mem_bytes // 4,
    )
    return shared, shared_computer


def _make_pair_member(
    config: TrainerConfig,
    classes: np.ndarray,
    index: int,
    problem,
    penalty: float,
    data: mops.MatrixLike,
    kernel: KernelFunction,
    *,
    shared: Optional[SharedClassPairKernels],
    shared_computer: Optional[KernelRowComputer],
    counters,
    warm_start: Optional[MPSVMModel] = None,
) -> PairMember:
    """One resumable wave-driver member for a pairwise problem.

    The member gets its own engine clock (``counters`` shared with the
    caller's master so op totals aggregate).  Sessions cannot keep a
    per-pair span open across waves (spans are stack-nested), so they run
    untraced; the ``solve_pair``/``solver.batch_smo`` spans are emitted by
    :func:`_finalize_members` with the same attributes.
    """
    engine = _config_engine(config, counters)
    if shared is not None and shared_computer is not None:
        rows = _SharedPairRows(engine, shared, shared_computer, problem)
    else:
        rows = KernelRowComputer(
            engine, kernel, mops.take_rows(data, problem.global_indices)
        )
    penalty_vector = _class_weighted_penalties(config, classes, problem, penalty)
    solver = _batched_solver(
        config, penalty, tracer=None, record_rounds=config.tracer is not None
    )
    warm = _warm_pair_init(warm_start, problem, rows, penalty, penalty_vector)
    session = solver.start(
        rows,
        problem.labels,
        penalty_vector=penalty_vector,
        initial_alpha=None if warm is None else warm[0],
        initial_f=None if warm is None else warm[1],
    )
    return PairMember(
        index=index,
        problem=problem,
        engine=engine,
        session=session,
        mem_bytes=_batched_task_bytes(config, problem.n),
        blocks=config.blocks_per_svm,
        warm_started=warm is not None,
    )


def _interleave_limits(config: TrainerConfig, resident_bytes: int) -> WaveLimits:
    """Wave packing rules for one device holding ``resident_bytes`` of data."""
    return WaveLimits(
        num_sms=config.device.num_sms,
        mem_budget_bytes=max(
            config.device.global_mem_bytes - resident_bytes, 1
        ),
        max_concurrent=config.max_concurrent_svms,
    )


def _finalize_members(
    config: TrainerConfig,
    classes: np.ndarray,
    members: Sequence[PairMember],
    data: mops.MatrixLike,
    kernel: KernelFunction,
    penalty: float,
    tracer: Optional[Tracer],
) -> list[tuple]:
    """Finalize wave-driver members after their sessions terminated.

    Sigmoids fit on the training decision values (no cross-validation)
    run as one lockstep :func:`~repro.probability.platt.fit_sigmoids`
    loop, each member's charges on a ledger of its own.  Then each member,
    in order, emits its per-pair telemetry spans and runs
    :func:`_finalize_pair`, which books those charges.  Returns per member
    ``(record, pool_entry, svm_stats, clock_delta)``, where the delta
    covers only the finalization charges (sigmoid fit, decision values)
    on the member's engine.
    """
    fitted: list[Optional[tuple]] = [None] * len(members)
    if config.probability and config.probability_cv_folds <= 1:
        ledgers = [ChargeLedger(member.engine) for member in members]
        sigmoids = fit_sigmoids(
            ledgers,
            [m.result.f + m.problem.labels + m.result.bias for m in members],
            [m.problem.labels for m in members],
            parallel_line_search=config.parallel_line_search,
        )
        fitted = list(zip(sigmoids, ledgers))
    finals = []
    for member, fit in zip(members, fitted):
        engine, problem, result = member.engine, member.problem, member.result
        before = engine.clock.copy()
        with maybe_span(
            tracer,
            "solve_pair",
            clock=engine.clock,
            pair=(problem.s, problem.t),
            n=problem.n,
        ) as pair_span:
            diagnostics = result.diagnostics or {}
            with maybe_span(
                tracer,
                "solver.batch_smo",
                clock=engine.clock,
                n=problem.n,
                working_set_size=diagnostics.get("working_set_size"),
                new_per_round=diagnostics.get("new_per_round"),
            ) as solver_span:
                solver_span.set(
                    rounds=result.rounds,
                    iterations=result.iterations,
                    converged=result.converged,
                    buffer_hit_rate=result.buffer_hit_rate,
                )
            penalty_vector = _class_weighted_penalties(
                config, classes, problem, penalty
            )
            record, pool_entry, svm_stats = _finalize_pair(
                config, engine, problem, result, data, kernel, penalty,
                penalty_vector=penalty_vector, pair_span=pair_span, fitted=fit,
            )
        finals.append((record, pool_entry, svm_stats, engine.clock.since(before)))
    return finals


def _class_weighted_penalties(
    config: TrainerConfig,
    classes: np.ndarray,
    problem,
    penalty: float,
) -> Optional[np.ndarray]:
    """Per-instance C for one binary problem, or None when unweighted.

    The positive side carries class s's weight; the negative side carries
    class t's (or 1.0 for one-vs-all's "rest" side).
    """
    if not config.class_weight:
        return None
    labels_list = np.asarray(classes).tolist()
    pos_weight = config.class_weight.get(labels_list[problem.s], 1.0)
    if problem.t >= 0:
        neg_weight = config.class_weight.get(labels_list[problem.t], 1.0)
    else:
        neg_weight = 1.0
    if pos_weight == 1.0 and neg_weight == 1.0:
        return None
    return penalty * np.where(problem.labels > 0, pos_weight, neg_weight)


def _batched_solver(
    config: TrainerConfig,
    penalty: float,
    *,
    tracer: Optional[Tracer],
    record_rounds: bool,
) -> BatchSMOSolver:
    """The batched solver under ``config``'s geometry."""
    return BatchSMOSolver(
        penalty=penalty,
        epsilon=config.epsilon,
        working_set_size=config.working_set_size,
        new_per_round=config.new_per_round,
        buffer_rows=config.buffer_rows,
        buffer_policy=config.buffer_policy,
        inner_rule=config.inner_rule,
        register_buffer_memory=False,  # tracked via the task estimate
        tracer=tracer,
        record_rounds=record_rounds,
    )


def _batched_task_bytes(config: TrainerConfig, n: int) -> int:
    """Device bytes one batched-solver task keeps resident.

    Solver state (alpha, f, labels, diagonal) plus the kernel buffer —
    the wave-packing rules bound concurrency from this estimate.
    """
    state_bytes = 4 * n * FLOAT_BYTES
    resident_rows = config.buffer_rows or 2 * config.working_set_size
    return state_bytes + min(resident_rows, n) * n * FLOAT_BYTES


def _solve_pair(
    config: TrainerConfig,
    engine: Engine,
    rows: "KernelRowComputer",
    labels: np.ndarray,
    penalty: float,
    *,
    penalty_vector: Optional[np.ndarray] = None,
    warm: Optional[tuple[np.ndarray, np.ndarray]] = None,
):
    """Run the configured solver on one pairwise problem.

    Returns ``(SolverResult, task_device_bytes)`` where the byte estimate
    covers what the task keeps resident on the device (solver state plus
    its kernel buffer/cache) — wave packing bounds concurrency from it.
    ``warm`` optionally carries ``(initial_alpha, initial_f)`` from
    :func:`_warm_pair_init`; only the batched solver consumes it
    (``_validate_warm_start`` rejects warm starts on the classic path).
    """
    n = rows.n
    state_bytes = 4 * n * FLOAT_BYTES  # alpha, f, labels, diagonal resident
    if config.solver == "batched":
        solver = _batched_solver(
            config, penalty, tracer=config.tracer, record_rounds=False
        )
        result = solver.solve(
            rows,
            labels,
            penalty_vector=penalty_vector,
            initial_alpha=None if warm is None else warm[0],
            initial_f=None if warm is None else warm[1],
        )
        return result, _batched_task_bytes(config, n)

    solver = ClassicSMOSolver(
        penalty=penalty,
        epsilon=config.epsilon,
        shrinking=config.classic_shrinking,
        cache_bytes=config.classic_cache_bytes,
    )
    result = solver.solve(rows, labels, penalty_vector=penalty_vector)
    return result, state_bytes + solver.buffer_nbytes(n)


class _SharedPairRows:
    """Adapter: a pairwise-problem view over the shared class-pair kernels.

    Implements the :class:`KernelRowComputer` protocol the solvers use,
    mapping the binary problem's local indices to global instances and
    pulling kernel segments from the cross-SVM share.  The *task* engine is
    exposed for the solver's own charges; kernel computation is charged to
    the sharing service's engine (the master) exactly once per segment.
    """

    def __init__(
        self,
        task_engine: Engine,
        shared: SharedClassPairKernels,
        computer: KernelRowComputer,
        problem,
    ) -> None:
        self.engine = task_engine
        self._shared = shared
        self._computer = computer
        self._problem = problem

    @property
    def n(self) -> int:
        return self._problem.n

    @property
    def row_nbytes(self) -> int:
        return self.n * FLOAT_BYTES

    def diagonal(self) -> np.ndarray:
        return self._computer.diagonal()[self._problem.global_indices]

    def rows(
        self,
        local_ids: object,
        *,
        columns: Optional[np.ndarray] = None,
        category: Optional[str] = None,
    ) -> np.ndarray:
        idx = np.asarray(local_ids, dtype=np.int64)
        global_ids = self._problem.global_indices[idx]
        pair_rows = self._shared.rows_for_pair(
            global_ids,
            self._problem.s,
            self._problem.t,
            category=category if category is not None else "kernel_values",
        )
        # The share holds whole class segments; a shrunk solver reads its
        # active columns out of them.
        return pair_rows if columns is None else pair_rows[:, columns]


def _cv_decision_values(
    config: TrainerConfig,
    engine: Engine,
    kernel: KernelFunction,
    pair_data: mops.MatrixLike,
    labels: np.ndarray,
    penalty: float,
    *,
    penalty_vector: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Held-out decision values from a stratified k-fold cross-validation.

    Mirrors LibSVM's ``svm_binary_svc_probability``: for each fold, a
    fresh SVM is trained on the other folds and scored on the held-out
    instances; the assembled out-of-fold values feed the sigmoid fit.
    Fold assignment is deterministic (seeded by the pair size) and
    stratified so every training part keeps both classes.
    """
    n = labels.size
    positives = np.flatnonzero(labels > 0)
    negatives = np.flatnonzero(labels < 0)
    folds = min(config.probability_cv_folds, positives.size, negatives.size)
    if folds < 2:
        # Too few instances of a class to cross-validate; LibSVM falls back
        # to heuristic raw values — we fall back to the direct method.
        warnings.warn(
            "not enough instances per class for CV sigmoid targets; "
            "using direct decision values",
            ConvergenceWarning,
            stacklevel=2,
        )
        raise _CVFallback()

    rng = np.random.default_rng(n)
    decisions = np.empty(n)
    fold_of = np.empty(n, dtype=np.int64)
    for class_indices in (positives, negatives):
        shuffled = class_indices.copy()
        rng.shuffle(shuffled)
        fold_of[shuffled] = np.arange(shuffled.size) % folds

    for fold in range(folds):
        held_out = np.flatnonzero(fold_of == fold)
        train_part = np.flatnonzero(fold_of != fold)
        fold_data = mops.take_rows(pair_data, train_part)
        fold_rows = KernelRowComputer(engine, kernel, fold_data)
        result, _ = _solve_pair(
            config, engine, fold_rows, labels[train_part], penalty,
            penalty_vector=(
                penalty_vector[train_part] if penalty_vector is not None else None
            ),
        )
        support = result.support_indices
        held_data = mops.take_rows(pair_data, held_out)
        if support.size:
            block = fold_rows.block(held_data, category="decision_values")
            coefficients = result.alpha[support] * labels[train_part][support]
            values = block[:, support] @ coefficients + result.bias
            engine.charge(
                "decision_values",
                flops=2 * held_out.size * support.size,
                bytes_read=held_out.size * support.size * FLOAT_BYTES,
                bytes_written=held_out.size * FLOAT_BYTES,
                launches=1,
            )
        else:
            values = np.full(held_out.size, result.bias)
        decisions[held_out] = values
    return decisions


class _CVFallback(Exception):
    """Internal: fall back to direct sigmoid targets."""
