"""The classic SMO loop with shrinking off, bit for bit.

``ClassicSMOSolver`` runs LibSVM's shrinking as an active set that never
shrinks when shrinking is off.  On that path every result field, the
engine clock and the op counters must equal the solver as it stood
before the fold (``tests/classic_smo_reference.py``), and the
shrinking-off baselines must reproduce their pinned runs.  The one
intended difference is ``kernel_rows_computed``: it counts buffer misses
where the reference counted every fetch.
"""

import hashlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import save_model
from repro.baselines import GPUBaselineClassifier, GPUSVMClassifier, LibSVMClassifier
from repro.data import gaussian_blobs
from repro.gpusim import make_engine, scaled_tesla_p100, xeon_e5_2640v4
from repro.kernels import GaussianKernel, KernelBuffer, KernelRowComputer
from repro.solvers import ClassicSMOSolver
from repro.solvers import smo
from repro.sparse import CSRMatrix

from tests.classic_smo_reference import ClassicSMOSolver as ReferenceSolver


@st.composite
def classic_problems(draw):
    n = draw(st.integers(2, 36))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Rounded features make duplicate rows and tied indicators likely.
    x = np.round(rng.normal(size=(n, d)), draw(st.sampled_from([0, 1, 3])))
    y = np.where(rng.random(n) < draw(st.floats(0.2, 0.8)), 1.0, -1.0)
    y[0], y[-1] = 1.0, -1.0
    penalty = draw(st.sampled_from([0.1, 1.0, 10.0]))
    weighted = draw(st.booleans())
    penalty_vector = (
        np.where(y > 0, penalty * draw(st.sampled_from([0.5, 3.0])), penalty)
        if weighted
        else None
    )
    return {
        "data": CSRMatrix.from_dense(x) if draw(st.booleans()) else x,
        "y": y,
        "penalty": penalty,
        "penalty_vector": penalty_vector,
        "gamma": draw(st.sampled_from([0.1, 0.5, 2.0])),
        "cache_rows": draw(st.sampled_from([0, 2, n])),
        "device": draw(st.sampled_from([scaled_tesla_p100, xeon_e5_2640v4])),
    }


def _run(problem, make_solver):
    engine = make_engine(problem["device"]())
    rows = KernelRowComputer(engine, GaussianKernel(problem["gamma"]), problem["data"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = make_solver().solve(
            rows, problem["y"], penalty_vector=problem["penalty_vector"]
        )
    return result, engine


@given(classic_problems())
@settings(max_examples=60, deadline=None)
def test_shrinking_off_matches_reference_bitwise(problem):
    n = problem["y"].size
    cache_rows = problem["cache_rows"]
    buffer = KernelBuffer(cache_rows, n, policy="lru") if cache_rows else None
    want, want_engine = _run(
        problem, lambda: ReferenceSolver(penalty=problem["penalty"], buffer=buffer)
    )
    got, got_engine = _run(
        problem,
        lambda: ClassicSMOSolver(
            penalty=problem["penalty"], cache_bytes=cache_rows * n * 8 or None
        ),
    )
    assert np.array_equal(got.alpha, want.alpha)
    assert np.array_equal(got.f, want.f)
    for field in (
        "bias", "converged", "iterations", "rounds", "objective",
        "final_gap", "buffer_hit_rate",
    ):
        assert getattr(got, field) == getattr(want, field), field
    assert got_engine.clock._latency == want_engine.clock._latency
    assert got_engine.clock._compute == want_engine.clock._compute
    assert got_engine.counters == want_engine.counters
    # The one intended change: misses, not fetches, where a buffer exists.
    want_rows = buffer.stats.misses if buffer else want.kernel_rows_computed
    assert got.kernel_rows_computed == want_rows


# Recorded before shrinking joined the classic loop.
PINS = {
    "gpu_baseline": (
        4.4671173185483525e-05,
        411,
        [0.7733812949640287, 0.7423076923076923, 0.7570422535211268],
        "c5461ee2e39e0a88125e4bee15ec8090b18c52ceed08950c7dfde9479d74c6e5",
    ),
    "gpu_baseline_tiny_cache": (
        6.397474374999953e-05,
        411,
        [0.01079136690647482, 0.0038461538461538464, 0.0035211267605633804],
        "c5461ee2e39e0a88125e4bee15ec8090b18c52ceed08950c7dfde9479d74c6e5",
    ),
    "gpusvm": (
        1.448737118055543e-05,
        139,
        [0.7733812949640287],
        "e444ec9b311ae3311244e0d1c255fc528c992b155e042796793e39f1efd126d6",
    ),
    "libsvm_h0": (
        0.0003763138333333316,
        411,
        [0.7733812949640287, 0.7423076923076923, 0.7570422535211268],
        "c5461ee2e39e0a88125e4bee15ec8090b18c52ceed08950c7dfde9479d74c6e5",
    ),
}


def _fit_baseline(name):
    x, y = gaussian_blobs(n=150, n_features=5, n_classes=3, seed=6)
    if name == "gpu_baseline":
        clf = GPUBaselineClassifier(C=10.0, gamma=0.4)
    elif name == "gpu_baseline_tiny_cache":
        clf = GPUBaselineClassifier(C=10.0, gamma=0.4, cache_bytes=4 * 100 * 8)
    elif name == "gpusvm":
        keep = y != 2
        x, y = x[keep], y[keep]
        clf = GPUSVMClassifier(C=10.0, gamma=0.4)
    else:
        clf = LibSVMClassifier(C=10.0, gamma=0.4, shrinking=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return clf.fit(x, y)


@pytest.mark.parametrize("name", sorted(PINS))
def test_shrinking_off_baselines_keep_their_pins(name):
    clf = _fit_baseline(name)
    report = clf.training_report_
    text = io.StringIO()
    save_model(clf.model_, text)
    assert (
        report.simulated_seconds,
        report.total_iterations,
        [svm["buffer_hit_rate"] for svm in report.per_svm],
        hashlib.sha256(text.getvalue().encode()).hexdigest(),
    ) == PINS[name]


def test_gpu_baseline_reports_buffer_misses(monkeypatch):
    buffers = []

    class RecordingBuffer(KernelBuffer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            buffers.append(self)

    monkeypatch.setattr(smo, "KernelBuffer", RecordingBuffer)
    report = _fit_baseline("gpu_baseline").training_report_
    misses = sum(buffer.stats.misses for buffer in buffers)
    requests = sum(buffer.stats.requests for buffer in buffers)
    assert report.kernel_rows_computed == misses < requests
