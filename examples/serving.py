"""Serving: seal a fitted model once, micro-batch many small requests.

A trained model answering single-instance requests one at a time pays
the whole prediction pipeline — engine setup, pool norms, sigmoid
stacking — per request.  The serving layer amortizes all of it:
``InferenceSession`` seals the fitted model into warm device state, and
``repro.server.Dispatcher`` fuses queued requests into batched
dispatches whose per-request results are *bitwise* what one-shot calls
would return.

Run:  python examples/serving.py
"""

import numpy as np

from repro import GMPSVC, InferenceSession
from repro.data import gaussian_blobs, train_test_split
from repro.server import AdmissionController, Dispatcher, TenantPolicy


def main() -> None:
    data, labels = gaussian_blobs(n=500, n_features=8, n_classes=3, seed=21)
    x_train, y_train, x_test, y_test = train_test_split(
        data, labels, test_fraction=0.3, seed=1
    )
    classifier = GMPSVC(C=10.0, gamma=0.3, working_set_size=64)
    classifier.fit(x_train, y_train)

    # Seal once: pool shipped to the device, norms resident, sigmoid
    # arrays stacked.  Every subsequent call runs only per-request math.
    session = InferenceSession.from_estimator(classifier)
    print(f"sealed session: {session!r}")
    print(f"seal cost (simulated): "
          f"{session.stats.seal_simulated_s * 1e6:.3f} us, paid once")

    # Direct serving: bitwise-identical to the one-shot estimator path.
    served = session.predict_proba(x_test)
    one_shot = classifier.predict_proba(x_test)
    print(f"session vs one-shot bitwise equal: "
          f"{np.array_equal(served, one_shot)}")

    # Micro-batching: the first request takes the idle lane alone; the
    # rest queue behind it and fuse up to max_batch per dispatch.  The
    # admission controller lets all 64 same-instant requests in.
    dispatcher = Dispatcher(
        session,
        n_workers=1,
        max_batch=32,
        admission=AdmissionController(
            default_policy=TenantPolicy(burst=64, max_queue=64),
            max_queue_global=64,
        ),
    )
    handles = [
        dispatcher.submit(x_test[i : i + 1], kind="predict_proba")
        for i in range(64)
    ]
    dispatcher.drain()
    fused = np.vstack([handle.result for handle in handles])
    print(f"micro-batched vs one-shot bitwise equal: "
          f"{np.array_equal(fused, one_shot[:64])}")

    stats = dispatcher.stats
    print(f"\nserved {stats.n_admitted} requests in {stats.n_dispatches} "
          f"fused batches (mean {stats.mean_batch_size:.1f} req/batch)")
    print(f"simulated latency p50/p99: "
          f"{stats.latency_percentile(50.0) * 1e6:.3f} / "
          f"{stats.latency_percentile(99.0) * 1e6:.3f} us")
    print(f"total simulated serving time: "
          f"{session.stats.serve_simulated_s * 1e6:.3f} us "
          f"across {session.stats.n_calls} fused calls")


if __name__ == "__main__":
    main()
