"""Distributed: shard one training run across a simulated GPU cluster.

The one-against-one decomposition of a k-class problem yields k(k-1)/2
*independent* binary SVMs — a natural unit of distribution.
``train_multiclass_sharded`` places them on a multi-device cluster
(co-locating pairs that share a class block), runs the interleaved wave
driver on every device, and merges the per-device models back over the
simulated interconnect.  Sharding only changes the *timeline*: the
trained model, its decision values and its coupled probabilities are
bit-for-bit what single-device training produces.

Run:  python examples/distributed.py
"""

import numpy as np

from repro import ClusterSpec, TrainerConfig, train_multiclass_sharded
from repro.core.predictor import PredictorConfig, predict_proba_model
from repro.core.trainer import train_multiclass
from repro.data import gaussian_blobs, train_test_split
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.functions import kernel_from_name

K = 10
N_DEVICES = 4


def main() -> None:
    data, labels = gaussian_blobs(n=800, n_features=16, n_classes=K, seed=11)
    x_train, y_train, x_test, _ = train_test_split(
        data, labels, test_fraction=0.25, seed=1
    )
    kernel = kernel_from_name("gaussian", gamma=0.3)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=32)

    # Baseline: the whole workload on one simulated device.
    model_single, report_single = train_multiclass(
        config, x_train, y_train, kernel, 1.0
    )
    print(f"single device: {report_single.n_binary_svms} binary SVMs in "
          f"{report_single.simulated_seconds * 1e3:.3f} ms simulated")

    # Sharded: the same workload over a 4-device cluster.
    cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=N_DEVICES)
    model, report = train_multiclass_sharded(
        config, cluster, x_train, y_train, kernel, 1.0, placement="affinity"
    )
    print(f"\n{report.device_name}: makespan "
          f"{report.simulated_seconds * 1e3:.3f} ms simulated "
          f"({report_single.simulated_seconds / report.simulated_seconds:.2f}x "
          f"vs one device)")
    print("per-device timelines:")
    for entry in report.per_device:
        print(f"  device {entry['device']}: {entry['n_svms']:2d} SVMs  "
              f"{entry['simulated_seconds'] * 1e3:7.3f} ms  "
              f"utilization {entry['utilization']:6.1%}  "
              f"transfers {entry['transfer_bytes'] / 1e3:7.1f} KB")
    print(f"cluster speedup (busy/makespan): {report.cluster_speedup:.2f}x")
    print(f"interconnect total: {report.transfer_bytes_total / 1e3:.1f} KB "
          f"(SV merge: {report.merge_bytes / 1e3:.1f} KB)")

    # The distribution is timeline-only: probabilities are bitwise equal.
    predictor = PredictorConfig(device=scaled_tesla_p100())
    proba_single, _ = predict_proba_model(predictor, model_single, x_test)
    proba_sharded, _ = predict_proba_model(predictor, model, x_test)
    assert np.array_equal(proba_single, proba_sharded), (
        "sharded training must reproduce single-device probabilities exactly"
    )
    print(f"\nprobabilities bitwise equal across {N_DEVICES} devices: "
          f"{np.array_equal(proba_single, proba_sharded)}")


if __name__ == "__main__":
    main()
