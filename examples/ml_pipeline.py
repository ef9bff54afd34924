"""Streaming machine-learning pipeline under NoStop tuning.

The paper's motivating ML scenario: a streaming logistic-regression
model trained continuously on labeled events arriving at a time-varying
7k-13k records/s.  This example shows both halves of the reproduction:

* the *system* half — NoStop tunes batch interval / executor count while
  the micro-batch engine processes the load (its cost model drives the
  simulated batch processing times);
* the *semantic* half — the actual NumPy SGD kernel trains on sampled
  record payloads from the same generator, demonstrating that the
  workload is a real computation, not just a cost curve.

Run:  python examples/ml_pipeline.py
"""

from repro.experiments.common import build_experiment, make_controller


def main() -> None:
    setup = build_experiment("logistic_regression", seed=11)
    workload = setup.workload

    print("phase 1: online model training on sampled batch payloads")
    print(f"  (model dim={workload.DIM}, {workload.EPOCHS} SGD epochs/batch)")
    for batch in range(8):
        # Sample payloads representative of one micro-batch's records.
        points = setup.generator.sample_payloads(1500)
        out = workload.run_kernel(points)
        print(f"  batch {batch}: loss={out['loss']:.3f} "
              f"accuracy={out['accuracy']:.3f} (n={out['n']})")
    print(f"  trained on {workload.batches_trained} batches; "
          f"model weights norm={sum(w * w for w in workload.weights) ** 0.5:.3f}")

    print("\nphase 2: NoStop configuration optimization of the pipeline")
    controller = make_controller(setup, seed=11)
    report = controller.run(rounds=35)
    best = controller.pause_rule.best_config()

    print(f"  final: interval={report.final_interval:.2f}s, "
          f"executors={report.final_executors}")
    print(f"  measured processing time at optimum: "
          f"{best.mean_processing_time:.2f}s (stable={best.stable})")
    print(f"  steady-state delay estimate: {best.end_to_end_delay:.2f}s")
    print(f"  live configuration changes used: {report.config_changes}")

    # The §6.3 observation: ML batches vary in processing time because
    # per-batch SGD iteration counts differ.
    procs = [
        r.mean_processing_time
        for r in report.optimization_rounds()
        if r.mean_processing_time is not None
    ]
    mean = sum(procs) / len(procs)
    var = sum((p - mean) ** 2 for p in procs) / len(procs)
    print(f"\n  per-round processing-time spread (ML noisiness, §6.3): "
          f"std={var ** 0.5:.2f}s around mean={mean:.2f}s")


if __name__ == "__main__":
    main()
