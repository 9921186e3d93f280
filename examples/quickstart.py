"""Quickstart: simulate AWB-GCN inference on Cora.

Loads the Cora-calibrated synthetic dataset, runs the no-rebalancing
baseline and the full AWB design (2-hop local sharing + remote
switching), and prints latency, PE utilization and the speedup — the
experiment behind the paper's Fig. 14(A).

Run:  python examples/quickstart.py

Serving
-------
This runs *one* inference. For the multi-graph serving scenario — a
stream of requests scheduled across a pool of simulated accelerators,
with converged Eq. 5 row maps cached per (graph, config) so repeat
graphs skip the auto-tuner warm-up — see :mod:`repro.serve` and
``examples/serving_traffic.py``; ``hostbench/run.py`` measures its host
throughput.
"""

from repro import ArchConfig, GcnAccelerator, load_dataset


def main():
    dataset = load_dataset("cora", "scaled", seed=7)
    print(dataset.summary())
    print()

    baseline_cfg = ArchConfig(n_pes=256, hop=0, remote_switching=False)
    awb_cfg = ArchConfig(n_pes=256, hop=2, remote_switching=True)

    baseline = GcnAccelerator(dataset, baseline_cfg).run()
    awb = GcnAccelerator(dataset, awb_cfg).run()

    print(f"{'design':<28}{'cycles':>12}{'latency':>12}{'PE util':>10}")
    for label, report in (("baseline", baseline), ("AWB (h2 + remote)", awb)):
        print(
            f"{label:<28}{report.total_cycles:>12,}"
            f"{report.latency_ms:>10.3f}ms"
            f"{report.utilization:>10.1%}"
        )
    speedup = baseline.total_cycles / awb.total_cycles
    print(f"\nruntime rebalancing speedup: {speedup:.2f}x "
          f"(paper reports ~2.1x for Cora)")

    print("\nper-SPMM utilization (AWB design):")
    for result in awb.spmm_results:
        converged = (
            f"tuner converged at round {result.converged_round}"
            if result.converged_round
            else "static map"
        )
        print(
            f"  {result.job_name:<10} util={result.utilization:6.1%}  "
            f"cycles={result.total_cycles:>9,}  ({converged})"
        )


if __name__ == "__main__":
    main()
