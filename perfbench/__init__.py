"""The repository benchmark: two host-clock workloads over the public API.

Run one workload with::

    python3 perfbench/run.py --workload sweep-tcu --seed 1 --seconds 45 --trace 0

``BENCHMARK.json`` at the repository root names the workloads, why each was
chosen, and the metrics.  One module per workload (``sweep_tcu``,
``sharded_numpy``) builds its seeded inputs, set-up, untraced window and
traced window; two more (``compile_cold``, ``served_skewed``) do the same
for the layers those leave idle and are profiled as companions in the
traced runs (``run.COMPANIONS``).  ``harness`` holds the percentile rule,
the closed loop and the result line, ``layers`` the self-time accounting,
``oracles`` the output checks.  Self-tests live in ``perfbench/tests``.
"""
