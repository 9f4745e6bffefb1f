"""Repository benchmark: four seeded closed-loop workloads, end-to-end
metrics with tracing off, per-layer metrics from a traced run.  Entry
point: ``python3 perfbench/run.py --workload NAME``."""
