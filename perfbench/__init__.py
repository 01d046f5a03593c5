"""declat's benchmark: four seeded workloads, end-to-end times and traced per-layer spans."""
