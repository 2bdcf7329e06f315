"""The GVEX benchmark: workloads, checks, and the outside-in tracer."""
