"""The repository's benchmark: workloads, tracing and report (see README.md)."""
