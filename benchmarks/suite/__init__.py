"""The repository's benchmark suite: six named workloads, end-to-end metrics
and an outside-in per-layer trace.  See ``README.md`` in this directory."""
