"""Synthetic workloads: point distributions and query batches for the
efficiency experiments (Figures 3–7), plus :class:`ServerClient`, the HTTP
client every tool, test and benchmark drives a live server with."""

from repro.workloads.distributions import (
    clustered_points,
    grid_points,
    skewed_points,
    sorted_points,
    uniform_points,
)
from repro.workloads.http_client import ServerClient
from repro.workloads.queries import (QueryWorkload, mixed_query_specs,
                                     perturbed_queries, uniform_queries)

__all__ = [
    "uniform_points",
    "clustered_points",
    "skewed_points",
    "sorted_points",
    "grid_points",
    "QueryWorkload",
    "uniform_queries",
    "perturbed_queries",
    "mixed_query_specs",
    "ServerClient",
]
