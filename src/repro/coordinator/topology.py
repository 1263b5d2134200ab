"""Cluster topology: which shard server(s) serve which partition.

A topology is a plain mapping ``partition_id → replica base URLs``.  Every
partition has at least one replica; the first listed is the *primary* (the
transport prefers it while healthy, and :meth:`ShardTopology.url_of` keeps
returning it for single-replica callers).  Operators write topologies
inline — replicas separated by ``|`` —

    --shards "P0=http://10.0.0.1:9000|http://10.0.0.2:9000,P1=http://10.0.0.3:9000"

and code passes the mapping itself, each value a URL or a list of URLs.
The launcher (:mod:`repro.coordinator.launcher`) builds one from the ports
its shard subprocesses actually bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.errors import ShardError

__all__ = ["ShardTopology"]

#: Inline-form separator between replica URLs of one partition.
REPLICA_SEPARATOR = "|"


def _normalise_urls(partition_id: str, value: Union[str, Sequence[str]],
                    ) -> Tuple[str, ...]:
    """One shard entry's value → a validated, ordered replica URL tuple."""
    if isinstance(value, str):
        urls: Sequence[str] = [value]
    elif isinstance(value, (list, tuple)):
        urls = list(value)
    else:
        raise ShardError(
            f"shard {partition_id!r} needs an http base URL or a list of "
            f"them, got {type(value).__name__}"
        )
    if not urls:
        raise ShardError(f"shard {partition_id!r} needs at least one replica URL")
    cleaned: List[str] = []
    for url in urls:
        if not isinstance(url, str) or not url.startswith("http"):
            raise ShardError(
                f"shard {partition_id!r} needs an http base URL, got {url!r}"
            )
        url = url.rstrip("/")
        if url in cleaned:
            raise ShardError(
                f"shard {partition_id!r} lists replica {url!r} twice"
            )
        cleaned.append(url)
    return tuple(cleaned)


@dataclass(frozen=True)
class ShardTopology:
    """An immutable ``partition_id → replica base URLs`` mapping.

    ``shards`` accepts a bare URL or a sequence of URLs per partition and
    normalises every value to a tuple, so single-replica topologies keep
    their one-URL-per-partition reading and tests can still build
    ``ShardTopology({"P0": "http://..."})`` directly.
    """

    shards: Mapping[str, Union[str, Sequence[str]]]

    def __post_init__(self) -> None:
        if not self.shards:
            raise ShardError("a topology needs at least one shard")
        normalised: Dict[str, Tuple[str, ...]] = {}
        for partition_id, value in self.shards.items():
            if not partition_id or not isinstance(partition_id, str):
                raise ShardError(f"invalid partition id {partition_id!r}")
            normalised[partition_id] = _normalise_urls(partition_id, value)
        object.__setattr__(self, "shards", normalised)

    @classmethod
    def parse(cls, text: str) -> "ShardTopology":
        """Parse the inline ``P0=http://a|http://b,P1=...`` form."""
        shards: Dict[str, Tuple[str, ...]] = {}
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            partition_id, separator, urls = entry.partition("=")
            if not separator:
                raise ShardError(
                    f"cannot parse shard entry {entry!r}: expected "
                    "PARTITION_ID=http://host:port[|http://replica:port...]"
                )
            shards[partition_id.strip()] = tuple(
                url.strip() for url in urls.split(REPLICA_SEPARATOR) if url.strip()
            )
        return cls(shards)

    # -- queries ------------------------------------------------------------------------

    def url_of(self, partition_id: str) -> str:
        """Primary (first-listed) replica URL of ``partition_id``."""
        return self.replicas_of(partition_id)[0]

    def replicas_of(self, partition_id: str) -> Tuple[str, ...]:
        """Every replica URL serving ``partition_id``, preference-ordered."""
        try:
            return self.shards[partition_id]  # type: ignore[return-value]
        except KeyError:
            raise ShardError(
                f"no shard serves partition {partition_id!r} "
                f"(topology covers: {', '.join(self.partition_ids)})"
            ) from None

    @property
    def partition_ids(self) -> Tuple[str, ...]:
        """Every partition the topology covers, sorted."""
        return tuple(sorted(self.shards))

    def missing(self, required: Iterable[str]) -> List[str]:
        """Partitions in ``required`` that no shard serves (sorted)."""
        return sorted(set(required) - set(self.shards))

    def __repr__(self) -> str:
        return f"ShardTopology({dict(self.shards)!r})"
