"""Information forwarding between Klink instances (Sec. 4).

In a distributed deployment no single node holds all the runtime data a
priority computation needs: network-delay statistics are observed where
the source operator runs, while execution costs of downstream operators
are known only on the nodes hosting them. Klink forwards:

* **delay information** from the node observing the source/watermark
  stream to every node running downstream operators, and
* **cost information** from downstream nodes to upstream nodes, so the
  node hosting a query's head can price the full end-to-end drain.

Forwarding rides an RPC service, so remote reads observe values one
forwarding period old. The :class:`ForwardingBoard` models exactly that:
each node publishes its local contribution every cycle, and reads from
other nodes return the snapshot published at least ``rpc_latency_ms``
ago. A node reading its own entries sees them fresh.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.spe.state import Codec


@dataclass
class QueryInfo:
    """One query's forwarded runtime information, as published."""

    published_at: float
    # delay-side (published by the source node)
    mu: float = 0.0
    chi: float = 0.0
    last_watermark_ts: float = float("-inf")
    next_deadline: Optional[float] = None
    last_swm_ingest_time: Optional[float] = None
    # cost-side (published by each node hosting downstream operators)
    pending_cost_ms: float = 0.0


_NO_PUBLISHERS: List[int] = []

#: the published histories as ``[node, query_id, [[published_at, info],
#: ...]]`` rows sorted by (node, query_id)
PUBLISHED = Codec(
    lambda entries: [
        [node, query_id, [[at, dict(vars(info))] for at, info in history]]
        for (node, query_id), history in sorted(entries.items())
    ],
    lambda rows, live, mode: {
        (int(node), str(query_id)): [
            (float(at), QueryInfo(**info)) for at, info in history
        ]
        for node, query_id, history in rows
    },
)


class ForwardingBoard:
    """RPC-lagged key-value store for inter-node scheduler information."""

    CHECKPOINT = ((None, "_entries", PUBLISHED),)

    def __init__(self, rpc_latency_ms: float = 2.0) -> None:
        if rpc_latency_ms < 0:
            raise ValueError(f"negative rpc latency: {rpc_latency_ms}")
        self.rpc_latency_ms = rpc_latency_ms
        # (node, query_id) -> [(published_at, info)] — two most recent kept
        self._entries: Dict[Tuple[int, str], List[Tuple[float, QueryInfo]]] = {}
        # query_id -> ascending nodes holding an entry for it; derived from
        # _entries and rebuilt by after_restore() when a checkpoint restores them.
        self._publishers: Dict[str, List[int]] = {}
        #: What every node but a query's source derives from remote reads
        #: alone, computed by the first such node each cycle: the forwarded
        #: SWM estimate, and the slack seen by nodes that host none of the
        #: query's operators and hold no entry for it. Keyed by
        #: (query_id, now, estimator z); any board write drops it.
        self.remote_memo: Dict[Tuple[str, float, float], List[Any]] = {}

    def publish(self, node: int, query_id: str, info: QueryInfo) -> None:
        """Publish ``node``'s local information about ``query_id``."""
        if self.remote_memo:
            self.remote_memo.clear()  # klink: transient[memo of values derived from _entries]
        key = (node, query_id)
        history = self._entries.get(key)
        if history is None:
            history = self._entries[key] = []
            insort(self._publishers.setdefault(query_id, []), node)  # klink: transient[derived from _entries; after_restore() rebuilds it]
        history.append((info.published_at, info))
        if len(history) > 2:
            del history[0]

    def publishers(self, query_id: str) -> List[int]:
        """Nodes holding an entry for ``query_id``, ascending (do not
        mutate the returned list)."""
        return self._publishers.get(query_id, _NO_PUBLISHERS)

    def after_restore(self) -> None:
        """Re-derive the publisher lists after ``_entries`` was replaced."""
        self.remote_memo.clear()
        publishers: Dict[str, List[int]] = {}
        for node, query_id in sorted(self._entries):
            publishers.setdefault(query_id, []).append(node)
        self._publishers = publishers

    def read(
        self, reader_node: int, owner_node: int, query_id: str, now: float
    ) -> Optional[QueryInfo]:
        """Read ``owner_node``'s info about a query from ``reader_node``.

        Local reads are fresh; remote reads see the newest snapshot that
        is at least ``rpc_latency_ms`` old (the value the RPC service has
        already delivered).
        """
        history = self._entries.get((owner_node, query_id))
        if not history:
            return None
        if reader_node == owner_node:
            return history[-1][1]
        cutoff = now - self.rpc_latency_ms
        for published_at, info in reversed(history):
            if published_at <= cutoff:
                return info
        return None
