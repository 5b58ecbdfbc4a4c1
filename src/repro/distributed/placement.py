"""Physical plans: operator-to-node assignment.

The SPE devises a physical plan mapping operators to nodes at deployment
time; Klink "functions orthogonally to the deployment problem and is
designed to work with any physical plan" (Sec. 4). Two plans are
provided:

* ``locality`` — whole query pipelines are placed on one node,
  round-robin across nodes. This mirrors the paper's Fig. 6e setup, which
  uses "Flink's built-in mechanism that considers the type of operators
  and memory locality to minimize data mobility".
* ``split`` — each pipeline is cut into contiguous segments spread over
  consecutive nodes (the Fig. 5 scenario), exercising cross-node record
  transfer and the delay/cost information forwarding rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence

from repro.core.scheduler import Allocation
from repro.spe.operators import Operator
from repro.spe.query import Query


class NodeShare:
    """The operators of one query that one node hosts.

    ``operators`` keeps ``query.operators`` order and ``positions`` holds
    their indices in that list; ``allocation`` is a reusable
    whole-share :class:`Allocation` for plans that run the full query.
    """

    __slots__ = ("operators", "positions", "op_ids", "windowed", "allocation")

    def __init__(self, query: Query, positions: List[int]) -> None:
        ops = query.operators
        self.positions = positions
        self.operators: List[Operator] = [ops[i] for i in positions]
        self.op_ids: FrozenSet[int] = frozenset(id(op) for op in self.operators)
        self.windowed = [
            op for op in query.windowed_operators() if id(op) in self.op_ids
        ]
        self.allocation = Allocation(query, self.operators)


class QueryPlacement:
    """Where one query runs: its source node and each hosting node's share
    (``shares`` iterates in ascending node order)."""

    __slots__ = ("source_node", "shares")

    def __init__(self, query: Query, node_of: Dict[int, int]) -> None:
        positions: Dict[int, List[int]] = {}
        for i, op in enumerate(query.operators):
            positions.setdefault(node_of[id(op)], []).append(i)
        self.source_node = node_of[id(query.operators[0])]
        self.shares: Dict[int, NodeShare] = {
            node: NodeShare(query, positions[node]) for node in sorted(positions)
        }


@dataclass
class PhysicalPlan:
    """Maps every operator (by id) to a node index.

    Placement facts are derived once per query into a
    :class:`QueryPlacement` index. ``node_of`` is read-only after
    construction: :meth:`relocate` is the one way to change placement,
    and it rebuilds the index.
    """

    n_nodes: int
    node_of: Dict[int, int] = field(default_factory=dict)
    _index: Dict[str, QueryPlacement] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def placement(self, query: Query) -> QueryPlacement:
        """The query's placement index entry (built on first use)."""
        try:
            return self._index[query.query_id]
        except KeyError:
            entry = self._index[query.query_id] = QueryPlacement(query, self.node_of)
            return entry

    def build_index(self, queries: Sequence[Query]) -> None:
        """(Re)derive every query's placement entry from ``node_of``."""
        self._index = {
            query.query_id: QueryPlacement(query, self.node_of) for query in queries
        }

    def relocate(self, queries: Sequence[Query], node: int, target: int) -> None:
        """Move every operator placed on ``node`` to ``target``."""
        node_of = self.node_of
        for query in queries:
            for op in query.operators:
                if node_of[id(op)] == node:
                    node_of[id(op)] = target
        self.build_index(queries)

    def node_of_operator(self, op: Operator) -> int:
        return self.node_of[id(op)]

    def source_node(self, query: Query) -> int:
        """Node hosting the query's first operator (watermark origin)."""
        return self.placement(query).source_node

    def local_operators(self, query: Query, node: int) -> List[Operator]:
        share = self.placement(query).shares.get(node)
        return list(share.operators) if share is not None else []

    def is_split(self, query: Query) -> bool:
        return len(self.placement(query).shares) > 1

    def cross_node_edges(self, query: Query) -> List[Operator]:
        """Operators whose output crosses a node boundary."""
        out = []
        for op in query.operators:
            down = query.downstream_of(op)
            if down is not None and self.node_of[id(op)] != self.node_of[id(down)]:
                out.append(op)
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def locality(cls, queries: Sequence[Query], n_nodes: int) -> "PhysicalPlan":
        """Whole pipelines colocated; queries spread round-robin."""
        if n_nodes < 1:
            raise ValueError(f"need at least one node: {n_nodes}")
        plan = cls(n_nodes=n_nodes)
        for i, query in enumerate(queries):
            node = i % n_nodes
            for op in query.operators:
                plan.node_of[id(op)] = node
        plan.build_index(queries)
        return plan

    @classmethod
    def split(
        cls, queries: Sequence[Query], n_nodes: int, segments: int = 2
    ) -> "PhysicalPlan":
        """Cut each pipeline into up to ``segments`` contiguous pieces.

        Segment boundaries respect topological order, so every cross-node
        edge points "forward" (upstream node -> downstream node), matching
        the Fig. 5 deployment where node A holds the source half and node
        B the window/output half.
        """
        if n_nodes < 1:
            raise ValueError(f"need at least one node: {n_nodes}")
        segments = max(1, min(segments, n_nodes))
        plan = cls(n_nodes=n_nodes)
        for i, query in enumerate(queries):
            ops = query.operators
            n_segs = min(segments, len(ops))
            per_seg = -(-len(ops) // n_segs)  # ceil division
            for j, op in enumerate(ops):
                seg = min(j // per_seg, n_segs - 1)
                plan.node_of[id(op)] = (i + seg) % n_nodes
        plan.build_index(queries)
        return plan
