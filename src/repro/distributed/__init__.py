"""Distributed Klink (Sec. 4): multi-node deployment with decentralized
per-node schedulers and delay/cost information forwarding."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.distributed.placement import PhysicalPlan
    from repro.distributed.forwarding import ForwardingBoard, QueryInfo
    from repro.distributed.cluster import DistributedEngine

#: public name -> the module that defines it, imported on first use
_EXPORTS = {
    "PhysicalPlan": "repro.distributed.placement",
    "ForwardingBoard": "repro.distributed.forwarding",
    "QueryInfo": "repro.distributed.forwarding",
    "DistributedEngine": "repro.distributed.cluster",
}

__all__ = [
    "PhysicalPlan",
    "ForwardingBoard",
    "QueryInfo",
    "DistributedEngine",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
