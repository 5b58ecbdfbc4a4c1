"""Checkpointing and failover recovery for the streaming engines.

See ``docs/RESILIENCE.md`` for the checkpoint format, the recovery
strategies, and the invariant guarantees proven by the chaos test tier.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.resilience.checkpoint import (
        SCHEMA_VERSION,
        CheckpointCoordinator,
        CheckpointError,
        CheckpointStore,
        capture,
        capture_lineage,
        deserialize,
        restore,
        restore_lineage,
        serialize,
    )
    from repro.resilience.recovery import (
        STRATEGIES,
        RecoveryConfig,
        RecoveryEvent,
        RecoveryManager,
    )

#: public name -> the module that defines it, imported on first use
_EXPORTS = {
    "SCHEMA_VERSION": "repro.resilience.checkpoint",
    "CheckpointCoordinator": "repro.resilience.checkpoint",
    "CheckpointError": "repro.resilience.checkpoint",
    "CheckpointStore": "repro.resilience.checkpoint",
    "capture": "repro.resilience.checkpoint",
    "capture_lineage": "repro.resilience.checkpoint",
    "deserialize": "repro.resilience.checkpoint",
    "restore": "repro.resilience.checkpoint",
    "restore_lineage": "repro.resilience.checkpoint",
    "serialize": "repro.resilience.checkpoint",
    "STRATEGIES": "repro.resilience.recovery",
    "RecoveryConfig": "repro.resilience.recovery",
    "RecoveryEvent": "repro.resilience.recovery",
    "RecoveryManager": "repro.resilience.recovery",
}

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointCoordinator",
    "CheckpointError",
    "CheckpointStore",
    "capture",
    "capture_lineage",
    "deserialize",
    "restore",
    "restore_lineage",
    "serialize",
    "STRATEGIES",
    "RecoveryConfig",
    "RecoveryEvent",
    "RecoveryManager",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
